"""Spans around the calls one package module makes into another.

The benchmark installs wrappers from its own files; nothing under ``src/``
changes.  A wrapper records a span (name, start, end, parent) per call and
adds counts read from the call's public result.  Spans stay in memory until
the run ends.  A ``core`` call is recorded only when no span of another
layer except ``cli`` is open, so the wrappers record nothing inside the tree
walk, the hull fixpoint or rendering, where ``core`` runs per node.
"""

from __future__ import annotations

import inspect
import json
import types
from collections import Counter, defaultdict
from time import perf_counter

# (layer group the span's time is charged to, names wrapped for it)
SERIALIZE = {
    "serialize.table_s": ("tree_table", "render_table", "render_pairs", "generator_label"),
    "serialize.csv_s": ("tree_csv",),
    "serialize.json_s": ("dumps", "semigroup_dict", "tree_json_obj", "closure_obj", "sequence_obj"),
    "serialize.dot_s": ("tree_dot",),
}
CORE = {
    "core.from_generators_s": ("from_generators",),
    "core.generators_s": ("minimal_generators", "embedding_dim"),
    "core.apery_s": ("apery_set", "pseudo_frobenius", "special_gaps", "semigroup_type"),
    "core.is_med_s": ("is_med",),
    "core.is_arf_s": ("is_arf",),
    "core.elements_s": ("small_elements", "gaps", "difference_sequence"),
}


class Tracer:
    """Collects spans and counts for one traced stretch of a run."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, str, float, float]] = []
        self.counts: Counter = Counter()
        self._next = 0
        self._stack: list[int] = []
        self._open: Counter = Counter()  # open spans per layer

    def wrap(self, fn, group: str, count=None):
        """``fn`` with a span charged to ``group`` and an optional count hook.

        ``count(counts, result, args, nested)`` runs after the span closes;
        ``nested`` is true when a span of the same layer was already open.
        """
        layer = group.split(".")[0]
        name = fn.__name__
        materialize = inspect.isgeneratorfunction(fn)

        def traced(*args, **kwargs):
            if layer == "core" and sum(self._open.values()) > self._open["cli"]:
                return fn(*args, **kwargs)
            nested = self._open[layer] > 0
            sid, parent = self._next, self._stack[-1] if self._stack else -1
            self._next += 1
            self._stack.append(sid)
            self._open[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if materialize:  # charge a generator's work to its own span
                    result = iter(list(result))
            finally:
                end = perf_counter()
                self._stack.pop()
                self._open[layer] -= 1
                self.spans.append((sid, parent, group, name, start, end))
            if count is not None:
                self._hook(count, result, args, nested, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hook(self, count, result, args, nested, parent):
        # the hook's own time is a span of its own, so it is not charged to the caller
        start = perf_counter()
        count(self.counts, result, args, nested)
        self.spans.append((self._next, parent, "trace.hooks", count.__name__, start, perf_counter()))
        self._next += 1

    def self_times(self) -> dict[str, float]:
        """Total self time per group: span time not covered by child spans."""
        covered: defaultdict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: defaultdict[str, float] = defaultdict(float)
        for sid, _, group, _, start, end in self.spans:
            totals[group] += end - start - covered[sid]
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for sid, parent, group, name, start, end in self.spans:
                out.write(json.dumps({"id": sid, "parent": parent, "group": group, "name": name,
                                      "start": start, "end": end}) + "\n")


def _count_tree(counts, tree, args, nested):
    counts["tree.nodes"] += len(tree)
    counts["tree.depth"] = max(counts["tree.depth"], len(tree.depth_counts()) - 1)


def _count_maximal(counts, indices, args, nested):
    tree = args[0]
    counts["tree.leaves"] += len(tree) - len({parent for _, parent in tree.edges()})
    counts["tree.maximal"] += len(indices)


def _count_sequences(counts, sequences, args, nested):
    if not nested:  # generation inside maximal_elements is not a separate result
        counts["sequences.count"] += len(sequences)


def _count_free(counts, members, args, nested):
    counts["sequences.free"] += len(members)


def _count_hull(counts, result, args, nested):
    counts["closure.calls"] += 1
    counts["closure.accepted"] += result.is_ar_set
    counts["closure.rounds"] += len(result.stages)
    counts["closure.added"] += sum(len(stage) for stage in result.stages)


def _count_mask(counts, result, args, nested):
    S = result if isinstance(args[0], type) else args[0]
    counts["core.mask_bits"] += max(S.frobenius + 1, 0)


def install(tracer: Tracer, pkg) -> list[tuple[object, str, object]]:
    """Wrap the cross-module calls of ``pkg``; returns what ``uninstall`` restores."""
    cli, tree, sequences, serialize = pkg.cli, pkg.tree, pkg.sequences, pkg.serialize
    NumericalSemigroup = pkg.core.NumericalSemigroup
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    patch(cli, "enumerate_ar", tracer.wrap(tree.enumerate_ar, "tree.enumerate_s", _count_tree))
    patch(tree.CovarietyTree, "maximal_indices",
          tracer.wrap(tree.CovarietyTree.maximal_indices, "tree.maximal_s", _count_maximal))
    patch(cli, "ar_closure", tracer.wrap(cli.ar_closure, "closure.hull_s", _count_hull))
    patch(cli, "minimal_ar_generators", tracer.wrap(cli.minimal_ar_generators, "closure.mingens_s"))
    for name in ("count_rank_one", "rank_one_catalog"):
        patch(cli, name, tracer.wrap(getattr(cli, name), "closure.rank_one_s"))
    # core.is_arf imports validate_sequence from the module at call time
    validate = tracer.wrap(sequences.validate_sequence, "sequences.validate_s")
    patch(cli, "validate_sequence", validate)
    patch(sequences, "validate_sequence", validate)
    for name in ("admits_proper_refinement", "iter_refinements"):
        patch(cli, name, tracer.wrap(getattr(cli, name), "sequences.refine_s"))
    patch(cli, "semigroup_of_sequence", tracer.wrap(cli.semigroup_of_sequence, "sequences.convert_s"))
    patch(sequences, "arf_sequences_with_total",
          tracer.wrap(sequences.arf_sequences_with_total, "sequences.generate_s", _count_sequences))
    patch(sequences, "maximal_elements",
          tracer.wrap(sequences.maximal_elements, "sequences.maximal_s", _count_free))

    # cli reaches serialize through the module object; give cli a traced view of
    # it, so that calls inside serialize itself stay unwrapped
    view = types.SimpleNamespace(**{k: v for k, v in vars(serialize).items() if not k.startswith("__")})
    for group, names in SERIALIZE.items():
        for name in names:
            setattr(view, name, tracer.wrap(getattr(serialize, name), group))
    patch(cli, "serialize", view)

    for group, names in CORE.items():
        for name in names:
            raw = NumericalSemigroup.__dict__[name]
            if isinstance(raw, classmethod):
                patch(NumericalSemigroup, name, classmethod(tracer.wrap(raw.__func__, group, _count_mask)))
            else:
                patch(NumericalSemigroup, name, tracer.wrap(raw, group, _count_mask))
    return saved


def uninstall(saved: list[tuple[object, str, object]]) -> None:
    for owner, attr, value in reversed(saved):
        setattr(owner, attr, value)
