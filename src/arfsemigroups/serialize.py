"""Deterministic text renderings: JSON objects, tables, CSV and DOT.

Key order in JSON objects is fixed, all collections are emitted in ascending
numeric order, and nothing here depends on wall time or thread count, so any
two runs produce identical bytes.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

from .closure import ClosureResult
from .core import NumericalSemigroup
from .tree import CovarietyTree

CSV_HEADER = "depth,frobenius,multiplicity,genus,type,generators"


def semigroup_dict(S: NumericalSemigroup) -> dict[str, Any]:
    return _semigroup_dict(S, None if S.is_natural() else S.semigroup_type())


def _node_dict(S: NumericalSemigroup) -> dict[str, Any]:
    """``semigroup_dict`` of a tree node: tree nodes are Arf, so MED, so their type is m - 1."""
    return _semigroup_dict(S, S.multiplicity() - 1)


def _semigroup_dict(S: NumericalSemigroup, semigroup_type: int | None) -> dict[str, Any]:
    return {
        "frobenius": S.frobenius,
        "multiplicity": S.multiplicity(),
        "genus": S.genus(),
        "type": semigroup_type,
        "min_generators": list(S.minimal_generators()),
        "small_elements": list(S.small_elements()),
    }


def dumps(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"))


def generator_label(S: NumericalSemigroup) -> str:
    return "<" + ",".join(str(g) for g in S.minimal_generators()) + ">"


def render_table(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Space-aligned columns with a header line."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in header]
    for row in cells:
        for k, c in enumerate(row):
            widths[k] = max(widths[k], len(c))
    lines = ["  ".join(h.ljust(widths[k]) for k, h in enumerate(header)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.ljust(widths[k]) for k, c in enumerate(row)).rstrip())
    return "\n".join(lines)


def render_pairs(pairs: Iterable[tuple[str, Any]]) -> str:
    items = list(pairs)
    width = max(len(k) for k, _ in items)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in items)


def _node_row(tree: CovarietyTree, index: int) -> list[Any]:
    node = tree.nodes[index]
    S = node.semigroup
    m = S.multiplicity()
    return [node.depth, S.frobenius, m, S.genus(), m - 1]  # tree nodes are Arf, so MED: type m - 1


def tree_table(tree: CovarietyTree, indices: Iterable[int]) -> str:
    header = ["depth", "frobenius", "multiplicity", "genus", "type", "generators"]
    rows = [
        _node_row(tree, i) + [",".join(map(str, tree.nodes[i].semigroup.minimal_generators()))]
        for i in indices
    ]
    return render_table(header, rows)


def tree_csv(tree: CovarietyTree, indices: Iterable[int]) -> str:
    lines = [CSV_HEADER]
    for i in indices:
        row = _node_row(tree, i)
        gens = ";".join(map(str, tree.nodes[i].semigroup.minimal_generators()))
        lines.append(",".join(str(c) for c in row) + "," + gens)
    return "\n".join(lines)


def tree_json_obj(tree: CovarietyTree) -> dict[str, Any]:
    return {
        "frobenius": tree.frobenius,
        "root": 0,
        "nodes": [_node_dict(node.semigroup) for node in tree.nodes],
        "edges": [list(edge) for edge in tree.edges()],
    }


def tree_dot(tree: CovarietyTree) -> str:
    lines = [f"digraph arf_tree_{tree.frobenius} {{", "  node [shape=box];"]
    for i, node in enumerate(tree.nodes):
        label = generator_label(node.semigroup)
        lines.append(f'  n{i} [label="{label}"];')
    for child, parent in tree.edges():
        lines.append(f"  n{child} -> n{parent};")
    lines.append("}")
    return "\n".join(lines)


def closure_obj(result: ClosureResult, rank: int | None) -> dict[str, Any]:
    return {
        "F": result.frobenius,
        "X": list(result.input_set),
        "is_ar_set": result.is_ar_set,
        "closure": semigroup_dict(result.closure) if result.closure is not None else None,
        "rank": rank,
    }


def sequence_obj(
    terms: Sequence[int],
    valid: bool,
    refinement_free: bool | None = None,
    semigroup: NumericalSemigroup | None = None,
) -> dict[str, Any]:
    obj: dict[str, Any] = {"sequence": list(terms), "valid": valid}
    if valid:
        obj["refinement_free"] = refinement_free
        obj["semigroup"] = semigroup_dict(semigroup) if semigroup is not None else None
    return obj
