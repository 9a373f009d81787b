"""Command-line surface: the ``arfsg`` commands, read off one command table.

``_COMMANDS`` holds each command under the words that name it: its function,
the metavar of its one positional, its description and its options.  A
command is a plain function of its parameters.  ``_read`` reads an argv off
the table and gives up on anything it does not read in full (``--help``, an
unknown word, a missing or bad value); only then is the argparse tree built
from the same table, once, and it parses the argv, so help screens and usage
errors are argparse's and a command that runs imports no argparse.  Within
that tree a command is parsed by its own subparser, and the top level
handles only what no route matches and arguments the command leaves over,
so its usage errors read as before.  The functions look up the library calls
as module globals when they run, so those can be replaced from outside (a
tracer wrapping ``enumerate_ar``, say) without touching the table.

Exit codes: 0 on success; 1 for a domain "no" (a set with no hull, an
invalid sequence, a non-Arf input where membership is required), shown as
the command's record on stdout or as the library's own message on stderr;
2 for unusable input: a usage error reported by the parser, or ``Error:
<message>`` on stderr.  An outcome is raised where it is decided, as
``CliError`` here or as a library error, and ``main`` is the one place that
maps it to a status: ``NotInCovarietyError`` and ``InvalidSequenceError``
to 1, any other ``SemigroupError`` and ``CliError`` to 2.  All stdout output
is deterministic; the optional ``--stats`` report carries a wall-time
measurement and therefore goes to stderr.
"""

from __future__ import annotations

import os
import sys
import time
from functools import cache, partial

from . import serialize
from .closure import ar_closure, count_rank_one, minimal_ar_generators, rank_one_catalog
from .core import NumericalSemigroup, _canonical_key, _refinement_free_masks
from .errors import InvalidSequenceError, NotInCovarietyError, SemigroupError
from .sequences import (
    ArfSequence,
    admits_proper_refinement,
    iter_refinements,
    semigroup_of_sequence,
    validate_sequence,
)
from .tree import enumerate_ar

INT_CAP = 2**31 - 1

# The seq commands render the semigroup of TERMS, a mask over [0, total], and `refinements`
# prints each split as a whole sequence: k twos and one term near the total have about
# total/4 splits of k + 2 terms, so that output grows with the square of the total.
# Budget: every accepted input finishes within 2 s.  The slowest found, `seq refinements`
# on 2 x 1,024 then 6,144 (--format json, 4.3 MB out), took 0.7 s at 2^13 (CPython 3.11,
# shared 2-core Xeon) and 2.2 s at 2^14; dense twos and `2,T` stay near 0.2 s at 2^13.
_SEQ_LIMIT = 1 << 13


class CliError(Exception):
    """Unusable input the library does not refuse itself: ``main`` prints ``Error: <message>``
    to stderr and returns 2, as for the library's refusals."""


def _to_int(text: str, what: str) -> int:
    try:
        value = int(str(text).strip())
    except ValueError:
        raise CliError(f"{what} must be an integer, got {text!r}")
    if not -INT_CAP <= value <= INT_CAP:
        raise CliError(f"{what} {value} overflows the 32-bit input cap")
    return value


def _int_list(text: str, what: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    return tuple(_to_int(part, what) for part in text.split(","))


def _terms(text: str) -> tuple[int, ...]:
    xs = _int_list(text, "term")
    total = sum(xs)
    if total > _SEQ_LIMIT:
        raise CliError(f"sequence total {total} refused (limit {_SEQ_LIMIT})")
    return xs


def _build_semigroup(gens_text: str) -> NumericalSemigroup:
    try:
        return NumericalSemigroup.from_generators(_int_list(gens_text, "generator"))
    except ValueError as exc:  # a generator below 1
        raise CliError(str(exc))


def cmd_enumerate(frobenius: str, fmt: str, stats: bool, maximal_only: bool) -> None:
    F = _to_int(frobenius, "frobenius")
    if stats or not maximal_only:
        started = time.perf_counter()
        tree = enumerate_ar(F)
        wall = time.perf_counter() - started
    # the one maximal route, the pruned walk, refuses F as the tree walk does
    maximal = _refinement_free_masks(F) if stats or maximal_only else None
    # the walk yields the maximal members in the order of their sequences
    masks = sorted(maximal, key=_canonical_key) if maximal_only else tree.masks
    if fmt == "json":
        print(serialize.members_json(F, masks) if maximal_only else serialize.nodes_json(tree))
    else:  # a tree's generator masks are read off the parents, a list's from each mask
        gens = serialize.generator_masks(F, masks) if maximal_only else serialize.tree_generator_masks(tree)
        print(serialize.tree_table(F, masks, gens) if fmt == "table" else serialize.tree_csv(F, masks, gens))
    if stats:
        print(
            serialize.render_pairs(
                [
                    ("frobenius", tree.frobenius),
                    ("nodes", len(tree)),
                    ("depth_counts", tree.depth_counts()),
                    ("maximal", len(maximal)),
                    ("wall_seconds", f"{wall:.3f}"),
                ]
            ),
            file=sys.stderr,
        )


def cmd_tree(frobenius: str, fmt: str) -> None:
    tree = enumerate_ar(_to_int(frobenius, "frobenius"))
    print(serialize.tree_dot(tree) if fmt == "dot" else serialize.tree_json(tree))


def cmd_check(generators: str, fmt: str) -> None:
    S = _build_semigroup(generators)
    gens = S.minimal_generators()  # S need not be Arf, so not the MED shortcut
    if S.is_natural():
        pf = sg = seq = valid = None
    else:
        pf = S.pseudo_frobenius()
        sg = tuple(x for x in pf if 2 * x in S)  # the special gaps
        seq = S.difference_sequence()
        valid = validate_sequence(seq)
    rows = [
        ("frobenius", S.frobenius),
        ("multiplicity", S.multiplicity()),
        ("embedding_dim", len(gens)),
        ("genus", S.genus()),
        ("small_count", S.small_count()),
        ("type", None if pf is None else len(pf)),
        ("min_generators", gens),
        ("small_elements", S.small_elements()),
        ("pseudo_frobenius", pf),
        ("special_gaps", sg),
        ("is_med", len(gens) == S.multiplicity()),
        ("is_arf", valid is not False),  # the naturals are Arf
        ("sequence", seq),
        ("sequence_valid", valid),
    ]
    if fmt == "json":
        # the semigroup's own rows, less the two counts, nest as one object
        semigroup = {key: value for key, value in rows[:8] if key not in ("embedding_dim", "small_count")}
        print(serialize.dumps({"semigroup": semigroup, **dict(rows[8:])}))
    else:
        print(serialize.render_pairs(rows))


def cmd_closure(frobenius: str, elements: str, fmt: str) -> int | None:
    F = _to_int(frobenius, "frobenius")
    result = ar_closure(_int_list(elements, "element"), F)
    if result.is_ar_set:
        minimal = minimal_ar_generators(result.closure)
        rank = len(minimal)
    else:
        minimal = rank = None
    if fmt == "json":
        print(serialize.dumps(serialize.closure_obj(result, rank)))
    else:
        rows = [
            ("F", result.frobenius),
            ("X", result.input_set),
            ("is_ar_set", result.is_ar_set),
            ("closure", serialize.generator_label(result.closure) if result.closure else None),
            ("small_elements", result.closure.small_elements() if result.closure else None),
            ("minimal_system", minimal),
            ("rank", rank),
        ]
        print(serialize.render_pairs(rows))
    if not result.is_ar_set:
        return 1


def cmd_minimal_gens(generators: str, fmt: str) -> None:
    S = _build_semigroup(generators)
    minimal = minimal_ar_generators(S)
    rows = [("minimal_system", minimal), ("rank", len(minimal))]
    if fmt == "json":
        print(
            serialize.dumps(
                {
                    "semigroup": serialize.semigroup_dict(S),
                    **dict(rows),
                }
            )
        )
    else:
        print(
            serialize.render_pairs(
                [
                    ("semigroup", serialize.generator_label(S)),
                    ("frobenius", S.frobenius),
                    *rows,
                ]
            )
        )


def cmd_rank_one(frobenius: str, count_only: bool, fmt: str) -> None:
    F = _to_int(frobenius, "frobenius")
    if count_only:
        n = count_rank_one(F)
        print(serialize.dumps({"F": F, "count": n}) if fmt == "json" else str(n))
        return
    masks = [S.mask for S in rank_one_catalog(F)]
    print(serialize.members_json(F, masks) if fmt == "json" else serialize.rank_one_table(F, masks))


def seq_validate(terms: str, fmt: str) -> int | None:
    xs = _terms(terms)
    try:
        seq = ArfSequence(xs)  # the one validation; the calls below take its terms as they are
    except InvalidSequenceError:
        rows = [("sequence", xs), ("valid", False)]
        print(serialize.dumps(dict(rows)) if fmt == "json" else serialize.render_pairs(rows))
        return 1
    S = semigroup_of_sequence(seq)
    free = not admits_proper_refinement(seq)
    if fmt == "json":
        print(serialize.dumps(serialize.sequence_obj(xs, free, S)))
    else:
        print(
            serialize.render_pairs(
                [
                    ("sequence", xs),
                    ("valid", True),
                    ("refinement_free", free),
                    ("total", sum(xs)),
                    ("frobenius", S.frobenius),
                    ("semigroup", serialize.generator_label(S)),
                ]
            )
        )


def seq_semigroup(terms: str, fmt: str) -> None:
    S = semigroup_of_sequence(_terms(terms))
    semigroup = serialize.semigroup_dict(S)  # S is Arf, so MED: the type is m - 1
    if fmt == "json":
        print(serialize.dumps(semigroup))
    else:
        print(serialize.render_pairs(semigroup.items()))


def seq_refinements(terms: str, fmt: str) -> None:
    xs = _terms(terms)
    refined = list(iter_refinements(xs))
    if fmt == "json":
        print(
            serialize.dumps(
                {
                    "sequence": xs,
                    "refinement_free": not refined,
                    "refinements": [
                        {"position": i, "value": a, "sequence": q.terms}
                        for i, a, q in refined
                    ],
                }
            )
        )
        return
    lines = [serialize.render_pairs([("sequence", xs), ("refinement_free", not refined)])]
    for i, a, q in refined:
        lines.append(f"position {i}  value {a}  -> {','.join(str(t) for t in q.terms)}")
    print("\n".join(lines))


def _format(*choices: str) -> dict:
    """``--format`` with the given choices, the first being the default."""
    return {"dest": "fmt", "choices": choices, "default": choices[0], "help": "Output format (default: %(default)s)."}


def _flag(dest: str, help: str) -> dict:
    return {"dest": dest, "action": "store_true", "default": False, "help": help}


# Each command keyed by the words that name it: (fn, the metavar of its one positional, summary,
# extra description, options).  An option is its add_argument keywords under its name, in the order
# of the help screen; a flag is the one with an action.
_COMMANDS = {
    ("enumerate",): (
        cmd_enumerate, "FROBENIUS", "List every Arf semigroup with Frobenius number FROBENIUS.", "",
        {
            "--format": _format("table", "json", "csv"),
            "--stats": _flag("stats", "Print an enumeration report to stderr."),
            "--maximal-only": _flag("maximal_only", "Only inclusion-maximal members."),
        },
    ),
    ("tree",): (
        cmd_tree, "FROBENIUS", "Export the rooted tree on Ar(FROBENIUS) (edges point child -> parent).", "",
        {"--format": _format("dot", "json")},
    ),
    ("check",): (
        cmd_check, "GENERATORS", "Report the invariants of the semigroup generated by GENERATORS.", "",
        {"--format": _format("table", "json")},
    ),
    ("closure",): (
        cmd_closure, "FROBENIUS", "Smallest Arf semigroup with Frobenius number FROBENIUS containing --set.",
        "Exits 1 when no such semigroup exists.",
        {
            "--set": {"dest": "elements", "default": "", "metavar": "X", "help": "Comma-separated positive integers."},
            "--format": _format("table", "json"),
        },
    ),
    ("minimal-gens",): (
        cmd_minimal_gens, "GENERATORS", "Minimal hull-generating set of the Arf semigroup generated by GENERATORS.",
        "Exits 1 when the generated semigroup is not Arf.",
        {"--format": _format("table", "json")},
    ),
    ("rank-one",): (
        cmd_rank_one, "FROBENIUS", "All rank-one members of Ar(FROBENIUS), or their count.", "",
        {"--count": _flag("count_only", "Print only how many there are."), "--format": _format("table", "json")},
    ),
    ("seq", "validate"): (
        seq_validate, "TERMS", "Check the two sequence axioms.", "Exits 1 when they fail.",
        {"--format": _format("table", "json")},
    ),
    ("seq", "semigroup"): (
        seq_semigroup, "TERMS", "The semigroup whose difference sequence is TERMS.", "Exits 1 when invalid.",
        {"--format": _format("table", "json")},
    ),
    ("seq", "refinements"): (
        seq_refinements, "TERMS", "Every valid single split of TERMS.", "Exits 1 when TERMS is invalid.",
        {"--format": _format("table", "json")},
    ),
}
_GROUPS = {"seq": "Validate and convert difference sequences."}


def _read(argv: list[str]) -> dict | None:
    """The parameters of ``argv`` read off ``_COMMANDS``, exactly as ``_parse`` gives them, or
    ``None`` for anything not read in full: no command, ``--``, ``--help`` or any other unknown
    word that starts with ``-`` and no digit, a missing value or one that starts so, a value not
    among its choices, ``=`` on a flag, or other than one positional.  A word of ``-`` and a digit
    is a value where it stands, as ``_as_values`` arranges for argparse."""
    for words in (1, 2):
        entry = _COMMANDS.get(tuple(argv[:words]))
        if entry is not None:
            break
    else:
        return None
    fn, metavar, _, _, options = entry
    params = {spec["dest"]: spec["default"] for spec in options.values()}
    values = []
    args = iter(argv[words:])
    for word in args:
        if word[:1] != "-" or word[1:2].isdigit():
            values.append(word)
            continue
        name, eq, value = word.partition("=")
        spec = options.get(name)
        if spec is None:
            return None
        if "action" in spec:
            if eq:
                return None
            value = True
        elif not eq:
            value = next(args, None)
            if value is None or value[:1] == "-" and not value[1:2].isdigit():
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        params[spec["dest"]] = value
    if len(values) != 1:
        return None
    return {metavar.lower(): values[0], **params, "fn": fn}


@cache
def _parser():
    """The argparse tree of ``_COMMANDS``, and each command's subparser keyed by its words, built
    the first time ``_read`` refuses an argv.  Every parser takes ``--help`` and no abbreviated
    options."""
    import argparse

    def parser(group, name: str, summary: str, more: str = ""):
        sub = group.add_parser(
            name, help=summary, description=f"{summary} {more}".rstrip(), add_help=False, allow_abbrev=False
        )
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        return sub

    arfsg = argparse.ArgumentParser(
        prog="arfsg",
        description="Arf numerical semigroups with a fixed Frobenius number.",
        add_help=False,
        allow_abbrev=False,
        # a fixed help column for the command list, which 3.13 would move by counting its indent
        formatter_class=partial(argparse.HelpFormatter, max_help_position=16),
    )
    arfsg.add_argument("--help", action="help", help="Show this message and exit.")
    groups = {(): arfsg.add_subparsers(title="commands", metavar="COMMAND", required=True)}
    routes = {}
    for words, (fn, metavar, summary, more, options) in _COMMANDS.items():
        if words[:-1] not in groups:  # the group's first command adds the group
            group = parser(groups[()], words[0], _GROUPS[words[0]])
            group.formatter_class = partial(argparse.HelpFormatter, max_help_position=15)  # as arfsg's
            groups[words[:-1]] = group.add_subparsers(title="commands", metavar="COMMAND", required=True)
        sub = parser(groups[words[:-1]], words[-1], summary, more)
        sub.add_argument(metavar.lower(), metavar=metavar)
        for option, spec in options.items():
            sub.add_argument(option, **spec)
        sub.set_defaults(fn=fn)
        routes[words] = sub
    return arfsg, routes


def _as_values(args: list[str]) -> list[str]:
    """``args`` with each word that starts with ``-`` and a digit, which argparse takes for an option
    unless it is a plain number (``-2,4``), read as a value: joined to a ``--set`` or ``--format``
    before it, else moved behind a ``--``.  No option name has that form."""
    out, moved = [], []
    for i, word in enumerate(args):
        if word == "--":
            return out + ["--", *moved, *args[i + 1 :]]
        if not (word[:1] == "-" and word[1:2].isdigit()):
            out.append(word)
        elif out[-1:] in (["--set"], ["--format"]):
            out[-1] += "=" + word
        else:
            moved.append(word)
    return out + ["--", *moved] if moved else out


def _parse(argv: list[str]) -> dict:
    """The parameters of ``argv`` by argparse: parsed by its command's subparser alone when the first
    one or two words name a command (after ``_as_values``); anything else, and arguments the command
    leaves over, go to the whole tree, which reports them as the top level always has."""
    arfsg, routes = _parser()
    for words in (1, 2):
        sub = routes.get(tuple(argv[:words]))
        if sub is not None:
            params, rest = sub.parse_known_args(_as_values(argv[words:]))
            if not rest:
                return vars(params)
            break
    return vars(arfsg.parse_args(argv))


def main(argv: list[str] | None = None) -> int:
    """Run ``arfsg`` on ``argv`` (default ``sys.argv[1:]``) and return the exit status.

    The command is read off the command table; argparse sees only what the
    reader refuses.  Usage errors (status 2) and ``--help`` (status 0) leave
    through argparse's ``SystemExit``; every other outcome a command raises
    is mapped to its status here.  When the reader of stdout has gone, as in
    ``arfsg enumerate 80 | head -1``, the rest of the output is dropped
    quietly with status 1.
    """
    argv = sys.argv[1:] if argv is None else argv
    params = _read(argv) or _parse(argv)
    fn = params.pop("fn")
    try:
        try:
            return fn(**params) or 0
        finally:
            sys.stdout.flush()  # a closed pipe raises here rather than at interpreter exit
    except (NotInCovarietyError, InvalidSequenceError) as exc:  # a domain "no"
        print(exc, file=sys.stderr)
        return 1
    except (CliError, SemigroupError) as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the flush at exit
        return 1


def _exit_on_failure(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """``main`` as ``main.main(args=..., prog_name=...)``: a nonzero status raises ``SystemExit``.

    This is the entry point of the in-process benchmark client; the program
    name is always ``arfsg``.
    """
    status = main(args)
    if status:
        sys.exit(status)


main.main = _exit_on_failure

if __name__ == "__main__":
    sys.exit(main())
