"""Command-line surface.

Exit codes: 0 on success, 1 for a negative domain outcome (a set with no
hull, an invalid sequence, a non-Arf input where membership is required),
2 for unusable input.  All stdout output is deterministic; the optional
``--stats`` report carries a wall-time measurement and therefore goes to
stderr.
"""

from __future__ import annotations

import sys
import time

import click

from . import serialize
from .closure import ar_closure, count_rank_one, minimal_ar_generators, rank_one_catalog
from .core import NumericalSemigroup
from .errors import (
    EmptyInputError,
    InvalidFrobeniusError,
    InvalidSequenceError,
    NotCofiniteError,
    NotInCovarietyError,
    ScaleLimitError,
)
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

# `rank-one F` lists about F semigroups, the one of multiplicity m with about F/m + m
# generators and small elements: Theta(F^2) numbers.  `--count` is O(sqrt F) and needs no
# limit.  Budget: every accepted listing finishes within 2 s.  The slowest, `rank-one 1499
# --format json` (1,497 members, 5.8 MB out), took 0.9-1.0 s, 74 MB (CPython 3.11, shared
# 2-core Xeon); F = 2,039 took 1.5 s and F = 3,000 1.9-2.8 s.
_RANK_ONE_LIMIT = 1500


class CliError(click.ClickException):
    exit_code = 2


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
    if not xs:
        raise CliError("at least one term is required")
    total = sum(xs)
    if total > _SEQ_LIMIT:
        raise CliError(f"sequence total {total} refused (limit {_SEQ_LIMIT})")
    return xs


def _build_semigroup(gens_text: str) -> NumericalSemigroup:
    gens = _int_list(gens_text, "generator")
    if not gens:
        raise CliError("at least one generator is required")
    try:
        return NumericalSemigroup.from_generators(gens)
    except (EmptyInputError, NotCofiniteError, ScaleLimitError, ValueError) as exc:
        raise CliError(str(exc))


def _format_option(*choices: str):
    """``--format`` with the given choices, the first being the default."""
    return click.option(
        "--format", "fmt", type=click.Choice(choices), default=choices[0], show_default=True, help="Output format."
    )


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value) if value else "-"
    return str(value)


@click.group()
def main() -> None:
    """Arf numerical semigroups with a fixed Frobenius number."""


@main.command("enumerate")
@click.argument("frobenius")
@_format_option("table", "json", "csv")
@click.option("--stats", is_flag=True, help="Print an enumeration report to stderr.")
@click.option("--maximal-only", is_flag=True, help="Only inclusion-maximal members.")
def cmd_enumerate(frobenius: str, fmt: str, stats: bool, maximal_only: bool) -> None:
    """List every Arf semigroup with Frobenius number FROBENIUS."""
    F = _to_int(frobenius, "frobenius")
    started = time.perf_counter()
    try:
        tree = enumerate_ar(F)
    except (InvalidFrobeniusError, ScaleLimitError) as exc:
        raise CliError(str(exc))
    wall = time.perf_counter() - started
    maximal = tree.maximal_indices() if maximal_only or stats else None  # the one maximal scan
    indices = maximal if maximal_only else range(len(tree))
    if fmt == "table":
        click.echo(serialize.tree_table(tree, indices))
    elif fmt == "csv":
        click.echo(serialize.tree_csv(tree, indices))
    else:
        click.echo(serialize.dumps([serialize.semigroup_dict(tree.nodes[i].semigroup) for i in indices]))
    if stats:
        click.echo(
            serialize.render_pairs(
                [
                    ("frobenius", tree.frobenius),
                    ("nodes", len(tree)),
                    ("depth_counts", _fmt(tree.depth_counts())),
                    ("maximal", len(maximal)),
                    ("wall_seconds", f"{wall:.3f}"),
                ]
            ),
            err=True,
        )


@main.command("tree")
@click.argument("frobenius")
@_format_option("dot", "json")
def cmd_tree(frobenius: str, fmt: str) -> None:
    """Export the rooted tree on Ar(FROBENIUS) (edges point child -> parent)."""
    F = _to_int(frobenius, "frobenius")
    try:
        tree = enumerate_ar(F)
    except (InvalidFrobeniusError, ScaleLimitError) as exc:
        raise CliError(str(exc))
    if fmt == "dot":
        click.echo(serialize.tree_dot(tree))
    else:
        click.echo(serialize.dumps(serialize.tree_json_obj(tree)))


@main.command("check")
@click.argument("generators")
@_format_option("table", "json")
def cmd_check(generators: str, fmt: str) -> None:
    """Report the invariants of the semigroup generated by GENERATORS."""
    S = _build_semigroup(generators)
    semigroup = serialize.semigroup_dict(S) if fmt == "json" else None
    gens = semigroup["min_generators"] if semigroup else S.minimal_generators()
    if S.is_natural():
        pf = sg = seq = valid = None
    else:
        pf = S.pseudo_frobenius()
        sg = tuple(x for x in pf if 2 * x in S)  # the special gaps
        seq = S.difference_sequence()
        valid = validate_sequence(seq)
    med, arf = len(gens) == S.multiplicity(), valid is not False  # the naturals are Arf
    if semigroup:
        semigroup["type"] = None if pf is None else len(pf)  # S need not be Arf
        click.echo(
            serialize.dumps(
                {
                    "semigroup": semigroup,
                    "pseudo_frobenius": list(pf) if pf is not None else None,
                    "special_gaps": list(sg) if sg is not None else None,
                    "is_med": med,
                    "is_arf": arf,
                    "sequence": list(seq) if seq is not None else None,
                    "sequence_valid": valid,
                }
            )
        )
        return
    click.echo(
        serialize.render_pairs(
            [
                ("frobenius", S.frobenius),
                ("multiplicity", S.multiplicity()),
                ("embedding_dim", len(gens)),
                ("genus", S.genus()),
                ("small_count", S.small_count()),
                ("type", _fmt(None if pf is None else len(pf))),
                ("min_generators", _fmt(gens)),
                ("small_elements", _fmt(S.small_elements())),
                ("pseudo_frobenius", _fmt(pf)),
                ("special_gaps", _fmt(sg)),
                ("is_med", _fmt(med)),
                ("is_arf", _fmt(arf)),
                ("sequence", _fmt(seq)),
                ("sequence_valid", _fmt(valid)),
            ]
        )
    )


@main.command("closure")
@click.argument("frobenius")
@click.option("--set", "elements", default="", help="Comma-separated positive integers.")
@_format_option("table", "json")
def cmd_closure(frobenius: str, elements: str, fmt: str) -> None:
    """Smallest Arf semigroup with Frobenius number FROBENIUS containing --set.

    Exits 1 when no such semigroup exists.
    """
    F = _to_int(frobenius, "frobenius")
    xs = _int_list(elements, "element")
    try:
        result = ar_closure(xs, F)
    except (InvalidFrobeniusError, ScaleLimitError) as exc:
        raise CliError(str(exc))
    if result.is_ar_set:
        minimal = minimal_ar_generators(result.closure)
        rank = len(minimal)
    else:
        minimal = rank = None
    if fmt == "json":
        click.echo(serialize.dumps(serialize.closure_obj(result, rank)))
    else:
        rows = [
            ("F", result.frobenius),
            ("X", _fmt(result.input_set)),
            ("is_ar_set", _fmt(result.is_ar_set)),
            ("closure", serialize.generator_label(result.closure) if result.closure else "-"),
            ("small_elements", _fmt(result.closure.small_elements() if result.closure else None)),
            ("minimal_system", _fmt(minimal)),
            ("rank", _fmt(rank)),
        ]
        click.echo(serialize.render_pairs(rows))
    if not result.is_ar_set:
        sys.exit(1)


@main.command("minimal-gens")
@click.argument("generators")
@_format_option("table", "json")
def cmd_minimal_gens(generators: str, fmt: str) -> None:
    """Minimal hull-generating set of the Arf semigroup generated by GENERATORS.

    Exits 1 when the generated semigroup is not Arf.
    """
    S = _build_semigroup(generators)
    try:
        minimal = minimal_ar_generators(S)
    except NotInCovarietyError as exc:
        click.echo(str(exc), err=True)
        sys.exit(1)
    if fmt == "json":
        click.echo(
            serialize.dumps(
                {
                    "semigroup": serialize.semigroup_dict(S),
                    "minimal_system": list(minimal),
                    "rank": len(minimal),
                }
            )
        )
    else:
        click.echo(
            serialize.render_pairs(
                [
                    ("semigroup", serialize.generator_label(S)),
                    ("frobenius", S.frobenius),
                    ("minimal_system", _fmt(minimal)),
                    ("rank", len(minimal)),
                ]
            )
        )


@main.command("rank-one")
@click.argument("frobenius")
@click.option("--count", "count_only", is_flag=True, help="Print only how many there are.")
@_format_option("table", "json")
def cmd_rank_one(frobenius: str, count_only: bool, fmt: str) -> None:
    """All rank-one members of Ar(FROBENIUS), or their count."""
    F = _to_int(frobenius, "frobenius")
    if not count_only and F > _RANK_ONE_LIMIT:
        raise CliError(f"rank-one listing for Frobenius number {F} refused (limit {_RANK_ONE_LIMIT}; --count has none)")
    try:
        if count_only:
            n = count_rank_one(F)
            click.echo(serialize.dumps({"F": F, "count": n}) if fmt == "json" else str(n))
            return
        catalog = rank_one_catalog(F)
    except InvalidFrobeniusError as exc:
        raise CliError(str(exc))
    if fmt == "json":
        click.echo(serialize.dumps([serialize.semigroup_dict(S) for S in catalog]))
    else:
        header = ["multiplicity", "genus", "generators"]
        rows = [
            [S.multiplicity(), S.genus(), ",".join(str(g) for g in S.minimal_generators())]
            for S in catalog
        ]
        click.echo(serialize.render_table(header, rows))


@main.group("seq")
def seq_group() -> None:
    """Validate and convert difference sequences."""


@seq_group.command("validate")
@click.argument("terms")
@_format_option("table", "json")
def seq_validate(terms: str, fmt: str) -> None:
    """Check the two sequence axioms.  Exits 1 when they fail."""
    xs = _terms(terms)
    try:
        S = semigroup_of_sequence(ArfSequence(xs))  # the one validation
    except InvalidSequenceError:
        if fmt == "json":
            click.echo(serialize.dumps(serialize.sequence_obj(xs, False)))
        else:
            click.echo(serialize.render_pairs([("sequence", _fmt(xs)), ("valid", "false")]))
        sys.exit(1)
    free = not admits_proper_refinement(xs)
    if fmt == "json":
        click.echo(serialize.dumps(serialize.sequence_obj(xs, True, free, S)))
    else:
        click.echo(
            serialize.render_pairs(
                [
                    ("sequence", _fmt(xs)),
                    ("valid", "true"),
                    ("refinement_free", _fmt(free)),
                    ("total", sum(xs)),
                    ("frobenius", S.frobenius),
                    ("semigroup", serialize.generator_label(S)),
                ]
            )
        )


@seq_group.command("semigroup")
@click.argument("terms")
@_format_option("table", "json")
def seq_semigroup(terms: str, fmt: str) -> None:
    """The semigroup whose difference sequence is TERMS.  Exits 1 when invalid."""
    xs = _terms(terms)
    try:
        S = semigroup_of_sequence(ArfSequence(xs))
    except InvalidSequenceError:
        click.echo(f"{','.join(str(x) for x in xs)} violates the sequence axioms", err=True)
        sys.exit(1)
    if fmt == "json":
        click.echo(serialize.dumps(serialize.semigroup_dict(S)))
    else:
        click.echo(
            serialize.render_pairs(
                [
                    ("frobenius", S.frobenius),
                    ("multiplicity", S.multiplicity()),
                    ("genus", S.genus()),
                    ("type", S.multiplicity() - 1),  # S is Arf, so MED
                    ("min_generators", _fmt(S.minimal_generators())),
                    ("small_elements", _fmt(S.small_elements())),
                ]
            )
        )


@seq_group.command("refinements")
@click.argument("terms")
@_format_option("table", "json")
def seq_refinements(terms: str, fmt: str) -> None:
    """Every valid single split of TERMS.  Exits 1 when TERMS is invalid."""
    xs = _terms(terms)
    try:
        refined = list(iter_refinements(ArfSequence(xs)))  # the one validation
    except InvalidSequenceError:
        click.echo(f"{','.join(str(x) for x in xs)} violates the sequence axioms", err=True)
        sys.exit(1)
    if fmt == "json":
        click.echo(
            serialize.dumps(
                {
                    "sequence": list(xs),
                    "refinement_free": not refined,
                    "refinements": [
                        {"position": i, "value": a, "sequence": list(q.terms)}
                        for i, a, q in refined
                    ],
                }
            )
        )
        return
    lines = [
        serialize.render_pairs(
            [("sequence", _fmt(xs)), ("refinement_free", _fmt(not refined))]
        )
    ]
    for i, a, q in refined:
        lines.append(f"position {i}  value {a}  -> {','.join(str(t) for t in q.terms)}")
    click.echo("\n".join(lines))


if __name__ == "__main__":
    main()
