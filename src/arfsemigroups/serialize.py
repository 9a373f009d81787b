"""Deterministic text renderings: JSON objects, tables, CSV and DOT.

Key order in JSON objects is fixed, all collections are emitted in ascending
numeric order, and nothing here depends on wall time or thread count, so any
two runs produce identical bytes.

Every semigroup rendered here is Arf (tree nodes, hulls, the semigroups of
sequences, the rank-one catalog, a ``minimal-gens`` input once verified),
so MED.  Its minimal generators are therefore its multiplicity m and the
nonzero Apery elements modulo m, the bits of one mask with no sums to
remove.  ``check``, whose input is arbitrary, writes its rows itself from
the general minimal generators and never calls ``semigroup_dict``.

Lists of semigroups (the nodes of ``enumerate`` and ``tree``, the maximal
members of ``enumerate --maximal-only``, the ``rank-one`` catalog) are rows
read off each member's (F, mask) and generator mask, with no object per
row: m is the lowest positive bit, the genus F + 2 minus the bit count, a
depth the bit count minus 2.  A tree node is its parent and its
multiplicity e, so a tree's rows read e and the generator mask off the
parent's in one pass (``_inherited``), and the small elements are 0, e and
then the parent's positive ones; a list with no tree reads each generator
mask off its own mask (``generator_masks``).  Either way one table join
per render writes the cells: the texts of the 16 values of each hex digit
of the widest mask (``_digit_tables``), one per digit of a mask
(``_cells``).  ``_node_rows`` is the one source of table and csv rows;
``tree_csv`` joins them without ``render_table``.  The lists' JSON is
written as text by one row writer.  Each command that prints one object
builds it once, from its table rows or with ``semigroup_dict`` and the
other ``*_obj`` helpers, and renders it with ``dumps``, which writes a
tuple as an array.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence
from operator import itemgetter

from .closure import ClosureResult
from .core import NumericalSemigroup, _iter_bits, _med_generator_mask, _multiplicity
from .tree import CovarietyTree

_NODE_COLUMNS = ("depth", "frobenius", "multiplicity", "genus", "type", "generators")
CSV_HEADER = ",".join(_NODE_COLUMNS)


def _med_generators(S: NumericalSemigroup) -> list[int]:
    """The minimal generators of an Arf semigroup other than the naturals, ascending.

    All but a few of its m generators are Apery elements in the window
    F+1..F+m, so the bits up to F and the window are listed apart, each
    dense or sparse in its own right, rather than as one sparse mask.
    """
    cut = S.frobenius + 1
    gens = _med_generator_mask(S.frobenius, S.mask)
    return [*_iter_bits(gens & ((1 << cut) - 1)), *map(cut.__add__, _iter_bits(gens >> cut))]


def semigroup_dict(S: NumericalSemigroup) -> dict[str, object]:
    """The JSON object of an Arf semigroup other than the naturals, so MED: the type is m - 1."""
    m = S.multiplicity()
    return {
        "frobenius": S.frobenius,
        "multiplicity": m,
        "genus": S.genus(),
        "type": m - 1,
        "min_generators": _med_generators(S),
        "small_elements": S.small_elements(),
    }


def dumps(obj: object) -> str:
    return json.dumps(obj, separators=(",", ":"))


def generator_label(S: NumericalSemigroup) -> str:
    """``<g1,...,gk>`` for an Arf semigroup."""
    return "<" + ",".join(map(str, _med_generators(S))) + ">"


def _digit_tables(width: int, sep: str) -> list[dict[str, str]]:
    """For each hex digit of a ``width``-bit mask, least significant first, the text of each of
    its 16 values: ``sep`` before the decimal name of each of its set bits, ascending."""
    tables = []
    for low in range(0, width, 4):
        a, b, c, d = sep + str(low), sep + str(low + 1), sep + str(low + 2), sep + str(low + 3)
        ab, cd = a + b, c + d
        tables.append({"0": "", "1": a, "2": b, "3": ab, "4": c, "5": a + c, "6": b + c, "7": ab + c,
                       "8": d, "9": a + d, "a": b + d, "b": ab + d, "c": cd, "d": a + cd, "e": b + cd, "f": ab + cd})
    return tables


def _cells(masks: Iterable[int], tables: list[dict[str, str]], cut: int = 1) -> list[str]:
    """The set bits of each mask, ascending, as ``tables`` writes them, less the first ``cut``
    characters (by default the separator before the first bit).  ``tables`` must cover every
    mask: ``map`` stops at the shorter of the tables and the digits."""
    join, text = "".join, dict.__getitem__
    return [join(map(text, tables, hex(mask)[:1:-1]))[cut:] for mask in masks]


def _generator_cells(gens: Sequence[int], sep: str) -> list[str]:
    """The minimal generators of each generator mask of ``gens``, joined by ``sep``."""
    return _cells(gens, _digit_tables(max(gens, default=0).bit_length(), sep))


def generator_masks(F: int, masks: Sequence[int]) -> list[int]:
    """The generator mask of each Arf semigroup (F, mask), F >= 1, of a list with no tree."""
    return [_med_generator_mask(F, mask) for mask in masks]


def _inherited(tree: CovarietyTree) -> tuple[list[int], list[int]]:
    """Each node's multiplicity e and generator mask, read off its parent's in one pass.

    e is the one bit by which the node's mask and its parent's differ, a special gap of the
    parent, so the node's minimal generators are e and those g of its parent's for which
    g - e is no positive member of the node.  The root {0, F+1, ->} has m = F+1 and the
    generators F+1..2F+1; ``fill``, the members F+2..2F+2, reaches above every g - e.
    """
    F, masks, parents = tree.frobenius, tree.masks, tree.parents
    fill = ((1 << (F + 1)) - 1) << (F + 2)
    mults, gens = [F + 1], [((1 << (F + 1)) - 1) << (F + 1)]
    for mask, p in zip(masks[1:], parents[1:]):
        e = (mask ^ masks[p]).bit_length() - 1
        mults.append(e)
        gens.append(gens[p] & ~(((mask | fill) ^ 1) << e) | 1 << e)
    return mults, gens


def tree_generator_masks(tree: CovarietyTree) -> list[int]:
    """The generator mask of each node of ``tree``, read off its parent's."""
    return _inherited(tree)[1]


def semigroups_json(F: int, masks: Sequence[int], cells: Sequence[str], smalls: Sequence[str]) -> str:
    """The JSON list of ``semigroup_dict`` objects of the Arf semigroups (F, mask),
    F >= 1, written as text: ``dumps`` of that list, byte for byte.

    ``cells`` holds each semigroup's minimal generators comma-joined, and
    ``smalls`` its positive small elements as text, each after a comma.  A row
    reads m and the genus off the membership mask (F + 2 minus the members up
    to F+1).
    """
    rows = []
    for mask, cell, small in zip(masks, cells, smalls):
        m = _multiplicity(mask)  # Arf, so MED: the type is m - 1
        rows.append(
            f'{{"frobenius":{F},"multiplicity":{m},"genus":{F + 2 - mask.bit_count()},"type":{m - 1},'
            f'"min_generators":[{cell}],"small_elements":[0{small}]}}'
        )
    return "[" + ",".join(rows) + "]"


def _small_texts(tree: CovarietyTree, mults: Sequence[int]) -> list[str]:
    """Each node's positive small elements as text, each after a comma: ``,e`` and
    then its parent's, where e is its multiplicity.  The root's is empty."""
    commas = [f",{e}" for e in range(tree.frobenius + 1)]
    texts = [""]
    for e, p in zip(mults[1:], tree.parents[1:]):
        texts.append(commas[e] + texts[p])
    return texts


def nodes_json(tree: CovarietyTree) -> str:
    """The JSON list of the nodes of ``tree``."""
    mults, gens = _inherited(tree)
    return semigroups_json(tree.frobenius, tree.masks, _generator_cells(gens, ","), _small_texts(tree, mults))


def members_json(F: int, masks: Sequence[int]) -> str:
    """The JSON list of the Arf semigroups (F, mask) of a list with no tree: one table set
    joins both their generators and their small elements."""
    gens = generator_masks(F, masks)
    tables = _digit_tables(max(gens, default=0).bit_length(), ",")  # F + m is a generator, above F
    top = 1 << (F + 1)
    # 0 is a member, so each joined list starts with ",0": the text after it is the positive ones
    return semigroups_json(F, masks, _cells(gens, tables), _cells([mask ^ top for mask in masks], tables, 2))


def render_table(header: Sequence[str], rows: Iterable[tuple[object, ...]]) -> str:
    """Tuples in left-aligned columns as wide as their headers, two spaces apart; the last is not padded.

    Precondition: no cell but the last is wider than its header.  Tree rows meet it for every
    F < 10,000 (the narrowest header, type, holds m - 1 <= F), rank-one rows for every F < 100,000.
    """
    line = "  ".join([*(f"%-{len(name)}s" for name in header[:-1]), "%s"])
    return "\n".join([line % tuple(header), *map(line.__mod__, rows)])


def _cell(value: object) -> str:
    """``-`` for None or an empty list, ``true``/``false`` for a bool, a list comma-joined."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(map(str, value)) if value else "-"
    return str(value)


def render_pairs(pairs: Iterable[tuple[str, object]]) -> str:
    """One ``key  value`` line per pair, keys padded to the widest."""
    items = list(pairs)
    width = max(len(k) for k, _ in items)
    return "\n".join(f"{k.ljust(width)}  {_cell(v)}" for k, v in items)


def _node_rows(
    F: int, masks: Sequence[int], gens: Sequence[int], sep: str
) -> Iterator[tuple[int, int, int, int, int, str]]:
    """The rows of the Arf semigroups (F, mask) under ``_NODE_COLUMNS``, the generator
    masks ``gens`` joined by ``sep``."""
    for mask, cell in zip(masks, _generator_cells(gens, sep)):
        depth, m = mask.bit_count() - 2, _multiplicity(mask)
        yield depth, F, m, F - depth, m - 1, cell  # Arf, so MED: type m - 1


def tree_table(F: int, masks: Sequence[int], gens: Sequence[int]) -> str:
    """The table of the Arf semigroups (F, mask) with the generator masks ``gens``: a tree's
    from ``tree_generator_masks``, a list's from ``generator_masks``."""
    return render_table(_NODE_COLUMNS, _node_rows(F, masks, gens, ","))


def rank_one_table(F: int, masks: Sequence[int]) -> str:
    rows = _node_rows(F, masks, generator_masks(F, masks), ",")
    return render_table(("multiplicity", "genus", "generators"), map(itemgetter(2, 3, 5), rows))


def tree_csv(F: int, masks: Sequence[int], gens: Sequence[int]) -> str:
    line = ",".join(["%s"] * len(_NODE_COLUMNS))
    return "\n".join([CSV_HEADER, *map(line.__mod__, _node_rows(F, masks, gens, ";"))])


def tree_json_obj(tree: CovarietyTree) -> dict[str, object]:
    """The tree as a JSON object; ``tree_json`` writes its ``dumps`` as text."""
    return {
        "frobenius": tree.frobenius,
        "root": 0,
        "nodes": [semigroup_dict(S) for S in tree.semigroups()],
        "edges": [list(edge) for edge in tree.edges()],
    }


def tree_json(tree: CovarietyTree) -> str:
    """``dumps(tree_json_obj(tree))``, written as text."""
    edges = ",".join([f"[{child},{parent}]" for child, parent in tree.edges()])
    return f'{{"frobenius":{tree.frobenius},"root":0,"nodes":{nodes_json(tree)},"edges":[{edges}]}}'


def tree_dot(tree: CovarietyTree) -> str:
    lines = [f"digraph arf_tree_{tree.frobenius} {{", "  node [shape=box];"]
    for i, cell in enumerate(_generator_cells(tree_generator_masks(tree), ",")):
        lines.append(f'  n{i} [label="<{cell}>"];')
    for child, parent in tree.edges():
        lines.append(f"  n{child} -> n{parent};")
    lines.append("}")
    return "\n".join(lines)


def closure_obj(result: ClosureResult, rank: int | None) -> dict[str, object]:
    return {
        "F": result.frobenius,
        "X": result.input_set,
        "is_ar_set": result.is_ar_set,
        "closure": semigroup_dict(result.closure) if result.closure is not None else None,
        "rank": rank,
    }


def sequence_obj(terms: Sequence[int], refinement_free: bool, semigroup: NumericalSemigroup) -> dict[str, object]:
    """The record of a valid sequence; an invalid one is its ``sequence`` and ``valid`` rows alone."""
    return {
        "sequence": terms,
        "valid": True,
        "refinement_free": refinement_free,
        "semigroup": semigroup_dict(semigroup),
    }
