"""Deterministic text renderings: JSON objects, tables, CSV and DOT.

Key order in JSON objects is fixed, all collections are emitted in ascending
numeric order, and nothing here depends on wall time or thread count, so any
two runs produce identical bytes.

Every semigroup rendered here is Arf (tree nodes, hulls, the semigroups of
sequences, the rank-one catalog, a ``minimal-gens`` input once verified),
so MED.  Its minimal generators are therefore its multiplicity m and the
nonzero Apery elements modulo m, the bits of one mask with no sums to
remove, and a row's generator cell joins the decimal names that the mask's
bits select.  ``check``, whose input is arbitrary, writes its rows itself
from the general minimal generators and never calls ``semigroup_dict``.

Lists of semigroups (the nodes of ``enumerate`` and ``tree``, the maximal
members of ``enumerate --maximal-only``, the ``rank-one`` catalog) are rows
read off each member's (F, mask), with no object per row: m is the lowest
positive bit, the genus F + 2 minus the bit count, a depth the bit count
minus 2.  ``_node_rows`` is the one source of table and csv rows;
``tree_csv`` joins them without ``render_table``.  The lists' JSON is
written as text by one row writer.  A tree node's small elements are 0, its
multiplicity e and then its parent's positive ones, so the rows of a whole
tree (``nodes_json``, ``tree_json``) read them from the parent's text; the
maximal members and the ``rank-one`` catalog come with no tree, so their
rows (``members_json``) join them from the names.  Each command that prints
one object builds it once, from its table rows or with ``semigroup_dict``
and the other ``*_obj`` helpers, and renders it with ``dumps``, which
writes a tuple as an array.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence
from itertools import compress
from operator import itemgetter

from .closure import ClosureResult
from .core import NumericalSemigroup, _iter_bits, _med_generator_mask, _multiplicity, _scan_bits, _selector
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


def _names(masks: Sequence[int]) -> tuple[str, ...]:
    """Decimal names of the bit positions of the widest of ``masks``.

    One tuple serves every cell of a render, so it pays for itself over
    many semigroups of one Frobenius number.
    """
    return tuple(map(str, range(max(masks, default=0).bit_length())))


def _joined(mask: int, names: Sequence[str], sep: str) -> str:
    """The positions of the set bits of ``mask``, ascending, joined by ``sep``;
    ``names`` covers every bit of the mask."""
    selector = _selector(mask)  # None for a sparse mask, which is scanned
    return sep.join(map(str, _scan_bits(mask)) if selector is None else compress(names, selector))


def _generator_cells(F: int, masks: Sequence[int], sep: str) -> list[str]:
    """The minimal generators of each Arf semigroup (F, mask), joined by ``sep``."""
    gen_masks = [_med_generator_mask(F, mask) for mask in masks]
    names = _names(gen_masks)
    return [_joined(gens, names, sep) for gens in gen_masks]


def semigroups_json(F: int, masks: Sequence[int], smalls: Sequence[str]) -> str:
    """The JSON list of ``semigroup_dict`` objects of the Arf semigroups (F, mask),
    F >= 1, written as text: ``dumps`` of that list, byte for byte.

    ``smalls`` holds each semigroup's positive small elements as text, each
    after a comma.  A row takes its generators from ``_generator_cells``, as
    ``_node_rows`` does, and reads m and the genus off the membership mask
    (F + 2 minus the members up to F+1).
    """
    rows = []
    for mask, cell, small in zip(masks, _generator_cells(F, masks, ","), smalls):
        m = _multiplicity(mask)  # Arf, so MED: the type is m - 1
        rows.append(
            f'{{"frobenius":{F},"multiplicity":{m},"genus":{F + 2 - mask.bit_count()},"type":{m - 1},'
            f'"min_generators":[{cell}],"small_elements":[0{small}]}}'
        )
    return "[" + ",".join(rows) + "]"


def _small_texts(tree: CovarietyTree) -> list[str]:
    """Each node's positive small elements as text, each after a comma: ``,e`` and
    then its parent's, where e, its multiplicity, is the one bit by which its
    mask and its parent's differ.  The root's is empty."""
    masks, parents = tree.masks, tree.parents
    commas = [f",{e}" for e in range(tree.frobenius + 1)]
    texts = [""]
    for i in range(1, len(masks)):
        p = parents[i]
        texts.append(commas[(masks[i] ^ masks[p]).bit_length() - 1] + texts[p])
    return texts


def nodes_json(tree: CovarietyTree) -> str:
    """The JSON list of the nodes of ``tree``."""
    return semigroups_json(tree.frobenius, tree.masks, _small_texts(tree))


def members_json(F: int, masks: Sequence[int]) -> str:
    """The JSON list of the Arf semigroups (F, mask), their small elements joined from the names."""
    names = _names(masks)
    # 0 is a member, so each joined list starts with "0": the text after it is the positive ones
    return semigroups_json(F, masks, [_joined(mask ^ (1 << (F + 1)), names, ",")[1:] for mask in masks])


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


def _node_rows(F: int, masks: Sequence[int], sep: str) -> Iterator[tuple[int, int, int, int, int, str]]:
    """The rows of the Arf semigroups (F, mask) under ``_NODE_COLUMNS``, generators joined by ``sep``."""
    for mask, cell in zip(masks, _generator_cells(F, masks, sep)):
        depth, m = mask.bit_count() - 2, _multiplicity(mask)
        yield depth, F, m, F - depth, m - 1, cell  # Arf, so MED: type m - 1


def tree_table(F: int, masks: Sequence[int]) -> str:
    return render_table(_NODE_COLUMNS, _node_rows(F, masks, ","))


def rank_one_table(F: int, masks: Sequence[int]) -> str:
    return render_table(("multiplicity", "genus", "generators"), map(itemgetter(2, 3, 5), _node_rows(F, masks, ",")))


def tree_csv(F: int, masks: Sequence[int]) -> str:
    line = ",".join(["%s"] * len(_NODE_COLUMNS))
    return "\n".join([CSV_HEADER, *map(line.__mod__, _node_rows(F, masks, ";"))])


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
    for i, cell in enumerate(_generator_cells(tree.frobenius, tree.masks, ",")):
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
