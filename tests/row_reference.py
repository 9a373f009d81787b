"""Generator text from the general minimal generators: the tests' reference for the renderer.

The package renders every Arf semigroup's generators off one mask, the
multiplicity m and the nonzero Apery elements modulo m, which a tree node
reads off its parent's mask and a list's member off its own, and joins the
texts of the mask's hex digits.  Here each row's semigroup, on either route,
is built from its (F, mask) by the checked constructor, the generators come
from ``NumericalSemigroup.minimal_generators()``, which removes the sums of
Apery elements and so assumes nothing of the semigroup, each is turned into
text by ``str``, tables are padded one cell at a time, and JSON lists of
semigroups go through ``json.dumps`` over one dict per semigroup, whose
small elements come from the semigroup itself, not from a tree parent.
The maximal members of ``enumerate --maximal-only`` are the nodes of the
whole tree, in its order, in which the rescan of ``mask_rescan`` finds no
term that splits, not the masks of the pruned walk.  ``install`` puts these
in place of the package's own, so one command can be run both ways and its
output compared byte for byte.
"""

import functools
import json

from arfsemigroups import NumericalSemigroup, cli, enumerate_ar, serialize
from mask_rescan import maximal_by_rescan


def semigroup_dict(S):
    m = S.multiplicity()
    return {
        "frobenius": S.frobenius,
        "multiplicity": m,
        "genus": S.genus(),
        "type": m - 1,  # Arf, so MED, and never the naturals
        "min_generators": list(S.minimal_generators()),
        "small_elements": list(S.small_elements()),
    }


def generator_label(S):
    return "<" + ",".join(str(g) for g in S.minimal_generators()) + ">"


def generator_masks(F, masks):
    # the package's rows hand these only to generator_cells below, so they need not be masks
    return [NumericalSemigroup(F, mask).minimal_generators() for mask in masks]


def tree_generator_masks(tree):
    return generator_masks(tree.frobenius, tree.masks)


def generator_cells(gens, sep):
    return [sep.join(map(str, g)) for g in gens]


def semigroups_json(F, masks):
    return json.dumps([semigroup_dict(NumericalSemigroup(F, mask)) for mask in masks], separators=(",", ":"))


def nodes_json(tree):
    return semigroups_json(tree.frobenius, tree.masks)


def members_json(F, masks):
    return semigroups_json(F, masks)


@functools.lru_cache(maxsize=1)  # the formats of one F in turn
def refinement_free_masks(F):
    """The masks of the maximal members of the tree on Ar(F), in canonical order."""
    tree = enumerate_ar(F)
    return tuple(tree.masks[i] for i in maximal_by_rescan(tree))


def tree_json(tree):
    return serialize.dumps(serialize.tree_json_obj(tree))  # nodes through semigroup_dict above, once installed


def render_table(header, rows):
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in header]
    for row in cells:
        for k, c in enumerate(row):
            widths[k] = max(widths[k], len(c))
    lines = ["  ".join(h.ljust(widths[k]) for k, h in enumerate(header)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.ljust(widths[k]) for k, c in enumerate(row)).rstrip())
    return "\n".join(lines)


def install(monkeypatch):
    """Render, and find the maximal members, through this module until ``monkeypatch`` is undone."""
    monkeypatch.setattr(serialize, "semigroup_dict", semigroup_dict)
    monkeypatch.setattr(serialize, "generator_label", generator_label)
    monkeypatch.setattr(serialize, "generator_masks", generator_masks)
    monkeypatch.setattr(serialize, "tree_generator_masks", tree_generator_masks)
    monkeypatch.setattr(serialize, "_generator_cells", generator_cells)
    monkeypatch.setattr(serialize, "render_table", render_table)
    monkeypatch.setattr(serialize, "nodes_json", nodes_json)
    monkeypatch.setattr(serialize, "members_json", members_json)
    monkeypatch.setattr(cli, "_refinement_free_masks", refinement_free_masks)
    monkeypatch.setattr(serialize, "tree_json", tree_json)
