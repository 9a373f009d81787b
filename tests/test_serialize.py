"""The render layer's two per-node routes: generator masks read off a tree parent, and the table join."""

from hypothesis import example, given, strategies as st

from arfsemigroups import serialize
from arfsemigroups.core import _TREE_LIMIT, _iter_bits, _med_generator_mask, _multiplicity
from arfsemigroups.tree import enumerate_ar


def test_inherited_masks_on_every_node():
    # a child adds its multiplicity e, a special gap of its parent, and keeps the parent's generators
    # g with g - e no positive member of the child: on every node of every tree, the same e and mask
    # as reading them off the node's own mask
    nodes = 0
    for F in range(1, _TREE_LIMIT + 1):
        tree = enumerate_ar(F)
        mults, gens = serialize._inherited(F, tree.masks, tree.parents)
        assert mults == list(map(_multiplicity, tree.masks)), F
        assert gens == [_med_generator_mask(F, mask) for mask in tree.masks], F
        nodes += len(tree)
    assert nodes == 256_410


def test_the_parent_chain_and_the_table_join_write_the_same_json():
    # a tree node's small elements are its multiplicity and then its parent's, its generators read
    # off its parent's; with no parents both are joined off the node's own masks
    nodes = 0
    for F in range(1, 71):
        tree = enumerate_ar(F)
        assert serialize.semigroups_json(F, tree.masks, tree.parents) == serialize.semigroups_json(F, tree.masks), F
        nodes += len(tree)
    assert nodes == 72_073


def joined(mask, sep):
    return sep.join(map(str, _iter_bits(mask)))


def rank_one_masks(F, m):
    """The generator mask and the small-element mask of the rank-one member of multiplicity m,
    the multiples of m up to F and everything past F: m bits up to F + m, F // m + 1 up to F."""
    small = sum(1 << k for k in range(0, F + 1, m))
    return [_med_generator_mask(F, small | 1 << (F + 1)), small]


def wide(width):
    return st.integers(min_value=0, max_value=(1 << width) - 1)


mask_shapes = st.one_of(
    st.integers(min_value=0, max_value=3_100).flatmap(wide),  # any width, a multiple of 4 or not
    st.just(0),
    st.integers(min_value=1, max_value=775).flatmap(lambda k: st.sampled_from([1 << (4 * k - 1), 1 << (4 * k)])),
    st.integers(min_value=0, max_value=3_000).flatmap(  # a dense window
        lambda low: st.integers(min_value=1, max_value=100).map(lambda n: ((1 << n) - 1) << low)
    ),
)
rank_one = st.integers(min_value=3, max_value=1_500).flatmap(
    lambda F: st.integers(min_value=2, max_value=F - 1).filter(lambda m: F % m).map(lambda m: rank_one_masks(F, m))
)


@given(st.lists(mask_shapes, max_size=6) | rank_one, st.sampled_from([",", ";"]))
@example([], ",")
@example(rank_one_masks(80, 9), ",")
@example(rank_one_masks(1_500, 7), ";")
@example([1 << 3, 1 << 4, (1 << 3_100) - 1, 1 << 3_099], ";")  # the widest mask is not the first
@example([0, 1 << 7, 1 << 8], ",")
def test_the_table_join_lists_the_set_bits(masks, sep):
    assert serialize._generator_cells(masks, sep) == [joined(mask, sep) for mask in masks]

