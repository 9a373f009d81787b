"""The Apery/MED-adjunction view of Ar(F): the reference route the tests check against.

The package walks the tree of Arf semigroups with Frobenius number F on
difference sequences (a child splits its parent's last term).  The same
edges can be read as adjoining a special gap x below the multiplicity that
keeps maximal embedding dimension, with the Apery table and the minimal
generators updated incrementally.  Nothing in the package uses this view, so
a fault in the sequence walk or in the bitmask invariants shows up as a
disagreement with it.  Preconditions are plain asserts.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

from arfsemigroups import NumericalSemigroup


def med_adjunction_test(S, x):
    """Does adjoining the special gap x < m(S) keep maximal embedding dimension?

    Decided by checking a + b - x in S over all pairs of minimal generators.
    """
    assert not S.is_natural(), "the naturals admit no adjunction"
    assert x < S.multiplicity(), f"{x} is not below the multiplicity {S.multiplicity()}"
    assert x in S.special_gaps(), f"{x} is not a special gap of {S!r}"
    pairs = combinations_with_replacement(S.minimal_generators(), 2)
    return all(a + b - x in S for a, b in pairs)


def apery_after_adjoin(ap, x):
    """Table for S with the special gap x adjoined, from the table for S: the entry x+n becomes x.

    A table mod n is the tuple of the least members of the residue classes, indexed by residue.
    """
    target = x + len(ap)
    assert target in ap, f"{target} is not an entry of the table (x={x})"
    return tuple(x if w == target else w for w in ap)


def msg_after_adjoin(gens, x):
    """Minimal generators of S with x adjoined, for a MED adjunction below the multiplicity.

    The result is {x} plus, for each nonzero residue i mod x, the least old
    generator congruent to i; every residue class must be represented.
    """
    assert 1 <= x < gens[0], f"{x} is not below the multiplicity {gens[0]}"
    best = {}
    for a in gens:
        r = a % x
        if r and (r not in best or a < best[r]):
            best[r] = a
    assert len(best) == x - 1, f"residue classes {sorted(set(range(1, x)) - set(best))} mod {x} have no generator"
    return tuple(sorted([x, *best.values()]))


def pseudo_frobenius_from_apery(ap):
    """Pseudo-Frobenius numbers read off any Apery table.

    w is maximal in the table exactly when w + w' falls outside the table for
    every nonzero entry w'; the pseudo-Frobenius numbers are those maxima
    shifted down by the modulus.
    """
    entries = set(ap)
    nonzero = entries - {0}
    maxima = (w for w in nonzero if all(w + wp not in entries for wp in nonzero))
    return tuple(sorted(w - len(ap) for w in maxima))


def special_gaps_from_apery(ap):
    """Special gaps read off any Apery table: the pseudo-Frobenius x with 2x not pseudo-Frobenius."""
    pf = pseudo_frobenius_from_apery(ap)
    pf_set = set(pf)
    return tuple(x for x in pf if 2 * x not in pf_set)


def med_frobenius_genus_formula(gens):
    """Closed-form Frobenius number and genus of a maximal-embedding-dimension semigroup.

    ``gens`` must be its minimal generating set; returns
    ``(n_e - n_1, (n_2 + ... + n_e)/n_1 - (n_1 - 1)/2)``.
    """
    ns = sorted({int(g) for g in gens})
    S = NumericalSemigroup.from_generators(ns)
    assert not S.is_natural(), "the formula is undefined for the naturals"
    assert S.minimal_generators() == tuple(ns) and S.is_med(), (
        f"{ns} is not the minimal generating set of a MED semigroup"
    )
    return ns[-1] - ns[0], Fraction(sum(ns[1:]), ns[0]) - Fraction(ns[0] - 1, 2)


def apery_by_membership(S, n):
    """Least member of each residue class mod n, found by membership tests alone."""
    return tuple(min(x for x in range(i, S.frobenius + n + 1, n) if x in S) for i in range(n))


def generators_by_membership(S):
    """Members in [m, F+m] that are not a sum of two positive members."""
    m = S.multiplicity()
    return tuple(
        x
        for x in range(m, S.frobenius + m + 1)
        if x in S and not any(a in S and x - a in S for a in range(1, x))
    )
