"""Independent reference computations for the benchmark's correctness gate.

Everything here works on plain Python sets and lists and shares no code with
the ``arfsemigroups`` package, so a wrong answer from the package cannot be
confirmed by the same mistake.  A semigroup is described by its Frobenius
number ``F`` and its frozenset of small elements (the members below ``F``,
0 included); every integer above ``F`` is a member.
"""

from __future__ import annotations

import math


def semigroup_from_generators(gens: list[int]) -> tuple[int, frozenset[int]]:
    """(F, small elements) of the semigroup generated by ``gens`` (gcd 1, no 1)."""
    bound = min(gens) * max(gens)
    reach = [False] * (bound + 1)
    reach[0] = True
    for s in range(1, bound + 1):
        reach[s] = any(s >= g and reach[s - g] for g in gens)
    F = max(s for s in range(bound + 1) if not reach[s])
    return F, frozenset(s for s in range(F) if reach[s])


def is_arf(F: int, smalls: frozenset[int]) -> bool:
    """Arf test through the equivalent condition 2x - y in S for members x >= y."""
    members = sorted(smalls)
    for i, x in enumerate(members):
        for y in members[:i]:
            w = 2 * x - y
            if w < F and w not in smalls or w == F:
                return False
    return True


def hull(xs: list[int], F: int, cap: int) -> tuple[bool, frozenset[int]] | None:
    """Smallest set closed under x + y - z (x >= y >= z members) holding 0 and ``xs``.

    Returns (accepted, small elements); ``accepted`` is false when F itself
    is forced in.  The closure is completed even past F, and None is
    returned once it holds more than ``cap`` values up to F, so that callers
    can refuse inputs whose fixpoint grows large before it fails.
    """
    if any(x < 1 or x > F for x in xs):
        return False, frozenset()
    members = {0, *xs}
    while True:
        if len(members) > cap + 1:
            return None
        ordered = sorted(members)
        new = {
            x + y - z
            for i, x in enumerate(ordered)
            for j, y in enumerate(ordered[: i + 1])
            for z in ordered[: j + 1]
            if x + y - z <= F
        }
        if new <= members:
            return (False, frozenset()) if F in members else (True, frozenset(members))
        members |= new


def difference_sequence(F: int, smalls: frozenset[int]) -> list[int]:
    """Consecutive differences of the members up to F+1, largest member first."""
    elems = sorted(smalls) + [F + 1]
    return [elems[i] - elems[i - 1] for i in range(len(elems) - 1, 0, -1)]


def valid_sequence(terms: list[int]) -> bool:
    """Both sequence axioms, through prefix sums P_0 = 0, P_1, ...

    A term x_{i+1} is a consecutive suffix sum of its predecessors exactly
    when P_i - x_{i+1} is one of P_0..P_{i-1}.
    """
    if not terms or terms[0] < 2:
        return False
    if any(b < a for a, b in zip(terms, terms[1:])):
        return False
    prefixes = [0]
    total = terms[0]
    for x in terms[1:]:
        if x <= total and total - x not in prefixes:
            return False
        prefixes.append(total)
        total += x
    return True


def semigroup_of_sequence(terms: list[int]) -> tuple[int, frozenset[int]]:
    run, smalls = 0, {0}
    for x in reversed(terms[1:]):
        run += x
        smalls.add(run)
    return sum(terms) - 1, frozenset(smalls)


def refinements(terms: list[int]) -> list[tuple[int, int, list[int]]]:
    """Every valid split of one term into (a, x - a) with both parts at least 2."""
    out = []
    for i, x in enumerate(terms, start=1):
        for a in range(2, x - 1):
            refined = terms[: i - 1] + [a, x - a] + terms[i:]
            if valid_sequence(refined):
                out.append((i, a, refined))
    return out


def sequences_with_total(total: int) -> list[list[int]]:
    """Every valid sequence with the given total, grown term by term."""
    out = []

    def grow(terms: list[int], prefixes: list[int], run: int) -> None:
        if run == total:
            out.append(list(terms))
            return
        last = terms[-1] if terms else 2
        options = [run - p for p in prefixes[:-1] if run - p >= last] if terms else []
        options += range(max(run + 1, last), total - run + 1)
        for y in sorted(set(options)):
            if run + y <= total:
                terms.append(y)
                prefixes.append(run + y)
                grow(terms, prefixes, run + y)
                prefixes.pop()
                terms.pop()

    grow([], [0], 0)
    return out


def minimal_generators(F: int, smalls: frozenset[int]) -> list[int]:
    """Members in [m, F+m] that are not a sum of two positive members."""
    m = min(s for s in smalls if s) if len(smalls) > 1 else F + 1
    members = set(smalls) | set(range(F + 1, F + m + 1))
    positive = sorted(s for s in members if s)
    return [
        s for s in positive
        if not any(s - a in members for a in positive if 2 * a <= s)
    ]


def rank_one_count(F: int) -> int:
    """F minus the number of divisors of F, from a factorisation."""
    divisors, n, p = 1, F, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        divisors *= e + 1
        p += 1
    if n > 1:
        divisors *= 2
    return F - divisors


def coprime(gens: list[int]) -> bool:
    return math.gcd(*gens) == 1
