"""Correctness gate, run after the timed region.

Every distinct operation's first outcome is checked against the digest the
default seed recorded in ``expected.json`` (when the operation is listed
there) and against an independent route: the pure-Python computations in
``reference``, the package's own second route named by the workload, and,
for Frobenius numbers up to 14, the brute-force oracle.  Later repeats of an
operation must reproduce the first outcome exactly.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from functools import lru_cache

import reference

ORACLE_MAX_F = 14
# the reference hull is cubic in the hull's size; larger hulls are checked
# through the package's bitmask hull only
REFERENCE_HULL_MAX = 60
_DOT_NODE = re.compile(r"  n\d+ \[label=\"<([0-9,]+)>\"\];")
_DOT_EDGE = re.compile(r"  n(\d+) -> n(\d+);")


@dataclass(frozen=True)
class Outcome:
    exit_code: int
    stdout: str
    digest: str
    error: str | None = None  # an exception the command did not turn into an exit code
    result: object = None  # the return value of a library call


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:20]


class Mismatch(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _pairs(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value.strip()
    return out


def _ints(text: str) -> list[int]:
    return [] if text in ("-", "") else [int(v) for v in text.split(",")]


def _opt(text: str):
    return None if text == "-" else text


class Gate:
    def __init__(self, pkg, expected: dict[str, list]):
        self.pkg = pkg
        self.expected = expected
        self.family = lru_cache(maxsize=None)(self._arf_family)
        self._by_generators = lru_cache(maxsize=None)(self._family_by_generators)
        self._sequences = lru_cache(maxsize=None)(reference.sequences_with_total)

    def check(self, op, outcome: Outcome) -> str | None:
        """None when the outcome is right, else a one-line reason."""
        try:
            expect(outcome.error is None, f"raised {outcome.error}")
            want = self.expected.get(op.key)
            if want is not None:
                expect([outcome.exit_code, outcome.digest] == want,
                       f"exit/digest {[outcome.exit_code, outcome.digest]} != recorded {want}")
            getattr(self, "_" + op.kind.replace("-", "_"))(op, outcome)
        except Mismatch as exc:
            return str(exc)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            return f"unreadable output: {exc!r}"
        return None

    # -- reference data -------------------------------------------------------

    def _arf_family(self, F: int) -> frozenset[tuple[int, ...]]:
        """Small-element tuples of every Arf semigroup with Frobenius number F."""
        seqs = self._sequences(F + 1)
        family = frozenset(tuple(sorted(reference.semigroup_of_sequence(q)[1])) for q in seqs)
        expect(len(family) == len(seqs), f"F={F}: reference sequences are not distinct")
        expect(len(self.pkg.arf_sequences_with_total(F + 1)) == len(family),
               f"F={F}: arf_sequences_with_total disagrees with the reference count")
        if F <= ORACLE_MAX_F:
            brute = frozenset(
                S.small_elements() for S in self.pkg.brute_all_semigroups(F) if self.pkg.brute_is_arf(S)
            )
            expect(brute == family, f"F={F}: brute-force oracle disagrees with the reference family")
        return family

    def _family_by_generators(self, F: int) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Minimal generators -> small elements, for every member of the family."""
        return {tuple(reference.minimal_generators(F, frozenset(s))): s for s in self.family(F)}

    def _maximal_family(self, F: int) -> frozenset[tuple[int, ...]]:
        free = [q for q in self._sequences(F + 1) if not reference.refinements(q)]
        out = frozenset(tuple(sorted(reference.semigroup_of_sequence(q)[1])) for q in free)
        if F <= ORACLE_MAX_F:
            family = [set(s) for s in self.family(F)]
            brute = frozenset(tuple(sorted(s)) for s in family if not any(s < t for t in family))
            expect(brute == out, f"F={F}: oracle maximal set disagrees with the refinement-free one")
        return out

    # -- enumerate and tree ---------------------------------------------------

    def _rows_arf(self, F: int, nodes: list[dict]) -> None:
        family = self.family(F)
        got = [tuple(node["small_elements"]) for node in nodes]
        expect(all(node["frobenius"] == F for node in nodes), "node with another Frobenius number")
        expect(len(got) == len(family), f"{len(got)} nodes, expected {len(family)}")
        expect(set(got) == family, "node set differs from the Arf family")

    def _enumerate(self, op, out: Outcome) -> None:
        F = op.frobenius
        expect(out.exit_code == 0, f"exit {out.exit_code}")
        lines = out.stdout.splitlines()
        n = len(self.family(F))
        if op.fmt == "json":
            self._rows_arf(F, json.loads(out.stdout))
            return
        sep, gen_sep = (",", ";") if op.fmt == "csv" else (None, ",")
        expect(lines[0].split(sep)[:2] == ["depth", "frobenius"], "missing header")
        rows = [line.split(sep) for line in lines[1:]]
        expect(len(rows) == n, f"{len(rows)} rows, expected {n}")
        by_gens = self._by_generators(F)
        got = {}
        for depth, frob, m, genus, _, gens in rows:
            key = tuple(int(g) for g in gens.split(gen_sep))
            smalls = by_gens.get(key)
            expect(smalls is not None, f"generators {gens} are not a member of the family")
            # depth is the distance to the root {0, F+1, ->}: one step per small element
            expect((int(frob), int(m), int(genus), int(depth)) == (F, key[0], F + 1 - len(smalls), len(smalls) - 1),
                   f"row for {gens} has wrong invariants")
            got[key] = smalls
        expect(len(got) == n, "a member is listed twice")

    def _tree(self, op, out: Outcome) -> None:
        F = op.frobenius
        expect(out.exit_code == 0, f"exit {out.exit_code}")
        n = len(self.family(F))
        if op.fmt == "dot":
            lines = out.stdout.splitlines()
            labels = [_DOT_NODE.fullmatch(line) for line in lines if _DOT_NODE.fullmatch(line)]
            edges = [_DOT_EDGE.fullmatch(line) for line in lines if _DOT_EDGE.fullmatch(line)]
            expect(len(labels) == n and len(edges) == n - 1, f"{len(labels)} nodes/{len(edges)} edges for {n}")
            by_gens = self._by_generators(F)
            smalls = [by_gens.get(tuple(int(g) for g in label[1].split(","))) for label in labels]
            expect(None not in smalls and len(set(smalls)) == n, "node labels differ from the family")
            for edge in edges:
                child, parent = smalls[int(edge[1])], smalls[int(edge[2])]
                expect(parent == child[:1] + child[2:], f"edge {edge[0]} does not remove the multiplicity")
            return
        obj = json.loads(out.stdout)
        nodes = obj["nodes"]
        self._rows_arf(F, nodes)
        expect(len(obj["edges"]) == n - 1, "a tree on n nodes has n - 1 edges")
        for child, parent in obj["edges"]:
            smalls = nodes[child]["small_elements"]
            # the parent is the child without its multiplicity
            expect(nodes[parent]["small_elements"] == [s for s in smalls if s != smalls[1]],
                   f"edge {child}->{parent} does not remove the multiplicity")

    # -- maximal --------------------------------------------------------------

    def _maximal_only(self, op, out: Outcome) -> None:
        expect(out.exit_code == 0, f"exit {out.exit_code}")
        got = [tuple(node["small_elements"]) for node in json.loads(out.stdout)]
        want = self._maximal_family(op.frobenius)
        expect(len(got) == len(set(got)) and set(got) == want, "maximal-only set differs")
        library = {S.small_elements() for S in self.pkg.maximal_elements(op.frobenius)}
        expect(library == want, "maximal_elements differs from the reference maximal set")

    def _library(self, op, out: Outcome) -> None:
        members, seqs = out.result
        got = [S.small_elements() for S in members]
        expect(set(got) == self._maximal_family(op.frobenius) and len(got) == len(set(got)),
               "maximal_elements differs from the reference maximal set")
        expect([list(q.terms) for q in seqs] == self._sequences(op.frobenius + 1),
               "arf_sequences_with_total differs from the reference list")

    # -- queries --------------------------------------------------------------

    def _closure(self, op, out: Outcome) -> None:
        F, xs = op.frobenius, list(op.values)
        accepted, smalls = reference.hull(xs, F, F)
        if F <= ORACLE_MAX_F:
            holders = [set(s) for s in self.family(F) if set(xs) <= set(s)]
            expect(accepted == bool(holders), "oracle disagrees on whether a hull exists")
            if holders:
                expect(set.intersection(*holders) == set(smalls), "oracle hull differs")
        expect(out.exit_code == (0 if accepted else 1), f"exit {out.exit_code}, hull exists: {accepted}")
        if op.fmt == "json":
            obj = json.loads(out.stdout)
            expect((obj["F"], obj["X"]) == (F, xs), "F or X is not echoed")
            got_ok, closure, rank = obj["is_ar_set"], obj["closure"], obj["rank"]
            got_smalls = closure["small_elements"] if closure else None
            minimal = None
        else:
            rows = _pairs(out.stdout)
            expect((int(rows["F"]), _ints(rows["X"])) == (F, xs), "F or X is not echoed")
            got_ok, rank = rows["is_ar_set"] == "true", _opt(rows["rank"])
            closure = _opt(rows["closure"])
            got_smalls = _ints(rows["small_elements"]) if closure else None
            minimal = _ints(rows["minimal_system"]) if closure else None
        expect(got_ok == accepted, f"is_ar_set {got_ok}, expected {accepted}")
        if not accepted:
            expect(closure is None and rank is None, "a refused set reports a closure")
            return
        expect(got_smalls == sorted(smalls), "hull differs from the reference hull")
        if op.fmt == "json":
            expect(closure["frobenius"] == F, "hull has another Frobenius number")
            S = self.pkg.NumericalSemigroup.from_small_elements(F, smalls)
            minimal = list(self.pkg.minimal_ar_generators(S))
        else:
            label = "<" + ",".join(map(str, reference.minimal_generators(F, smalls))) + ">"
            expect(closure == label, f"closure label {closure}, expected {label}")
        expect(int(rank) == len(minimal), "rank is not the size of the minimal system")
        self._rehull(F, minimal, smalls)

    def _rehull(self, F: int, minimal: list[int], smalls: frozenset[int]) -> None:
        result = self.pkg.ar_closure(minimal, F)
        expect(result.is_ar_set and set(result.closure.small_elements()) == smalls,
               "re-hulling the minimal system does not give the hull back")
        if len(smalls) <= REFERENCE_HULL_MAX:
            expect(reference.hull(minimal, F, F) == (True, smalls), "reference re-hull differs")

    def _check(self, op, out: Outcome) -> None:
        F, smalls = reference.semigroup_from_generators(list(op.values))
        arf = reference.is_arf(F, smalls)
        expect(out.exit_code == 0, f"exit {out.exit_code}")
        if op.fmt == "json":
            obj = json.loads(out.stdout)
            sg = obj["semigroup"]
            got = (sg["frobenius"], sg["small_elements"], sg["genus"], sg["multiplicity"],
                   obj["is_arf"], obj["sequence"], obj["sequence_valid"])
        else:
            rows = _pairs(out.stdout)
            got = (int(rows["frobenius"]), _ints(rows["small_elements"]), int(rows["genus"]),
                   int(rows["multiplicity"]), rows["is_arf"] == "true", _ints(rows["sequence"]),
                   rows["sequence_valid"] == "true")
        want = (F, sorted(smalls), F + 1 - len(smalls), min(s for s in smalls if s) if len(smalls) > 1 else F + 1,
                arf, reference.difference_sequence(F, smalls), arf)
        expect(got == want, f"invariants differ from the reference: {got[:4]} vs {want[:4]}")
        if F <= ORACLE_MAX_F:
            S = self.pkg.NumericalSemigroup.from_small_elements(F, smalls)
            expect(self.pkg.brute_is_arf(S) == arf, "oracle disagrees on the Arf property")

    def _minimal_gens(self, op, out: Outcome) -> None:
        F, smalls = reference.semigroup_from_generators(list(op.values))
        arf = reference.is_arf(F, smalls)
        if F <= ORACLE_MAX_F:
            S = self.pkg.NumericalSemigroup.from_small_elements(F, smalls)
            expect(self.pkg.brute_is_arf(S) == arf, "oracle disagrees on the Arf property")
        expect(out.exit_code == (0 if arf else 1), f"exit {out.exit_code}, Arf: {arf}")
        if not arf:
            expect(out.stdout == "", "a non-Arf input printed a result")
            return
        if op.fmt == "json":
            obj = json.loads(out.stdout)
            got_F, minimal, rank = obj["semigroup"]["frobenius"], obj["minimal_system"], obj["rank"]
        else:
            rows = _pairs(out.stdout)
            got_F, minimal, rank = int(rows["frobenius"]), _ints(rows["minimal_system"]), int(rows["rank"])
        expect(got_F == F and rank == len(minimal), "frobenius or rank differs")
        self._rehull(F, minimal, smalls)

    def _seq_validate(self, op, out: Outcome) -> None:
        terms = list(op.values)
        valid = reference.valid_sequence(terms)
        expect(out.exit_code == (0 if valid else 1), f"exit {out.exit_code}, valid: {valid}")
        if op.fmt == "json":
            obj = json.loads(out.stdout)
            expect(obj["sequence"] == terms and obj["valid"] == valid, "sequence or validity differs")
            if valid:
                F, smalls = reference.semigroup_of_sequence(terms)
                expect(obj["semigroup"]["frobenius"] == F and obj["semigroup"]["small_elements"] == sorted(smalls),
                       "semigroup of the sequence differs")
                expect(obj["refinement_free"] == (not reference.refinements(terms)), "refinement_free differs")
            return
        rows = _pairs(out.stdout)
        expect(_ints(rows["sequence"]) == terms and rows["valid"] == str(valid).lower(), "validity differs")
        if valid:
            F, smalls = reference.semigroup_of_sequence(terms)
            label = "<" + ",".join(map(str, reference.minimal_generators(F, smalls))) + ">"
            expect((int(rows["total"]), int(rows["frobenius"]), rows["semigroup"]) == (F + 1, F, label),
                   "total, frobenius or semigroup differs")
            expect(rows["refinement_free"] == str(not reference.refinements(terms)).lower(),
                   "refinement_free differs")

    def _seq_refinements(self, op, out: Outcome) -> None:
        terms = list(op.values)
        if not reference.valid_sequence(terms):
            expect(out.exit_code == 1 and out.stdout == "", "an invalid sequence was refined")
            return
        expect(out.exit_code == 0, f"exit {out.exit_code}")
        want = reference.refinements(terms)
        if op.fmt == "json":
            obj = json.loads(out.stdout)
            got = [(r["position"], r["value"], r["sequence"]) for r in obj["refinements"]]
            free = obj["refinement_free"]
        else:
            lines = out.stdout.splitlines()
            free = _pairs("\n".join(lines[:2]))["refinement_free"] == "true"
            got = []
            for line in lines[2:]:
                _, i, _, a, _, seq = line.split()
                got.append((int(i), int(a), _ints(seq)))
        expect(got == want and free == (not want), "refinements differ from the reference list")

    def _rank_one(self, op, out: Outcome) -> None:
        F = op.frobenius
        count = reference.rank_one_count(F)
        if F <= ORACLE_MAX_F:
            hulls = {reference.hull([x], F, F) for x in range(1, F)}
            expect(len({h for h in hulls if h[0]}) == count, "rank-one count differs from the single-element hulls")
        expect(out.exit_code == 0, f"exit {out.exit_code}")
        got = json.loads(out.stdout) if op.fmt == "json" else int(out.stdout)
        expect(got == ({"F": F, "count": count} if op.fmt == "json" else count), f"count {got}, expected {count}")
