"""End-to-end tests of the arfsg command line."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from arfsemigroups import NumericalSemigroup, cli, core, sequences, serialize
from arfsemigroups.cli import _RANK_ONE_LIMIT, _SEQ_LIMIT
from arfsemigroups.closure import _HULL_LIMIT, rank_one_catalog
from arfsemigroups.core import _SIEVE_LIMIT, _TREE_LIMIT, _med_generator_mask, _selector
from arfsemigroups.tree import CovarietyTree, enumerate_ar
from cli_runner import leaf_commands, run
from full_check import count_full_checks
import row_reference

# the benchmark's workload inputs, read from its own directory
sys.path.append(str(Path(__file__).parents[1] / "bench"))
import workloads  # noqa: E402

F5_CSV = """\
depth,frobenius,multiplicity,genus,type,generators
0,5,6,5,5,6;7;8;9;10;11
1,5,3,4,2,3;7;8
1,5,4,4,3,4;6;7;9
2,5,2,3,1,2;7"""

F5_DOT = """\
digraph arf_tree_5 {
  node [shape=box];
  n0 [label="<6,7,8,9,10,11>"];
  n1 [label="<3,7,8>"];
  n2 [label="<4,6,7,9>"];
  n3 [label="<2,7>"];
  n1 -> n0;
  n2 -> n0;
  n3 -> n2;
}"""


def assert_refused(message, *args):
    """The command exits 2 within 1 s with ``message`` on stderr and nothing on stdout."""
    started = time.perf_counter()
    res = run(*args)
    assert time.perf_counter() - started < 1, args
    assert res.exit_code == 2, args
    assert res.stdout == ""
    assert message in res.stderr


def pairs(text):
    return dict(line.split() for line in text.strip().splitlines())


def count_calls(monkeypatch, counts, owner, *names):
    """Count the calls of the methods ``names`` of ``owner`` in ``counts``."""
    for name in names:
        def counted(self, *args, _name=name, _method=getattr(owner, name)):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(owner, name, counted)


def count_function(monkeypatch, counts, fn):
    """Count the calls of the package function ``fn`` in ``counts``, in every package
    module that holds it."""
    def counted(*args):
        counts[fn.__name__] += 1
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "arfsemigroups" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)


def count_validations(monkeypatch, counts):
    """Count validate_sequence calls, both the CLI's and the sequence module's own."""
    def counted(seq, _validate=sequences.validate_sequence):
        counts["validate_sequence"] += 1
        return _validate(seq)

    monkeypatch.setattr(cli, "validate_sequence", counted)
    monkeypatch.setattr(sequences, "validate_sequence", counted)


class TestEnumerate:
    def test_table(self):
        res = run("enumerate", "5")
        assert res.exit_code == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0].split() == ["depth", "frobenius", "multiplicity", "genus", "type", "generators"]
        assert [ln.split() for ln in lines[1:]] == [
            ["0", "5", "6", "5", "5", "6,7,8,9,10,11"],
            ["1", "5", "3", "4", "2", "3,7,8"],
            ["1", "5", "4", "4", "3", "4,6,7,9"],
            ["2", "5", "2", "3", "1", "2,7"],
        ]

    def test_json(self):
        res = run("enumerate", "5", "--format", "json")
        assert res.exit_code == 0
        data = json.loads(res.stdout)
        assert [d["min_generators"] for d in data] == [
            [6, 7, 8, 9, 10, 11],
            [3, 7, 8],
            [4, 6, 7, 9],
            [2, 7],
        ]
        assert list(data[0]) == [
            "frobenius", "multiplicity", "genus", "type", "min_generators", "small_elements",
        ]
        assert data[3] == {
            "frobenius": 5,
            "multiplicity": 2,
            "genus": 3,
            "type": 1,
            "min_generators": [2, 7],
            "small_elements": [0, 2, 4],
        }

    def test_csv(self):
        res = run("enumerate", "5", "--format", "csv")
        assert res.exit_code == 0
        assert res.stdout == F5_CSV + "\n"

    def test_maximal_only(self):
        res = run("enumerate", "5", "--maximal-only", "--format", "json")
        data = json.loads(res.stdout)
        assert [d["min_generators"] for d in data] == [[3, 7, 8], [2, 7]]

    def test_stats_go_to_stderr(self):
        plain = run("enumerate", "5", "--format", "csv")
        res = run("enumerate", "5", "--format", "csv", "--stats")
        assert res.exit_code == 0
        assert res.stdout == plain.stdout
        assert "depth_counts  1,2,1" in res.stderr
        assert "nodes         4" in res.stderr
        assert "maximal       2" in res.stderr
        assert "wall_seconds  0." in res.stderr

    @pytest.mark.parametrize("flags", ["", "--stats", "--maximal-only", "--maximal-only --stats"])
    def test_maximal_scan_runs_once(self, monkeypatch, flags):
        # the pruned walk is the one maximal route: once when maximal members are asked for, and
        # never through the tree's lookup of its masks
        counts = Counter()
        count_calls(monkeypatch, counts, CovarietyTree, "maximal_indices")
        count_function(monkeypatch, counts, core._refinement_free_masks)
        res = run("enumerate", "40", "--format", "json", *flags.split())
        assert res.exit_code == 0
        assert counts == Counter({"_refinement_free_masks": 1} if flags else {})
        if "--stats" in flags:
            assert f"maximal       {len(enumerate_ar(40).maximal_indices())}" in res.stderr

    def test_tree_limit_boundary(self):
        assert _TREE_LIMIT == 90
        assert run("enumerate", "90", "--format", "table").exit_code == 0
        # F = 89 has the largest tree the limit accepts (17,538 nodes)
        started = time.perf_counter()
        assert run("enumerate", "89", "--format", "table").exit_code == 0
        assert time.perf_counter() - started < 2
        assert run("enumerate", "90", "--maximal-only").exit_code == 0
        for args in (("enumerate", "--format", "json"), ("enumerate", "--maximal-only"), ("tree", "--format", "dot")):
            for F in ("91", "2147483647"):
                assert_refused(f"tree walk for Frobenius number {F} refused (limit 90)", args[0], F, *args[1:])


class TestTree:
    def test_dot(self):
        res = run("tree", "5")
        assert res.exit_code == 0
        assert res.stdout == F5_DOT + "\n"

    def test_json(self):
        res = run("tree", "5", "--format", "json")
        obj = json.loads(res.stdout)
        assert list(obj) == ["frobenius", "root", "nodes", "edges"]
        assert obj["root"] == 0
        assert obj["edges"] == [[1, 0], [2, 0], [3, 2]]
        assert len(obj["nodes"]) == 4

    def test_table_is_not_a_tree_format(self):
        assert run("tree", "5", "--format", "table").exit_code == 2


class TestCheck:
    def test_table(self):
        res = run("check", "5,7,9")
        assert res.exit_code == 0
        assert pairs(res.stdout) == {
            "frobenius": "13",
            "multiplicity": "5",
            "embedding_dim": "3",
            "genus": "8",
            "small_count": "6",
            "type": "2",
            "min_generators": "5,7,9",
            "small_elements": "0,5,7,9,10,12",
            "pseudo_frobenius": "11,13",
            "special_gaps": "11,13",
            "is_med": "false",
            "is_arf": "false",
            "sequence": "2,2,1,2,2,5",
            "sequence_valid": "false",
        }

    def test_json_arf(self):
        res = run("check", "4,6,21,23", "--format", "json")
        obj = json.loads(res.stdout)
        assert list(obj) == [
            "semigroup", "pseudo_frobenius", "special_gaps",
            "is_med", "is_arf", "sequence", "sequence_valid",
        ]
        assert obj["is_arf"] is True
        assert obj["is_med"] is True
        assert obj["sequence"] == [2, 2, 2, 2, 2, 2, 2, 2, 4]
        assert obj["sequence_valid"] is True
        assert obj["semigroup"]["frobenius"] == 19

    def test_json_not_arf(self):
        obj = json.loads(run("check", "4,17,18,23", "--format", "json").stdout)
        assert obj["is_arf"] is False
        assert obj["sequence"] == [2, 1, 1, 4, 4, 4, 4]
        assert obj["sequence_valid"] is False

    def test_naturals(self):
        res = run("check", "1")
        assert res.exit_code == 0
        got = pairs(res.stdout)
        assert got["frobenius"] == "-1"
        assert got["type"] == "-"
        assert got["sequence"] == "-"
        assert got["is_arf"] == "true"
        obj = json.loads(run("check", "1", "--format", "json").stdout)
        assert obj["semigroup"]["type"] is None
        assert obj["pseudo_frobenius"] is None
        assert obj["sequence_valid"] is None

    def test_derived_rows_match_the_library(self):
        # check reads special gaps off the pseudo-Frobenius numbers and MED off the generators
        for gens in [(6, 7, 8, 9, 10, 11), (5, 7, 9), (4, 6, 7, 9), (5, 8, 9, 12), (97, 101)]:
            S = NumericalSemigroup.from_generators(gens)
            got = json.loads(run("check", ",".join(map(str, gens)), "--format", "json").stdout)
            assert got["special_gaps"] == list(S.special_gaps()), gens
            assert got["is_med"] == S.is_med(), gens

    # check's input need not be Arf, so it builds the general minimal generators, never the
    # MED generator mask, and writes its own rows, the type being the len(pf) it holds, for
    # both formats without serialize.semigroup_dict
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_invariants_are_built_once(self, monkeypatch, fmt):
        counts = Counter()
        names = ("_pseudo_frobenius_mask", "minimal_generators", "small_elements", "difference_sequence")
        count_calls(monkeypatch, counts, NumericalSemigroup, *names)
        count_function(monkeypatch, counts, _med_generator_mask)
        count_validations(monkeypatch, counts)
        assert run("check", "97,101", "--format", fmt).exit_code == 0
        # is_arf is the sequence_valid value, so the sequence is built and validated once
        assert counts == {
            "_pseudo_frobenius_mask": 1,
            "minimal_generators": 1,
            "small_elements": 1,
            "difference_sequence": 1,
            "validate_sequence": 1,
        }

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_sieve_limit_boundary(self, fmt):
        assert 256 * 512 == _SIEVE_LIMIT
        res = run("check", "256,257,512", "--format", fmt)
        assert res.exit_code == 0
        started = time.perf_counter()
        res = run("check", "3,43691", "--format", fmt)  # 3 * 43691 = _SIEVE_LIMIT + 1
        assert time.perf_counter() - started < 1
        assert res.exit_code == 2
        assert "membership sieve would need 131073 bits (limit 131072)" in res.stderr


class TestClosure:
    def test_positive_table(self):
        res = run("closure", "29", "--set", "6,8")
        assert res.exit_code == 0
        got = pairs(res.stdout)
        assert got["closure"] == "<6,8,10,31,33,35>"
        assert got["minimal_system"] == "6,8"
        assert got["rank"] == "2"
        assert got["is_ar_set"] == "true"

    def test_positive_json(self):
        res = run("closure", "29", "--set", "6,8", "--format", "json")
        obj = json.loads(res.stdout)
        assert list(obj) == ["F", "X", "is_ar_set", "closure", "rank"]
        assert obj["F"] == 29 and obj["X"] == [6, 8] and obj["rank"] == 2
        assert obj["is_ar_set"] is True
        assert obj["closure"]["min_generators"] == [6, 8, 10, 31, 33, 35]

    def test_negative_exits_one_after_printing(self):
        res = run("closure", "8", "--set", "4")
        assert res.exit_code == 1
        got = pairs(res.stdout)
        assert got["is_ar_set"] == "false"
        assert got["closure"] == "-"
        assert got["rank"] == "-"

    def test_negative_json(self):
        res = run("closure", "8", "--set", "4", "--format", "json")
        assert res.exit_code == 1
        assert json.loads(res.stdout) == {
            "F": 8, "X": [4], "is_ar_set": False, "closure": None, "rank": None,
        }

    def test_empty_set_is_the_minimum(self):
        got = pairs(run("closure", "5").stdout)
        assert got["closure"] == "<6,7,8,9,10,11>"
        assert got["rank"] == "0"

    # minimal_ar_generators reads the hull's generators off its mask, so the rendering builds
    # the generators, off the MED generator mask as the hull is Arf, and the small elements,
    # each once; the general minimal_generators is never called
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_hull_invariants_are_built_once(self, monkeypatch, fmt):
        counts = Counter()
        count_calls(monkeypatch, counts, NumericalSemigroup, "minimal_generators", "small_elements")
        count_function(monkeypatch, counts, _med_generator_mask)
        res = run("closure", "29", "--set", "6,8", "--format", fmt)
        assert res.exit_code == 0 and "6,8" in res.stdout
        assert counts == {"_med_generator_mask": 1, "small_elements": 1}
        counts.clear()
        assert run("minimal-gens", "6,8,10,31,33,35", "--format", fmt).exit_code == 0
        assert counts == Counter(_med_generator_mask=1, small_elements=fmt == "json")  # json lists them

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_hull_limit_boundary(self, fmt):
        assert _HULL_LIMIT == 65536
        res = run("closure", "65536", "--set", "3", "--format", fmt)  # the multiples of 3 up to F
        assert res.exit_code == 0
        started = time.perf_counter()
        res = run("closure", "65537", "--set", "3", "--format", fmt)
        assert time.perf_counter() - started < 1
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "hull chain over 65537 bits refused (limit 65536)" in res.stderr


class TestMinimalGens:
    def test_positive(self):
        res = run("minimal-gens", "6,8,10,31,33,35")
        assert res.exit_code == 0
        got = pairs(res.stdout)
        assert got["semigroup"] == "<6,8,10,31,33,35>"
        assert got["minimal_system"] == "6,8"
        assert got["rank"] == "2"
        obj = json.loads(run("minimal-gens", "6,8,10,31,33,35", "--format", "json").stdout)
        assert list(obj) == ["semigroup", "minimal_system", "rank"]
        assert obj["minimal_system"] == [6, 8] and obj["rank"] == 2

    def test_not_arf_exits_one(self):
        for generators, described in [
            ("5,7,9", "the semigroup with Frobenius number 13 and multiplicity 5 is"),
            ("1", "the naturals are"),
        ]:
            res = run("minimal-gens", generators)
            message = f"{described} not an Arf semigroup with positive Frobenius number\n"
            assert (res.exit_code, res.stdout, res.stderr) == (1, "", message)

    def test_not_arf_error_is_short_for_a_large_semigroup(self):
        # F = 130,319: listing the members would write about 480 kB
        res = run("minimal-gens", "361,363")
        assert res.exit_code == 1
        assert res.stdout == ""
        assert 0 < len(res.stderr_bytes) < 200
        assert "Frobenius number 130319 and multiplicity 361" in res.stderr


class TestRankOne:
    def test_count(self):
        assert run("rank-one", "12", "--count").stdout == "6\n"
        assert run("rank-one", "360", "--count").stdout == "336\n"
        obj = json.loads(run("rank-one", "12", "--count", "--format", "json").stdout)
        assert obj == {"F": 12, "count": 6}

    def test_table(self):
        lines = run("rank-one", "5").stdout.strip().splitlines()
        assert lines[0].split() == ["multiplicity", "genus", "generators"]
        assert [ln.split() for ln in lines[1:]] == [
            ["2", "3", "2,7"],
            ["3", "4", "3,7,8"],
            ["4", "4", "4,6,7,9"],
        ]

    def test_count_has_no_limit_and_finishes_in_time(self):
        started = time.perf_counter()
        res = run("rank-one", "2147483647", "--count")  # the input cap, and prime
        assert time.perf_counter() - started < 1
        assert res.exit_code == 0
        assert res.stdout == "2147483645\n"

    def test_empty_catalog(self):
        assert run("rank-one", "2", "--format", "json").stdout == "[]\n"
        assert run("rank-one", "2", "--count").stdout == "0\n"

    def test_too_small(self):
        assert run("rank-one", "1").exit_code == 2

    def test_listing_limit_boundary(self):
        assert _RANK_ONE_LIMIT == 1500
        started = time.perf_counter()
        res = run("rank-one", "1500", "--format", "json")  # json is the slower format
        assert time.perf_counter() - started < 2
        assert res.exit_code == 0 and len(json.loads(res.stdout)) == 1500 - 24  # 24 divisors
        for F in ("1501", "2147483647"):
            for fmt in ("table", "json"):
                message = f"rank-one listing for Frobenius number {F} refused (limit 1500; --count has none)"
                assert_refused(message, "rank-one", F, "--format", fmt)
            assert run("rank-one", F, "--count").exit_code == 0


class TestSeq:
    @pytest.mark.parametrize("command", ["validate", "semigroup", "refinements"])
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_sequences_are_validated_once(self, monkeypatch, command, fmt):
        counts = Counter()
        count_validations(monkeypatch, counts)
        assert run("seq", command, "2,2,2,8", "--format", fmt).exit_code == 0
        assert counts == {"validate_sequence": 1}

    @pytest.mark.parametrize("command", ["validate", "semigroup", "refinements"])
    def test_terms_are_converted_once(self, monkeypatch, command):
        # the parsed terms become an ArfSequence once; every later call takes its terms as they are
        rebuilt = []

        def counted(seq, _as_terms=sequences._as_terms):
            if not isinstance(seq, sequences.ArfSequence):
                rebuilt.append(seq)
            return _as_terms(seq)

        monkeypatch.setattr(sequences, "_as_terms", counted)
        assert run("seq", command, "2,2,2,8").exit_code == 0
        assert rebuilt == [(2, 2, 2, 8)]

    def test_validate_ok(self):
        res = run("seq", "validate", "2,2,2,8")
        assert res.exit_code == 0
        got = pairs(res.stdout)
        assert got["valid"] == "true"
        assert got["refinement_free"] == "false"
        assert got["total"] == "14"
        assert got["frobenius"] == "13"
        assert got["semigroup"] == "<8,10,12,14,15,17,19,21>"

    def test_validate_json(self):
        obj = json.loads(run("seq", "validate", "2,2,2,8", "--format", "json").stdout)
        assert list(obj) == ["sequence", "valid", "refinement_free", "semigroup"]
        assert obj["valid"] is True and obj["refinement_free"] is False
        assert obj["semigroup"]["small_elements"] == [0, 8, 10, 12]

    def test_validate_bad_exits_one(self):
        res = run("seq", "validate", "3,2")
        assert res.exit_code == 1
        assert pairs(res.stdout)["valid"] == "false"
        res = run("seq", "validate", "3,2", "--format", "json")
        assert res.exit_code == 1
        assert json.loads(res.stdout) == {"sequence": [3, 2], "valid": False}

    def test_semigroup(self):
        got = pairs(run("seq", "semigroup", "2,2,2,8").stdout)
        assert got["frobenius"] == "13"
        assert got["small_elements"] == "0,8,10,12"
        obj = json.loads(run("seq", "semigroup", "2,2,2,8", "--format", "json").stdout)
        assert obj["small_elements"] == [0, 8, 10, 12]

    @pytest.mark.parametrize("command", ["semigroup", "refinements"])
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_invalid_terms_exit_one_with_the_library_message(self, command, fmt):
        res = run("seq", command, "3,2", "--format", fmt)
        assert (res.exit_code, res.stdout, res.stderr) == (1, "", "3,2 violates the sequence axioms\n")

    def test_refinements(self):
        res = run("seq", "refinements", "2,2,2,8")
        assert res.exit_code == 0
        lines = res.stdout.strip().splitlines()
        assert lines[2:] == [
            "position 4  value 2  -> 2,2,2,2,6",
            "position 4  value 4  -> 2,2,2,4,4",
        ]
        obj = json.loads(run("seq", "refinements", "2,2,2,8", "--format", "json").stdout)
        assert obj == {
            "sequence": [2, 2, 2, 8],
            "refinement_free": False,
            "refinements": [
                {"position": 4, "value": 2, "sequence": [2, 2, 2, 2, 6]},
                {"position": 4, "value": 4, "sequence": [2, 2, 2, 4, 4]},
            ],
        }

    def test_total_limit_boundary(self):
        assert _SEQ_LIMIT == 8192
        # twos then one large term: the slowest shape found, about total/4 splits of 1,026 terms
        slowest = ",".join(["2"] * 1024 + ["6144"])
        started = time.perf_counter()
        res = run("seq", "refinements", slowest, "--format", "json")
        assert time.perf_counter() - started < 2
        assert res.exit_code == 0
        for terms in (",".join(["2"] * 4096), "2,8190"):
            for command in ("validate", "semigroup", "refinements"):
                assert run("seq", command, terms).exit_code == 0
        for terms, total in (("2,8191", 8193), (slowest + ",2", 8194), ("2147483647", 2147483647)):
            for command in ("validate", "semigroup", "refinements"):
                for fmt in ("table", "json"):
                    message = f"sequence total {total} refused (limit 8192)"
                    assert_refused(message, "seq", command, terms, "--format", fmt)

    def test_refinement_free(self):
        obj = json.loads(run("seq", "refinements", "2,2,2,2,2,2,2", "--format", "json").stdout)
        assert obj["refinement_free"] is True
        assert obj["refinements"] == []


def table_rows(text):
    """The ``(key, cell)`` rows of a ``render_pairs`` table, in order."""
    return [tuple(line.split(None, 1)) for line in text.splitlines()]


def json_cell(value):
    """A JSON value as the table writes it: a semigroup object as its generator label, anything
    else by ``render_pairs``' own cell rule."""
    if isinstance(value, dict):
        return "<" + ",".join(map(str, value["min_generators"])) + ">"
    return serialize._cell(value)


class TestFormatsAgree:
    # a single-record command writes every key of its JSON object as a table row with the same
    # cell; check's JSON nests its semigroup rows, less the two counts, as one object
    @pytest.mark.parametrize(
        "args, status",
        [
            (("check", "1"), 0),  # the naturals
            (("check", "4,6,21,23"), 0),  # Arf
            (("check", "4,17,18,23"), 0),  # not Arf
            (("closure", "29", "--set", "6,8"), 0),
            (("closure", "8", "--set", "4"), 1),  # no hull
            (("minimal-gens", "6,8,10,31,33,35"), 0),
            (("seq", "validate", "2,2,4"), 0),
            (("seq", "validate", "3,2"), 1),  # invalid
            (("seq", "semigroup", "2,2,4"), 0),
        ],
    )
    def test_every_json_key_is_a_row_with_the_same_cell(self, args, status):
        table, res = run(*args), run(*args, "--format", "json")
        assert table.exit_code == res.exit_code == status
        rows, obj = table_rows(table.stdout), json.loads(res.stdout)
        if args[0] == "check":
            semigroup = obj.pop("semigroup")
            head = [row for row in rows[:8] if row[0] not in ("embedding_dim", "small_count")]
            assert [(key, json_cell(value)) for key, value in semigroup.items()] == head
            assert [key for key, _ in rows[8:]] == list(obj)
        cells = dict(rows)
        assert obj.keys() <= cells.keys(), args
        for key, value in obj.items():
            assert json_cell(value) == cells[key], (args, key)


def assert_matches_the_reference(monkeypatch, *args):
    """``arfsg args...`` prints the same bytes, status and stderr as through ``row_reference``."""
    got = run(*args)
    with monkeypatch.context() as reference:
        row_reference.install(reference)
        want = run(*args)
    if got != want:  # report the first differing line: pytest's diff of whole outputs takes minutes
        lines = zip(got.stdout.splitlines(), want.stdout.splitlines())
        first = next(((g, w) for g, w in lines if g != w), None)
        pytest.fail(f"{args}: exit {got.exit_code} vs {want.exit_code}, same stderr {got.stderr == want.stderr}, "
                    f"first differing line {first}")


class TestRowsMatchTheReference:
    @pytest.mark.parametrize("F", [*range(1, 41), 60])
    def test_enumerate_and_tree(self, monkeypatch, F):
        for fmt in ("table", "csv", "json"):
            assert_matches_the_reference(monkeypatch, "enumerate", str(F), "--format", fmt)
        for fmt in ("dot", "json"):
            assert_matches_the_reference(monkeypatch, "tree", str(F), "--format", fmt)

    def test_rows_of_the_largest_tree(self, monkeypatch):
        # F = 89 has the largest tree the limit accepts, and the widest cells: the table's
        # columns are as wide as their headers, the reference's as their widest cells;
        # test_enumerate_and_tree covers F = 1..40
        for args in (("enumerate", "89", "--format", "table"), ("enumerate", "89", "--format", "csv"),
                     ("enumerate", "89", "--format", "json"), ("tree", "89", "--format", "json")):
            assert_matches_the_reference(monkeypatch, *args)

    def test_maximal_only_on_every_accepted_frobenius_number(self, monkeypatch):
        # the pruned walk, sorted, against the maximal nodes of the whole tree; --stats writes a report
        # with the wall time to stderr, and its stdout is the same bytes
        for F in range(1, _TREE_LIMIT + 1):
            for fmt in ("table", "csv", "json"):
                args = ("enumerate", str(F), "--maximal-only", "--format", fmt)
                assert_matches_the_reference(monkeypatch, *args)
                with_stats, without = run(*args, "--stats"), run(*args)
                assert (with_stats.exit_code, with_stats.stdout) == (0, without.stdout), args

    def test_rank_one(self, monkeypatch):
        for F in range(2, 61):
            for fmt in ("table", "json"):
                assert_matches_the_reference(monkeypatch, "rank-one", str(F), "--format", fmt)
        # the widest cells the limit accepts, against columns padded from the cells
        assert_matches_the_reference(monkeypatch, "rank-one", str(_RANK_ONE_LIMIT), "--format", "table")

    @pytest.mark.parametrize("smoke", [True, False])
    def test_queries(self, monkeypatch, smoke):
        # the benchmark's queries inputs, small (smoke) and of its default seed (F up to 8,000);
        # seq semigroup runs on the terms of the seq commands
        commands = set()
        for op in workloads.build("queries", 0, smoke=smoke):
            argv = op.argv[: op.argv.index("--format")]
            if argv[0] == "seq":
                commands |= {("seq", "validate", argv[2]), ("seq", "semigroup", argv[2])}
            elif argv[0] in ("closure", "minimal-gens"):
                commands.add(argv)
        assert {argv[:2] for argv in commands} >= {("seq", "validate"), ("seq", "semigroup")}
        assert {argv[0] for argv in commands} == {"seq", "closure", "minimal-gens"}
        for argv in sorted(commands):
            for fmt in ("table", "json"):
                assert_matches_the_reference(monkeypatch, *argv, "--format", fmt)

    @pytest.mark.parametrize(
        "args, want",
        [
            (("enumerate", "1"), '[{"frobenius":1,"multiplicity":2,"genus":1,"type":1,'
                                 '"min_generators":[2,3],"small_elements":[0]}]'),
            (("enumerate", "1", "--maximal-only"), '[{"frobenius":1,"multiplicity":2,"genus":1,"type":1,'
                                                   '"min_generators":[2,3],"small_elements":[0]}]'),
            (("tree", "1"), '{"frobenius":1,"root":0,"nodes":[{"frobenius":1,"multiplicity":2,"genus":1,"type":1,'
                            '"min_generators":[2,3],"small_elements":[0]}],"edges":[]}'),
            (("tree", "5"), '{"frobenius":5,"root":0,"nodes":['
                            '{"frobenius":5,"multiplicity":6,"genus":5,"type":5,'
                            '"min_generators":[6,7,8,9,10,11],"small_elements":[0]},'
                            '{"frobenius":5,"multiplicity":3,"genus":4,"type":2,'
                            '"min_generators":[3,7,8],"small_elements":[0,3]},'
                            '{"frobenius":5,"multiplicity":4,"genus":4,"type":3,'
                            '"min_generators":[4,6,7,9],"small_elements":[0,4]},'
                            '{"frobenius":5,"multiplicity":2,"genus":3,"type":1,'
                            '"min_generators":[2,7],"small_elements":[0,2,4]}],'
                            '"edges":[[1,0],[2,0],[3,2]]}'),
            (("rank-one", "2"), "[]"),  # the empty catalog
            (("rank-one", "3"), '[{"frobenius":3,"multiplicity":2,"genus":2,"type":1,'
                                '"min_generators":[2,5],"small_elements":[0,2]}]'),
        ],
    )
    def test_json_edge_rows(self, monkeypatch, args, want):
        res = run(*args, "--format", "json")
        assert (res.exit_code, res.stdout, res.stderr) == (0, want + "\n", "")
        assert_matches_the_reference(monkeypatch, *args, "--format", "json")

    def test_json_root_row(self):
        # delta(F) = {0, F+1, ->}: F+1 generators, and 0 is its one small element
        gens = ",".join(map(str, range(41, 82)))
        root = f'{{"frobenius":40,"multiplicity":41,"genus":40,"type":40,"min_generators":[{gens}],'
        root += '"small_elements":[0]}'
        assert run("enumerate", "40", "--format", "json").stdout.startswith(f"[{root},")
        assert run("tree", "40", "--format", "json").stdout.startswith(f'{{"frobenius":40,"root":0,"nodes":[{root},')

    def test_json_sparse_rows(self, monkeypatch):
        # fewer than one bit in 8 set in both masks: the names are scanned, not selected
        S = next(S for S in rank_one_catalog(80) if S.multiplicity() == 9)
        assert _selector(_med_generator_mask(80, S.mask)) is None and _selector(S.mask ^ (1 << 81)) is None
        row = ('{"frobenius":80,"multiplicity":9,"genus":72,"type":8,"min_generators":[9,82,83,84,85,86,87,88,89],'
               '"small_elements":[0,9,18,27,36,45,54,63,72]}')
        assert f",{row}," in run("rank-one", "80", "--format", "json").stdout
        assert_matches_the_reference(monkeypatch, "rank-one", "80", "--format", "json")

    def test_the_reference_replaces_every_row_renderer(self, monkeypatch):
        # every serialize call of cli is replaced by install, or renders only through what install
        # replaces; a new renderer must be added to install or, if it reads no rows, listed here
        row_reference.install(monkeypatch)
        reads = {
            node.attr
            for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "serialize"
        }
        kept = {name for name in reads if getattr(serialize, name).__module__ != row_reference.__name__}
        assert kept == {
            "dumps", "render_pairs", "closure_obj", "sequence_obj",  # through semigroup_dict, render_table
            "tree_table", "rank_one_table",  # through _generator_cells, render_table
            "tree_csv", "tree_dot",  # through _generator_cells
        }

        # with the reference installed, no command may reach the package's own rows: a renderer
        # that install misses would read the generator mask or select names, and fail here
        def unused(*args):
            raise AssertionError("a row renderer ran past row_reference.install")

        for name in ("_med_generator_mask", "_iter_bits", "_selector", "_scan_bits"):
            monkeypatch.setattr(serialize, name, unused)
        commands = [("enumerate", "12", "--format", fmt, *flag)
                    for fmt in ("table", "csv", "json") for flag in ((), ("--maximal-only",))]
        commands += [("tree", "12", "--format", fmt) for fmt in ("dot", "json")]
        for fmt in ("table", "json"):
            commands += [
                ("rank-one", "12", "--format", fmt),
                ("check", "4,6,21,23", "--format", fmt),
                ("closure", "29", "--set", "6,8", "--format", fmt),
                ("minimal-gens", "6,8,10,31,33,35", "--format", fmt),
                ("seq", "validate", "2,2,2,8", "--format", fmt),
                ("seq", "semigroup", "2,2,2,8", "--format", fmt),
            ]
        for args in commands:
            res = run(*args)
            assert res.exit_code == 0 and res.stdout, args


# derived values are closed by construction and skip the constructor's full closure check
@pytest.mark.parametrize(
    "args",
    [
        ("enumerate", "20"),
        ("closure", "100", "--set", "7"),
        ("minimal-gens", "4,6,9,11"),
        ("check", "97,101", "--format", "json"),
        ("seq", "semigroup", "2,2,2,8"),
        ("rank-one", "12"),
    ],
)
def test_no_full_check_on_derived_values(monkeypatch, args):
    calls = count_full_checks(monkeypatch)
    assert run(*args).exit_code == 0
    assert calls == [0]


class TestBadInput:
    def test_exit_code_two(self):
        assert run("check", "abc").exit_code == 2
        assert run("check", "").exit_code == 2
        assert run("check", "4,6").exit_code == 2  # gcd 2, not a numerical semigroup
        assert run("enumerate", "2147483648").exit_code == 2
        assert run("enumerate", "0").exit_code == 2
        assert run("enumerate", "5", "--format", "dot").exit_code == 2
        assert run("seq", "validate", "").exit_code == 2
        assert run("closure", "5", "--set", "1,x").exit_code == 2

    def test_lists_that_start_with_a_negative_value(self):
        # argparse reads "-2,4" as an option unless told otherwise: "--" before a positional list and
        # "=" after an option pass it on, and the CLI adds them itself, so each pair reads the same
        res = run("seq", "validate", "--", "-2,4")
        assert (res.exit_code, res.stdout, res.stderr) == (1, "sequence  -2,4\nvalid     false\n", "")
        res = run("seq", "validate", "--format", "json", "--", "-2,4")
        assert (res.exit_code, res.stdout, res.stderr) == (1, '{"sequence":[-2,4],"valid":false}\n', "")
        res = run("closure", "10", "--set=-3,5")
        assert res.exit_code == 1 and res.stderr == ""
        assert pairs(res.stdout)["X"] == "-3,5" and pairs(res.stdout)["is_ar_set"] == "false"
        res = run("closure", "10", "--set=-3,5", "--format", "json")
        assert (res.exit_code, res.stderr) == (1, "")
        assert json.loads(res.stdout) == {"F": 10, "X": [-3, 5], "is_ar_set": False, "closure": None, "rank": None}
        for plain, marked in (
            (("seq", "validate", "-2,4"), ("seq", "validate", "--", "-2,4")),
            (("seq", "validate", "-2,4", "--format", "json"), ("seq", "validate", "--format", "json", "--", "-2,4")),
            (("seq", "semigroup", "-2,4"), ("seq", "semigroup", "--", "-2,4")),
            (("closure", "10", "--set", "-3,5"), ("closure", "10", "--set=-3,5")),
            (("closure", "--set", "-3,5", "10", "--format", "json"), ("closure", "10", "--set=-3,5", "--format", "json")),
            (("check", "-2,4"), ("check", "--", "-2,4")),
            (("enumerate", "5", "--format", "-2,4"), ("enumerate", "5", "--format=-2,4")),
        ):
            assert run(*plain) == run(*marked), plain
        assert run("seq", "validate", "-2,4").exit_code == 1
        assert run("closure", "10", "--set", "-3,5").exit_code == 1
        assert "invalid choice: '-2,4'" in run("enumerate", "5", "--format", "-2,4").stderr
        # a list left over after the command's argument is still the top level's usage error
        res = run("seq", "validate", "5", "-2,4")
        assert res.exit_code == 2 and res.stderr.startswith("usage: arfsg [--help] COMMAND")

    def test_error_messages_on_stderr(self):
        res = run("check", "abc")
        assert res.stdout == ""
        assert "integer" in res.stderr

    @pytest.mark.parametrize(
        "args, message",
        [
            (("check", "abc"), "generator must be an integer, got 'abc'"),
            (("check", ""), "at least one generator is required"),
            (("enumerate", "2147483648"), "frobenius 2147483648 overflows the 32-bit input cap"),
            (("enumerate", "0"), "frobenius must be >= 1, got 0"),
            (("closure", "5", "--set", "1,x"), "element must be an integer, got 'x'"),
            (("seq", "validate", ""), "at least one term is required"),
            (("rank-one", "1"), "frobenius must be >= 2, got 1"),
            # a negative number is an argument, not an unknown option
            (("enumerate", "-5"), "frobenius must be >= 1, got -5"),
            (("rank-one", "-3", "--count"), "frobenius must be >= 2, got -3"),
            # each library refusal, raised below the command and mapped once in main
            (("enumerate", "91"), "tree walk for Frobenius number 91 refused (limit 90)"),
            (("tree", "0"), "frobenius must be >= 1, got 0"),
            (("tree", "91", "--format", "json"), "tree walk for Frobenius number 91 refused (limit 90)"),
            (("closure", "0", "--set", "1"), "frobenius must be >= 1, got 0"),
            (("closure", "65537", "--set", "3"), "hull chain over 65537 bits refused (limit 65536)"),
            (("check", "4,6"), "gcd of [4, 6] is 2, complement would be infinite"),
            (("check", "0,3"), "generators must be positive: [0, 3]"),
            (("check", "1000,1001"), "membership sieve would need 1001000 bits (limit 131072)"),
            (("minimal-gens", "4,6"), "gcd of [4, 6] is 2, complement would be infinite"),
            (("minimal-gens", "1000,1001"), "membership sieve would need 1001000 bits (limit 131072)"),
            (("rank-one", "1", "--count"), "frobenius must be >= 2, got 1"),
            (("rank-one", "1501"), "rank-one listing for Frobenius number 1501 refused (limit 1500; --count has none)"),
            (("seq", "validate", "8000,193"), "sequence total 8193 refused (limit 8192)"),
            (("seq", "semigroup", ""), "at least one term is required"),
            (("seq", "refinements", " "), "at least one term is required"),
            # a list that starts with a negative value is an argument too
            (("check", "-1,5"), "generators must be positive: [-1, 5]"),
        ],
    )
    def test_refusals_are_one_error_line(self, args, message):
        res = run(*args)
        assert (res.exit_code, res.stdout, res.stderr) == (2, "", f"Error: {message}\n")

    @pytest.mark.parametrize(
        "args",
        [
            (),
            ("seq",),
            ("bogus",),
            ("seq", "bogus", "2"),
            ("enumerate",),
            ("enumerate", "5", "extra"),
            ("enumerate", "5", "--format", "dot"),
            ("closure", "5", "--set"),
            ("check", "5", "--format", "-1,5"),
            ("enumerate", "5", "-h"),
            # no option may be abbreviated
            ("enumerate", "5", "--form", "json"),
            ("enumerate", "5", "--max"),
            ("closure", "5", "--se", "3"),
            ("rank-one", "5", "--c"),
        ],
    )
    def test_usage_errors_exit_two(self, args):
        res = run(*args)
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr.startswith("usage: arfsg")
        assert "error: " in res.stderr.splitlines()[-1]


ARFSG_HELP = """\
usage: arfsg [--help] COMMAND ...

Arf numerical semigroups with a fixed Frobenius number.

options:
  --help        Show this message and exit.

commands:
  COMMAND
    enumerate   List every Arf semigroup with Frobenius number FROBENIUS.
    tree        Export the rooted tree on Ar(FROBENIUS) (edges point child ->
                parent).
    check       Report the invariants of the semigroup generated by
                GENERATORS.
    closure     Smallest Arf semigroup with Frobenius number FROBENIUS
                containing --set.
    minimal-gens
                Minimal hull-generating set of the Arf semigroup generated by
                GENERATORS.
    rank-one    All rank-one members of Ar(FROBENIUS), or their count.
    seq         Validate and convert difference sequences.
"""

SEQ_HELP = """\
usage: arfsg seq [--help] COMMAND ...

Validate and convert difference sequences.

options:
  --help       Show this message and exit.

commands:
  COMMAND
    validate   Check the two sequence axioms.
    semigroup  The semigroup whose difference sequence is TERMS.
    refinements
               Every valid single split of TERMS.
"""

CLOSURE_HELP = """\
usage: arfsg closure [--help] [--set X] [--format {table,json}] FROBENIUS

Smallest Arf semigroup with Frobenius number FROBENIUS containing --set. Exits
1 when no such semigroup exists.

positional arguments:
  FROBENIUS

options:
  --help                Show this message and exit.
  --set X               Comma-separated positive integers.
  --format {table,json}
                        Output format (default: table).
"""


class TestParser:
    @pytest.mark.parametrize(
        "args, text", [(("--help",), ARFSG_HELP), (("closure", "--help"), CLOSURE_HELP), (("seq", "--help"), SEQ_HELP)]
    )
    def test_help(self, monkeypatch, args, text):
        # the help is wrapped to the terminal; the two command lists set their own column, which
        # Python 3.13 would otherwise move by counting the subcommands' indent
        monkeypatch.setenv("COLUMNS", "80")
        res = run(*args)
        assert (res.exit_code, res.stdout, res.stderr) == (0, text, "")

    def test_the_benchmark_calling_convention(self, capsys):
        # main.main(args=..., prog_name=...) returns on success and exits with any other status
        assert cli.main.main(args=["rank-one", "12", "--count"], prog_name="arfsg") is None
        assert capsys.readouterr().out == "6\n"
        for args, status in ((["closure", "8", "--set", "4"], 1), (["check", "abc"], 2), (["bogus"], 2)):
            with pytest.raises(SystemExit) as exc:
                cli.main.main(args=args, prog_name="arfsg")
            assert exc.value.code == status, args

    def test_main_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["arfsg", "rank-one", "12", "--count", "--format", "json"])
        assert cli.main() == 0
        assert capsys.readouterr().out == '{"F":12,"count":6}\n'
        monkeypatch.setattr("sys.argv", ["arfsg", "closure", "8", "--set", "4"])
        assert cli.main() == 1

    def test_library_calls_are_looked_up_when_a_command_runs(self, monkeypatch):
        # a tracer replaces these module globals after the parser is built
        monkeypatch.setattr(cli, "count_rank_one", lambda F: -F)
        assert run("rank-one", "12", "--count").stdout == "-12\n"

    def test_each_leaf_command_has_one_route_to_its_own_subparser(self):
        assert cli._ROUTES == dict(leaf_commands(cli._PARSER))

    def test_routed_parsing_matches_the_full_parser(self, monkeypatch):
        # the expected side is whatever this Python's argparse makes of the whole tree
        monkeypatch.setenv("COLUMNS", "80")
        corpus = [(), ("seq",), ("seq", "bogus"), ("seq", "bogus", "2"), ("bogus",), ("--help",), ("-h",), ("-x",)]
        corpus += [("--",), ("--", "enumerate", "5"), ("seq", "--help"), ("seq", "--", "validate", "2")]
        corpus += [("--help", "closure")]
        corpus += [("seq validate", "2"), ("closure 5",), ("CLOSURE", "5"), ("seq", "-x")]
        for words, _ in leaf_commands(cli._PARSER):
            for rest in [
                (), ("5",), ("5", "extra"), ("5", "--bogus"), ("5", "--bogus=1"), ("-x",), ("-5",), ("5", "-5"),
                ("5", "--form", "json"), ("5", "--maximal"), ("5", "--c"), ("5", "--se", "3"),  # no abbreviations
                ("-h",), ("5", "-h"), ("--help",), ("5", "--help"), ("--help", "extra"), ("5", "--help=1"),
                ("5", "--format", "json", "--format", "table"), ("5", "--format"), ("5", "--format", "bogus"),
                ("5", "--format=json"), ("5", "--set=3"), ("5", "--set", "-3"), ("5", "--stats"), ("5", "--count"),
                ("--", "5"), ("5", "--"), ("--", "--help"), ("--", "-5"), ("--", "5", "extra"),
            ]:
                corpus.append(words + rest)
        for argv in corpus:
            want = parse_outcome(lambda: vars(cli._PARSER.parse_args(list(argv))))
            assert parse_outcome(lambda: cli._parse(list(argv))) == want, argv
            if isinstance(want[0], int):  # a usage error or a help screen: main leaves the same way
                res = run(*argv)
                assert (res.exit_code, res.stdout, res.stderr) == want, argv


def parse_outcome(parse):
    """(SystemExit code or the parsed parameters, stdout, stderr) of ``parse()``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse()
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


# a fresh interpreter that imports the package from this checkout
FRESH_ENV = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))


def arfsg_process(*args):
    """``arfsg args...`` in a fresh interpreter, with stdout and stderr as pipes."""
    command = [sys.executable, "-m", "arfsemigroups.cli", *args]
    return subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=FRESH_ENV)


class TestProcess:
    def test_a_closed_pipe_ends_quietly_with_status_one(self):
        # the reader closes the pipe before the first write
        with arfsg_process("enumerate", "80") as proc:
            proc.stdout.close()
            assert (proc.wait(timeout=30), proc.stderr.read()) == (1, b"")

    def test_a_reader_that_leaves_early_sees_no_traceback(self):
        # `arfsg enumerate 80 | head -1`: whether the rest fits in the pipe decides the status
        with arfsg_process("enumerate", "80") as proc:
            assert proc.stdout.readline().startswith(b"depth  frobenius  multiplicity")
            proc.stdout.close()
            assert proc.wait(timeout=30) in (0, 1)
            assert proc.stderr.read() == b""

    def test_importing_the_cli_leaves_click_out(self):
        code = "import sys, arfsemigroups.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'click'))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=FRESH_ENV, check=True)
        assert out.stdout == "[]\n"

    def test_importing_the_cli_leaves_dataclasses_inspect_and_typing_out(self):
        # against the modules already loaded: a site .pth file may import typing before the package
        code = (
            "import sys; before = set(sys.modules); import arfsemigroups.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & (set(sys.modules) - before)))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=FRESH_ENV, check=True)
        assert out.stdout == "[]\n"
