"""End-to-end tests of the arfsg command line."""

import json
import time
from collections import Counter

import pytest
from click.testing import CliRunner

from arfsemigroups import NumericalSemigroup, cli, sequences
from arfsemigroups.cli import main
from arfsemigroups.closure import _HULL_LIMIT
from arfsemigroups.core import _SIEVE_LIMIT
from full_check import count_full_checks

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


def run(*args):
    return CliRunner().invoke(main, list(args))


def pairs(text):
    return dict(line.split() for line in text.strip().splitlines())


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

    def test_threads_do_not_change_the_bytes(self):
        one = run("enumerate", "9", "--format", "csv")
        four = run("enumerate", "9", "--format", "csv", "--threads", "4")
        assert one.stdout == four.stdout

    def test_max_nodes_cap(self):
        assert run("enumerate", "5", "--max-nodes", "2").exit_code == 2


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

    # json builds each once more inside serialize.semigroup_dict
    @pytest.mark.parametrize("fmt, builds", [("table", 1), ("json", 2)])
    def test_invariants_are_built_once(self, monkeypatch, fmt, builds):
        counts = Counter()
        for name in ("_pseudo_frobenius_mask", "minimal_generators", "difference_sequence"):
            def counted(S, _name=name, _method=getattr(NumericalSemigroup, name)):
                counts[_name] += 1
                return _method(S)

            monkeypatch.setattr(NumericalSemigroup, name, counted)
        count_validations(monkeypatch, counts)
        assert run("check", "97,101", "--format", fmt).exit_code == 0
        # is_arf is the sequence_valid value, so the sequence is built and validated once
        assert counts == {
            "_pseudo_frobenius_mask": builds,
            "minimal_generators": builds,
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
        res = run("minimal-gens", "5,7,9")
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr.strip()

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

    def test_empty_catalog(self):
        assert run("rank-one", "2", "--format", "json").stdout == "[]\n"
        assert run("rank-one", "2", "--count").stdout == "0\n"

    def test_too_small(self):
        assert run("rank-one", "1").exit_code == 2


class TestSeq:
    @pytest.mark.parametrize("command", ["validate", "semigroup", "refinements"])
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_sequences_are_validated_once(self, monkeypatch, command, fmt):
        counts = Counter()
        count_validations(monkeypatch, counts)
        assert run("seq", command, "2,2,2,8", "--format", fmt).exit_code == 0
        assert counts == {"validate_sequence": 1}

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
        res = run("seq", "semigroup", "3,2")
        assert res.exit_code == 1
        assert "violates" in res.stderr

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

    def test_refinement_free(self):
        obj = json.loads(run("seq", "refinements", "2,2,2,2,2,2,2", "--format", "json").stdout)
        assert obj["refinement_free"] is True
        assert obj["refinements"] == []


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

    def test_error_messages_on_stderr(self):
        res = run("check", "abc")
        assert res.stdout == ""
        assert "integer" in res.stderr

    def test_max_nodes_below_one_is_refused(self):
        for args in (("enumerate", "1", "--max-nodes", "0"),
                     ("enumerate", "2", "--max-nodes", "-5"),
                     ("tree", "1", "--max-nodes", "0")):
            res = run(*args)
            assert res.exit_code == 2, args
            assert res.stdout == ""
            assert "max_nodes must be >= 1" in res.stderr
