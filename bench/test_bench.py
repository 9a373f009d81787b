"""Tests of the benchmark itself: smoke runs, the correctness gate, the references.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys

import pytest

import gate
import reference
import run
import workloads

sys.path.insert(0, str(run.SRC))
import arfsemigroups as pkg  # noqa: E402
import arfsemigroups.cli  # noqa: E402,F401

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_lists_what_the_runner_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "0.5", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stderr
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}


def test_same_seed_same_inputs():
    for workload in run.WORKLOADS:
        assert workloads.build(workload, 5) == workloads.build(workload, 5)
        assert workloads.build(workload, 5, smoke=True) == workloads.build(workload, 5, smoke=True)


def test_without_package_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "queries", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def _corrupt(outcome: gate.Outcome) -> gate.Outcome:
    """Change the last digit of stdout, as a wrong program would."""
    text = outcome.stdout
    k = max(i for i, c in enumerate(text) if c.isdigit())
    text = text[:k] + str((int(text[k]) + 1) % 10) + text[k + 1:]
    return dataclasses.replace(outcome, stdout=text, digest=gate.digest(text.encode()))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_gate_accepts_real_outputs_and_refuses_altered_ones(workload):
    client = run.Client(pkg)
    recorded = gate.Gate(pkg, run.load_expected())
    unrecorded = gate.Gate(pkg, {})  # only the independent routes and the oracle
    for op in workloads.build(workload, 0, smoke=True):
        outcome, _, _ = client.run(op)
        assert recorded.check(op, outcome) is None, op.key
        if op.argv and any(c.isdigit() for c in outcome.stdout):
            assert recorded.check(op, _corrupt(outcome)) is not None, op.key
        if op.argv:
            flipped = dataclasses.replace(outcome, exit_code=outcome.exit_code ^ 1)
            assert unrecorded.check(op, flipped) is not None, op.key


def test_independent_checks_catch_wrong_answers_without_digests():
    checker = gate.Gate(pkg, {})
    client = run.Client(pkg)
    caught = total = 0
    for workload in run.WORKLOADS:
        for op in workloads.build(workload, 1, smoke=True):
            outcome, _, _ = client.run(op)
            if op.argv and any(c.isdigit() for c in outcome.stdout):
                total += 1
                caught += checker.check(op, _corrupt(outcome)) is not None
    # the altered digit may sit where no independent route looks, such as a
    # json "type" field, but most changes must be caught
    assert total > 20 and caught >= 0.8 * total, (caught, total)


def test_reference_arf_test_matches_the_oracle():
    for F in range(1, 11):
        for S in pkg.brute_all_semigroups(F):
            assert reference.is_arf(F, frozenset(S.small_elements())) == pkg.brute_is_arf(S)


def test_reference_sequence_axioms_match_the_package():
    for total in range(1, 13):
        for cut in itertools.product((0, 1), repeat=total - 1):
            terms, run_ = [], 1
            for c in cut:
                if c:
                    terms.append(run_)
                    run_ = 0
                run_ += 1
            terms.append(run_)
            assert reference.valid_sequence(terms) == pkg.validate_sequence(terms), terms
        assert reference.sequences_with_total(total) == [list(q) for q in pkg.arf_sequences_with_total(total)]
