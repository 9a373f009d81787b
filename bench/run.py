"""Benchmark of the ``arfsg`` command line, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1                  # every workload, each in a fresh process
    python3 bench/run.py --workload queries --smoke --seconds 1
    python3 bench/run.py --record                  # rewrite expected.json from the default seed

One closed-loop client runs the workload's operations in process, pass
after pass, until ``--seconds`` is used up.  Outputs
are checked after the timed region by ``gate.Gate``.  With ``--trace 1`` the
first half of the time runs untraced and the second half with spans (see
``tracing``); the run then reports per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import gate
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
TRACE_DIR = BENCH / "out"
WORKLOADS = ("enumerate", "maximal", "queries")
DEFAULT_SEED = 0
SETUP_SAMPLES = 12
MIN_PASSES = 3

E2E = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
}
LAYER_TIMES = (
    "tree.enumerate_s", "tree.maximal_s",
    "serialize.table_s", "serialize.csv_s", "serialize.json_s", "serialize.dot_s",
    "sequences.generate_s", "sequences.maximal_s", "sequences.validate_s",
    "sequences.refine_s", "sequences.convert_s",
    "closure.hull_s", "closure.mingens_s", "closure.rank_one_s",
    "core.from_generators_s", "core.generators_s", "core.apery_s", "core.is_med_s",
    "core.is_arf_s", "core.elements_s",
    "cli.self_s",
)
LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    "tree.nodes": "count",
    "tree.depth": "count",
    "tree.leaves": "count",
    "tree.maximal": "count",
    "tree.maximal_per_leaf": "ratio",
    "serialize.bytes_out": "B",
    "sequences.count": "count",
    "sequences.free_per_seq": "ratio",
    "closure.rounds": "count",
    "closure.added": "count",
    "closure.accepted_share": "ratio",
    "core.mask_bits": "count",
    "cli.commands": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Pass:
    """One pass over a workload's operations: per-operation times, in order."""

    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    out_bytes: int = 0


def fastest(passes: list[Pass], attr: str) -> list[float]:
    """Each operation's fastest time over the passes.

    Load from other processes on the machine comes in bursts of seconds that
    slow everything by up to half; the fastest of ten or more repeats of an
    operation varies far less from run to run than their median does.
    """
    return [min(times) for times in zip(*(getattr(p, attr) for p in passes))]


class SetupTimer:
    """Times fresh interpreters that import the CLI module.

    Samples are taken between passes, one per ``interval`` seconds, so that a
    burst of load from other processes cannot hit all of them.
    """

    def __init__(self, interval: float):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.env = dict(os.environ, PYTHONPATH=path)
        self.cmd = [sys.executable, "-c", "import arfsemigroups.cli"]
        subprocess.run(self.cmd, env=self.env, check=True)  # writes the bytecode cache, untimed
        self.times: list[float] = []
        self.interval = interval
        self._due = 0.0

    def sample(self) -> None:
        start = perf_counter()
        subprocess.run(self.cmd, env=self.env, check=True)
        self.times.append(perf_counter() - start)

    def between_passes(self) -> None:
        if perf_counter() >= self._due:
            self.sample()
            self._due = perf_counter() + self.interval

    def median(self, at_least: int) -> float:
        while len(self.times) < at_least:
            self.sample()
        return statistics.median(self.times)


@dataclass
class Invocation:
    exit_code: int
    stdout: bytes
    error: str | None  # an exception the command did not turn into an exit code


class InProcessCli:
    """Runs click commands in this process with stdout and stderr captured.

    The capture streams are created once and reused: click caches a wrapper
    per ``sys.stdout`` object it sees and never frees it, so a fresh stream
    per command (as click's CliRunner makes) grows memory with every command.
    """

    def __init__(self, main):
        self.main = main
        self._out, self._err = io.BytesIO(), io.BytesIO()
        self._stdout = io.TextIOWrapper(self._out, encoding="utf-8", write_through=True)
        self._stderr = io.TextIOWrapper(self._err, encoding="utf-8", write_through=True)

    def invoke(self, argv: list[str]) -> Invocation:
        for buffer in (self._out, self._err):
            buffer.seek(0)
            buffer.truncate()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = self._stdout, self._stderr
        code, error = 0, None
        try:
            self.main.main(args=argv, prog_name="arfsg")
        except SystemExit as exc:  # click ends every standalone command with one
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # reported by the gate as a failed operation
            code, error = 1, repr(exc)
        finally:
            sys.stdout, sys.stderr = saved
        return Invocation(code, self._out.getvalue(), error)


class Client:
    """One closed-loop client: runs an operation, waits for it, runs the next."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.cli = InProcessCli(pkg.cli.main)
        self._invoke = self.cli.invoke
        self.ops: dict[str, object] = {}
        self.first: dict[str, object] = {}
        self.runs: dict[str, int] = {}
        self.diverged: dict[str, int] = {}

    def trace(self, tracer) -> None:
        """Record each command as a ``cli`` span from now on (None stops it)."""
        self._invoke = self.cli.invoke if tracer is None else tracer.wrap(self.cli.invoke, "cli.self_s")

    def _call(self, op):
        if op.argv:
            return self._invoke(list(op.argv))
        # through the module attributes, so that a traced run sees the wrappers
        sequences = self.pkg.sequences
        return sequences.maximal_elements(op.frobenius), sequences.arf_sequences_with_total(op.frobenius + 1)

    def _outcome_of(self, op, raw):
        if op.argv:
            return gate.Outcome(raw.exit_code, raw.stdout.decode(), gate.digest(raw.stdout), raw.error)
        members, seqs = raw
        canonical = ([S.small_elements() for S in members], [q.terms for q in seqs])
        return gate.Outcome(0, "", gate.digest(repr(canonical).encode()), None, raw)

    def run(self, op):
        """Run ``op`` once; returns (outcome, wall seconds, cpu seconds)."""
        cpu, start = process_time(), perf_counter()
        raw = self._call(op)
        wall, cpu = perf_counter() - start, process_time() - cpu
        return self._outcome_of(op, raw), wall, cpu

    def measure(self, ops, seconds: float, between=None) -> list[Pass]:
        """Passes over ``ops`` for about ``seconds``; ``between()`` runs after each pass."""
        passes: list[Pass] = []
        start = perf_counter()
        while True:
            record = Pass()
            for op in ops:
                outcome, wall, cpu = self.run(op)
                record.walls.append(wall)
                record.cpus.append(cpu)
                record.out_bytes += len(outcome.stdout)
                self._keep(op, outcome)
            passes.append(record)
            if between is not None:
                between()
            # stop when another pass would overrun the time
            if len(passes) >= MIN_PASSES and perf_counter() - start + sum(record.walls) > seconds:
                return passes

    def _keep(self, op, outcome) -> None:
        key = op.key
        self.runs[key] = self.runs.get(key, 0) + 1
        first = self.first.setdefault(key, outcome)
        self.ops.setdefault(key, op)
        if first is not outcome and (first.exit_code, first.digest, first.error) != (
            outcome.exit_code, outcome.digest, outcome.error
        ):
            self.diverged[key] = self.diverged.get(key, 0) + 1

    def verdict(self, checker) -> tuple[int, int, list[str]]:
        """(attempted, failed, reasons): a wrong first outcome fails every run of its op."""
        attempted = sum(self.runs.values())
        failed, reasons = 0, []
        for key, first in self.first.items():
            reason = checker.check(self.ops[key], first)
            if reason is not None:
                failed += self.runs[key]
                reasons.append(f"{key}: {reason}")
            elif key in self.diverged:
                failed += self.diverged[key]
                reasons.append(f"{key}: {self.diverged[key]} repeats differ from the first outcome")
        return attempted, failed, reasons


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    k = q * (len(ordered) - 1)
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def tail_percentile(n: int) -> float:
    """The highest of the usual percentiles that has at least ten samples beyond it."""
    usable = [q for q in (0.999, 0.99, 0.95, 0.9, 0.75, 0.5) if n * (1 - q) >= 10]
    return usable[0] if usable else 0.5


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def end_to_end(passes: list[Pass], setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    walls = fastest(passes, "walls")
    return {
        "setup_s": setup_s,
        "wall_s": sum(walls),
        "cpu_s": sum(fastest(passes, "cpus")),
        "peak_rss_mb": peak_rss_mb,
        "queries_per_s": len(walls) / sum(walls),
        "query_p50_ms": 1e3 * statistics.median(walls),
        "query_p90_ms": 1e3 * percentile(walls, 0.9),
    }


def per_layer(tracer, traced: list[Pass], plain: list[Pass]) -> dict[str, float]:
    n = len(traced)
    counts = tracer.counts
    self_time = tracer.self_times()
    cli_spans = sum(1 for span in tracer.spans if span[2] == "cli.self_s")
    out = {name: self_time.get(name, 0.0) / n for name in LAYER_TIMES}
    out.update({
        "tree.nodes": counts["tree.nodes"] / n,
        "tree.depth": counts["tree.depth"],
        "tree.leaves": counts["tree.leaves"] / n,
        "tree.maximal": counts["tree.maximal"] / n,
        "tree.maximal_per_leaf": counts["tree.maximal"] / counts["tree.leaves"] if counts["tree.leaves"] else 0.0,
        "serialize.bytes_out": statistics.mean(p.out_bytes for p in traced),
        "sequences.count": counts["sequences.count"] / n,
        "sequences.free_per_seq": counts["sequences.free"] / counts["sequences.count"] if counts["sequences.count"] else 0.0,
        "closure.rounds": counts["closure.rounds"] / n,
        "closure.added": counts["closure.added"] / n,
        "closure.accepted_share": counts["closure.accepted"] / counts["closure.calls"] if counts["closure.calls"] else 0.0,
        "core.mask_bits": counts["core.mask_bits"] / n,
        "cli.commands": cli_spans / n,
        "trace.overhead_s": sum(fastest(traced, "walls")) - sum(fastest(plain, "walls")),
    })
    return out


def load_expected() -> dict[str, list]:
    with open(EXPECTED) as f:
        return json.load(f)


def run_workload(args) -> int:
    import arfsemigroups as pkg
    import arfsemigroups.cli  # noqa: F401  (makes pkg.cli available)

    setup = SetupTimer(args.seconds / SETUP_SAMPLES)
    client = Client(pkg)
    # the smoke inputs load every code path of the workload, untimed and unchecked
    for op in workloads.build(args.workload, DEFAULT_SEED, smoke=True):
        client.run(op)
    ops = workloads.build(args.workload, args.seed, args.smoke)
    plain_seconds = args.seconds / 2 if args.trace else args.seconds
    plain = client.measure(ops, plain_seconds, between=setup.between_passes)
    traced, tracer = [], None
    if args.trace:
        tracer = tracing.Tracer()
        saved = tracing.install(tracer, pkg)
        client.trace(tracer)
        try:
            traced = client.measure(ops, args.seconds - plain_seconds)
        finally:
            client.trace(None)
            tracing.uninstall(saved)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checker = gate.Gate(pkg, load_expected())
    attempted, failed, reasons = client.verdict(checker)
    for reason in reasons[:20]:
        print(f"bench: FAIL {reason}", file=sys.stderr)

    e2e = end_to_end(plain, setup.median(SETUP_SAMPLES), peak_rss_mb)
    tail = tail_percentile(len(ops))
    tree_ops = [op for op in ops if op.kind in ("enumerate", "tree", "maximal-only")]
    nodes = sum(len(checker.family(op.frobenius)) for op in tree_ops)
    report = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "passes": len(plain),
        "operations_per_pass": len(ops),
        "setup_samples": len(setup.times),
        f"query_p{tail * 100:g}_ms": 1e3 * percentile(fastest(plain, "walls"), tail),
        "median_pass_wall_s": statistics.median(sum(p.walls) for p in plain),
        "nodes_per_s": nodes / e2e["wall_s"],
        "error_rate": failed / attempted,
        "end_to_end": {name: {"value": e2e[name], "unit": unit} for name, unit in E2E.items()},
    }
    if args.trace:
        layer = per_layer(tracer, traced, plain)
        report["traced_passes"] = len(traced)
        report["per_layer"] = {name: {"value": layer[name], "unit": unit} for name, unit in LAYER.items()}
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = report["per_layer"]
    else:
        metrics = report["end_to_end"]
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so that peak memory belongs to one workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def record() -> int:
    """Rewrite expected.json: every op of the default seed, checked before it is kept."""
    import arfsemigroups as pkg
    import arfsemigroups.cli  # noqa: F401

    # every F a seed can pick for enumerate and maximal, and the default seed's queries
    ops = [op for w in WORKLOADS for smoke in (False, True) for op in workloads.build(w, DEFAULT_SEED, smoke)]
    for F in workloads.ENUMERATE_FS + workloads.SMOKE_FS:
        ops += workloads.enumerate_ops(F)
    for F in workloads.MAXIMAL_FS + workloads.SMOKE_FS:
        ops += workloads.maximal_ops(F)
    checker = gate.Gate(pkg, {})
    client = Client(pkg)
    expected, bad = {}, 0
    for op in ops:
        if not op.argv or op.key in expected:
            continue
        outcome, _, _ = client.run(op)
        reason = checker.check(op, outcome)
        if reason is not None:
            print(f"bench: not recorded, {op.key}: {reason}", file=sys.stderr)
            bad += 1
            continue
        expected[op.key] = [outcome.exit_code, outcome.digest]
    with open(EXPECTED, "w") as f:
        json.dump(dict(sorted(expected.items())), f, indent=0)
        f.write("\n")
    print(f"bench: recorded {len(expected)} outcomes in {EXPECTED.name}, {bad} refused")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (F <= 14), checked against the oracle")
    parser.add_argument("--record", action="store_true", help="rewrite expected.json from the default seed")
    args = parser.parse_args(argv)
    if not (SRC / "arfsemigroups" / "cli.py").is_file():
        print(f"bench: no package sources at {SRC / 'arfsemigroups'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record:
        return record()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
