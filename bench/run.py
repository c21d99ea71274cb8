"""Benchmark of the `sd` command-line tool, end to end and per layer.

Run from the repository root (it needs src/ and bench/):

    python3 bench/run.py --workload euler --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30        # a table of every workload
    python3 bench/run.py --workload tables --full           # the full-size invocations

One closed-loop client runs the workload's `sd` invocations one process
at a time, each as `python3 -c "...cli.main()" ARGS` with src/ on
PYTHONPATH, exactly as the `sd` entry point calls it.  A run first makes
three cold passes, each with a fresh private sieve cache, then warm
passes on the last cold pass's cache until --seconds have elapsed.

Each untraced pass follows a run of bench/reference.py, fixed work that
times how fast the machine is at that moment.  --trace 0 prints the
end-to-end metrics: the median warm-pass wall time and the median
cold-pass time (set-up), each pass rescaled by its reference run to the
speed at which the reference takes REFERENCE_NOMINAL_S; the median
per-pass peak RSS (the largest of any single invocation, read with
os.wait4); and the fewest correct digits among the workload's checked
numbers.  The record keeps the raw times.  --trace 1 makes
one cold pass through bench/trace_child.py, then alternates untraced
and traced warm passes, and prints per-layer metrics from the spans.

Every invocation's output is checked (bench/checks.py).  The last line
of stdout is one JSON object with the keys correct, attempted, failed
and metrics; the line before it is a record of the run.  All files go
to .bench_work/ in the current directory and are removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import checks

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"
COLD_PASSES = 3
MIN_WARM_PASSES = 2
RUN_DEADLINE_S = 170.0
FULL_DEADLINE_S = 900.0
MB = float(2**20)
# wall_s and setup_s are reported at the speed where bench/reference.py takes this long
REFERENCE_NOMINAL_S = 1.0

CLI_CALL = "import sys; from selberg_delange.cli import main; sys.exit(main())"
IMPORT_CALL = "import time; t = time.perf_counter(); import selberg_delange.cli; print(time.perf_counter() - t)"

CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


@dataclass(frozen=True)
class Invocation:
    args: Tuple[str, ...]
    kind: str  # which check applies: report, pmf, ldp_s1 or sample
    x: int = 0
    count: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    quick: Tuple[Invocation, ...]
    full: Tuple[Invocation, ...]
    seeded: bool = False

    def invocations(self, full: bool, seed: int) -> List[Invocation]:
        chosen = self.full if full else self.quick
        return [replace(inv, args=tuple(a.replace("{seed}", str(seed)) for a in inv.args)) for inv in chosen]


def _report(*args):
    return Invocation(("report", "--spec", "theta_omega:2", "--g", "omega") + args, "report")


def _oneshot(x, count):
    spec = ("--spec", "geometric_B:1.5")
    return (
        Invocation(("pmf",) + spec + ("--g", "big_omega", "--x", x), "pmf"),
        Invocation(("sample",) + spec + ("--x", x, "--count", str(count), "--seed", "{seed}"),
                   "sample", int(float(x)), count),
    )


def _ldp(*args):
    return Invocation(("ldp", "--spec", "geometric_B:1.5", "--g", "big_omega", "--s", "1") + args, "ldp_s1")


# The quick invocations keep every call count of the full-size ones at a
# size where a run of 30 s holds several passes (bench/README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "euler",
            "report with 41 complex-twist Euler products, then ldp at s=1 with psi'(0) from 16 real-axis ones: "
            "the Euler engine dominates, value tables stay small",
            (_report("--x-grid", "1e3,1e4,1e5,2e5", "--cutoff", "3e4"),
             _ldp("--x-grid", "1e4,1e5", "--cutoff", "2e5")),
            (_report(), _ldp("--x-grid", "1e5,1e6")),
        ),
        Workload(
            "tables",
            "report to x=1e6 at cutoff 2000 (80 mgf sums on shared tables), then pmf and a seeded sample that "
            "build their tables once: the exact engine dominates",
            (_report("--x-grid", "1e3,1e4,1e5,5e5,1e6", "--cutoff", "2000"),) + _oneshot("1e6", 100_000),
            (_report("--x-grid", "1e3,1e4,1e5,1e6,1e7", "--cutoff", "2000"),) + _oneshot("1e7", 1_000_000),
            seeded=True,
        ),
    )
}


@dataclass
class Call:
    """One finished child process."""

    wall_s: float
    rss_mb: float
    exit_code: int
    digest: str
    stdout_bytes: int
    trace: Optional[dict] = None


@dataclass
class Pass:
    calls: List[Call] = field(default_factory=list)
    reference_s: float = 0.0  # bench/reference.py just before an untraced pass

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.calls)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.calls)


class Runner:
    """Runs children one at a time inside a private work directory."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.caches = 0
        self.env = dict(os.environ, **CHILD_ENV)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src

    def fresh_cache(self) -> Path:
        self.caches += 1
        path = self.work / f"cache{self.caches}"
        path.mkdir()
        return path

    def spawn(self, argv: List[str], cache: Optional[Path], stdout: Path) -> Tuple[float, float, int]:
        """Run argv to completion; returns (wall s, peak RSS MB, exit code)."""
        env = dict(self.env, SD_CACHE_DIR=str(cache)) if cache else dict(self.env)
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(self.work / "stderr.txt"), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        budget = self.deadline - time.monotonic()
        if budget <= 0:
            raise TimeoutError("run deadline passed")
        start = time.perf_counter()
        env["BENCH_SPAWN_TIME"] = repr(start)
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
        timer = threading.Timer(budget, os.kill, (pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        return wall, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)

    def call(self, inv: Invocation, cache: Path, traced: bool) -> Tuple[Call, bytes]:
        out = self.work / "stdout.txt"
        if traced:
            trace_path = self.work / "trace.json"
            argv = [sys.executable, str(BENCH_DIR / "trace_child.py"), str(trace_path), *inv.args]
        else:
            argv = [sys.executable, "-c", CLI_CALL, *inv.args]
        wall, rss, code = self.spawn(argv, cache, out)
        data = out.read_bytes()
        trace = None
        if traced and code == 0:
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
        digest = hashlib.sha256(data).hexdigest()
        return Call(wall, rss, code, digest, len(data), trace), data

    def reference_seconds(self) -> float:
        wall, _, code = self.spawn([sys.executable, str(BENCH_DIR / "reference.py")], None, self.work / "reference.txt")
        if code != 0:
            raise RuntimeError("bench/reference.py failed")
        return wall

    def import_seconds(self) -> float:
        out = self.work / "import.txt"
        _, _, code = self.spawn([sys.executable, "-c", IMPORT_CALL], None, out)
        if code != 0:
            raise RuntimeError("importing selberg_delange.cli failed")
        return float(out.read_text())


DIGITS_NAME = {"report": "lambda0_digits", "ldp_s1": "psi_prime_digits", "pmf": "pmf_digits"}


class Checker:
    """Checks each invocation's first output once; later ones must repeat it."""

    def __init__(self, workload: Workload, invocations: List[Invocation], full: bool):
        self.golden = GOLDEN_DIR / ("full" if full else "quick")
        self.workload = workload
        self.invocations = invocations
        self.first: Dict[int, str] = {}
        self.ok: Dict[int, bool] = {}
        self.outputs: Dict[int, str] = {}
        self.problems: List[str] = []
        self.digits: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0

    def golden_text(self, i: int) -> str:
        return (self.golden / f"{self.workload.name}.{i}.out").read_text(encoding="utf-8")

    def content(self, i: int, text: str) -> List[str]:
        inv = self.invocations[i]
        if inv.kind == "sample":
            pmf_index = next(j for j, other in enumerate(self.invocations) if other.kind == "pmf")
            return checks.check_sample(text, inv.x, inv.count, self.outputs[pmf_index])
        check = {"report": checks.check_report, "pmf": checks.check_pmf, "ldp_s1": checks.check_ldp_s1}[inv.kind]
        problems, digits = check(text, self.golden_text(i))
        self.digits[DIGITS_NAME[inv.kind]] = digits
        return problems

    def record(self, i: int, call: Call, data: bytes) -> None:
        self.attempted += 1
        problems = []
        if call.exit_code != 0:
            problems.append(f"exit code {call.exit_code}")
        elif i not in self.first:
            self.first[i] = call.digest
            try:
                self.outputs[i] = data.decode("utf-8")
                found = self.content(i, self.outputs[i])
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                found = [f"unparsable output: {exc!r}"]
            self.ok[i] = not found
            problems.extend(found)
        elif call.digest != self.first[i]:
            problems.append("stdout differs from the first run of the same invocation")
        elif not self.ok[i]:
            problems.append("repeats an incorrect output")
        if problems:
            self.failed += 1
            self.problems.extend(f"{self.invocations[i].args[0]}: {p}" for p in problems)


def run_pass(runner: Runner, checker: Checker, cache: Path, traced: bool) -> Pass:
    result = Pass() if traced else Pass(reference_s=runner.reference_seconds())
    for i, inv in enumerate(checker.invocations):
        call, data = runner.call(inv, cache, traced)
        checker.record(i, call, data)
        result.calls.append(call)
    return result


def median(values) -> float:
    return float(statistics.median(values))


def rescaled(passes: List[Pass]) -> float:
    """Median pass time, each pass rescaled by the reference run just before it."""
    return median(p.wall_s * REFERENCE_NOMINAL_S / p.reference_s for p in passes)


def end_to_end(cold: List[Pass], warm: List[Pass], checker: Checker) -> Dict[str, Tuple[float, str]]:
    return {
        "wall_s": (rescaled(warm), "s"),
        "peak_rss_mb": (median(p.rss_mb for p in warm), "MB"),
        "setup_s": (rescaled(cold), "s"),
        "accuracy_digits": (min(checker.digits.values(), default=0.0), "digits"),
    }


EMPTY_TRACE = {"spans": [], "value_at_calls": 0, "spf_bytes": 0, "table_bytes": 0, "primes_per_product": []}


class SpanStats:
    """Per-name call count, total time and self time over one traced pass."""

    def __init__(self, traced_pass: Pass):
        self.count: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.covered = 0.0
        self.process_wall = traced_pass.wall_s
        self.value_at_calls = 0
        self.spf_bytes = 0
        self.table_bytes = 0
        self.primes: List[int] = []
        self.output_bytes = 0
        for call in traced_pass.calls:
            trace = call.trace or EMPTY_TRACE  # a failed child left no trace
            self.value_at_calls += trace["value_at_calls"]
            self.spf_bytes = max(self.spf_bytes, trace["spf_bytes"])
            self.table_bytes = max(self.table_bytes, trace["table_bytes"])
            self.primes.extend(trace["primes_per_product"])
            self.output_bytes += call.stdout_bytes
            spans = trace["spans"]
            child_time = [0.0] * len(spans)
            for name, start, end, parent in spans:
                if parent >= 0:
                    child_time[parent] += end - start
                else:
                    self.covered += end - start
            for (name, start, end, _), inner in zip(spans, child_time):
                self.count[name] += 1
                self.total[name] += end - start
                self.self_time[name] += end - start - inner

    def counts(self) -> Dict[str, float]:
        return {
            "funcs.value_at_calls": self.value_at_calls,
            "euler.lambda0_calls": self.count.get("euler.lambda0", 0),
            "euler.psi_calls": self.count.get("euler.psi", 0),
            "euler.primes_per_product": sum(self.primes) / len(self.primes) if self.primes else 0.0,
            "exact.twisted_sum_calls": self.count.get("exact.twisted_sum", 0),
            "exact.pmf_calls": self.count.get("exact.pmf", 0),
            "stats.psi_prime_at_zero_calls": self.count.get("stats.psi_prime_at_zero", 0),
            "sieve.spf_mb": self.spf_bytes / MB,
            "exact.table_mb": self.table_bytes / MB,
            "cli.output_mb": self.output_bytes / MB,
        }

    def times(self) -> Dict[str, float]:
        total, own = self.total.get, self.self_time.get
        return {
            "sieve.load_s": total("sieve.load_sieve", 0.0),
            "sieve.prime_array_s": total("sieve.prime_array", 0.0),
            "euler.lambda0_self_s": own("euler.lambda0", 0.0),
            "euler.psi_s": total("euler.psi", 0.0),
            "exact.weight_table_s": total("exact.multiplicative_value_table", 0.0),
            "exact.g_table_s": total("exact.additive_value_table", 0.0),
            "exact.twisted_sum_s": total("exact.twisted_sum", 0.0),
            "exact.partial_sum_s": total("exact.partial_sum", 0.0),
            "exact.residual_s": total("exact.mod_poisson_residual", 0.0),
            "exact.pmf_self_s": own("exact.pmf", 0.0),
            "exact.weight_cumsum_s": total("exact.compensated_cumsum", 0.0),
            "exact.sample_self_s": own("exact.sample", 0.0),
            "stats.psi_prime_at_zero_s": total("stats.psi_prime_at_zero", 0.0),
            "stats.ldp_self_s": own("stats.ldp_predict", 0.0),
            "stats.clt_self_s": own("stats.clt_report", 0.0),
            "cli.self_s": own("cli.main", 0.0),
            "cli.startup_s": total("cli.startup", 0.0),
            "trace.coverage": self.covered / self.process_wall,
        }


PER_LAYER_UNITS = {
    "sieve.build_s": "s", "sieve.load_s": "s", "sieve.spf_mb": "MB", "sieve.prime_array_s": "s",
    "funcs.value_at_calls": "count",
    "euler.lambda0_calls": "count", "euler.lambda0_self_s": "s", "euler.psi_calls": "count",
    "euler.psi_s": "s", "euler.primes_per_product": "count",
    "exact.weight_table_s": "s", "exact.g_table_s": "s", "exact.table_mb": "MB",
    "exact.twisted_sum_calls": "count", "exact.twisted_sum_s": "s", "exact.partial_sum_s": "s",
    "exact.residual_s": "s", "exact.pmf_calls": "count", "exact.pmf_self_s": "s",
    "exact.weight_cumsum_s": "s", "exact.sample_self_s": "s",
    "stats.psi_prime_at_zero_calls": "count", "stats.psi_prime_at_zero_s": "s",
    "stats.ldp_self_s": "s", "stats.clt_self_s": "s",
    "cli.self_s": "s", "cli.startup_s": "s", "cli.output_mb": "MB", "cli.import_s": "s",
    "trace.coverage": "ratio", "trace.overhead_s": "s",
}


def per_layer(cold_traced: Pass, untraced: List[Pass], traced: List[Pass], import_s: List[float],
              checker: Checker) -> Dict[str, Tuple[float, str]]:
    stats = [SpanStats(p) for p in traced]
    counts = stats[0].counts()
    if any(s.counts() != counts for s in stats[1:]):
        checker.problems.append("per-layer counts differ between traced passes")
        checker.failed += 1
    values = dict(counts)
    for name in stats[0].times():
        values[name] = median(s.times()[name] for s in stats)
    values["sieve.build_s"] = SpanStats(cold_traced).total.get("sieve.build_sieve", 0.0)
    values["cli.import_s"] = median(import_s)
    values["trace.overhead_s"] = median(p.wall_s for p in traced) - median(p.wall_s for p in untraced)
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def run_workload(root: Path, workload: Workload, seed: int, seconds: float, trace: bool, full: bool):
    # the full-size invocations take about half a minute a pass
    cold_passes, min_warm = (1, 1) if full else (COLD_PASSES, MIN_WARM_PASSES)
    deadline = time.monotonic() + (FULL_DEADLINE_S if full else RUN_DEADLINE_S)
    work = root / ".bench_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(root, work, deadline)
        invocations = workload.invocations(full, seed)
        checker = Checker(workload, invocations, full)
        import_s = [runner.import_seconds() for _ in range(3 if trace else 1)]
        cold: List[Pass] = []
        for _ in range(1 if trace else cold_passes):
            cache = runner.fresh_cache()
            cold.append(run_pass(runner, checker, cache, traced=trace))
        warm: List[Pass] = []
        traced: List[Pass] = []
        start = time.perf_counter()
        while len(warm) < min_warm or time.perf_counter() - start < seconds:
            if warm and time.monotonic() + 2 * (warm[-1].wall_s + (traced[-1].wall_s if trace else 0.0)) > deadline:
                break
            warm.append(run_pass(runner, checker, cache, traced=False))
            if trace:
                traced.append(run_pass(runner, checker, cache, traced=True))
        if trace:
            metrics = per_layer(cold[0], warm, traced, import_s, checker)
        else:
            metrics = end_to_end(cold, warm, checker)
        record = {
            "workload": workload.name,
            "seed": seed,
            "seed_used": workload.seeded,
            "full": full,
            "invocations": [" ".join(("sd",) + inv.args) for inv in invocations],
            "cold_pass_s": [p.wall_s for p in cold],
            "warm_pass_s": [p.wall_s for p in warm],
            "reference_s": [p.reference_s for p in cold + warm if not trace],
            "warm_invocation_median_s": [median(p.calls[i].wall_s for p in warm) for i in range(len(invocations))],
            "traced_pass_s": [p.wall_s for p in traced],
            "fail_ratio": checker.failed / checker.attempted,
            "digits": checker.digits,
            "problems": checker.problems[:10],
        }
        if trace:
            record["invocation_counts"] = [
                {k: v for k, v in SpanStats(Pass([call])).counts().items() if k.endswith("_calls")}
                for call in traced[0].calls
            ]
        result = {
            "correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        return record, result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def print_table(results: Dict[str, dict]) -> None:
    names = list(next(iter(results.values()))["metrics"])
    print("  ".join(f"{h:>16}" for h in ["workload", "fail_ratio"] + names))
    for workload, result in results.items():
        cells = [workload, f"{result['failed'] / result['attempted']:.3g}"]
        cells += [f"{result['metrics'][n]['value']:.6g}" for n in names]
        print("  ".join(f"{c:>16}" for c in cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true",
                        help="run the full-size invocations (x up to 1e7, cutoff 1e6); takes minutes")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "selberg_delange" / "cli.py").is_file():
        print("error: run from a checkout of the repository (src/selberg_delange/cli.py not found)",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            record, result = run_workload(root, WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.full)
        except TimeoutError:
            print(f"error: {name} did not finish within the run deadline", file=sys.stderr)
            return 1
        print(json.dumps(record))
        results[name] = result
    if args.workload == "all":
        print_table(results)
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
