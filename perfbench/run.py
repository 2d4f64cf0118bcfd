"""logtrig benchmark: one run of one workload.

    python3 perfbench/run.py --workload default-sweep --seed 1 --seconds 25 --trace 0

Runs timed passes of one workload for ``--seconds`` seconds, each pass in
a fresh process so no state carries from one pass to the next, checks every
pass's output, and prints the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``) as the last line of
stdout.  End-to-end times are in reference seconds: wall time scaled by a
machine-speed gauge read around each pass (calibrate.py).  The line before it holds the sample details: median, a high
percentile and the count per metric, the seed and the hash of the generated
parameters, the failing rows and the worker count.  Both lines are also
written under ``.perfbench_out/`` in the repository.

The package is measured from ``src/`` of the checkout the script sits in;
nothing needs to be installed.  Metric names, units and what each should
move are listed in perfbench/METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_PROBES = 5         # extra set-up samples taken before the timed passes
MIN_PASSES = 3
PROCESS_TIMEOUT_S = 60.0
RSS_POLL_S = 0.02
# Untimed --jobs N passes before the timed ones.  On the 2-vCPU VM the
# benchmark was written on, the first two or three pool passes after a
# stretch of single-process work ran 1.5-1.8x slower than the rest.
CLI_WARMUP_PASSES = 3


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env["PERFBENCH_SRC"] = str(SRC)
    return env


class PassFailed(Exception):
    pass


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_rusage(proc: subprocess.Popen) -> tuple[int, float]:
    """Reap the process; return its exit code and peak RSS in MB.

    ``wait4`` reports the larger of the process's own peak and that of any
    descendant it reaped.
    """
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


class _Watchdog:
    """Kills a process group that outlives the timeout."""

    def __init__(self, proc: subprocess.Popen, timeout: float):
        self._timer = threading.Timer(timeout, _kill_group, (proc,))
        self._timer.daemon = True

    def __enter__(self):
        self._timer.start()
        return self

    def __exit__(self, *exc):
        self._timer.cancel()


def run_worker(inputs: dict | None, traced: bool = False,
               spans_path: Path | None = None) -> dict:
    """Start a worker and return its pass result plus its ``setup_s``; with
    no inputs the worker only starts up."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            cwd=ROOT, env=child_env(), text=True,
                            start_new_session=True)
    with _Watchdog(proc, PROCESS_TIMEOUT_S):
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        spec = "" if inputs is None else json.dumps(
            {"inputs": inputs, "traced": traced,
             "spans_path": str(spans_path) if spans_path else None})
        try:
            proc.stdin.write(spec)
            proc.stdin.close()
        except BrokenPipeError:
            pass
        out = proc.stdout.read()
        proc.stdout.close()
        code, _ = _wait_rusage(proc)
    if ready != "ready\n":
        raise PassFailed(f"worker did not start (exit {code})")
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if code != 0 or (inputs is not None and not result.get("ok")):
        reason = result.get("reason", f"exit {code}")
        raise PassFailed(f"worker pass failed: {reason}")
    result["setup_s"] = setup_s
    return result


def _tree_hwm_kb(root_pid: int, seen: dict[int, int]) -> None:
    """Record the peak RSS (VmHWM) of the process and all its descendants."""
    stack = [root_pid]
    while stack:
        pid = stack.pop()
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        seen[pid] = max(seen.get(pid, 0), int(line.split()[1]))
                        break
            with open(f"/proc/{pid}/task/{pid}/children") as fh:
                stack.extend(int(p) for p in fh.read().split())
        except (FileNotFoundError, ProcessLookupError, ValueError):
            continue


def run_cli(jobs: int) -> dict:
    """One ``logtrig verify`` subprocess, timed from spawn to checked result,
    between two speed-gauge readings taken in this process.

    Peak RSS is the sum of the per-process peaks of the CLI and its pool
    workers, polled every ``RSS_POLL_S`` from /proc, and no less than the
    single-process peak ``wait4`` reports.  Pages a forked worker shares
    with its parent count in both.
    """
    seen: dict[int, int] = {}
    stop = threading.Event()
    gauge_before = calibrate.reading()
    t0 = time.perf_counter()
    proc = subprocess.Popen(workloads.cli_command(jobs), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT, env=child_env(),
                            text=True, start_new_session=True)

    def poll():
        while not stop.wait(RSS_POLL_S):
            _tree_hwm_kb(proc.pid, seen)

    sampler = threading.Thread(target=poll, daemon=True)
    sampler.start()
    with _Watchdog(proc, PROCESS_TIMEOUT_S):
        err_reader = threading.Thread(target=proc.stderr.read, daemon=True)
        err_reader.start()
        out = proc.stdout.read()
        proc.stdout.close()
        err_reader.join()
        proc.stderr.close()
        stop.set()
        sampler.join()
        code, wait_peak_mb = _wait_rusage(proc)
    try:
        summary = workloads.check_cli_output(code, out)
    except (workloads.CheckFailed, ValueError, KeyError) as exc:
        raise PassFailed(f"logtrig verify --jobs {jobs}: {exc}") from None
    elapsed = time.perf_counter() - t0
    peak_mb = max(sum(seen.values()) / 1024.0, wait_peak_mb)
    gauge_s = 0.5 * (gauge_before + calibrate.reading())
    return {"sweep_s": elapsed, "gauge_s": gauge_s, "peak_rss_mb": peak_mb,
            "summary": summary}


# ---------------------------------------------------------------------------
# statistics


def high_percentile(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples above it, or the
    maximum when there are too few samples for one."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return "max", ordered[-1]
    pct = math.floor(100.0 * (n - 10) / n)
    idx = min(n - 1, max(0, math.ceil(pct / 100.0 * n) - 1))
    return "p%d" % pct, ordered[idx]


def describe(values: list[float], unit: str) -> dict:
    label, high = high_percentile(values)
    return {"median": median(values), label: high, "n": len(values), "unit": unit,
            "values": values}


# ---------------------------------------------------------------------------
# runs


class Run:
    def __init__(self, inputs: dict, seconds: float):
        self.inputs = inputs
        self.seconds = seconds
        self.jobs_n = usable_cpus()
        self.setup: list[float] = []        # reference seconds
        self.setup_wall: list[float] = []
        self.gauge: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.hashes: set[str] = set()
        self.summary: dict | None = None
        self.unpatched: set[str] = set()

    def _add_setup(self, result: dict) -> None:
        self.setup.append(result["setup_s"] * result["factor"])
        self.setup_wall.append(result["setup_s"])

    def _add_gauge(self, result: dict) -> None:
        self.gauge.append(result["gauge_s"])
        result["factor"] = calibrate.REFERENCE_S / result["gauge_s"]

    def take_setup_samples(self, count: int = SETUP_PROBES) -> None:
        for _ in range(count):
            result = run_worker(None)
            self._add_gauge(result)
            self._add_setup(result)

    def record(self, fn, *args):
        """Run one pass, gate it, and return its result (None on failure).
        ``factor`` in the result converts its wall times to reference
        seconds."""
        self.attempted += 1
        try:
            result = fn(*args)
        except PassFailed as exc:
            self.failed += 1
            self.failures.append(str(exc))
            return None
        self._add_gauge(result)
        if "setup_s" in result:
            self._add_setup(result)
        summary = result["summary"]
        self.hashes.add(summary["payload_sha256"])
        if self.summary is None:
            self.summary = summary
        return result

    def keep_going(self, t_end: float, passes: int) -> bool:
        return (time.perf_counter() < t_end or passes < MIN_PASSES) and not self.failed

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0 and len(self.hashes) == 1

    def detail(self) -> dict:
        s = self.summary or {}
        return {
            "workload": self.inputs["workload"],
            "seed": self.inputs["seed"],
            "params_sha256": self.inputs["params_sha256"],
            "alphas": len(self.inputs["alphas"]),
            "jobs_n": self.jobs_n,
            "python": sys.version.split()[0],
            "rows": s.get("counts"),
            "fail_share": fail_share(s) if s else None,
            "failing_rows": s.get("failing"),
            "payload_sha256": sorted(self.hashes),
            "pass_failures": self.failures,
            "not_traced": sorted(self.unpatched),
        }


def fail_share(summary: dict) -> float:
    counts = summary["counts"]
    return (counts["fail"] + counts["error"]) / summary["evaluated"]


def warm_up(run: Run, cli: bool) -> None:
    """Untimed work before a run: fill the bytecode cache, take the first
    set-up samples and, for the CLI, get the pool path up to speed."""
    run_worker(None)
    run.take_setup_samples()
    for _ in range(CLI_WARMUP_PASSES if cli else 0):
        run.record(run_cli, run.jobs_n)     # checked, not timed


def end_to_end(run: Run) -> tuple[dict, dict]:
    cli = run.inputs["workload"] == "cli-verify"
    warm_up(run, cli)
    t_end = time.perf_counter() + run.seconds
    fast, serial, rss = [], [], []
    wall = {"sweep_s": [], "sweep_jobs1_s": []}
    while run.keep_going(t_end, len(fast)):
        if cli:
            # alternate which job count goes first in each pair
            order = (run.jobs_n, 1) if len(fast) % 2 == 0 else (1, run.jobs_n)
            for jobs in order:
                res = run.record(run_cli, jobs)
                if res is None:
                    break
                at_n = jobs == run.jobs_n
                (fast if at_n else serial).append(res["sweep_s"] * res["factor"])
                wall["sweep_s" if at_n else "sweep_jobs1_s"].append(res["sweep_s"])
                if at_n:
                    rss.append(res["peak_rss_mb"])
            # CLI passes give no set-up sample; spread probes over the run
            run.take_setup_samples(1)
        else:
            res = run.record(run_worker, run.inputs)
            if res is None:
                break
            fast.append(res["sweep_s"] * res["factor"])
            wall["sweep_s"].append(res["sweep_s"])
            rss.append(res["peak_rss_mb"])
    if not cli:
        serial = fast     # library passes already run at jobs=1
        wall["sweep_jobs1_s"] = wall["sweep_s"]
    wall["setup_s"] = run.setup_wall
    samples = {"sweep_s": fast, "sweep_jobs1_s": serial,
               "setup_s": run.setup, "peak_rss_mb": rss}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    values = {name: median(vals) for name, vals in samples.items() if vals}
    if run.summary:
        values["pass_share"] = 1.0 - fail_share(run.summary)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    details = {name: describe(vals, units[name])
               for name, vals in samples.items() if vals}
    details.update({"wall_" + name: describe(vals, "s")
                    for name, vals in wall.items() if vals})
    details["gauge_s"] = describe(run.gauge, "s")
    return metrics, details


def traced(run: Run) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; per-layer figures come from
    the traced ones, and the difference of the two medians is the tracing
    overhead.  For cli-verify both kinds run ``cli.main`` in the worker at
    --jobs 1, and subprocess pairs at --jobs N and 1 give the pool speed-up."""
    OUT_DIR.mkdir(exist_ok=True)
    w = run.inputs["workload"]
    spans_path = OUT_DIR / f"spans-{w}-seed{run.inputs['seed']}.json"
    cli = w == "cli-verify"
    warm_up(run, cli)
    t_end = time.perf_counter() + run.seconds
    plain, traced_s, layers, fast, serial = [], [], [], [], []
    selfcheck = []
    while run.keep_going(t_end, len(traced_s)):
        if cli:
            for jobs in (run.jobs_n, 1):
                res = run.record(run_cli, jobs)
                if res is None:
                    break
                (fast if jobs == run.jobs_n else serial).append(res["sweep_s"])
        res = run.record(run_worker, run.inputs)
        if res is None:
            break
        plain.append(res["sweep_s"])
        res = run.record(run_worker, run.inputs, True, spans_path)
        if res is None:
            break
        traced_s.append(res["sweep_s"])
        layers.append(res["layers"])
        run.unpatched.update(res["unpatched"])
        row_evals = res["summary"]["row_evals"]
        selfcheck.append((res["layers"]["quadrature.evals"], row_evals))
    metrics, details = {}, {}
    if layers:
        values = tracing.summarize_runs(layers)
        values["report.pool_speedup"] = (median(serial) / median(fast)
                                         if cli and fast and serial else 1.0)
        values["fail_share"] = fail_share(run.summary)
        values["trace_overhead_s"] = median(traced_s) - median(plain)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in SPEC["per_layer"]}
        details = {"traced_sweep_s": describe(traced_s, "s"),
                   "untraced_sweep_s": describe(plain, "s"),
                   "quadrature_evals_vs_row_evals": selfcheck[0]}
        if fast:
            details["cli_sweep_s"] = describe(fast, "s")
            details["cli_sweep_jobs1_s"] = describe(serial, "s")
        # Tracer self-check: the integrand evaluations the tracer saw in
        # integrate_adaptive must add up to the evaluations the rows report.
        # Error rows report partial counts, so only sweeps without them count.
        counts = run.summary["counts"]
        if counts["error"] == 0 and any(q != r for q, r in selfcheck):
            run.failed += 1
            run.failures.append(f"tracer self-check: {selfcheck}")
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "logtrig" / "__init__.py").is_file():
        print(f"error: no logtrig package under {SRC}", file=sys.stderr)
        return 2

    run = Run(workloads.make_inputs(args.workload, args.seed), args.seconds)
    try:
        metrics, details = (traced if args.trace else end_to_end)(run)
    except PassFailed as exc:
        # set-up probes failing means the package cannot even be imported
        print(f"error: {exc}", file=sys.stderr)
        return 2
    detail = run.detail()
    detail["trace"] = args.trace
    detail["samples"] = details
    result = {"correct": run.correct and bool(metrics),
              "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
