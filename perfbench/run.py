"""Benchmark of the stgormer CLI: train, eval and predict workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload predict_sparse --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One workload runs in this process as one client in a closed loop: set up
from the seed, then operations back to back for ``--seconds``, each checked
after it returns. With ``--trace 0`` the last stdout line is a JSON object
with the end-to-end metrics. With ``--trace 1`` it holds the per-layer
metrics instead, from a run in which every other operation is traced (see
``traced_layers``). ``--workload all`` runs each workload in its own process.
Results, run conditions and spans are written under ``.bench_results/`` in
the checkout. See NOTES.md for the workloads, metrics and checks.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from layers import METRICS, POINTS, layer_metrics
from spans import Tracer
from stats import tail_percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SHARE = 0.08
SETUP_MIN_REPEATS = 5
PROBLEMS_SHOWN = 5


def import_program():
    """Import stgormer from this checkout's src/, never from elsewhere."""
    if not (SRC / "stgormer" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'stgormer'}")
    sys.path.insert(0, str(SRC))
    import stgormer  # pins BLAS to one thread before numpy loads
    if not Path(stgormer.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: stgormer imported from {stgormer.__file__}, not {SRC}")


class Ledger:
    """Counts attempted and failed operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)
        return problem is None

    def attempt(self, workload, i: int) -> float | None:
        """Run and check operation i; its wall time, or None if it failed."""
        gc.collect()
        start = time.perf_counter()
        try:
            code = workload.run(i)
        except Exception as exc:  # a crash is a failed operation, not a failed run
            problem = f"raised {exc!r}"
        else:
            problem = None if code == 0 else f"exit code {code}"
        elapsed = time.perf_counter() - start
        if problem is None:
            try:
                problem = workload.check(i)
            except Exception as exc:
                problem = f"check raised {exc!r}"
        if problem is not None:
            problem = f"operation {i}: {problem}"
        return elapsed if self.record(problem) else None


def closed_loop(workload, ledger: Ledger, seconds: float, min_ops: int,
                tracer: Tracer | None = None, between=None) -> list[float]:
    """Operations back to back until ``seconds`` have passed and ``min_ops`` ran.

    Returns the times of the operations that succeeded. Operation indices
    continue from the ledger's count, so they never repeat within a run; with
    a tracer, each operation is its own request. ``between(elapsed)`` runs
    after each operation, untimed.
    """
    samples = []
    start = time.perf_counter()
    first = i = ledger.attempted
    while i - first < min_ops or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.request = i
        elapsed = ledger.attempt(workload, i)
        if elapsed is not None:
            samples.append(elapsed)
        if between is not None:
            between(time.perf_counter() - start)
        i += 1
    return samples


def gemm_gflop_per_s(size: int = 384, repeats: int = 15) -> float:
    """Median float64 GEMM rate of this process, as a reference for layer rates."""
    import numpy as np
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((size, size)), rng.standard_normal((size, size))
    a @ b
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * size ** 3 / statistics.median(times) / 1e9


def conditions() -> dict:
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "gemm_gflop_per_s": gemm_gflop_per_s(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in SRC.rglob("*.py")),
    }


class SetUps:
    """Times set-ups of a workload, each from scratch in its own directory.

    The first set-up prepares the workload that the run uses. The untraced run
    repeats set-up between operations, so that its median spans the whole run
    and not one moment of the host's drifting speed.
    """

    def __init__(self, cls, work: Path, seed: int) -> None:
        self.cls, self.work, self.seed = cls, work, seed
        self.times: list[float] = []

    def once(self):
        """One timed set-up; the prepared workload."""
        workload = self.cls()
        d = self.work / f"setup-{len(self.times)}"
        d.mkdir(parents=True)
        gc.collect()
        t0 = time.perf_counter()
        workload.prepare(d, self.seed)
        self.times.append(time.perf_counter() - t0)
        return workload

    def again(self) -> None:
        """One more timed set-up, whose files are removed straight away."""
        self.once()
        shutil.rmtree(self.work / f"setup-{len(self.times) - 1}")

    def keep_up(self, elapsed: float) -> None:
        """Set up again until set-up has taken SETUP_SHARE of ``elapsed``."""
        while sum(self.times) < SETUP_SHARE * elapsed:
            self.again()


def end_to_end(workload, samples: list[float], setup_times: list[float]) -> tuple[dict, dict]:
    """The gated metrics, and the figures printed under the workload's own labels.

    Both map a name to (value, unit). Throughput is the work of the timed
    operations over their total time. The printed set adds the latency
    percentiles and the forecast error, which are not gated: see NOTES.md.
    """
    p90 = tail_percentile(samples, 90)
    gated = {
        "setup_s": (statistics.median(setup_times), "s"),
        "windows_per_s": (workload.windows_per_op * len(samples) / sum(samples), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    figures = {**gated,
               "latency_ms_p50": (1e3 * statistics.median(samples), "ms"),
               "latency_ms_p90": (None if p90 is None else 1e3 * p90, "ms"),
               "mae": (workload.mae, "abs_err")}
    shown = {workload.labels.get(k, k): v for k, v in figures.items()}
    return gated, shown


def traced_layers(workload, ledger: Ledger, seconds: float, stem: Path,
                  gemm_rate: float) -> tuple[dict, list[float]]:
    """Per-layer metrics: a memory probe, then traced and untraced operations in turn.

    The probe is one operation with tracemalloc on, which slows Python
    allocation too much to time under; it goes first so that it also absorbs
    the colder first operation of a workload without a warm-up. Traced and
    untraced operations alternate so that both see the same drift of the
    host's speed.
    """
    probe = Tracer()
    tracemalloc.start()
    try:
        with probe.installed(POINTS):
            closed_loop(workload, ledger, 0.0, 1, probe)
    finally:
        tracemalloc.stop()
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    first = ledger.attempted
    while ledger.attempted - first < 2 or time.perf_counter() - start < seconds:
        if (ledger.attempted - first) % 2:
            plain += closed_loop(workload, ledger, 0.0, 1)
        else:
            with tracer.installed(POINTS):
                traced += closed_loop(workload, ledger, 0.0, 1, tracer)
    tracer.write(stem.with_suffix(".spans.jsonl"))
    probe.write(stem.with_suffix(".memory-spans.jsonl"))
    if not plain or not traced:
        raise RuntimeError("every operation failed: " + "; ".join(ledger.problems))
    requests = sum(1 for s in tracer.spans if s.name == "cli.main")
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    return layer_metrics(tracer.spans, probe.spans, requests, gemm_rate, overhead), traced


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    cond = conditions()
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    stem = results / f"{name}-seed{seed}-trace{int(trace)}"
    ledger = Ledger()
    setups = SetUps(WORKLOADS[name], work, seed)
    try:
        workload = setups.once()
        ledger.record(workload.reference())
        for _ in range(workload.warmup_ops):
            ledger.attempt(workload, ledger.attempted)
        if trace:
            layers, samples = traced_layers(workload, ledger, seconds, stem,
                                            cond["gemm_gflop_per_s"])
            reported = shown = {k: (layers[k], unit) for k, (unit, _) in METRICS.items()}
        else:
            samples = closed_loop(workload, ledger, seconds, workload.min_ops,
                                  between=setups.keep_up)
            if not samples:
                raise RuntimeError("every operation failed: " + "; ".join(ledger.problems))
            while len(setups.times) < SETUP_MIN_REPEATS:
                setups.again()
            reported, shown = end_to_end(workload, samples, setups.times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "conditions": cond, "samples_s": samples, "setup_times_s": setups.times,
              "problems": ledger.problems, **result}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"{name} seed={seed} trace={int(trace)} timed_ops={len(samples)} "
          f"attempted={ledger.attempted} failed={ledger.failed}")
    print(f"  conditions {json.dumps(cond)}")
    for key, (value, unit) in shown.items():
        text = "n/a (too few samples)" if value is None else f"{value:.6g}"
        print(f"  {key:34s} {text} {unit}")
    print(f"  {'failed_frac':34s} {ledger.failed / ledger.attempted:.6g} 1")
    for problem in ledger.problems[:PROBLEMS_SHOWN]:
        print(f"  failure: {problem}")
    return result


def run_all(names, seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for key, value in part["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv=None) -> int:
    import_program()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(WORKLOADS, args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
