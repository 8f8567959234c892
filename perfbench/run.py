"""metriclab benchmark: time-to-result of experiments and the gradient suite.

    python3 perfbench/run.py --workload refit-surface --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs as a closed loop with one caller: a fresh Python process
per repeat (child.py), the next started only after the previous one ended,
until --seconds is spent. Every repeat passes the correctness gate in
workloads.py. Times are wall times scaled by a calibration kernel timed
right before and after each child (calibrate.py), so that the phases of a
shared machine drop out. With --trace 0 the result holds the end-to-end
metrics (medians over the repeats); with --trace 1 it holds the per-layer metrics
of a traced pass (tracing.py), which is never used for end-to-end numbers.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. See README.md for the workloads, metrics and what they predict.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import calibrated, kernel_s
from tracing import layer_metrics
from workloads import WORKLOADS, check_counts, check_repeat, load_expected

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

SETUP_PROBES = 5  # set-up-only processes per --trace 0 run, besides the repeats
CHILD_TIMEOUT_S = 120  # a hung repeat still lets a 30 s run end within 180 s
# every process runs numpy in one thread: on a few shared cores a second BLAS
# thread measures the scheduler
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class Run:
    """The child processes of one benchmark run, in one scratch directory."""

    def __init__(self, workload, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.expected = load_expected()
        self.first = None  # result of the first repeat that passed the gate
        self.first_counts = None  # counts of the first traced repeat that passed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setups = []  # calibrated set-up times
        self.wall_setups = []
        self.kernel = None  # the last calibration kernel time, taken after the last child

    def spawn(self, mode: str, run_id: int = 0) -> tuple:
        """Start one child, wait for it, return (result, wall seconds).

        The result gets `kernel_s`, the mean of the calibration kernel's
        times right before and right after the child.
        """
        before = self.kernel if self.kernel is not None else kernel_s()
        result, wall = self._spawn(mode, run_id)
        self.kernel = kernel_s()
        result["kernel_s"] = (before + self.kernel) / 2
        if "setup_s" in result:
            self.setups.append(calibrated(result["setup_s"], result["kernel_s"]))
            self.wall_setups.append(result["setup_s"])
        return result, wall

    def _spawn(self, mode: str, run_id: int) -> tuple:
        out = self.scratch / "out"
        shutil.rmtree(out, ignore_errors=True)
        result_path = self.scratch / "result.json"
        result_path.unlink(missing_ok=True)
        t0 = time.monotonic()
        cmd = [
            sys.executable, str(CHILD), "--root", str(ROOT), "--workload", self.workload.name,
            "--seed", str(self.seed), "--mode", mode, "--out", str(out),
            "--result", str(result_path), "--t0", repr(t0), "--run-id", str(run_id),
        ]  # fmt: skip
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"repeat exceeded {CHILD_TIMEOUT_S} s"}, time.monotonic() - t0
        wall = time.monotonic() - t0
        if result_path.exists():
            result = json.loads(result_path.read_text())
        else:
            result = {"error": f"exit code {proc.returncode}, no result: {proc.stderr.strip()[-2000:]}"}
        if proc.returncode != 0 and "error" not in result:
            result = {"error": f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        return result, wall

    def repeat(self, mode: str, run_id: int) -> tuple:
        """One gated repeat; returns (result or None if it failed, wall seconds)."""
        result, wall = self.spawn(mode, run_id)
        self.attempted += 1
        problems = check_repeat(self.workload, self.seed, result, self.first, self.expected)
        if not problems and "counts" in result:
            problems = check_counts(self.workload, result["counts"], self.first_counts)
        if problems:
            self.failed += 1
            self.problems.extend(f"repeat {run_id}: {p}" for p in problems)
            return None, wall
        if self.first is None:
            self.first = result
        if "counts" in result and self.first_counts is None:
            self.first_counts = result["counts"]
        return result, wall

    def loop(self, mode: str, deadline: float, run_id: int) -> list:
        """Repeats until the next one would end after `deadline`; at least one."""
        results, walls = [], []
        while True:
            start = time.monotonic()  # the repeat with its calibration kernel
            result, _ = self.repeat(mode, run_id + len(walls))
            walls.append(time.monotonic() - start)
            if result is not None:
                results.append(result)
            if time.monotonic() + statistics.median(walls) > deadline:
                return results


def _blas_threads():
    """(library, threads) of the BLAS numpy uses, threads capped at nproc."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name')} {blas.get('version')}"
    threads = None
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = min(getter(), os.cpu_count())
                break
    return name, threads


def environment(seed: int) -> dict:
    import numpy

    blas, threads = _blas_threads()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "seed": seed,
    }


def pin_one_cpu() -> int:
    """Bind this process, and so every child, to one CPU; return it.

    The vCPUs of a shared host slow down independently of each other, so the
    calibration kernel tracks a child only when both run on the same CPU.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _run_s(result: dict) -> float:
    """A repeat's run time, calibrated by the kernel runs on either side of it."""
    return calibrated(result["run_s"], result["kernel_s"])


def measure(workload, seed: int, seconds: float, trace: bool, scratch: Path) -> tuple:
    """Run one workload; returns (Run, metrics {name: value}, notes)."""
    run = Run(workload, seed, scratch)
    start = time.monotonic()
    run.spawn("setup")  # warm-up: fills the page cache and __pycache__
    run.setups.clear()
    run.wall_setups.clear()
    budget = start + seconds
    if not trace:
        for _ in range(SETUP_PROBES):
            run.spawn("setup")
        results = run.loop("run", budget, run_id=0)
        run_s = [_run_s(r) for r in results]
        metrics = {
            "setup_s": _median(run.setups),
            "run_s": _median(run_s),
            "steps_per_s": _median([workload.steps / s for s in run_s]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in results]),
            "ok_frac": (run.attempted - run.failed) / run.attempted,
        }
        notes = {
            "repeats": len(results),
            "run_s_all": run_s,
            "setup_s_all": run.setups,
            "wall_run_s": _median([r["run_s"] for r in results]),
            "wall_setup_s": _median(run.wall_setups),
        }
        return run, metrics, notes

    # untraced half, then traced half: the overhead is their ratio
    plain = run.loop("run", start + seconds / 2, run_id=0)
    traced = run.loop("trace", budget, run_id=1000)
    per_repeat = [layer_metrics(r["spans"], r["counts"], r["built"], r["reached"]) for r in traced]
    # counts are equal across traced repeats (check_counts), so the median is exact
    metrics = {name: _median([m[name] for m in per_repeat]) for name in per_repeat[0]} if per_repeat else {}
    untraced = _median([_run_s(r) for r in plain])
    traced_s = _median([_run_s(r) for r in traced])
    metrics["trace_overhead_frac"] = traced_s / untraced - 1.0 if untraced and traced_s else 0.0
    notes = {"repeats": len(plain), "traced_repeats": len(traced), "run_s": untraced, "traced_run_s": traced_s}
    return run, metrics, notes


def _print_report(workload, run: Run, metrics: dict, notes: dict, env: dict, trace: bool):
    print(
        f"# workload {workload.name}: closed loop, 1 caller, one fresh process per repeat; "
        f"{run.attempted} attempted, {run.failed} failed; {json.dumps(notes)}"
    )
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for problem in run.problems:
        print(f"# FAILED {problem}")
    if not trace:
        for name, unit in E2E_UNITS.items():
            print(f"{name:<14} {metrics[name]:>14.6g} {unit}")
        print(f"{'failed_frac':<14} {run.failed / run.attempted:>14.6g} ratio")
        return
    for name in sorted(metrics):
        if not name.endswith("self_share"):
            print(f"{name:<28} {metrics[name]:>14.6g} {_unit(name)}")
    print("# layer self-time share of traced run_s (the most a faster layer can save):")
    for name in sorted(metrics, key=lambda n: -metrics[n]):
        if name.endswith("self_share"):
            print(f"#   {name.split('.')[0]:<12} {metrics[name]:7.1%}")


def _unit(name: str) -> str:
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith(("_frac", "_share")):
        return "ratio"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


def _preflight(workload) -> str | None:
    """Why this directory cannot run the benchmark, or None."""
    needed = [ROOT / "src" / "metriclab" / "__init__.py"]
    if workload.config:
        needed.append(ROOT / workload.config)
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    return f"not a metriclab checkout: missing {', '.join(missing)}" if missing else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running repeat,
    # and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.environ.update(ONE_THREAD)  # before numpy is imported here or in a child
    cpu = pin_one_cpu()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        problem = _preflight(WORKLOADS[name])
        if problem:
            print(problem, file=sys.stderr)
            return 2

    failed = False
    for name in names:
        workload = WORKLOADS[name]
        load_before = os.getloadavg()
        env = environment(args.seed)
        env["cpu"] = cpu
        scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        try:
            run, metrics, notes = measure(workload, args.seed, args.seconds, bool(args.trace), scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        env["loadavg_before"] = load_before
        env["loadavg_after"] = os.getloadavg()
        _print_report(workload, run, metrics, notes, env, bool(args.trace))
        units = E2E_UNITS if not args.trace else {n: _unit(n) for n in metrics}
        print(
            json.dumps(
                {
                    "correct": run.failed == 0,
                    "attempted": run.attempted,
                    "failed": run.failed,
                    "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
                }
            ),
            flush=True,
        )
        failed = failed or run.failed > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
