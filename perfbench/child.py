"""One repeat of one workload, in a fresh Python process.

run.py starts this script once per repeat and reads the JSON file it writes.
Set-up is timed from the moment run.py started the process (`--t0`, a
CLOCK_MONOTONIC reading, which every process on the machine shares) to the
point where the workload call can begin: interpreter start, `import
metriclab`, and for experiments `parse_config` with its validation. Then
the workload runs once through the package's public entry point and every
output file is hashed.

Modes: `setup` stops after set-up; `run` times the workload; `trace` also
wraps the package's modules (see tracing.py) and returns spans and counts.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

from workloads import GRADCHECK_BATCHES, GRADCHECK_TOLERANCE, WORKLOADS, file_digests


def _peak_rss_mb() -> float:
    """The high-water resident set size of this process, in MB.

    VmHWM, not ru_maxrss: Linux carries ru_maxrss over exec from the process
    that started this one, so it would report run.py's peak whenever that is
    the larger.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run(args) -> dict:
    root = Path(args.root)
    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    sys.path.insert(0, str(root / "src"))
    import metriclab
    import metriclab.cli
    import metriclab.config
    import metriclab.gradcheck

    package = Path(metriclab.__file__).resolve().parent
    if package != (root / "src" / "metriclab").resolve():
        raise RuntimeError(f"imported metriclab from {package}, not from {root / 'src'}")

    tracer = patches = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer(run_id=args.run_id)
        patches = tracing.install(tracer)
    try:
        if workload.kind == "run":
            # looked up at call time so the traced pass sees its wrapper
            cfg = metriclab.config.parse_config((root / workload.config).read_text())
            cfg = replace(cfg, seed=args.seed, out=str(out))
        setup_s = time.monotonic() - args.t0
        if args.mode == "setup":
            return {"setup_s": setup_s}

        start = time.perf_counter()
        if workload.kind == "run":
            summary = metriclab.cli.dispatch(cfg)
        else:
            report = metriclab.gradcheck.run_gradcheck(
                seed=args.seed, tolerance=GRADCHECK_TOLERANCE, batches=GRADCHECK_BATCHES
            )
            text = report.to_text()
        run_s = time.perf_counter() - start
    finally:
        if patches is not None:
            patches.restore()

    if workload.kind == "gradcheck":
        out.mkdir(parents=True)
        (out / "gradcheck.txt").write_text(text + "\n")
        summary = {"all_passed": report.all_passed, "cases": len(report.rows)}
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": _peak_rss_mb(),
        "summary": summary,
        "files": file_digests(out),
    }
    if tracer is not None:
        tracer.counts["cli.bytes_written"] = (
            sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if workload.kind == "run" else 0
        )
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
        result["built"] = tracer.built
        result["reached"] = tracer.reached
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="repository checkout holding src/metriclab")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out", required=True, help="empty or missing output directory")
    parser.add_argument("--result", required=True, help="JSON file this process writes")
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--run-id", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        result = _run(args)
        code = 0
    except Exception:
        # the parent counts this repeat as failed and prints the traceback
        result = {"error": traceback.format_exc()}
        code = 1
    Path(args.result).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
