"""Run every checked-in experiment config through the CLI.

Each run lands in runs/<name> (written into with --force on rerun) and
prints its one-line JSON summary. Without config arguments it also writes
the seed-0 `metriclab gradcheck --batches 2` stdout to
runs/gradcheck/report.txt, and this machine's numerics platform (numpy
version, dispatched SIMD targets, OpenBLAS kernel) to runs/PLATFORM. The
package is imported from this checkout's src/, so nothing needs to be
installed. Config arguments are read relative to the working directory;
every run and both records are made in this checkout's root, so they land
in its runs/ from any working directory:

    python3 scripts/run_all_experiments.py [config ...]
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "scripts" / "configs"
GRADCHECK_REPORT = ROOT / "runs" / "gradcheck" / "report.txt"
PLATFORM = ROOT / "runs" / "PLATFORM"
SRC_DIR = ROOT / "src"
sys.path.insert(0, str(SRC_DIR))

from metriclab.machine import platform_record  # noqa: E402


def main(argv):
    configs = [Path(a).resolve() for a in argv] or sorted(CONFIG_DIR.glob("*.cfg"))
    path = [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    failures = 0
    for cfg in configs:
        print(f"== {cfg.name}")
        proc = subprocess.run(
            [sys.executable, "-m", "metriclab", "run", str(cfg), "--force"], env=env, cwd=ROOT
        )
        failures += proc.returncode != 0
    if not argv:
        print(f"== platform -> {PLATFORM}")
        PLATFORM.parent.mkdir(parents=True, exist_ok=True)
        PLATFORM.write_text(platform_record())
        print(f"== gradcheck -> {GRADCHECK_REPORT}")
        proc = subprocess.run(
            [sys.executable, "-m", "metriclab", "gradcheck", "--batches", "2"],
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
        )
        if proc.returncode == 0:
            GRADCHECK_REPORT.parent.mkdir(parents=True, exist_ok=True)
            GRADCHECK_REPORT.write_bytes(proc.stdout)
        failures += proc.returncode != 0
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
