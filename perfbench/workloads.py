"""The benchmark's workloads and the correctness gate every repeat passes.

A workload is either one `metriclab run` experiment, driven through
`metriclab.cli.dispatch`, or the finite-difference suite, driven through
`metriclab.gradcheck.run_gradcheck`. Why each one is in the benchmark is
written in README.md and BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

# the reference outputs in EXPECTED_PATH were produced at this seed
REFERENCE_SEED = 0

GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_BATCHES = 2
GRADCHECK_CASES = 16


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "run" (cli.dispatch on a config) or "gradcheck"
    config: str  # config path relative to the repository root; "" for gradcheck
    steps: int  # units of work in one repeat, the base of steps_per_s


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "refit-surface",
            "run",
            "scripts/configs/surface_bimodal.cfg",
            # one predictor refit of 400 full-batch SGD steps (surface.loss = both:
            # the center surface has no optimizer steps)
            400,
        ),
        Workload(
            "train-pairwise",
            "run",
            "perfbench/configs/train_pairwise.cfg",
            # 5 epochs of ceil(32 ids / p=8) = 4 batches
            20,
        ),
        Workload(
            "retrieval-ablation",
            "run",
            "scripts/configs/ablation_bn.cfg",
            # six variants x 20 epochs x ceil(16 train ids / p=4) = 4 batches
            480,
        ),
        Workload(
            "gradcheck",
            "gradcheck",
            "",
            GRADCHECK_CASES * GRADCHECK_BATCHES,
        ),
    )
}


def file_digests(out_dir: Path) -> dict:
    """{relative path: sha256 hex} for every file under out_dir."""
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    return json.loads(path.read_text())


def check_repeat(workload: Workload, seed: int, result: dict, first: dict | None, expected: dict) -> list:
    """Problems found in one repeat's result; an empty list means it passed.

    `first` is the first repeat of the same run (None for the first repeat
    itself): every repeat must reproduce its output digest exactly. At the
    reference seed the files named in `expected` must match byte for byte.
    """
    if "error" in result:
        return [result["error"]]
    problems = []
    files = result["files"]
    if not files:
        problems.append("the repeat wrote no output files")
    if first is not None and files != first["files"]:
        changed = sorted(
            name
            for name in set(files) | set(first["files"])
            if files.get(name) != first["files"].get(name)
        )
        problems.append(f"output differs from the first repeat: {changed}")
    if seed == REFERENCE_SEED:
        for name, digest in expected.get(workload.name, {}).items():
            if files.get(name) != digest:
                problems.append(f"{name} differs from the checked-in reference output")
    summary = result["summary"]
    if workload.kind == "gradcheck":
        if not summary["all_passed"]:
            problems.append(f"gradcheck failed at tolerance {GRADCHECK_TOLERANCE:g}")
        if summary["cases"] != GRADCHECK_CASES:
            problems.append(f"gradcheck ran {summary['cases']} cases, expected {GRADCHECK_CASES}")
    elif summary["kind"] == "train":
        if summary["steps"] != workload.steps:
            problems.append(f"training ran {summary['steps']} steps, expected {workload.steps}")
        if not all(math.isfinite(v) for v in summary["final"].values()):
            problems.append("training ended with a non-finite loss part")
    elif summary["kind"] == "ablation-bn":
        if len(summary["rows"]) != 6:
            problems.append(f"ablation reported {len(summary['rows'])} variants, expected 6")
    return problems


def check_counts(workload: Workload, counts: dict, first_counts: dict | None) -> list:
    """Problems with a traced repeat's exact counts.

    The work units of steps_per_s must be what the workload states, and
    every count must repeat exactly across the traced repeats of a run.
    """
    problems = []
    key = "gradcheck.cases" if workload.kind == "gradcheck" else "trainer.sgd_steps"
    if counts[key] != workload.steps:
        problems.append(f"{key} is {counts[key]}, the workload states {workload.steps}")
    if first_counts is not None:
        differ = sorted(name for name in counts if counts[name] != first_counts[name])
        if differ:
            problems.append(f"counts differ from the first traced repeat: {differ}")
    return problems
