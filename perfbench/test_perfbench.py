"""Tests of the benchmark itself: self-time arithmetic, calibration, patch
restoration, exact counts, the correctness gate and BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import tracing
from calibrate import REFERENCE_S, calibrated
from run import E2E_UNITS, ROOT, Run, _run_s, _unit
from workloads import EXPECTED_PATH, WORKLOADS, check_repeat, load_expected

sys.path.insert(0, str(ROOT / "src"))


def span(name, start, end, parent=-1):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        span("cli.dispatch", 0.0, 10.0),
        span("trainer.train_step", 1.0, 6.0, 0),
        span("losses.circle", 2.0, 4.0, 1),
        span("autograd.backward", 4.5, 5.5, 1),
        span("nn.checkpoint", 7.0, 8.0, 0),
        span("config.parse", 11.0, 12.0),  # a second root, outside the run
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 2.0, 1.0, 1.0, 1.0])
    counts = dict.fromkeys(tracing.COUNT_NAMES, 0)
    metrics = tracing.layer_metrics(spans, counts, built=4, reached=3)
    assert metrics["losses.circle_ms"] == pytest.approx(2000.0)
    assert metrics["autograd.backward_ms"] == pytest.approx(1000.0)
    assert metrics["cli.self_ms"] == pytest.approx(4000.0)
    assert metrics["config.parse_ms"] == pytest.approx(1000.0)
    assert metrics["trainer.step_ms_p50"] == pytest.approx(5000.0)
    assert metrics["autograd.grad_reach_frac"] == pytest.approx(0.75)
    # shares are of the root span's 10 s; config.parse lies outside it
    assert metrics["cli.self_share"] == pytest.approx(0.4)
    assert metrics["trainer.self_share"] == pytest.approx(0.2)
    assert metrics["config.self_share"] == 0.0
    assert sum(metrics[f"{layer}.self_share"] for layer in tracing.LAYERS) == pytest.approx(1.0)


def test_overlapping_children_are_counted_once():
    spans = [span("cli.dispatch", 0.0, 10.0), span("nn.linear", 1.0, 5.0, 0), span("nn.linear", 3.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_times_are_scaled_by_the_calibration_kernel():
    assert calibrated(2.0, kernel=2 * REFERENCE_S) == pytest.approx(1.0)
    assert _run_s({"run_s": 3.0, "kernel_s": 2 * REFERENCE_S}) == pytest.approx(1.5)


def test_every_child_is_bracketed_by_calibration_kernels(tmp_path):
    run = Run(WORKLOADS["gradcheck"], seed=0, scratch=tmp_path)
    result, _ = run.spawn("setup")
    assert result["kernel_s"] > 0 and run.kernel > 0
    assert run.setups == [pytest.approx(calibrated(result["setup_s"], result["kernel_s"]))]
    # the kernel after one child is the kernel before the next
    after_first = run.kernel
    second, _ = run.spawn("setup")
    assert second["kernel_s"] == pytest.approx((after_first + run.kernel) / 2)


def _snapshot():
    import metriclab.autograd
    import metriclab.cli
    import metriclab.config
    import metriclab.errors
    import metriclab.experiments
    import metriclab.gradcheck
    import metriclab.losses
    import metriclab.nn
    import metriclab.synthetic
    import metriclab.trainer

    m = metriclab
    owners = [
        m.autograd, m.cli, m.config, m.experiments, m.gradcheck, m.losses, m.nn, m.synthetic, m.trainer,
        m.autograd.Tensor, m.errors.NumericsError, m.nn.Linear, m.nn.BatchNorm, m.nn.MLP,
        m.nn.CenterPredictor, m.trainer.SGD, m.experiments.SurfaceGrid, m.experiments.AblationReport,
    ]  # fmt: skip
    snap = {repr(owner): dict(vars(owner)) for owner in owners}
    snap["FIXTURES"] = dict(m.synthetic.FIXTURES)
    return snap


def _same(a: dict, b: dict) -> list:
    return [
        (owner, name)
        for owner in a
        for name in set(a[owner]) | set(b[owner])
        if a[owner].get(name, KeyError) is not b[owner].get(name, KeyError)
    ]


def test_every_patch_is_restored_after_a_traced_run(tmp_path):
    import metriclab.cli
    import metriclab.config
    import metriclab.gradcheck

    before = _snapshot()
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    assert _same(before, _snapshot()), "install patched nothing"
    try:
        cfg = metriclab.config.parse_config((ROOT / WORKLOADS["train-pairwise"].config).read_text())
        cfg = replace(cfg, out=str(tmp_path / "out"), sgd=replace(cfg.sgd, epochs=2, milestones=(1,)))
        metriclab.cli.dispatch(cfg)
        metriclab.gradcheck.run_gradcheck(batches=1)
    finally:
        patches.restore()
    assert _same(before, _snapshot()) == []
    assert tracer.counts["trainer.steps"] == 8
    assert tracer.counts["gradcheck.cases"] == 16
    assert tracer.counts["sampling.batches"] == 8
    assert all(s is not None for s in tracer.spans)


@pytest.mark.parametrize("name", ["train-pairwise", "gradcheck"])
def test_exact_counts_repeat_across_two_traced_runs(tmp_path, name):
    run = Run(WORKLOADS[name], seed=3, scratch=tmp_path)
    first, _ = run.repeat("trace", run_id=0)
    second, _ = run.repeat("trace", run_id=1)
    assert run.problems == []
    for count in ("autograd.tensors", "trainer.steps", "sampling.batches", "gradcheck.fd_evals"):
        assert first["counts"][count] == second["counts"][count], count
    assert first["counts"]["autograd.tensors"] > 0
    key = "gradcheck.fd_evals" if name == "gradcheck" else "trainer.steps"
    assert first["counts"][key] > 0


def test_correctness_gate_fires_on_a_tampered_expected_digest(tmp_path):
    workload = WORKLOADS["refit-surface"]
    run = Run(workload, seed=0, scratch=tmp_path)
    result, _ = run.spawn("run")
    assert check_repeat(workload, 0, result, None, load_expected()) == []

    tampered = json.loads(EXPECTED_PATH.read_text())
    tampered["refit-surface"]["surface_cpl.csv"] = "0" * 64
    copy = tmp_path / "expected.json"
    copy.write_text(json.dumps(tampered))
    problems = check_repeat(workload, 0, result, None, load_expected(copy))
    assert problems == ["surface_cpl.csv differs from the checked-in reference output"]
    # at another seed the reference does not apply, but repeats must agree
    assert check_repeat(workload, 1, result, None, load_expected(copy)) == []
    other = dict(result, files=dict(result["files"], **{"surface_cpl.csv": "1" * 64}))
    assert check_repeat(workload, 1, other, result, load_expected()) != []


@pytest.mark.skipif(not (ROOT / "runs").is_dir(), reason="no checked-in runs/ directory")
def test_expected_digests_are_those_of_the_checked_in_runs():
    import hashlib

    sources = {"refit-surface": "runs/surface_bimodal", "retrieval-ablation": "runs/ablation_bn"}
    for workload, files in load_expected().items():
        for name, digest in files.items():
            data = (ROOT / sources[workload] / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name


def test_benchmark_json_names_every_metric_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    counts = dict.fromkeys(tracing.COUNT_NAMES, 0)
    traced = [*tracing.layer_metrics([], counts, 0, 0), "trace_overhead_frac"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: _unit(n) for n in traced}


def test_a_directory_without_the_package_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "perfbench" / "expected.json").write_bytes(EXPECTED_PATH.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gradcheck", "--seed", "0", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout == ""
