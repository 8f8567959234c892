"""End-to-end acceptance checks, one test per criterion.

Every test prints a single pass/fail line with the measured values (run
with `pytest tests/test_acceptance.py -v -s` to see them all) and also
enforces its runtime budget. Tolerances and trial counts are stated
inline; randomized checks draw from named substreams so reruns are
bit-identical.
"""

import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
from fd_utils import central_diff as per_entry_diff
from reference_impls import oracle_retrieval

from metriclab.autograd import Tensor, backward
from metriclab.cli import dispatch
from metriclab.config import ExperimentConfig, LossConfig, ModelConfig, PKSamplerConfig, SgdConfig, parse_config
from metriclab.experiments import run_bn_ablation, run_boundary_experiment, run_loss_surface, run_target_ablation
from metriclab.gradcheck import central_diff, max_rel_err, replay, run_gradcheck
from metriclab.losses import cpl_loss, cpl_targets
from metriclab.metrics import evaluate_retrieval
from metriclab.nn import CenterPredictor
from metriclab.seeding import subseed, substream
from metriclab.synthetic import (
    four_class_fixture,
    bimodal_class_fixture,
    two_class_fixture,
    three_class_fixture,
)
from metriclab.trainer import (
    lr_at,
    refit_predictor,
    train_accuracy,
    train_run,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def test_criterion_01_gradient_suite_matches_finite_differences():
    t0 = time.perf_counter()
    report = run_gradcheck(seed=0, tolerance=1e-4, batches=20)
    elapsed = time.perf_counter() - t0
    worst = max(row.max_rel_err for row in report.rows)
    ok = report.all_passed and len(report.rows) == 16 and elapsed < 30.0
    _report(1, "gradient suite vs central differences", ok,
            f"16 cases x 20 batches, worst rel err {worst:.2e}, {elapsed:.1f}s < 30s")
    assert report.all_passed, report.to_text()
    assert len(report.rows) == 16
    assert elapsed < 30.0


def test_criterion_02_frozen_target_gradient_semantics():
    t0 = time.perf_counter()
    # two samples per class: each target is exactly the other sample, so
    # letting the finite difference move the targets doubles the gradient
    x = Tensor(
        np.array(
            [
                [0.5, -0.8, 3.2, 4.1],
                [-1.2, 0.6, 2.5, 3.3],
                [0.3, 1.1, -0.7, 0.4],
            ]
        ),
        requires_grad=True,
    )
    labels = np.array([0, 0, 1, 1])
    root = cpl_loss(x, labels, cpl_targets(x, labels))
    analytic = backward(root)[x]
    # the replay keeps the targets that the root's build computed; the
    # tests' own per-entry difference rebuilds them from the moved entry
    fd_frozen = central_diff(partial(replay, root, x), x)
    fd_coupled = per_entry_diff(lambda: cpl_loss(x, labels, cpl_targets(x, labels)), x)
    frozen_err = max_rel_err(analytic, fd_frozen)
    coupled_err = max_rel_err(analytic, fd_coupled)
    elapsed = time.perf_counter() - t0
    ok = frozen_err < 1e-4 and coupled_err > 1e-3 and elapsed < 5.0
    _report(2, "frozen-target gradient semantics", ok,
            f"frozen rel err {frozen_err:.2e} < 1e-4, coupled rel err {coupled_err:.2e} > 1e-3, {elapsed:.1f}s < 5s")
    assert frozen_err < 1e-4
    assert coupled_err > 1e-3
    assert elapsed < 5.0


def test_criterion_03_retrieval_metrics_match_bruteforce_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        rng = substream(0, f"acceptance/metrics/{i}")
        d = int(rng.integers(2, 5))
        ng = int(rng.integers(4, 25))
        nq = int(rng.integers(1, 9))
        gallery_labels = rng.integers(0, int(rng.integers(2, 5)), size=ng)
        # query labels drawn from the gallery so every query has a hit
        query_labels = gallery_labels[rng.integers(0, ng, size=nq)]
        gallery = rng.normal(size=(d, ng))
        queries = rng.normal(size=(d, nq))
        res = evaluate_retrieval(queries, query_labels, gallery, gallery_labels)
        o_map, o_cmc, o_excluded = oracle_retrieval(queries, query_labels, gallery, gallery_labels)
        assert not o_excluded and not res.excluded
        worst = max(worst, abs(res.mean_ap - o_map), float(np.abs(res.cmc - o_cmc).max()))
    # worked example: hits at ranks 1 and 3 give AP (1/1 + 2/3) / 2 = 5/6;
    # unit gallery columns at angles 0.1..0.4 from the query rank in that order
    angles = np.array([0.1, 0.2, 0.3, 0.4])
    res = evaluate_retrieval(
        np.array([[1.0], [0.0]]), np.array([0]),
        np.stack([np.cos(angles), np.sin(angles)]), np.array([0, 1, 0, 1]),
    )
    ap_err = abs(res.ap[0] - 5.0 / 6.0)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and ap_err < 1e-12 and elapsed < 5.0
    _report(3, "retrieval metrics vs brute-force oracle", ok,
            f"100 instances, worst |diff| {worst:.1e} < 1e-12, worked AP off by {ap_err:.1e}, {elapsed:.1f}s < 5s")
    assert worst < 1e-12
    assert ap_err < 1e-12
    assert elapsed < 5.0


def test_criterion_04_bimodal_class_prediction_beats_center():
    t0 = time.perf_counter()
    margins = []
    for seed in range(10):
        ds = bimodal_class_fixture(seed=subseed(seed, "dataset"))
        cfg = ExperimentConfig(kind="surface", seed=seed)
        grids = run_loss_surface(ds, cfg)
        center_e, cpl_e = grids["center"].class_mean_error(0), grids["cpl"].class_mean_error(0)
        assert cpl_e < center_e, f"seed {seed}: cpl {cpl_e} !< center {center_e}"
        margins.append(center_e / cpl_e)
        predictor = CenterPredictor(dim=2, hidden=64, rng=substream(seed, "acceptance/refit"), depth=2)
        predictor.init_identity()
        targets = cpl_targets(ds.features, ds.labels)
        best, history = refit_predictor(ds.features, ds.labels, targets, predictor, steps=400, lr=0.005)
        assert best <= history[0] + 1e-9, f"seed {seed}: refit {best} above start {history[0]}"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report(4, "bimodal class: refit prediction error beats center dispersion", ok,
            f"10/10 seeds, center/cpl ratio {min(margins):.0f}..{max(margins):.0f}, "
            f"refit never above identity start, {elapsed:.1f}s < 60s")
    assert elapsed < 60.0


def test_criterion_05_covariance_asymmetry_of_per_class_error():
    t0 = time.perf_counter()
    center_wins, ratio_wins = 0, 0
    center_ratios, cpl_ratios = [], []
    for seed in range(10):
        ds = two_class_fixture(seed=subseed(seed, "dataset"))
        cfg = ExperimentConfig(kind="surface", seed=seed)
        grids = run_loss_surface(ds, cfg)
        gc, gp = grids["center"], grids["cpl"]
        center_iso, center_ell = gc.class_mean_error(0), gc.class_mean_error(1)
        cpl_iso, cpl_ell = gp.class_mean_error(0), gp.class_mean_error(1)
        center_wins += center_ell > center_iso
        center_ratios.append(center_ell / center_iso)
        cpl_ratios.append(cpl_ell / cpl_iso)
        ratio_wins += cpl_ratios[-1] < center_ratios[-1]
    elapsed = time.perf_counter() - t0
    ok = center_wins == 10 and ratio_wins >= 8 and elapsed < 120.0
    _report(5, "elongated class over-penalized by center loss only", ok,
            f"center elliptic>isotropic {center_wins}/10, cpl ratio < center ratio {ratio_wins}/10 (need >=8), "
            f"center ratios {min(center_ratios):.1f}..{max(center_ratios):.1f}, "
            f"cpl ratios {min(cpl_ratios):.2f}..{max(cpl_ratios):.2f}, {elapsed:.1f}s < 2min")
    assert center_wins == 10
    assert ratio_wins >= 8
    assert elapsed < 120.0


def test_criterion_06_boundary_band_error_exceeds_interior():
    t0 = time.perf_counter()
    wins = 0
    ratios = []
    boundary_cfg = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "boundary.cfg"
    boundary = parse_config(boundary_cfg.read_text())
    for seed in range(10):
        ds = three_class_fixture(seed=subseed(seed, "dataset"))
        grid, _ = run_boundary_experiment(ds, replace(boundary, seed=seed))
        ratios.append(grid.boundary_ratio())
        wins += ratios[-1] >= 1.5
    elapsed = time.perf_counter() - t0
    ok = wins >= 7 and elapsed < 180.0
    _report(6, "low-margin band carries higher prediction error", ok,
            f"ratio >= 1.5 in {wins}/10 seeds (need >=7), ratios {min(ratios):.1f}..{max(ratios):.1f}, "
            f"{elapsed:.1f}s < 3min")
    assert wins >= 7
    assert elapsed < 180.0


def test_criterion_07_lr_schedule_bitwise():
    sched = SgdConfig(base_lr=3.5e-4, milestones=(40, 70), decay_factor=0.1, epochs=120)
    checks = (
        (0, 3.5e-4),
        (40, 3.5e-4 * 0.1),
        (70, 3.5e-4 * 0.1 * 0.1),
    )
    ok = all(lr_at(sched, epoch) == expected for epoch, expected in checks)
    _report(7, "lr schedule bitwise at epochs 0/40/70", ok,
            "3.5e-4, then x0.1 at 40 and 70, compared with ==")
    for epoch, expected in checks:
        assert lr_at(sched, epoch) == expected


def test_criterion_08_ablation_harnesses_run_to_completion(tmp_path):
    t0 = time.perf_counter()
    base = parse_config(
        "kind = ablation-target\n"
        "loss.triplet.weight = 1.0\n"
        "sgd.base_lr = 0.001\n"
        "sgd.milestones = 10,15\n"
        "sgd.epochs = 20\n"
    )
    ds = base.dataset.load(base.seed)
    target_rep = run_target_ablation(ds, base)
    bn_rep = run_bn_ablation(ds, replace(base, kind="ablation-bn"))
    target_rep.write_csv(tmp_path / "target.csv")
    bn_rep.write_csv(tmp_path / "bn.csv")
    target_lines = (tmp_path / "target.csv").read_text().strip().splitlines()
    bn_lines = (tmp_path / "bn.csv").read_text().strip().splitlines()
    finite = all(
        np.isfinite(row.map) and np.isfinite(row.rank1)
        for rep in (target_rep, bn_rep)
        for row in rep.rows
    )
    elapsed = time.perf_counter() - t0
    ok = len(target_lines) == 5 and len(bn_lines) == 7 and finite and elapsed < 600.0
    values = "; ".join(
        f"{row.variant} map {row.map:.3f}" for row in (*target_rep.rows, *bn_rep.rows)
    )
    _report(8, "target-mode and BN-placement ablations", ok,
            f"4 + 6 rows, all metrics finite, {elapsed:.1f}s < 10min; {values}")
    assert len(target_rep.rows) == 4 and len(target_lines) == 5
    assert len(bn_rep.rows) == 6 and len(bn_lines) == 7
    assert finite
    assert elapsed < 600.0


def test_criterion_09_training_sanity_ce_then_ce_plus_cpl():
    t0 = time.perf_counter()
    sgd = SgdConfig(base_lr=0.01, milestones=(10, 20), decay_factor=0.1, epochs=30, momentum=0.9)
    sampler = PKSamplerConfig(p=2, k=8)
    ce_cfg = ExperimentConfig(
        kind="train",
        model=ModelConfig(extractor_hidden=(16,), embedding_dim=4, predictor="none", bn_target=False),
        loss=LossConfig(weights={"ce": 1.0}),
        sgd=sgd,
        sampler=sampler,
        eval_every=0,
    )
    # the joint run normalizes both predictions and targets; that keeps the
    # prediction term's scale bounded so it cannot crush the 4 clusters
    joint_cfg = replace(
        ce_cfg,
        model=ModelConfig(
            extractor_hidden=(16,), embedding_dim=4, predictor="mlp",
            bn_target=True, bn_predictor_hidden=True, bn_predictor_output=True,
        ),
        loss=LossConfig(weights={"ce": 1.0, "cpl": 1.0}),
    )
    ce_ok = joint_ok = decreased = 0
    for seed in range(10):
        ds = four_class_fixture(seed=subseed(seed, "dataset"))
        state, _, _ = train_run(ds, replace(ce_cfg, seed=seed))
        ce_ok += train_accuracy(state, ds) >= 0.95
        state2, timeline, _ = train_run(ds, replace(joint_cfg, seed=seed))
        joint_ok += train_accuracy(state2, ds) >= 0.95
        # epoch means smooth out batch-order noise in the step-level series
        first = np.mean([r.parts["cpl"] for r in timeline if r.epoch == 0])
        last = np.mean([r.parts["cpl"] for r in timeline if r.epoch == sgd.epochs - 1])
        decreased += last < first
    elapsed = time.perf_counter() - t0
    ok = ce_ok == 10 and joint_ok == 10 and decreased >= 8 and elapsed < 120.0
    _report(9, "4-class sanity: ce alone and ce+prediction loss", ok,
            f"ce >=95% {ce_ok}/10, joint >=95% {joint_ok}/10, prediction part fell {decreased}/10 (need >=8), "
            f"{elapsed:.1f}s < 2min")
    assert ce_ok == 10
    assert joint_ok == 10
    assert decreased >= 8
    assert elapsed < 120.0


def test_criterion_10_rerun_from_resolved_config_is_byte_identical(tmp_path):
    recipes = {
        "train": "kind = train\nseed = 3\nsgd.base_lr = 0.005\nsgd.epochs = 4\nsgd.milestones = 2\neval.every = 2\n",
        "surface": "kind = surface\nseed = 1\nrefit.steps = 50\n",
        "boundary": (
            "kind = boundary\nseed = 2\nsgd.base_lr = 0.01\nsgd.epochs = 6\nsgd.milestones = 4\n"
            "model.bn_target = false\nmodel.embedding_dim = 2\nsampler.p = 3\nsampler.k = 8\nrefit.steps = 80\neval.every = 0\n"
        ),
        "ablation-target": (
            "kind = ablation-target\nloss.triplet.weight = 1.0\nsgd.base_lr = 0.001\n"
            "sgd.milestones = 3,4\nsgd.epochs = 5\n"
        ),
    }
    compared = 0
    for name, text in recipes.items():
        first = tmp_path / name / "a"
        cfg = replace(parse_config(text), out=str(first))
        dispatch(cfg)
        resolved = parse_config((first / "config.resolved").read_text())
        second = tmp_path / name / "b"
        dispatch(replace(resolved, out=str(second)))
        csvs = sorted(p.relative_to(first) for p in first.rglob("*.csv"))
        assert csvs, f"{name} wrote no CSVs"
        assert csvs == sorted(p.relative_to(second) for p in second.rglob("*.csv"))
        for rel in csvs:
            assert (first / rel).read_bytes() == (second / rel).read_bytes(), f"{name}/{rel} differs"
            compared += 1
    _report(10, "rerun from resolved config reproduces CSVs", True,
            f"{compared} CSV files byte-identical across {len(recipes)} experiment kinds")
