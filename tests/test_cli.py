import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from metriclab import cli, config
from metriclab.cli import _write_summary, main
from metriclab.config import parse_config
from metriclab.errors import NumericsError
from metriclab.sampling import LabeledDataset, load_dataset_csv, save_dataset_csv
from test_config_fuzz import BASES

TRAIN_CFG = """\
kind = train
seed = 3
sgd.base_lr = 0.005
sgd.epochs = 4
sgd.milestones = 2
eval.every = 2
"""


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_one_config_error_line(code, out, err):
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "config"


def test_run_train_writes_artifacts_and_summary(tmp_path, capsys):
    cfg = _write(tmp_path, TRAIN_CFG + f"out = {tmp_path / 'run'}\n")
    code, out, _ = _run(capsys, "run", str(cfg))
    assert code == 0
    run_dir = tmp_path / "run"
    for name in ("config.resolved", "timeline.csv", "summary.json"):
        assert (run_dir / name).exists()
    # eval.every = 2 over 4 epochs snapshots epochs 1 and 3
    assert (run_dir / "checkpoint_epoch0001.txt").exists()
    assert (run_dir / "checkpoint_epoch0003.txt").exists()
    summary = json.loads(out)
    assert summary == json.loads((run_dir / "summary.json").read_text())
    assert summary["kind"] == "train" and summary["seed"] == 3
    assert 0.0 <= summary["train_accuracy"] <= 1.0


def test_run_overrides_land_in_resolved_config(tmp_path, capsys):
    cfg = _write(tmp_path, TRAIN_CFG)
    out_dir = tmp_path / "elsewhere"
    code, out, _ = _run(capsys, "run", str(cfg), "--seed", "9", "--out", str(out_dir))
    assert code == 0
    resolved = (out_dir / "config.resolved").read_text()
    assert "seed = 9" in resolved
    assert f"out = {out_dir}" in resolved
    assert json.loads(out)["seed"] == 9


def test_rerun_from_resolved_config_is_byte_identical(tmp_path, capsys):
    cfg = _write(tmp_path, TRAIN_CFG + f"out = {tmp_path / 'a'}\n")
    assert _run(capsys, "run", str(cfg))[0] == 0
    resolved = tmp_path / "a" / "config.resolved"
    assert _run(capsys, "run", str(resolved), "--out", str(tmp_path / "b"))[0] == 0
    a = (tmp_path / "a" / "timeline.csv").read_bytes()
    b = (tmp_path / "b" / "timeline.csv").read_bytes()
    assert a == b


def test_run_refuses_nonempty_out_without_force(tmp_path, capsys):
    out_dir = tmp_path / "run"
    cfg = _write(tmp_path, TRAIN_CFG + f"out = {out_dir}\n")
    assert _run(capsys, "run", str(cfg))[0] == 0
    code, _, err = _run(capsys, "run", str(cfg))
    assert code == 4
    record = json.loads(err)
    assert record["error"] == "io" and "--force" in record["message"]
    assert _run(capsys, "run", str(cfg), "--force")[0] == 0


def test_run_missing_out_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, TRAIN_CFG)
    code, _, err = _run(capsys, "run", str(cfg))
    assert code == 2
    assert json.loads(err)["error"] == "config"


def test_run_invalid_config_exits_2_with_json_error(tmp_path, capsys):
    cfg = _write(tmp_path, "kind = train\nloss.rll.alpha = 0.3\nloss.rll.margin = 0.4\n")
    code, _, err = _run(capsys, "run", str(cfg))
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "config"
    assert "loss.rll.alpha" in record["message"]


@pytest.mark.parametrize(
    "kind, text, key",
    [
        ("train", "dataset.source = hdf5\n", "dataset.source"),
        ("train", "model.predictor = none\nmodel.bn_predictor_hidden = true\n", "model.bn_predictor_hidden"),
        ("train", "loss.circle.scale = 0\n", "loss.circle.scale"),
        ("train", "sgd.momentum = 1.0\n", "sgd.momentum"),
        ("train", "sampler.p = 1\n", "sampler.p"),
        # the default sampler.p = 4 fails in training on the 3-class fixture,
        # so this key's message shows the check runs before training
        ("boundary", "model.embedding_dim = 5\n", "model.embedding_dim"),
        # with CPL off, no row of either ablation differs but for its seed
        ("ablation-target", "loss.cpl.weight = 0\n", "loss.cpl.weight"),
        ("ablation-bn", "loss.cpl.weight = 0\n", "loss.cpl.weight"),
        # the refit predictor's identity init on the plane needs hidden >= 4
        ("surface", "model.predictor_hidden = 3\n", "model.predictor_hidden"),
        ("boundary", "model.predictor_hidden = 3\n", "model.predictor_hidden"),
        # every width is at least 1, with or without a predictor
        ("train", "model.extractor_hidden = 32,0\n", "model.extractor_hidden"),
        ("train", "model.predictor_hidden = 0\n", "model.predictor_hidden"),
        ("train", "model.predictor = none\nmodel.predictor_hidden = 0\n", "model.predictor_hidden"),
        # the train fixture's 4 identities over p = 3 leave one alone, with no negative, in each epoch's last batch
        ("train", "sampler.p = 3\nloss.triplet.weight = 1\n", "sampler.p"),
        ("train", "sampler.p = 3\nloss.circle.weight = 1\n", "sampler.p"),
        ("train", "sampler.p = 3\nloss.lifted.weight = 1\n", "sampler.p"),
        # p above the identity count: the retrieval split trains on 16, the boundary fixture has 3
        ("ablation-bn", "sampler.p = 17\n", "sampler.p"),
        ("boundary", "model.embedding_dim = 2\n", "sampler.p"),
        # checked as the config parses, before a missing CSV could fail to load (exit 4)
        ("boundary", "model.embedding_dim = 5\ndataset.source = csv\ndataset.path = missing.csv\n", "model.embedding_dim"),
        ("surface", "surface.loss = triplet\n", "surface.loss"),
    ],
    ids=[
        "dataset",
        "model",
        "loss",
        "sgd",
        "sampler",
        "boundary-embedding-dim",
        "ablation-target-without-cpl",
        "ablation-bn-without-cpl",
        "surface-predictor-hidden",
        "boundary-predictor-hidden",
        "extractor-width",
        "predictor-width",
        "predictor-width-without-predictor",
        "lone-identity-triplet",
        "lone-identity-circle",
        "lone-identity-lifted",
        "ablation-p-above-identities",
        "boundary-p-above-identities",
        "boundary-before-its-csv-loads",
        "surface-unknown-loss",
    ],
)
def test_section_error_message_starts_with_its_key(kind, text, key, tmp_path, capsys):
    cfg = _write(tmp_path, f"kind = {kind}\n{text}out = {tmp_path / 'run'}\n")
    code, out, err = _run(capsys, "run", str(cfg))
    _assert_one_config_error_line(code, out, err)
    assert json.loads(err)["message"].startswith(key)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "text, header",
    [
        ("model.predictor = none\n", "epoch,step,lr,ce,cpl,total"),
        ("loss.cpl.weight = 0\n", "epoch,step,lr,ce,total"),
    ],
    ids=["without-predictor", "without-cpl"],
)
def test_boundary_trains_the_loss_mix_its_config_names(text, header, tmp_path, capsys):
    # the profile refits a predictor of its own, so the trained one and CPL are optional
    base = "".join(f"{key} = {value}\n" for key, value in BASES["boundary"].items())
    cfg = _write(tmp_path, base + text + f"out = {tmp_path / 'run'}\n")
    assert _run(capsys, "run", str(cfg))[0] == 0
    assert (tmp_path / "run" / "surface.csv").exists()
    assert (tmp_path / "run" / "timeline.csv").read_text().splitlines()[0] == header


def test_a_lone_identity_in_the_last_batch_trains_the_ranked_list_loss(tmp_path, capsys):
    text = "sampler.p = 3\nloss.ce.weight = 0\nloss.cpl.weight = 0\nloss.rll.weight = 1\n"
    cfg = _write(tmp_path, TRAIN_CFG + text + f"out = {tmp_path / 'run'}\n")
    assert _run(capsys, "run", str(cfg))[0] == 0


def test_every_kind_has_one_dispatch_route():
    assert set(cli._DISPATCH) == set(config.KINDS)


def test_run_undecodable_config_exits_2_with_one_json_line(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"kind = train\n# \x80\n")
    code, out, err = _run(capsys, "run", str(cfg))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "config"
    assert str(cfg) in record["message"]


# two 2-D classes of three points: squared errors overflow at 1e200, class sums at 1.6e308
LARGE_CSV = (
    "f0,f1,label\n1e200,2e200,0\n-1e200,3e200,0\n2e200,-1e200,0\n"
    "1e200,1e200,1\n-3e200,2e200,1\n2e200,2e200,1\n"
)
EXTREME_CSV = (
    "f0,f1,label\n1.6e308,1.6e308,0\n1.6e308,-1.6e308,0\n1.6e308,1.6e308,0\n"
    "-1.6e308,1.6e308,1\n-1.6e308,-1.6e308,1\n-1.6e308,1.6e308,1\n"
)

# class 0's squared errors (1.44e308 each) are finite, but their sum overflows
CLASS_MEAN_OVERFLOW_CSV = "f0,f1,label\n1.2e154,0,0\n-1.2e154,0,0\n1,0,1\n2,0,1\n"

# two classes at one point: every refit error is 0, so the boundary ratio is 0/0
IDENTICAL_CSV = "f0,f1,label\n1,2,0\n1,2,0\n1,2,1\n1,2,1\n"
LOSS_SUM_CFG = "kind = train\nsgd.epochs = 2\nsgd.milestones = 1\n"
BOUNDARY_ZERO_CFG = (
    "kind = boundary\nmodel.embedding_dim = 2\nsampler.p = 2\nsgd.epochs = 1\nsgd.milestones =\nrefit.steps = 2\n"
)
BOUNDARY_CFG = (
    "kind = boundary\nsgd.base_lr = 0.01\nsgd.epochs = 2\nsgd.milestones =\nmodel.bn_target = false\n"
    "model.embedding_dim = 2\nsampler.p = 3\nsampler.k = 8\nrefit.steps = 5\neval.every = 0\n"
)
ABLATION_HUGE_RLL_CFG = (
    "kind = ablation-target\nloss.triplet.weight = 1.0\nsgd.epochs = 1\nsgd.milestones =\n"
    "loss.rll.weight = 1e10\nmodel.bn_predictor_hidden = true\nloss.ce.weight = 0\n"
)


@pytest.mark.parametrize(
    "text, data, message",
    [
        ("kind = train\nsgd.base_lr = 1e9\nsgd.epochs = 4\nsgd.milestones = 1\n", None, "batchnorm:"),
        ("kind = train\nsgd.base_lr = 1.7e308\nsgd.epochs = 3\nsgd.milestones = 1,2\n", None, "Linear.forward:"),
        ("kind = surface\nsurface.loss = center\n", LARGE_CSV, "cpl_errors:"),
        ("kind = surface\nsurface.loss = center\n", EXTREME_CSV, "cpl_targets:"),
        ("kind = surface\nsurface.loss = cpl\n", EXTREME_CSV, "cpl_targets:"),
        (BOUNDARY_ZERO_CFG, IDENTICAL_CSV, "boundary_ratio:"),
        ("kind = surface\nsurface.loss = center\n", CLASS_MEAN_OVERFLOW_CSV, "class_mean_error: class 0"),
        # every anchor's hinge is finite, but their sum overflows
        (LOSS_SUM_CFG + "loss.triplet.weight = 1\nloss.triplet.margin = 1e308\n", None, "triplet_loss_batch_hard:"),
        (LOSS_SUM_CFG + "loss.rll.weight = 1\nloss.rll.alpha = 1e308\n", None, "ranked_list_loss:"),
        # embeddings so large that their squares overflow in the norm
        (BOUNDARY_CFG + "loss.cpl.weight = 1e10\n", None, "l2_normalize:"),
        (ABLATION_HUGE_RLL_CFG, None, "l2_normalize:"),
    ],
    ids=[
        "divergence",
        "sgd-update-overflow",
        "center-errors-overflow",
        "center-targets-overflow",
        "cpl-targets-overflow",
        "boundary-ratio-zero-over-zero",
        "center-class-mean-overflow",
        "triplet-sum-overflow",
        "rll-sum-overflow",
        "boundary-embedding-norm-overflow",
        "ablation-embedding-norm-overflow",
    ],
)
def test_numeric_failure_exits_3_with_one_json_line(tmp_path, capsys, text, data, message):
    if data is not None:
        (tmp_path / "data.csv").write_text(data)
        text += f"dataset.source = csv\ndataset.path = {tmp_path / 'data.csv'}\n"
    cfg = _write(tmp_path, text + f"out = {tmp_path / 'run'}\n")
    code, out, err = _run(capsys, "run", str(cfg))
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "numeric"
    assert record["message"].startswith(message)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_summary_writer_refuses_a_value_that_is_not_json(tmp_path, value):
    with pytest.raises(NumericsError, match="summary.json:"):
        _write_summary(tmp_path, {"kind": "surface", "e": value})
    assert not (tmp_path / "summary.json").exists()


def test_center_surface_takes_a_one_sample_class_and_cpl_refuses_it(tmp_path, capsys):
    # the class mean of one sample is that sample; CPL needs another to predict
    (tmp_path / "data.csv").write_text("f0,f1,label\n0.0,0.0,0\n1.0,2.0,0\n5.0,5.0,1\n")
    data = f"dataset.source = csv\ndataset.path = {tmp_path / 'data.csv'}\n"
    cfg = _write(tmp_path, f"kind = surface\nsurface.loss = center\n{data}out = {tmp_path / 'run'}\n")
    assert _run(capsys, "run", str(cfg))[0] == 0
    rows = [line.split(",") for line in (tmp_path / "run" / "surface.csv").read_text().splitlines()[1:]]
    assert [(label, float(e)) for _, _, label, e, _ in rows] == [("0", 1.25), ("0", 1.25), ("1", 0.0)]
    cfg = _write(tmp_path, f"kind = surface\nsurface.loss = cpl\n{data}out = {tmp_path / 'run2'}\n")
    _assert_one_config_error_line(*_run(capsys, "run", str(cfg)))


def test_numeric_failure_names_the_op(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        TRAIN_CFG.replace("sgd.base_lr = 0.005", "sgd.base_lr = 1e6")
        + f"model.bn_target = false\nout = {tmp_path / 'run'}\n",
    )
    code, _, err = _run(capsys, "run", str(cfg))
    assert code == 3
    assert len(err.splitlines()) == 1
    record = json.loads(err)
    assert record["error"] == "numeric"
    assert record["message"] == "Linear.forward: operation produced non-finite entries"


def test_numeric_failure_line_carries_epoch_step_and_lr(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        TRAIN_CFG.replace("sgd.base_lr = 0.005", "sgd.base_lr = 1e6")
        + f"model.bn_target = false\nout = {tmp_path / 'run'}\n",
    )
    code, out, err = _run(capsys, "run", str(cfg))
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "numeric"
    # one batch per epoch, lr x 0.1 from epoch 2: the third step's row would read 2, 3, 1e5
    assert {k: record[k] for k in ("epoch", "step", "lr")} == {"epoch": 2, "step": 3, "lr": 1e5}
    # the ce part was built; the predictor's forward for the cpl part failed
    assert list(record["parts"]) == ["ce"]


def test_run_boundary_writes_surface_timeline_and_config(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "kind = boundary\nseed = 2\nsgd.base_lr = 0.01\nsgd.epochs = 6\n"
        "sgd.milestones = 4\nmodel.bn_target = false\nmodel.embedding_dim = 2\nsampler.p = 3\nsampler.k = 8\n"
        f"refit.steps = 80\neval.every = 0\nout = {tmp_path / 'run'}\n",
    )
    code, out, _ = _run(capsys, "run", str(cfg))
    assert code == 0
    run_dir = tmp_path / "run"
    for name in ("surface.csv", "timeline.csv", "config.resolved"):
        assert (run_dir / name).exists()
    summary = json.loads(out)
    assert summary["boundary_ratio"] > 0
    assert (run_dir / "surface.csv").read_text().splitlines()[0] == "x,y,label,e,boundary"


def test_run_ablation_target_report_has_four_rows(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "kind = ablation-target\nloss.triplet.weight = 1.0\nsgd.base_lr = 0.001\n"
        f"sgd.milestones = 3,4\nsgd.epochs = 5\nout = {tmp_path / 'run'}\n",
    )
    code, out, _ = _run(capsys, "run", str(cfg))
    assert code == 0
    lines = (tmp_path / "run" / "report.csv").read_text().splitlines()
    assert lines[0] == "variant,map,rank1,config_hash"
    assert len(lines) == 5
    summary = json.loads(out)
    assert [r["variant"] for r in summary["rows"]] == [
        "random-point",
        "farthest-point",
        "sample-mean",
        "leave-one-out-mean",
    ]
    for row in summary["rows"]:
        assert (tmp_path / "run" / "configs" / f"{row['variant']}.resolved").exists()


def test_run_surface_both_writes_two_csvs(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        f"kind = surface\nseed = 1\nrefit.steps = 50\nout = {tmp_path / 'run'}\n",
    )
    code, out, _ = _run(capsys, "run", str(cfg))
    assert code == 0
    assert (tmp_path / "run" / "surface_center.csv").exists()
    assert (tmp_path / "run" / "surface_cpl.csv").exists()
    summary = json.loads(out)
    assert set(summary["center"]) == {"class0_mean_e", "class1_mean_e"}


def test_run_surface_single_loss_writes_one_csv(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "kind = surface\nsurface.loss = center\n"
        f"out = {tmp_path / 'run'}\n",
    )
    code, _, _ = _run(capsys, "run", str(cfg))
    assert code == 0
    assert (tmp_path / "run" / "surface.csv").exists()
    assert not (tmp_path / "run" / "surface_center.csv").exists()


def test_gradcheck_command_exit_codes(capsys):
    code, out, _ = _run(capsys, "gradcheck", "--batches", "1")
    assert code == 0
    assert "16/16 cases" in out
    code, out, _ = _run(capsys, "gradcheck", "--batches", "1", "--tolerance", "1e-15")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("--batches", "0"),
        ("--batches", "-2"),
        ("--tolerance", "nan"),
        ("--tolerance", "-1"),
        ("--tolerance", "inf"),
        ("--tolerance", "0"),
    ],
    ids=[
        "no-batches",
        "negative-batches",
        "nan-tolerance",
        "negative-tolerance",
        "inf-tolerance",
        "zero-tolerance",
    ],
)
def test_gradcheck_that_would_check_nothing_exits_2(capsys, argv):
    _assert_one_config_error_line(*_run(capsys, "gradcheck", *argv))


def test_export_fixture_round_trips(tmp_path, capsys):
    dest = tmp_path / "bimodal.csv"
    code, out, _ = _run(capsys, "export-fixture", "bimodal", "--out", str(dest), "--seed", "7")
    assert code == 0
    record = json.loads(out)
    assert record["n"] == 1500 and record["dim"] == 2
    ds = load_dataset_csv(dest)
    assert ds.n == 1500 and ds.dim == 2
    assert np.all(np.isfinite(ds.features))
    # exactly the data a run of that fixture at that seed loads
    cfg = parse_config("kind = surface\ndataset.fixture = bimodal\nseed = 7\n")
    run_ds = cfg.dataset.load(cfg.seed)
    assert np.array_equal(ds.features, run_ds.features) and np.array_equal(ds.labels, run_ds.labels)

    code, _, err = _run(capsys, "export-fixture", "bimodal", "--out", str(dest))
    assert code == 4
    assert "--force" in json.loads(err)["message"]
    assert _run(capsys, "export-fixture", "bimodal", "--out", str(dest), "--force")[0] == 0


def test_export_fixture_rejects_unknown_name(tmp_path, capsys):
    _assert_one_config_error_line(
        *_run(capsys, "export-fixture", "nonexistent", "--out", str(tmp_path / "x.csv"))
    )
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "exp.cfg", "--seed", "abc"],
        ["run", "exp.cfg", "--seed", "10000000000000000000"],
        ["run"],
        ["bogus"],
        ["gradcheck", "--batches", "x"],
        ["export-fixture", "nonexistent"],
    ],
    ids=["bad-seed", "int64-seed", "no-config", "unknown-command", "bad-batches", "unknown-fixture"],
)
def test_usage_errors_exit_2_with_one_json_line(capsys, argv):
    _assert_one_config_error_line(*_run(capsys, *argv))


def test_int_outside_int64_in_config_exits_2(tmp_path, capsys):
    big = "model.predictor_hidden = 10000000000000000000\n"
    cfg = _write(tmp_path, TRAIN_CFG + big + f"out = {tmp_path / 'run'}\n")
    code, out, err = _run(capsys, "run", str(cfg))
    _assert_one_config_error_line(code, out, err)
    assert "model.predictor_hidden" in json.loads(err)["message"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("kind", ["train", "surface"])
def test_unknown_cpl_target_exits_2_before_any_output(kind, tmp_path, capsys):
    # a surface run never builds CPL targets, so only the parse can reject it
    cfg = _write(tmp_path, f"kind = {kind}\nloss.cpl.target = median\nout = {tmp_path / 'run'}\n")
    code, out, err = _run(capsys, "run", str(cfg))
    _assert_one_config_error_line(code, out, err)
    assert "loss.cpl.target" in json.loads(err)["message"]
    assert not (tmp_path / "run").exists()


# inside int64, but each array numpy would build from it is too big to index,
# so numpy refuses before any memory is touched
@pytest.mark.parametrize(
    "key, message",
    [
        ("model.predictor_hidden", "linear: cannot allocate a 9000000000000000000 x 8 weight matrix"),
        ("model.embedding_dim", "linear: cannot allocate a 9000000000000000000 x 32 weight matrix"),
        ("model.extractor_hidden", "linear: cannot allocate a 9000000000000000000 x 2 weight matrix"),
        ("sampler.k", "sampler.k: cannot allocate a batch of 9000000000000000000 instances per identity"),
    ],
)
def test_size_numpy_cannot_allocate_exits_2(key, message, tmp_path, capsys):
    cfg = _write(tmp_path, TRAIN_CFG + f"{key} = 9000000000000000000\nout = {tmp_path / 'run'}\n")
    code, out, err = _run(capsys, "run", str(cfg))
    _assert_one_config_error_line(code, out, err)
    assert json.loads(err)["message"] == message
    assert not (tmp_path / "run").exists()


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: metriclab run")


CSV_HEAD = "f0,f1,label\n0.5,0.5,0\n"


@pytest.mark.parametrize(
    "text, expected",
    [
        (CSV_HEAD + "1.0,abc,0\n", ("line 3", "abc")),
        (CSV_HEAD + "1.0,2.0,1.5\n", ("line 3", "1.5")),
        (CSV_HEAD + "1.0,nan,0\n", ("line 3", "non-finite")),
        ("f0,f1\n0.5,0.5\n", ("label column",)),
        (CSV_HEAD + "1.0,0\n", ("line 3", "2 fields")),
        ("", ("label column",)),
        (CSV_HEAD + "1.0,2.0,\xff\n", ("utf-8", "decode")),
        (CSV_HEAD + '"' + "1" * 131073 + '",2.0,0\n', ("field larger than field limit",)),
        (CSV_HEAD + "1.0,2.0,99999999999999999999\n", ("line 3", "too large")),
        ("label\n0\n1\n", ("feature columns",)),
    ],
    ids=[
        "non-numeric-feature",
        "non-integer-label",
        "nan-feature",
        "missing-label-column",
        "wrong-field-count",
        "empty-file",
        "undecodable-byte",
        "oversized-field",
        "label-overflows-int64",
        "no-feature-column",
    ],
)
def test_run_bad_dataset_csv_exits_4_with_one_json_line(tmp_path, capsys, text, expected):
    data = tmp_path / "data.csv"
    data.write_bytes(text.encode("latin-1"))  # one byte per character, so "\xff" is the byte 0xff
    cfg = _write(
        tmp_path, f"kind = train\ndataset.source = csv\ndataset.path = {data}\nout = {tmp_path / 'run'}\n"
    )
    code, out, err = _run(capsys, "run", str(cfg))
    assert code == 4 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "io"
    for what in expected:
        assert what in record["message"]
    assert not (tmp_path / "run").exists()


def test_run_refused_for_its_data_reruns_without_force_once_fixed(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert _run(capsys, "export-fixture", "four-class", "--out", str(data))[0] == 0
    good = data.read_text()
    bad = good.splitlines()
    bad[1] = "abc," + bad[1].split(",", 1)[1]
    data.write_text("\n".join(bad) + "\n")
    out_dir = tmp_path / "run"
    cfg = _write(tmp_path, TRAIN_CFG + f"dataset.source = csv\ndataset.path = {data}\nout = {out_dir}\n")
    code, _, err = _run(capsys, "run", str(cfg))
    assert code == 4 and "abc" in json.loads(err)["message"]
    assert not out_dir.exists()
    data.write_text(good)
    assert _run(capsys, "run", str(cfg))[0] == 0
    assert (out_dir / "summary.json").exists()


def _export_relabelled(tmp_path, capsys, fixture, ids):
    """The fixture's CSV (labels 0..C-1), and a copy that writes label c as ids[c]."""
    dense, sparse = tmp_path / "dense.csv", tmp_path / "sparse.csv"
    assert _run(capsys, "export-fixture", fixture, "--out", str(dense))[0] == 0
    ds = load_dataset_csv(dense)
    save_dataset_csv(LabeledDataset(ds.features, np.array(ids)[ds.labels]), sparse)
    return dense, sparse


def _run_on_csv(tmp_path, capsys, text, data, name):
    cfg = _write(tmp_path, text + f"dataset.source = csv\ndataset.path = {data}\nout = {tmp_path / name}\n")
    code, out, _ = _run(capsys, "run", str(cfg))
    assert code == 0
    return tmp_path / name, {k: v for k, v in json.loads(out).items() if k != "out"}


def test_a_train_run_without_cpl_builds_no_predictor(tmp_path, capsys):
    # the predictor is drawn last from the init stream, so leaving it out moves nothing else
    base = TRAIN_CFG + "loss.cpl.weight = 0\n"
    for name, extra in (("mlp", ""), ("none", "model.predictor = none\n")):
        cfg = _write(tmp_path, base + extra + f"out = {tmp_path / name}\n", f"{name}.cfg")
        assert _run(capsys, "run", str(cfg))[0] == 0
    for name in ("timeline.csv", "checkpoint_epoch0001.txt", "checkpoint_epoch0003.txt"):
        assert (tmp_path / "mlp" / name).read_bytes() == (tmp_path / "none" / name).read_bytes()
    lines = (tmp_path / "mlp" / "checkpoint_epoch0003.txt").read_text().splitlines()
    matrices = [line.split()[0] for line in lines[1::2]]
    assert matrices and not any(m.startswith("predictor.") for m in matrices)


def test_sparse_labels_train_as_their_dense_relabelling(tmp_path, capsys):
    dense, sparse = _export_relabelled(tmp_path, capsys, "four-class", [0, 2, 3, 4])
    dense_dir, dense_summary = _run_on_csv(tmp_path, capsys, TRAIN_CFG, dense, "dense")
    sparse_dir, sparse_summary = _run_on_csv(tmp_path, capsys, TRAIN_CFG, sparse, "sparse")
    for name in ("checkpoint_epoch0001.txt", "checkpoint_epoch0003.txt", "timeline.csv"):
        assert (sparse_dir / name).read_bytes() == (dense_dir / name).read_bytes()
    assert sparse_summary == dense_summary


def test_sparse_labels_draw_the_boundary_surface_of_their_dense_relabelling(tmp_path, capsys):
    ids = [0, 5, 9]
    dense, sparse = _export_relabelled(tmp_path, capsys, "three-class", ids)
    dense_dir, dense_summary = _run_on_csv(tmp_path, capsys, BOUNDARY_CFG, dense, "dense")
    sparse_dir, sparse_summary = _run_on_csv(tmp_path, capsys, BOUNDARY_CFG, sparse, "sparse")
    dense_rows, sparse_rows = (
        [line.split(",") for line in (d / "surface.csv").read_text().splitlines()] for d in (dense_dir, sparse_dir)
    )
    assert dense_rows[0] == sparse_rows[0] == ["x", "y", "label", "e", "boundary"]
    # every column but the label is equal; the label keeps the CSV's value
    assert [row[:2] + row[3:] for row in sparse_rows] == [row[:2] + row[3:] for row in dense_rows]
    assert [row[2] for row in sparse_rows[1:]] == [str(ids[int(row[2])]) for row in dense_rows[1:]]
    assert sparse_summary == dense_summary


def test_failed_run_removes_the_directory_it_created(tmp_path, capsys):
    # the boundary fixture has 3 identities and the default sampler needs 4;
    # only training finds that, after the output directory exists
    out_dir = tmp_path / "run"
    cfg = _write(tmp_path, f"kind = boundary\nmodel.embedding_dim = 2\nout = {out_dir}\n")
    for _ in range(2):  # the rerun needs no --force
        code, _, err = _run(capsys, "run", str(cfg))
        assert code == 2 and "p=4" in json.loads(err)["message"]
        assert not out_dir.exists()


def test_failed_run_removes_the_parents_it_created(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "kind = boundary\nmodel.embedding_dim = 2\n")  # fails in training, as above
    code, _, err = _run(capsys, "run", str(cfg), "--out", "a/b/c")
    assert code == 2 and "p=4" in json.loads(err)["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def test_failed_forced_run_leaves_an_existing_directory(tmp_path, capsys):
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    (out_dir / "keep.txt").write_text("x\n")
    cfg = _write(tmp_path, f"kind = boundary\nmodel.embedding_dim = 2\nout = {out_dir}\n")
    code, _, _ = _run(capsys, "run", str(cfg), "--force")
    assert code == 2
    assert (out_dir / "keep.txt").read_text() == "x\n"


def test_boundary_run_honours_eval_every(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "kind = boundary\nsgd.base_lr = 0.01\nsgd.epochs = 4\nsgd.milestones =\n"
        "model.bn_target = false\nmodel.embedding_dim = 2\nsampler.p = 3\nsampler.k = 8\n"
        f"refit.steps = 5\neval.every = 2\nout = {tmp_path / 'run'}\n",
    )
    assert _run(capsys, "run", str(cfg))[0] == 0
    written = sorted(p.name for p in (tmp_path / "run").glob("checkpoint_*.txt"))
    assert written == ["checkpoint_epoch0001.txt", "checkpoint_epoch0003.txt"]


def test_ablation_bn_dispatch_loads_the_dataset_once(tmp_path, capsys, monkeypatch):
    from metriclab.synthetic import FIXTURES

    calls = []
    fixture = FIXTURES["retrieval"]

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return fixture(*args, **kwargs)

    monkeypatch.setitem(FIXTURES, "retrieval", counted)
    cfg = _write(
        tmp_path,
        "kind = ablation-bn\nloss.triplet.weight = 1.0\nsgd.base_lr = 0.001\n"
        f"sgd.milestones = 1\nsgd.epochs = 2\nout = {tmp_path / 'run'}\n",
    )
    code, out, _ = _run(capsys, "run", str(cfg))
    assert code == 0
    assert len(json.loads(out)["rows"]) == 6
    assert len(calls) == 1


def test_predictor_hidden_sets_surface_and_boundary_refit_width(tmp_path, capsys, monkeypatch):
    import metriclab.experiments as experiments

    widths = []
    refit = experiments.refit_predictor

    def recorded(features, labels, targets, predictor, **kwargs):
        widths.append(predictor.layers[0].weight.shape[0])
        return refit(features, labels, targets, predictor, **kwargs)

    monkeypatch.setattr(experiments, "refit_predictor", recorded)
    surface = _write(
        tmp_path,
        "kind = surface\nsurface.loss = cpl\nrefit.steps = 5\nmodel.predictor_hidden = 8\n"
        f"out = {tmp_path / 'surface'}\n",
        name="surface.cfg",
    )
    boundary = _write(
        tmp_path,
        "kind = boundary\nsgd.base_lr = 0.01\nsgd.epochs = 2\nsgd.milestones =\n"
        "model.bn_target = false\nmodel.embedding_dim = 2\nmodel.predictor_hidden = 8\nsampler.p = 3\nsampler.k = 8\n"
        f"refit.steps = 5\neval.every = 0\nout = {tmp_path / 'boundary'}\n",
        name="boundary.cfg",
    )
    assert _run(capsys, "run", str(surface))[0] == 0
    assert _run(capsys, "run", str(boundary))[0] == 0
    assert widths == [8, 8]


# numpy 2.x imports numpy.ma lazily, e.g. on the first bare np.unique call,
# which costs a run about 18 ms; no surface, train, ablation-bn, boundary or
# gradcheck run should pay it
NO_MASKED_ARRAYS = """
import json, sys
from metriclab.cli import dispatch
from metriclab.config import parse_config
from metriclab.gradcheck import run_gradcheck

loaded = {}
for name, text in json.loads(sys.argv[1]).items():
    dispatch(parse_config(text))
    loaded[name] = "numpy.ma" in sys.modules
run_gradcheck(batches=1)
loaded["gradcheck"] = "numpy.ma" in sys.modules
print(json.dumps(loaded))
"""


def test_runs_never_import_numpy_ma(tmp_path):
    probe = "import sys, numpy; print('numpy.ma' in sys.modules)"
    if subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True).stdout.strip() != "False":
        pytest.skip("a bare `import numpy` already loads numpy.ma")
    configs = {
        "surface": f"kind = surface\nrefit.steps = 3\nout = {tmp_path / 'surface'}\n",
        "train": f"kind = train\nsgd.epochs = 2\nsgd.milestones = 1\nout = {tmp_path / 'train'}\n",
        "ablation-bn": f"kind = ablation-bn\nsgd.epochs = 1\nsgd.milestones =\nout = {tmp_path / 'bn'}\n",
        "boundary": (
            "kind = boundary\nmodel.embedding_dim = 2\nsampler.p = 3\nsgd.epochs = 2\nsgd.milestones = 1\nrefit.steps = 3\n"
            f"out = {tmp_path / 'boundary'}\n"
        ),
    }
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS, json.dumps(configs)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "surface": False,
        "train": False,
        "ablation-bn": False,
        "boundary": False,
        "gradcheck": False,
    }
