import json

import numpy as np
import pytest

from metriclab.cli import main
from metriclab.sampling import load_dataset_csv

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
    assert "rll_alpha" in record["message"]


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


def test_run_divergence_exits_3(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "kind = train\nsgd.base_lr = 1e9\nsgd.epochs = 4\nsgd.milestones = 1\n"
        f"out = {tmp_path / 'run'}\n",
    )
    code, _, err = _run(capsys, "run", str(cfg))
    assert code == 3
    assert json.loads(err)["error"] == "numeric"


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


def test_run_boundary_writes_surface_timeline_and_config(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "kind = boundary\nseed = 2\nsgd.base_lr = 0.01\nsgd.epochs = 6\n"
        "sgd.milestones = 4\nmodel.bn_target = false\nsampler.p = 3\nsampler.k = 8\n"
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
    assert "16/16 ops" in out
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
        ["run"],
        ["bogus"],
        ["gradcheck", "--batches", "x"],
        ["export-fixture", "nonexistent"],
    ],
    ids=["bad-seed", "no-config", "unknown-command", "bad-batches", "unknown-fixture"],
)
def test_usage_errors_exit_2_with_one_json_line(capsys, argv):
    _assert_one_config_error_line(*_run(capsys, *argv))


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


def test_failed_run_removes_the_directory_it_created(tmp_path, capsys):
    # the boundary fixture has 3 identities and the default sampler needs 4;
    # only training finds that, after the output directory exists
    out_dir = tmp_path / "run"
    cfg = _write(tmp_path, f"kind = boundary\nout = {out_dir}\n")
    for _ in range(2):  # the rerun needs no --force
        code, _, err = _run(capsys, "run", str(cfg))
        assert code == 2 and "p=4" in json.loads(err)["message"]
        assert not out_dir.exists()


def test_failed_forced_run_leaves_an_existing_directory(tmp_path, capsys):
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    (out_dir / "keep.txt").write_text("x\n")
    cfg = _write(tmp_path, f"kind = boundary\nout = {out_dir}\n")
    code, _, _ = _run(capsys, "run", str(cfg), "--force")
    assert code == 2
    assert (out_dir / "keep.txt").read_text() == "x\n"


def test_boundary_run_honours_eval_every(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "kind = boundary\nsgd.base_lr = 0.01\nsgd.epochs = 4\nsgd.milestones =\n"
        "model.bn_target = false\nsampler.p = 3\nsampler.k = 8\n"
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
        "model.bn_target = false\nmodel.predictor_hidden = 8\nsampler.p = 3\nsampler.k = 8\n"
        f"refit.steps = 5\neval.every = 0\nout = {tmp_path / 'boundary'}\n",
        name="boundary.cfg",
    )
    assert _run(capsys, "run", str(surface))[0] == 0
    assert _run(capsys, "run", str(boundary))[0] == 0
    assert widths == [8, 8]
