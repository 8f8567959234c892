"""scripts/run_all_experiments.py writes into its own checkout from any
working directory: config arguments resolve against the caller's directory,
and every run, the platform record and the gradcheck report land under the
checkout's runs/."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _load_script(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec = importlib.util.spec_from_file_location("run_all_experiments", REPO / "scripts" / "run_all_experiments.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_every_run_starts_in_the_checkout_from_another_directory(tmp_path, monkeypatch):
    script = _load_script(monkeypatch)
    calls = []

    def record(args, **kwargs):
        calls.append((args, kwargs.get("cwd")))
        return subprocess.CompletedProcess(args, 0, stdout=b"")

    monkeypatch.setattr(script.subprocess, "run", record)
    monkeypatch.chdir(tmp_path)
    assert script.main(["mine.cfg"]) == 0
    assert calls == [([sys.executable, "-m", "metriclab", "run", str(tmp_path / "mine.cfg"), "--force"], REPO)]

    # the no-argument pass, with its two records moved off the tracked files
    for name in ("PLATFORM", "GRADCHECK_REPORT"):
        assert getattr(script, name).is_relative_to(REPO / "runs"), name
        monkeypatch.setattr(script, name, tmp_path / "records" / name)
    calls.clear()
    assert script.main([]) == 0
    assert len(calls) == len(list((REPO / "scripts" / "configs").glob("*.cfg"))) + 1
    assert all(cwd == REPO for _, cwd in calls)
