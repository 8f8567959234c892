"""Every checked-in experiment config reproduces its checked-in outputs.

Each `scripts/configs/*.cfg` runs through `parse_config` and `dispatch`
from inside a temporary directory, so its relative `out = runs/<name>` lands
there, and every file it writes must be byte-identical to the one under the
repository's `runs/<name>/`: CSVs, resolved configs, checkpoints and
`summary.json` alike. Rerun determinism (criterion 10) compares a run with
itself; this compares it with the reference outputs, so any last-bit change
in training shows up here. The outputs are byte-identical only on the
numerics platform that made them, so a failure names `runs/PLATFORM` and
this machine's platform side by side.
"""

from pathlib import Path

import pytest

from metriclab.cli import dispatch
from metriclab.config import parse_config
from metriclab.machine import platform_record

REPO = Path(__file__).resolve().parents[1]
CONFIGS = sorted((REPO / "scripts" / "configs").glob("*.cfg"))


def _files(root: Path) -> list:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def test_every_config_has_reference_outputs():
    assert len(CONFIGS) == 7
    for cfg_path in CONFIGS:
        assert (REPO / parse_config(cfg_path.read_text()).out).is_dir(), cfg_path.name


@pytest.mark.parametrize("cfg_path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_config_reproduces_reference_outputs_byte_for_byte(cfg_path, tmp_path, monkeypatch):
    cfg = parse_config(cfg_path.read_text())
    monkeypatch.chdir(tmp_path)
    dispatch(cfg)
    ref, got = REPO / cfg.out, tmp_path / cfg.out
    assert _files(got) == _files(ref)
    differ = [name for name in _files(ref) if (got / name).read_bytes() != (ref / name).read_bytes()]
    assert not differ, (
        f"{cfg.out}: differs from the checked-in file: {', '.join(differ)}\n"
        f"runs/ was made on:\n{(REPO / 'runs' / 'PLATFORM').read_text()}"
        f"this machine is:\n{platform_record()}"
    )
