"""Every checked-in `runs/*/summary.json` is strict JSON.

Python's json module writes and reads NaN and Infinity by default, but
they are not JSON, so a summary holding one would break other readers.
"""

import json
from pathlib import Path

import pytest

SUMMARIES = sorted((Path(__file__).resolve().parents[1] / "runs").glob("*/summary.json"))


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


def test_seven_summaries_are_checked_in():
    assert len(SUMMARIES) == 7


@pytest.mark.parametrize("path", SUMMARIES, ids=[p.parent.name for p in SUMMARIES])
def test_summary_is_strict_json(path):
    json.loads(path.read_text(), parse_constant=_reject)
