"""Edge-value fuzz of every config key through `main`.

A case takes one of five small per-kind base configs and sets 1-4 of its
keys to edge values of their codec. The table derives from
`config.SCHEMA`: a key's codec is the type of its default, so a new key of
an existing type is fuzzed without an edit. Whatever the values, `main`
exits 0, 2, 3 or 4 and raises no warning. A failure prints exactly one
JSON line on stderr, whose `error` matches the exit code, and a success
prints nothing there. Every number in a success's `summary.json` is
finite. `scripts/keyfuzz.py --examples N` runs more cases from the same
generator.
"""

import contextlib
import io
import itertools
import json
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from metriclab.cli import main
from metriclab.config import DATASET_SOURCES, KINDS, SCHEMA, SURFACE_LOSSES, ExperimentConfig
from metriclab.losses import TARGET_MODES
from metriclab.synthetic import FIXTURES

# kind -> {key: value text}: small enough that a case that runs takes well under a second
BASES = {
    "train": {"kind": "train", "sgd.epochs": "2", "sgd.milestones": "1", "eval.every": "1"},
    "surface": {"kind": "surface", "refit.steps": "5"},
    "boundary": {
        "kind": "boundary",
        "model.embedding_dim": "2",
        "model.bn_target": "false",
        "sgd.base_lr": "0.01",
        "sgd.epochs": "2",
        "sgd.milestones": "",
        "sampler.p": "3",
        "sampler.k": "8",
        "refit.steps": "5",
        "eval.every": "0",
    },
    "ablation-target": {"kind": "ablation-target", "sgd.epochs": "1", "sgd.milestones": ""},
    "ablation-bn": {"kind": "ablation-bn", "sgd.epochs": "1", "sgd.milestones": ""},
}

# codec (the type of a key's default) -> edge values as config text
CODEC_EDGES = {
    bool: ("true", "false"),
    int: ("0", "1", "-1", "2", "3", "5", str(2**62)),
    float: ("0.0", "-1.0", "5e-324", "1e-300", "1e10", "1e300"),
    tuple: ("", "0", "1", "1,1,1"),
}
# a str key's values: the empty string and every value it allows; `{dir}` is the case's directory
STR_EDGES = {
    "kind": ("", *KINDS),
    "out": ("", "{dir}/nested/run"),
    "dataset.source": ("", *DATASET_SOURCES),
    "dataset.fixture": ("", *FIXTURES),
    "dataset.path": ("", "{dir}/missing.csv", "{dir}/data.csv"),
    "model.predictor": ("", "mlp", "none"),
    "loss.cpl.target": ("", *TARGET_MODES),
    "surface.loss": ("", *SURFACE_LOSSES),
}
# 2^62 epochs or refit steps is a long run, not a hole
ITERATION_KEYS = ("sgd.epochs", "refit.steps")
# three 2-D classes of 8: what `{dir}/data.csv` holds
DATA_CSV = "f0,f1,label\n" + "".join(
    f"{c * 3 + i % 3 * 0.5},{i * 0.25 - c},{c}\n" for c in range(3) for i in range(8)
)
ERRORS = {2: "config", 3: "numeric", 4: "io"}


def _codec(key: str) -> type:
    return type(SCHEMA[key].get(ExperimentConfig(kind="train")))


def edge_values(key: str) -> tuple:
    if _codec(key) is str:
        return STR_EDGES[key]
    values = CODEC_EDGES[_codec(key)]
    return tuple(v for v in values if v != str(2**62)) if key in ITERATION_KEYS else values


# (kind of the base, {key: value text}) with 1-4 keys
cases = st.tuples(
    st.sampled_from(tuple(BASES)),
    st.lists(st.sampled_from(tuple(SCHEMA)), min_size=1, max_size=4, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({key: st.sampled_from(edge_values(key)) for key in keys})
    ),
)


def _non_finite(value) -> list:
    """The non-finite numbers anywhere in a parsed JSON value."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in _non_finite(v)]
    if isinstance(value, list):
        return [x for v in value for x in _non_finite(v)]
    return [value] if isinstance(value, float) and not math.isfinite(value) else []


def run_case(kind: str, keys: dict, workdir: Path) -> tuple:
    """(exit code, problems) of one case run in workdir, an empty directory.

    The problems list what broke the exit contract; an exception out of
    `main` is one, with code None.
    """
    (workdir / "data.csv").write_text(DATA_CSV)
    values = {**BASES[kind], "out": "{dir}/run", **keys}
    values = {key: value.format(dir=workdir) for key, value in values.items()}
    config = workdir / "case.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["run", str(config)])
        except Exception as exc:
            return None, [f"main raised {type(exc).__name__}: {exc}"]
    problems = [f"warning: {w.category.__name__}: {w.message}" for w in caught]
    out, err = stdout.getvalue(), stderr.getvalue()
    if code == 0:
        if err:
            problems.append(f"success wrote to stderr: {err!r}")
        summary = json.loads((Path(values["out"]) / "summary.json").read_text())
        if _non_finite(summary):
            problems.append(f"summary.json holds {_non_finite(summary)}")
    elif code in ERRORS:
        lines = err.splitlines()
        if len(lines) != 1 or json.loads(lines[0]).get("error") != ERRORS[code] or out:
            problems.append(f"exit {code} with stdout {out!r} and stderr {err!r}")
    else:
        problems.append(f"exit {code}")
    return code, problems


def test_every_str_key_has_edge_values():
    assert {key for key in SCHEMA if _codec(key) is str} == set(STR_EDGES)
    assert all(_codec(key) in (*CODEC_EDGES, str) for key in SCHEMA)


def test_data_csv_loads_as_three_plane_classes(tmp_path):
    code, problems = run_case("boundary", {"dataset.source": "csv", "dataset.path": "{dir}/data.csv"}, tmp_path)
    assert (code, problems) == (0, [])


@pytest.fixture(scope="module")
def workdirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("keyfuzz")
    return (root / f"case{i}" for i in itertools.count())


@seed(0)
@settings(max_examples=400, deadline=None, database=None)
@given(case=cases)
def test_edge_values_keep_the_exit_contract(workdirs, case):
    workdir = next(workdirs)
    workdir.mkdir()
    kind, keys = case
    _, problems = run_case(kind, keys, workdir)
    assert problems == [], (kind, keys)
