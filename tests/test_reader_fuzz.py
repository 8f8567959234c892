"""Byte-level fuzz of the dataset reader and of the CLI.

A valid dataset CSV gets a few random byte edits (overwrite, insert,
delete); whatever the bytes, `load_dataset_csv` either loads it or raises
DataFormatError. The same
edits on a train config, and on the dataset CSV a fixed config reads, go
through `main`: it exits 0, 2, 3 or 4, and on failure stderr is exactly one
JSON line with `error` and `message`.
"""

import contextlib
import io
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab.cli import main
from metriclab.errors import DataFormatError
from metriclab.sampling import LabeledDataset, load_dataset_csv, save_dataset_csv


@st.composite
def byte_edits(draw, valid: bytes) -> bytes:
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["overwrite", "insert", "delete"]))
        byte = draw(st.integers(0, 255))
        if op == "insert":
            data.insert(pos, byte)
        elif pos < len(data):
            if op == "overwrite":
                data[pos] = byte
            else:
                del data[pos]
    return bytes(data)


DATASET = LabeledDataset(
    np.array([[0.5, 1.5, -2.0, 0.25, 3.0, 1.0], [1.0, 0.0, 2.5, -1.0, 0.5, 4.0]]), np.array([0, 0, 1, 1, 2, 2])
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("readers")
    save_dataset_csv(DATASET, tmp / "dataset.csv")
    return tmp


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_dataset_csv_loads_or_raises_data_format_error(files, data):
    path = files / "dataset.mutated"
    path.write_bytes(data.draw(byte_edits((files / "dataset.csv").read_bytes())))
    try:
        load_dataset_csv(path)
    except DataFormatError:
        pass


# single-digit sizes, so an edited digit keeps the run small
TRAIN_CONFIG = b"""kind = train
seed = 3
model.extractor_hidden = 8
model.embedding_dim = 4
sgd.base_lr = 0.005
sgd.epochs = 2
sgd.milestones = 1
sampler.p = 2
sampler.k = 4
eval.every = 1
"""
CSV_DATASET = LabeledDataset(
    np.array([[0.5, 1.5, -2.0, 0.25, 3.0, 1.0, 2.0, -1.5, 0.0, 4.0, -3.0, 1.25],
              [1.0, 0.0, 2.5, -1.0, 0.5, 4.0, -2.0, 3.5, 1.5, -0.5, 2.0, 0.75]]),
    np.repeat(np.arange(3), 4),
)


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    (tmp / "train.cfg").write_bytes(TRAIN_CONFIG)
    save_dataset_csv(CSV_DATASET, tmp / "dataset.csv")
    (tmp / "csv.cfg").write_text(
        "kind = train\ndataset.source = csv\n"
        f"dataset.path = {tmp / 'dataset.mutated'}\n"
        "sgd.epochs = 2\nsgd.milestones = 1\nsampler.p = 2\nsampler.k = 2\neval.every = 1\n"
    )
    return tmp, itertools.count()


def _main_keeps_exit_contract(cli_files, mutated: Path, valid: Path, config: Path, data):
    tmp, runs = cli_files
    mutated.write_bytes(data.draw(byte_edits(valid.read_bytes())))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["run", str(config), "--out", str(tmp / f"run{next(runs)}")])
    assert code in (0, 2, 3, 4)
    if code:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1, stderr.getvalue()
        record = json.loads(lines[0])
        assert {"error", "message"} <= set(record)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_config_through_main_keeps_exit_contract(cli_files, data):
    tmp, _ = cli_files
    mutated = tmp / "train.mutated.cfg"
    _main_keeps_exit_contract(cli_files, mutated, tmp / "train.cfg", mutated, data)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_dataset_csv_through_main_keeps_exit_contract(cli_files, data):
    tmp, _ = cli_files
    _main_keeps_exit_contract(cli_files, tmp / "dataset.mutated", tmp / "dataset.csv", tmp / "csv.cfg", data)
