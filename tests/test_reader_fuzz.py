"""Byte-level fuzz of the file readers and of the CLI.

A valid checkpoint and a valid dataset CSV get a few random byte edits
(overwrite, insert, delete); whatever the bytes, `load_checkpoint` and
`load_dataset_csv` either load them or raise DataFormatError. The same
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
from metriclab.nn import load_checkpoint, save_checkpoint
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


CHECKPOINT = {"w": np.array([[0.5, -1.25, 3.0], [1e-3, 2.0, -0.0]]), "b": np.array([[1.0], [-2.0]])}
DATASET = LabeledDataset(
    np.array([[0.5, 1.5, -2.0, 0.25, 3.0, 1.0], [1.0, 0.0, 2.5, -1.0, 0.5, 4.0]]), np.array([0, 0, 1, 1, 2, 2])
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("readers")
    save_checkpoint(tmp / "checkpoint.txt", CHECKPOINT)
    save_dataset_csv(DATASET, tmp / "dataset.csv")
    return tmp


def _loads_or_rejects(load, valid_path, data):
    path = valid_path.with_suffix(".mutated")
    path.write_bytes(data.draw(byte_edits(valid_path.read_bytes())))
    try:
        load(path)
    except DataFormatError:
        pass


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_loads_or_raises_data_format_error(files, data):
    _loads_or_rejects(load_checkpoint, files / "checkpoint.txt", data)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_dataset_csv_loads_or_raises_data_format_error(files, data):
    _loads_or_rejects(load_dataset_csv, files / "dataset.csv", data)


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
