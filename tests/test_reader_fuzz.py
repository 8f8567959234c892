"""Byte-level fuzz of the two file readers.

A valid checkpoint and a valid dataset CSV get a few random byte edits
(overwrite, insert, delete); whatever the bytes, `load_checkpoint` and
`load_dataset_csv` either load them or raise DataFormatError.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
