import numpy as np
import pytest

from metriclab.autograd import Tensor, backward
from metriclab.gradcheck import (
    REGISTRY,
    central_diff,
    max_rel_err,
    run_gradcheck,
)
from metriclab.seeding import substream


def test_central_diff_matches_closed_form(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    fd = central_diff(lambda: float((x.data**2).sum()), x)
    assert np.allclose(fd, 2 * x.data, atol=1e-9)


def test_max_rel_err_uses_unit_floor():
    a = np.array([[0.0, 10.0]])
    b = np.array([[1e-5, 10.001]])
    # small-magnitude entries compare absolutely, large ones relatively
    assert max_rel_err(a, b) == pytest.approx(0.001 / 10.001, rel=1e-9)


def test_default_suite_passes():
    report = run_gradcheck(seed=0, tolerance=1e-4, batches=3)
    assert report.all_passed
    assert all(row.max_rel_err < 1e-4 for row in report.rows)


def test_every_registered_op_reported_exactly_once():
    report = run_gradcheck(seed=0, batches=1)
    names = [row.name for row in report.rows]
    assert names == [name for name, _ in REGISTRY]
    assert len(set(names)) == len(REGISTRY)
    assert len(names) == 16


def test_impossible_tolerance_fails():
    report = run_gradcheck(seed=0, tolerance=1e-15, batches=1)
    assert not report.all_passed  # central differences have a noise floor


def test_report_text_format():
    report = run_gradcheck(seed=0, batches=1)
    lines = report.to_text().splitlines()
    assert len(lines) == len(REGISTRY) + 1
    for line in lines[:-1]:
        assert "max_rel_err" in line and line.endswith(("PASS", "FAIL"))
    assert lines[-1].startswith("gradcheck: 16/16 ops")


def test_suite_deterministic():
    a = run_gradcheck(seed=5, batches=2)
    b = run_gradcheck(seed=5, batches=2)
    assert [(r.name, r.max_rel_err) for r in a.rows] == [
        (r.name, r.max_rel_err) for r in b.rows
    ]


def test_every_case_checks_a_nonzero_gradient():
    # an all-zero analytic gradient (every hinge inactive) agrees with an
    # all-zero finite difference and so checks nothing
    for name, builder in REGISTRY:
        for b in range(20):
            problem = builder(substream(0, f"gradcheck/{name}/{b}"))
            grads = backward(problem.root())
            assert any(np.any(grads.get(leaf, 0.0) != 0.0) for leaf in problem.leaves.values()), (name, b)
