from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import metriclab.gradcheck as gradcheck
import metriclab.trainer as trainer
from metriclab.autograd import GraphError, Tensor, _make, backward
from metriclab.errors import NumericsError
from metriclab.gradcheck import (
    REGISTRY,
    GradProblem,
    _sum,
    _sum_squares,
    central_diff,
    max_rel_err,
    replay,
    run_gradcheck,
)
from metriclab.machine import platform_record
from metriclab.nn import Linear
from metriclab.seeding import substream

from fd_utils import central_diff as per_entry_diff
from primitives import mul, tsum

# seed-0 `metriclab gradcheck --batches 2` stdout, which
# scripts/run_all_experiments.py regenerates
REPORT = Path(__file__).resolve().parents[1] / "runs" / "gradcheck" / "report.txt"


def test_central_diff_matches_closed_form(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    fd = central_diff(lambda: (x.data**2).sum(axis=(-2, -1)), x)
    assert np.allclose(fd, 2 * x.data, atol=1e-9)


def test_max_rel_err_uses_unit_floor():
    a = np.array([[0.0, 10.0]])
    b = np.array([[1e-5, 10.001]])
    # small-magnitude entries compare absolutely, large ones relatively
    assert max_rel_err(a, b) == pytest.approx(0.001 / 10.001, rel=1e-9)


@pytest.mark.parametrize(
    "analytic, fd",
    [([[1.0]], [[np.inf]]), ([[np.inf]], [[1.0]]), ([[1e308]], [[-1e308]])],
    ids=["infinite-fd", "infinite-analytic", "overflowing-difference"],
)
def test_max_rel_err_is_nan_when_not_finite(analytic, fd):
    # pytest turns a leaked RuntimeWarning into an error
    assert np.isnan(max_rel_err(np.array(analytic), np.array(fd)))


def _jump(a):  # hi - lo = 1.7e308 + 1.7e308 overflows to inf
    return np.where(a > 1.0, 1.7e308, -1.7e308)


def _infinite_fd(rng) -> GradProblem:
    """A root whose finite difference in x is infinite, then a leaf y that the
    root does not read: the replay broadcasts x along y's stack, and y's
    error is 0."""
    x = Tensor(np.ones((1, 1)), requires_grad=True)
    y = Tensor(np.ones((1, 1)), requires_grad=True)
    return GradProblem(lambda: _make(_jump(x.data), (x,), lambda g: (g * 0.0,), _jump), (x, y))


def test_a_non_finite_error_fails_its_row(monkeypatch):
    monkeypatch.setattr(gradcheck, "REGISTRY", (("infinite-fd", _infinite_fd),))
    report = run_gradcheck(seed=0, batches=2)
    # y's error of 0, checked after x's, does not clear the nan
    assert np.isnan(report.rows[0].max_rel_err) and not report.all_passed
    assert report.to_text().splitlines()[0] == f"{'infinite-fd':22s} max_rel_err nan FAIL"


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
    assert lines[-1].startswith("gradcheck: 16/16 cases")


def test_report_matches_checked_in_file_byte_for_byte():
    # every problem, error and verdict is pinned: a change to a case's draws
    # or to any op's numerics shows up here; the error figures are
    # byte-identical only on the platform that made the report
    assert (run_gradcheck(0, 1e-4, 2).to_text() + "\n").encode() == REPORT.read_bytes(), (
        f"runs/ was made on:\n{(REPORT.parents[1] / 'PLATFORM').read_text()}"
        f"this machine is:\n{platform_record()}"
    )


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
            assert any(np.any(grads.get(leaf, 0.0) != 0.0) for leaf in problem.leaves), (name, b)


@pytest.mark.parametrize("upstream", [1.0, 0.37])
def test_fused_sums_are_bit_identical_to_composed_graphs(upstream, rng):
    # a layer under the sum, so both uses of its output accumulate into it
    layer = Linear(3, 4, rng)
    data = rng.normal(0, 2, (3, 6))

    def run(total):
        x = Tensor(data.copy(), requires_grad=True)
        root = mul(total(layer(x)), upstream)
        grads = backward(root)
        return [root.data, grads[x], grads[layer.weight], grads[layer.bias]]

    for fused, composed in ((_sum_squares, lambda t: tsum(mul(t, t))), (_sum, tsum)):
        for f, c in zip(run(fused), run(composed), strict=True):
            assert np.array_equal(f, c)


@pytest.mark.parametrize("name", [name for name, _ in REGISTRY])
def test_stacked_finite_difference_is_bit_identical_to_the_per_entry_one(name, monkeypatch):
    # the per-entry reference is the root, rebuilt per entry by the tests'
    # own loop; for cpl-frozen and step-total, with its targets pinned
    # where the build of the root computed them
    pinned = []

    def first_targets(real, *args):
        if not pinned:
            pinned.append(real(*args))
        return pinned[0]

    for module in (gradcheck, trainer):
        monkeypatch.setattr(module, "cpl_targets", partial(first_targets, module.cpl_targets))
    for b in range(20):
        pinned.clear()
        problem = dict(REGISTRY)[name](substream(0, f"gradcheck/{name}/{b}"))
        root = problem.root()
        assert bool(pinned) == (name in ("cpl-frozen", "step-total"))
        for leaf in problem.leaves:
            orig = leaf.data
            leaf.data = orig[np.newaxis]  # a one-slice stack of the unperturbed data
            assert replay(root, leaf).ravel().tolist() == [root.item()], (name, b)
            leaf.data = orig
            stacked = central_diff(partial(replay, root, leaf), leaf)
            assert leaf.data is orig, (name, b)
            per_entry = per_entry_diff(problem.root, leaf)
            # equal, signs of zero included
            assert np.array_equal(stacked, per_entry), (name, b)
            assert np.array_equal(np.signbit(stacked), np.signbit(per_entry)), (name, b)


def test_a_raising_forward_leaves_the_leaf_as_it_was(rng):
    x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    orig, copy = x.data, x.data.copy()

    def forward():
        raise NumericsError("forward failed")

    with pytest.raises(NumericsError, match="forward failed"):
        central_diff(forward, x)
    assert x.data is orig and np.array_equal(orig, copy)


def test_a_stacked_root_that_overflows_raises_the_roots_message():
    problem = dict(REGISTRY)["linear"](substream(0, "gradcheck/linear/0"))
    root, x = problem.root(), problem.leaves[0]
    x.data = x.data * 1e200  # the layer output stays finite, its squares overflow
    message = "^_sum_squares: operation produced non-finite entries$"
    with pytest.raises(NumericsError, match=message):
        central_diff(partial(replay, root, x), x)
    with pytest.raises(NumericsError, match=message):
        problem.root()


def test_a_node_without_a_forward_cannot_be_replayed():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    root = _sum(mul(x, x))  # the test primitive records no forward
    x.data = x.data[np.newaxis]
    with pytest.raises(GraphError, match="^mul: no forward to replay$"):
        replay(root, x)


def test_each_stacked_row_runs_one_forward_per_leaf(monkeypatch):
    # wrap each forward central_diff gets, as perfbench's tracer does: every
    # row makes one call per leaf
    row, leaves, calls = [None], Counter(), Counter()
    real_diff = gradcheck.central_diff

    def tagged(name, builder):
        def build(rng):
            row[0] = name
            return builder(rng)

        return build

    def counted_diff(fd_forward, leaf):
        def counted():
            calls[row[0]] += 1
            return fd_forward()

        leaves[row[0]] += 1
        return real_diff(counted, leaf)

    monkeypatch.setattr(gradcheck, "REGISTRY", tuple((name, tagged(name, b)) for name, b in REGISTRY))
    monkeypatch.setattr(gradcheck, "central_diff", counted_diff)
    assert run_gradcheck(0, 1e-4, 2).all_passed
    assert set(calls) == {name for name, _ in REGISTRY}
    assert calls == leaves
