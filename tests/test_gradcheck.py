from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import metriclab.gradcheck as gradcheck
from metriclab.autograd import Tensor, backward
from metriclab.errors import NumericsError
from metriclab.gradcheck import (
    REGISTRY,
    GradProblem,
    _input_tail,
    _param_tail,
    _sum,
    _sum_squares,
    central_diff,
    max_rel_err,
    run_gradcheck,
)
from metriclab.machine import platform_record
from metriclab.nn import Linear
from metriclab.seeding import substream

from primitives import mul, tsum

# seed-0 `metriclab gradcheck --batches 2` stdout, which
# scripts/run_all_experiments.py regenerates
REPORT = Path(__file__).resolve().parents[1] / "runs" / "gradcheck" / "report.txt"


def test_central_diff_matches_closed_form(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    fd = central_diff(lambda: float((x.data**2).sum()), x)
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


def _infinite_fd(rng) -> GradProblem:
    """sum(x) with x's finite difference infinite, then a leaf whose error is 0."""
    x = Tensor(np.ones((1, 1)), requires_grad=True)
    y = Tensor(np.ones((1, 1)), requires_grad=True)

    def jump():  # hi - lo = 1.7e308 + 1.7e308 overflows to inf
        return 1.7e308 if x.data[0, 0] > 1.0 else -1.7e308

    return GradProblem(lambda: _sum(x), {x: jump, y: lambda: 0.0})


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
            assert any(np.any(grads.get(leaf, 0.0) != 0.0) for leaf in problem.forwards), (name, b)


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


# the rows built by _network: a layer stack under _sum_squares
NETWORK_CASES = ("linear", "batchnorm", "mlp", "predictor-2layer", "predictor-4layer-bn", "mlp-constant-input")


def _stacked_suffixes(problem) -> bool:
    """problem is stacked and perturbs every leaf under a network suffix."""
    suffixes = (_input_tail, _param_tail)
    return problem.stacked and all(getattr(f, "func", None) in suffixes for f in problem.forwards.values())


# the rows stacked through the losses' forwards; step-total alone is per-entry
LOSS_CASES = tuple(name for name, _ in REGISTRY if name not in (*NETWORK_CASES, "step-total"))


def test_network_cases_are_every_row_perturbed_under_suffixes():
    # a new network row cannot skip the suffix tests below, and every row but step-total is stacked
    problems = {name: builder(substream(0, "suffix-only")) for name, builder in REGISTRY}
    assert {name for name, problem in problems.items() if not problem.stacked} == {"step-total"}
    assert {name for name, problem in problems.items() if _stacked_suffixes(problem)} == set(NETWORK_CASES)


@pytest.mark.parametrize("name", NETWORK_CASES)
def test_suffix_finite_difference_is_bit_identical_to_the_whole_forward(name):
    builder = dict(REGISTRY)[name]
    for b in range(20):
        problem = builder(substream(0, f"gradcheck/{name}/{b}"))
        # every leaf is perturbed under a suffix of the network, none under the whole root
        assert _stacked_suffixes(problem)

        def whole():
            return problem.root().item()

        for leaf, suffix in problem.forwards.items():
            orig, value = leaf.data, whole()
            leaf.data = orig[np.newaxis]  # a one-slice stack of the unperturbed data
            assert suffix().tolist() == [value], (name, b)
            leaf.data = orig
            stacked = central_diff(suffix, leaf, stacked=True)
            assert leaf.data is orig, (name, b)
            per_entry = central_diff(whole, leaf)
            # equal, signs of zero included
            assert np.array_equal(stacked, per_entry), (name, b)
            assert np.array_equal(np.signbit(stacked), np.signbit(per_entry)), (name, b)


@pytest.mark.parametrize("name", NETWORK_CASES)
def test_cached_activations_survive_a_sweep_and_are_read_only(name):
    problem = dict(REGISTRY)[name](substream(0, f"gradcheck/{name}/0"))
    # x's forward is partial(_input_tail, steps, x); a parameter's is
    # partial(_param_tail, steps, h, p), the longest from x.data at step 0,
    # every shorter one from an activation cached at build
    forwards = problem.forwards.values()
    depth = max(len(f.args[0]) for f in forwards)
    cached = {id(f.args[1]): f.args[1] for f in forwards if f.func is _param_tail and len(f.args[0]) < depth}
    assert bool(cached) == (depth > 1)  # a one-layer case caches nothing
    before = {key: h.copy() for key, h in cached.items()}
    leaves = {leaf: (leaf.data, leaf.data.copy()) for leaf in problem.forwards}
    for leaf, forward in problem.forwards.items():
        central_diff(forward, leaf, stacked=True)
    for key, h in cached.items():
        assert np.array_equal(h, before[key])
        with pytest.raises(ValueError, match="read-only"):
            h[0, 0] = 1.0
    # the sweep puts each leaf's own array back, unchanged
    for leaf, (data, copy) in leaves.items():
        assert leaf.data is data and np.array_equal(data, copy)


def test_a_stacked_root_that_overflows_raises_the_roots_message():
    problem = dict(REGISTRY)["linear"](substream(0, "gradcheck/linear/0"))
    x, forward = next(iter(problem.forwards.items()))
    x.data = x.data * 1e200  # the layer output stays finite, its squares overflow
    message = "^_sum_squares: operation produced non-finite entries$"
    with pytest.raises(NumericsError, match=message):
        central_diff(forward, x, stacked=True)
    with pytest.raises(NumericsError, match=message):
        problem.root()


def test_each_stacked_row_runs_one_forward_per_leaf(monkeypatch):
    # wrap each forward central_diff gets, as perfbench's tracer does: the
    # stacked rows make one call per leaf, step-total two per entry
    row, leaves, entries, calls = [None], Counter(), Counter(), Counter()
    real_diff = gradcheck.central_diff

    def tagged(name, builder):
        def build(rng):
            row[0] = name
            return builder(rng)

        return build

    def counted_diff(fd_forward, leaf, *args, **kwargs):
        def counted():
            calls[row[0]] += 1
            return fd_forward()

        leaves[row[0]] += 1
        entries[row[0]] += leaf.data.size
        return real_diff(counted, leaf, *args, **kwargs)

    monkeypatch.setattr(gradcheck, "REGISTRY", tuple((name, tagged(name, b)) for name, b in REGISTRY))
    monkeypatch.setattr(gradcheck, "central_diff", counted_diff)
    assert run_gradcheck(0, 1e-4, 2).all_passed
    assert set(calls) == {name for name, _ in REGISTRY}
    for name, _ in REGISTRY:
        expected = 2 * entries[name] if name == "step-total" else leaves[name]
        assert calls[name] == expected, name


@pytest.mark.parametrize("name", LOSS_CASES)
def test_stacked_loss_row_finite_difference_is_bit_identical_to_the_per_entry_one(name, monkeypatch):
    # the per-entry reference is the root, evaluated fresh per entry; for
    # cpl-frozen, with its targets pinned where the build computed them
    real_targets = gradcheck.cpl_targets
    for b in range(20):
        pinned = []

        def first_targets(*args):
            if not pinned:
                pinned.append(real_targets(*args))
            return pinned[0]

        monkeypatch.setattr(gradcheck, "cpl_targets", first_targets)
        problem = dict(REGISTRY)[name](substream(0, f"gradcheck/{name}/{b}"))
        assert problem.stacked
        assert bool(pinned) == (name == "cpl-frozen")

        def whole():
            return problem.root().item()

        for leaf, forward in problem.forwards.items():
            orig, value = leaf.data, whole()
            leaf.data = orig[np.newaxis]  # a one-slice stack of the unperturbed data
            assert forward().ravel().tolist() == [value], (name, b)
            leaf.data = orig
            stacked = central_diff(forward, leaf, stacked=True)
            assert leaf.data is orig, (name, b)
            per_entry = central_diff(whole, leaf)
            # equal, signs of zero included
            assert np.array_equal(stacked, per_entry), (name, b)
            assert np.array_equal(np.signbit(stacked), np.signbit(per_entry)), (name, b)
