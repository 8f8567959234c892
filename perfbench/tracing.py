"""Traced pass: spans and counts at the boundaries of metriclab's modules.

The package is not changed. `install` replaces public names with timing
wrappers where they are looked up (a function imported by name into another
module is patched in the importing module, a method on its class, a fixture
in the FIXTURES table), and `Patches.restore` puts every original back.

A span is (name, start, end, parent, run id); spans stay in memory until
the pass ends. The layer of a span is the part of its name before the first
dot. A span's self time is its duration minus the part of it that its
child spans cover. Autograd forward ops are not spanned (there are tens of
thousands per run), so their cost is part of the self time of the layer
that called them; `autograd.backward` is the only autograd span.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

LAYERS = (
    "autograd",
    "nn",
    "losses",
    "sampling",
    "synthetic",
    "config",
    "trainer",
    "metrics",
    "experiments",
    "cli",
    "gradcheck",
)

# loss function name -> short name used in span and metric names
LOSS_SPANS = {
    "id_cross_entropy": "ce",
    "center_loss": "center",
    "triplet_loss_batch_hard": "triplet",
    "circle_loss": "circle",
    "lifted_structure_loss": "lifted",
    "ranked_list_loss": "rll",
    "cpl_loss": "cpl",
}

COUNT_NAMES = (
    "autograd.tensors",
    "autograd.grad_tensors",
    "autograd.backward_calls",
    "autograd.errors",
    "nn.forward_calls",
    "losses.calls",
    "sampling.batches",
    "synthetic.fixtures",
    "trainer.steps",
    "trainer.sgd_steps",
    "metrics.queries",
    "cli.bytes_written",
    "gradcheck.cases",
    "gradcheck.fd_evals",
)

# metric name -> span names whose self times it sums
SELF_TIME_METRICS = {
    "autograd.backward_ms": ("autograd.backward",),
    "nn.linear_ms": ("nn.linear",),
    "nn.batchnorm_ms": ("nn.batchnorm",),
    "nn.mlp_ms": ("nn.mlp",),
    "nn.checkpoint_ms": ("nn.checkpoint",),
    **{f"losses.{short}_ms": (f"losses.{short}",) for short in LOSS_SPANS.values()},
    "losses.cpl_targets_ms": ("losses.cpl_targets",),
    "losses.pairwise_ms": ("losses.pairwise",),
    "sampling.batch_ms": ("sampling.batch",),
    "synthetic.fixture_ms": ("synthetic.fixture",),
    "config.parse_ms": ("config.parse",),
    "config.render_ms": ("config.render",),
    "trainer.sgd_ms": ("trainer.sgd",),
    "trainer.refit_ms": ("trainer.refit",),
    "trainer.eval_ms": ("trainer.eval",),
    "metrics.evaluate_ms": ("metrics.evaluate",),
    "cli.self_ms": ("cli.dispatch",),
    "gradcheck.central_diff_ms": ("gradcheck.central_diff",),
}


class Tracer:
    """Spans and counters of one traced repeat, kept in memory."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self.counts = Counter({name: 0 for name in COUNT_NAMES})
        # op outputs that require grad: built, and returned by backward()
        self.built = 0
        self.reached = 0
        self._stack = []

    def wrap(self, name: str, fn, count: str | None = None):
        """fn with every call recorded as a span named `name`."""
        spans, stack, counts, run_id = self.spans, self._stack, self.counts, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, run_id]

        return traced

    def wrap_generator(self, name: str, fn, count: str):
        """A generator function whose every resumption is a span `name`."""
        span = self.wrap(name, next)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = span(it)
                except StopIteration:
                    return
                counts[count] += 1
                yield item

        return traced


def self_times(spans: list) -> list:
    """Self time of each span: its duration minus what its children cover."""
    children = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _, _), kids in zip(spans, children):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(kids):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _percentile(values: list, q: float) -> float:
    """Linear-interpolation percentile (numpy's default), 0 for no values."""
    if not values:
        return 0.0
    values = sorted(values)
    pos = (len(values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def layer_metrics(spans: list, counts: dict, built: int, reached: int) -> dict:
    """Per-layer metrics of one traced repeat.

    Times are in ms. `<layer>.self_share` is the layer's self time inside the
    run over the run's wall time (the root span), the most a faster layer
    could save on that workload. Spans outside the run (config parsing
    during set-up) count in `config.parse_ms` but not in the shares.
    """
    selfs = self_times(spans)
    by_name = Counter()
    for span, self_s in zip(spans, selfs):
        by_name[span[0]] += self_s
    metrics = {name: float(counts[name]) for name in COUNT_NAMES}
    for metric, names in SELF_TIME_METRICS.items():
        metrics[metric] = 1e3 * sum(by_name[n] for n in names)
    metrics["experiments.self_ms"] = 1e3 * sum(
        v for n, v in by_name.items() if n.startswith("experiments.")
    )
    steps = [1e3 * (end - start) for name, start, end, _, _ in spans if name == "trainer.train_step"]
    metrics["trainer.step_ms_p50"] = _percentile(steps, 0.5)
    metrics["trainer.step_ms_p90"] = _percentile(steps, 0.9)
    metrics["autograd.grad_reach_frac"] = reached / built if built else 0.0

    roots = [i for i, span in enumerate(spans) if span[3] < 0 and span[0] in ("cli.dispatch", "gradcheck.run")]
    inside = _descendants(spans, roots)
    run_s = sum(spans[i][2] - spans[i][1] for i in roots)
    layer_self = Counter()
    for i in inside:
        layer_self[spans[i][0].split(".", 1)[0]] += selfs[i]
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = layer_self[layer] / run_s if run_s else 0.0
    return metrics


def _descendants(spans: list, roots: list) -> list:
    member = [False] * len(spans)
    for i in roots:
        member[i] = True
    # children are appended after their parent, so one forward pass suffices
    for i, span in enumerate(spans):
        if span[3] >= 0 and member[span[3]]:
            member[i] = True
    return [i for i, m in enumerate(member) if m]


class Patches:
    """Attribute and table replacements, undone in reverse order."""

    _MISSING = object()

    def __init__(self):
        self._undo = []

    def attr(self, owner, name: str, value):
        # a name inherited from a base class is not in vars(owner); restoring
        # it means deleting the override, not copying the base's value down
        old = vars(owner).get(name, self._MISSING)
        setattr(owner, name, value)
        self._undo.append((owner, name, old))

    def item(self, table: dict, key, value):
        self._undo.append((table, key, table[key]))
        table[key] = value

    def restore(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = old
            elif old is self._MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)


def install(tracer: Tracer) -> Patches:
    """Wrap metriclab's public functions where they are looked up."""
    import metriclab.autograd as autograd
    import metriclab.cli as cli
    import metriclab.config as config
    import metriclab.errors as errors
    import metriclab.experiments as experiments
    import metriclab.gradcheck as gradcheck
    import metriclab.losses as losses
    import metriclab.nn as nn
    import metriclab.synthetic as synthetic
    import metriclab.trainer as trainer

    patches = Patches()
    counts = tracer.counts

    def wrap_global(module, fn_name, span, count=None):
        patches.attr(module, fn_name, tracer.wrap(span, getattr(module, fn_name), count))

    def wrap_method(cls, span, names=("forward", "__call__"), count=None):
        for name in names:
            patches.attr(cls, name, tracer.wrap(span, vars(cls)[name], count))

    # autograd: every Tensor construction, every backward sweep, every
    # NumericsError (TrainingDivergenceError reaches it through super())
    tensor_init = autograd.Tensor.__init__

    def counted_init(self, *args, **kwargs):
        tensor_init(self, *args, **kwargs)
        counts["autograd.tensors"] += 1
        if self.requires_grad:
            counts["autograd.grad_tensors"] += 1
            if self._parents:
                tracer.built += 1

    patches.attr(autograd.Tensor, "__init__", counted_init)
    error_init = errors.NumericsError.__init__

    def counted_error(self, *args, **kwargs):
        counts["autograd.errors"] += 1
        error_init(self, *args, **kwargs)

    patches.attr(errors.NumericsError, "__init__", counted_error)
    backward_span = tracer.wrap("autograd.backward", autograd.backward, "autograd.backward_calls")

    def traced_backward(root):
        grads = backward_span(root)
        # parameters are reached by every sweep, so only op outputs count
        tracer.reached += sum(1 for t in grads if t._parents)
        return grads

    for module in (trainer, gradcheck):
        patches.attr(module, "backward", traced_backward)

    # nn: layer forwards and checkpoints
    wrap_method(nn.Linear, "nn.linear", count="nn.forward_calls")
    wrap_method(nn.BatchNorm, "nn.batchnorm", count="nn.forward_calls")
    wrap_method(nn.MLP, "nn.mlp", count="nn.forward_calls")
    wrap_method(nn.CenterPredictor, "nn.mlp", count="nn.forward_calls")
    wrap_global(trainer, "save_checkpoint", "nn.checkpoint")

    # losses, where trainer and gradcheck call them, and the helpers the
    # losses module calls internally
    for module in (trainer, gradcheck):
        for fn_name, short in LOSS_SPANS.items():
            wrap_global(module, fn_name, f"losses.{short}", "losses.calls")
        wrap_global(module, "cpl_targets", "losses.cpl_targets")
    wrap_global(losses, "cpl_targets", "losses.cpl_targets")
    wrap_global(losses, "pairwise_euclidean", "losses.pairwise")
    wrap_global(gradcheck, "pairwise_euclidean", "losses.pairwise")

    # sampling: each resumption of the PK epoch generator is one batch
    patches.attr(
        trainer,
        "epoch_iter",
        tracer.wrap_generator("sampling.batch", trainer.epoch_iter, "sampling.batches"),
    )

    # synthetic: the fixture table that config and cli index
    for key, fn in list(synthetic.FIXTURES.items()):
        patches.item(synthetic.FIXTURES, key, tracer.wrap("synthetic.fixture", fn, "synthetic.fixtures"))

    # config
    wrap_global(config, "parse_config", "config.parse")
    for module in (cli, experiments, config):
        wrap_global(module, "render_config", "config.render")
    wrap_global(experiments, "config_hash", "config.render")

    # trainer
    wrap_global(trainer, "train_step", "trainer.train_step", "trainer.steps")
    wrap_method(trainer.SGD, "trainer.sgd", names=("step",), count="trainer.sgd_steps")
    for module in (cli, experiments):
        wrap_global(module, "train_run", "trainer.train_run")
    wrap_global(experiments, "refit_predictor", "trainer.refit")
    for module, fn_name in (
        (cli, "train_accuracy"),
        (trainer, "train_accuracy"),
        (experiments, "train_accuracy"),
        (experiments, "embed_dataset"),
        (experiments, "cpl_errors"),
    ):
        wrap_global(module, fn_name, "trainer.eval")

    # metrics
    evaluate_span = tracer.wrap("metrics.evaluate", experiments.evaluate_retrieval)

    def traced_evaluate(query_features, query_labels, *args, **kwargs):
        counts["metrics.queries"] += len(query_labels)
        return evaluate_span(query_features, query_labels, *args, **kwargs)

    patches.attr(experiments, "evaluate_retrieval", traced_evaluate)

    # experiments
    for fn_name in ("run_loss_surface", "run_boundary_experiment", "run_target_ablation", "run_bn_ablation"):
        wrap_global(cli, fn_name, f"experiments.{fn_name}")
    for fn_name in ("run_retrieval_variant", "split_retrieval_task", "center_surface_errors", "classifier_margins"):
        wrap_global(experiments, fn_name, f"experiments.{fn_name}")
    wrap_method(experiments.SurfaceGrid, "experiments.write_csv", names=("write_csv",))
    wrap_method(experiments.AblationReport, "experiments.write_csv", names=("write_csv",))

    # cli: the run's root span
    wrap_global(cli, "dispatch", "cli.dispatch")

    # gradcheck: the suite (root span), its cases and every forward evaluation
    wrap_global(gradcheck, "run_gradcheck", "gradcheck.run")
    diff_span = tracer.wrap("gradcheck.central_diff", gradcheck.central_diff)

    def traced_central_diff(fd_forward, leaf, *args, **kwargs):
        def counted_forward():
            counts["gradcheck.fd_evals"] += 1
            return fd_forward()

        return diff_span(counted_forward, leaf, *args, **kwargs)

    patches.attr(gradcheck, "central_diff", traced_central_diff)
    patches.attr(
        gradcheck,
        "REGISTRY",
        tuple(
            (name, tracer.wrap("gradcheck.build", builder, "gradcheck.cases"))
            for name, builder in gradcheck.REGISTRY
        ),
    )
    return patches
