"""Scripted analysis experiments over the loss library.

Four reproductions on synthetic fixtures: per-sample loss surfaces for the
center and center-prediction losses, the boundary-error profile of a
jointly trained classifier (its band: the margins at or below numpy's
lower decile), and the target-mode / BN-placement ablation grids on a
held-out-identity retrieval task. Each experiment takes the loaded
dataset and the `ExperimentConfig` that holds all of its settings.
Everything is seeded and exports CSV.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import losses
from .autograd import _all_finite, as_tensor, check_finite
from .config import SURFACE_LOSS_KINDS, ExperimentConfig, config_hash, parse_config, render_config
from .errors import ConfigError, ShapeError
from .metrics import evaluate_retrieval, l2_normalize
from .nn import CenterPredictor
from .sampling import LabeledDataset, first_per_label, write_csv
from .seeding import subseed, substream
from .trainer import cpl_errors, embed_dataset, refit_predictor, train_accuracy, train_run

# fraction of lowest classifier margins treated as the boundary band
BOUNDARY_DECILE = 0.1
# samples per held-out identity that split_retrieval_task makes queries
QUERIES_PER_ID = 4


@dataclass
class SurfaceGrid:
    """Per-sample scatter of a loss surface: 2-D points with error values."""

    points: np.ndarray  # 2 x N
    labels: np.ndarray  # N
    errors: np.ndarray  # N, finite and >= 0
    boundary: np.ndarray  # N bools; all False outside boundary experiments

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.errors = np.asarray(self.errors, dtype=np.float64)
        self.boundary = np.asarray(self.boundary, dtype=bool)
        if self.points.ndim != 2 or self.points.shape[0] != 2:
            raise ShapeError("surface points must be a 2 x N matrix")
        n = self.points.shape[1]
        if self.labels.shape != (n,) or self.errors.shape != (n,) or self.boundary.shape != (n,):
            raise ShapeError("surface labels/errors/flags must have one entry per point")
        if not _all_finite(self.errors) or np.any(self.errors < 0):
            raise ShapeError("surface errors must be finite and >= 0")

    def class_mean_error(self, label: int) -> float:
        mask = self.labels == label
        if not mask.any():
            raise ConfigError(f"surface has no points with label {label}")
        with np.errstate(all="ignore"):
            mean = self.errors[mask].mean()
        # finite errors can still sum past float64, and inf is not JSON
        check_finite(mean, "class_mean_error", f"class {label} mean error is not finite")
        return float(mean)

    def boundary_ratio(self) -> float:
        """Mean error in the boundary band over mean error outside it."""
        if not self.boundary.any() or self.boundary.all():
            raise ConfigError("boundary ratio needs both band and interior points")
        with np.errstate(all="ignore"):
            band, interior = self.errors[self.boundary].mean(), self.errors[~self.boundary].mean()
            ratio = band / interior
        # a zero interior mean gives nan (0/0) or inf, and neither is JSON
        check_finite(
            ratio, "boundary_ratio", f"band mean error {band:.6g} over interior mean error {interior:.6g} is not finite"
        )
        return float(ratio)

    def write_csv(self, path):
        # one conversion per column: tolist() gives Python floats, ints and bools
        xs, ys = self.points.tolist()
        rows = zip(xs, ys, self.labels.tolist(), self.errors.tolist(), map(int, self.boundary.tolist()))
        write_csv(path, ["x", "y", "label", "e", "boundary"], rows)


def center_surface_errors(ds: LabeledDataset) -> np.ndarray:
    """Per-sample squared distance to the sample's own class mean."""
    return cpl_errors(ds.features, losses.cpl_targets(ds.features, ds.labels, "sample-mean"))


def _refit_errors(points: np.ndarray, labels: np.ndarray, cfg: ExperimentConfig, stream: str):
    """Per-sample squared prediction error of a 2-layer predictor refit on
    the 2-D points, starting from the identity map so the result never
    exceeds the plain leave-one-out dispersion."""
    predictor = CenterPredictor(
        dim=2, hidden=cfg.model.predictor_hidden, rng=substream(cfg.seed, stream), depth=2
    )
    predictor.init_identity()
    targets = losses.cpl_targets(points, labels)
    refit_predictor(points, labels, targets, predictor, steps=cfg.refit_steps, lr=cfg.refit_lr)
    return cpl_errors(points, targets, predictor=predictor)


def run_loss_surface(ds: LabeledDataset, cfg: ExperimentConfig) -> dict:
    """Per-sample error surfaces on a 2-D fixture: {loss kind: SurfaceGrid}
    for each kind `cfg.surface_loss` names, center first.

    center: squared distance to the class mean. cpl: squared prediction
    error of a predictor refit on the raw points (see `_refit_errors`).
    """
    if ds.dim != 2:
        raise ShapeError(f"loss surfaces need a 2-D fixture, got dim {ds.dim}")
    errors = {
        "center": lambda: center_surface_errors(ds),
        "cpl": lambda: _refit_errors(ds.features, ds.labels, cfg, "surface-predictor"),
    }
    return {
        kind: SurfaceGrid(ds.features, ds.labels, errors[kind](), np.zeros(ds.n, dtype=bool))
        for kind in SURFACE_LOSS_KINDS
        if cfg.surface_loss in (kind, "both")
    }


def classifier_margins(state, embeddings: np.ndarray, ds: LabeledDataset) -> np.ndarray:
    """Per-sample margin on ds's embeddings: true-class logit minus best other-class logit."""
    logits = state.classifier(as_tensor(embeddings)).data
    cols = np.arange(ds.n)
    true = logits[ds.class_index, cols]
    masked = logits.copy()
    masked[ds.class_index, cols] = -np.inf
    return true - masked.max(axis=0)


def run_boundary_experiment(ds: LabeledDataset, cfg: ExperimentConfig, out_dir=None):
    """Train cfg's loss mix with 2-D embeddings, then profile the prediction error.

    `ExperimentConfig` has checked that cfg sets model.embedding_dim = 2.
    The margins and the refit read one pass of embeddings. They are L2-normalized, a fresh identity-initialized
    predictor is refit on them, and a sample is flagged boundary when its
    classifier margin is at most numpy's lower BOUNDARY_DECILE quantile:
    the margin at 0-based rank floor((n - 1) * BOUNDARY_DECILE) in
    ascending order. Returns (grid, train_accuracy).
    """
    if len(ds.identities) not in (2, 3):
        raise ConfigError(
            f"boundary experiment expects a 2- or 3-class dataset, got {len(ds.identities)} classes"
        )
    state, _, _ = train_run(ds, cfg, out_dir=out_dir)
    embeddings = embed_dataset(state, ds)
    margins = classifier_margins(state, embeddings, ds)
    normalized = l2_normalize(embeddings)
    grid = SurfaceGrid(
        points=normalized,
        labels=ds.labels,
        errors=_refit_errors(normalized, ds.labels, cfg, "boundary-refit"),
        # unlike the default linear method, "lower" does not import numpy.ma
        boundary=margins <= np.quantile(margins, BOUNDARY_DECILE, method="lower"),
    )
    return grid, train_accuracy(state, ds)


# -- ablations on a held-out-identity retrieval task ---------------------------

# kind -> ordered (variant, {schema key: value text}) rows. A variant is the
# run's config with its row's keys set, parsed as a config file is. Each BN
# row builds on the plain 2-layer predictor, so it sets all five predictor keys.
_PRED2 = {
    "model.predictor": "mlp",
    "model.predictor_depth": "2",
    "model.bn_target": "false",
    "model.bn_predictor_hidden": "false",
    "model.bn_predictor_output": "false",
}
_PRED2_TBN = {**_PRED2, "model.bn_target": "true"}
_PRED2_TBN_HBN = {**_PRED2_TBN, "model.bn_predictor_hidden": "true"}
ABLATIONS = {
    # the naive targets first, the default last
    "ablation-target": [
        (mode, {"loss.cpl.target": mode})
        for mode in ("random-point", "farthest-point", "sample-mean", "leave-one-out-mean")
    ],
    "ablation-bn": [
        ("no-pred", {**_PRED2, "model.predictor": "none"}),
        ("pred2", _PRED2),
        ("pred2+tbn", _PRED2_TBN),
        ("pred2+tbn+hbn", _PRED2_TBN_HBN),
        ("pred4+tbn+hbn", {**_PRED2_TBN_HBN, "model.predictor_depth": "4"}),
        ("pred2+tbn+hbn+obn", {**_PRED2_TBN_HBN, "model.bn_predictor_output": "true"}),
    ],
}


class AblationRow(NamedTuple):
    variant: str
    map: float
    rank1: float
    config_hash: str


@dataclass
class AblationReport:
    rows: list
    configs: dict  # variant -> resolved config text

    def __post_init__(self):
        if len({row.variant for row in self.rows}) != len(self.rows):
            raise ConfigError("ablation variants must be unique")

    def write_csv(self, path):
        write_csv(path, AblationRow._fields, self.rows)


def split_retrieval_task(ds: LabeledDataset):
    """Disjoint-identity split: first half of identities train, second half
    test; each test identity contributes its first QUERIES_PER_ID samples
    as queries and the rest as gallery; all three keep the original labels."""
    ids = ds.identities
    if len(ids) < 4:
        raise ConfigError("retrieval task needs at least 4 identities to split")
    in_train = ds.labels < ids[len(ids) // 2]
    train = ds.subset(np.flatnonzero(in_train))
    test = ds.subset(np.flatnonzero(~in_train))
    queries, gallery = first_per_label(test.labels, QUERIES_PER_ID)
    return train, test.subset(queries), test.subset(gallery)


def run_retrieval_variant(split: tuple, cfg: ExperimentConfig, variant: str):
    """One ablation training run + held-out retrieval eval on a
    `split_retrieval_task` split; the run is seeded per variant name."""
    train, queries, gallery = split
    state, _, _ = train_run(train, replace(cfg, seed=subseed(cfg.seed, f"ablation/{variant}"), eval_every=0))
    result = evaluate_retrieval(
        embed_dataset(state, queries), queries.labels, embed_dataset(state, gallery), gallery.labels
    )
    return result.mean_ap, result.rank_k(1)


def ablation_configs(cfg: ExperimentConfig, kind: str) -> list:
    """(variant, config) for each row of ABLATIONS[kind]: cfg with the row's keys set."""
    return [
        (name, parse_config("".join(f"{key} = {value}\n" for key, value in row.items()), base=cfg))
        for name, row in ABLATIONS[kind]
    ]


def _run_ablation(ds: LabeledDataset, cfg: ExperimentConfig, kind: str) -> AblationReport:
    """Every variant of kind, trained and evaluated on one split of ds."""
    split = split_retrieval_task(ds)
    rows, configs = [], {}
    for name, vcfg in ablation_configs(cfg, kind):
        rows.append(AblationRow(name, *run_retrieval_variant(split, vcfg, name), config_hash(vcfg)))
        configs[name] = render_config(vcfg)
    return AblationReport(rows, configs)


def run_target_ablation(ds: LabeledDataset, cfg: ExperimentConfig) -> AblationReport:
    """Four identical runs differing only in the prediction-target mode."""
    return _run_ablation(ds, cfg, "ablation-target")


def run_bn_ablation(ds: LabeledDataset, cfg: ExperimentConfig) -> AblationReport:
    """Predictor depth and BN placement grid, from bare distance to all-BN."""
    return _run_ablation(ds, cfg, "ablation-bn")
