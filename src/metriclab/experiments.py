"""Scripted analysis experiments over the loss library.

Four reproductions on synthetic fixtures: per-sample loss surfaces for the
center and center-prediction losses, the boundary-error profile of a
jointly trained classifier, and the target-mode / BN-placement ablation
grids on a held-out-identity retrieval task. Each experiment takes the
loaded dataset and the `ExperimentConfig` that holds all of its settings.
Everything is seeded and exports CSV.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from . import losses
from .autograd import _all_finite, as_tensor
from .config import ExperimentConfig, config_hash, render_config
from .errors import ConfigError, ShapeError
from .metrics import evaluate_retrieval, l2_normalize
from .nn import CenterPredictor
from .sampling import LabeledDataset
from .seeding import subseed, substream
from .trainer import cpl_errors, embed_dataset, refit_predictor, train_accuracy, train_run

SURFACE_LOSS_KINDS = ("center", "cpl")

# fraction of lowest classifier margins treated as the boundary band
BOUNDARY_DECILE = 0.1


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

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def class_mean_error(self, label: int) -> float:
        mask = self.labels == label
        if not mask.any():
            raise ConfigError(f"surface has no points with label {label}")
        return float(self.errors[mask].mean())

    def boundary_ratio(self) -> float:
        """Mean error in the boundary band over mean error outside it."""
        if not self.boundary.any() or self.boundary.all():
            raise ConfigError("boundary ratio needs both band and interior points")
        return float(self.errors[self.boundary].mean() / self.errors[~self.boundary].mean())

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["x", "y", "label", "e", "boundary"])
        for j in range(self.n):
            writer.writerow(
                [
                    repr(float(self.points[0, j])),
                    repr(float(self.points[1, j])),
                    int(self.labels[j]),
                    repr(float(self.errors[j])),
                    int(self.boundary[j]),
                ]
            )
        return buf.getvalue()

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())


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


def run_loss_surface(ds: LabeledDataset, loss_kind: str, cfg: ExperimentConfig) -> SurfaceGrid:
    """Per-sample error surface of one intra-class loss on a 2-D fixture.

    center: squared distance to the class mean. cpl: squared prediction
    error of a predictor refit on the raw points (see `_refit_errors`).
    """
    if ds.dim != 2:
        raise ShapeError(f"loss surfaces need a 2-D fixture, got dim {ds.dim}")
    if loss_kind not in SURFACE_LOSS_KINDS:
        raise ConfigError(f"loss_kind must be one of {SURFACE_LOSS_KINDS}, got '{loss_kind}'")
    if loss_kind == "center":
        errors = center_surface_errors(ds)
    else:
        errors = _refit_errors(ds.features, ds.labels, cfg, "surface-predictor")
    return SurfaceGrid(
        points=ds.features, labels=ds.labels, errors=errors, boundary=np.zeros(ds.n, dtype=bool)
    )


def classifier_margins(state, ds: LabeledDataset) -> np.ndarray:
    """Per-sample margin: true-class logit minus best other-class logit."""
    logits = state.classifier(state.extractor(as_tensor(ds.features))).data
    cols = np.arange(ds.n)
    true = logits[ds.labels, cols]
    masked = logits.copy()
    masked[ds.labels, cols] = -np.inf
    return true - masked.max(axis=0)


def run_boundary_experiment(ds: LabeledDataset, cfg: ExperimentConfig, out_dir=None):
    """Train CE+CPL with 2-D embeddings, then profile the prediction error.

    Embeddings are L2-normalized, a fresh identity-initialized predictor is
    refit on them, and each sample is flagged boundary/interior by whether
    its classifier margin falls in the lowest decile. Returns (grid,
    train_accuracy).
    """
    if len(ds.identities) not in (2, 3):
        raise ConfigError(
            f"boundary experiment expects a 2- or 3-class dataset, got {len(ds.identities)} classes"
        )
    model_cfg = replace(cfg.model, embedding_dim=2)  # analysis needs a plane
    if model_cfg.predictor != "mlp":
        raise ConfigError("boundary experiment trains CE+CPL and needs model.predictor = mlp")
    state, _, _ = train_run(
        ds,
        model_cfg=model_cfg,
        loss_cfg=cfg.loss,
        sgd_cfg=cfg.sgd,
        sampler_cfg=cfg.sampler,
        seed=cfg.seed,
        eval_every=cfg.eval_every,
        out_dir=out_dir,
    )
    margins = classifier_margins(state, ds)
    normalized = l2_normalize(embed_dataset(state, ds))
    grid = SurfaceGrid(
        points=normalized,
        labels=ds.labels,
        errors=_refit_errors(normalized, ds.labels, cfg, "boundary-refit"),
        boundary=margins <= np.quantile(margins, BOUNDARY_DECILE),
    )
    return grid, train_accuracy(state, ds)


# -- ablations on a held-out-identity retrieval task ---------------------------

# Table-style row order: the naive targets first, the default last
TARGET_ABLATION_MODES = ("random-point", "farthest-point", "sample-mean", "leave-one-out-mean")

BN_ABLATION_VARIANTS = (
    # (name, predictor, depth, bn_target, bn_hidden, bn_output)
    ("no-pred", "none", 2, False, False, False),
    ("pred2", "mlp", 2, False, False, False),
    ("pred2+tbn", "mlp", 2, True, False, False),
    ("pred2+tbn+hbn", "mlp", 2, True, True, False),
    ("pred4+tbn+hbn", "mlp", 4, True, True, False),
    ("pred2+tbn+hbn+obn", "mlp", 2, True, True, True),
)


@dataclass
class AblationRow:
    variant: str
    mean_ap: float
    rank1: float
    config_hash: str


@dataclass
class AblationReport:
    rows: list
    configs: dict  # variant -> resolved config text

    def __post_init__(self):
        if len({row.variant for row in self.rows}) != len(self.rows):
            raise ConfigError("ablation variants must be unique")

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["variant", "map", "rank1", "config_hash"])
        for row in self.rows:
            writer.writerow([row.variant, repr(row.mean_ap), repr(row.rank1), row.config_hash])
        return buf.getvalue()

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())


def split_retrieval_task(ds: LabeledDataset, queries_per_id: int = 4):
    """Disjoint-identity split: first half of identities train, second half
    test; each test identity contributes its first queries_per_id samples
    as queries and the rest as gallery."""
    ids = ds.identities
    if len(ids) < 4:
        raise ConfigError("retrieval task needs at least 4 identities to split")
    train_ids = set(ids[: len(ids) // 2])
    train = ds.subset(np.flatnonzero(np.isin(ds.labels, sorted(train_ids))))
    # dense remap so the classifier head matches the training identities
    lut = {old: new for new, old in enumerate(train.identities)}
    train = LabeledDataset(train.features, np.array([lut[l] for l in train.labels]))
    test = ds.subset(np.flatnonzero(~np.isin(ds.labels, sorted(train_ids))))
    q_idx, g_idx = [], []
    for ident in test.identities:
        cols = test.by_identity[ident]
        q_idx.extend(cols[:queries_per_id])
        g_idx.extend(cols[queries_per_id:])
    return train, test.subset(np.array(q_idx)), test.subset(np.array(g_idx))


def run_retrieval_variant(split: tuple, cfg: ExperimentConfig, variant: str):
    """One ablation training run + held-out retrieval eval on a
    `split_retrieval_task` split; the run is seeded per variant name."""
    train, queries, gallery = split
    state, _, _ = train_run(
        train,
        model_cfg=cfg.model,
        loss_cfg=cfg.loss,
        sgd_cfg=cfg.sgd,
        sampler_cfg=cfg.sampler,
        seed=subseed(cfg.seed, f"ablation/{variant}"),
        eval_every=0,
    )
    result = evaluate_retrieval(
        embed_dataset(state, queries), queries.labels, embed_dataset(state, gallery), gallery.labels
    )
    summary = result.summary()
    return summary["map"], summary["rank1"]


def _run_ablation(ds: LabeledDataset, variants: list) -> AblationReport:
    """Every (name, config) variant trained and evaluated on one split of ds."""
    split = split_retrieval_task(ds)
    rows, configs = [], {}
    for name, vcfg in variants:
        mean_ap, rank1 = run_retrieval_variant(split, vcfg, name)
        rows.append(AblationRow(name, mean_ap, rank1, config_hash(vcfg)))
        configs[name] = render_config(vcfg)
    return AblationReport(rows, configs)


def run_target_ablation(ds: LabeledDataset, cfg: ExperimentConfig) -> AblationReport:
    """Four identical runs differing only in the prediction-target mode."""
    variants = [
        (mode, replace(cfg, loss=replace(cfg.loss, cpl_target=mode))) for mode in TARGET_ABLATION_MODES
    ]
    return _run_ablation(ds, variants)


def run_bn_ablation(ds: LabeledDataset, cfg: ExperimentConfig) -> AblationReport:
    """Predictor depth and BN placement grid, from bare distance to all-BN."""
    variants = []
    for name, predictor, depth, tbn, hbn, obn in BN_ABLATION_VARIANTS:
        model = replace(
            cfg.model,
            predictor=predictor,
            predictor_depth=depth,
            bn_target=tbn,
            bn_predictor_hidden=hbn,
            bn_predictor_output=obn,
        )
        variants.append((name, replace(cfg, model=model)))
    return _run_ablation(ds, variants)
