"""Flat dotted-key experiment configs.

One `key = value` pair per line, `#` comments, every key optional except
`kind`. parse -> resolve defaults -> render gives a canonical text form
that round-trips exactly, which is what makes resolved-config reruns and
config hashing meaningful.

The keys derive from `ExperimentConfig`'s fields, in field order, which
is the render order. A section field's key is `<section>.<field>`; at the
top level and in the loss section the first `_` of a field name reads as
a dot (`eval_every` is `eval.every`, `rll_alpha` is `loss.rll.alpha`), and
`loss.weights` gives one `loss.<name>.weight` key per loss. A key's
default and its value type (bool, int, float, str or int tuple) are its
field's. Each section (dataset, model, loss, sgd, sampler) is a flat
dataclass of plain values defined here, the loss weights dict included, so
`parse_config` builds it from its keys in one call; the loss section also
holds the pairwise losses' margins and scales.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .errors import ConfigError
from .cifar_io import load_cifar_features
from .losses import TARGET_MODES
from .sampling import LabeledDataset, load_dataset_csv
from .seeding import subseed
from .synthetic import FIXTURES

# each experiment kind, with the fixture picked when the config names none
KIND_FIXTURES = {
    "train": "four-class",
    "surface": "two-class",
    "boundary": "three-class",
    "ablation-target": "retrieval",
    "ablation-bn": "retrieval",
}
KINDS = tuple(KIND_FIXTURES)
DATASET_SOURCES = ("synthetic", "csv", "cifar")
SURFACE_LOSS_KINDS = ("center", "cpl")
SURFACE_LOSSES = (*SURFACE_LOSS_KINDS, "both")
LOSS_NAMES = ("ce", "cpl", "center", "triplet", "circle", "lifted", "rll")


def _parse_bool(s: str) -> bool:
    if s == "true":
        return True
    if s == "false":
        return False
    raise ValueError("expected 'true' or 'false'")


def _parse_float(s: str) -> float:
    value = float(s)
    # nan would pass every `x <= 0` range check downstream
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {s!r}")
    return value


def int64(s: str) -> int:
    """The int codec, also of `run --seed`: numpy fails past int64 with a traceback."""
    value = int(s)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"expected an integer in the int64 range, got {s!r}")
    return value


def _parse_ints(s: str) -> tuple:
    if not s:
        return ()
    return tuple(int64(part.strip()) for part in s.split(","))


# type of a field's default -> (parse, render)
_CODECS = {
    bool: (_parse_bool, lambda v: "true" if v else "false"),
    int: (int64, str),
    float: (_parse_float, lambda v: repr(float(v))),
    str: (str, str),
    tuple: (_parse_ints, lambda v: ",".join(str(int(x)) for x in v)),
}


@dataclass
class DatasetConfig:
    source: str = "synthetic"
    fixture: str = ""
    path: str = ""
    classes: tuple = ()
    max_per_class: int = 0
    downsample: int = 4

    def __post_init__(self):
        if self.source not in DATASET_SOURCES:
            raise ConfigError(f"dataset.source must be one of {DATASET_SOURCES}, got '{self.source}'")
        if self.source == "synthetic":
            if self.fixture and self.fixture not in FIXTURES:
                raise ConfigError(
                    f"dataset.fixture '{self.fixture}' unknown; choose from {sorted(FIXTURES)}"
                )
        elif not self.path:
            raise ConfigError(f"dataset.path is required for dataset.source = {self.source}")
        if self.max_per_class < 0:
            raise ConfigError("dataset.max_per_class must be >= 0 (0 keeps everything)")

    def load(self, seed: int) -> LabeledDataset:
        if self.source == "synthetic":
            return FIXTURES[self.fixture](seed=subseed(seed, "dataset"))
        if self.source == "csv":
            return load_dataset_csv(self.path)
        return load_cifar_features(
            self.path,
            class_filter=list(self.classes) if self.classes else None,
            max_per_class=self.max_per_class or None,
            factor=self.downsample,
        )


@dataclass
class ModelConfig:
    """Architecture knobs for one training run."""

    extractor_hidden: tuple = (32, 32)
    embedding_dim: int = 8
    predictor: str = "mlp"  # "mlp" | "none"
    predictor_depth: int = 2
    predictor_hidden: int = 64
    bn_target: bool = True
    bn_predictor_hidden: bool = False
    bn_predictor_output: bool = False

    def __post_init__(self):
        if self.predictor not in ("mlp", "none"):
            raise ConfigError(f"model.predictor must be mlp or none, got {self.predictor!r}")
        if self.predictor_depth not in (2, 4):
            raise ConfigError(f"model.predictor_depth must be 2 or 4, got {self.predictor_depth}")
        if any(width < 1 for width in self.extractor_hidden):
            raise ConfigError(f"model.extractor_hidden widths must be positive, got {self.extractor_hidden}")
        if self.embedding_dim < 1:
            raise ConfigError("model.embedding_dim must be positive")
        if self.predictor_hidden < 1:
            raise ConfigError("model.predictor_hidden must be positive")
        if self.predictor == "none" and (self.bn_predictor_hidden or self.bn_predictor_output):
            raise ConfigError("model.bn_predictor_hidden and model.bn_predictor_output require model.predictor = mlp")


@dataclass
class LossConfig:
    """Which losses train, their weights, the CPL target policy, and the
    margin and scale constants of the pairwise losses."""

    weights: dict = field(default_factory=lambda: {"ce": 1.0, "cpl": 1.0})
    cpl_target: str = "leave-one-out-mean"
    triplet_margin: float = 0.3
    circle_margin: float = 0.25
    circle_scale: float = 32.0
    lifted_margin: float = 1.0
    rll_alpha: float = 1.2
    rll_margin: float = 0.4

    def __post_init__(self):
        for name in ("triplet", "circle", "lifted", "rll"):
            if getattr(self, f"{name}_margin") < 0:
                raise ConfigError(f"loss.{name}.margin must be non-negative")
        if self.circle_scale <= 0:
            raise ConfigError("loss.circle.scale must be positive")
        if not self.rll_alpha > self.rll_margin:
            raise ConfigError("loss.rll.alpha must exceed loss.rll.margin")
        unknown = set(self.weights) - set(LOSS_NAMES)
        if unknown:
            raise ConfigError(f"unknown loss names {sorted(unknown)}; expected {LOSS_NAMES}")
        for name, w in self.weights.items():
            if w < 0:
                raise ConfigError(f"loss.{name}.weight must be >= 0")
        # every loss named, in LOSS_NAMES order: one the dict omits weighs 0.0
        self.weights = {name: float(self.weights.get(name, 0.0)) for name in LOSS_NAMES}
        if self.cpl_target not in TARGET_MODES:
            raise ConfigError(f"loss.cpl.target must be one of {TARGET_MODES}, got '{self.cpl_target}'")

    def enabled(self):
        return [name for name in LOSS_NAMES if self.weights[name] > 0.0]


@dataclass
class SgdConfig:
    """Milestone step schedule: lr = base_lr * decay^(milestones passed)."""

    base_lr: float = 3.5e-4
    milestones: tuple = (10, 20)
    decay_factor: float = 0.1
    epochs: int = 30
    momentum: float = 0.9

    def __post_init__(self):
        self.milestones = tuple(int(m) for m in self.milestones)
        if self.base_lr <= 0:
            raise ConfigError("sgd.base_lr must be positive")
        if self.epochs < 1:
            raise ConfigError("sgd.epochs must be >= 1")
        if not 0 <= self.momentum < 1:
            raise ConfigError("sgd.momentum must be in [0, 1)")
        if not 0 < self.decay_factor <= 1:
            raise ConfigError("sgd.decay_factor must be in (0, 1]")
        if any(b <= a for a, b in zip(self.milestones, self.milestones[1:])):
            raise ConfigError("sgd.milestones must be strictly increasing")
        if any(m < 1 or m >= self.epochs for m in self.milestones):
            raise ConfigError("sgd.milestones must lie in [1, epochs)")


@dataclass
class PKSamplerConfig:
    p: int = 4
    k: int = 4
    allow_resample: bool = True

    def __post_init__(self):
        if self.p < 2:
            raise ConfigError("sampler.p: need at least 2 identities per batch")
        if self.k < 2:
            raise ConfigError(
                "sampler.k: need at least 2 instances per identity "
                "(center-prediction targets average the other k-1 samples)"
            )


@dataclass
class ExperimentConfig:
    kind: str
    seed: int = 0
    out: str = ""
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    sgd: SgdConfig = field(default_factory=SgdConfig)
    sampler: PKSamplerConfig = field(default_factory=PKSamplerConfig)
    eval_every: int = 10
    refit_steps: int = 400
    refit_lr: float = 0.005
    surface_loss: str = "both"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got '{self.kind}'")
        if self.dataset.source == "synthetic" and not self.dataset.fixture:
            self.dataset = replace(self.dataset, fixture=KIND_FIXTURES[self.kind])
        if self.eval_every < 0:
            raise ConfigError("eval.every must be >= 0 (0 disables snapshots)")
        if self.refit_steps < 1:
            raise ConfigError("refit.steps must be >= 1")
        if self.refit_lr <= 0:
            raise ConfigError("refit.lr must be positive")
        if self.surface_loss not in SURFACE_LOSSES:
            raise ConfigError(f"surface.loss must be one of {SURFACE_LOSSES}")
        # the target mode and the predictor's BN, which the ablations vary, act only through CPL
        if self.kind in ("ablation-target", "ablation-bn") and self.loss.weights["cpl"] == 0:
            raise ConfigError(f"loss.cpl.weight must be > 0 for {self.kind}: its rows vary only CPL settings")
        # the refit predictor starts as the identity map of the plane, which needs hidden >= 2 * 2
        refits = self.kind == "boundary" or (self.kind == "surface" and self.surface_loss != "center")
        if refits and self.model.predictor_hidden < 4:
            raise ConfigError(
                f"model.predictor_hidden must be >= 4 for {self.kind}: its refit predictor starts as "
                f"the identity map of the plane, got {self.model.predictor_hidden}"
            )
        if self.kind == "boundary" and self.model.embedding_dim != 2:
            raise ConfigError(f"model.embedding_dim must be 2 for boundary's plane, got {self.model.embedding_dim}")


def _field_default(f):
    if f.default_factory is not MISSING:
        return f.default_factory()
    return None if f.default is MISSING else f.default


class _Key(NamedTuple):
    path: tuple  # field names from ExperimentConfig down; a loss weight's path ends in its loss name
    parse: Callable
    render: Callable

    def get(self, cfg):
        for name in self.path:
            cfg = cfg[name] if isinstance(cfg, dict) else getattr(cfg, name)
        return cfg


# every ExperimentConfig field at its default; `kind` is None
_DEFAULTS = SimpleNamespace(**{f.name: _field_default(f) for f in fields(ExperimentConfig)})
# ExperimentConfig's sections, name -> dataclass; a section's fields are plain values
_SECTIONS = {name: type(value) for name, value in vars(_DEFAULTS).items() if is_dataclass(value)}


def _derive_schema() -> dict:
    """key -> _Key for every leaf field, in field order (the render order)."""
    schema = {}

    def add(key, path, default):
        schema[key] = _Key(path, *_CODECS[str if default is None else type(default)])

    for name, value in vars(_DEFAULTS).items():
        if name not in _SECTIONS:
            add(name.replace("_", ".", 1), (name,), value)
            continue
        for f in fields(value):
            default = getattr(value, f.name)
            if f.name == "weights":
                for loss in LOSS_NAMES:
                    add(f"loss.{loss}.weight", (name, f.name, loss), default[loss])
            else:
                # loss keys group by loss: `rll_alpha` is loss.rll.alpha
                leaf = f.name.replace("_", ".", 1) if name == "loss" else f.name
                add(f"{name}.{leaf}", (name, f.name), default)
    return schema


# key -> _Key, derived once at import
SCHEMA = _derive_schema()


def _parse_raw(text: str) -> dict:
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{stripped}'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config key '{key}'")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate config key '{key}'")
        try:
            raw[key] = SCHEMA[key].parse(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for '{key}': {exc}") from exc
    return raw


def parse_config(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """The config that text sets. A key the text omits keeps base's value,
    or its default when no base is given; only a base lets text omit `kind`."""
    raw = _parse_raw(text)
    if base is None and "kind" not in raw:
        raise ConfigError("config must set 'kind'")
    fallback = _DEFAULTS if base is None else base
    tree = {}
    for key, spec in SCHEMA.items():
        node = tree
        for name in spec.path[:-1]:
            node = node.setdefault(name, {})
        node[spec.path[-1]] = raw[key] if key in raw else spec.get(fallback)
    for name, section in _SECTIONS.items():
        tree[name] = section(**tree[name])
    return ExperimentConfig(**tree)


def render_config(cfg: ExperimentConfig) -> str:
    return "".join(f"{key} = {spec.render(spec.get(cfg))}\n" for key, spec in SCHEMA.items())


def config_hash(cfg: ExperimentConfig) -> str:
    """First 12 hex digits of sha256 over the rendered config text.

    The output directory is blanked first so reruns into different
    directories hash identically.
    """
    return hashlib.sha256(render_config(replace(cfg, out="")).encode("utf-8")).hexdigest()[:12]
