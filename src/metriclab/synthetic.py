"""Seeded Gaussian mixture fixtures.

Standard normals come from the Box-Muller transform over uniforms drawn
from numpy's PCG64 generator (see seeding.substream), so the sampling
algorithm is pinned down exactly. Components are axis-aligned: a sample
is mean + sqrt(var) * z, with one variance per axis (or one for all).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .sampling import LabeledDataset
from .seeding import substream

__all__ = [
    "GaussianSpec",
    "standard_normal",
    "sample_mixture",
    "two_class_fixture",
    "bimodal_class_fixture",
    "three_class_fixture",
    "four_class_fixture",
    "retrieval_fixture",
    "FIXTURES",
]


@dataclass
class GaussianSpec:
    """One axis-aligned mixture component: mean vector, variance (a scalar or
    one per axis), count, class label."""

    mean: np.ndarray
    var: np.ndarray
    count: int
    label: int

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        d = self.mean.size
        try:
            self.var = np.broadcast_to(np.asarray(self.var, dtype=np.float64), (d,))
        except ValueError:
            raise ConfigError(f"variance must be a scalar or {d} values, got {np.shape(self.var)}") from None
        if self.count < 1:
            raise ConfigError("component count must be >= 1")
        if not (self.var >= 0.0).all():
            raise ConfigError("variances must be >= 0")


def standard_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals via Box-Muller on uniforms from rng."""
    m = (n + 1) // 2
    u1 = 1.0 - rng.random(m)  # (0, 1], keeps log finite
    u2 = rng.random(m)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
    return z[:n]


def sample_mixture(components: list, seed: int) -> LabeledDataset:
    """Draw every component with its own named substream; samples appear in
    component order (shuffle downstream if order matters)."""
    if not components:
        raise ConfigError("mixture needs at least one component")
    dim = components[0].mean.size
    blocks, labels = [], []
    for idx, comp in enumerate(components):
        if comp.mean.size != dim:
            raise ConfigError("all components must share the feature dimension")
        rng = substream(seed, f"mixture-component/{idx}")
        z = standard_normal(rng, dim * comp.count).reshape(dim, comp.count)
        blocks.append(comp.mean[:, None] + np.sqrt(comp.var)[:, None] * z)
        labels.append(np.full(comp.count, comp.label, dtype=np.int64))
    return LabeledDataset(np.concatenate(blocks, axis=1), np.concatenate(labels))


# -- named fixtures ---------------------------------------------------------------


def two_class_fixture(seed: int, n_per_class: int = 500) -> LabeledDataset:
    """Two separated 2-D Gaussians: class 0 isotropic (var 0.25), class 1
    elongated (vars 4.0 and 0.25, condition number 16)."""
    comps = [
        GaussianSpec(mean=(-4.0, 0.0), var=0.25, count=n_per_class, label=0),
        GaussianSpec(mean=(4.0, 0.0), var=(4.0, 0.25), count=n_per_class, label=1),
    ]
    return sample_mixture(comps, seed)


def bimodal_class_fixture(seed: int, n_per_component: int = 500) -> LabeledDataset:
    """Class 0 is bimodal (isotropic modes at (-4, 0) and (4, 0)), class 1 a
    compact distractor at (0, 8); the class-0 mean sits between its modes,
    far from every class-0 sample."""
    comps = [
        GaussianSpec(mean=(-4.0, 0.0), var=0.25, count=n_per_component, label=0),
        GaussianSpec(mean=(4.0, 0.0), var=0.25, count=n_per_component, label=0),
        GaussianSpec(mean=(0.0, 8.0), var=0.25, count=n_per_component, label=1),
    ]
    return sample_mixture(comps, seed)


def three_class_fixture(seed: int, n_per_class: int = 150) -> LabeledDataset:
    """Three overlapping 2-D Gaussians at radius 3, unit variance; the
    overlap keeps decision boundaries populated."""
    comps = []
    for c, angle in enumerate((90.0, 210.0, 330.0)):
        t = np.deg2rad(angle)
        mean = (3.0 * np.cos(t), 3.0 * np.sin(t))
        comps.append(GaussianSpec(mean=mean, var=1.0, count=n_per_class, label=c))
    return sample_mixture(comps, seed)


def four_class_fixture(seed: int, n_per_class: int = 32) -> LabeledDataset:
    """Four well-separated corner Gaussians; linearly separable."""
    comps = [
        GaussianSpec(mean=(sx * 5.0, sy * 5.0), var=0.25, count=n_per_class, label=c)
        for c, (sx, sy) in enumerate([(-1, -1), (-1, 1), (1, -1), (1, 1)])
    ]
    return sample_mixture(comps, seed)


def retrieval_fixture(
    seed: int, n_ids: int = 32, per_id: int = 12, dim: int = 16
) -> LabeledDataset:
    """n_ids Gaussian identities in dim-D: means drawn N(0, 9 I), intra-class
    var 0.49, so identities are distinct but not trivially separated."""
    mean_rng = substream(seed, "retrieval-means")
    comps = [
        GaussianSpec(
            mean=3.0 * standard_normal(mean_rng, dim),
            var=0.49,
            count=per_id,
            label=i,
        )
        for i in range(n_ids)
    ]
    return sample_mixture(comps, seed)


FIXTURES = {
    "two-class": two_class_fixture,
    "bimodal": bimodal_class_fixture,
    "three-class": three_class_fixture,
    "four-class": four_class_fixture,
    "retrieval": retrieval_fixture,
}
