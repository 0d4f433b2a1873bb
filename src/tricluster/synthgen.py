"""Synthetic benchmark generators with ground-truth labels.

``generate`` builds the standard benchmark mix: Gaussian blobs, one
irregular sinusoidal "snake" cluster, and uniformly scattered anomalies
inside the bounding box of the regular points. Blob spread scales with
dimensionality: cluster_std = overlap * sqrt(n_dim) * 2.0.

Randomness uses PCG64 generators. The root seed is split into
independent child streams for blobs, snake and anomalies via
SeedSequence.spawn, so adding anomalies never perturbs the blob draw.
Identical seeds give bit-identical output across runs and platforms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class SynthConfig:
    n_points: int = 500
    n_clusters: int = 4
    n_dim: int = 5
    overlap: float = 0.1
    anomaly_fraction: float = 0.05
    snake_fraction: float = 0.20
    random_state: int = 0

    @property
    def cluster_std(self) -> float:
        return self.overlap * math.sqrt(self.n_dim) * 2.0

    def _counts(self):
        """(anomalies, snake points, blob points), as ``generate`` says."""
        n_anom = int(self.anomaly_fraction * self.n_points + 0.5)
        n_rest = self.n_points - n_anom
        n_snake = int(self.snake_fraction * n_rest + 0.5)
        return n_anom, n_snake, n_rest - n_snake

    def validate(self):
        """Raise ConfigError, naming the field, for a value ``generate``
        cannot use."""
        for name in ("n_points", "n_clusters", "n_dim"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ConfigError(
                    f"{name} must be a positive integer, got {value!r}")
        for name in ("overlap", "anomaly_fraction", "snake_fraction"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ConfigError(
                    f"{name} must be a real number, got {value!r}")
        if not 0.0 <= self.anomaly_fraction < 1.0:
            raise ConfigError("anomaly_fraction must lie in [0, 1)")
        if not 0.0 <= self.snake_fraction < 1.0:
            raise ConfigError("snake_fraction must lie in [0, 1)")
        if not self.overlap > 0.0:
            raise ConfigError("overlap must be positive")
        if self.n_points < self.n_clusters:
            raise ConfigError("n_points must be at least n_clusters")
        if self._counts()[2] < self.n_clusters:
            raise ConfigError("not enough points left for the blobs: "
                              "lower anomaly_fraction or snake_fraction")


def _split_rngs(seed: int, n: int):
    children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.Generator(np.random.PCG64(c)) for c in children]


def generate(config: SynthConfig):
    """Blobs + snake + anomalies. Returns (matrix, ground-truth labels).

    Labels: blobs 0..n_clusters-1, snake n_clusters, anomalies -1.
    Counts round half-up: anomalies from n_points, the snake from the
    remainder, blobs split the rest as evenly as possible.
    """
    config.validate()
    d = config.n_dim
    k = config.n_clusters
    std = config.cluster_std
    n_anom, n_snake, n_blob = config._counts()

    rng_blob, rng_snake, rng_anom = _split_rngs(config.random_state, 3)

    centers = rng_blob.uniform(-10.0, 10.0, size=(k, d))
    base = n_blob // k
    counts = [base + (1 if i < n_blob % k else 0) for i in range(k)]
    blob_parts = []
    blob_labels = []
    for i, m in enumerate(counts):
        blob_parts.append(centers[i] + rng_blob.normal(0.0, std, size=(m, d)))
        blob_labels.extend([i] * m)
    blobs = np.vstack(blob_parts)

    parts = [blobs]
    labels = blob_labels
    if n_snake > 0:
        t = rng_snake.uniform(0.0, 4.0 * math.pi, size=n_snake)
        snake = np.zeros((n_snake, d))
        # map the unit curve's bounding box onto the central 80% quantile
        # box of the blob points, then add noise
        q_lo = np.quantile(blobs[:, 0], 0.10)
        q_hi = np.quantile(blobs[:, 0], 0.90)
        snake[:, 0] = q_lo + (np.sin(t) + 1.0) / 2.0 * (q_hi - q_lo)
        if d >= 2:
            q_lo = np.quantile(blobs[:, 1], 0.10)
            q_hi = np.quantile(blobs[:, 1], 0.90)
            snake[:, 1] = q_lo + (np.cos(t) + 1.0) / 2.0 * (q_hi - q_lo)
        snake += rng_snake.normal(0.0, 0.1 * std, size=(n_snake, d))
        parts.append(snake)
        labels.extend([k] * n_snake)

    if n_anom > 0:
        regular = np.vstack(parts)
        lo = regular.min(axis=0)
        hi = regular.max(axis=0)
        anoms = rng_anom.uniform(lo, hi, size=(n_anom, d))
        parts.append(anoms)
        labels.extend([-1] * n_anom)

    return np.vstack(parts), np.asarray(labels, dtype=np.int64)


def generate_degradation_pair(epsilon: float, seed: int):
    """A lattice disk and a concentric point band with radial gap epsilon.

    The two manifolds are parallel (constant normal distance epsilon) and
    every free boundary is convexly curved, so the triangulation has no
    long hull fans: the largest intra-manifold triangles stay near the
    lattice scale and only the gap-spanning triangles grow with epsilon.
    Point spacing is calibrated so the mean intra-manifold nearest-neighbor
    distance is 0.88. Labels are 0 (disk) and 1 (band).
    """
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    disk_rings = 6  # rings of the disk, the centre point included
    band_rows = 3   # rings of the band
    arc = 0.90    # spacing along each ring
    radial = 0.86  # spacing between rings
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    def ring(radius):
        if radius == 0.0:
            return [(0.0, 0.0)]
        m = max(6, int(round(2.0 * math.pi * radius / arc)))
        phase = rng.uniform(0.0, 2.0 * math.pi)
        return [
            (radius * math.cos(phase + 2.0 * math.pi * i / m),
             radius * math.sin(phase + 2.0 * math.pi * i / m))
            for i in range(m)
        ]

    pts = []
    labels = []
    for k in range(disk_rings):
        members = ring(k * radial)
        pts += members
        labels += [0] * len(members)
    disk_radius = (disk_rings - 1) * radial
    for j in range(band_rows):
        members = ring(disk_radius + epsilon + j * radial)
        pts += members
        labels += [1] * len(members)

    pts = np.asarray(pts) + rng.normal(0.0, 0.015, size=(len(pts), 2))
    return pts, np.asarray(labels, dtype=np.int64)


def generate_backprojection_demo(n_dim: int, n_tail: int, seed: int,
                                 n_points: int = 500):
    """Gaussian blob with tail points displaced along collapsed dimensions.

    The last n_tail rows are pushed 8 sigma away from the center along the
    dimensions beyond the first two, so an embedding built from the first
    two coordinates places them inside the cluster footprint. The n_tail
    largest-distance-from-center points are labeled -1 (by construction,
    exactly the displaced rows).
    """
    if n_dim < 3:
        raise ConfigError("backprojection demo needs n_dim >= 3")
    if not 0 <= n_tail < n_points:
        raise ConfigError("n_tail must lie in [0, n_points)")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    data = rng.normal(0.0, 1.0, size=(n_points, n_dim))
    if n_tail > 0:
        dirs = rng.normal(0.0, 1.0, size=(n_tail, n_dim - 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        data[-n_tail:, 2:] += 8.0 * dirs
    labels = np.zeros(n_points, dtype=np.int64)
    if n_tail > 0:
        norms = np.linalg.norm(data, axis=1)
        tail = np.argsort(-norms, kind="stable")[:n_tail]
        labels[tail] = -1
    return data, labels
