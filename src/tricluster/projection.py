"""2-D proxy embeddings: native PCA or an externally computed import.

Only the projection lives here; everything downstream (triangulation,
pruning, merging, anomaly scoring) accepts any 2-D proxy, so external
embeddings (e.g. UMAP output) are imported from file rather than
recomputed natively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import io
from .errors import DegenerateError, NumericalError, ShapeMismatchError


@dataclass(frozen=True)
class Embedding:
    coords: np.ndarray  # (n, 2) float64
    source: str         # "pca_native" or "imported"


def pca2(data: np.ndarray) -> Embedding:
    """Project rows onto the top-2 eigenvectors of the sample covariance.

    Deterministic. Sign convention: the largest-magnitude component of
    each eigenvector is positive. Eigenvalue ties break by the axis order
    of the first nonzero eigenvector component. Raises NumericalError
    when the covariance is not finite or its eigensolver fails, which
    happens at scales near the float64 limit.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ShapeMismatchError("data must be a 2-D matrix")
    n, d = data.shape
    if n < 3:
        raise DegenerateError(f"PCA projection needs at least 3 points, got {n}")

    centered = data - data.mean(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        cov = centered.T @ centered / (n - 1)
    if not np.isfinite(cov).all():
        raise NumericalError("the covariance overflows float64; rescale the data")
    try:
        eigvals, eigvecs = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"PCA eigensolver failed: {exc}") from exc

    # order by descending eigenvalue; ties by first nonzero component's axis
    def tie_key(idx):
        v = eigvecs[:, idx]
        nz = np.nonzero(v)[0]
        return int(nz[0]) if len(nz) else d

    order = sorted(range(d), key=lambda i: (-eigvals[i], tie_key(i)))
    coords = np.zeros((n, 2), dtype=np.float64)
    for out_col, idx in enumerate(order[:2]):
        v = eigvecs[:, idx].copy()
        peak = int(np.argmax(np.abs(v)))
        if v[peak] < 0:
            v = -v
        coords[:, out_col] = centered @ v
    return Embedding(coords=coords, source="pca_native")


def import_embedding(path, data: np.ndarray, fmt: str = "csv") -> Embedding:
    """Load an externally computed 2-column embedding aligned with data."""
    coords = io.load_matrix(path, fmt=fmt)
    return embedding_from_array(coords, data)


def embedding_from_array(coords: np.ndarray, data: np.ndarray) -> Embedding:
    """Wrap an in-memory (n, 2) array as an imported embedding."""
    coords = np.asarray(coords, dtype=np.float64)
    data = np.asarray(data, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ShapeMismatchError(
            f"embedding must have exactly 2 columns, got shape {coords.shape}"
        )
    if coords.shape[0] != data.shape[0]:
        raise ShapeMismatchError(
            f"embedding has {coords.shape[0]} rows, data has {data.shape[0]}"
        )
    return Embedding(coords=coords, source="imported")
