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


# Block subspace iteration (Rutishauser 1970; Saad, Numerical Methods for
# Large Eigenvalue Problems, 2011, ch. 5) finds the top two eigenvectors of
# a covariance whose top is gapped. A Ritz pair is accepted only when its
# residual is below _RESIDUAL * eps * lambda_1 * sqrt(d) and lambda_1,
# lambda_2 and lambda_3 lie more than _GAP * lambda_1 apart; every other
# covariance goes to a full eigh
_BLOCK = 12
_STEPS = 8
_RESIDUAL = 16.0
_GAP = 1e-3


def pca2(data: np.ndarray) -> Embedding:
    """Project rows onto the top-2 eigenvectors of the sample covariance.

    When d >= 24, block subspace iteration on the covariance, with a
    Rayleigh-Ritz step, finds the two vectors. They are accepted when
    both residuals are tiny, the top two eigenvalues are apart, and a
    Cholesky factorisation proves that the third eigenvalue lies below
    the second. Otherwise, and when d < 24, a full ``np.linalg.eigh`` of
    the same covariance finds them, and eigenvalue ties break by the axis
    order of the first nonzero eigenvector component.

    Deterministic. Sign convention: the largest-magnitude component of
    each eigenvector is positive. Raises NumericalError when the centring
    or the covariance overflows float64 or the eigensolver fails, which
    happens at scales near the float64 limit.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ShapeMismatchError("data must be a 2-D matrix")
    n, d = data.shape
    if n < 3:
        raise DegenerateError(f"PCA projection needs at least 3 points, got {n}")

    with np.errstate(over="ignore", invalid="ignore"):
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered
        cov /= n - 1
    if not np.isfinite(cov).all():
        raise NumericalError("the covariance overflows float64; rescale the data")
    vecs = _top2_iterated(cov) if d >= 2 * _BLOCK else None
    if vecs is None:
        vecs = _top2_eigh(cov)
    coords = np.zeros((n, 2), dtype=np.float64)
    for out_col in range(vecs.shape[1]):
        v = vecs[:, out_col].copy()
        peak = int(np.argmax(np.abs(v)))
        if v[peak] < 0:
            v = -v
        coords[:, out_col] = centered @ v
    return Embedding(coords=coords, source="pca_native")


def _top2_iterated(cov: np.ndarray):
    """The top two Ritz vectors of cov as columns, or None if not accepted."""
    d = len(cov)
    with np.errstate(all="ignore"):
        try:
            q = np.linalg.qr(cov[:, :_BLOCK] + cov[:, _BLOCK:2 * _BLOCK])[0]
            for _ in range(_STEPS):
                q = np.linalg.qr(cov @ q)[0]
            ritz, y = np.linalg.eigh(q.T @ (cov @ q))
        except np.linalg.LinAlgError:
            return None
        lam = ritz[[-1, -2]]
        vecs = q @ y[:, [-1, -2]]
        residual = np.linalg.norm(cov @ vecs - vecs * lam, axis=0)
        bound = _RESIDUAL * np.finfo(np.float64).eps * lam[0] * np.sqrt(d)
        if not ((residual <= bound).all() and lam[0] - lam[1] > _GAP * lam[0]):
            return None
        # if mu*I - (cov - sum of lam_k v_k v_k^T) is positive definite,
        # then lambda_3 < mu, since a rank-2 update lifts an eigenvalue past
        # at most two others (Weyl). This also catches a top eigenvector
        # that the start block missed, which the residuals cannot see
        mu = lam[1] - _GAP * lam[0]
        shifted = (vecs * lam) @ vecs.T
        shifted -= cov
        shifted.flat[::d + 1] += mu
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            return None
    return vecs


def _top2_eigh(cov: np.ndarray) -> np.ndarray:
    """The top two eigenvectors of cov by a full eigh, as columns."""
    try:
        eigvals, eigvecs = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"PCA eigensolver failed: {exc}") from exc
    # order by descending eigenvalue; ties by first nonzero component's axis
    nonzero = eigvecs != 0
    tie = np.where(nonzero.any(axis=0), nonzero.argmax(axis=0), len(cov))
    order = np.lexsort((tie, -eigvals))
    return eigvecs[:, order[:2]]


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
