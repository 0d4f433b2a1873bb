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
from .errors import (
    DegenerateError,
    NonFiniteError,
    NumericalError,
    ShapeMismatchError,
)


@dataclass(frozen=True)
class Embedding:
    coords: np.ndarray  # (n, 2) float64
    source: str         # "pca_native" or "imported"


# Block subspace iteration (Rutishauser 1970; Saad, Numerical Methods for
# Large Eigenvalue Problems, 2011, ch. 5) finds the top two eigenvectors of
# a covariance whose top is gapped. A Ritz pair is accepted only when its
# residual is below _RESIDUAL * eps * lambda_1 * sqrt(d) and lambda_1,
# lambda_2 and lambda_3 lie more than _GAP * lambda_1 apart. A Weyl bound
# from norms the iteration already holds proves the gap below lambda_2 in
# O(d^2). Every other covariance goes to a full eigh
_BLOCK = 12
_STEPS = 8
_RESIDUAL = 16.0
_GAP = 1e-3
# below this largest variance, squares of the data and the norms of the
# covariance that the Weyl bound sums lose bits to underflow; above the
# huge one, LAPACK's eigensolvers scale the covariance by a factor that
# is not a power of two (dsyevd above a largest entry of about 2^484),
# which moves the eigenvectors' bits. The data are then scaled by a
# power of two, as are covariances that overflow
_TINY_VARIANCE = 2.0 ** -400
_HUGE_VARIANCE = 2.0 ** 400


def pca2(data: np.ndarray, *, copy: bool = True) -> Embedding:
    """Project rows onto the top-2 eigenvectors of the sample covariance.

    When d >= 24, block subspace iteration on the covariance, with a
    Rayleigh-Ritz step, finds the two vectors. They are accepted when
    both residuals are tiny, the top two eigenvalues are apart, and the
    third eigenvalue provably lies below the second, by a Weyl bound on
    the iteration's own norms. Otherwise, and when d < 24, a full
    ``np.linalg.eigh`` of the same covariance finds them, and eigenvalue
    ties break by the axis order of the first nonzero eigenvector
    component.

    Deterministic. Sign convention: the largest-magnitude component of
    each eigenvector is positive. When the column sums could overflow,
    the matrix is scaled in place, before the centring, by the power of
    two that brings its largest |value| into [1, 2). When the covariance
    overflows, or its largest variance is so small that the squares
    underflow or so large that the eigensolver would scale the covariance
    itself, the centred matrix is scaled so. The coordinates and the
    matrix are then scaled back; every float operation commutes with
    that scaling, so the embedding is the one an in-range copy of the
    data would give. Raises NonFiniteError for NaN or Inf values, and
    NumericalError when the coordinates overflow float64 or the
    eigensolver fails, which happens near the float64 limit.

    The rows are centred in one n x d float64 matrix. By default it is a
    copy, and ``data`` is left as it was. With ``copy=False``, a writeable
    float64 ndarray is centred in place, so no second n x d array is
    made; it then holds ``data - data.mean(axis=0)``, to the bit unless
    scaling it down made a value subnormal, and after an error its values
    are unspecified. Any other input is copied first and left as it was.
    """
    centered = owned_float64(data, copy)
    if centered.ndim != 2 or centered.shape[1] == 0:
        raise ShapeMismatchError("data must be an n x d matrix, d >= 1")
    n, d = centered.shape
    if n < 3:
        raise DegenerateError(f"PCA projection needs at least 3 points, got {n}")

    # one reduction is non-finite exactly when a value is, and bounds the
    # column sums: below DBL_MAX / (2n), no sum and no centred value
    # overflows
    top = np.maximum(centered.max(), -centered.min())
    if not np.isfinite(top):
        raise NonFiniteError("data contains NaN or Inf")
    shift = 0
    if top >= np.finfo(np.float64).max / (2 * n):
        shift = int(unit_shift(top))
        np.ldexp(centered, shift, out=centered)
    with np.errstate(over="ignore", invalid="ignore"):
        centered -= centered.mean(axis=0)
        cov = _covariance(centered)
    if not (np.isfinite(cov).all()
            and _TINY_VARIANCE <= cov.diagonal().max() <= _HUGE_VARIANCE):
        # products over- or underflow, or eigh would rescale: scale by
        # one power of two, found without an n x d temporary; scaled, a
        # finite matrix has a finite covariance
        rescale = int(unit_shift(centered))
        np.ldexp(centered, rescale, out=centered)
        shift += rescale
        cov = _covariance(centered)
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
    if shift:
        np.ldexp(centered, -shift, out=centered)
        with np.errstate(over="ignore"):
            np.ldexp(coords, -shift, out=coords)
        if not np.isfinite(coords).all():
            raise NumericalError("the projection overflows float64; rescale the data")
    return Embedding(coords=coords, source="pca_native")


def unit_shift(values: np.ndarray, axis=None):
    """The exponent of the power of two that brings the largest |value| of
    ``values`` (over ``axis``) into [1, 2); 1 where that is zero or not
    finite. Scaled so, finite values have squares that sum without
    overflow, and the largest square lies in [1, 4)."""
    top = np.maximum(values.max(axis=axis), -values.min(axis=axis))
    return 1 - np.frexp(top)[1]


def _covariance(centered: np.ndarray) -> np.ndarray:
    cov = centered.T @ centered
    cov /= len(centered) - 1
    return cov


def owned_float64(data, copy: bool) -> np.ndarray:
    """``data`` itself when ``copy`` is False and it is a writeable float64
    ndarray, which the caller then lets us change; otherwise a float64
    copy of it."""
    if (not copy and isinstance(data, np.ndarray)
            and data.dtype == np.float64 and data.flags.writeable):
        return np.asarray(data)
    return np.array(data, dtype=np.float64)


def _top2_iterated(cov: np.ndarray):
    """The top two Ritz vectors of cov as columns, or None if not accepted."""
    d = len(cov)
    with np.errstate(all="ignore"):
        try:
            q = np.linalg.qr(cov[:, :_BLOCK] + cov[:, _BLOCK:2 * _BLOCK])[0]
            for _ in range(_STEPS):
                q = np.linalg.qr(cov @ q)[0]
            cq = cov @ q
            a = q.T @ cq
            ritz, y = np.linalg.eigh(a)
        except np.linalg.LinAlgError:
            return None
        lam, top = ritz[[-1, -2]], y[:, [-1, -2]]
        vecs = q @ top
        residual = np.linalg.norm(cq @ top - vecs * lam, axis=0)
        eps = np.finfo(np.float64).eps
        if not ((residual <= _RESIDUAL * eps * lam[0] * np.sqrt(d)).all()
                and lam[0] - lam[1] > _GAP * lam[0]):
            return None
        # lambda_3 < mu is what remains to prove. This also catches a top
        # eigenvector that the start block missed, which the residuals
        # cannot see. In the basis [Q, Q_perp], cov = [[A, E'], [E, D]]
        # with ||E||_F = ||CQ - QA||_F and, by Pythagoras,
        # ||D||_F^2 = ||C||_F^2 - 2 ||CQ||_F^2 + ||A||_F^2. Dropping E moves
        # no eigenvalue by more than ||E||_2 (Weyl), and the third largest
        # of diag(A, D) is at most max(theta_3, ||D||_2), so
        # lambda_3 <= max(theta_3, ||D||_F) + ||E||_F. The three squared
        # norms are sums of at most d^2 terms, each rounded by at most
        # d^2 * eps * ||C||_F^2, and the difference weighs them 1, 2 and
        # 1, so `slack` restores what it may have lost. Every other
        # rounding here is of order d * eps * ||C||_F, at most
        # d^1.5 * eps * lambda_1 since cov is positive semidefinite: far
        # inside the _GAP * lambda_1 that mu keeps below lambda_2 at any d
        # that fits in memory
        mu = lam[1] - _GAP * lam[0]
        c2 = np.vdot(cov, cov)
        tail2 = c2 - 2.0 * np.vdot(cq, cq) + np.vdot(a, a)
        slack = 4.0 * d * d * eps * c2
        # np.maximum keeps a NaN from an overflowed norm, and NaN < mu fails
        tail = np.sqrt(np.maximum(tail2, 0.0) + slack)
        if not np.maximum(ritz[-3], tail) + np.linalg.norm(cq - q @ a) < mu:
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
