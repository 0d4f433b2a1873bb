"""Clustering agreement metrics: ARI, NMI, anomaly precision/recall/F1.

The anomaly label -1 is treated as an ordinary category in ARI and NMI
(unmerged anomalies therefore depress both scores). NMI normalizes
mutual information by the arithmetic mean of the entropies and uses
natural logarithms.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyError, LengthMismatchError


def _label_pair(true_labels, pred_labels):
    """The two label vectors as int64, checked to be 1-D, of one length
    and not empty."""
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(pred_labels, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1:
        raise LengthMismatchError(
            f"label vectors must be 1-D of one length: {t.shape} vs {p.shape}"
        )
    if len(t) == 0:
        raise EmptyError("label vectors are empty")
    return t, p


def _contingency(true_labels, pred_labels):
    t, p = _label_pair(true_labels, pred_labels)
    _, ti = np.unique(t, return_inverse=True)
    _, pi = np.unique(p, return_inverse=True)
    r = ti.max() + 1
    c = pi.max() + 1
    counts = np.zeros((r, c), dtype=np.int64)
    np.add.at(counts, (ti, pi), 1)
    return counts


def ari(true_labels, pred_labels) -> float:
    """Adjusted Rand index over the contingency table; 1 iff identical."""
    counts = _contingency(true_labels, pred_labels)
    # pair counts as Python ints: sum_a * sum_b passes int64 from about
    # n = 200 000
    n = int(counts.sum())
    sum_cells = int((counts * (counts - 1) // 2).sum())
    a = counts.sum(axis=1)
    b = counts.sum(axis=0)
    sum_a = int((a * (a - 1) // 2).sum())
    sum_b = int((b * (b - 1) // 2).sum())
    pairs = n * (n - 1) // 2
    expected = sum_a * sum_b / pairs if pairs else 0.0
    maximum = 0.5 * (sum_a + sum_b)
    if maximum == expected:
        return 1.0
    return float((sum_cells - expected) / (maximum - expected))


def nmi(true_labels, pred_labels) -> float:
    """Mutual information normalized by the mean of the two entropies."""
    counts = _contingency(true_labels, pred_labels)
    occupied = counts > 0
    if (occupied.sum(axis=0) == 1).all() and (occupied.sum(axis=1) == 1).all():
        # one partition relabels the other; the sums below may round
        # to just under 1
        return 1.0
    n = counts.sum()
    # every label in the table occurs, so no marginal is zero
    pt = counts.sum(axis=1) / n
    pp = counts.sum(axis=0) / n
    h_t = -np.sum(pt * np.log(pt))
    h_p = -np.sum(pp * np.log(pp))
    if h_t == 0.0 or h_p == 0.0:
        return 0.0
    i, j = np.nonzero(counts)
    pij = counts[i, j] / n
    mi = np.sum(pij * np.log(pij / (pt[i] * pp[j])))
    value = mi / ((h_t + h_p) / 2.0)
    return float(min(max(value, 0.0), 1.0))


def anomaly_prf(true_labels, pred_labels):
    """Precision, recall and F1 of the binary event label == -1.

    Degenerate denominators score 0 by convention (never NaN).
    """
    t, p = _label_pair(true_labels, pred_labels)
    true_pos = int(((t == -1) & (p == -1)).sum())
    pred_pos = int((p == -1).sum())
    real_pos = int((t == -1).sum())
    precision = true_pos / pred_pos if pred_pos else 0.0
    recall = true_pos / real_pos if real_pos else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0 else 0.0
    )
    return float(precision), float(recall), float(f1)
