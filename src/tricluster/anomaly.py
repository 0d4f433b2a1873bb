"""Anomaly-group detection, scoring against neighbor clusters, merging.

Clusters no larger than tau become anomaly groups, provisionally labeled
-1. Each group A is scored against every cluster C that contains direct
triangulation neighbors of A's points:

    S(C | A) = (mu / n) * sum_{p in A} sum_{q in C, q ~ p} 1 / d_pq

where q ~ p means (p, q) is an edge of the stage-one triangulation,
n is the number of neighbor edges leaving the group, mu is the average
projected-space triangle size, and d_pq balances both spaces:

    d_pq = max(alpha * ||X_p - X_q||, ||Xproj_p - Xproj_q||),
    alpha = median(s_proj) / median(s).

The group is merged into the best-scoring cluster when its score exceeds
delta. The public knob is anomaly_sensitivity in [0, 1]; delta is the
sensitivity-quantile of all candidate scores in the run, with 1 mapping
to +inf (never merge) and 0 to -inf (always merge).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .delaunay import Triangulation
from .pruning import TriangleSizes, group_by_label


@dataclass(frozen=True)
class GroupDecision:
    group_id: int
    point_indices: tuple
    best_cluster: int      # -1 when the group has no cluster neighbors
    best_score: float
    delta: float
    merged: bool


def detect_anomaly_groups(labels, tau: int) -> list[np.ndarray]:
    """Every cluster of size <= tau becomes an anomaly group.

    Each group is its members' vertex ids, an ascending int64 array;
    groups are ordered by their minimum member.
    """
    labels = np.asarray(labels, dtype=np.int64)
    _, order, starts, counts = group_by_label(labels)
    small = np.flatnonzero(counts <= tau)
    small = small[np.argsort(order[starts[small]])]  # by minimum member
    return [order[b:b + c]
            for b, c in zip(starts[small].tolist(), counts[small].tolist())]


def score_and_merge(groups, labels, tri: Triangulation, sizes: TriangleSizes,
                    sensitivity: float):
    """Merge each group into its best-scoring neighbor cluster, or keep -1.

    ``sizes`` are the stage-one triangle sizes of ``tri``; their edge
    lengths give the distances. Scores are computed against the
    pre-merge cluster labels for every group before any label is
    applied, so the outcome is independent of processing order. Returns
    (labels, decisions) where decisions carry the per-group diagnostics.
    """
    labels = np.asarray(labels, dtype=np.int64).copy()
    group_of = np.full(len(labels), -1, dtype=np.int64)
    for gid, g in enumerate(groups):
        group_of[g] = gid
    pre_labels = labels.copy()
    labels[group_of >= 0] = -1

    if not groups:
        return labels, []

    med_proj = float(np.median(sizes.sizes_proj)) if len(sizes.sizes_proj) else 0.0
    med_orig = float(np.median(sizes.sizes)) if len(sizes.sizes) else 0.0
    alpha = med_proj / med_orig if med_orig > 0 else 1.0
    mu = float(sizes.sizes_proj.mean()) if len(sizes.sizes_proj) else 0.0
    dist_floor = 1e-12 * (med_proj if med_proj > 0 else 1.0)

    # directed edges (p, q) leaving a group, sorted by (p, q): the order
    # in which each group's sums are accumulated
    e = len(tri.edges)
    p = np.concatenate([tri.edges[:, 0], tri.edges[:, 1]])
    q = np.concatenate([tri.edges[:, 1], tri.edges[:, 0]])
    edge = np.tile(np.arange(e), 2)
    leaving = (group_of[p] >= 0) & (group_of[q] != group_of[p])
    p, q, edge = p[leaving], q[leaving], edge[leaving]
    order = np.lexsort((q, p))
    p, q, edge = p[order], q[order], edge[order]
    gid = group_of[p]
    n_edges = np.bincount(gid, minlength=len(groups))

    # candidate (group, cluster) scores from edges into non-anomaly clusters
    cid = pre_labels[q]
    scoring = (cid >= 0) & (group_of[q] < 0)
    gid, cid, edge = gid[scoring], cid[scoring], edge[scoring]
    d = np.maximum(np.maximum(alpha * sizes.edge_len[edge],
                              sizes.edge_len_proj[edge]), dist_floor)
    n_ids = max(int(pre_labels.max()) + 1, 1)
    pair, pair_of_edge = np.unique(gid * n_ids + cid, return_inverse=True)
    cand_group, cand_cluster = pair // n_ids, pair % n_ids
    inv_sums = np.bincount(pair_of_edge, weights=1.0 / d, minlength=len(pair))
    scores = (mu / n_edges[cand_group]) * inv_sums

    if sensitivity >= 1.0:
        delta = np.inf
    elif sensitivity <= 0.0:
        delta = -np.inf
    elif len(scores):
        delta = float(np.quantile(scores, sensitivity))
    else:
        delta = np.inf

    # best candidate per group: highest score, ties to the smaller id
    best_cluster = np.full(len(groups), -1, dtype=np.int64)
    best_score = np.full(len(groups), np.nan)
    rank = np.lexsort((cand_cluster, -scores, cand_group))
    first = rank[np.flatnonzero(np.diff(cand_group[rank], prepend=-1))]
    best_cluster[cand_group[first]] = cand_cluster[first]
    best_score[cand_group[first]] = scores[first]
    merged = (best_cluster >= 0) & (best_score > delta)

    joined = group_of >= 0
    joined[joined] = merged[group_of[joined]]
    labels[joined] = best_cluster[group_of[joined]]
    decisions = [
        GroupDecision(
            group_id=i,
            point_indices=tuple(g.tolist()),
            best_cluster=c,
            best_score=sc,
            delta=delta,
            merged=m,
        )
        for i, (g, c, sc, m) in enumerate(zip(
            groups, best_cluster.tolist(), best_score.tolist(),
            merged.tolist()))
    ]
    return labels, decisions
