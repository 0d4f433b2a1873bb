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
from .grouping import first_occurrence_order, group_by_label, sort_keys
from .projection import unit_shift
from .pruning import PruneResult, TriangleSizes


@dataclass(frozen=True)
class AnomalyDecisions:
    """The anomaly stage's decisions as columns. Group ``i`` is the
    ``i``-th label ``detect_anomaly_groups`` returned."""

    group_of: np.ndarray      # (n_vertices,) group id, -1 outside groups
    best_cluster: np.ndarray  # (n_groups,) -1 when no cluster neighbour
    best_score: np.ndarray    # (n_groups,) NaN when no cluster neighbour
    merged: np.ndarray        # (n_groups,) bool
    delta: float              # the run's merge threshold


def detect_anomaly_groups(labels, tau: int) -> np.ndarray:
    """The labels of the clusters of size <= tau, the anomaly groups.

    Returns an int64 array ordered by each group's minimum member; group
    ``i`` is the cluster labelled ``groups[i]``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    ids, order, starts, counts = group_by_label(labels)
    by_min = first_occurrence_order(order, starts)
    return ids.take(by_min.compress(counts.take(by_min) <= tau))


def score_and_merge(groups, labels, tri: Triangulation, sizes: TriangleSizes,
                    sensitivity: float, *, prune_result: PruneResult):
    """Merge each group into its best-scoring neighbor cluster, or keep -1.

    ``groups`` are the cluster labels ``detect_anomaly_groups`` returns.
    ``sizes`` are the stage-one triangle sizes of ``tri``; their edge
    lengths give the distances. ``prune_result`` is the pruning stage's
    sigma rule over ``sizes``; its two medians give alpha and the
    distance floor. Scores are computed against the pre-merge cluster
    labels for every group before any label is applied, so the outcome
    is independent of processing order. Returns (labels,
    AnomalyDecisions).
    """
    pre_labels = np.asarray(labels, dtype=np.int64)
    n_ids = max(int(pre_labels.max(initial=-1)) + 1, 1)
    # the extra last entry stays -1, so label -1 maps to no group
    lookup = np.full(n_ids + 1, -1, dtype=np.int64)
    lookup[groups] = np.arange(len(groups))
    group_of = lookup[pre_labels]

    med_orig, med_proj = prune_result.median, prune_result.median_proj
    alpha = med_proj / med_orig if med_orig > 0 else 1.0
    # mu in units of 2^-mu_shift, in which the sizes sum without overflow
    mu, mu_shift = 0.0, 0
    if len(sizes.sizes_proj):
        mu_shift = int(unit_shift(sizes.sizes_proj))
        mu = float(np.ldexp(sizes.sizes_proj, mu_shift).mean())
    dist_floor = 1e-12 * (med_proj if med_proj > 0 else 1.0)

    # directed edges (p, q) leaving a group, sorted by (p, q): the order
    # in which each group's sums are accumulated. An edge (u, v) leaves
    # u's group forwards and v's backwards, each where its ends' groups
    # differ
    n_v = len(group_of)
    u, v = tri.edges.T
    gu, gv = group_of.take(u), group_of.take(v)
    differ = gu != gv
    forward = ((gu >= 0) & differ).nonzero()[0]
    backward = ((gv >= 0) & differ).nonzero()[0]
    del gu, gv, differ
    key = np.concatenate((u.take(forward) * n_v + v.take(forward),
                          v.take(backward) * n_v + u.take(backward)))
    key, order = sort_keys(key, n_v * n_v)
    p, q = np.divmod(key, n_v)
    edge = np.concatenate((forward, backward)).take(order)
    gid = group_of[p]
    n_edges = np.bincount(gid, minlength=len(groups))

    # candidate (group, cluster) scores from edges into non-anomaly clusters
    cid = pre_labels[q]
    scoring = (cid >= 0) & (group_of[q] < 0)
    gid, cid = gid.compress(scoring), cid.compress(scoring)
    edge = edge.compress(scoring)
    d = np.maximum(np.maximum(alpha * sizes.edge_len[edge],
                              sizes.edge_len_proj[edge]), dist_floor)
    # the scores do not change when d and mu are scaled by one power of
    # two. Scaled so that the largest d lies in [1, 2), 1 / d does not
    # overflow on subnormal data, and at normal scales every product
    # and sum keeps its bits
    shift = unit_shift(d) if d.size else 0
    pair, pair_of_edge = np.unique(gid * n_ids + cid, return_inverse=True)
    cand_group, cand_cluster = pair // n_ids, pair % n_ids
    inv_sums = np.bincount(pair_of_edge, weights=1.0 / np.ldexp(d, shift),
                           minlength=len(pair))
    scores = (np.ldexp(mu, shift - mu_shift) / n_edges[cand_group]) * inv_sums

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

    # a group's members join its best cluster or become anomalies (-1)
    labels = pre_labels.copy()
    grouped = group_of >= 0
    labels[grouped] = np.where(merged, best_cluster, -1)[group_of[grouped]]
    return labels, AnomalyDecisions(group_of, best_cluster, best_score,
                                    merged, delta)
