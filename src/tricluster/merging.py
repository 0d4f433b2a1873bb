"""Conservative cluster merging via a triangulation of representatives.

Each cluster is represented by the member closest to its projected mean.
The representatives are triangulated and their edges cut by pruning's
sigma rule with the merge parameter: edge lengths (in both spaces) are
median/MAD normalized and an edge survives when max(z, z_proj) <= mean(z)
+ merge_param * std(z), with theta taken from the original-space z. Since
the merge parameter is negative in practice, only representative edges
with strongly below-typical length survive, and clusters joined by those
edges are unioned. Representatives that share a projected point share a
vertex of that triangulation, and so a cluster, as duplicate rows do in
the stage-one mesh.

Pruning operates on edges rather than whole representative triangles:
every triangle over well-separated representatives contains at least one
long cross edge, so triangle-level retention could never join two close
subclusters without also bridging distant ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .delaunay import triangulate
from .errors import CollinearError, ShapeMismatchError, TooFewPointsError
from .grouping import canonicalize_labels, group_by_label
from .projection import unit_shift
from .pruning import (
    connected_components,
    edge_lengths,
    sigma_rule,
    squared_norms,
)


@dataclass(frozen=True)
class Representatives:
    cluster_ids: np.ndarray      # (k,) non-negative cluster labels
    rep_point_index: np.ndarray  # (k,) index of the representative point
    rep_coords_proj: np.ndarray  # (k, 2) projected coordinates


def compute_representatives(labels, proj) -> Representatives:
    """Per-cluster member closest to the cluster's projected mean.

    Anomaly-labeled points (-1) are excluded. Distance ties break on the
    smaller point index.
    """
    labels = np.asarray(labels, dtype=np.int64)
    coords = np.asarray(proj, dtype=np.float64)
    if labels.ndim != 1 or coords.ndim != 2 or len(labels) != len(coords):
        raise ShapeMismatchError(
            f"labels of shape {labels.shape} for points of shape "
            f"{coords.shape}")
    cluster_ids, order, starts, counts = group_by_label(labels)
    cluster = np.repeat(np.arange(len(cluster_ids)), counts)
    # at one power-of-two scale, where the members sum without overflow;
    # bincount adds each cluster's members in ascending index order
    members = coords.take(order, axis=0)
    np.ldexp(members, unit_shift(members), out=members)
    mean = np.column_stack([
        np.bincount(cluster, weights=members[:, j],
                    minlength=len(cluster_ids)) / counts
        for j in range(coords.shape[1])
    ])
    # each member's offset from its cluster's mean, compared at one
    # power-of-two scale, where no square under- or overflows; the
    # scaling is exact, so it moves no tie
    members -= mean.take(cluster, axis=0)
    d2 = squared_norms(np.ldexp(members, unit_shift(members), out=members))
    # each cluster's first member at its least distance; members ascend
    # within a cluster, so a tie goes to the smaller index
    closest = (d2 == np.minimum.reduceat(d2, starts)[cluster]).nonzero()[0]
    rep_idx = order[closest[np.searchsorted(closest, starts)]]
    return Representatives(
        cluster_ids=cluster_ids,
        rep_point_index=rep_idx,
        rep_coords_proj=coords.take(rep_idx, axis=0),
    )


def merge_clusters(labels, reps: Representatives, rep_original: np.ndarray,
                   merge_param: float):
    """Union clusters connected by surviving representative edges.

    ``rep_original`` holds the k representatives' rows of the original
    space, in the order of ``reps``. Returns (labels, rule), where
    ``rule`` is the sigma rule's ``PruneResult`` over the representative
    edges. With fewer than 3 representatives, or a degenerate
    representative layout that cannot be triangulated, ``rule`` is None
    and the labels come back unchanged. Anomaly labels (-1) are never
    touched; the result is canonicalized by ascending minimum point
    index.
    """
    labels = np.asarray(labels, dtype=np.int64)
    k = len(reps.cluster_ids)
    if len(rep_original) != k:
        raise ShapeMismatchError(
            f"{len(rep_original)} original-space rows for {k} "
            "representatives")
    if k < 3:
        return labels.copy(), None

    try:
        rep_tri = triangulate(reps.rep_coords_proj)
    except (CollinearError, TooFewPointsError):
        return labels.copy(), None

    rule = sigma_rule(edge_lengths(rep_tri, rep_original),
                      edge_lengths(rep_tri, reps.rep_coords_proj),
                      merge_param)

    # each representative takes the component of its vertex
    rep_component = connected_components(
        rep_tri.n_vertices,
        rep_tri.edges.compress(rule.keep_mask, axis=0))[rep_tri.rep_u]

    out = labels.copy()
    clustered = (labels >= 0).nonzero()[0]
    rep = np.searchsorted(reps.cluster_ids, labels[clustered])
    out[clustered] = rep_component[rep]
    return canonicalize_labels(out), rule
