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
from .errors import CollinearError, TooFewPointsError
from .io import canonicalize_labels
from .pruning import (
    connected_components,
    edge_lengths,
    group_by_label,
    sigma_rule,
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
    cluster_ids, order, starts, counts = group_by_label(labels)
    cluster = np.repeat(np.arange(len(cluster_ids)), counts)
    members = coords[order]
    # bincount adds each cluster's members in ascending index order
    mean = np.column_stack([
        np.bincount(cluster, weights=members[:, j],
                    minlength=len(cluster_ids)) / counts
        for j in range(coords.shape[1])
    ])
    d2 = ((members - mean[cluster]) ** 2).sum(axis=1)
    # closest member first within each cluster, the smaller index on ties
    best = np.lexsort((order, d2, cluster))[starts]
    rep_idx = order[best]
    return Representatives(
        cluster_ids=cluster_ids,
        rep_point_index=rep_idx,
        rep_coords_proj=coords[rep_idx],
    )


def merge_clusters(labels, reps: Representatives, rep_original: np.ndarray,
                   merge_param: float, diagnostics: dict = None) -> np.ndarray:
    """Union clusters connected by surviving representative edges.

    ``rep_original`` holds the k representatives' rows of the original
    space, in the order of ``reps``. With fewer than 3 representatives
    (or a degenerate representative layout that cannot be triangulated)
    the labels are returned unchanged. Anomaly labels (-1) are never
    touched; the result is canonicalized by ascending minimum point
    index. Pass a dict as ``diagnostics`` to capture the merge-stage
    threshold and edge counts.
    """
    labels = np.asarray(labels, dtype=np.int64)
    k = len(reps.cluster_ids)
    if k < 3:
        return labels.copy()

    try:
        rep_tri = triangulate(reps.rep_coords_proj)
    except (CollinearError, TooFewPointsError):
        return labels.copy()

    rule = sigma_rule(edge_lengths(rep_tri, rep_original),
                      edge_lengths(rep_tri, reps.rep_coords_proj),
                      merge_param)
    if diagnostics is not None:
        diagnostics["theta_merge"] = rule.theta
        diagnostics["n_rep_edges"] = len(rep_tri.edges)
        diagnostics["n_rep_edges_kept"] = int(rule.keep_mask.sum())

    # each representative takes the component of its vertex
    rep_component = connected_components(
        rep_tri.n_vertices, rep_tri.edges[rule.keep_mask])[rep_tri.rep_u]

    out = labels.copy()
    clustered = labels >= 0
    rep = np.searchsorted(reps.cluster_ids, labels[clustered])
    out[clustered] = rep_component[rep]
    return canonicalize_labels(out)
