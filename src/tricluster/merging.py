"""Conservative cluster merging via a triangulation of representatives.

Each cluster is represented by the member closest to its projected mean.
The representatives are triangulated and their edges sigma-pruned with
the merge parameter: edge lengths (in both spaces) are median/MAD
normalized and an edge survives when max(z, z_proj) <= mean(z) +
merge_param * std(z), with theta taken from the original-space z. Since
the merge parameter is negative in practice, only representative edges
with strongly below-typical length survive, and clusters joined by those
edges are unioned.

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
    EdgeGraph,
    connected_components,
    group_by_label,
    prune_threshold,
    robust_z,
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
    coords = np.asarray(getattr(proj, "coords", proj), dtype=np.float64)
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


def merge_clusters(labels, reps: Representatives, original, proj,
                   merge_param: float, diagnostics: dict = None) -> np.ndarray:
    """Union clusters connected by surviving representative edges.

    With fewer than 3 representatives (or a degenerate representative
    layout that cannot be triangulated) the labels are returned unchanged.
    Anomaly labels (-1) are never touched; the result is canonicalized by
    ascending minimum point index. Pass a dict as ``diagnostics`` to
    capture the merge-stage threshold and edge counts.
    """
    labels = np.asarray(labels, dtype=np.int64)
    orig = np.asarray(getattr(original, "coords", original), dtype=np.float64)
    if orig.ndim == 1:
        orig = orig.reshape(-1, 1)
    k = len(reps.cluster_ids)
    if k < 3:
        return labels.copy()

    try:
        rep_tri = triangulate(reps.rep_coords_proj)
    except (CollinearError, TooFewPointsError):
        return labels.copy()

    rep_rows = reps.rep_point_index[rep_tri.unique_rows]
    ea = rep_tri.edges[:, 0]
    eb = rep_tri.edges[:, 1]
    len_orig = np.linalg.norm(orig[rep_rows[ea]] - orig[rep_rows[eb]], axis=1)
    proj_coords = np.asarray(getattr(proj, "coords", proj), dtype=np.float64)
    len_proj = np.linalg.norm(
        proj_coords[rep_rows[ea]] - proj_coords[rep_rows[eb]], axis=1
    )

    _, z = robust_z(len_orig)
    _, z_proj = robust_z(len_proj)
    theta = prune_threshold(z, merge_param)
    keep = np.maximum(z, z_proj) <= theta
    if diagnostics is not None:
        diagnostics["theta_merge"] = theta
        diagnostics["n_rep_edges"] = len(rep_tri.edges)
        diagnostics["n_rep_edges_kept"] = int(keep.sum())

    # slots behind each triangulation vertex (coincident projected reps
    # collapse onto one vertex; a surviving edge joins all of them). A
    # vertex's first slot is its row in ``unique_rows``.
    kept = rep_tri.edges[keep]
    first_slot = rep_tri.unique_rows
    touched = np.isin(rep_tri.rep_u, kept)
    slot_edges = np.concatenate([
        first_slot[kept],
        np.column_stack([np.flatnonzero(touched),
                         first_slot[rep_tri.rep_u[touched]]]),
    ])
    slot_component = connected_components(EdgeGraph(n_vertices=k,
                                                    edges=slot_edges))

    out = labels.copy()
    clustered = labels >= 0
    slot = np.searchsorted(reps.cluster_ids, labels[clustered])
    out[clustered] = slot_component[slot]
    return canonicalize_labels(out)
