"""Triangle sizing, robust normalization, sigma pruning and components.

A triangle's size is the length of its longest edge, measured in both
the original space and the projection. The sigma rule, shared with the
merge stage, normalizes values with median/MAD (robust to the skewed size
distributions triangulations produce), then cuts with a mean/std
threshold over the normalized values:
theta = mean(z) + sigma_f * std(z). An item survives when
max(z, z_proj) <= theta; theta itself is computed from the original-space
z only. Surviving edges are the edges of the retained triangles, and
their connected components are the initial clusters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .delaunay import Triangulation
from .errors import EmptyError, ShapeMismatchError


@dataclass(frozen=True)
class TriangleSizes:
    sizes: np.ndarray       # original-space size per triangle
    sizes_proj: np.ndarray  # projected-space size per triangle
    edge_len: np.ndarray       # original-space length per triangulation edge
    edge_len_proj: np.ndarray  # projected-space length per triangulation edge


@dataclass(frozen=True)
class PruneResult:
    keep_mask: np.ndarray
    theta: float
    z: np.ndarray
    z_proj: np.ndarray


# bytes of one block of edge differences: a block's two row gathers and
# its difference (about 0.75 MB) stay in L2; on a 2 MB L2, 1 MB blocks
# took twice as long at d = 1000
_BLOCK_BYTES = 1 << 18


def edge_lengths(tri: Triangulation, coords: np.ndarray) -> np.ndarray:
    """Euclidean length of every edge of ``tri`` in a space of input rows.

    Rows are gathered through ``tri.unique_rows`` a block of edges at a
    time, so no copy of the matrix and no (e, d) temporary is made.
    """
    rows_a = tri.unique_rows[tri.edges[:, 0]]
    rows_b = tri.unique_rows[tri.edges[:, 1]]
    out = np.empty(len(rows_a), dtype=np.float64)
    step = max(1, _BLOCK_BYTES // (8 * coords.shape[1]))
    for lo in range(0, len(out), step):
        diff = coords[rows_a[lo:lo + step]] - coords[rows_b[lo:lo + step]]
        np.multiply(diff, diff, out=diff)
        out[lo:lo + step] = np.sqrt(np.add.reduce(diff, axis=1))
    return out


def triangle_sizes(tri: Triangulation, original, proj) -> TriangleSizes:
    """Per-triangle longest-edge length in both spaces.

    Every edge is measured once per space; a triangle's size is the
    largest of its three edge lengths.
    """
    orig = np.asarray(original, dtype=np.float64)
    prj = np.asarray(proj, dtype=np.float64)
    for name, coords in (("original", orig), ("projected", prj)):
        if coords.shape[0] != tri.n_input:
            raise ShapeMismatchError(
                f"{name} space has {coords.shape[0]} rows, "
                f"triangulation expects {tri.n_input}"
            )
    edge_len = edge_lengths(tri, orig)
    edge_len_proj = edge_lengths(tri, prj)
    return TriangleSizes(
        sizes=edge_len[tri.tri_edges].max(axis=1),
        sizes_proj=edge_len_proj[tri.tri_edges].max(axis=1),
        edge_len=edge_len,
        edge_len_proj=edge_len_proj,
    )


def robust_z(sizes) -> np.ndarray:
    """Median/MAD normalization: z_i = (s_i - median) / MAD.

    With zero dispersion nothing is an outlier, so all-equal inputs get
    z = 0. Otherwise a zero MAD is floored at 1e-12 * max(|median|, 1) to
    keep the genuinely deviant entries detectable.
    """
    s = np.asarray(sizes, dtype=np.float64)
    if s.size == 0:
        raise EmptyError("robust_z needs at least one value")
    med = float(np.median(s))
    mad = float(np.median(np.abs(s - med)))
    if mad == 0.0:
        if np.all(s == s[0]):
            return np.zeros_like(s)
        mad = 1e-12 * max(abs(med), 1.0)
    return (s - med) / mad


def prune_threshold(z, sigma_f: float) -> float:
    """theta = mean(z) + sigma_f * population-stddev(z)."""
    z = np.asarray(z, dtype=np.float64)
    if z.size == 0:
        raise EmptyError("prune_threshold needs at least one z value")
    return float(z.mean() + sigma_f * z.std())


def sigma_rule(values, values_proj, sigma_f: float) -> PruneResult:
    """Keep item i when max(z_i, z_proj_i) <= theta, theta from z alone.

    ``values`` and ``values_proj`` measure the same items (triangles or
    edges) in the original space and the projection.
    """
    z = robust_z(values)
    z_proj = robust_z(values_proj)
    theta = prune_threshold(z, sigma_f)
    keep = np.maximum(z, z_proj) <= theta
    return PruneResult(keep_mask=keep, theta=theta, z=z, z_proj=z_proj)


def prune(tri: Triangulation, sizes: TriangleSizes,
          sigma_f: float) -> tuple[PruneResult, np.ndarray]:
    """Drop oversized triangles; keep edges backed by >= 1 retained triangle.

    Returns the sigma-rule result and the kept edges, an (e, 2) subset of
    ``tri.edges``. An edge shared by a kept and a discarded triangle
    survives: removing it would disconnect dense interiors whenever one
    adjacent sliver dies.
    """
    result = sigma_rule(sizes.sizes, sizes.sizes_proj, sigma_f)
    edge_kept = np.zeros(len(tri.edges), dtype=bool)
    edge_kept[tri.tri_edges[result.keep_mask]] = True
    return result, tri.edges[edge_kept]


def connected_components(n_vertices: int, edges: np.ndarray) -> np.ndarray:
    """Component labels 0..k-1, ordered by each component's minimum vertex.

    Isolated vertices form singleton components. Every vertex points at
    a root, the smallest vertex of its tree. Each round hooks the larger
    root of every edge that spans two trees onto the smaller one, then
    jumps pointers until every vertex points at its root again; a tree
    that is hooked or hooked onto merges, so a component's tree count at
    least halves per round. The final root is the component's minimum.
    """
    root = np.arange(n_vertices, dtype=np.int64)
    u = edges[:, 0]
    v = edges[:, 1]
    while True:
        ru, rv = root[u], root[v]
        spans = ru != rv
        if not spans.any():
            break
        np.minimum.at(root, np.maximum(ru, rv)[spans],
                      np.minimum(ru, rv)[spans])
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    _, labels = np.unique(root, return_inverse=True)
    return labels.astype(np.int64, copy=False)


def group_by_label(labels: np.ndarray):
    """Sort-based group-by over the non-negative entries of ``labels``.

    Returns (ids, order, starts, counts): the distinct labels ascending,
    the indices of labelled entries grouped by label (ascending index
    within a group), and each group's offset and length in ``order``.
    """
    labelled = np.flatnonzero(labels >= 0)
    order = labelled[np.argsort(labels[labelled], kind="stable")]
    sorted_labels = labels[order]
    starts = np.flatnonzero(np.diff(sorted_labels, prepend=-1))
    counts = np.diff(np.r_[starts, len(order)])
    return sorted_labels[starts], order, starts, counts
