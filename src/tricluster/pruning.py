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
from .projection import unit_shift


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
    median: float       # the median of the original-space values
    median_proj: float  # the median of the projected-space values


# bytes of one block of edge differences: the block and the second row
# gather, its only other live block, stay in L2. On a 2 MB L2 at
# d = 1000 and 15 000 edges, 49 rows took 15.5-15.7 ms per pass, against
# 15.9-16.0 ms for 32 rows and 16.0-16.3 ms for 65
_BLOCK_BYTES = 3 << 17
# a sum of squares below this may have lost bits to squares that
# underflowed; one that overflowed is infinite. Both are measured again
# at a scale where neither happens
_SQUARES_FLOOR = 2.0 ** -900


def edge_lengths(tri: Triangulation, coords: np.ndarray) -> np.ndarray:
    """Euclidean length of every edge of ``tri`` in a space of input rows.

    ``coords`` must have ``tri.n_input`` rows. Rows are gathered through
    ``tri.unique_rows`` a block of edges at a time, so no copy of the
    matrix and no (e, d) temporary is made; a ``take`` along axis 0
    gathers rows several times faster than fancy indexing at small d.
    Each block's difference is formed and squared in the first gather's
    buffer and summed straight into the result; the sums are checked
    for range, and rooted, once for all blocks.

    When a length exceeds the float range, every length is returned in
    units of 2^k, for the least k that brings them all in range. The
    stages compare the lengths of one space only by their ratios, so
    they read the same numbers in any such unit.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[0] != tri.n_input:
        raise ShapeMismatchError(
            f"coordinates of shape {coords.shape} for a triangulation of "
            f"{tri.n_input} rows")
    rows_a, rows_b = tri.unique_rows.take(tri.edges.T)
    out = np.empty(len(rows_a), dtype=np.float64)
    step = max(1, _BLOCK_BYTES // (8 * coords.shape[1]))
    with np.errstate(over="ignore"):
        for lo in range(0, len(out), step):
            diff = coords.take(rows_a[lo:lo + step], axis=0)
            diff -= coords.take(rows_b[lo:lo + step], axis=0)
            squared_norms(diff, out=out[lo:lo + step])
        bad = (~((out >= _SQUARES_FLOOR) & (out < np.inf))).nonzero()[0]
        np.sqrt(out, out=out)
        if bad.size:
            root, exp = _scaled_lengths(coords[rows_a[bad]],
                                        coords[rows_b[bad]])
            # root * 2^exp is finite while frexp's exponent of it is at
            # most 1024; lengths in range are above 2^-450, so 2^-k is exact
            k = max(0, int((exp + np.frexp(root)[1]).max()) - 1024)
            if k:
                np.ldexp(out, -k, out=out)
            out[bad] = np.ldexp(root, exp - k)
    return out


def _scaled_lengths(a: np.ndarray, b: np.ndarray):
    """Each row's length of ``a - b`` as (root, exp), the length being
    root * 2^exp: the difference is scaled by its ``unit_shift`` before
    its squares are summed. A difference that overflows is formed from
    the two rows scaled by the pair's ``unit_shift``; such a pair holds a
    value above 2^1022, and the values that this scaling takes below the
    normal range are below the rounding of the row's length."""
    diff = a - b
    over = np.isinf(diff).any(axis=1).nonzero()[0]
    a, b = a[over], b[over]
    pair = np.minimum(unit_shift(a, axis=1), unit_shift(b, axis=1))[:, None]
    diff[over] = np.ldexp(a, pair) - np.ldexp(b, pair)
    shift = unit_shift(diff, axis=1)
    np.ldexp(diff, shift[:, None], out=diff)
    shift[over] += pair[:, 0]
    return np.sqrt(squared_norms(diff)), -shift


def squared_norms(diff: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Each row's sum of squares, into ``out`` when given; squares
    ``diff`` in place. Two columns take one add: the bits of numpy's
    two-term reduction, without its cost over a length-2 axis."""
    np.multiply(diff, diff, out=diff)
    if diff.shape[1] == 2:
        return np.add(diff[:, 0], diff[:, 1], out=out)
    return np.add.reduce(diff, axis=1, out=out)


def _longest_side(edge_len, tri_edges):
    """Per triangle, the largest length among its three sides: one
    elementwise maximum of three gathers, where a max over rows of three
    pays numpy's reduction set-up per row."""
    side = tri_edges.T
    return np.maximum(np.maximum(edge_len[side[0]], edge_len[side[1]]),
                      edge_len[side[2]])


def triangle_sizes(tri: Triangulation, original, proj) -> TriangleSizes:
    """Per-triangle longest-edge length in both spaces.

    Every edge is measured once per space; a triangle's size is the
    largest of its three edge lengths.
    """
    edge_len = edge_lengths(tri, original)
    edge_len_proj = edge_lengths(tri, proj)
    return TriangleSizes(
        sizes=_longest_side(edge_len, tri.tri_edges),
        sizes_proj=_longest_side(edge_len_proj, tri.tri_edges),
        edge_len=edge_len,
        edge_len_proj=edge_len_proj,
    )


def _robust_z(sizes):
    """Median/MAD normalization z_i = (s_i - median) / MAD, and the
    median.

    With zero dispersion nothing is an outlier, so all-equal inputs get
    z = 0. Otherwise a zero MAD is floored at 1e-12 * |median|, or at
    1e-12 * max|s| where the median is 0, to keep the genuinely deviant
    entries detectable; the floor scales with the sizes, so z does not
    change when they are scaled by a power of two.
    """
    s = np.asarray(sizes, dtype=np.float64)
    if s.size == 0:
        raise EmptyError("the sigma rule needs at least one value")
    med = float(np.median(s))
    mad = float(np.median(np.abs(s - med)))
    if mad == 0.0:
        if np.all(s == s[0]):
            return np.zeros_like(s), med
        mad = 1e-12 * (abs(med) or float(np.abs(s).max()))
    return (s - med) / mad, med


def prune_threshold(z, sigma_f: float) -> float:
    """theta = mean(z) + sigma_f * population-stddev(z)."""
    z = np.asarray(z, dtype=np.float64)
    if z.size == 0:
        raise EmptyError("prune_threshold needs at least one z value")
    return float(z.mean() + sigma_f * z.std())


def sigma_rule(values, values_proj, sigma_f: float) -> PruneResult:
    """Keep item i when max(z_i, z_proj_i) <= theta, theta from z alone.

    ``values`` and ``values_proj`` measure the same items (triangles or
    edges) in the original space and the projection. The result keeps
    the two medians that the z-scores were taken from.
    """
    if np.shape(values) != np.shape(values_proj):
        raise ShapeMismatchError(
            f"{np.shape(values)} values against {np.shape(values_proj)} "
            "in the projection")
    z, med = _robust_z(values)
    z_proj, med_proj = _robust_z(values_proj)
    theta = prune_threshold(z, sigma_f)
    keep = np.maximum(z, z_proj) <= theta
    return PruneResult(keep_mask=keep, theta=theta, z=z, z_proj=z_proj,
                       median=med, median_proj=med_proj)


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
    edge_kept[tri.tri_edges.compress(result.keep_mask, axis=0)] = True
    return result, tri.edges.compress(edge_kept, axis=0)


def connected_components(n_vertices: int, edges: np.ndarray) -> np.ndarray:
    """Component labels 0..k-1, ordered by each component's minimum vertex.

    Isolated vertices form singleton components. Every vertex points at
    a root, the smallest vertex of its tree. Each round hooks the larger
    root of every edge that spans two trees onto the smaller one, then
    jumps pointers until every vertex points at its root again; a tree
    that is hooked or hooked onto merges, so a component's tree count at
    least halves per round. The final root is the component's minimum,
    so a component's label is the rank of its root among the roots.
    """
    edges = np.asarray(edges)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ShapeMismatchError(
            f"edges must have shape (e, 2), got {edges.shape}")
    if edges.size and not (edges.min() >= 0
                           and edges.max() < n_vertices):
        raise ShapeMismatchError(
            f"edge ends must lie in [0, {n_vertices})")
    root = np.arange(n_vertices, dtype=np.int64)
    u = edges[:, 0]
    v = edges[:, 1]
    while True:
        ru, rv = root[u], root[v]
        del u, v
        spans = ru != rv
        if not spans.any():
            break
        # an edge within one tree stays within it, so only the spanning
        # edges go on, each as its ends' roots, which share their trees
        u = np.maximum(ru, rv).compress(spans)
        v = np.minimum(ru, rv, out=ru).compress(spans)
        del ru, rv, spans
        np.minimum.at(root, u, v)
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    rank = np.cumsum(root == np.arange(n_vertices), dtype=np.int64)
    rank -= 1
    return rank[root]
