"""2-D Delaunay triangulation via incremental Bowyer-Watson insertion.

The hull is represented with ghost triangles (third vertex ``GHOST``),
which makes the insertion of points outside the current hull symbolic
instead of relying on a finite super-triangle. All in-circle and
orientation tests go through the robust predicates, so the mesh is exact
for any float64 input.

Exact duplicate points are collapsed to one representative before
triangulating; the resulting Triangulation carries the mapping so callers
can re-expand per-point labels afterwards. Exact cocircular ties are
broken inside the in-disk test by a symbolic perturbation (Edelsbrunner &
Muecke 1990, Simulation of Simplicity), so insertion alone builds the one
mesh in which every cocircular quad keeps the diagonal whose lower
endpoint index is smaller.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    CollinearError,
    NonFiniteError,
    ShapeMismatchError,
    TooFewPointsError,
)
from .predicates import incircle, orient2d

GHOST = -1


@dataclass(frozen=True)
class Triangulation:
    """Triangles and deduplicated edges over the collapsed point set.

    Vertex ids index ``unique_rows`` (the representatives); ``rep_u``
    maps every input row to the vertex id of its representative.
    ``tri_edges[t]`` holds the rows of ``edges`` that are the sides
    (0, 1), (1, 2) and (0, 2) of triangle ``t``, in that order.
    """

    n_input: int
    unique_rows: np.ndarray          # vertex id -> input row
    rep_u: np.ndarray                # input row -> vertex id
    triangles: np.ndarray            # (m, 3) int64, each row sorted, rows sorted
    edges: np.ndarray                # (e, 2) int64, sorted, deduplicated
    tri_edges: np.ndarray            # (m, 3) int64 rows of ``edges``

    @property
    def n_vertices(self) -> int:
        return len(self.unique_rows)


def collapse_duplicates(coords: np.ndarray):
    """Map rows with equal coordinates to their first occurrence.

    Coordinates compare as floats, not as bit patterns: -0.0 equals 0.0,
    so (0.0, y) and (-0.0, y) are one row.

    Returns (unique_rows, rep_of) with rep_of[i] = index of i's
    representative in the original row numbering.
    """
    # one complex number per row: unique compares the parts as floats and
    # returns each group's first row
    rows = np.ascontiguousarray(coords, dtype=np.float64).view(np.complex128)
    _, first_row, group = np.unique(rows.reshape(-1), return_index=True,
                                    return_inverse=True)
    first_row = first_row.astype(np.int64, copy=False)
    return np.sort(first_row), first_row[group]


def _hilbert_order(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Insertion order along a 16-bit Hilbert curve over the bounding box.

    Spatial locality keeps the point-location walk short; the order is a
    pure function of the coordinates, so construction is deterministic.
    """
    order = 16
    side = 1 << order
    xmin, xmax = float(x.min()), float(x.max())
    ymin, ymax = float(y.min()), float(y.max())
    sx = (side - 1) / (xmax - xmin) if xmax > xmin else 0.0
    sy = (side - 1) / (ymax - ymin) if ymax > ymin else 0.0
    xi = ((x - xmin) * sx).astype(np.int64)
    yi = ((y - ymin) * sy).astype(np.int64)

    d = np.zeros(len(x), dtype=np.int64)
    s = side >> 1
    while s > 0:
        rx = ((xi & s) > 0).astype(np.int64)
        ry = ((yi & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        # rotate quadrant
        swap = ry == 0
        flip = swap & (rx == 1)
        xi_f = np.where(flip, s - 1 - xi, xi)
        yi_f = np.where(flip, s - 1 - yi, yi)
        xi_new = np.where(swap, yi_f, xi_f)
        yi_new = np.where(swap, xi_f, yi_f)
        xi, yi = xi_new, yi_new
        s >>= 1
    return np.argsort(d, kind="stable")


class _Mesh:
    """Mutable triangle soup used during construction.

    A Bowyer-Watson cavity holds no vertex, so its b triangles are always
    refilled with b + 2: insertion rewrites the b slots in place and
    appends two, and every slot holds a triangle of the current mesh.
    ``tv[t]`` lists t's vertices counterclockwise, GHOST in slot 2, and
    ``tn[t][i]`` is t's neighbor across the edge opposite vertex i.
    """

    def __init__(self, xs, ys, a, b, c):
        """Slot 0 is (a, b, c) counterclockwise; slots 1-3 are its ghosts."""
        if orient2d(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c]) < 0:
            b, c = c, b
        self.xs = xs
        self.ys = ys
        self.tv = [[a, b, c], [c, b, GHOST], [a, c, GHOST], [b, a, GHOST]]
        self.tn = [[1, 2, 3], [3, 2, 0], [1, 3, 0], [2, 1, 0]]
        self.last = 0     # a real triangle to start walks from

    # -- primitive tests -------------------------------------------------

    def _in_disk(self, t, p):
        """Is vertex ``p`` inside the circumdisk of triangle ``t``?

        An exact tie (p on the circle) is broken as if the lifted point of
        the smallest vertex id among a, b, c and p sat lowest, so each
        cocircular cell is fanned from its smallest id. The
        orientations that decide a tie are never 0: three distinct
        cocircular points are not collinear.
        """
        a, b, c = self.tv[t]
        xs, ys = self.xs, self.ys
        px, py = xs[p], ys[p]
        if c == GHOST:
            o = orient2d(xs[a], ys[a], xs[b], ys[b], px, py)
            if o > 0:
                return True
            if o < 0:
                return False
            # collinear with the hull edge: inside iff strictly between
            if xs[a] != xs[b]:
                lo, hi = (xs[a], xs[b]) if xs[a] < xs[b] else (xs[b], xs[a])
                return lo < px < hi
            lo, hi = (ys[a], ys[b]) if ys[a] < ys[b] else (ys[b], ys[a])
            return lo < py < hi
        s = incircle(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c], px, py)
        if s:
            return s > 0
        m = min(a, b, c, p)
        if m == p:
            return True
        if m == a:
            return orient2d(px, py, xs[b], ys[b], xs[c], ys[c]) < 0
        if m == b:
            return orient2d(xs[a], ys[a], px, py, xs[c], ys[c]) < 0
        return orient2d(xs[a], ys[a], xs[b], ys[b], px, py) < 0

    def _locate(self, p):
        """Walk from the last ring's first real triangle to a disk holding p.

        The walk steps across the first edge that has p strictly on its
        far side. It terminates because the mesh is a Delaunay
        triangulation, on which the visibility relation towards any point
        is acyclic (Edelsbrunner 1990; Devillers, Pion & Teillaud 2002);
        exact orient2d is antisymmetric, so it never steps straight back.
        It stops at a real triangle that contains p (p is not a vertex,
        so p is strictly inside its disk) or at the ghost of a hull edge
        that p lies strictly beyond, whose half-plane holds p.
        """
        xs, ys = self.xs, self.ys
        px, py = xs[p], ys[p]
        tv, tn = self.tv, self.tn
        t = self.last
        while True:
            a, b, c = tv[t]
            if c == GHOST:
                return t
            ax, ay = xs[a], ys[a]
            bx, by = xs[b], ys[b]
            cx, cy = xs[c], ys[c]
            if orient2d(ax, ay, bx, by, px, py) < 0:
                t = tn[t][2]
            elif orient2d(bx, by, cx, cy, px, py) < 0:
                t = tn[t][0]
            elif orient2d(cx, cy, ax, ay, px, py) < 0:
                t = tn[t][1]
            else:
                return t

    # -- construction ----------------------------------------------------

    def insert(self, p):
        """Dig the cavity of the triangles whose disk holds p; refill it.

        The cavity holds no vertex, so its dual graph is a tree: a
        depth-first dig from the located triangle enters each cavity
        triangle once and meets the ring edges in counterclockwise order.
        """
        tv, tn = self.tv, self.tn
        seed = self._locate(p)
        a, b, c = tv[seed]
        ns = tn[seed]
        # a step (u, v, t, s) crosses the cavity edge (u, v) of s into t
        stack = [(c, a, ns[1], seed), (b, c, ns[0], seed), (a, b, ns[2], seed)]
        slots = [seed]
        ring = []
        while stack:
            u, v, t, s = stack.pop()
            # t's side facing s; recorded now, before any slot is rewritten
            j = tn[t].index(s)
            if not self._in_disk(t, p):
                ring.append((u, v, t, j))
                continue
            # t is (v, u, w); its far sides are (u, w) and (w, v)
            w = tv[t][j]
            nt = tn[t]
            stack.append((w, v, nt[(j + 2) % 3], t))
            stack.append((u, w, nt[(j + 1) % 3], t))
            slots.append(t)

        # the ring's k = b + 2 triangles (u, v, p) fill the cavity's b
        # slots and two new ones; a ghost is rotated into slot 2, which
        # keeps each vertex opposite its edge's neighbor
        n = len(tv)
        slots += [n, n + 1]
        tv += [None, None]
        tn += [None, None]
        k = len(slots)
        last = None
        for idx, (u, v, nb, j) in enumerate(ring):
            t = slots[idx]
            nxt, prv = slots[(idx + 1) % k], slots[idx - 1]
            if u == GHOST:
                tv[t] = [v, p, u]
                tn[t] = [prv, nb, nxt]
            elif v == GHOST:
                tv[t] = [p, u, v]
                tn[t] = [nb, nxt, prv]
            else:
                tv[t] = [u, v, p]
                tn[t] = [nxt, prv, nb]
                if last is None:
                    last = t
            tn[nb][j] = t
        self.last = last


def triangulate(coords: np.ndarray) -> Triangulation:
    """Delaunay triangulation of a 2-D point set.

    ``coords`` is a float64 array of shape (n, 2). Raises NonFiniteError
    for NaN or Inf coordinates, TooFewPointsError for fewer than 3
    distinct points and CollinearError when all points lie on one line.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ShapeMismatchError("triangulation input must have shape (n, 2)")
    if not np.isfinite(coords).all():
        raise NonFiniteError("triangulation input contains NaN or Inf")
    n_input = coords.shape[0]
    if n_input < 3:
        raise TooFewPointsError(f"need at least 3 points, got {n_input}")

    unique_rows, rep_of = collapse_duplicates(coords)
    n_u = len(unique_rows)
    if n_u < 3:
        raise TooFewPointsError(f"need at least 3 distinct points, got {n_u}")

    vertex_of_row = np.empty(n_input, dtype=np.int64)
    vertex_of_row[unique_rows] = np.arange(n_u, dtype=np.int64)
    rep_u = vertex_of_row[rep_of]

    pts = coords[unique_rows]
    xs = pts[:, 0].tolist()
    ys = pts[:, 1].tolist()
    order = _hilbert_order(pts[:, 0], pts[:, 1])

    # seed with the first non-collinear triple in insertion order
    p0, p1 = int(order[0]), int(order[1])
    p2 = None
    for idx in range(2, n_u):
        cand = int(order[idx])
        if orient2d(xs[p0], ys[p0], xs[p1], ys[p1], xs[cand], ys[cand]) != 0:
            p2 = cand
            break
    if p2 is None:
        raise CollinearError("all points are collinear")

    mesh = _Mesh(xs, ys, p0, p1, p2)
    for p in order[2:].tolist():
        if p != p2:
            mesh.insert(p)

    tv = np.fromiter(itertools.chain.from_iterable(mesh.tv), dtype=np.int64,
                     count=3 * len(mesh.tv)).reshape(-1, 3)
    tris = np.sort(tv[tv[:, 2] != GHOST], axis=1)
    triangles = tris[np.lexsort((tris[:, 2], tris[:, 1], tris[:, 0]))]
    edges, tri_edges = _edge_table(triangles, n_u)

    return Triangulation(
        n_input=n_input,
        unique_rows=unique_rows,
        rep_u=rep_u,
        triangles=triangles,
        edges=edges,
        tri_edges=tri_edges,
    )


def _edge_table(triangles: np.ndarray, n_vertices: int):
    """Sorted unique edges of row-sorted triangles, and each side's row.

    Sides are taken in column order (0, 1), (1, 2), (0, 2); a side (a, b)
    with a < b is keyed a * n + b, so key order is (a, b) order.
    """
    m = len(triangles)
    lo = triangles[:, [0, 1, 0]].T.ravel()
    hi = triangles[:, [1, 2, 2]].T.ravel()
    keys, side_edge = np.unique(lo * n_vertices + hi, return_inverse=True)
    edges = np.column_stack([keys // n_vertices, keys % n_vertices])
    return edges, side_edge.reshape(3, m).T.copy()
