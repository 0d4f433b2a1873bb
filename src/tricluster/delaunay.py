"""2-D Delaunay triangulation via incremental Bowyer-Watson insertion.

The hull is represented with ghost triangles (third vertex ``GHOST``),
which makes the insertion of points outside the current hull symbolic
instead of relying on a finite super-triangle. All in-circle and
orientation tests go through the robust predicates, so the mesh is exact
for any float64 input.

Exact duplicate points are collapsed to one representative before
triangulating; the resulting Triangulation carries the mapping so callers
can re-expand per-point labels afterwards. Cocircular ties are
canonicalized after construction: when a quad is exactly cocircular, the
diagonal whose lower endpoint index is smaller wins.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CollinearError, ShapeMismatchError, TooFewPointsError
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
    n = coords.shape[0]
    seen = {}
    rep_of = np.arange(n, dtype=np.int64)
    unique_rows = []
    for i in range(n):
        key = (coords[i, 0], coords[i, 1])
        j = seen.get(key)
        if j is None:
            seen[key] = i
            unique_rows.append(i)
        else:
            rep_of[i] = j
    return np.asarray(unique_rows, dtype=np.int64), rep_of


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
    xi = xi.copy()
    yi = yi.copy()
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
    """Mutable triangle soup used during construction."""

    def __init__(self, xs, ys):
        self.xs = xs
        self.ys = ys
        self.tv = []      # triangle vertices, GHOST normalized to slot 2
        self.tn = []      # neighbor across edge opposite vertex i
        self.alive = []
        self.free = []
        self.last = 0     # a live real triangle to start walks from

    # -- primitive tests -------------------------------------------------

    def _in_disk(self, t, px, py):
        a, b, c = self.tv[t]
        xs, ys = self.xs, self.ys
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
        return incircle(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c], px, py) > 0

    def _locate(self, px, py):
        """Walk from the last created triangle to one whose disk holds p."""
        xs, ys = self.xs, self.ys
        tv, tn = self.tv, self.tn
        t = self.last
        prev = -1
        limit = 4 * len(tv) + 64
        for _ in range(limit):
            a, b, c = tv[t]
            if c == GHOST:
                return t
            ax, ay = xs[a], ys[a]
            bx, by = xs[b], ys[b]
            cx, cy = xs[c], ys[c]
            nxt = -1
            if orient2d(ax, ay, bx, by, px, py) < 0:
                cand = tn[t][2]
                if cand != prev:
                    nxt = cand
            if nxt < 0 and orient2d(bx, by, cx, cy, px, py) < 0:
                cand = tn[t][0]
                if cand != prev:
                    nxt = cand
            if nxt < 0 and orient2d(cx, cy, ax, ay, px, py) < 0:
                cand = tn[t][1]
                if cand != prev:
                    nxt = cand
            if nxt < 0:
                return t
            prev, t = t, nxt
        # pathological walk; fall back to a scan (any bad triangle seeds)
        for t in range(len(tv)):
            if self.alive[t] and self._in_disk(t, px, py):
                return t
        raise AssertionError("point location failed")

    # -- construction ----------------------------------------------------

    def _new_tri(self, verts, neighbors):
        if self.free:
            t = self.free.pop()
            self.tv[t] = verts
            self.tn[t] = neighbors
            self.alive[t] = True
        else:
            t = len(self.tv)
            self.tv.append(verts)
            self.tn.append(neighbors)
            self.alive.append(True)
        return t

    def init_triangle(self, a, b, c):
        xs, ys = self.xs, self.ys
        if orient2d(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c]) < 0:
            b, c = c, b
        t0 = self._new_tri([a, b, c], [0, 0, 0])
        ga = self._new_tri([c, b, GHOST], [0, 0, 0])
        gb = self._new_tri([a, c, GHOST], [0, 0, 0])
        gc = self._new_tri([b, a, GHOST], [0, 0, 0])
        self.tn[t0] = [ga, gb, gc]
        self.tn[ga] = [gc, gb, t0]
        self.tn[gb] = [ga, gc, t0]
        self.tn[gc] = [gb, ga, t0]
        self.last = t0

    def insert(self, p):
        xs, ys = self.xs, self.ys
        px, py = xs[p], ys[p]
        tv, tn = self.tv, self.tn

        seed = self._locate(px, py)
        if not self._in_disk(seed, px, py):
            for t in range(len(tv)):
                if self.alive[t] and self._in_disk(t, px, py):
                    seed = t
                    break
            else:
                raise AssertionError("no triangle circumdisk contains point")

        # grow the cavity of triangles whose circumdisk contains p
        bad = {seed}
        stack = [seed]
        while stack:
            t = stack.pop()
            for nb in tn[t]:
                if nb not in bad and self._in_disk(nb, px, py):
                    bad.add(nb)
                    stack.append(nb)

        # boundary of the cavity as a directed cycle u -> (v, outside)
        bound = {}
        for t in bad:
            vt = tv[t]
            nt = tn[t]
            for i in range(3):
                if nt[i] not in bad:
                    bound[vt[(i + 1) % 3]] = (vt[(i + 2) % 3], nt[i])

        start = next(iter(bound))
        ring = []
        u = start
        while True:
            v, nb = bound[u]
            ring.append((u, v, nb))
            u = v
            if u == start:
                break
        if len(ring) != len(bound):
            raise AssertionError("cavity boundary is not a single cycle")

        for t in bad:
            self.alive[t] = False
            self.free.append(t)

        k = len(ring)
        new_ids = [self._new_tri(None, None) for _ in range(k)]
        for idx, (u, v, nb) in enumerate(ring):
            t = new_ids[idx]
            tv[t] = [u, v, p]
            tn[t] = [new_ids[(idx + 1) % k], new_ids[(idx - 1) % k], nb]
            # patch the outer triangle's back-pointer
            vt = tv[nb]
            for j in range(3):
                if vt[j] != u and vt[j] != v:
                    tn[nb][j] = t
                    break

        # normalize ghost vertex into slot 2 (rotation keeps edge pairing)
        for t in new_ids:
            vt, nt = tv[t], tn[t]
            if vt[0] == GHOST:
                tv[t] = [vt[1], vt[2], vt[0]]
                tn[t] = [nt[1], nt[2], nt[0]]
            elif vt[1] == GHOST:
                tv[t] = [vt[2], vt[0], vt[1]]
                tn[t] = [nt[2], nt[0], nt[1]]

        for t in new_ids:
            if tv[t][2] != GHOST:
                self.last = t
                break

    # -- cocircular canonicalization --------------------------------------

    def canonicalize_cocircular(self):
        """Flip exactly-cocircular quads so the kept diagonal is the one
        with the smaller lower endpoint index. Each flip strictly lowers
        the flipped edge's min endpoint, so the sweep terminates."""
        xs, ys = self.xs, self.ys
        tv, tn = self.tv, self.tn
        for _ in range(256):
            changed = False
            for t1 in range(len(tv)):
                if not self.alive[t1] or tv[t1][2] == GHOST:
                    continue
                for i in range(3):
                    t2 = tn[t1][i]
                    if t2 < t1 or tv[t2][2] == GHOST:
                        continue
                    c = tv[t1][i]
                    a = tv[t1][(i + 1) % 3]
                    b = tv[t1][(i + 2) % 3]
                    jd = next(
                        j for j in range(3)
                        if tv[t2][j] != a and tv[t2][j] != b
                    )
                    d = tv[t2][jd]
                    if min(c, d) >= min(a, b):
                        continue
                    v0, v1, v2 = tv[t1]
                    if incircle(xs[v0], ys[v0], xs[v1], ys[v1],
                                xs[v2], ys[v2], xs[d], ys[d]) != 0:
                        continue
                    self._flip(t1, i, t2, jd, a, b, c, d)
                    changed = True
                    break
            if not changed:
                return
        raise AssertionError("cocircular canonicalization did not settle")

    def _flip(self, t1, i, t2, jd, a, b, c, d):
        """Replace diagonal (a, b) of the quad a-d-b-c with (c, d)."""
        tv, tn = self.tv, self.tn
        n_bc = tn[t1][(i + 1) % 3]   # across (b, c)
        n_ca = tn[t1][(i + 2) % 3]   # across (c, a)
        n_ad = tn[t2][(jd + 1) % 3]  # across (a, d)
        n_db = tn[t2][(jd + 2) % 3]  # across (d, b)

        tv[t1] = [a, d, c]
        tn[t1] = [t2, n_ca, n_ad]
        tv[t2] = [d, b, c]
        tn[t2] = [n_bc, t1, n_db]

        for nb, old, new in ((n_ad, t2, t1), (n_bc, t1, t2)):
            for j in range(3):
                if tn[nb][j] == old:
                    tn[nb][j] = new
                    break


def triangulate(embedding) -> Triangulation:
    """Delaunay triangulation of a 2-D point set.

    ``embedding`` is an Embedding or a float64 array of shape (n, 2).
    Raises TooFewPointsError for fewer than 3 distinct points and
    CollinearError when all points lie on one line.
    """
    coords = np.asarray(getattr(embedding, "coords", embedding), dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ShapeMismatchError("triangulation input must have shape (n, 2)")
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

    mesh = _Mesh(xs, ys)
    mesh.init_triangle(p0, p1, p2)
    seeded = {p0, p1, p2}
    for idx in range(2, n_u):
        p = int(order[idx])
        if p in seeded:
            continue
        mesh.insert(p)

    mesh.canonicalize_cocircular()

    tv = np.fromiter(itertools.chain.from_iterable(mesh.tv), dtype=np.int64,
                     count=3 * len(mesh.tv)).reshape(-1, 3)
    live = np.asarray(mesh.alive, dtype=bool) & (tv[:, 2] != GHOST)
    tris = np.sort(tv[live], axis=1)
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
