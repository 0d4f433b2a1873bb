"""2-D Delaunay triangulation built in numpy rounds of splits and flips.

The strict convex hull is found first and fanned from one corner, so
every other point lies in a closed triangle of a real mesh and no ghost
or super-triangle is needed. Then each round inserts, into every
triangle that holds pending points, the one nearest its centroid: a
point strictly inside splits its triangle in three, a point on an
interior edge splits the two triangles of that edge in four, and a point
on a hull edge splits its triangle in two. One round of independent
Lawson flips follows each insertion round, over the sides not yet found
locally Delaunay, and flip rounds go on after the last insertion until
every edge is; flipping reaches the Delaunay triangulation from any
triangulation (Lawson 1977), and the rounds follow the GPU
split-and-flip scheme of Cao, Nanjappa, Gao & Tan (2014).

Every sign comes from a float filter over whole arrays with the error
bounds of ``predicates``; an element the filter cannot decide goes to
the exact scalar ``orient2d`` or ``incircle``. Before that, the
coordinates are scaled by one power of two so that the largest lies in
[1, 2), when the scaling is exact for every coordinate: the signs do not
change, and the filters no longer under- or overflow at extreme scales.
When every scaled coordinate is then a multiple of 2^-10, every
determinant is evaluated exactly in float64, and no element falls back.

Exact duplicate points are collapsed to one representative before
triangulating; the resulting Triangulation carries the mapping so callers
can re-expand per-point labels afterwards. Exact cocircular ties are
broken inside the in-disk test by a symbolic perturbation (Edelsbrunner &
Muecke 1990, Simulation of Simplicity). Under it the Delaunay mesh is
unique: every cocircular quad keeps the diagonal whose lower endpoint
index is smaller, whatever the order of insertions and flips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CollinearError,
    NonFiniteError,
    ShapeMismatchError,
    TooFewPointsError,
)
from .predicates import _CCW_ERR, _ICC_ERR, _TINY, incircle, orient2d

# Multiples of this with magnitude below 2 have exact float determinants:
# coordinate differences are below 2^12 units, an incircle term below
# 2^25 * 2^25, and the sum of three terms below 2^52 < 2^53.
_GRID = 1024.0
_TURN = np.arange(3)
# per split kind (1 -> 3, 1 -> 2 at the hull, 2 -> 4) and ring column:
# whether the column is in the ring, and the columns before and after it
_RING_VALID = np.array([[1, 1, 0, 1], [1, 0, 0, 1], [1, 1, 1, 1]], dtype=bool)
_RING_NEXT = np.array([[1, 3, -1, 0], [-1, -1, -1, 0], [1, 2, 3, 0]])
_RING_PREV = np.array([[3, 0, -1, 1], [3, -1, -1, -1], [3, 0, 1, 2]])
# the sides that face each other inside a split's ring, (x, y, p) and its
# next, and inside a flipped pair; the outer sides are linked apart
_SPLIT_TWINS = np.array([1, 0, -1])
_FLIP_TWINS = np.array([-1, 1, -1])


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


class _Signs:
    """orient2d, incircle and in-disk tests over arrays of vertex ids.

    ``orient`` and ``incircle`` return float arrays whose signs are
    those of the exact determinants. Their filters use the bounds of
    ``predicates``; numpy warns where Python floats silently overflow,
    hence ``errstate``. An element a filter leaves undecided takes the
    sign of this module's scalar ``orient2d`` or ``incircle``, so a
    counter wrapped around those sees every fallback. With ``grid`` set
    every float determinant is exact.
    """

    def __init__(self, xs, ys, grid):
        self.xs, self.ys, self.grid = xs, ys, grid

    def orient(self, a, b, c):
        xs, ys = self.xs, self.ys
        ab = np.concatenate((a, b)).reshape(2, -1)
        with np.errstate(all="ignore"):
            # rows (ax - cx, bx - cx) and (ay - cy, by - cy)
            dx = xs[ab] - xs[c]
            dy = ys[ab] - ys[c]
            left = dx[0] * dy[1]
            right = dy[0] * dx[1]
            det = left - right
            if self.grid:
                return det
            # predicates.orient2d's detsum is |left| + |right| wherever
            # the signs of left and right alone do not decide; where
            # they do, the bound decides too unless the products are
            # below _TINY, and the scalar call then decides by the signs
            total = np.abs(left) + np.abs(right)
            rest = np.flatnonzero(~((total >= _TINY)
                                    & (np.abs(det) >= _CCW_ERR * total)))
        if rest.size:
            a, b, c = a[rest], b[rest], c[rest]
            det[rest] = [orient2d(*args) for args in zip(
                *(v.tolist() for v in (xs[a], ys[a], xs[b], ys[b],
                                       xs[c], ys[c])))]
        return det

    def incircle(self, a, b, c, d):
        xs, ys = self.xs, self.ys
        abc = np.concatenate((a, b, c, a, b)).reshape(5, -1)
        with np.errstate(all="ignore"):
            # rows adx, bdx, cdx, adx, bdx and the same for y
            dx = xs[abc] - xs[d]
            dy = ys[abc] - ys[d]
            lift = dx[:3] * dx[:3] + dy[:3] * dy[:3]
            # bdx * cdy, cdx * ady, adx * bdy and their mirror products
            plus = dx[1:4] * dy[2:]
            minus = dx[2:] * dy[1:4]
            det = (lift * (plus - minus)).sum(axis=0)
            if self.grid:
                return det
            permanent = (lift * (np.abs(plus) + np.abs(minus))).sum(axis=0)
            rest = np.flatnonzero(~((permanent >= _TINY)
                                    & (np.abs(det) > _ICC_ERR * permanent)))
        if rest.size:
            a, b, c, d = a[rest], b[rest], c[rest], d[rest]
            det[rest] = [incircle(*args) for args in zip(
                *(v.tolist() for v in (xs[a], ys[a], xs[b], ys[b],
                                       xs[c], ys[c], xs[d], ys[d])))]
        return det

    def surely_left(self, u, v, c):
        """Is each c strictly left of the line u -> v by the float filter
        alone? False wherever the filter cannot tell."""
        xs, ys = self.xs, self.ys
        cx, cy = xs[c], ys[c]
        with np.errstate(all="ignore"):
            left = (xs[u] - cx) * (ys[v] - cy)
            right = (ys[u] - cy) * (xs[v] - cx)
            det = left - right
            if self.grid:
                return det > 0.0
            total = np.abs(left) + np.abs(right)
            return (total >= _TINY) & (det >= _CCW_ERR * total)

    def in_disk(self, a, b, c, p):
        """Is p inside the circumdisk of counterclockwise (a, b, c)?

        An exact tie (p on the circle) is broken as if the lifted point of
        the smallest vertex id among a, b, c and p sat lowest, so each
        cocircular cell is fanned from its smallest id: p is inside when
        it is that id, or else when the triangle with that id replaced by
        p is clockwise. Three distinct cocircular points are not
        collinear, so that orientation is never 0.
        """
        det = self.incircle(a, b, c, p)
        inside = det > 0
        tie = np.flatnonzero(det == 0)
        if tie.size:
            a, b, c, p = a[tie], b[tie], c[tie], p[tie]
            m = np.minimum(np.minimum(a, b), np.minimum(c, p))
            o = self.orient(np.where(a == m, p, a), np.where(b == m, p, b),
                            np.where(c == m, p, c))
            inside[tie] = (m == p) | (o < 0)
        return inside


def _hull(signs) -> list:
    """Corners of the strict convex hull, counterclockwise from the
    lowest-x, then lowest-y point (Andrew's monotone chain).

    Points strictly inside a polygon of extreme points in 16 directions
    are corners of nothing and are dropped first (Akl & Toussaint 1978).
    The extremes come from float projections, which is safe: a point
    strictly left of each side of a closed polygon lies strictly inside
    the hull of its corners.
    """
    xs, ys = signs.xs, signs.ys
    angle = np.arange(16) * (np.pi / 8)
    # near the float range a projection may overflow; any polygon is safe
    with np.errstate(over="ignore", invalid="ignore"):
        ring = np.argmax(np.outer(np.cos(angle), xs)
                         + np.outer(np.sin(angle), ys), axis=1)
    ring = ring[ring != np.roll(ring, 1)]
    inside = np.arange(len(xs))
    for u, v in zip(ring.tolist(), np.roll(ring, -1).tolist()):
        inside = inside[signs.surely_left(u, v, inside)]
    keep = np.delete(np.arange(len(xs)), inside)
    keep = keep[np.lexsort((ys[keep], xs[keep]))].tolist()
    px, py = xs.tolist(), ys.tolist()

    def chain(seq):
        out = []
        for i in seq:
            while len(out) >= 2 and orient2d(
                    px[out[-2]], py[out[-2]], px[out[-1]], py[out[-1]],
                    px[i], py[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    return chain(keep)[:-1] + chain(reversed(keep))[:-1]


class _Rounds:
    """The mesh under construction and the points still to insert.

    ``tv[t]`` lists triangle t's vertices counterclockwise and ``tn[t, i]``
    is its neighbor across the side opposite vertex i, -1 on the hull;
    that neighbor's side facing t is ``tw[t, i]``. Pending point
    ``pend[k]`` lies in the closed triangle ``home[k]``.

    A round replaces disjoint groups of triangles. ``stamp[t]`` is the
    last round that replaced t, and ``heir[t, i]`` the side 3 * t' + i' of
    the new triangle t' that took over t's side i in it, so two groups
    replaced in one round link to each other.
    """

    def __init__(self, signs, hull):
        n = len(signs.xs)
        cap = 2 * n
        self.signs = signs
        self.thirds = signs.xs / 3.0, signs.ys / 3.0
        self.tv = np.empty((cap, 3), dtype=np.int64)
        self.tn = np.full((cap, 3), -1, dtype=np.int64)
        self.tw = np.empty((cap, 3), dtype=np.int64)
        self.heir = np.empty((cap, 3), dtype=np.int64)
        self.stamp = np.full(cap, -1, dtype=np.int64)
        self.split_at = np.empty(cap, dtype=np.int64)
        self.apex = np.empty(cap, dtype=np.int64)
        # triangles whose sides are to be tested; the last entry stands
        # for the hull and stays set
        self.listed = np.zeros(cap + 1, dtype=bool)
        self.listed[-1] = True
        self.round = 0

        # the fan (h0, h[i], h[i+1]); its triangles are 0 .. m-1 in order
        h = np.asarray(hull, dtype=np.int64)
        m = len(h) - 2
        self.tv[:m] = np.column_stack([np.full(m, h[0]), h[1:-1], h[2:]])
        self.tn[:m - 1, 1] = np.arange(1, m)
        self.tw[:m - 1, 1] = 2
        self.tn[1:m, 2] = np.arange(m - 1)
        self.tw[1:m, 2] = 1
        self.count = m

        # binary search for the last ray h0 -> h[i], i <= m, with p on
        # its left or on it; p then lies in fan triangle i - 1
        corner = np.zeros(n, dtype=bool)
        corner[h] = True
        self.pend = np.flatnonzero(~corner)
        lo = np.ones(len(self.pend), dtype=np.int64)
        hi = np.full(len(self.pend), m, dtype=np.int64)
        while True:
            act = np.flatnonzero(lo < hi)
            if not act.size:
                break
            mid = (lo[act] + hi[act] + 1) // 2
            left = signs.orient(np.full(len(act), h[0]), h[mid],
                                self.pend[act]) >= 0
            lo[act] = np.where(left, mid, lo[act])
            hi[act] = np.where(left, hi[act], mid - 1)
        self.home = lo - 1

    def build(self) -> np.ndarray:
        """Insert every pending point; the mesh's triangles, unsorted.

        Insertion needs a triangulation, not a Delaunay one, so each
        round also runs one round of flips, and flipping goes on after
        the last insertion until no listed side is left to flip.
        """
        listed = self.listed
        listed[:self.count] = True
        while self.pend.size or listed[:self.count].any():
            if self.pend.size:
                listed[self.insert()] = True
            self.flip()
        return self.tv[:self.count]

    def _rewrite(self, slot, tv, tn, tw, outer):
        """Write the new triangles ``slot`` and link their outer sides.

        ``outer`` lists, per outer side, (new triangle, its side, replaced
        triangle, its side); the replaced triangles carry the stamp
        ``self.round``. Across each, the new triangle meets the replaced
        one's old neighbor, or that neighbor's heir when it was replaced
        in this round too.
        """
        new, new_side, old, old_side = outer
        self.heir[old, old_side] = 3 * new + new_side
        nb = self.tn[old, old_side]
        back = self.tw[old, old_side]
        has = np.flatnonzero(nb >= 0)
        nbh, bh = nb[has], back[has]
        gone = self.stamp[nbh] == self.round
        across = np.where(gone, self.heir[nbh, bh], 3 * nbh + bh)
        nb[has], back[has] = np.divmod(across, 3)
        self.tv[slot] = tv
        self.tn[slot] = tn
        self.tw[slot] = tw
        self.tn[new, new_side] = nb
        self.tw[new, new_side] = back
        stay = has[~gone]
        self.tn[nb[stay], back[stay]] = new[stay]
        self.tw[nb[stay], back[stay]] = new_side[stay]

    def _moved(self):
        """Positions in ``pend`` of the points whose home this round
        replaced."""
        return np.flatnonzero(self.stamp[self.home] == self.round)

    def insert(self) -> np.ndarray:
        """One insertion round; returns the new triangles."""
        signs, tv, tn = self.signs, self.tv, self.tn
        pend, home = self.pend, self.home
        n = len(signs.xs)

        # per triangle, the pending point nearest its centroid, the
        # smaller id on ties
        corner = tv[home]
        x3, y3 = self.thirds
        with np.errstate(over="ignore"):
            d2 = ((signs.xs[pend] - x3[corner].sum(axis=1)) ** 2
                  + (signs.ys[pend] - y3[corner].sum(axis=1)) ** 2)
        best = np.full(self.count, np.inf)
        np.minimum.at(best, home, d2)
        near = np.flatnonzero(d2 == best[home])
        owner = np.full(self.count, n, dtype=np.int64)
        np.minimum.at(owner, home[near], pend[near])
        t = np.flatnonzero(owner < n)
        p = owner[t]

        # on side s of t when its orientation against that side is 0
        v = tv[t]
        on = signs.orient(v[:, [1, 2, 0]].T.ravel(), v[:, [2, 0, 1]].T.ravel(),
                          np.concatenate((p, p, p))).reshape(3, -1) == 0
        edge = on.any(axis=0)
        s = on.argmax(axis=0)
        u = np.where(edge, tn[t, s], -1)

        # a split claims t, and u across an interior edge; it runs when it
        # wins each, and each goes to the smallest point id claiming it
        across = np.flatnonzero(u >= 0)
        np.minimum.at(owner, u[across], p[across])
        win = np.flatnonzero((owner[t] == p) & ((u < 0) | (owner[u] == p)))
        p, t, s, u, edge = p[win], t[win], s[win], u[win], edge[win]

        # the ring of sides (replaced triangle, side) around each p, in up
        # to four columns: (t, s+2), (u, j+1), (u, j+2), (t, s+1) for a
        # 2 -> 4 split, where u's side j faces t; (t, 2), (t, 0), (t, 1)
        # for a 1 -> 3 split, which has s = 0; the first and the last for a
        # 1 -> 2 split, whose ring is open at the hull. p and a ring side
        # (x, y) make the new triangle (x, y, p).
        kind = np.where(edge, np.where(u < 0, 1, 2), 0)
        j = self.tw[t, s]
        inside = kind == 0
        tri = np.array([t, np.where(inside, t, u), u, t])
        side = np.array([s + 2, np.where(inside, s, j + 1), j + 2, s + 1]) % 3
        pos = np.flatnonzero(_RING_VALID[kind])
        ring = pos // 4
        col = pos % 4
        kind_of = kind[ring]
        old, old_side = tri[col, ring], side[col, ring]
        slot = old.copy()
        fresh = np.flatnonzero((col > 1) | ((col == 1) & (kind_of != 2)))
        slot[fresh] = self.count + np.arange(fresh.size)
        self.count += fresh.size
        slot_at = np.full(4 * len(t) + 1, -1, dtype=np.int64)
        slot_at[pos] = slot
        after = _RING_NEXT[kind_of, col]
        before = _RING_PREV[kind_of, col]

        self.round += 1
        mid = np.flatnonzero(kind == 2)
        replaced = np.concatenate([t, u[mid]])
        self.stamp[replaced] = self.round
        self.split_at[replaced] = np.concatenate([p, p[mid]])
        # the vertex of a replaced triangle opposite the split edge; -1
        # for a 1 -> 3 split, whose first test is against vertex 0
        self.apex[replaced] = np.concatenate([np.where(inside, -1, s), j[mid]])

        # drop the inserted points; keep the old rows of the others' homes
        done = np.zeros(n, dtype=bool)
        done[p] = True
        alive = np.flatnonzero(~done[pend])
        self.pend, self.home = pend[alive], home[alive]
        moved = self._moved()
        was = self.home[moved]
        was_tv = tv[was]

        tn_new = np.full((len(slot), 3), -1, dtype=np.int64)
        # slot_at[-1] is -1: a missing neighbor in an open ring
        tn_new[:, 0] = slot_at[np.where(after >= 0, 4 * ring + after, -1)]
        tn_new[:, 1] = slot_at[np.where(before >= 0, 4 * ring + before, -1)]
        self._rewrite(slot,
                      np.array([tv[old, (old_side + 1) % 3],
                                tv[old, (old_side + 2) % 3], p[ring]]).T,
                      tn_new, _SPLIT_TWINS,
                      (slot, np.full(len(slot), 2), old, old_side))

        # the new triangle (x, y, p) is the closed cone at p from x to y;
        # one test against the apex picks between its two cones, and a
        # second settles the cone opposite vertex 0 of a 1 -> 3 split
        q = self.pend[moved]
        sp = self.split_at[was]
        ap = self.apex[was]
        first = np.maximum(ap, 0)
        left = signs.orient(sp, was_tv[np.arange(len(was)), first], q) >= 0
        side = np.where(left, (first + 2) % 3, (first + 1) % 3)
        three = np.flatnonzero(ap < 0)
        if three.size:
            lt = left[three]
            w = np.where(lt, was_tv[three, 1], was_tv[three, 2])
            o = signs.orient(sp[three], w, q[three])
            beyond = np.where(lt, o > 0, o < 0)
            side[three[beyond]] = 0
        self.home[moved] = self.heir[was, side] // 3
        return slot

    def flip(self):
        """One round of Lawson flips over the sides of the listed
        triangles; the flipped and the losing triangles are listed again."""
        signs, tv, tn, listed = self.signs, self.tv, self.tn, self.listed
        cand = np.flatnonzero(listed[:self.count])
        t = np.repeat(cand, 3)
        o = tn[cand].ravel()
        # each side once, from its smaller triangle when both are listed;
        # hull sides meet the always listed entry -1
        keep = np.flatnonzero((t < o) | ~listed[o])
        listed[cand] = False
        t, o, s, j = t[keep], o[keep], keep % 3, self.tw[cand].ravel()[keep]
        # t as (c, x, y), whose side (x, y) faces o's apex d
        cxy = tv[t[:, None], (s[:, None] + _TURN) % 3]
        d = tv[o, j]
        bad = np.flatnonzero(
            signs.in_disk(cxy[:, 0], cxy[:, 1], cxy[:, 2], d))
        if not bad.size:
            return
        t, o, s, j, cxy, d = t[bad], o[bad], s[bad], j[bad], cxy[bad], d[bad]

        # a flip claims both triangles and runs when it wins both
        key = np.arange(t.size)
        owner = np.full(self.count, t.size, dtype=np.int64)
        np.minimum.at(owner, t, key)
        np.minimum.at(owner, o, key)
        win = (owner[t] == key) & (owner[o] == key)
        listed[t[~win]] = True
        listed[o[~win]] = True
        t, o, s, j, cxy, d = t[win], o[win], s[win], j[win], cxy[win], d[win]

        # (c, x, y) and (d, y, x) become (c, x, d) and (d, y, c)
        c, x, y = cxy.T
        slot = np.concatenate([t, o])
        self.round += 1
        self.stamp[slot] = self.round
        tn_new = np.full((slot.size, 3), -1, dtype=np.int64)
        tn_new[:, 1] = np.concatenate([o, t])
        self._rewrite(
            slot,
            np.array([np.concatenate((c, d)), np.concatenate((x, y)),
                      np.concatenate((d, c))]).T,
            tn_new, _FLIP_TWINS,
            (np.concatenate((slot, slot)), np.repeat([0, 2], slot.size),
             np.concatenate([o, t, t, o]),
             np.concatenate([j + 1, s + 1, s + 2, j + 2]) % 3))

        # a pending point stays unless it is strictly left of the new
        # diagonal (tv[t, 0], tv[t, 2]), which faces the partner
        moved = self._moved()
        if moved.size:
            was = self.home[moved]
            stays = signs.orient(tv[was, 0], tv[was, 2],
                                 self.pend[moved]) <= 0
            self.home[moved] = np.where(stays, was, tn[was, 1])
        listed[slot] = True


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

    # one power of two brings the largest |coordinate| into [1, 2); the
    # predicates are homogeneous, so no sign changes when it is exact
    pts = coords[unique_rows]
    shift = 1 - int(np.frexp(np.abs(pts).max())[1])
    scaled = np.ldexp(pts, shift)
    grid = False
    if np.array_equal(np.ldexp(scaled, -shift), pts):
        pts = scaled
        on_grid = pts * _GRID
        grid = bool(np.array_equal(on_grid, np.rint(on_grid)))
    signs = _Signs(np.ascontiguousarray(pts[:, 0]),
                   np.ascontiguousarray(pts[:, 1]), grid)

    hull = _hull(signs)
    if len(hull) < 3:
        raise CollinearError("all points are collinear")
    tris = np.sort(_Rounds(signs, hull).build(), axis=1)
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
