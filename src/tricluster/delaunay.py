"""2-D Delaunay triangulation built in numpy rounds of splits and flips.

The strict convex hull is found first and fanned from one corner, so
every other point lies in a closed triangle of a real mesh and no ghost
or super-triangle is needed. Then each round inserts, into every
triangle that holds pending points, the one nearest its centroid: a
point strictly inside splits its triangle in three, a point on an
interior edge splits the two triangles of that edge in four, and a point
on a hull edge splits its triangle in two. One round of independent
Lawson flips follows each insertion round, over the sides that a split
or a flip may have made illegal, and flip rounds go on after the last
insertion until every edge is locally Delaunay; flipping reaches the
Delaunay triangulation from any triangulation (Lawson 1977), and the
rounds follow the GPU split-and-flip scheme of Cao, Nanjappa, Gao & Tan
(2014). A side is one integer, 3 * triangle + corner, in every array.

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
index is smaller, whatever the order of insertions and flips. A flip
tests the apex p of a side (b, c)'s other triangle against the disk of
(a, b, c), so p lies across (b, c) from a; on a tie the four points are
then a convex cocircular quad, and the test reads min(a, p) < min(b, c),
from the vertex ids alone.
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
_TURN = np.arange(3)[:, None]
# from corner 0, the first ends of sides 0, 1 and 2, then the second
_SIDE_ENDS = np.array([[1, 2, 0], [2, 0, 1]])[:, :, None]
# per split kind (1 -> 3, 1 -> 2 at the hull, 2 -> 4) and ring column:
# whether the column is in the ring; then, flat at 4 * kind + column,
# whether it makes a new triangle rather than reuse its replaced one,
# whether the new triangle's side 0 is half of the split edge, and the
# columns after and before it, an empty one where the ring is open
_RING_VALID = np.array([[1, 1, 0, 1], [1, 0, 0, 1], [1, 1, 1, 1]], dtype=bool)
_RING_FRESH = np.array([0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 1, 1], dtype=bool)
_RING_HALF = np.array([0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0], dtype=bool)
_RING_LINK = np.array([[1, 3, 2, 0, 1, 1, 1, 0, 1, 2, 3, 0],
                       [3, 0, 2, 1, 3, 1, 1, 1, 3, 0, 1, 2]])
# sides 0 and 1 of a new triangle face sides 1 and 0 of those two
_SPLIT_TWINS = np.array([[1], [0]])


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

    Point i is the complex number ``z[i]`` = x + iy: one gather fetches
    both coordinates, and numpy subtracts complex numbers part by part,
    so a difference of two points holds the float differences of their
    coordinates. The id arguments of ``orient`` and ``incircle``
    broadcast together; both return float arrays whose signs are those
    of the exact determinants. Their filters use the bounds of
    ``predicates``. numpy warns where Python floats silently overflow,
    so the caller holds ``np.errstate(all="ignore")``. An element a
    filter leaves undecided takes the sign of this module's scalar
    ``orient2d`` or ``incircle``, so a counter wrapped around those sees
    every fallback. With ``grid`` set every float determinant is exact.
    """

    def __init__(self, z, grid):
        self.z, self.grid = z, grid
        self.xs, self.ys = z.real, z.imag

    def _points(self, rest, shape, *ids):
        """Python float arguments of the scalar predicate at the
        positions ``rest`` of the broadcast ids."""
        pts = [self.z[np.broadcast_to(i, shape)[rest]] for i in ids]
        return zip(*(part.tolist() for p in pts for part in (p.real, p.imag)))

    def orient(self, a, b, c):
        z = self.z
        zc = z[c]
        ca = z[a] - zc
        cb = z[b] - zc
        # (ax - cx) * (by - cy) and (ay - cy) * (bx - cx)
        left = ca.real * cb.imag
        right = ca.imag * cb.real
        det = left - right
        if self.grid:
            return det
        # predicates.orient2d's detsum is |left| + |right| wherever the
        # signs of left and right alone do not decide; where they do, the
        # bound decides too unless the products are below _TINY, and the
        # scalar call then decides by the signs
        total = np.abs(left) + np.abs(right)
        rest = (~((total >= _TINY)
                  & (np.abs(det) >= _CCW_ERR * total))).nonzero()
        if rest[0].size:
            det[rest] = [orient2d(*args)
                         for args in self._points(rest, det.shape, a, b, c)]
        return det

    def incircle(self, a, b, c, d):
        # rows a - d, b - d, c - d, a - d, b - d. These temporaries set
        # triangulate's traced peak, so the differences are freed once
        # the products are formed, and the terms are summed in place
        diff = self.z[np.array((a, b, c, a, b))]
        diff -= self.z[d]
        dx, dy = diff.real, diff.imag
        lift = dx[:3] * dx[:3]
        lift += dy[:3] * dy[:3]
        # bdx * cdy, cdx * ady, adx * bdy and their mirror products
        plus = dx[1:4] * dy[2:]
        minus = dx[2:] * dy[1:4]
        del diff, dx, dy
        term = plus - minus
        term *= lift
        det = np.add.reduce(term, axis=0)
        if self.grid:
            return det
        del term
        np.abs(plus, out=plus)
        plus += np.abs(minus, out=minus)
        plus *= lift
        permanent = np.add.reduce(plus, axis=0)
        rest = (~((permanent >= _TINY)
                  & (np.abs(det) > _ICC_ERR * permanent))).nonzero()
        if rest[0].size:
            det[rest] = [incircle(*args) for args in
                         self._points(rest, det.shape, a, b, c, d)]
        return det

    def surely_left(self, u, v, c):
        """Is each c strictly left of the line u -> v by the float filter
        alone, or, when every determinant is exact, on the line? False
        wherever the filter cannot tell."""
        z = self.z
        zc = z[c]
        cu = z[u] - zc
        cv = z[v] - zc
        left = cu.real * cv.imag
        right = cu.imag * cv.real
        det = left - right
        if self.grid:
            return det >= 0.0
        total = np.abs(left) + np.abs(right)
        return (total >= _TINY) & (det >= _CCW_ERR * total)

    def in_disk(self, a, b, c, p):
        """Is p inside the circumdisk of counterclockwise (a, b, c)? p
        must lie across side (b, c) from a.

        An exact tie (p on the circle) is broken as if the lifted point of
        the smallest vertex id among a, b, c and p sat lowest, so each
        cocircular cell is fanned from its smallest id. Across side
        (b, c), the four points are distinct, cocircular and in convex
        position, so the tie needs no orientation: p is inside exactly
        when that id is a or p, that is when min(a, p) < min(b, c).
        """
        det = self.incircle(a, b, c, p)
        inside = det > 0
        tie = (det == 0).nonzero()[0]
        if tie.size:
            inside[tie] = (np.minimum(a[tie], p[tie])
                           < np.minimum(b[tie], c[tie]))
        return inside


def _hull(signs) -> list:
    """Corners of the strict convex hull, counterclockwise from the
    lowest-x, then lowest-y point (Andrew's monotone chain).

    Points strictly inside a polygon of extreme points in 16 directions
    are corners of nothing and are dropped first (Akl & Toussaint 1978).
    The point least along a direction is the one most along its
    opposite, so 8 projections give the 16 extremes. They come from
    float projections, which is safe: a point strictly left of each side
    of a closed polygon lies strictly inside the hull of its corners.
    When every determinant is exact, the points on a side but not at its
    ends go too: each lies between two points.
    """
    xs, ys = signs.xs, signs.ys
    angle = np.arange(8) * (np.pi / 8)
    # near the float range a projection may overflow; any polygon is safe
    along = np.multiply.outer(np.cos(angle), xs)
    along += np.multiply.outer(np.sin(angle), ys)
    # counterclockwise: the most along k * pi / 8, then the least
    ring = np.concatenate((along.argmax(axis=1), along.argmin(axis=1)))
    ring = ring[ring != np.concatenate((ring[-1:], ring[:-1]))].tolist()
    inside = np.delete(np.arange(len(xs)), ring)
    for u, v in zip(ring, ring[1:] + ring[:1]):
        inside = inside[signs.surely_left(u, v, inside)]
    keep = np.delete(np.arange(len(xs)), inside)
    keep = keep[np.lexsort((ys[keep], xs[keep]))]
    # the chains run over positions in keep, so only kept points become
    # Python floats
    px, py = xs[keep].tolist(), ys[keep].tolist()

    def chain(seq):
        out = []
        for i in seq:
            while len(out) >= 2 and orient2d(
                    px[out[-2]], py[out[-2]], px[out[-1]], py[out[-1]],
                    px[i], py[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    pos = range(len(keep))
    return keep[chain(pos)[:-1] + chain(reversed(pos))[:-1]].tolist()


class _Rounds:
    """The mesh under construction and the points still to insert.

    Side i of triangle t, the side opposite its vertex i, has the id
    3 * t + i, and every per-side array is flat and indexed by it; the
    id also names the corner at vertex i. ``tv[3 * t + i]`` is that
    vertex, the triangle's vertices running counterclockwise, and
    ``twin[k]`` is the side across side k, -1 on the hull. ``succ[k]``
    and ``pred[k]`` are the next and the previous side of k's triangle.
    Pending point ``pend[j]`` lies in the closed triangle ``home[j]``.

    A round replaces disjoint groups of triangles. ``stamp[t]`` is the
    last round that replaced t, and ``heir[k]`` the side of a new
    triangle that took over side k in it, so two groups replaced in one
    round link to each other. The last entries of ``twin``, ``heir``
    and ``stamp`` stand for the hull, which side -1 and triangle -1 (the
    floor of -1 / 3) index: no round stamps it, and the rounds write
    there freely.

    ``listed[k]`` marks side k for the next flip round; an interior side
    listed from neither triangle is locally Delaunay. A split lists the
    sides around its point and the two halves of a split interior edge.
    Its other spokes are legal under any tie rule: a point strictly
    inside a triangle leaves each spoke's quad non-convex, and a point
    strictly inside an edge is collinear with the two points opposite
    its spoke to an apex, which puts the fourth point strictly outside
    the circle through the other three. A flip lists the four outer
    sides of its pair but not the new diagonal, the one the tie rule
    keeps; a flip that loses a triangle to another lists its side again.

    A select on a mask is written as a product, y + (x - y) * mask, and a
    gather as a take of the mask's nonzero positions: ``np.where`` and
    mask indexing branch per element, and the masks of the rounds follow
    the points, not a pattern a branch predictor can learn.
    """

    def __init__(self, signs, hull):
        n = len(signs.z)
        cap = 2 * n
        self.signs = signs
        # each point over 3, part by part
        self.third = (signs.z.view(np.float64) / 3.0).view(np.complex128)
        self.tv = np.empty(3 * cap, dtype=np.int64)
        self.twin = np.full(3 * cap + 1, -1, dtype=np.int64)
        self.heir = np.empty(3 * cap + 1, dtype=np.int64)
        side = np.arange(3 * cap, dtype=np.int64).reshape(cap, 3)
        self.succ = (side + [1, 1, -2]).ravel()
        self.pred = (side + [2, -1, -1]).ravel()
        self.stamp = np.full(cap + 1, -1, dtype=np.int64)
        self.split_at = np.empty(cap, dtype=np.int64)
        self.apex = np.empty(cap, dtype=np.int64)
        # the last entry stands for the hull and stays set
        self.listed = np.zeros(3 * cap + 1, dtype=bool)
        self.listed[-1] = True
        self.round = 0

        # the fan (h0, h[i], h[i+1]); its triangles are 0 .. m-1 in order,
        # side 1 of each facing side 2 of the next
        h = np.asarray(hull, dtype=np.int64)
        m = len(h) - 2
        fan = self.tv[:3 * m].reshape(m, 3)
        fan[:, 0] = h[0]
        fan[:, 1] = h[1:-1]
        fan[:, 2] = h[2:]
        inner = 3 * np.arange(m - 1) + 1
        self.twin[inner] = inner + 4
        self.twin[inner + 4] = inner
        self.listed[:3 * m] = True
        self.count = m

        # binary search for the last ray h0 -> h[i], i <= m, with p on
        # its left or on it; p then lies in fan triangle i - 1
        corner = np.zeros(n, dtype=bool)
        corner[h] = True
        self.pend = (~corner).nonzero()[0]
        lo = np.ones(len(self.pend), dtype=np.int64)
        hi = np.full(len(self.pend), m, dtype=np.int64)
        while True:
            act = (lo < hi).nonzero()[0]
            if not act.size:
                break
            mid = (lo[act] + hi[act] + 1) // 2
            left = signs.orient(h[0], h[mid], self.pend[act]) >= 0
            lo_act, hi_act = lo[act], hi[act]
            lo[act] = lo_act + (mid - lo_act) * left
            hi[act] = mid - 1 + (hi_act - mid + 1) * left
        self.home = lo - 1

    def build(self) -> np.ndarray:
        """Insert every pending point; the mesh's triangles, unsorted.

        Insertion needs a triangulation, not a Delaunay one, so each
        round also runs one round of flips, and flipping goes on after
        the last insertion until no side is listed.
        """
        while self.pend.size or self.listed[:3 * self.count].any():
            if self.pend.size:
                self.insert()
            self.flip()
        return self.tv[:3 * self.count].reshape(-1, 3)

    def _rewrite(self, new, old):
        """Link the outer sides of the new triangles; the caller writes
        their vertices and links the inner sides.

        The new side ``new[k]`` takes the place of side ``old[k]`` of a
        triangle replaced in this round. Across it lies the old side's
        twin, or that twin's heir when it was replaced in this round too.
        """
        twin, heir = self.twin, self.heir
        nb = twin[old]
        heir[old] = new
        gone = (self.stamp[nb // 3] == self.round).nonzero()[0]
        nb[gone] = heir[nb[gone]]
        twin[new] = nb
        # link every neighbour back. One replaced in this round is new[j]
        # for the j with old[j] across old[k]; then nb[j] = new[k], so
        # the link back repeats what twin[new] = nb wrote there. A hull
        # side writes the hull's entry, which the rounds write freely
        twin[nb] = new

    def _moved(self):
        """Positions in ``pend`` of the points whose home this round
        replaced."""
        return (self.stamp[self.home] == self.round).nonzero()[0]

    def insert(self):
        """One insertion round."""
        signs, tv, twin = self.signs, self.tv, self.twin
        succ, pred = self.succ, self.pred
        pend, home = self.pend, self.home
        n = len(signs.z)

        # per triangle, the pending point nearest its centroid, the
        # smaller id on ties
        off = signs.z[pend] - np.add.reduce(self.third[tv[3 * home + _TURN]],
                                            axis=0)
        d2 = off.real ** 2 + off.imag ** 2
        best = np.full(self.count, np.inf)
        np.minimum.at(best, home, d2)
        near = (d2 == best[home]).nonzero()[0]
        # the last entry takes the claims on no second triangle below
        owner = np.full(self.count + 1, n, dtype=np.int64)
        np.minimum.at(owner, home[near], pend[near])
        t = (owner < n).nonzero()[0]
        p = owner[t]

        # on side e of t when its orientation against that side is 0
        e = 3 * t
        ends = tv[e + _SIDE_ENDS]
        on = signs.orient(ends[0], ends[1], p) == 0
        edge = on.any(axis=0)
        e += on.argmax(axis=0)
        f = (twin[e] + 1) * edge - 1
        u = f // 3

        # a split claims t, and u across an interior edge; it runs when it
        # wins each, and each goes to the smallest point id claiming it
        np.minimum.at(owner, u, p)
        win = ((owner[t] == p) & ((u < 0) | (owner[u] == p))).nonzero()[0]
        p, t, e, f, u, edge = p[win], t[win], e[win], f[win], u[win], edge[win]

        # the ring of old sides around each p, in up to four columns:
        # pred[e], succ[f], pred[f], succ[e] for a 2 -> 4 split, where f
        # is u's side facing t's side e; t's sides 2, 0, 1 for a 1 -> 3
        # split, which has e = 3 * t; the first and the last for a 1 -> 2
        # split, whose ring is open at the hull. p and a ring side (x, y)
        # make the new triangle (x, y, p).
        kind = edge.astype(np.int64) + (u >= 0)
        inside = kind == 0
        after = succ[f]
        sides = np.array((pred[e], after + (e - after) * inside, pred[f],
                          succ[e]))
        pos = _RING_VALID[kind].ravel().nonzero()[0]
        ring = pos // 4
        key = pos + 4 * (kind[ring] - ring)
        old = sides.T.ravel()[pos]
        slot = old // 3
        fresh = _RING_FRESH[key].nonzero()[0]
        slot[fresh] = self.count + np.arange(fresh.size)
        self.count += fresh.size
        slot_at = np.full(4 * len(t), -1, dtype=np.int64)
        slot_at[pos] = slot

        self.round += 1
        mid = (kind == 2).nonzero()[0]
        replaced = np.concatenate([t, u[mid]])
        self.stamp[replaced] = self.round
        self.split_at[replaced] = np.concatenate([p, p[mid]])
        # the corner of a replaced triangle opposite the split edge; -1
        # for a 1 -> 3 split, whose first test is against vertex 0
        self.apex[replaced] = np.concatenate([e - (e + 1) * inside, f[mid]])

        # drop the inserted points, and find the cone at p that holds
        # each point whose home was replaced: the new triangle (x, y, p)
        # is the closed cone at p from x to y; one test against the apex
        # picks between its two cones, and a second settles the cone
        # opposite vertex 0 of a 1 -> 3 split
        done = np.zeros(n, dtype=bool)
        done[p] = True
        alive = (~done[pend]).nonzero()[0]
        self.pend, self.home = pend[alive], home[alive]
        moved = self._moved()
        was = self.home[moved]
        q = self.pend[moved]
        sp = self.split_at[was]
        a = self.apex[was]
        three = a < 0
        a = a + (3 * was - a) * three
        nx, pv = succ[a], pred[a]
        left = signs.orient(sp, tv[a], q) >= 0
        cone = nx + (pv - nx) * left
        if three.any():
            o = signs.orient(sp, tv[nx + pv - cone], q)
            beyond = three & ((left & (o > 0)) | (~left & (o < 0)))
            cone += (a - cone) * beyond

        # sides 0 and 1 of each new triangle face sides 1 and 0 of the
        # next and the previous triangle in its ring; where the ring is
        # open, the table points at an empty column and the link is -1
        new = 3 * slot
        link = slot_at[4 * ring + _RING_LINK.take(key, axis=1)]
        link = np.maximum(3 * link + _SPLIT_TWINS, -1)
        tv[new + _TURN] = (tv[succ[old]], tv[pred[old]], p[ring])
        self._rewrite(new + 2, old)
        twin[new + _TURN[:2]] = link
        self.home[moved] = self.heir[cone] // 3
        self.listed[new] = _RING_HALF[key]
        self.listed[new + 1] = False
        self.listed[new + 2] = True

    def flip(self):
        """One round of Lawson flips over the listed sides."""
        signs, tv, twin, listed = self.signs, self.tv, self.twin, self.listed
        e = listed[:3 * self.count].nonzero()[0]
        f = twin[e]
        # each side once, from its smaller id when both are listed; hull
        # sides meet the always listed entry -1
        keep = ((e < f) | ~listed[f]).nonzero()[0]
        listed[:3 * self.count] = False
        # rows e, succ[e], pred[e], f and their corners c, x, y, d (a
        # corner's id is that of the side it faces): e's triangle is
        # (c, x, y), and its side (x, y) faces f's apex d
        # every id here is in range; numpy buffers a take into out=
        # unless its mode is "clip"
        quad = np.empty((8, keep.size), dtype=np.int64)
        e.take(keep, out=quad[0], mode="clip")
        self.succ.take(quad[0], out=quad[1], mode="clip")
        self.pred.take(quad[0], out=quad[2], mode="clip")
        f.take(keep, out=quad[3], mode="clip")
        tv.take(quad[:4], out=quad[4:], mode="clip")
        bad = signs.in_disk(*quad[4:]).nonzero()[0]
        if not bad.size:
            return
        quad = quad.take(bad, axis=1)

        # a flip claims both triangles and runs when it wins both
        pair = quad[:4:3] // 3
        key = np.arange(bad.size)
        owner = np.full(self.count, bad.size, dtype=np.int64)
        # one call per row: numpy 2.4's ufunc.at writes garbage for a 2-D
        # index with a 1-D operand broadcast over it
        np.minimum.at(owner, pair[0], key)
        np.minimum.at(owner, pair[1], key)
        won = owner[pair] == key
        won = won[0] & won[1]
        listed[quad[0].take((~won).nonzero()[0])] = True
        win = won.nonzero()[0]
        quad = quad.take(win, axis=1)
        slot = pair.take(win, axis=1).ravel()

        # (c, x, y) and (d, y, x) become (c, x, d) and (d, y, c), linked
        # across their sides 1
        self.round += 1
        self.stamp[slot] = self.round
        new = 3 * slot
        outer = np.concatenate((new, new + 2))
        f = quad[3]
        tv[new + _TURN] = quad[[4, 7, 5, 6, 7, 4]].reshape(3, -1)
        self._rewrite(outer, np.concatenate((self.succ[f], quad[1], quad[2],
                                             self.pred[f])))
        diagonal = new.reshape(2, -1) + 1
        twin[diagonal] = diagonal[::-1]

        # a pending point stays unless it is strictly left of the new
        # diagonal from corner 0 to corner 2, which faces the partner
        moved = self._moved()
        if moved.size:
            was = 3 * self.home[moved]
            stays = signs.orient(tv[was], tv[was + 2],
                                 self.pend[moved]) <= 0
            other = twin[was + 1]
            self.home[moved] = (other + (was - other) * stays) // 3
        listed[outer] = True
        listed[new + 1] = False


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
    rep_u = vertex_of_row.take(rep_of)

    # one power of two brings the largest |coordinate| into [1, 2); the
    # predicates are homogeneous, so no sign changes when it is exact
    pts = coords.take(unique_rows, axis=0)
    shift = 1 - int(np.frexp(np.abs(pts).max())[1])
    scaled = np.ldexp(pts, shift)
    grid = False
    if np.array_equal(np.ldexp(scaled, -shift), pts):
        pts = scaled
        on_grid = pts * _GRID
        grid = bool(np.array_equal(on_grid, np.rint(on_grid)))
        del on_grid
    signs = _Signs(np.ascontiguousarray(pts).view(np.complex128)[:, 0], grid)
    # the rounds set the memory peak of a job, and they read only the
    # signs and the hull
    del vertex_of_row, rep_of, scaled

    # numpy's overflow warnings are noise here: the filters hand any
    # element they cannot bound to the scalar predicates
    with np.errstate(all="ignore"):
        hull = _hull(signs)
        if len(hull) < 3:
            raise CollinearError("all points are collinear")
        tris = _sort_rows(_Rounds(signs, hull).build())
    edges, tri_edges = _edge_table(tris, n_u)
    # a side's row orders it as (a, b) does, so this key, below e * n,
    # orders the triangles by their vertices
    key = tri_edges[:, 0] * n_u
    key += tris[:, 2]
    _, order = sort_keys(key, len(edges) * n_u)
    triangles = tris.take(order, axis=0)
    tri_edges = tri_edges.take(order, axis=0)

    return Triangulation(
        n_input=n_input,
        unique_rows=unique_rows,
        rep_u=rep_u,
        triangles=triangles,
        edges=edges,
        tri_edges=tri_edges,
    )


def _sort_rows(tv: np.ndarray) -> np.ndarray:
    """Each row of three ascending, by a min/max network over the
    columns: a few elementwise passes, where a sort along axis 1 pays
    its set-up per row."""
    a, b, c = tv.T
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    out = np.empty_like(tv)
    np.minimum(lo, c, out=out[:, 0])
    np.maximum(lo, c, out=lo)
    np.minimum(lo, hi, out=out[:, 1])
    np.maximum(lo, hi, out=out[:, 2])
    return out


def _edge_table(triangles: np.ndarray, n_vertices: int):
    """Sorted unique edges of row-sorted triangles, and each side's row.

    Sides are taken in column order (0, 1), (1, 2), (0, 2); a side (a, b)
    with a < b is keyed a * n + b, so key order is (a, b) order. One
    ``sort_keys`` of the 3m side keys groups the sides of each edge; the
    first side of each run of equal keys starts a new row.
    """
    m = len(triangles)
    keys = np.empty((3, m), dtype=np.int64)
    for row, (a, b) in zip(keys, ((0, 1), (1, 2), (0, 2))):
        np.multiply(triangles[:, a], n_vertices, out=row)
        row += triangles[:, b]
    keys, side = sort_keys(keys.reshape(-1), n_vertices * n_vertices)
    fresh = np.empty(len(keys), dtype=bool)
    fresh[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    side_edge = np.empty(3 * m, dtype=np.int64)
    side_edge[side] = np.cumsum(fresh) - 1
    edges = np.divmod(keys.compress(fresh), n_vertices)
    return np.column_stack(edges), side_edge.reshape(3, m).T


def sort_keys(keys: np.ndarray, bound: int):
    """Stable sort of non-negative integer keys below ``bound``.

    Returns (sorted keys, positions): ``keys[positions]`` is sorted, and
    equal keys keep their order. Each key is packed with its position
    into one int64 word, key << bits | position, and the words are
    sorted by ``np.sort``, which is several times faster than a stable
    ``argsort`` on int64; the words are distinct, so any sort of them is
    stable. When the words would need more than 63 bits, the keys go to
    ``np.argsort(kind="stable")``, which gives the same result.
    """
    n = len(keys)
    bits = (n - 1).bit_length() if n else 0
    if bound > 1 << (63 - bits):
        positions = np.argsort(keys, kind="stable")
        return keys[positions], positions
    words = keys.astype(np.int64)
    words <<= bits
    positions = np.arange(n, dtype=np.int64)
    words |= positions
    words.sort()
    np.bitwise_and(words, (1 << bits) - 1, out=positions)
    words >>= bits
    return words, positions
