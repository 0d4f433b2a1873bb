"""Incremental Bowyer-Watson triangulation: the reference for ``triangulate``.

One point at a time, each through the scalar robust predicates, with
ghost triangles on the hull and the same cocircular tie rule as
``tricluster.delaunay``. Under that rule the Delaunay mesh is unique, so
``triangulate`` must return exactly these triangles, whatever order
either construction inserts and flips in.
"""

import numpy as np

from tricluster.delaunay import collapse_duplicates
from tricluster.errors import CollinearError
from tricluster.predicates import incircle, orient2d

GHOST = -1


class Mesh:
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


def bowyer_watson(coords):
    """(triangles, edges, tri_edges) of ``coords`` as ``triangulate``
    lays them out, over the collapsed vertices, inserted in id order."""
    unique_rows, _ = collapse_duplicates(coords)
    pts = np.asarray(coords, dtype=np.float64)[unique_rows]
    xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
    p2 = next((c for c in range(2, len(xs))
               if orient2d(xs[0], ys[0], xs[1], ys[1], xs[c], ys[c]) != 0),
              None)
    if p2 is None:
        raise CollinearError("all points are collinear")
    mesh = Mesh(xs, ys, 0, 1, p2)
    for p in range(2, len(xs)):
        if p != p2:
            mesh.insert(p)
    triangles = sorted(sorted(v) for v in mesh.tv if GHOST not in v)
    edges = sorted({(a, b) for a, b, c in triangles}
                   | {(b, c) for a, b, c in triangles}
                   | {(a, c) for a, b, c in triangles})
    row = {e: i for i, e in enumerate(edges)}
    tri_edges = [[row[a, b], row[b, c], row[a, c]] for a, b, c in triangles]
    return (np.array(triangles, dtype=np.int64).reshape(-1, 3),
            np.array(edges, dtype=np.int64).reshape(-1, 2),
            np.array(tri_edges, dtype=np.int64).reshape(-1, 3))
