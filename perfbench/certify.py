"""Triangulation certificate, computed once per run and outside timing.

It checks the program's `triangulate` against the definition of a
Delaunay triangulation, using the exact predicates of `predicates.py`
as the reference:

* no triangle is degenerate, and every directed edge of the
  counter-clockwise triangles occurs once (the mesh is a manifold);
* every vertex is used and the triangle count is 2 n - h - 2, with h
  the number of hull edges, so the mesh covers the convex hull;
* every interior edge is locally Delaunay;
* on an exactly cocircular quad, the kept diagonal is the one whose
  lower endpoint index is smaller (the documented tie rule);
* the edge table matches the triangles.

A faster triangulator that is wrong therefore fails the benchmark, not
only the tests.
"""

from __future__ import annotations

import hashlib

import numpy as np


def triangles_sha256(triangles) -> str:
    arr = np.ascontiguousarray(np.asarray(triangles), dtype="<i8")
    return hashlib.sha256(arr.tobytes()).hexdigest()


def certify(coords: np.ndarray) -> dict:
    """Triangulate ``coords`` with the program and check the result.

    Returns the problems found (empty when certified) with the mesh sizes
    and the sha256 of the triangle array.
    """
    from tricluster.delaunay import triangulate
    from tricluster.predicates import incircle, orient2d

    tri = triangulate(coords)
    triangles = np.asarray(tri.triangles)
    pts = np.asarray(coords, dtype=np.float64)[tri.unique_rows]
    xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
    problems = []

    # rows are sorted vertex ids; orient each counter-clockwise
    opposite = {}  # directed edge (u, v) -> (ccw triangle, opposite vertex)
    for a, b, c in triangles.tolist():
        o = orient2d(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c])
        if o == 0:
            problems.append(f"degenerate triangle {(a, b, c)}")
            continue
        if o < 0:
            b, c = c, b
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            if (u, v) in opposite:
                problems.append(f"directed edge {(u, v)} used twice")
            opposite[(u, v)] = ((a, b, c), w)

    hull = 0
    cocircular = 0
    for (u, v), ((a, b, c), w) in opposite.items():
        across = opposite.get((v, u))
        if across is None:
            hull += 1
            continue
        if u > v:
            continue  # each interior edge once
        d = across[1]
        s = incircle(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c], xs[d], ys[d])
        if s > 0:
            problems.append(f"edge {(u, v)} is not locally Delaunay")
        elif s == 0:
            cocircular += 1
            if min(w, d) < min(u, v):
                problems.append(f"cocircular edge {(u, v)} breaks the tie "
                                f"rule against {(min(w, d), max(w, d))}")

    n_v = tri.n_vertices
    m = len(triangles)
    if len(np.unique(triangles)) != n_v:
        problems.append("not every vertex is used by a triangle")
    if m != 2 * n_v - hull - 2:
        problems.append(f"{m} triangles, expected 2*{n_v} - {hull} - 2")
    undirected = sorted({(min(u, v), max(u, v)) for u, v in opposite})
    if np.asarray(tri.edges).tolist() != [list(e) for e in undirected]:
        problems.append("edge table does not match the triangles")

    return {
        "problems": problems[:20],
        "n_problems": len(problems),
        "n_vertices": n_v,
        "n_triangles": m,
        "n_hull_edges": hull,
        "n_cocircular_edges": cocircular,
        "triangles_sha256": triangles_sha256(triangles),
    }
