import itertools

import numpy as np
import pytest

from tricluster import (
    CollinearError,
    ShapeMismatchError,
    TooFewPointsError,
    triangle_sizes,
    triangulate,
)
from tricluster.predicates import incircle, orient2d
from tricluster.pruning import edge_lengths


def brute_incircle_ok(pts, triangles):
    """Every triangle's circumcircle must contain no other point strictly."""
    n = len(pts)
    for i, j, k in triangles:
        a, b, c = pts[i], pts[j], pts[k]
        if orient2d(a[0], a[1], b[0], b[1], c[0], c[1]) < 0:
            b, c = c, b
        for m in range(n):
            if m in (int(i), int(j), int(k)):
                continue
            if incircle(a[0], a[1], b[0], b[1], c[0], c[1],
                        pts[m, 0], pts[m, 1]) > 0:
                return False
    return True


def convex_hull_size(pts):
    """Monotone-chain hull vertex count; independent of the triangulator."""
    order = sorted(range(len(pts)), key=lambda i: (pts[i, 0], pts[i, 1]))

    def build(seq):
        out = []
        for i in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if orient2d(pts[o, 0], pts[o, 1], pts[a, 0], pts[a, 1],
                            pts[i, 0], pts[i, 1]) <= 0:
                    out.pop()
                else:
                    break
            out.append(i)
        return out

    lower = build(order)
    upper = build(reversed(order))
    return len(lower) + len(upper) - 2


def test_three_points_one_triangle():
    tri = triangulate(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]]))
    assert tri.triangles.tolist() == [[0, 1, 2]]
    assert tri.edges.tolist() == [[0, 1], [0, 2], [1, 2]]


def test_unit_square_tie_break():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tri = triangulate(pts)
    assert len(tri.triangles) == 2
    assert len(tri.edges) == 5
    # the diagonal with the smaller lower endpoint index must win: (0, 2)
    edges = {tuple(e) for e in tri.edges.tolist()}
    assert (0, 2) in edges
    assert (1, 3) not in edges


def test_square_tie_break_under_permutation():
    base = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    for perm in itertools.permutations(range(4)):
        pts = base[list(perm)]
        tri = triangulate(pts)
        edges = {tuple(e) for e in tri.edges.tolist()}
        # positions of the two diagonals in this ordering
        pos = {tuple(base[p]): i for i, p in enumerate(perm)}
        d1 = tuple(sorted((pos[(0.0, 0.0)], pos[(1.0, 1.0)])))
        d2 = tuple(sorted((pos[(1.0, 0.0)], pos[(0.0, 1.0)])))
        expected = d1 if min(d1) < min(d2) else d2
        assert expected in edges
        other = d2 if expected == d1 else d1
        assert other not in edges


def test_empty_circumcircle_small_instances():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(4, 13))
        pts = rng.uniform(-5, 5, (n, 2))
        tri = triangulate(pts)
        assert brute_incircle_ok(pts, tri.triangles)


def test_euler_consistency_random():
    rng = np.random.default_rng(99)
    for _ in range(25):
        n = int(rng.integers(10, 300))
        pts = rng.standard_normal((n, 2)) * 10
        tri = triangulate(pts)
        h = convex_hull_size(pts)
        e = len(tri.edges)
        t = len(tri.triangles)
        assert e == 3 * n - 3 - h
        assert t == 2 * n - 2 - h


def test_determinism():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 100, (300, 2))
    t1 = triangulate(pts)
    t2 = triangulate(pts)
    assert np.array_equal(t1.triangles, t2.triangles)
    assert np.array_equal(t1.edges, t2.edges)


def test_grid_cocircular_canonical():
    # every interior quad of a grid is exactly cocircular
    xs, ys = np.meshgrid(np.arange(4.0), np.arange(4.0))
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    tri = triangulate(pts)
    n, h = 16, 12
    assert len(tri.triangles) == 2 * n - 2 - h
    # ties sit exactly on circumcircles, never strictly inside
    assert brute_incircle_ok(pts, tri.triangles)
    edges = {tuple(e) for e in tri.edges.tolist()}
    # each cell keeps the diagonal through its smaller corner index
    for r in range(3):
        for c in range(3):
            p00 = r * 4 + c
            p01 = p00 + 1
            p10 = p00 + 4
            p11 = p10 + 1
            assert (p00, p11) in edges
            assert (p01, p10) not in edges


def test_collinear_raises():
    pts = np.column_stack([np.arange(6.0), 2 * np.arange(6.0)])
    with pytest.raises(CollinearError):
        triangulate(pts)


def test_too_few_points():
    with pytest.raises(TooFewPointsError):
        triangulate(np.zeros((2, 2)))
    # duplicates collapse below the minimum
    with pytest.raises(TooFewPointsError):
        triangulate(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]))


def test_duplicate_collapse_mapping():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    tri = triangulate(pts)
    assert tri.n_input == 5
    assert tri.n_vertices == 3
    assert tri.rep_u.tolist() == [0, 1, 1, 2, 0]
    assert tri.unique_rows.tolist() == [0, 1, 3]


def edge_row(tri, a, b):
    return tri.edges.tolist().index([a, b])


def test_edge_lengths_345():
    orig = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0], [3.0, 0.0, 0.0]])
    proj = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tri = triangulate(proj)
    lengths = edge_lengths(tri, orig)
    assert lengths[edge_row(tri, 0, 1)] == pytest.approx(5.0, abs=1e-12)


def test_edge_length_zero_for_coincident_original_rows():
    # two vertices distinct in the projection but identical in the original
    orig = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
    proj = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tri = triangulate(proj)
    lengths = edge_lengths(tri, orig)
    assert lengths[edge_row(tri, 0, 1)] == 0.0


def test_edge_lengths_match_direct_loop():
    rng = np.random.default_rng(8)
    proj = np.vstack([rng.standard_normal((10, 2))] * 2)  # duplicate rows
    orig = rng.standard_normal((20, 6))
    tri = triangulate(proj)
    lengths = edge_lengths(tri, orig)
    for (a, b), val in zip(tri.edges.tolist(), lengths):
        ra, rb = tri.unique_rows[a], tri.unique_rows[b]
        direct = np.sqrt(((orig[ra] - orig[rb]) ** 2).sum())
        assert abs(val - direct) < 1e-12


def test_edge_lengths_shape_mismatch():
    tri = triangulate(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ShapeMismatchError):
        triangle_sizes(tri, np.zeros((5, 2)), np.zeros((3, 2)))


def test_every_edge_in_a_triangle():
    rng = np.random.default_rng(21)
    pts = rng.uniform(0, 10, (60, 2))
    tri = triangulate(pts)
    from_triangles = set()
    for a, b, c in tri.triangles.tolist():
        from_triangles |= {(a, b), (a, c), (b, c)}
    assert {tuple(e) for e in tri.edges.tolist()} == from_triangles


def test_tri_edges_list_each_triangles_sides():
    rng = np.random.default_rng(22)
    for pts in (rng.uniform(0, 10, (80, 2)),
                np.array([[x, y] for x in range(6) for y in range(6)],
                         dtype=np.float64)):
        tri = triangulate(pts)
        assert tri.tri_edges.shape == tri.triangles.shape
        for (a, b, c), sides in zip(tri.triangles.tolist(),
                                    tri.tri_edges.tolist()):
            assert [tri.edges[s].tolist() for s in sides] == [
                [a, b], [b, c], [a, c]]
        # the edge table equals the set-based construction
        edge_set = set()
        for a, b, c in tri.triangles.tolist():
            edge_set |= {(a, b), (a, c), (b, c)}
        assert tri.edges.tolist() == [list(e) for e in sorted(edge_set)]
        assert tri.edges.dtype == np.int64 and tri.tri_edges.dtype == np.int64
