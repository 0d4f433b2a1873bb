import hashlib
import itertools
import warnings

import numpy as np
import pytest

from tricluster import (
    CollinearError,
    NonFiniteError,
    ShapeMismatchError,
    TooFewPointsError,
    triangle_sizes,
    triangulate,
)
from tricluster import delaunay, grouping, predicates
from tricluster.delaunay import collapse_duplicates
from tricluster.predicates import incircle, orient2d
from tricluster.pruning import edge_lengths

from bowyer_watson import bowyer_watson


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


def hull_boundary_count(pts):
    """Points on the convex hull's boundary, collinear ones included."""
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

    corners = build(order)[:-1] + build(reversed(order))[:-1]
    count = 0
    for x, y in pts:
        for i, j in zip(corners, corners[1:] + corners[:1]):
            (ax, ay), (bx, by) = pts[i], pts[j]
            if (orient2d(ax, ay, bx, by, x, y) == 0
                    and min(ax, bx) <= x <= max(ax, bx)
                    and min(ay, by) <= y <= max(ay, by)):
                count += 1
                break
    return count


def assert_tie_broken_delaunay(pts, tri):
    """Every interior edge is locally Delaunay, every exactly cocircular
    one keeps the diagonal with the smaller lower endpoint, and the mesh
    has 2n - h - 2 triangles."""
    xy = pts[tri.unique_rows].tolist()
    opposite = {}  # directed edge of a ccw triangle -> (triangle, apex)
    for a, b, c in tri.triangles.tolist():
        if orient2d(*xy[a], *xy[b], *xy[c]) < 0:
            b, c = c, b
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            opposite[(u, v)] = ((a, b, c), w)
    for (u, v), ((a, b, c), w) in opposite.items():
        if u > v or (v, u) not in opposite:
            continue
        d = opposite[(v, u)][1]
        s = incircle(*xy[a], *xy[b], *xy[c], *xy[d])
        assert s <= 0, f"edge {(u, v)} is not locally Delaunay"
        if s == 0:
            assert min(u, v) < min(w, d), f"edge {(u, v)} breaks the tie rule"
    n = tri.n_vertices
    assert len(tri.triangles) == 2 * n - hull_boundary_count(
        np.asarray(xy)) - 2


def pythagorean_ring(r):
    """The integer points of x^2 + y^2 = r^2, all exactly cocircular."""
    return np.array([(x, y) for x in range(-r, r + 1)
                     for y in range(-r, r + 1) if x * x + y * y == r * r],
                    dtype=np.float64)


def lattice(nx, ny):
    gx, gy = np.meshgrid(np.arange(nx), np.arange(ny))
    return np.column_stack([gx.ravel(), gy.ravel()]).astype(np.float64)


def tie_heavy_inputs(rng):
    """Shuffled, offset and anisotropic lattices, cocircular rings with and
    without their centre, and integer grids full of duplicates; then all
    of these scaled by 1e-150 and by 1e150, lines with a few points
    1e-300 of their length off them, and small lattices with every point
    repeated."""
    sets = []
    for _ in range(10):
        nx, ny = rng.integers(2, 12, 2)
        scale = rng.choice([0.25, 1.0, 3.0], 2)
        pts = lattice(nx, ny) * scale + rng.choice([0.0, -7.5, 1e3])
        sets.append(pts[rng.permutation(len(pts))])
    for r in (5, 25, 65):
        ring = pythagorean_ring(r)
        for pts in (ring, np.vstack([ring, [[0.0, 0.0]]])):
            sets.append(pts[rng.permutation(len(pts))]
                        + rng.integers(-4, 4, 2))
    for _ in range(8):
        n = int(rng.integers(20, 200))
        side = int(rng.integers(3, 9))
        sets.append(rng.integers(0, side, (n, 2)).astype(np.float64))
    yield from sets
    # incircle's products of four coordinate differences underflow or
    # overflow here, so every in-circle sign comes from the exact path
    for factor in (1e-150, 1e150):
        for pts in sets:
            yield pts * factor
    # the points off the line sit on either side of it, each above a
    # vertex or midway between two
    for _ in range(8):
        n = int(rng.integers(3, 40))
        length = float(rng.choice([1.0, 1e-3, 1e100]))
        line = np.column_stack([rng.permutation(n) * length / n,
                                np.zeros(n)])
        k = int(rng.integers(1, 4))
        off = np.column_stack([
            rng.integers(0, 2 * n - 1, k) * length / (2 * n),
            rng.choice([-1.0, 1.0], k) * 1e-300 * length])
        pts = np.vstack([line, off])[rng.permutation(n + k)]
        yield pts[:, ::-1] if rng.random() < 0.5 else pts
    for _ in range(6):
        grid = lattice(*rng.integers(2, 6, 2))
        extra = grid[rng.integers(0, len(grid), 3 * len(grid))]
        pts = np.vstack([grid, extra])
        yield pts[rng.permutation(len(pts))]


def test_tie_rule_on_tie_heavy_inputs():
    for pts in tie_heavy_inputs(np.random.default_rng(17)):
        assert_tie_broken_delaunay(pts, triangulate(pts))


def triangles_sha256(tri):
    return hashlib.sha256(
        np.ascontiguousarray(tri.triangles, dtype="<i8").tobytes()).hexdigest()


def pinned_inputs():
    rng = np.random.default_rng(0)
    grid = lattice(12, 9)
    ring = np.vstack([pythagorean_ring(65), [[0.0, 0.0]]])
    gaussian = np.random.default_rng(1).normal(size=(1000, 2))
    return {
        "shuffled_lattice": grid[rng.permutation(len(grid))],
        "anisotropic_lattice":
            (grid * [0.25, 3.0] + 1e3)[rng.permutation(len(grid))],
        "ring_with_centre": ring[rng.permutation(len(ring))],
        "duplicate_grid": rng.integers(0, 6, (150, 2)).astype(np.float64),
        "gaussian": gaussian,
        "gaussian_1e-170": gaussian * 1e-170,
        "gaussian_1e150": gaussian * 1e150,
    }


# sha256 of the triangles from the construction that flipped cocircular
# quads after insertion; breaking ties inside the in-disk test must match.
# The Gaussian sets are in general position, and their hashes come from
# the insertion that grew the cavity as a set and walked its boundary.
PINNED_TRIANGLES_SHA256 = {
    "shuffled_lattice":
        "d4bb1eb78cc557e4c03a14363ce6030f5330961b51182a5087c619a3785542dd",
    "anisotropic_lattice":
        "041c329b8f29c0abd0fff0ebc130e1b0fe693c7411c63d60aaf02cb9060a21ed",
    "ring_with_centre":
        "38bcf516476ce940c6b05cd002c49e9eeafba8207bca4190aa42b0d956a80a02",
    "duplicate_grid":
        "ca724e098e532dde877bb191243d32c1941fd06cf1309c6784a24ff209afafb0",
    "gaussian":
        "1444f947afa9bfac02652490d6f3dc8113652f92803262d11b8c5b6c2502f370",
    "gaussian_1e-170":
        "1444f947afa9bfac02652490d6f3dc8113652f92803262d11b8c5b6c2502f370",
    "gaussian_1e150":
        "1444f947afa9bfac02652490d6f3dc8113652f92803262d11b8c5b6c2502f370",
}


@pytest.mark.parametrize("name", sorted(PINNED_TRIANGLES_SHA256))
def test_pinned_tie_heavy_triangles(name):
    tri = triangulate(pinned_inputs()[name])
    assert triangles_sha256(tri) == PINNED_TRIANGLES_SHA256[name]


def batched_flip_inputs():
    grid = lattice(80, 80)
    return {
        "shuffled_lattice_80x80":
            grid[np.random.default_rng(0).permutation(len(grid))],
        "gaussian_20000": np.random.default_rng(0).normal(size=(20_000, 2)),
    }


# flip rounds on these inputs test more sides than one batch holds; the
# hashes come from the rounds that tested all of a round's sides at once
BATCHED_FLIP_TRIANGLES_SHA256 = {
    "shuffled_lattice_80x80":
        "1259e8d2edf505282b075c4863cabb9cc60c7266b49e0ec7b3da7e42734fdd71",
    "gaussian_20000":
        "6b05d9584032ed0539c4d940587052a9e32b4d32cae3e0b81facd15ba27f7382",
}


@pytest.mark.parametrize("name", sorted(BATCHED_FLIP_TRIANGLES_SHA256))
def test_pinned_triangles_past_one_flip_batch(name):
    tri = triangulate(batched_flip_inputs()[name])
    assert triangles_sha256(tri) == BATCHED_FLIP_TRIANGLES_SHA256[name]


def signs_of(pts):
    """The array predicates of ``triangulate`` over ``pts`` as given,
    off the grid path."""
    xy = np.ascontiguousarray(pts, dtype=np.float64)
    return delaunay._Signs(xy.view(np.complex128)[:, 0], False)


# 0.1 is no power of two, so this lattice is off the grid of exact float
# determinants; each boundary row and column keeps one coordinate, so it
# stays exactly collinear
TENTH_LATTICE = lattice(40, 40) * 0.1


def test_off_grid_lattice_triangles_and_hull():
    tri = triangulate(TENTH_LATTICE)
    assert triangles_sha256(tri) == (
        "b55aef97fcc27a30f991d4cf9a5c5b6cdb5e641995a0a71eef28bd838587ecf1")
    # the points between the corners lie on the extreme-point polygon,
    # and the exact filter drops them
    assert delaunay._hull(signs_of(TENTH_LATTICE)) == [0, 39, 1599, 1560]


def assert_matches_bowyer_watson(pts):
    tri = triangulate(pts)
    triangles, edges, tri_edges = bowyer_watson(pts)
    assert np.array_equal(tri.triangles, triangles)
    assert np.array_equal(tri.edges, edges)
    assert np.array_equal(tri.tri_edges, tri_edges)


def gaussian_sets():
    rng = np.random.default_rng(31)
    for n in (3, 4, 10, 57, 400):
        yield rng.normal(size=(n, 2))
    yield rng.normal(size=(300, 2)) * [1e-6, 1e6]
    yield np.round(rng.normal(size=(500, 2)), 2)


def test_matches_bowyer_watson_on_tie_heavy_inputs():
    for pts in tie_heavy_inputs(np.random.default_rng(17)):
        assert_matches_bowyer_watson(pts)


@pytest.mark.parametrize("name", sorted(PINNED_TRIANGLES_SHA256))
def test_matches_bowyer_watson_on_pinned_inputs(name):
    assert_matches_bowyer_watson(pinned_inputs()[name])


def test_matches_bowyer_watson_on_gaussian_sets():
    for pts in gaussian_sets():
        assert_matches_bowyer_watson(pts)


def test_unscalable_and_float_range_sets_match_bowyer_watson():
    # no power of two scales the first set exactly, since its smallest
    # values would underflow; the second spans the float range; neither
    # may warn
    rng = np.random.default_rng(7)
    sets = [np.vstack([rng.normal(size=(40, 2)) * 1e300,
                       rng.normal(size=(40, 2)) * 1e-300]),
            np.vstack([rng.uniform(-1.0, 1.0, (30, 2)) * 1.7e308,
                       rng.normal(size=(5, 2)) * 1e-310])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pts in sets:
            assert_matches_bowyer_watson(pts)


def test_unlisted_sides_stay_locally_delaunay(monkeypatch):
    # a flip round tests only the listed sides, so after every round each
    # interior side listed from neither of its triangles must already
    # pass the in-disk test, seen from either of them
    checked = []
    flip = delaunay._Rounds.flip

    def checked_flip(rounds):
        flip(rounds)
        side = np.arange(3 * rounds.count)
        twin = rounds.twin[side]
        idle = side[(twin >= 0) & ~rounds.listed[side] & ~rounds.listed[twin]]
        c, x, y, d = rounds.tv[np.array([idle, rounds.succ[idle],
                                         rounds.pred[idle],
                                         rounds.twin[idle]])]
        assert not rounds.signs.in_disk(c, x, y, d).any()
        checked.append(idle.size)

    monkeypatch.setattr(delaunay._Rounds, "flip", checked_flip)
    for pts in itertools.chain(tie_heavy_inputs(np.random.default_rng(17)),
                               pinned_inputs().values(), gaussian_sets()):
        triangulate(pts)
    assert sum(checked) > 0


def assert_mesh_invariants(rounds):
    """Each linked side is its twin's twin and runs between the twin's
    two ends, reversed; each pending point lies in its closed home
    triangle by the exact orient2d."""
    side = np.arange(3 * rounds.count)
    f = rounds.twin[side]
    k = side[f >= 0]
    f = f[f >= 0]
    tv, succ, pred = rounds.tv, rounds.succ, rounds.pred
    assert np.array_equal(rounds.twin[f], k)
    assert np.array_equal(tv[succ[k]], tv[pred[f]])
    assert np.array_equal(tv[pred[k]], tv[succ[f]])
    xs, ys = rounds.signs.xs.tolist(), rounds.signs.ys.tolist()
    corners = tv[3 * rounds.home[:, None] + np.arange(3)].tolist()
    for p, (a, b, c) in zip(rounds.pend.tolist(), corners):
        for u, v in ((a, b), (b, c), (c, a)):
            assert orient2d(xs[u], ys[u], xs[v], ys[v], xs[p], ys[p]) >= 0


def test_mesh_invariants_after_every_round(monkeypatch):
    # the twins and the homes are rewritten by selects over whole rounds;
    # check them after each insertion and each flip round
    pending = []
    for name in ("insert", "flip"):
        def checked(rounds, step=getattr(delaunay._Rounds, name)):
            step(rounds)
            assert_mesh_invariants(rounds)
            pending.append(rounds.pend.size)
        monkeypatch.setattr(delaunay._Rounds, name, checked)
    for pts in itertools.chain(tie_heavy_inputs(np.random.default_rng(17)),
                               pinned_inputs().values(), gaussian_sets()):
        triangulate(pts)
    assert sum(pending) > 0


def exact_calls(monkeypatch, pts):
    """Calls of the exact predicate stages while triangulating pts."""
    calls = {"orient2d": 0, "incircle": 0}

    def counted(name, stage):
        def wrapper(*args):
            calls[name] += 1
            return stage(*args)
        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(predicates, "_orient2d_exact",
                      counted("orient2d", predicates._orient2d_exact))
        patch.setattr(predicates, "_incircle_exact",
                      counted("incircle", predicates._incircle_exact))
        triangulate(pts)
    return calls


def test_integer_lattice_needs_no_exact_predicate(monkeypatch):
    # every quad of the lattice is cocircular, yet on multiples of 2^-10
    # below 2 in magnitude every float determinant is exact
    pts = lattice(40, 40)[np.random.default_rng(3).permutation(1600)]
    assert exact_calls(monkeypatch, pts) == {"orient2d": 0, "incircle": 0}


def test_power_of_two_scaling_keeps_exact_calls(monkeypatch):
    # unscaled, the float filters under- or overflow at these scales and
    # nearly every sign would come from the exact stage
    gaussian = pinned_inputs()["gaussian"]
    want = exact_calls(monkeypatch, gaussian)
    for factor in (1e-170, 1e150):
        assert exact_calls(monkeypatch, gaussian * factor) == want


# triangulate's traced peak on 20 000 Gaussian points read 562 bytes per
# point with numpy 2.4.6, set by the point location of the fan (810
# before incircle formed its terms in place, 729 while the rounds ran
# beside the arrays they do not read, 697 while a flip round tested all
# its sides at once); the bound allows 3% for another numpy's temporaries
PEAK_BYTES_PER_POINT = 579


def test_triangulate_peak_memory_per_point(traced_peak):
    pts = np.random.default_rng(0).normal(size=(20_000, 2))
    assert traced_peak(triangulate, pts) / len(pts) <= PEAK_BYTES_PER_POINT


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_input_raises(bad):
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    pts[2, 1] = bad
    with pytest.raises(NonFiniteError):
        triangulate(pts)


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
        h = hull_boundary_count(pts)
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


def test_underflowing_scales_keep_the_triangles():
    # at these scales the float products of the predicates underflow
    pts = np.random.default_rng(30).random((30, 2))
    want = triangulate(pts).triangles
    for scaled in (pts * 1e-170, np.ldexp(pts, -560), np.ldexp(pts, -1000)):
        assert np.array_equal(triangulate(scaled).triangles, want)


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


def test_signed_zero_rows_collapse():
    # rows are compared as floats, so (0.0, y) and (-0.0, y) are one vertex
    pts = np.array([[0.0, 1.0], [1.0, 0.0], [-0.0, 1.0], [0.0, -0.0],
                    [-0.0, 0.0]])
    assert np.signbit(pts[2, 0]) and not np.signbit(pts[0, 0])
    tri = triangulate(pts)
    assert tri.n_vertices == 3
    assert tri.rep_u.tolist() == [0, 1, 0, 2, 2]
    assert tri.unique_rows.tolist() == [0, 1, 3]


def test_collapse_duplicates_matches_loop_oracle():
    rng = np.random.default_rng(4)
    for k in range(60):
        n = int(rng.integers(1, 200))
        coords = rng.integers(-3, 3, (n, 2)) * rng.choice([1.0, -0.0, 0.5])
        coords *= np.where(rng.random((n, 2)) < 0.5, -1.0, 1.0)
        if k % 2:
            coords = np.asfortranarray(coords)
        seen, rep_of, unique_rows = {}, [], []
        for i, (x, y) in enumerate(coords.tolist()):
            j = seen.setdefault((x, y), i)  # -0.0 and 0.0 hash alike
            rep_of.append(j)
            if j == i:
                unique_rows.append(i)
        got_unique, got_rep = collapse_duplicates(coords)
        assert got_unique.tolist() == unique_rows
        assert got_rep.tolist() == rep_of
        assert got_unique.dtype == np.int64 and got_rep.dtype == np.int64


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


def argsort_calls(monkeypatch):
    """The ``kind`` of every ``np.argsort`` call made while the test runs."""
    calls, real = [], np.argsort

    def spy(*args, **kwargs):
        calls.append(kwargs.get("kind"))
        return real(*args, **kwargs)

    monkeypatch.setattr(grouping.np, "argsort", spy)
    return calls


def assert_stable_sort(keys, bound):
    keys = np.asarray(keys, dtype=np.int64)
    got_keys, got_pos = grouping.sort_keys(keys, bound)
    want = np.argsort(keys, kind="stable")
    assert got_pos.tolist() == want.tolist()
    assert got_keys.tolist() == keys[want].tolist()


_RNG = np.random.default_rng(5)


@pytest.mark.parametrize("keys, bound, packed", [
    ([], 1, True),
    ([], 2 ** 63, True),
    ([0], 1, True),
    ([5], 6, True),
    (_RNG.integers(0, 4, 1000), 4, True),
    # 1 000 positions take 10 bits, so keys below 2^53 just fit
    (_RNG.integers(2 ** 53 - 40, 2 ** 53, 1000), 2 ** 53, True),
    (_RNG.integers(2 ** 53 - 40, 2 ** 53, 1000), 2 ** 53 + 1, False),
    ([2 ** 62 - 1, 3, 2 ** 62 - 1, 0, 3], 2 ** 62, False),
    (_RNG.integers(2 ** 62 - 9, 2 ** 62, 300), 2 ** 62, False),
])
def test_sort_keys_is_a_stable_argsort(monkeypatch, keys, bound, packed):
    calls = argsort_calls(monkeypatch)
    assert_stable_sort(keys, bound)
    # the reference's own call, then the fallback's when it is taken
    assert calls == ["stable"] * (1 if packed else 2)


def unique_edge_table(triangles, n_vertices):
    """The edge table by ``np.unique(return_inverse=True)``: the
    reference ``_edge_table`` must equal."""
    m = len(triangles)
    lo = triangles[:, [0, 1, 0]].T.ravel()
    hi = triangles[:, [1, 2, 2]].T.ravel()
    keys, side_edge = np.unique(lo * n_vertices + hi, return_inverse=True)
    edges = np.column_stack([keys // n_vertices, keys % n_vertices])
    return edges, side_edge.reshape(3, m).T


@pytest.mark.parametrize("name", ["gaussian", "lattice", "tiny"])
def test_edge_table_equals_the_unique_formula(name):
    rng = np.random.default_rng(5)
    pts = {
        "gaussian": rng.normal(size=(3000, 2)),
        "lattice": np.indices((30, 30)).reshape(2, -1).T.astype(float),
        "tiny": np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    }[name]
    tri = triangulate(pts)
    edges, tri_edges = delaunay._edge_table(tri.triangles, tri.n_vertices)
    want_edges, want_sides = unique_edge_table(tri.triangles, tri.n_vertices)
    assert edges.dtype == tri_edges.dtype == np.int64
    assert np.array_equal(edges, want_edges)
    assert np.array_equal(tri_edges, want_sides)
    assert np.array_equal(tri.edges, want_edges)
    assert np.array_equal(tri.tri_edges, want_sides)
