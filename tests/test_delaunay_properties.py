"""Property tests of ``triangulate`` on small tie-heavy and
near-collinear sets, and of the labels ``fit_predict`` gives.

CI installs only numpy and pytest, so these run where hypothesis is
installed and are skipped elsewhere.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from tricluster import delaunay  # noqa: E402
from tricluster import (  # noqa: E402
    ClusterParams,
    CollinearError,
    TooFewPointsError,
    TriclusterError,
    fit_predict,
    triangulate,
)

from tricluster.predicates import incircle, orient2d  # noqa: E402

from bowyer_watson import bowyer_watson  # noqa: E402
from test_delaunay import (  # noqa: E402
    assert_matches_bowyer_watson,
    brute_incircle_ok,
    lattice,
    pythagorean_ring,
    signs_of,
)


@st.composite
def tie_heavy_sets(draw):
    """A small lattice, a cocircular ring or an integer set with
    duplicates, shuffled and scaled."""
    kind = draw(st.sampled_from(["lattice", "ring", "duplicates"]))
    if kind == "lattice":
        nx, ny = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        scale = draw(st.sampled_from([0.25, 1.0, 3.0]))
        pts = lattice(nx, ny) * [1.0, scale] + draw(st.integers(-9, 9))
    elif kind == "ring":
        pts = pythagorean_ring(draw(st.sampled_from([5, 25, 65])))
        if draw(st.booleans()):
            pts = np.vstack([pts, [[0.0, 0.0]]])
    else:
        side = draw(st.integers(1, 5))
        cells = draw(st.lists(st.tuples(st.integers(0, side),
                                        st.integers(0, side)),
                              min_size=3, max_size=50))
        pts = np.array(cells, dtype=np.float64)
    order = draw(st.permutations(range(len(pts))))
    factor = draw(st.sampled_from([1.0, 1e-150, 1e150, 2.0 ** -1000]))
    return pts[list(order)] * factor


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tie_heavy_sets())
def test_empty_circumcircles_and_bowyer_watson(pts):
    try:
        tri = triangulate(pts)
    except TooFewPointsError:
        assert len(np.unique(pts, axis=0)) < 3
        return
    except CollinearError:
        with pytest.raises(CollinearError):
            bowyer_watson(pts)
        return
    # the brute check passes numpy scalars, whose products warn on overflow
    with np.errstate(over="ignore", invalid="ignore"):
        assert brute_incircle_ok(pts[tri.unique_rows], tri.triangles)
    triangles, edges, tri_edges = bowyer_watson(pts)
    assert np.array_equal(tri.triangles, triangles)
    assert np.array_equal(tri.edges, edges)
    assert np.array_equal(tri.tri_edges, tri_edges)


# the 40 integer points of x^2 + y^2 = 5^4 * 13, all exactly cocircular
RING = np.array([(x, y) for x in range(-90, 91) for y in range(-90, 91)
                 if x * x + y * y == 5**4 * 13], dtype=np.float64)


@st.composite
def cocircular_sets(draw):
    """At least four points of ``RING``, and half of the time more from
    a second copy of it around another centre, with or without that
    centre; shuffled, and half of the time moved by 2^-20, which keeps
    every tie exact but takes the coordinates off the grid of exact
    float determinants. Also whether the set is one ring alone."""
    rows = st.lists(st.integers(0, len(RING) - 1), unique=True)
    pts = RING[draw(rows.filter(lambda r: len(r) >= 4))]
    single = draw(st.booleans())
    if not single:
        centre = draw(st.tuples(st.integers(-60, 60), st.integers(-60, 60)))
        more = RING[draw(rows)] + centre
        if draw(st.booleans()):
            more = np.vstack([more, [centre]])
        pts = np.vstack([pts, more])
    pts = pts[list(draw(st.permutations(range(len(pts)))))]
    return pts + draw(st.sampled_from([0.0, 2.0**-20])), single


def orientation_rule(xy, a, b, c, p):
    """The in-disk test with an exact tie broken as if the lifted point
    of the smallest id among a, b, c and p sat lowest: p is inside when
    it is that id, or else when the triangle with that id replaced by p
    is clockwise."""
    s = incircle(*xy[a], *xy[b], *xy[c], *xy[p])
    if s:
        return s > 0
    m = min(a, b, c, p)
    if m == p:
        return True
    abc = [a, b, c]
    abc[abc.index(m)] = p
    return orient2d(*xy[abc[0]], *xy[abc[1]], *xy[abc[2]]) < 0


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(cocircular_sets())
def test_ties_by_ids_equal_the_orientation_rule(drawn):
    # in_disk decides a tie by min(a, p) < min(b, c), which relies on p
    # lying across side (b, c) from a; the orientation rule does not
    pts, single = drawn
    ties = []
    in_disk = delaunay._Signs.in_disk

    def checked(signs, a, b, c, p):
        inside = in_disk(signs, a, b, c, p)
        xy = list(zip(signs.xs.tolist(), signs.ys.tolist()))
        quads = list(zip(a.tolist(), b.tolist(), c.tolist(), p.tolist()))
        assert inside.tolist() == [orientation_rule(xy, *q) for q in quads]
        ties.append(sum(incircle(*xy[a], *xy[b], *xy[c], *xy[p]) == 0
                        for a, b, c, p in quads))
        return inside

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(delaunay._Signs, "in_disk", checked)
        tri = triangulate(pts)

    # every interior side of the mesh from both of its triangles, and the
    # other diagonal of every cocircular quad, which the rules must flip
    xy = np.ascontiguousarray(pts[tri.unique_rows])
    signs = delaunay._Signs(xy.view(np.complex128)[:, 0], False)
    xy = xy.tolist()
    apex = {}
    for a, b, c in tri.triangles.tolist():
        if orient2d(*xy[a], *xy[b], *xy[c]) < 0:
            b, c = c, b
        apex.update({(a, b): c, (b, c): a, (c, a): b})
    quads, flips = [], []
    for (u, v), w in apex.items():
        d = apex.get((v, u))
        if d is not None:
            quads.append((w, u, v, d))
            flips.append(False)
            if incircle(*xy[w], *xy[u], *xy[v], *xy[d]) == 0:
                quads.append((u, d, w, v))
                flips.append(True)
    if quads:
        assert checked(signs, *np.array(quads).T).tolist() == flips
    assert sum(ties) or not single


@st.composite
def near_collinear_sets(draw):
    """Points of a line y = slope * x, each moved up to 4 ulps off it in
    y, and up to three points clearly off it; shuffled, with the axes
    swapped half of the time."""
    n = draw(st.integers(3, 40))
    x = np.array(draw(st.lists(st.integers(-500, 500), min_size=n,
                               max_size=n, unique=True)), dtype=np.float64)
    slope = draw(st.sampled_from([0.0, 1.0, 1.0 / 3.0, -2.5, 1e-9]))
    line = np.column_stack([x / 8, x / 8 * slope])
    ulps = np.array(draw(st.lists(st.integers(-4, 4), min_size=n,
                                  max_size=n)))
    for step in range(1, 5):
        moved = np.abs(ulps) >= step
        line[moved, 1] = np.nextafter(line[moved, 1],
                                      np.copysign(np.inf, ulps[moved]))
    off = draw(st.lists(st.tuples(st.integers(-500, 500),
                                  st.sampled_from([-1.0, -1e-3, 1e-3, 1.0])),
                        max_size=3))
    off = np.array(off, dtype=np.float64).reshape(-1, 2)
    off[:, 0] /= 8
    off[:, 1] += off[:, 0] * slope
    pts = np.vstack([line, off])
    pts = pts[list(draw(st.permutations(range(len(pts)))))]
    return pts[:, ::-1] if draw(st.booleans()) else pts


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(near_collinear_sets())
def test_near_collinear_sets_match_bowyer_watson(pts):
    try:
        triangulate(pts)
    except CollinearError:
        with pytest.raises(CollinearError):
            bowyer_watson(pts)
        return
    assert_matches_bowyer_watson(pts)


def chain_hull(pts):
    """Andrew's monotone chain over every point, by the exact orient2d:
    the strict hull's corners, counterclockwise from the lowest-x, then
    lowest-y point."""
    xy = pts.tolist()
    order = np.lexsort((pts[:, 1], pts[:, 0])).tolist()

    def chain(seq):
        out = []
        for i in seq:
            while len(out) >= 2 and orient2d(*xy[out[-2]], *xy[out[-1]],
                                             *xy[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    return chain(order)[:-1] + chain(order[::-1])[:-1]


@st.composite
def boxed_sets(draw):
    """Distinct points in a square of integer side: integer and float
    points inside, and integer points planted on its sides, which stay
    collinear when every coordinate is scaled; scaled by a factor that is
    mostly no power of two, and shuffled. At least three points, as
    ``triangulate`` hands ``_hull``."""
    side = draw(st.integers(1, 30))
    coord = st.integers(0, side)
    inner = draw(st.lists(st.tuples(coord, coord), max_size=40))
    floats = draw(st.lists(st.tuples(*[st.floats(0, side)] * 2),
                           max_size=20))
    planted = [(e, t) if horizontal else (t, e) for e, t, horizontal in
               draw(st.lists(st.tuples(st.sampled_from([0, side]), coord,
                                       st.booleans()), max_size=40))]
    factor = draw(st.sampled_from([0.1, 0.3, -0.7, 1.0, 1e-200]))
    pts = np.unique(factor * np.array(inner + floats + planted,
                                      dtype=np.float64).reshape(-1, 2),
                    axis=0)
    assume(len(pts) >= 3)
    return pts[list(draw(st.permutations(range(len(pts)))))]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(boxed_sets())
def test_hull_equals_the_chain_over_every_point(pts):
    # the exact filter drops the points on the extreme-point polygon's
    # sides; a strict corner must never be among them
    with np.errstate(all="ignore"):
        assert delaunay._hull(signs_of(pts)) == chain_hull(pts)


@st.composite
def blob_sets(draw):
    """One to four Gaussian blobs of 4-40 points in 2-5 dimensions,
    rounded to integers half of the time, which makes duplicate rows and
    cocircular quads."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 5))
    sizes = draw(st.lists(st.integers(4, 40), min_size=1, max_size=4))
    spread = draw(st.sampled_from([2.0, 8.0]))
    pts = np.vstack([rng.normal(rng.normal(0.0, spread, d), 1.0, (size, d))
                     for size in sizes])
    return np.round(pts) if draw(st.booleans()) else pts


cluster_params = st.builds(
    ClusterParams,
    prune_param=st.sampled_from([0.3, 1.0]),
    merge_param=st.sampled_from([-0.8, -1.9]),
    anomaly_sensitivity=st.sampled_from([0.99, 1.0]),
    merging_enabled=st.booleans(),
)


def labels_or_error(data, params, embedding=None):
    try:
        return fit_predict(data, params, external_embedding=embedding).labels
    except TriclusterError as exc:
        return type(exc)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(blob_sets(), cluster_params, st.integers(-600, 600))
def test_labels_are_canonical_and_scale_free(data, params, k):
    labels = labels_or_error(data, params)
    # the labels keep their bits when the data are scaled by 2^k, and a
    # failing input fails with the same error
    scaled = labels_or_error(np.ldexp(data, k), params)
    if isinstance(labels, type):
        assert scaled is labels
        return
    assert np.array_equal(scaled, labels)
    # -1, then 0..k-1 in the order each first occurs
    assert labels.dtype == np.int64 and (labels >= -1).all()
    clustered = labels[labels >= 0]
    _, first = np.unique(clustered, return_index=True)
    assert np.array_equal(clustered[np.sort(first)], np.arange(len(first)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(blob_sets(), cluster_params, st.data())
def test_duplicate_rows_take_their_representatives_label(data, params,
                                                         draws):
    # the embedding is the first two columns, imported, so an appended
    # copy of a row coincides with it in 2-D, exactly; half of the copies
    # differ from it in the other columns
    n, d = data.shape
    source = np.array(draws.draw(st.lists(st.integers(0, n - 1),
                                          min_size=1, max_size=n)))
    copies = data[source]
    moved = np.array(draws.draw(st.lists(st.booleans(), min_size=len(source),
                                         max_size=len(source))))
    copies[moved, 2:] += 100.0
    labels = labels_or_error(data, params, data[:, :2])
    grown = np.vstack([data, copies])
    with_copies = labels_or_error(grown, params, grown[:, :2])
    if isinstance(labels, type):
        assert with_copies is labels
        return
    # the first occurrence is the representative: the copies change no
    # label, and each copy takes its source row's
    assert np.array_equal(with_copies[:n], labels)
    assert np.array_equal(with_copies[n:], labels[source])
