"""Property tests of ``triangulate`` on small tie-heavy and
near-collinear sets.

CI installs only numpy and pytest, so these run where hypothesis is
installed and are skipped elsewhere.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tricluster import (  # noqa: E402
    CollinearError,
    TooFewPointsError,
    triangulate,
)

from bowyer_watson import bowyer_watson  # noqa: E402
from test_delaunay import (  # noqa: E402
    assert_matches_bowyer_watson,
    brute_incircle_ok,
    lattice,
    pythagorean_ring,
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
