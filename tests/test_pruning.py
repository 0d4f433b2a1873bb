import numpy as np
import pytest

from tricluster import (
    ShapeMismatchError,
    connected_components,
    prune,
    prune_threshold,
    sigma_rule,
    triangle_sizes,
    triangulate,
)
from tricluster.grouping import group_by_label
from tricluster.pruning import _BLOCK_BYTES, edge_lengths, squared_norms


def robust_z(values):
    """The sigma rule's original-space z-scores of ``values``."""
    return sigma_rule(values, values, 0.0).z


def sorted_median(values):
    s = sorted(values)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2.0


def bfs_components(n, edges):
    adj = {i: [] for i in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    labels = [-1] * n
    nxt = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        queue = [start]
        labels[start] = nxt
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if labels[w] == -1:
                    labels[w] = nxt
                    queue.append(w)
        nxt += 1
    return labels


def test_triangle_size_is_longest_edge():
    # original-space edge lengths {3, 4, 5}, projected {1, 1, sqrt 2}
    orig = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    proj = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tri = triangulate(proj)
    sizes = triangle_sizes(tri, orig, proj)
    assert sizes.sizes[0] == pytest.approx(5.0)
    assert sizes.sizes_proj[0] == pytest.approx(np.sqrt(2.0))


@pytest.mark.parametrize("orig_shape, proj_shape", [
    ((4, 2), (3, 2)),  # a row too many in the original space
    ((3, 2), (2, 2)),  # a row too few in the projection
    ((3, 2), (3,)),    # a 1-D projection
])
def test_triangle_sizes_rejects_a_wrong_shaped_space(orig_shape,
                                                     proj_shape):
    tri = triangulate(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ShapeMismatchError):
        triangle_sizes(tri, np.zeros(orig_shape), np.zeros(proj_shape))


def test_triangle_sizes_match_direct_recompute():
    rng = np.random.default_rng(4)
    proj = rng.standard_normal((30, 2))
    orig = rng.standard_normal((30, 5))
    tri = triangulate(proj)
    sizes = triangle_sizes(tri, orig, proj)
    for t, (i, j, k) in enumerate(tri.triangles.tolist()):
        expect = max(
            np.sqrt(((orig[i] - orig[j]) ** 2).sum()),
            np.sqrt(((orig[j] - orig[k]) ** 2).sum()),
            np.sqrt(((orig[k] - orig[i]) ** 2).sum()),
        )
        assert abs(sizes.sizes[t] - expect) < 1e-12


def test_squared_norms_equal_the_row_reduction_bit_for_bit():
    # two columns take one add in place of numpy's reduction over a
    # length-2 axis; the bits must not move, at any width
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 50):
        diff = rng.standard_normal((257, d))
        diff *= 10.0 ** rng.integers(-8, 8, (257, 1))
        want = np.add.reduce(diff * diff, axis=1)
        got = squared_norms(diff.copy())
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_robust_z_worked_example():
    # median 3, MAD 1
    s = np.array([1, 2, 3, 4, 5], dtype=np.float64)
    z = robust_z(s)
    assert z.tolist() == ((s - 3) / 1).tolist() == [-2, -1, 0, 1, 2]


def test_robust_z_all_equal():
    # MAD 0 with zero dispersion: nothing is an outlier
    z = robust_z([7.0] * 12)
    assert np.all(z == 0)


def test_robust_z_degenerate_mad_flags_outlier():
    # median 1, MAD 0: the epsilon floor keeps index 4 detectable
    s = np.array([1, 1, 1, 1, 100], dtype=np.float64)
    z = robust_z(s)
    assert z.tolist() == ((s - 1) / 1e-12).tolist()
    for sigma_f in (0.6, 1.0, 1.5, 1.9):
        theta = prune_threshold(z, sigma_f)
        flagged = np.where(z > theta)[0]
        assert flagged.tolist() == [4]


def test_robust_z_degenerate_mad_is_scale_free():
    # the zero-MAD floor scales with the sizes: an absolute floor gave
    # other z-scores to sizes below 1, and other labels to data at 2^-38
    for s in ([0.5, 0.5, 0.5, 0.5, 3.0], [0.0, 0.0, 0.0, 2.0, 5.0]):
        z = robust_z(s)
        assert z.max() > 1e11
        for k in (-300, -38, 38, 300):
            assert robust_z(np.ldexp(s, k)).tolist() == z.tolist()


def test_prune_threshold_worked_example():
    z = [-2, -1, 0, 1, 2]
    assert prune_threshold(z, 1.0) == pytest.approx(np.sqrt(2), abs=1e-12)
    assert prune_threshold([0, 0, 0], 5.0) == 0.0
    assert prune_threshold(z, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_prune_threshold_matches_definition_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        z = rng.standard_normal(rng.integers(1, 60)).tolist()
        sigma_f = float(rng.uniform(-2, 2))
        mean = sum(z) / len(z)
        var = sum((v - mean) ** 2 for v in z) / len(z)
        expect = mean + sigma_f * var**0.5
        assert abs(prune_threshold(z, sigma_f) - expect) < 1e-12


def test_robust_z_matches_sorting_oracle():
    rng = np.random.default_rng(12)
    for _ in range(50):
        s = rng.uniform(0, 10, rng.integers(1, 80))
        z = robust_z(s)
        med = sorted_median(s)
        mad = sorted_median([abs(v - med) for v in s])
        if mad > 0:
            for i, v in enumerate(s):
                assert abs(z[i] - (v - med) / mad) < 1e-12
        else:  # a single value
            assert len(s) == 1 and z.tolist() == [0.0]


def test_sigma_rule_matches_definition_oracle():
    # theta from the original-space z alone; keep when max(z, z_proj) <= theta
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        values = rng.uniform(0, 10, n)
        values_proj = rng.uniform(0, 3, n)
        sigma_f = float(rng.uniform(-2, 2))
        res = sigma_rule(values, values_proj, sigma_f)
        z, z_proj = [], []
        for vals, out in ((values, z), (values_proj, z_proj)):
            med = sorted_median(vals)
            mad = sorted_median([abs(v - med) for v in vals])
            out.extend((v - med) / mad for v in vals)
        mean = sum(z) / n
        theta = mean + sigma_f * (sum((v - mean) ** 2 for v in z) / n) ** 0.5
        assert abs(res.theta - theta) < 1e-9
        assert np.allclose(res.z, z, atol=1e-12)
        assert np.allclose(res.z_proj, z_proj, atol=1e-12)
        want = [max(a, b) <= res.theta for a, b in zip(res.z, res.z_proj)]
        assert res.keep_mask.tolist() == want


def test_prune_applies_sigma_rule_to_triangle_sizes():
    rng = np.random.default_rng(14)
    orig = rng.standard_normal((50, 4))
    proj = rng.standard_normal((50, 2))
    tri = triangulate(proj)
    sizes = triangle_sizes(tri, orig, proj)
    res, _ = prune(tri, sizes, 0.7)
    want = sigma_rule(sizes.sizes, sizes.sizes_proj, 0.7)
    assert res.theta == want.theta
    assert np.array_equal(res.keep_mask, want.keep_mask)
    assert np.array_equal(res.z, want.z)
    assert np.array_equal(res.z_proj, want.z_proj)


def test_prune_nothing_dropped_when_threshold_high():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((40, 2))
    tri = triangulate(pts)
    sizes = triangle_sizes(tri, pts, pts)
    _, edges = prune(tri, sizes, 1e9)
    assert np.array_equal(edges, tri.edges)


def test_prune_everything_dropped_when_threshold_low():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((40, 2))
    tri = triangulate(pts)
    sizes = triangle_sizes(tri, pts, pts)
    res, edges = prune(tri, sizes, -1e9)
    assert not res.keep_mask.any()
    assert len(edges) == 0
    labels = connected_components(tri.n_vertices, edges)
    assert len(np.unique(labels)) == 40  # every point its own component


def test_prune_two_blobs_recovers_truth():
    rng = np.random.default_rng(3)
    a = rng.normal(0, 0.5, (20, 2))
    b = rng.normal(0, 0.5, (20, 2)) + [50.0, 0.0]
    pts = np.vstack([a, b])
    tri = triangulate(pts)
    sizes = triangle_sizes(tri, pts, pts)
    _, edges = prune(tri, sizes, 1.0)
    labels = connected_components(tri.n_vertices, edges)
    oracle = bfs_components(tri.n_vertices, edges.tolist())
    assert labels.tolist() == oracle
    assert len(np.unique(labels)) == 2
    assert len(np.unique(labels[:20])) == 1
    assert len(np.unique(labels[20:])) == 1


def test_connected_components_chain_plus_isolate():
    edges = np.array([[0, 1], [1, 2]])
    assert connected_components(4, edges).tolist() == [0, 0, 0, 1]


def test_connected_components_empty():
    edges = np.zeros((0, 2), dtype=np.int64)
    assert connected_components(5, edges).tolist() == [0, 1, 2, 3, 4]


def test_connected_components_vs_bfs_oracle():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 200))
        m = int(rng.integers(0, 3 * n))
        edges = rng.integers(0, n, (m, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        got = connected_components(n, edges)
        want = bfs_components(n, edges.tolist())
        # same partition (canonical ordering makes them equal outright)
        assert got.tolist() == want


def union_find_components(n, edges):
    """Labels by a union-find, numbered by each component's minimum."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in edges:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    roots = [find(i) for i in range(n)]
    number = {r: k for k, r in enumerate(sorted(set(roots)))}
    return [number[r] for r in roots]


def test_connected_components_vs_union_find_with_isolated_vertices():
    # components numbered by the rank of their root, the minimum vertex;
    # the edges touch only some vertices, so many are isolated
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(1, 300))
        touched = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
        edges = touched[rng.integers(0, len(touched),
                                     (int(rng.integers(0, n)), 2))]
        got = connected_components(n, edges)
        assert got.dtype == np.int64
        assert got.tolist() == union_find_components(n, edges.tolist())


def test_retention_monotonicity():
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((60, 2)) * 3
    tri = triangulate(pts)
    sizes = triangle_sizes(tri, pts, pts)
    prev = None
    for sigma_f in (-1.0, 0.0, 0.5, 1.0, 2.0):
        res, _ = prune(tri, sizes, sigma_f)
        if prev is not None:
            assert np.all(prev <= res.keep_mask)  # subset relation
        prev = res.keep_mask


def test_scale_invariance_of_pruning():
    rng = np.random.default_rng(7)
    orig = rng.standard_normal((80, 6))
    proj = rng.standard_normal((80, 2))
    tri = triangulate(proj)
    base_sizes = triangle_sizes(tri, orig, proj)
    base_res, base_edges = prune(tri, base_sizes, 1.0)
    base_labels = connected_components(tri.n_vertices, base_edges)
    for c in (1e-3, 1e3, 7.0):
        sizes = triangle_sizes(tri, orig * c, proj)
        assert np.allclose(sizes.sizes, base_sizes.sizes * c, rtol=1e-12)
        res, edges = prune(tri, sizes, 1.0)
        assert np.array_equal(res.keep_mask, base_res.keep_mask)
        assert np.allclose(res.z, base_res.z, atol=1e-9)
        assert abs(res.theta - base_res.theta) < 1e-9
        assert np.array_equal(connected_components(tri.n_vertices, edges),
                              base_labels)


def test_kept_edges_backed_by_kept_triangles():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((70, 2))
    tri = triangulate(pts)
    sizes = triangle_sizes(tri, pts, pts)
    res, edges = prune(tri, sizes, 0.5)
    kept_edges = set()
    dropped_only = set()
    for keep, (a, b, c) in zip(res.keep_mask, tri.triangles.tolist()):
        bucket = kept_edges if keep else dropped_only
        bucket |= {(a, b), (a, c), (b, c)}
    assert {tuple(e) for e in edges.tolist()} == kept_edges
    for e in dropped_only - kept_edges:
        assert tuple(e) not in {tuple(x) for x in edges.tolist()}


def test_components_partition_vertices():
    rng = np.random.default_rng(10)
    pts = rng.standard_normal((50, 2))
    tri = triangulate(pts)
    sizes = triangle_sizes(tri, pts, pts)
    _, edges = prune(tri, sizes, 0.0)
    labels = connected_components(tri.n_vertices, edges)
    assert len(labels) == 50
    assert labels.min() >= 0
    # canonical: labels keyed by ascending minimum vertex
    firsts = [np.where(labels == k)[0][0] for k in range(labels.max() + 1)]
    assert firsts == sorted(firsts)


@pytest.mark.parametrize("d, n", [(2, 10_000), (50, 1_000), (1_000, 200)])
def test_edge_lengths_equal_the_per_edge_reduction_bit_for_bit(d, n):
    # blocks are summed in place; every length must keep the bits of its
    # own row's reduction, across block ends and a short last block
    rng = np.random.default_rng(d)
    tri = triangulate(rng.standard_normal((n, 2)))
    space = rng.standard_normal((n, d))
    a = tri.unique_rows[tri.edges[:, 0]]
    b = tri.unique_rows[tri.edges[:, 1]]
    step = max(1, _BLOCK_BYTES // (8 * d))
    assert len(a) > step + 1 and len(a) % step
    # the edge on the second row of the second block gets a difference
    # whose squares underflow, so it is measured again at another scale;
    # its ends' other edges stay in range
    far = step + 1
    space[a[far], :2] = 0.0
    space[b[far]] = space[a[far]]
    space[b[far], :2] = (1e-200, -3e-201)
    want = np.array([np.sqrt(np.add.reduce((space[i] - space[j]) ** 2))
                     for i, j in zip(a.tolist(), b.tolist())])
    assert want[far] == 0.0
    # a power-of-two scale is exact while no square leaves the range
    diff = np.ldexp(space[a[far]] - space[b[far]], 700)
    want[far] = np.ldexp(np.sqrt(np.add.reduce(diff ** 2)), -700)
    assert want[far] > 1e-200
    assert edge_lengths(tri, space).tobytes() == want.tobytes()


def test_edge_lengths_past_the_float_range_share_one_unit():
    # a difference that overflows is formed from the pair at its own
    # scale; and since some lengths exceed DBL_MAX, every length comes
    # in one unit, the same power of two for all
    big = np.random.default_rng(0).uniform(-1.0, 1.0, (300, 3)) * 1.5e308
    tri = triangulate(big[:, :2])
    small = edge_lengths(tri, big / 2**20)
    assert (small > np.finfo(np.float64).max / 2**20).any()
    with np.errstate(all="raise"):
        got = edge_lengths(tri, big)
    unit = small / got
    assert np.isfinite(got).all() and (unit == unit[0]).all()
    assert np.frexp(unit[0])[0] == 0.5 and 2.0 ** -20 < unit[0] < 1.0


@pytest.mark.parametrize("k", [-1000, 1000])
def test_edge_lengths_at_extreme_scales(k):
    # squares that under- or overflow are measured again at a scale that
    # fits, so the lengths scale with the data, to the bit
    rng = np.random.default_rng(5)
    coords = rng.standard_normal((400, 2))
    tri = triangulate(coords)
    for space in (coords, rng.standard_normal((400, 7))):
        want = np.ldexp(edge_lengths(tri, space), k)
        got = edge_lengths(tri, np.ldexp(space, k))
        assert got.tobytes() == want.tobytes()


def argsort_group_by_label(labels):
    """group_by_label by a stable ``argsort``: the reference it must
    equal."""
    labelled = np.flatnonzero(labels >= 0)
    order = labelled[np.argsort(labels[labelled], kind="stable")]
    sorted_labels = labels[order]
    starts = np.flatnonzero(np.diff(sorted_labels, prepend=-1))
    counts = np.diff(np.r_[starts, len(order)])
    return sorted_labels[starts], order, starts, counts


@pytest.mark.parametrize("low, high", [(-1, 0), (-1, 5), (-3, 1999),
                                       (-1, 2 ** 63 - 1)])
def test_group_by_label_equals_the_argsort_formula(low, high):
    # labels near 2^63 take the argsort fallback of sort_keys
    rng = np.random.default_rng(abs(high) % 1000)
    for n in (0, 1, 3, 700, 20_000):
        labels = rng.integers(low, high, size=n, dtype=np.int64,
                              endpoint=True)
        got = group_by_label(labels)
        for g, w in zip(got, argsort_group_by_label(labels)):
            assert g.dtype == np.int64
            assert np.array_equal(g, w)


@pytest.mark.parametrize("edges", [[[0, -1]], [[0, 5]], [[0, 3]],
                                   [[0, 1, 2]], [0, 1]])
def test_connected_components_rejects_edges_outside_the_vertices(edges):
    # -1 would silently index vertex 2, and 5 raised a raw IndexError
    with pytest.raises(ShapeMismatchError):
        connected_components(3, np.asarray(edges, dtype=np.int64))


def test_sigma_rule_rejects_values_of_unequal_length():
    with pytest.raises(ShapeMismatchError):
        sigma_rule([1.0, 2.0, 3.0], [1.0, 2.0], 1.0)


def test_sigma_rule_keeps_the_medians_of_its_z_scores():
    rng = np.random.default_rng(3)
    values, values_proj = rng.gamma(2.0, size=(2, 301))
    rule = sigma_rule(values, values_proj, 0.5)
    assert rule.median == float(np.median(values))
    assert rule.median_proj == float(np.median(values_proj))


def test_edge_lengths_rejects_coordinates_of_another_row_count():
    tri = triangulate(np.random.default_rng(2).normal(size=(20, 2)))
    with pytest.raises(ShapeMismatchError):
        edge_lengths(tri, np.zeros((19, 3)))
