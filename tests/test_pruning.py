import numpy as np
import pytest

from tricluster import (
    connected_components,
    prune,
    prune_threshold,
    robust_z,
    sigma_rule,
    triangle_sizes,
    triangulate,
)


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
