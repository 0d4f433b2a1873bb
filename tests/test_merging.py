import numpy as np

import pytest

from tricluster import (
    ShapeMismatchError,
    compute_representatives,
    generate,
    merge_clusters,
    robust_z,
    SynthConfig,
    fit_predict,
    ClusterParams,
    triangulate,
)


def test_singleton_cluster_rep_is_sole_point():
    labels = np.array([0, 1, 1, 1])
    proj = np.array([[5.0, 5.0], [0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
    reps = compute_representatives(labels, proj)
    assert reps.cluster_ids.tolist() == [0, 1]
    assert reps.rep_point_index[0] == 0


def test_collinear_points_middle_is_rep():
    labels = np.zeros(3, dtype=np.int64)
    proj = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    reps = compute_representatives(labels, proj)
    assert reps.rep_point_index[0] == 1  # the mean coincides with the middle


def test_rep_matches_exhaustive_argmin():
    rng = np.random.default_rng(0)
    proj = rng.standard_normal((50, 2))
    labels = np.zeros(50, dtype=np.int64)
    reps = compute_representatives(labels, proj)
    mean = proj.mean(axis=0)
    dists = np.sqrt(((proj - mean) ** 2).sum(axis=1))
    assert reps.rep_point_index[0] == int(np.argmin(dists))


def test_anomalies_excluded_from_representatives():
    labels = np.array([-1, 0, 0, -1, 1])
    proj = np.random.default_rng(1).standard_normal((5, 2))
    reps = compute_representatives(labels, proj)
    assert reps.cluster_ids.tolist() == [0, 1]
    assert all(labels[i] >= 0 for i in reps.rep_point_index)


def test_merge_k1_unchanged():
    rng = np.random.default_rng(2)
    proj = rng.standard_normal((10, 2))
    labels = np.zeros(10, dtype=np.int64)
    reps = compute_representatives(labels, proj)
    out, rule = merge_clusters(labels, reps, reps.rep_coords_proj, -0.8)
    assert np.array_equal(out, labels)
    assert rule is None


def test_merge_k2_unchanged():
    rng = np.random.default_rng(3)
    proj = np.vstack([rng.standard_normal((5, 2)),
                      rng.standard_normal((5, 2)) + 10])
    labels = np.repeat([0, 1], 5)
    reps = compute_representatives(labels, proj)
    out, rule = merge_clusters(labels, reps, reps.rep_coords_proj, -0.8)
    assert np.array_equal(out, labels)
    assert rule is None


def _two_pairs_layout():
    """Four tight knots: two near-adjacent pairs, pairs far apart."""
    rng = np.random.default_rng(4)
    knots = []
    centers = [(0.0, 0.0), (1.2, 0.9), (100.0, 0.0), (101.2, 0.9)]
    for cx, cy in centers:
        knots.append(rng.normal(0, 0.05, (6, 2)) + [cx, cy])
    pts = np.vstack(knots)
    labels = np.repeat([0, 1, 2, 3], 6)
    return pts, labels


def test_merge_two_pairs_gives_two_clusters():
    pts, labels = _two_pairs_layout()
    reps = compute_representatives(labels, pts)
    out, _ = merge_clusters(labels, reps, reps.rep_coords_proj, -0.8)
    # the pairs must join, across-pair stays apart
    assert len(np.unique(out)) == 2
    assert len(np.unique(out[:12])) == 1
    assert len(np.unique(out[12:])) == 1
    assert out[0] != out[12]


def test_merge_never_splits():
    rng = np.random.default_rng(5)
    data, _ = generate(SynthConfig(n_points=300, n_clusters=4, n_dim=3,
                                   overlap=0.15, anomaly_fraction=0.0,
                                   random_state=8))
    proj = data[:, :2]
    labels = rng.integers(0, 12, size=300).astype(np.int64)
    reps = compute_representatives(labels, proj)
    out, _ = merge_clusters(labels, reps, data[reps.rep_point_index], -0.5)
    # coarsening: every input cluster maps into exactly one output cluster
    for cid in np.unique(labels):
        assert len(np.unique(out[labels == cid])) == 1


def test_merge_preserves_anomaly_labels():
    rng = np.random.default_rng(6)
    proj = rng.standard_normal((30, 2))
    labels = rng.integers(0, 5, size=30).astype(np.int64)
    labels[[3, 17]] = -1
    reps = compute_representatives(labels, proj)
    out, _ = merge_clusters(labels, reps, reps.rep_coords_proj, -0.8)
    assert out[3] == -1 and out[17] == -1


def test_merge_param_minus_infinity_no_merge():
    rng = np.random.default_rng(7)
    proj = rng.standard_normal((40, 2)) * 5
    labels = rng.integers(0, 8, size=40).astype(np.int64)
    reps = compute_representatives(labels, proj)
    out, _ = merge_clusters(labels, reps, reps.rep_coords_proj, -1e9)
    # partition unchanged (labels canonicalized but grouping identical)
    for cid in np.unique(labels):
        members = labels == cid
        assert len(np.unique(out[members])) == 1
        assert not np.any(out[members][0] == out[~members])


def test_merge_conservative_on_synthetic():
    # merges stay small relative to the initial cluster count
    data, _ = generate(SynthConfig(n_points=800, n_clusters=5, n_dim=8,
                                   overlap=0.12, anomaly_fraction=0.03,
                                   random_state=9))
    result = fit_predict(data, ClusterParams(prune_param=1.2,
                                             merge_param=-1.5,
                                             anomaly_sensitivity=1.0))
    k_before = result.trace.n_components_initial
    merges = result.trace.merge_count
    assert merges <= k_before / 2


def loop_representatives(labels, proj):
    """Per-cluster loop: the member closest to the mean, smaller index on ties."""
    ids, reps = [], []
    for cid in sorted(set(labels.tolist()) - {-1}):
        members = [i for i in range(len(labels)) if labels[i] == cid]
        mean = proj[members].mean(axis=0)
        d2 = [((proj[i] - mean) ** 2).sum() for i in members]
        ids.append(cid)
        reps.append(members[d2.index(min(d2))])
    return ids, reps


def test_representatives_match_loop_oracle():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(5, 300))
        proj = rng.standard_normal((n, 2))
        labels = rng.integers(-1, max(2, n // 4), size=n).astype(np.int64)
        reps = compute_representatives(labels, proj)
        ids, want = loop_representatives(labels, proj)
        assert reps.cluster_ids.tolist() == ids
        assert reps.rep_point_index.tolist() == want
        assert np.array_equal(reps.rep_coords_proj, proj[want])


def test_representative_ties_go_to_smaller_index():
    # the four corners are equally close to the square's mean
    proj = np.array([[5.0, 5.0], [1.0, 1.0], [-1.0, 1.0], [1.0, -1.0],
                     [-1.0, -1.0]])
    labels = np.array([0, 1, 1, 1, 1])
    reps = compute_representatives(labels, proj)
    assert reps.rep_point_index.tolist() == [0, 1]
    assert loop_representatives(labels, proj)[1] == [0, 1]


def test_merge_coincident_representatives():
    # cluster 4 repeats cluster 1's points, so both representatives
    # collapse onto one vertex of the representative mesh; the surviving
    # edge that joins the near pair there joins cluster 4 as well
    pts, labels = _two_pairs_layout()
    pts = np.vstack([pts, pts[6:12]])
    labels = np.concatenate([labels, np.full(6, 4)])
    reps = compute_representatives(labels, pts)
    assert np.array_equal(reps.rep_coords_proj[1], reps.rep_coords_proj[4])
    out, _ = merge_clusters(labels, reps, reps.rep_coords_proj, -0.8)
    assert len(np.unique(out[:12])) == 1
    assert np.all(out[24:] == out[0])
    assert out[0] != out[12]
    assert len(np.unique(out)) == 2


def test_coincident_representatives_merge_without_kept_edges():
    # no representative edge survives, yet the representatives of
    # clusters 1 and 4 share a projected point and so a vertex, which
    # joins them even though their original-space rows differ
    pts, labels = _two_pairs_layout()
    pts = np.vstack([pts, pts[6:12]])
    labels = np.concatenate([labels, np.full(6, 4)])
    reps = compute_representatives(labels, pts)
    original = np.hstack([reps.rep_coords_proj,
                          100.0 * np.arange(5.0)[:, None]])
    out, rule = merge_clusters(labels, reps, original, -1e9)
    assert not rule.keep_mask.any()
    assert np.all(out[24:] == out[6])
    assert len(np.unique(out)) == 4


def test_merge_threshold_matches_norm_oracle():
    # the merge stage measures representative edges in both spaces with
    # the norm of the row difference and applies pruning's sigma rule
    rng = np.random.default_rng(32)
    proj = rng.standard_normal((200, 2)) * 4
    orig = np.hstack([proj, rng.standard_normal((200, 5))])
    labels = rng.integers(0, 25, size=200).astype(np.int64)
    reps = compute_representatives(labels, proj)
    out, rule = merge_clusters(labels, reps, orig[reps.rep_point_index],
                               -0.5)
    rep_tri = triangulate(reps.rep_coords_proj)
    rows = reps.rep_point_index[rep_tri.unique_rows]
    a, b = rows[rep_tri.edges[:, 0]], rows[rep_tri.edges[:, 1]]
    z = robust_z(np.linalg.norm(orig[a] - orig[b], axis=1))
    z_proj = robust_z(np.linalg.norm(proj[a] - proj[b], axis=1))
    theta = z.mean() - 0.5 * z.std()
    keep = np.maximum(z, z_proj) <= theta
    assert abs(rule.theta - theta) < 1e-12
    assert len(rule.keep_mask) == len(rep_tri.edges)
    assert int(rule.keep_mask.sum()) == int(keep.sum())
    # the output partition unions exactly the clusters of the kept edges
    root = list(range(25))

    def find(c):
        while root[c] != c:
            c = root[c]
        return c

    for i, j in zip(a[keep], b[keep]):
        ri, rj = find(int(labels[i])), find(int(labels[j]))
        root[max(ri, rj)] = min(ri, rj)
    want = [find(int(c)) for c in labels]
    assert keep.any()
    assert (len(set(zip(want, out.tolist()))) == len(set(want))
            == len(np.unique(out)))


def test_representatives_at_extreme_scales():
    # squared distances that under- or overflow are compared at a scale
    # that fits, so no tie is made where the in-range data have none
    rng = np.random.default_rng(8)
    proj = rng.standard_normal((3000, 2))
    labels = rng.integers(0, 40, 3000)
    want = compute_representatives(labels, proj).rep_point_index
    for k in (-1000, 1000):
        got = compute_representatives(labels, np.ldexp(proj, k))
        assert np.array_equal(got.rep_point_index, want)


def test_representatives_reject_labels_of_another_length():
    with pytest.raises(ShapeMismatchError):
        compute_representatives([0, 0, 1], np.zeros((2, 2)))


@pytest.mark.parametrize("rows", [2, 4])
def test_merge_rejects_original_rows_of_another_count(rows):
    proj = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    labels = np.array([0, 1, 2])
    reps = compute_representatives(labels, proj)
    with pytest.raises(ShapeMismatchError):
        merge_clusters(labels, reps, np.zeros((rows, 5)), -0.8)
