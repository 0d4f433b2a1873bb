import numpy as np
import pytest

from tricluster import (
    TriangleSizes,
    detect_anomaly_groups,
    score_and_merge,
    sigma_rule,
    triangle_sizes,
    triangulate,
)


def dist(x, p, q):
    return float(np.sqrt(((x[p] - x[q]) ** 2).sum()))


def loop_oracle(labels, tau, tri, orig, proj, sensitivity):
    """Per-edge, per-cluster loops over the scoring definition.

    Returns (labels, group_of, [(best_cluster, best_score, merged)],
    delta), with the groups found by counting members and max-edge
    triangle sizes measured directly on the coordinates.
    """
    members_of = {}
    for v, c in enumerate(labels.tolist()):
        if c >= 0:
            members_of.setdefault(c, []).append(v)
    groups = sorted((m for m in members_of.values() if len(m) <= tau),
                    key=min)
    group_of = [-1] * len(labels)
    for gid, g in enumerate(groups):
        for v in g:
            group_of[v] = gid
    rows = tri.unique_rows
    o, p_ = orig[rows], proj[rows]
    sizes, sizes_proj = [], []
    for a, b, c in tri.triangles.tolist():
        sizes.append(max(dist(o, a, b), dist(o, b, c), dist(o, a, c)))
        sizes_proj.append(max(dist(p_, a, b), dist(p_, b, c), dist(p_, a, c)))
    med_orig, med_proj = np.median(sizes), np.median(sizes_proj)
    alpha = med_proj / med_orig if med_orig > 0 else 1.0
    mu = float(np.mean(sizes_proj))
    floor = 1e-12 * (med_proj if med_proj > 0 else 1.0)

    neighbors = {}
    for a, b in tri.edges.tolist():
        neighbors.setdefault(a, set()).add(b)
        neighbors.setdefault(b, set()).add(a)
    anomalous = {v for g in groups for v in g}
    out = np.array(labels, dtype=np.int64)
    out[sorted(anomalous)] = -1
    all_scores, per_group = [], []
    for g in groups:
        members = set(g)
        sums, n_edges = {}, 0
        for v in sorted(members):
            for q in sorted(neighbors.get(v, ())):
                if q in members:
                    continue
                n_edges += 1
                cid = int(labels[q])
                if cid < 0 or q in anomalous:
                    continue
                d = max(alpha * dist(o, v, q), dist(p_, v, q), floor)
                sums[cid] = sums.get(cid, 0.0) + 1.0 / d
        scores = {c: mu / n_edges * t for c, t in sums.items()}
        per_group.append(scores)
        all_scores += list(scores.values())
    if sensitivity >= 1.0:
        delta = np.inf
    elif sensitivity <= 0.0:
        delta = -np.inf
    else:
        delta = float(np.quantile(all_scores, sensitivity)) if all_scores else np.inf
    decisions = []
    for g, scores in zip(groups, per_group):
        best, best_score = -1, float("nan")
        for c in sorted(scores):  # strict > keeps the smaller id on ties
            if best < 0 or scores[c] > best_score:
                best, best_score = c, scores[c]
        merged = best >= 0 and best_score > delta
        if merged:
            out[g] = best
        decisions.append((best, best_score, merged))
    return out, group_of, decisions, delta


def assert_matches_oracle(labels, tri, orig, proj, tau, sensitivity):
    groups = detect_anomaly_groups(labels, tau)
    out, decisions = score_and_merge(
        groups, labels, tri, triangle_sizes(tri, orig, proj),
        sensitivity,
    )
    want, want_group_of, want_decisions, want_delta = loop_oracle(
        labels, tau, tri, orig, proj, sensitivity)
    assert out.tolist() == want.tolist()
    assert decisions.group_of.tolist() == want_group_of
    assert len(groups) == len(want_decisions)
    assert len(decisions.best_cluster) == len(decisions.best_score) == (
        len(decisions.merged)) == len(want_decisions)
    for i, (best, score, merged) in enumerate(want_decisions):
        assert decisions.best_cluster[i] == best
        assert decisions.merged[i] == merged
        if best < 0:
            assert np.isnan(decisions.best_score[i])
        else:
            assert decisions.best_score[i] == pytest.approx(score, rel=1e-12)
    assert decisions.delta == pytest.approx(want_delta, rel=1e-12)
    return groups, decisions


def test_detect_groups_by_size():
    labels = np.array([0] * 50 + [1] * 2 + [2] * 40)
    groups = detect_anomaly_groups(labels, tau=3)
    assert groups.dtype == np.int64
    assert groups.tolist() == [1]


def test_detect_orders_groups_by_minimum_member():
    labels = np.array([3, 1, 3, 1, 0, 0, 0, 2, 2, 2])
    assert detect_anomaly_groups(labels, tau=2).tolist() == [3, 1]


def test_detect_no_groups_when_all_large():
    labels = np.array([0] * 5 + [1] * 4)
    groups = detect_anomaly_groups(labels, tau=1)
    assert groups.dtype == np.int64 and len(groups) == 0


def test_detect_all_singletons():
    labels = np.array([0, 1, 2])
    groups = detect_anomaly_groups(labels, tau=3)
    assert groups.tolist() == [0, 1, 2]


def test_anomaly_distance_formula():
    # one triangle: vertices 0 and 1 form cluster 0, vertex 2 a singleton
    orig = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 8.0, 0.0]])
    proj = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tri = triangulate(proj)
    labels = np.array([0, 0, 1])
    groups = detect_anomaly_groups(labels, tau=1)
    _, decisions = score_and_merge(
        groups, labels, tri, triangle_sizes(tri, orig, proj),
        0.0,
    )
    # alpha = max proj edge / max orig edge = sqrt(2) / sqrt(73)
    alpha = np.sqrt(2.0) / np.sqrt(73.0)
    d_02 = max(alpha * 8.0, 1.0)
    d_12 = max(alpha * np.sqrt(73.0), np.sqrt(2.0))
    mu = np.sqrt(2.0)
    expect = mu / 2 * (1.0 / d_02 + 1.0 / d_12)
    assert decisions.best_cluster.tolist() == [0]
    assert decisions.best_score[0] == pytest.approx(expect, rel=1e-14)


def test_anomaly_distance_zero_is_floored():
    # edges of zero length in both spaces are floored at
    # 1e-12 * median projected size, so the score stays finite
    tri = triangulate(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    zeros = np.zeros(len(tri.edges))
    sizes = TriangleSizes(sizes=np.array([2.0]), sizes_proj=np.array([4.0]),
                          edge_len=zeros, edge_len_proj=zeros)
    labels = np.array([0, 0, 1])
    groups = detect_anomaly_groups(labels, tau=1)
    _, decisions = score_and_merge(
        groups, labels, tri, sizes,
        0.0,
    )
    assert decisions.best_score[0] == pytest.approx(4.0 / 2 * 2 / 4e-12)


@pytest.mark.parametrize("k", [-1000, 1000])
def test_scores_keep_their_bits_at_extreme_scales(k):
    # the scores are taken at the scale that brings the largest distance
    # into [1, 2); a power of two on every size moves no bit of them
    rng = np.random.default_rng(4)
    orig = rng.standard_normal((200, 5))
    proj = orig[:, :2] + 0.1 * rng.standard_normal((200, 2))
    tri = triangulate(proj)
    sizes = triangle_sizes(tri, orig, proj)
    labels = (proj[:, 0] > 0).astype(np.int64)
    labels[::13] = 2 + np.arange(16)
    groups = detect_anomaly_groups(labels, tau=3)
    scaled = TriangleSizes(*(np.ldexp(v, k) for v in (
        sizes.sizes, sizes.sizes_proj, sizes.edge_len, sizes.edge_len_proj)))
    want = score_and_merge(groups, labels, tri, sizes, 0.5)[1]
    got = score_and_merge(groups, labels, tri, scaled, 0.5)[1]
    assert got.best_score.tobytes() == want.best_score.tobytes()
    assert want.merged.any()


def test_anomaly_distance_matches_recompute():
    # the distance of every scored edge comes from the stage-one edge
    # lengths; check them against a recompute from the coordinates
    rng = np.random.default_rng(0)
    orig = rng.standard_normal((20, 6))
    proj = rng.standard_normal((20, 2))
    tri = triangulate(proj)
    sizes = triangle_sizes(tri, orig, proj)
    for _ in range(50):
        e = int(rng.integers(len(tri.edges)))
        p, q = tri.edges[e]
        alpha = float(rng.uniform(0.1, 3.0))
        expect = max(alpha * dist(orig, p, q), dist(proj, p, q))
        got = max(alpha * sizes.edge_len[e], sizes.edge_len_proj[e])
        assert abs(got - expect) < 1e-12


def _one_cluster_with_straggler():
    """A dense knot plus one nearby singleton, pre-labeled as two clusters."""
    rng = np.random.default_rng(5)
    knot = rng.normal(0, 0.4, (20, 2))
    lone = np.array([[2.5, 0.0]])
    pts = np.vstack([knot, lone])
    tri = triangulate(pts)
    labels = np.array([0] * 20 + [1])
    return pts, tri, labels


def test_sensitivity_one_never_merges():
    pts, tri, labels = _one_cluster_with_straggler()
    groups = detect_anomaly_groups(labels, tau=3)
    assert len(groups) == 1
    out, decisions = score_and_merge(
        groups, labels, tri, triangle_sizes(tri, pts, pts),
        1.0,
    )
    assert out[20] == -1
    assert decisions.merged.tolist() == [False]


def test_sensitivity_zero_always_merges():
    pts, tri, labels = _one_cluster_with_straggler()
    groups = detect_anomaly_groups(labels, tau=3)
    out, decisions = score_and_merge(
        groups, labels, tri, triangle_sizes(tri, pts, pts),
        0.0,
    )
    assert decisions.merged.tolist() == [True]
    assert out[20] == 0


def test_tie_breaks_to_smaller_cluster_id():
    # a singleton exactly between two mirror-image clusters
    left = np.array([[-2.0, 0.0], [-3.0, 1.0], [-3.0, -1.0], [-4.0, 0.0]])
    right = -left  # perfect mirror
    lone = np.array([[0.0, 0.0]])
    pts = np.vstack([left, right, lone])
    tri = triangulate(pts)
    labels = np.array([0] * 4 + [1] * 4 + [2])
    groups = detect_anomaly_groups(labels, tau=1)
    assert len(groups) == 1
    out, decisions = score_and_merge(
        groups, labels, tri, triangle_sizes(tri, pts, pts),
        0.0,
    )
    assert decisions.best_cluster.tolist() == [0]  # symmetric, smaller id
    assert out[8] == 0


def test_monotone_in_sensitivity():
    rng = np.random.default_rng(9)
    blob_a = rng.normal(0, 0.5, (25, 2))
    blob_b = rng.normal(0, 0.5, (25, 2)) + [8.0, 0.0]
    stragglers = np.array([[2.0, 0.0], [4.0, 1.0], [6.0, -1.0], [3.0, 3.0]])
    pts = np.vstack([blob_a, blob_b, stragglers])
    tri = triangulate(pts)
    labels = np.array([0] * 25 + [1] * 25 + [2, 3, 4, 5])
    prev_merged = None
    for sens in (1.0, 0.75, 0.5, 0.25, 0.0):
        groups = detect_anomaly_groups(labels, tau=1)
        _, decisions = score_and_merge(
            groups, labels, tri, triangle_sizes(tri, pts, pts),
            sens,
        )
        merged = set(np.flatnonzero(decisions.merged).tolist())
        if prev_merged is not None:
            assert prev_merged <= merged  # lowering sensitivity only adds
        prev_merged = merged
    assert len(prev_merged) == 4  # sensitivity 0 merges every candidate


def test_labels_conserved():
    pts, tri, labels = _one_cluster_with_straggler()
    before = set(labels.tolist())
    groups = detect_anomaly_groups(labels, tau=3)
    out, _ = score_and_merge(
        groups, labels, tri, triangle_sizes(tri, pts, pts),
        0.5,
    )
    assert set(out.tolist()) <= before | {-1}


def test_merged_target_has_maximal_score():
    rng = np.random.default_rng(11)
    near = rng.normal(0, 0.4, (15, 2))
    far = rng.normal(0, 0.4, (15, 2)) + [10.0, 0.0]
    lone = np.array([[1.8, 0.0]])
    pts = np.vstack([near, far, lone])
    tri = triangulate(pts)
    labels = np.array([0] * 15 + [1] * 15 + [2])
    groups = detect_anomaly_groups(labels, tau=1)
    out, decisions = score_and_merge(
        groups, labels, tri, triangle_sizes(tri, pts, pts),
        0.0,
    )
    # the nearby cluster dominates
    assert decisions.merged.tolist() == [True]
    assert decisions.best_cluster.tolist() == [0]
    assert out[30] == 0


def test_score_and_merge_matches_loop_oracle():
    rng = np.random.default_rng(21)
    for trial in range(6):
        n = int(rng.integers(30, 120))
        proj = rng.standard_normal((n, 2))
        orig = np.hstack([proj, rng.standard_normal((n, 4)) * 0.3])
        tri = triangulate(proj)
        labels = rng.integers(0, n // 3, size=n).astype(np.int64)
        for sens in (0.0, 0.3, 0.9, 1.0):
            assert_matches_oracle(labels, tri, orig, proj, tau=2,
                                  sensitivity=sens)


def test_score_and_merge_collapsed_duplicate_rows():
    # rows coinciding in 2-D collapse onto one vertex; labels are per
    # vertex and distances are read through the representative rows
    rng = np.random.default_rng(22)
    base = rng.standard_normal((60, 2))
    proj = np.vstack([base, base[:15]])
    orig = np.hstack([proj, rng.standard_normal((75, 3))])
    tri = triangulate(proj)
    assert tri.n_vertices == 60 and tri.n_input == 75
    labels = rng.integers(0, 20, size=tri.n_vertices).astype(np.int64)
    groups, _ = assert_matches_oracle(labels, tri, orig, proj, tau=3,
                                      sensitivity=0.5)
    assert len(groups)


def test_group_without_cluster_neighbor():
    # every vertex is its own anomaly group: edges only lead to other
    # groups, so no group has a candidate cluster
    rng = np.random.default_rng(23)
    pts = rng.standard_normal((25, 2))
    tri = triangulate(pts)
    labels = np.arange(25)
    groups, decisions = assert_matches_oracle(labels, tri, pts, pts, tau=1,
                                              sensitivity=0.0)
    assert len(groups) == 25
    assert (decisions.best_cluster == -1).all()
    assert not decisions.merged.any()


def test_isolated_group_beside_clusters():
    # the centre's only neighbours are a ring of other groups, so it has
    # no candidate cluster and stays -1, while the ring is scored
    angles = np.arange(6) * np.pi / 3
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    outer = 4.0 * np.column_stack([np.cos(angles / 2 + 0.1),
                                   np.sin(angles / 2 + 0.1)])
    pts = np.vstack([[[0.0, 0.0]], ring, outer, -outer])
    tri = triangulate(pts)
    labels = np.array([10] + list(range(11, 17)) + [0] * 6 + [1] * 6)
    groups, decisions = assert_matches_oracle(labels, tri, pts, pts, tau=1,
                                              sensitivity=0.0)
    assert groups[0] == 10
    assert np.flatnonzero(decisions.group_of == 0).tolist() == [0]
    assert decisions.best_cluster[0] == -1 and not decisions.merged[0]
    assert (decisions.best_cluster[1:] >= 0).all()


def test_score_tie_goes_to_smaller_cluster_id():
    # a square's centre joined to four corners of two clusters with the
    # larger id first in vertex order: equal scores, smaller id wins
    pts = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0],
                    [0.0, 0.0]])
    tri = triangulate(pts)
    labels = np.array([7, 3, 3, 7, 9])
    groups = np.array([9])
    out, decisions = score_and_merge(
        groups, labels, tri, triangle_sizes(tri, pts, pts),
        0.0,
    )
    assert decisions.best_cluster.tolist() == [3]
    assert out[4] == 3
    assert_matches_oracle(labels, tri, pts, pts, tau=1, sensitivity=0.0)


def test_pruning_medians_give_the_same_bits():
    # fit_predict hands the anomaly stage the medians that pruning's
    # sigma rule took, in place of taking them again
    rng = np.random.default_rng(11)
    proj = rng.standard_normal((300, 2))
    orig = np.hstack([proj, rng.standard_normal((300, 4)) * 0.3])
    tri = triangulate(proj)
    sizes = triangle_sizes(tri, orig, proj)
    rule = sigma_rule(sizes.sizes, sizes.sizes_proj, 1.0)
    labels = rng.integers(0, 100, size=300).astype(np.int64)
    groups = detect_anomaly_groups(labels, 3)
    want_labels, want = score_and_merge(groups, labels, tri, sizes, 0.5)
    got_labels, got = score_and_merge(
        groups, labels, tri, sizes, 0.5,
        medians=(rule.median, rule.median_proj))
    assert got_labels.tobytes() == want_labels.tobytes()
    for name in ("group_of", "best_cluster", "best_score", "merged"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert got.delta == want.delta
    assert want.merged.any() and not want.merged.all()
