import numpy as np
import pytest

from tricluster import (
    TriangleSizes,
    detect_anomaly_groups,
    score_and_merge,
    triangle_sizes,
    triangulate,
)


def dist(x, p, q):
    return float(np.sqrt(((x[p] - x[q]) ** 2).sum()))


def loop_oracle(groups, labels, tri, orig, proj, sensitivity):
    """Per-edge, per-cluster loops over the scoring definition.

    Returns (labels, [(best_cluster, best_score, merged)], delta), with
    max-edge triangle sizes measured directly on the coordinates.
    """
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
    anomalous = {v for g in groups for v in g.tolist()}
    out = np.array(labels, dtype=np.int64)
    out[sorted(anomalous)] = -1
    all_scores, per_group = [], []
    for g in groups:
        members = set(g.tolist())
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
    return out, decisions, delta


def assert_matches_oracle(labels, tri, orig, proj, tau, sensitivity):
    groups = detect_anomaly_groups(labels, tau)
    out, decisions = score_and_merge(
        groups, labels, tri, triangle_sizes(tri, orig, proj),
        sensitivity,
    )
    want, want_decisions, want_delta = loop_oracle(
        groups, labels, tri, orig, proj, sensitivity)
    assert out.tolist() == want.tolist()
    assert len(decisions) == len(want_decisions)
    for d, (best, score, merged) in zip(decisions, want_decisions):
        assert d.best_cluster == best
        assert d.merged == merged
        if best < 0:
            assert np.isnan(d.best_score)
        else:
            assert d.best_score == pytest.approx(score, rel=1e-12)
        assert d.delta == pytest.approx(want_delta, rel=1e-12)
    return groups, decisions


def test_detect_groups_by_size():
    labels = np.array([0] * 50 + [1] * 2 + [2] * 40)
    groups = detect_anomaly_groups(labels, tau=3)
    assert len(groups) == 1
    assert groups[0].dtype == np.int64
    assert groups[0].tolist() == [50, 51]


def test_detect_no_groups_when_all_large():
    labels = np.array([0] * 5 + [1] * 4)
    assert detect_anomaly_groups(labels, tau=1) == []


def test_detect_all_singletons():
    labels = np.array([0, 1, 2])
    groups = detect_anomaly_groups(labels, tau=3)
    assert len(groups) == 3
    assert [g.tolist() for g in groups] == [[0], [1], [2]]


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
    assert decisions[0].best_cluster == 0
    assert decisions[0].best_score == pytest.approx(expect, rel=1e-14)


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
    assert decisions[0].best_score == pytest.approx(4.0 / 2 * 2 / 4e-12)


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
    assert decisions[0].merged is False


def test_sensitivity_zero_always_merges():
    pts, tri, labels = _one_cluster_with_straggler()
    groups = detect_anomaly_groups(labels, tau=3)
    out, decisions = score_and_merge(
        groups, labels, tri, triangle_sizes(tri, pts, pts),
        0.0,
    )
    assert decisions[0].merged is True
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
    assert decisions[0].best_cluster == 0  # symmetric scores, smaller id
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
        merged = {d.group_id for d in decisions if d.merged}
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
    d = decisions[0]
    assert d.merged and d.best_cluster == 0  # the nearby cluster dominates
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
    assert groups


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
    assert all(d.best_cluster == -1 and not d.merged for d in decisions)


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
    assert groups[0].tolist() == [0]
    assert decisions[0].best_cluster == -1 and not decisions[0].merged
    assert all(d.best_cluster >= 0 for d in decisions[1:])


def test_score_tie_goes_to_smaller_cluster_id():
    # a square's centre joined to four corners of two clusters with the
    # larger id first in vertex order: equal scores, smaller id wins
    pts = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0],
                    [0.0, 0.0]])
    tri = triangulate(pts)
    labels = np.array([7, 3, 3, 7, 9])
    groups = [np.array([4])]
    out, decisions = score_and_merge(
        groups, labels, tri, triangle_sizes(tri, pts, pts),
        0.0,
    )
    assert decisions[0].best_cluster == 3
    assert out[4] == 3
    assert_matches_oracle(labels, tri, pts, pts, tau=1, sensitivity=0.0)
