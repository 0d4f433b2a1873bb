import hashlib
import json
import math
import warnings
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

import tricluster
from tricluster import (
    ClusterParams,
    CollinearError,
    ConfigError,
    DelaunayClusterer,
    NonFiniteError,
    NumericalError,
    RunTrace,
    ShapeMismatchError,
    SynthConfig,
    ari,
    connected_components,
    fit_predict,
    generate,
    nmi,
    prune,
    triangle_sizes,
    triangulate,
)
from tricluster.projection import embedding_from_array, pca2
from test_projection import FOREIGN_INPUTS, skip_unless_lapack_as_pinned


def three_blobs(seed=7, n_per=30, std=1.0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [40.0, 0.0], [1.8125, 40.96]])
    pts = np.vstack([c + rng.normal(0, std, (n_per, 2)) for c in centers])
    truth = np.repeat([0, 1, 2], n_per)
    return pts, truth


def test_three_blobs_perfect_recovery():
    pts, truth = three_blobs()
    params = ClusterParams(prune_param=1.0, merge_param=-1.9,
                           anomaly_sensitivity=1.0)
    result = fit_predict(pts, params)
    assert result.n_clusters == 3
    assert result.n_anomalies == 0
    assert ari(truth, result.labels) == 1.0
    assert nmi(truth, result.labels) == 1.0


def test_determinism_bit_identical():
    pts, _ = three_blobs(seed=3)
    params = ClusterParams(prune_param=1.0, anomaly_sensitivity=0.9)
    a = fit_predict(pts, params)
    b = fit_predict(pts, params)
    assert np.array_equal(a.labels, b.labels)


def test_stage_composition_matches_component_labels():
    rng = np.random.default_rng(5)
    pts = np.vstack([rng.normal(0, 1, (40, 2)),
                     rng.normal(0, 1, (40, 2)) + [30, 0]])
    params = ClusterParams(prune_param=1.0, merging_enabled=False,
                           anomaly_sensitivity=1.0, tau=3)
    result = fit_predict(pts, params)

    emb = pca2(pts)
    tri = triangulate(emb.coords)
    sizes = triangle_sizes(tri, pts, emb.coords)
    _, edges = prune(tri, sizes, 1.0)
    comp = connected_components(tri.n_vertices, edges)
    # small components become -1, the rest must match exactly (both sides
    # are canonicalized by ascending minimum point index)
    sizes_by_label = {c: int((comp == c).sum()) for c in np.unique(comp)}
    expected = comp.copy()
    for c, size in sizes_by_label.items():
        if size <= 3:
            expected[comp == c] = -1
    # renumber surviving labels in first-touch order
    out = np.full_like(expected, -1)
    mapping = {}
    for i, lab in enumerate(expected):
        if lab >= 0:
            mapping.setdefault(lab, len(mapping))
            out[i] = mapping[lab]
    assert np.array_equal(result.labels, out)


def test_proj_off_is_pure_function_of_embedding():
    rng = np.random.default_rng(8)
    data = rng.standard_normal((60, 5))
    emb = embedding_from_array(rng.standard_normal((60, 2)), data)
    params = ClusterParams(prune_param=1.0, back_projection=False)
    a = fit_predict(data, params, external_embedding=emb)
    other = rng.standard_normal((60, 9)) * 100  # any matrix, same row count
    b = fit_predict(other, params, external_embedding=emb)
    assert np.array_equal(a.labels, b.labels)


def test_output_contract_contiguous_labels():
    rng = np.random.default_rng(9)
    data = rng.standard_normal((80, 4))
    result = fit_predict(data, ClusterParams(prune_param=0.8,
                                             anomaly_sensitivity=1.0))
    labels = result.labels
    assert len(labels) == 80
    present = set(labels.tolist())
    non_neg = sorted(v for v in present if v >= 0)
    assert non_neg == list(range(len(non_neg)))
    assert result.n_anomalies == int((labels == -1).sum())
    assert result.n_clusters == len(non_neg)


def test_duplicates_inherit_representative_label():
    pts, _ = three_blobs(seed=11, n_per=20)
    dup = np.vstack([pts, pts[:5]])  # exact duplicates of the first 5 rows
    result = fit_predict(dup, ClusterParams(prune_param=1.0,
                                            anomaly_sensitivity=1.0))
    assert np.array_equal(result.labels[60:], result.labels[:5])


def test_nonfinite_rejected():
    data = np.zeros((10, 2))
    data[3, 1] = np.nan
    with pytest.raises(NonFiniteError):
        fit_predict(data, ClusterParams())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_embedding_rejected(bad):
    rng = np.random.default_rng(1)
    data = rng.standard_normal((30, 4))
    coords = rng.standard_normal((30, 2))
    coords[7, 0] = bad
    with pytest.raises(NonFiniteError) as exc_info:
        fit_predict(data, ClusterParams(), external_embedding=coords)
    assert exc_info.value.stage == "triangulate"


def test_huge_scale_keeps_the_labels():
    # the covariance overflows: pca2 scales the centred data by a power
    # of two, and the edge lengths are measured at a scale that fits
    pts, _ = three_blobs(seed=2)
    params = ClusterParams(prune_param=1.0)
    want = fit_predict(pts, params).labels
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fit_predict(pts * 1e300, params).labels
    assert np.array_equal(got, want)


def test_lengths_past_the_float_range_keep_the_labels():
    # a sixth of the edges are longer than DBL_MAX: the lengths take one
    # power-of-two unit, so the labels are those of the matrix scaled
    # down, where every length is in range
    big = np.random.default_rng(0).uniform(-1.0, 1.0, (300, 3)) * 1.5e308
    emb = big[:, :2] / 2**20
    want = fit_predict(big / 2**20, external_embedding=emb).labels
    assert want.max() > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fit_predict(big, external_embedding=emb).labels
    assert np.array_equal(got, want)


@pytest.mark.parametrize("k", [1015, 1023])
def test_column_sums_past_the_float_range_keep_the_labels(k):
    # the largest |value| is 2^k, so the column sums overflow: pca2 scales
    # the data by a power of two before centring, and the cluster means
    # and the mean triangle size are summed at a scale that fits
    data, _ = generate(SynthConfig(n_points=2000, n_dim=10, random_state=1))
    want = fit_predict(data).labels
    top = np.frexp(np.abs(data).max())[1] - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fit_predict(np.ldexp(data, k - top)).labels
    assert np.array_equal(got, want)


def test_values_near_float64_limit_raise_numerical_error_without_warning():
    # the centring fits once the data are scaled, but eight rows lie at
    # +-1.7e308 on both axes, so the first coordinate, about 1.7e308 *
    # sqrt(2) there, overflows
    pts, _ = three_blobs(seed=2)
    pts[:4] = 1.7e308
    pts[4:8] = -1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError) as exc_info:
            fit_predict(pts, ClusterParams(prune_param=1.0))
    assert exc_info.value.stage == "project"


def test_external_embedding_used_under_default_params():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((40, 5))
    coords = rng.standard_normal((40, 2))
    emb = embedding_from_array(coords, data)
    result = fit_predict(data, ClusterParams(), external_embedding=emb)
    assert result.embedding.source == "imported"
    assert np.array_equal(result.embedding.coords, coords)
    assert np.array_equal(result.triangulation.triangles,
                          triangulate(coords).triangles)


def test_collinear_raises_with_stage():
    data = np.column_stack([np.arange(10.0), np.arange(10.0)])
    emb = embedding_from_array(data[:, :2], data)
    with pytest.raises(CollinearError) as exc_info:
        fit_predict(data, ClusterParams(prune_param=1.0),
                    external_embedding=emb)
    assert exc_info.value.stage == "triangulate"


def test_param_validation():
    with pytest.raises(ValueError):
        ClusterParams(tau=0).validate()
    with pytest.raises(ValueError):
        ClusterParams(anomaly_sensitivity=1.5).validate()
    # a NaN fails every comparison, so it labelled instead of raising
    for name in ("prune_param", "merge_param", "tau", "anomaly_sensitivity"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match=name):
                ClusterParams(**{name: value}).validate()
    # a truthy non-bool switch, a fractional tau or a bool number would
    # run as something else than it says
    for name in ("back_projection", "merging_enabled"):
        for value in ("false", 0, 1, None):
            with pytest.raises(ConfigError, match=name):
                ClusterParams(**{name: value}).validate()
    with pytest.raises(ConfigError, match="tau"):
        ClusterParams(tau=2.5).validate()
    for name in ("prune_param", "merge_param", "tau", "anomaly_sensitivity"):
        with pytest.raises(ConfigError, match=name):
            ClusterParams(**{name: True}).validate()
    # Python and numpy bools are switches; numpy integers are a tau
    ClusterParams(back_projection=np.False_, merging_enabled=np.True_,
                  tau=np.int64(2)).validate()
    # size_mode and standardize are not parameters
    for removed in ("size_mode", "standardize"):
        with pytest.raises(TypeError):
            ClusterParams(**{removed: None})
    # the sweep's search ranges do not bound the parameters: the
    # published defaults and values outside the ranges validate silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ClusterParams().validate()
        ClusterParams(prune_param=0.3, merge_param=-5.0).validate()


def test_run_numbers_present():
    pts, _ = three_blobs(seed=13)
    result = fit_predict(pts, ClusterParams(prune_param=1.0))
    trace = asdict(result.trace)
    assert list(trace) == ["ms_project", "ms_triangulate", "ms_prune",
                           "ms_merge", "ms_anomaly",
                           "n_components_initial", "merge_count"]
    assert all(v >= 0 for v in trace.values())
    # the stage records hold the counts and the threshold
    n_triangles = len(result.triangulation.triangles)
    assert len(result.prune_result.keep_mask) == n_triangles > 0
    assert 0 < int(result.prune_result.keep_mask.sum()) <= n_triangles
    assert math.isfinite(result.prune_result.theta)
    decisions = result.anomaly
    assert len(decisions.group_of) == result.triangulation.n_vertices
    assert 0 <= int(decisions.merged.sum()) <= len(decisions.merged)


def test_theta_merge_recorded_when_k_at_least_3():
    pts, _ = three_blobs(seed=29)
    result = fit_predict(pts, ClusterParams(prune_param=1.0,
                                            merge_param=-1.9,
                                            anomaly_sensitivity=1.0))
    assert math.isfinite(result.merge_rule.theta)
    assert len(result.merge_rule.keep_mask) == 3


def test_clusterer_front_end():
    pts, truth = three_blobs(seed=17)
    model = DelaunayClusterer(prune_param=1.0, merge_param=-1.9,
                              anomaly_sensitivity=1.0)
    labels = model.fit_predict(pts)
    assert ari(truth, labels) == 1.0
    assert model.result_.n_clusters == 3


def test_clusterer_back_proj_alias():
    # ``back_proj`` is the published snippet's name for back_projection;
    # on the demo's first-two-columns embedding, turning it off changes
    # which tail points are anomalies
    data, _ = tricluster.generate_backprojection_demo(10, 25, seed=2000)
    emb = data[:, :2].copy()
    params = dict(prune_param=1.0, anomaly_sensitivity=1.0)
    alias = DelaunayClusterer(back_proj=False, **params).fit_predict(data, emb)
    field = DelaunayClusterer(back_projection=False,
                              **params).fit_predict(data, emb)
    default = DelaunayClusterer(**params).fit_predict(data, emb)
    assert alias.tobytes() == field.tobytes()
    assert alias.tobytes() != default.tobytes()


def test_anomaly_sensitivity_zero_merges_everything_mergeable():
    rng = np.random.default_rng(19)
    pts = np.vstack([rng.normal(0, 1, (50, 2)),
                     np.array([[6.0, 0.0], [7.0, 2.0]])])
    res_keep = fit_predict(pts, ClusterParams(prune_param=1.0,
                                              anomaly_sensitivity=1.0))
    res_merge = fit_predict(pts, ClusterParams(prune_param=1.0,
                                               anomaly_sensitivity=0.0))
    assert res_merge.n_anomalies <= res_keep.n_anomalies
    # every group with a cluster neighbor is absorbed at sensitivity 0
    groups = res_merge.anomaly
    group = groups.group_of[groups.group_of >= 0]
    unmergeable = int((groups.best_cluster[group] < 0).sum())
    assert res_merge.n_anomalies == unmergeable


def blobs_with_tail(seed=41):
    """Four 6-D blobs plus a uniform tail, built without BLAS calls."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-12.0, 12.0, (4, 6))
    pts = [c + rng.normal(0.0, 1.0, (70, 6)) for c in centers]
    pts.append(rng.uniform(-20.0, 20.0, (12, 6)))
    return np.vstack(pts)


@pytest.mark.parametrize("overrides, n_clusters, n_anomalies, digest", [
    ({}, 4, 9,
     "18ba3aba5f905ffd56b1e9f1e843fbf991d56c8eb1b9661241e10ea4c007fa0a"),
    ({"back_projection": False}, 3, 3,
     "f1889892a5615080ed06bf40fef404f078ed4a21a4bb772d463396207c1447c5"),
    ({"anomaly_sensitivity": 0.0}, 4, 1,
     "8f1f326f8c5eb701dc3d119719edbdad466c71cc9106a0a0098c8a5d1849d61a"),
])
def test_pinned_labels_sha256(overrides, n_clusters, n_anomalies, digest):
    # the imported embedding keeps PCA (and so BLAS) out of the run; the
    # runs prune, merge representatives and score anomaly groups
    data = blobs_with_tail()
    emb = embedding_from_array(data[:, :2].copy(), data)
    result = fit_predict(data, replace(ClusterParams(), **overrides),
                         external_embedding=emb)
    assert result.trace.merge_count > 0
    assert len(result.anomaly.merged) > 0
    assert (result.n_clusters, result.n_anomalies) == (n_clusters,
                                                       n_anomalies)
    labels = result.labels.astype(np.int64)
    assert hashlib.sha256(labels.tobytes()).hexdigest() == digest


def test_run_numbers_pinned_and_trace_is_json():
    # each count and threshold is read from the stage record that holds
    # it; the trace holds the rest, as JSON numbers
    data = blobs_with_tail()
    emb = embedding_from_array(data[:, :2].copy(), data)
    result = fit_predict(data, ClusterParams(), external_embedding=emb)
    tri, decisions, rule = (result.triangulation, result.anomaly,
                            result.merge_rule)
    got = {
        "n_triangles": len(tri.triangles),
        "n_triangles_kept": int(result.prune_result.keep_mask.sum()),
        "theta_prune": float(result.prune_result.theta).hex(),
        "n_components_initial": result.trace.n_components_initial,
        "theta_merge": float(rule.theta).hex(),
        "n_rep_edges": len(rule.keep_mask),
        "n_rep_edges_kept": int(rule.keep_mask.sum()),
        "merge_count": result.trace.merge_count,
        "pre_merge_anomaly_count": int(
            np.count_nonzero(decisions.group_of[tri.rep_u] >= 0)),
        "n_anomaly_groups": len(decisions.merged),
        "n_groups_merged": int(decisions.merged.sum()),
    }
    assert got == {
        "n_triangles": 577, "n_triangles_kept": 505,
        "theta_prune": "0x1.1fc2030b6779cp+3",
        "n_components_initial": 16,
        "theta_merge": "-0x1.3e29e8d02096bp+0",
        "n_rep_edges": 40, "n_rep_edges_kept": 3, "merge_count": 3,
        "pre_merge_anomaly_count": 10, "n_anomaly_groups": 9,
        "n_groups_merged": 1,
    }
    trace = asdict(result.trace)
    assert list(trace) == [f.name for f in fields(RunTrace)]
    assert all(type(v) in (int, float) for v in trace.values())
    assert json.loads(json.dumps(trace)) == trace


def test_no_merge_rule_when_merging_is_off():
    data = blobs_with_tail()
    emb = embedding_from_array(data[:, :2].copy(), data)
    result = fit_predict(data, ClusterParams(merging_enabled=False),
                         external_embedding=emb)
    assert result.merge_rule is None
    assert result.trace.merge_count == 0


def test_rows_coinciding_in_2d_share_a_vertex_and_its_label():
    # the last row has row 0's 2-D point but lies far from it in the
    # original space: it becomes no vertex and takes row 0's label
    data = blobs_with_tail()
    far = data[0] + 1000.0
    data = np.vstack([data, far])
    coords = np.vstack([data[:-1, :2], data[:1, :2]])
    base = fit_predict(data[:-1], ClusterParams(),
                       external_embedding=coords[:-1].copy())
    result = fit_predict(data, ClusterParams(), external_embedding=coords)
    n = len(data)
    assert result.triangulation.n_vertices == n - 1
    assert result.labels[0] >= 0
    assert result.labels[n - 1] == result.labels[0]
    assert np.array_equal(result.labels[:-1], base.labels)


@pytest.mark.parametrize("embedded", [False, True])
def test_zero_column_data_is_a_shape_error(embedded):
    data = np.empty((10, 0))
    emb = np.random.default_rng(0).normal(size=(10, 2)) if embedded else None
    with pytest.raises(ShapeMismatchError):
        fit_predict(data, external_embedding=emb)
    with pytest.raises(ShapeMismatchError):
        fit_predict(data, external_embedding=emb, copy=False)
    if not embedded:
        with pytest.raises(ShapeMismatchError):
            pca2(data)


BENCH_PARAMS = ClusterParams(prune_param=1.0)  # perfbench's job flags


@pytest.mark.parametrize("seed, params, n_clusters, n_anomalies, digest", [
    (0, ClusterParams(), 5, 131,
     "d7df53671cb0a6300963cd469b0dad27c3b951e035ead40b4bb1fdbfd49eaa56"),
    (0, BENCH_PARAMS, 6, 90,
     "ea1e3aa6cfae71e0a9e246b1fbd7ba40651d4a46b228286e656ba8df8e3fd88d"),
    (1, ClusterParams(), 6, 128,
     "75e6ef8253de39b4d1cd4185ce5dfb79b9ce620622fce9a7f11c55b92551356d"),
    (1, BENCH_PARAMS, 5, 97,
     "a0ed3f80d4f5565f4531926607962a8f0f0e75a19b4dfada020636d54e8b8c18"),
    (2, ClusterParams(), 5, 128,
     "4ee3669be3d291a935a33bf2a25e87faee14ccf86dd1f492516d7e8e19b03b76"),
    (2, BENCH_PARAMS, 5, 99,
     "d27ca5e073138b1b4bad00d6dc91c77b8c7becef9ec48575e8ff025c2bcf5abe"),
])
def test_pinned_pca_labels_sha256(seed, params, n_clusters, n_anomalies,
                                  digest):
    # d = 50 takes pca2's iterated solver. Pinned while the later stages
    # still read the input's own rows: reading the centred matrix instead
    # moves no label
    skip_unless_lapack_as_pinned()
    data, _ = generate(SynthConfig(n_points=2000, n_dim=50,
                                   random_state=seed))
    result = fit_predict(data, params)
    assert (result.n_clusters, result.n_anomalies) == (n_clusters,
                                                       n_anomalies)
    labels = result.labels.astype(np.int64)
    assert hashlib.sha256(labels.tobytes()).hexdigest() == digest


def lattice_job(seed=0):
    """An 80 x 80 integer lattice as the embedding, and in six more
    dimensions seeded noise, with the 81 points of an 8-spaced sub-grid
    pushed 2.0 away along them: perfbench's lattice workload."""
    side = np.arange(80.0)
    xx, yy = np.meshgrid(side, side, indexing="ij")
    emb = np.column_stack([xx.ravel(), yy.ravel()])
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, 0.05, size=(len(emb), 6))
    inner = np.arange(8, 76, 8)
    planted = (inner[:, None] * 80 + inner).ravel()
    direction = rng.normal(size=(len(planted), 6))
    direction /= np.sqrt((direction * direction).sum(axis=1))[:, None]
    noise[planted] += 2.0 * direction
    return np.hstack([emb, noise]), emb


def test_pinned_lattice_labels_sha256():
    # every quad of the mesh is cocircular, so the tie rule, the edge
    # table and every later sort decide these labels; the embedding is
    # imported, so no BLAS call is made
    data, emb = lattice_job()
    result = fit_predict(data, BENCH_PARAMS, external_embedding=emb)
    assert (result.n_clusters, result.n_anomalies) == (1, 77)
    labels = result.labels.astype(np.int64)
    assert hashlib.sha256(labels.tobytes()).hexdigest() == (
        "2d50a59ff7708fd8c5b242ae286635165df05f9279675cde2bcd1b156882a5eb")


# fit_predict's traced peak on the blobs-like config below read 1 004
# bytes per point with numpy 2.4.6, set inside a flip round (1 036
# while triangulate's rounds ran beside the arrays they do not read,
# 1 010 while the anomaly stage masked its directed edges at length 2e),
# 400 of them the float64 copy of the data; the bound allows 3% for
# another numpy's temporaries
FIT_PEAK_BYTES_PER_POINT = 1035


def test_fit_predict_peak_memory_per_point(traced_peak):
    data, _ = generate(SynthConfig(n_points=4000, n_clusters=5, n_dim=50,
                                   overlap=0.08, anomaly_fraction=0.05,
                                   random_state=7))
    peak = traced_peak(fit_predict, data, BENCH_PARAMS)
    assert peak / len(data) <= FIT_PEAK_BYTES_PER_POINT


def synth_rows(seed=3):
    return generate(SynthConfig(n_points=600, n_dim=30,
                                random_state=seed))[0] + 5.0


def test_defaults_leave_the_input_unchanged():
    data = synth_rows()
    before = data.copy()
    fit_predict(data)
    assert np.array_equal(data, before)
    DelaunayClusterer().fit_predict(data)
    assert np.array_equal(data, before)


def test_copy_false_gives_the_same_job_and_leaves_data_centred():
    data = synth_rows()
    want = fit_predict(data)
    centered = data - data.mean(axis=0)
    got = fit_predict(data, copy=False)
    assert np.array_equal(got.labels, want.labels)
    assert got.prune_result.theta == want.prune_result.theta
    for name in ("sizes", "sizes_proj", "edge_len"):
        assert getattr(got.sizes, name).tobytes() == (
            getattr(want.sizes, name).tobytes())
    assert got.embedding.coords.tobytes() == want.embedding.coords.tobytes()
    assert data.tobytes() == centered.tobytes()


@pytest.mark.parametrize("kind", FOREIGN_INPUTS)
def test_copy_false_leaves_an_input_it_cannot_centre(kind):
    data = FOREIGN_INPUTS[kind](synth_rows())
    before = data.copy()
    got = fit_predict(data, copy=False)
    assert np.array_equal(data, before) and data.dtype == before.dtype
    assert np.array_equal(got.labels, fit_predict(data).labels)


def test_tiny_scale_keeps_the_labels():
    data, _ = generate(SynthConfig(n_points=2000, n_dim=10, random_state=1))
    want = fit_predict(data).labels
    assert np.array_equal(fit_predict(data * 1e-170).labels, want)


def test_subnormal_data_scores_without_overflow():
    # at 2^-1070 the data keep a few bits each, so the labels need not be
    # those of scale 1; but the scores are taken at a scale where 1 / d
    # cannot overflow, so no warning is raised and every group with a
    # cluster neighbour gets a finite score
    data, _ = generate(SynthConfig(n_points=2000, n_dim=10, random_state=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = fit_predict(np.ldexp(data, -1070))
    groups = result.anomaly
    scored = groups.best_score[groups.best_cluster >= 0]
    assert scored.size and np.isfinite(scored).all()
