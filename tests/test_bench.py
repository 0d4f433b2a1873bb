import csv

import numpy as np
import pytest

from tricluster import ClusterParams, bench, generate, SynthConfig
from tricluster.bench import (
    BenchSpec,
    REPORT_COLUMNS,
    backprojection_demo,
    degradation_sweep,
    grid_sweep,
    run_ablations,
    run_seed,
    run_suite,
    runtime_scaling,
)
from tricluster.svg import scatter_svg


def toy_spec(name="toy", repeats=2):
    return BenchSpec(
        name=name,
        generator=dict(n_points=200, n_clusters=3, n_dim=4, overlap=0.08,
                       anomaly_fraction=0.04),
        params=ClusterParams(prune_param=1.0, anomaly_sensitivity=0.99),
        repeats=repeats,
    )


def test_run_seed_deterministic():
    assert run_seed("abc", 0) == run_seed("abc", 0)
    assert run_seed("abc", 0) != run_seed("abc", 1)
    assert run_seed("abc", 0) != run_seed("abd", 0)


def test_run_suite_populates_rows(tmp_path):
    report = run_suite([toy_spec()])
    assert len(report.rows) == 2
    assert report.errors == []
    row = report.rows[0]
    for key in REPORT_COLUMNS:
        assert key in row
    assert 0 <= row["f1"] <= 1
    out = tmp_path / "report.csv"
    report.write_csv(out)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["ms_project"] == ""  # timings omitted by default


def test_run_suite_timings_optional(tmp_path):
    report = run_suite([toy_spec(repeats=1)])
    out = tmp_path / "report.csv"
    report.write_csv(out, include_timings=True)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["ms_triangulate"]) > 0


def test_run_suite_deterministic_metrics():
    r1 = run_suite([toy_spec()])
    r2 = run_suite([toy_spec()])
    keys = ("ari", "nmi", "f1", "n_clusters", "n_anomalies", "seed")
    for a, b in zip(r1.rows, r2.rows):
        for k in keys:
            assert a[k] == b[k]


def test_run_suite_continues_after_failure():
    bad = BenchSpec(name="bad", generator=dict(n_points=0), repeats=1)
    report = run_suite([bad, toy_spec(repeats=1)])
    assert len(report.errors) == 1
    assert len(report.rows) == 1


def test_run_suite_propagates_errors_that_are_bugs(monkeypatch):
    # only a TriclusterError is a failed run; anything else is a bug
    def broken(data, params):
        raise IndexError("bug")
    monkeypatch.setattr(bench, "fit_predict", broken)
    with pytest.raises(IndexError, match="bug"):
        run_suite([toy_spec(repeats=1)])


def test_ablations_variants():
    data, truth = generate(SynthConfig(n_points=250, n_clusters=3, n_dim=5,
                                       overlap=0.08, anomaly_fraction=0.04,
                                       random_state=5))
    runs = run_ablations(data, ClusterParams(prune_param=1.0), truth=truth)
    assert set(runs) == {"full", "merge_off", "proj_off", "anom_merged"}
    for entry in runs.values():
        assert len(entry["labels"]) == 250
        assert "ari" in entry
    # merging everything mergeable cannot leave more anomalies than keeping
    assert runs["anom_merged"]["n_anomalies"] <= runs["full"]["n_anomalies"]


def test_grid_sweep_single_point():
    data, truth = generate(SynthConfig(n_points=150, n_clusters=3, n_dim=3,
                                       overlap=0.08, anomaly_fraction=0.0,
                                       random_state=6))
    best, trace = grid_sweep(data, truth, prune_values=[1.0],
                             merge_values=[-0.8])
    assert len(trace) == 1
    assert best.prune_param == 1.0


def test_grid_sweep_finds_good_params():
    rng = np.random.default_rng(7)
    centers = np.array([[0.0, 0.0], [40.0, 0.0], [1.8, 41.0]])
    data = np.vstack([c + rng.normal(0, 1, (30, 2)) for c in centers])
    truth = np.repeat([0, 1, 2], 30)
    best, trace = grid_sweep(data, truth, prune_values=[0.6, 1.0, 1.4],
                             merge_values=[-1.9],
                             params=ClusterParams(anomaly_sensitivity=1.0))
    assert max(row["ari"] for row in trace) == 1.0


def test_grid_sweep_random_probes_reproducible():
    data, truth = generate(SynthConfig(n_points=150, n_clusters=3, n_dim=3,
                                       overlap=0.08, anomaly_fraction=0.0,
                                       random_state=8))
    _, t1 = grid_sweep(data, truth, n_probes=5, seed=3)
    _, t2 = grid_sweep(data, truth, n_probes=5, seed=3)
    assert t1 == t2
    # probes respect the documented ranges
    for row in t1:
        assert 0.5 < row["prune"] < 2.0
        assert -2.0 < row["merge"] < -0.5


def test_degradation_sweep_shape():
    rows = degradation_sweep(eps_list=(2.0, 0.5), n_seeds=3)
    assert [r["epsilon"] for r in rows] == [2.0, 0.5]
    assert rows[0]["success"] >= rows[1]["success"]


def test_backprojection_demo_rows():
    rows = backprojection_demo(n_seeds=2)
    assert len(rows) == 2
    for r in rows:
        assert r["recall_backprojection"] > r["recall_projection_only"]


def test_runtime_scaling_smoke():
    report = runtime_scaling([300, 600], [4])
    assert len(report["rows"]) == 2
    assert all(r["seconds"] > 0 for r in report["rows"])
    assert np.isfinite(report["exponent_n"])


def test_scatter_svg_selfcontained(tmp_path):
    rng = np.random.default_rng(9)
    coords = rng.standard_normal((40, 2))
    labels = rng.integers(-1, 3, 40)
    path = tmp_path / "plot.svg"
    scatter_svg(coords, labels, path)
    text = path.read_text()
    assert text.startswith("<svg")
    assert "<script" not in text
    assert "#444444" in text  # anomalies drawn dark gray
