"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  python3 -m pytest tests/test_acceptance.py -v -s  to see the
per-criterion lines as they complete.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import tricluster
from tricluster import (
    ClusterParams,
    SynthConfig,
    anomaly_prf,
    ari,
    fit_predict,
    generate,
    nmi,
    prune_threshold,
    robust_z,
    triangulate,
)
from tricluster.bench import backprojection_demo, degradation_sweep
from tricluster.predicates import incircle, orient2d
from tricluster.projection import embedding_from_array, pca2


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


# -- criterion 1: triangulation correctness --------------------------------

def hull_size(pts):
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

    lower = build(order)
    upper = build(reversed(order))
    return len(lower) + len(upper) - 2


def test_criterion_1_triangulation_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)

    for _ in range(200):
        n = int(rng.integers(4, 13))
        pts = rng.uniform(-10, 10, (n, 2))
        tri = triangulate(pts)
        for i, j, k in tri.triangles:
            a, b, c = pts[i], pts[j], pts[k]
            if orient2d(a[0], a[1], b[0], b[1], c[0], c[1]) < 0:
                b, c = c, b
            for m in range(n):
                if m in (int(i), int(j), int(k)):
                    continue
                assert incircle(a[0], a[1], b[0], b[1], c[0], c[1],
                                pts[m, 0], pts[m, 1]) <= 0

    for _ in range(200):
        n = int(rng.integers(4, 501))
        pts = rng.standard_normal((n, 2)) * 50
        tri = triangulate(pts)
        h = hull_size(pts)
        assert len(tri.edges) == 3 * n - 3 - h
        assert len(tri.triangles) == 2 * n - 2 - h

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, f"empty-circumcircle and Euler checks in {elapsed:.1f}s")


# -- criterion 2: robust-stats oracles --------------------------------------

def test_criterion_2_robust_stats_oracle():
    rng = np.random.default_rng(102)
    for _ in range(1000):
        s = rng.uniform(-5, 50, int(rng.integers(1, 100)))
        z = robust_z(s)
        srt = sorted(s)
        m = len(srt)
        med = srt[m // 2] if m % 2 else (srt[m // 2 - 1] + srt[m // 2]) / 2
        devs = sorted(abs(v - med) for v in s)
        mad = devs[m // 2] if m % 2 else (devs[m // 2 - 1] + devs[m // 2]) / 2
        if mad > 0:
            for zi, v in zip(z, s):
                assert abs(zi - (v - med) / mad) < 1e-12
        else:  # a single value: no dispersion, no outlier
            assert m == 1 and z.tolist() == [0.0]
        sigma_f = float(rng.uniform(-2, 2))
        mean = sum(z) / len(z)
        stddev = math.sqrt(sum((v - mean) ** 2 for v in z) / len(z))
        assert abs(prune_threshold(z, sigma_f) - (mean + sigma_f * stddev)) < 1e-12

    theta = prune_threshold([-2, -1, 0, 1, 2], 1.0)
    assert abs(theta - math.sqrt(2)) < 1e-12
    report(2, "median/MAD and threshold match definition oracles to 1e-12")


# -- criterion 3: scale invariance ------------------------------------------

def test_criterion_3_scale_invariance():
    for seed in range(20):
        data, _ = generate(SynthConfig(
            n_points=200, n_clusters=3, n_dim=6, overlap=0.1,
            anomaly_fraction=0.04, random_state=300 + seed,
        ))
        emb_coords = pca2(data).coords  # fixed 2-D proxy for all scales
        params = ClusterParams(prune_param=1.0, merge_param=-0.8,
                               anomaly_sensitivity=0.7)
        base = fit_predict(data, params,
                           external_embedding=embedding_from_array(
                               emb_coords, data))
        base_mask = base.prune_result.keep_mask
        for c in (1e-3, 1e3, 1e-300, 1e300, 2.0 ** -1000):
            scaled = fit_predict(data * c, params,
                                 external_embedding=embedding_from_array(
                                     emb_coords, data))
            assert np.array_equal(scaled.labels, base.labels)
            assert np.array_equal(
                scaled.prune_result.keep_mask, base_mask)
    report(3, "labels and keep masks identical under 1e-3/1e3, 1e-300/1e300 "
              "and 2^-1000 rescaling")


# -- criterion 4: perfect separation ----------------------------------------

def test_criterion_4_perfect_separation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    # scalene center triangle, all separations >= 20x cluster std (std = 1)
    centers = np.array([[0.0, 0.0], [40.0, 0.0], [1.8125, 40.96]])
    pts = np.vstack([c + rng.normal(0, 1.0, (30, 2)) for c in centers])
    truth = np.repeat([0, 1, 2], 30)
    params = ClusterParams(prune_param=1.0, merge_param=-1.9,
                           merging_enabled=True, anomaly_sensitivity=1.0)
    result = fit_predict(pts, params)
    elapsed = time.perf_counter() - t0
    assert ari(truth, result.labels) == 1.0
    assert nmi(truth, result.labels) == 1.0
    assert elapsed < 1.0
    report(4, f"ARI and NMI exactly 1.0 in {elapsed * 1000:.0f}ms")


# -- criterion 5: back-projection demo --------------------------------------

def test_criterion_5_backprojection_beats_ablation():
    rows = backprojection_demo(n_seeds=5)
    for row in rows:
        assert row["recall_backprojection"] > row["recall_projection_only"]
    mean_on = np.mean([r["recall_backprojection"] for r in rows])
    mean_off = np.mean([r["recall_projection_only"] for r in rows])
    report(5, f"tail recall {mean_on:.2f} with back-projection vs "
              f"{mean_off:.2f} without, strict per-seed")


# -- criterion 6: degradation sweep ------------------------------------------

def test_criterion_6_degradation_sweep():
    rows = degradation_sweep(
        eps_list=(2.0, 1.5, 1.2, 1.0, 0.8, 0.6, 0.5), n_seeds=10)
    success = [r["success"] for r in rows]
    assert success[0] == 1.0
    assert success[-1] <= 0.5
    inversions = sum(
        1 for a, b in zip(success, success[1:]) if b > a
    )
    assert inversions <= 1
    report(6, f"success by gap {success}, {inversions} inversion(s)")


# -- criterion 7: anomaly sensitivity endpoints ------------------------------

def test_criterion_7_sensitivity_endpoints():
    data, _ = generate(SynthConfig(
        n_points=400, n_clusters=3, n_dim=5, overlap=0.08,
        anomaly_fraction=0.05, random_state=700,
    ))

    def run(sens):
        return fit_predict(data, ClusterParams(
            prune_param=1.0, merge_param=-0.8, anomaly_sensitivity=sens))

    keep_all = run(1.0)
    assert len(keep_all.anomaly.merged) >= 1
    # triangulation must be duplicate-free for plain point counting below
    assert keep_all.triangulation.n_vertices == len(data)
    pre_merge_anomalies = keep_all.anomaly.group_of[
        keep_all.triangulation.rep_u] >= 0
    assert keep_all.n_anomalies == int(pre_merge_anomalies.sum())

    merge_all = run(0.0)
    groups = merge_all.anomaly
    group = groups.group_of[groups.group_of >= 0]
    unmergeable = int((groups.best_cluster[group] < 0).sum())
    assert merge_all.n_anomalies == unmergeable

    prev = None
    for sens in (1.0, 0.75, 0.5, 0.25, 0.0):
        merged = set(np.flatnonzero(run(sens).anomaly.merged).tolist())
        if prev is not None:
            assert prev <= merged  # lowering sensitivity only adds merges
        prev = merged
    report(7, f"endpoints hold; sensitivity=1 keeps "
              f"{keep_all.n_anomalies} anomalies, 0 leaves {unmergeable}")


# -- criterion 8: metric oracles ---------------------------------------------

def ari_pair_oracle(t, p):
    n = len(t)
    same_t = t[:, None] == t[None, :]
    same_p = p[:, None] == p[None, :]
    iu = np.triu_indices(n, k=1)
    a = int((same_t[iu] & same_p[iu]).sum())
    b = int((same_t[iu] & ~same_p[iu]).sum())
    c = int((~same_t[iu] & same_p[iu]).sum())
    total = n * (n - 1) // 2
    expected = (a + b) * (a + c) / total
    maximum = 0.5 * ((a + b) + (a + c))
    if maximum == expected:
        return 1.0
    return (a - expected) / (maximum - expected)


def nmi_entropy_oracle(t, p):
    n = len(t)
    joint, pt, pp = {}, {}, {}
    for a, b in zip(t.tolist(), p.tolist()):
        joint[(a, b)] = joint.get((a, b), 0) + 1
        pt[a] = pt.get(a, 0) + 1
        pp[b] = pp.get(b, 0) + 1
    h_t = -sum(c / n * math.log(c / n) for c in pt.values())
    h_p = -sum(c / n * math.log(c / n) for c in pp.values())
    if h_t == 0.0 and h_p == 0.0:
        return 1.0
    if h_t == 0.0 or h_p == 0.0:
        return 0.0
    mi = sum(c / n * math.log((c / n) / (pt[a] / n * pp[b] / n))
             for (a, b), c in joint.items())
    return mi / ((h_t + h_p) / 2.0)


def test_criterion_8_metric_oracles():
    rng = np.random.default_rng(108)
    for _ in range(500):
        n = int(rng.integers(2, 301))
        t = rng.integers(-1, int(rng.integers(1, 8)), n)
        p = rng.integers(-1, int(rng.integers(1, 8)), n)
        assert abs(ari(t, p) - ari_pair_oracle(t, p)) < 1e-10
        assert abs(nmi(t, p) - nmi_entropy_oracle(t, p)) < 1e-10

    t = np.zeros(100, dtype=int)
    p = np.zeros(100, dtype=int)
    t[:10] = -1
    p[5:25] = -1
    precision, recall, f1 = anomaly_prf(t, p)
    assert (precision, recall) == (0.25, 0.5)
    assert f1 == pytest.approx(1.0 / 3.0, abs=1e-15)
    report(8, "ARI/NMI match pair-count and entropy oracles on 500 pairs")


# -- criterion 9: synthetic benchmark protocol -------------------------------

def test_criterion_9_synthetic_protocol():
    data, truth = generate(SynthConfig(
        n_points=5000, n_clusters=5, n_dim=50, overlap=0.08,
        anomaly_fraction=0.05, random_state=900,
    ))
    best = None
    for prune_param in (0.6, 0.8, 1.0, 1.2):
        result = fit_predict(data, ClusterParams(
            prune_param=prune_param, merge_param=-0.8,
            anomaly_sensitivity=0.99))
        score = ari(truth, result.labels)
        f1 = anomaly_prf(truth, result.labels)[2]
        if best is None or score > best[0]:
            best = (score, f1, prune_param)
    baseline = fit_predict(data, ClusterParams(
        prune_param=best[2], merge_param=-0.8, anomaly_sensitivity=0.0))
    f1_baseline = anomaly_prf(truth, baseline.labels)[2]
    assert best[0] >= 0.6
    assert best[1] > f1_baseline
    report(9, f"best ARI {best[0]:.3f} at prune={best[2]}, "
              f"F1 {best[1]:.3f} > merge-all baseline {f1_baseline:.3f}")


# -- criterion 10: runtime guards --------------------------------------------

def test_criterion_10_runtime_guards():
    data, _ = generate(SynthConfig(
        n_points=10000, n_clusters=5, n_dim=50, overlap=0.08,
        anomaly_fraction=0.02, random_state=1000,
    ))
    t0 = time.perf_counter()
    fit_predict(data, ClusterParams(prune_param=1.0))
    full = time.perf_counter() - t0
    assert full < 30.0

    def median_time(n):
        d, _ = generate(SynthConfig(
            n_points=n, n_clusters=5, n_dim=10, overlap=0.08,
            anomaly_fraction=0.02, random_state=1001,
        ))
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            fit_predict(d, ClusterParams(prune_param=1.0))
            times.append(time.perf_counter() - t0)
        return sorted(times)[1]

    small, big = median_time(5000), median_time(10000)
    ratio = big / small
    assert ratio <= 2.6
    report(10, f"10000x50 in {full:.1f}s; doubling ratio {ratio:.2f}")


# -- criterion 11: CLI determinism -------------------------------------------

def run_cli_subprocess(args, cwd):
    # The child runs in another cwd, where a relative PYTHONPATH entry
    # (PYTHONPATH=src) no longer resolves: put the directory of the imported
    # package first so the child runs the code under test, installed or not.
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(tricluster.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "tricluster.cli"] + args,
        capture_output=True, text=True, cwd=cwd, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_11_cli_determinism(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([{
        "name": "tiny",
        "generator": {"n_points": 120, "n_clusters": 3, "n_dim": 4,
                      "overlap": 0.08, "anomaly_fraction": 0.05},
        "params": {"prune_param": 1.0},
        "repeats": 2,
    }]))

    def one_pass(root):
        root.mkdir()
        outs = {}
        data = str(root / "d.csv")
        truth = str(root / "d.labels")
        outs["gen"] = run_cli_subprocess(
            ["gen", "--n", "150", "--clusters", "3", "--dim", "4",
             "--overlap", "0.08", "--anomaly-frac", "0.05",
             "--seed", "9", "--out", data, "--truth", truth], root)
        outs["cluster"] = run_cli_subprocess(
            ["cluster", "--input", data, "--prune", "1.0",
             "--out", str(root / "p.labels"), "--svg", str(root / "p.svg"),
             "--diag", str(root / "diag")], root)
        outs["eval"] = run_cli_subprocess(
            ["eval", "--true", truth, "--pred", str(root / "p.labels")], root)
        outs["bench"] = run_cli_subprocess(
            ["bench", "--suite", str(suite), "--out", str(root / "rep.csv")],
            root)
        outs["ablate"] = run_cli_subprocess(
            ["ablate", "--input", data, "--truth", truth, "--prune", "1.0",
             "--out-prefix", str(root / "abl")], root)
        outs["demo"] = run_cli_subprocess(
            ["demo", "--which", "backprojection", "--seeds", "2",
             "--out", str(root / "demo.json")], root)
        outs["sweep"] = run_cli_subprocess(
            ["sweep", "--input", data, "--truth", truth,
             "--prune-grid", "0.8,1.0", "--merge-grid", "-0.8",
             "--trace", str(root / "trace.csv")], root)
        # stdout echoes absolute paths; normalize the per-run root
        return {k: v.replace(str(root), "ROOT") for k, v in outs.items()}

    a_dir = tmp_path / "run_a"
    b_dir = tmp_path / "run_b"
    out_a = one_pass(a_dir)
    out_b = one_pass(b_dir)
    assert out_a == out_b  # machine-readable stdout identical

    artifacts = [
        "d.csv", "d.labels", "p.labels", "p.svg",
        "diag/triangles.csv", "diag/pruning.csv", "diag/anomaly.csv",
        "rep.csv", "abl.full.labels", "abl.merge_off.labels",
        "abl.proj_off.labels", "abl.anom_merged.labels",
        "demo.json", "trace.csv",
    ]
    for rel in artifacts:
        assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes(), rel
    report(11, f"{len(artifacts)} output files bit-identical across reruns")
