"""Benchmark harness: synthetic suites, ablations, sweeps, demos, scaling.

Every report row carries the full parameter set and the seed needed to
reproduce it in isolation. Per-run seeds are derived deterministically
from (spec name, repeat index) with crc32, so reports are reproducible
across machines. Wall-clock numbers are always collected in-process, but
they only enter the report file when explicitly requested: the default
report is bit-identical across runs.
"""

from __future__ import annotations

import csv
import math
import time
import zlib
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import metrics
from .errors import ConfigError, TriclusterError
from .pipeline import ClusterParams, RunTrace, fit_predict
from .projection import embedding_from_array
from .svg import scatter_svg
from .synthgen import (
    SynthConfig,
    generate,
    generate_backprojection_demo,
    generate_degradation_pair,
)

TIMING_KEYS = tuple(f.name for f in fields(RunTrace)
                    if f.name.startswith("ms_"))

REPORT_COLUMNS = [
    "name", "seed", "n", "d", "prune", "merge", "sensitivity",
    "ari", "nmi", "precision", "recall", "f1",
    "n_clusters", "n_anomalies", *TIMING_KEYS,
]

# the ranges ``grid_sweep`` draws random probes from; the published
# defaults need not lie inside them
PRUNE_RANGE = (0.5, 2.0)
MERGE_RANGE = (-2.0, -0.5)


@dataclass(frozen=True)
class BenchSpec:
    name: str
    generator: dict                 # SynthConfig field overrides
    params: ClusterParams = field(default_factory=ClusterParams)
    repeats: int = 1


@dataclass
class BenchReport:
    rows: list = field(default_factory=list)    # dicts per run
    errors: list = field(default_factory=list)  # (name, seed, message)

    def write_csv(self, path, include_timings: bool = False):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
            writer.writeheader()
            for row in self.rows:
                out = {k: row.get(k, "") for k in REPORT_COLUMNS}
                if not include_timings:
                    for k in TIMING_KEYS:
                        out[k] = ""
                writer.writerow(out)


def run_seed(name: str, repeat: int) -> int:
    """Deterministic per-run seed derived from (name, repeat index)."""
    return zlib.crc32(f"{name}:{repeat}".encode("utf-8"))


def run_suite(specs, svg_dir=None) -> BenchReport:
    """Run each spec ``repeats`` times.

    A run that raises TriclusterError is recorded in ``errors`` and the
    suite goes on; any other exception is a bug and propagates.
    """
    report = BenchReport()
    for spec in specs:
        for rep in range(spec.repeats):
            seed = run_seed(spec.name, rep)
            try:
                row = _run_one(spec, rep, seed, svg_dir)
            except TriclusterError as exc:  # keep the suite going
                report.errors.append((spec.name, seed, str(exc)))
                continue
            report.rows.append(row)
    return report


def _run_one(spec: BenchSpec, rep: int, seed: int, svg_dir):
    cfg = SynthConfig(**{**spec.generator, "random_state": seed})
    data, truth = generate(cfg)
    result = fit_predict(data, spec.params)
    precision, recall, f1 = metrics.anomaly_prf(truth, result.labels)
    row = {
        "name": spec.name,
        "seed": seed,
        "n": cfg.n_points,
        "d": cfg.n_dim,
        "prune": spec.params.prune_param,
        "merge": spec.params.merge_param,
        "sensitivity": spec.params.anomaly_sensitivity,
        "ari": metrics.ari(truth, result.labels),
        "nmi": metrics.nmi(truth, result.labels),
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "n_clusters": result.n_clusters,
        "n_anomalies": result.n_anomalies,
        **{key: getattr(result.trace, key) for key in TIMING_KEYS},
    }
    if svg_dir is not None:
        scatter_svg(result.embedding.coords, result.labels,
                    f"{svg_dir}/{spec.name}_{rep}.svg")
    return row


def run_ablations(data, params: ClusterParams, truth=None,
                  variants=("merge_off", "proj_off", "anom_merged"),
                  embedding=None):
    """Full pipeline plus the requested ablated variants."""
    runs = {"full": params}
    for v in variants:
        if v == "merge_off":
            runs[v] = replace(params, merging_enabled=False)
        elif v == "proj_off":
            runs[v] = replace(params, back_projection=False)
        elif v == "anom_merged":
            runs[v] = replace(params, anomaly_sensitivity=0.0)
        else:
            raise ConfigError(f"unknown ablation variant {v!r}")

    out = {}
    for name, p in runs.items():
        result = fit_predict(data, p, external_embedding=embedding)
        entry = {
            "labels": result.labels,
            "n_clusters": result.n_clusters,
            "n_anomalies": result.n_anomalies,
        }
        if truth is not None:
            entry["ari"] = metrics.ari(truth, result.labels)
            entry["nmi"] = metrics.nmi(truth, result.labels)
            _, _, entry["f1"] = metrics.anomaly_prf(truth, result.labels)
        out[name] = entry
    return out


def _check_seeds(n_seeds):
    if n_seeds < 1:
        raise ConfigError(f"seeds must be at least 1, got {n_seeds}")


def degradation_sweep(eps_list=(2.0, 1.5, 1.2, 1.0, 0.8, 0.6, 0.5),
                      n_seeds: int = 10):
    """Fraction of seeds recovering exactly the two strips, per gap value."""
    _check_seeds(n_seeds)
    params = ClusterParams(prune_param=0.8, anomaly_sensitivity=1.0)
    results = []
    for eps in eps_list:
        successes = 0
        for s in range(n_seeds):
            data, _ = generate_degradation_pair(eps, seed=1000 + s)
            result = fit_predict(data, params)
            if result.n_clusters == 2:
                successes += 1
        results.append({"epsilon": eps, "success": successes / n_seeds})
    return results


def backprojection_demo(n_seeds: int = 5):
    """Tail-anomaly recall with back-projection on vs off.

    Each seed draws 500 points in 10-D, 25 of them tail points. The
    imported embedding is the first two coordinates, so the displaced
    tail points sit inside the cluster footprint in 2-D and only the
    original-space test can expose them.
    """
    _check_seeds(n_seeds)
    rows = []
    for s in range(n_seeds):
        data, truth = generate_backprojection_demo(10, 25, seed=2000 + s)
        emb = embedding_from_array(data[:, :2].copy(), data)
        base = ClusterParams(prune_param=1.0, anomaly_sensitivity=1.0)
        with_bp = fit_predict(data, base, external_embedding=emb)
        without = fit_predict(data, replace(base, back_projection=False),
                              external_embedding=emb)
        _, recall_on, _ = metrics.anomaly_prf(truth, with_bp.labels)
        _, recall_off, _ = metrics.anomaly_prf(truth, without.labels)
        rows.append({
            "seed": 2000 + s,
            "recall_backprojection": recall_on,
            "recall_projection_only": recall_off,
        })
    return rows


def grid_sweep(data, truth, prune_values=None, merge_values=None,
               n_probes: int = 0, seed: int = 0, params: ClusterParams = None,
               embedding=None):
    """Exhaustive grid, or seeded random probes drawn from the search
    ranges ``PRUNE_RANGE`` and ``MERGE_RANGE``.

    Returns (best_params, trace). The trace holds one dict per probe with
    the parameters and scores, best ARI first on ties by probe order.
    """
    base = params or ClusterParams()
    probes = []
    if n_probes > 0:
        rng = np.random.Generator(np.random.PCG64(seed))
        for _ in range(n_probes):
            probes.append((float(rng.uniform(*PRUNE_RANGE)),
                           float(rng.uniform(*MERGE_RANGE))))
    else:
        prune_values = prune_values or [0.6, 0.8, 1.0, 1.2]
        merge_values = merge_values or [base.merge_param]
        probes = [(p, m) for p in prune_values for m in merge_values]

    trace = []
    best = None
    for prune_v, merge_v in probes:
        p = replace(base, prune_param=prune_v, merge_param=merge_v)
        result = fit_predict(data, p, external_embedding=embedding)
        score = metrics.ari(truth, result.labels)
        _, _, f1 = metrics.anomaly_prf(truth, result.labels)
        trace.append({
            "prune": prune_v, "merge": merge_v, "ari": score, "f1": f1,
            "n_clusters": result.n_clusters,
            "n_anomalies": result.n_anomalies,
        })
        if best is None or score > best[0]:
            best = (score, p)
    return best[1], trace


def runtime_scaling(n_list, d_list):
    """Wall-clock of the full pipeline per (n, d) plus fitted exponents."""
    rows = []
    for d in d_list:
        for n in n_list:
            cfg = SynthConfig(n_points=n, n_dim=d, n_clusters=5,
                              overlap=0.08, anomaly_fraction=0.02,
                              random_state=7)
            data, _ = generate(cfg)
            t0 = time.perf_counter()
            fit_predict(data, ClusterParams(prune_param=1.0))
            rows.append({"n": n, "d": d,
                         "seconds": time.perf_counter() - t0})

    def fitted_exponent(pairs):
        if len(pairs) < 2:
            return float("nan")
        lx = [math.log(a) for a, _ in pairs]
        ly = [math.log(b) for _, b in pairs]
        mx = sum(lx) / len(lx)
        my = sum(ly) / len(ly)
        num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
        den = sum((a - mx) ** 2 for a in lx)
        return num / den if den else float("nan")

    d_max = max(d_list)
    n_max = max(n_list)
    exp_n = fitted_exponent([(r["n"], r["seconds"]) for r in rows
                             if r["d"] == d_max])
    exp_d = fitted_exponent([(r["d"], r["seconds"]) for r in rows
                             if r["n"] == n_max])
    return {"rows": rows, "exponent_n": exp_n, "exponent_d": exp_d}
