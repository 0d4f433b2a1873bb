"""Experiment runner: suites, ablations, sweeps, demos and scaling are
front ends of one ``run(spec)``, whose rows all have one schema.

Suite seeds derive from (spec name, repeat index) with crc32, so reports
are reproducible across machines. The default report leaves the stage
times out, so it is bit-identical across runs.
"""

from __future__ import annotations

import csv
import math
import zlib
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from typing import Callable, Sequence

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
    """``draw(seed)`` gives ``(data, truth or None, embedding or None)``;
    each seed's draw is clustered once per ``ClusterParams`` variant in
    ``params``. Ablation switches and sweep probes are such variants."""

    name: str
    draw: Callable
    seeds: Sequence[int]
    params: tuple


def run(spec: BenchSpec):
    """Yield ``(row, result)`` per seed and, within a seed, per params
    variant. A row holds the ``REPORT_COLUMNS``, the scores only when the
    draw has a truth, and every ``RunTrace`` field. A TriclusterError of
    a draw or a run propagates."""
    for seed in spec.seeds:
        data, truth, embedding = spec.draw(seed)
        n, d = np.shape(data)
        for p in spec.params:
            result = fit_predict(data, p, external_embedding=embedding)
            row = {"name": spec.name, "seed": seed, "n": n, "d": d,
                   "prune": p.prune_param, "merge": p.merge_param,
                   "sensitivity": p.anomaly_sensitivity}
            labels = result.labels
            if truth is not None:
                precision, recall, f1 = metrics.anomaly_prf(truth, labels)
                row.update(ari=metrics.ari(truth, labels),
                           nmi=metrics.nmi(truth, labels),
                           precision=precision, recall=recall, f1=f1)
            row.update(n_clusters=result.n_clusters,
                       n_anomalies=result.n_anomalies,
                       **asdict(result.trace))
            yield row, result


def run_seed(name: str, repeat: int) -> int:
    """Deterministic per-run seed derived from (name, repeat index)."""
    return zlib.crc32(f"{name}:{repeat}".encode("utf-8"))


def synth_draw(generator: dict, seed: int):
    """synthgen data from the ``SynthConfig`` fields in ``generator``
    with ``seed`` as its random state, and no embedding."""
    return *generate(SynthConfig(**{**generator, "random_state": seed})), None


@dataclass
class BenchReport:
    rows: list = field(default_factory=list)    # dicts per run
    errors: list = field(default_factory=list)  # (name, seed, message)

    def write_csv(self, path, include_timings: bool = False):
        blank = {} if include_timings else dict.fromkeys(TIMING_KEYS, "")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS,
                                    extrasaction="ignore")
            writer.writeheader()
            writer.writerows({**row, **blank} for row in self.rows)


def run_suite(specs, svg_dir=None) -> BenchReport:
    """Run each spec at each of its seeds.

    A seed whose draw or run raises TriclusterError is recorded in
    ``errors`` and the suite goes on; any other exception is a bug and
    propagates.
    """
    report = BenchReport()
    for spec in specs:
        for rep, seed in enumerate(spec.seeds):
            try:
                for row, result in run(replace(spec, seeds=(seed,))):
                    if svg_dir is not None:
                        scatter_svg(result.embedding.coords, result.labels,
                                    f"{svg_dir}/{spec.name}_{rep}.svg")
                    report.rows.append(row)
            except TriclusterError as exc:  # keep the suite going
                report.errors.append((spec.name, seed, str(exc)))
    return report


def run_ablations(data, params: ClusterParams, truth=None,
                  variants=("merge_off", "proj_off", "anom_merged"),
                  embedding=None):
    """Full pipeline plus the requested ablated variants, as
    ``{variant: (row, result)}`` with ``"full"`` first."""
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
    spec = BenchSpec("ablate", lambda seed: (data, truth, embedding), [0],
                     tuple(runs.values()))
    return dict(zip(runs, run(spec)))


def _check_seeds(n_seeds):
    if n_seeds < 1:
        raise ConfigError(f"seeds must be at least 1, got {n_seeds}")


def degradation_sweep(eps_list=(2.0, 1.5, 1.2, 1.0, 0.8, 0.6, 0.5),
                      n_seeds: int = 10):
    """Fraction of seeds recovering exactly the two strips, per gap value."""
    _check_seeds(n_seeds)
    params = (ClusterParams(prune_param=0.8, anomaly_sensitivity=1.0),)
    results = []
    for eps in eps_list:
        spec = BenchSpec(
            "degradation",
            lambda seed, eps=eps: (*generate_degradation_pair(eps, seed),
                                   None),
            range(1000, 1000 + n_seeds), params)
        successes = sum(row["n_clusters"] == 2 for row, _ in run(spec))
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

    def draw(seed):
        data, truth = generate_backprojection_demo(10, 25, seed=seed)
        return data, truth, embedding_from_array(data[:, :2].copy(), data)

    base = ClusterParams(prune_param=1.0, anomaly_sensitivity=1.0)
    spec = BenchSpec("backprojection", draw, range(2000, 2000 + n_seeds),
                     (base, replace(base, back_projection=False)))
    recall = [row["recall"] for row, _ in run(spec)]
    return [{"seed": seed, "recall_backprojection": on,
             "recall_projection_only": off}
            for seed, on, off in zip(spec.seeds, recall[::2], recall[1::2])]


def grid_sweep(data, truth, prune_values=None, merge_values=None,
               n_probes: int = 0, seed: int = 0, params: ClusterParams = None,
               embedding=None):
    """Exhaustive grid, or ``n_probes`` seeded random probes drawn from
    the search ranges ``PRUNE_RANGE`` and ``MERGE_RANGE`` with
    ``seed``. A negative ``n_probes`` or ``seed``, and probes with grid
    values, raise ConfigError.

    Returns (best_row, rows): one row per probe, in probe order, and the
    first of them with the highest ARI.
    """
    if n_probes < 0:
        raise ConfigError(f"probes must be at least 0, got {n_probes}")
    if n_probes and (prune_values or merge_values):
        raise ConfigError("random probes cannot be combined with a "
                          "prune or merge grid")
    if seed < 0:
        raise ConfigError(f"the seed must be at least 0, got {seed}")
    base = params or ClusterParams()
    if n_probes:
        rng = np.random.Generator(np.random.PCG64(seed))
        probes = [(float(rng.uniform(*PRUNE_RANGE)),
                   float(rng.uniform(*MERGE_RANGE)))
                  for _ in range(n_probes)]
    else:
        probes = [(p, m) for p in prune_values or [0.6, 0.8, 1.0, 1.2]
                  for m in merge_values or [base.merge_param]]
    spec = BenchSpec(
        "sweep", lambda _: (data, truth, embedding), [seed],
        tuple(replace(base, prune_param=p, merge_param=m) for p, m in probes))
    rows = [row for row, _ in run(spec)]
    return max(rows, key=lambda row: row["ari"]), rows


def runtime_scaling(n_list, d_list):
    """Stage times of the full pipeline per (n, d), their sum in
    ``seconds``, and the exponents fitted to it, each None where fewer
    than two sizes leave it undefined."""
    rows = []
    for d in d_list:
        for n in n_list:
            draw = partial(synth_draw, dict(
                n_points=n, n_dim=d, n_clusters=5, overlap=0.08,
                anomaly_fraction=0.02))
            spec = BenchSpec("scaling", draw, [7],
                             (ClusterParams(prune_param=1.0),))
            for row, _ in run(spec):
                ms = {k: row[k] for k in TIMING_KEYS}
                rows.append({"n": n, "d": d, **ms,
                             "seconds": sum(ms.values()) / 1000.0})

    def fitted_exponent(size, other, at):
        # least-squares slope of log(seconds) over log(size), on the rows
        # whose ``other`` size is ``at``
        pts = [(math.log(r[size]), math.log(r["seconds"]))
               for r in rows if r[other] == at]
        if len({x for x, _ in pts}) < 2:
            return None
        return float(np.polyfit(*zip(*pts), 1)[0])

    return {"rows": rows, "exponent_n": fitted_exponent("n", "d", max(d_list)),
            "exponent_d": fitted_exponent("d", "n", max(n_list))}
