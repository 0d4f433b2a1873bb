"""End-to-end clustering pipeline with ablation switches.

Stage order: project -> triangulate -> prune -> components ->
representatives -> merge -> anomaly -> label. The projection is PCA
unless an external embedding is passed. Ablations: merging can be
skipped, back-projection can be disabled (all original-space reads are
replaced by the embedding, making the result a pure function of the
embedding), and anomaly_sensitivity = 0 merges every mergeable anomaly
group.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import anomaly as anomaly_mod
from . import merging as merging_mod
from . import pruning as pruning_mod
from .delaunay import triangulate
from .errors import (
    ConfigError,
    NonFiniteError,
    ShapeMismatchError,
    TriclusterError,
)
from .io import canonicalize_labels
from .projection import Embedding, embedding_from_array, pca2

# the ranges ``bench.grid_sweep`` draws random probes from; the published
# defaults need not lie inside them
PRUNE_RANGE = (0.5, 2.0)
MERGE_RANGE = (-2.0, -0.5)


@dataclass(frozen=True)
class ClusterParams:
    """Pipeline knobs; defaults mirror the published quick-start settings."""

    prune_param: float = 0.3
    merge_param: float = -0.8
    tau: int = 3
    anomaly_sensitivity: float = 0.99
    back_projection: bool = True
    merging_enabled: bool = True
    size_mode: str = "max_edge"
    standardize: bool = False

    def validate(self):
        if self.tau < 1:
            raise ConfigError("tau must be >= 1")
        if not 0.0 <= self.anomaly_sensitivity <= 1.0:
            raise ConfigError("anomaly_sensitivity must lie in [0, 1]")
        if self.size_mode not in pruning_mod.SIZE_MODES:
            raise ConfigError(f"unknown size_mode {self.size_mode!r}")


# the one source of parameter defaults for every front end
PARAM_DEFAULTS = {f.name: f.default for f in fields(ClusterParams)}


@dataclass(frozen=True)
class ClusteringResult:
    labels: np.ndarray
    n_clusters: int
    n_anomalies: int
    diagnostics: dict = field(default_factory=dict)


class _Stage:
    """Tags exceptions raised inside a stage with the stage name."""

    def __init__(self, name, diagnostics):
        self.name = name
        self.diagnostics = diagnostics

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.diagnostics[f"ms_{self.name}"] = (
            (time.perf_counter() - self.t0) * 1000.0
        )
        if exc is not None and isinstance(exc, TriclusterError):
            if exc.stage is None:
                exc.stage = self.name
        return False


def fit_predict(data, params: ClusterParams = None,
                external_embedding: Embedding = None) -> ClusteringResult:
    """Run the full pipeline and return labels plus diagnostics.

    ``external_embedding`` (an ``Embedding`` or an (n, 2) array) replaces
    the PCA projection when given.
    """
    params = params or ClusterParams()
    params.validate()
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ShapeMismatchError("data must be a 2-D matrix")
    if not np.isfinite(data).all():
        raise NonFiniteError("data contains NaN or Inf")

    diag = {}

    with _Stage("project", diag):
        if external_embedding is not None:
            coords = getattr(external_embedding, "coords", external_embedding)
            emb = embedding_from_array(coords, data)
        else:
            pca_input = data
            if params.standardize:
                std = data.std(axis=0)
                std[std == 0] = 1.0
                pca_input = (data - data.mean(axis=0)) / std
            emb = pca2(pca_input)
    proj = emb.coords

    # back-projection off: every original-space read uses the embedding,
    # so the outcome is a pure function of the embedding
    back_space = data if params.back_projection else proj

    with _Stage("triangulate", diag):
        tri = triangulate(proj)
    diag["n_triangles"] = len(tri.triangles)

    with _Stage("prune", diag):
        sizes = pruning_mod.triangle_sizes(tri, back_space, proj,
                                           mode=params.size_mode)
        prune_res, kept_edges = pruning_mod.prune(tri, sizes,
                                                  params.prune_param)
        labels_u = pruning_mod.connected_components(tri.n_vertices,
                                                    kept_edges)
    diag["n_triangles_kept"] = int(prune_res.keep_mask.sum())
    diag["theta_prune"] = prune_res.theta
    diag["n_components_initial"] = int(labels_u.max()) + 1
    # references to the intermediates (cheap; used by --diag/--svg dumps)
    diag["embedding"] = emb
    diag["triangulation"] = tri
    diag["sizes"] = sizes
    diag["prune_result"] = prune_res

    with _Stage("merge", diag):
        merge_count = 0
        if params.merging_enabled:
            reps = merging_mod.compute_representatives(
                labels_u, proj[tri.unique_rows])
            before = int(labels_u.max()) + 1
            labels_u = merging_mod.merge_clusters(
                labels_u, reps,
                back_space[tri.unique_rows[reps.rep_point_index]],
                params.merge_param, diagnostics=diag,
            )
            merge_count = before - (int(labels_u.max()) + 1)
    diag["merge_count"] = merge_count

    with _Stage("anomaly", diag):
        groups = anomaly_mod.detect_anomaly_groups(labels_u, params.tau)
        members = np.concatenate([np.empty(0, dtype=np.int64), *groups])
        diag["pre_merge_anomaly_count"] = int(
            np.isin(tri.rep_u, members).sum())
        labels_u, decisions = anomaly_mod.score_and_merge(
            groups, labels_u, tri, sizes, params.anomaly_sensitivity
        )
    diag["anomaly_groups"] = decisions
    diag["n_anomaly_groups"] = len(decisions)
    diag["n_groups_merged"] = sum(1 for d in decisions if d.merged)

    # expand labels back to the input rows (duplicates inherit their
    # representative's label), then canonicalize to -1 plus 0..k-1
    labels = canonicalize_labels(labels_u[tri.rep_u])

    n_anomalies = int((labels == -1).sum())
    n_clusters = int(labels.max()) + 1 if (labels >= 0).any() else 0
    return ClusteringResult(
        labels=labels,
        n_clusters=n_clusters,
        n_anomalies=n_anomalies,
        diagnostics=diag,
    )


class DelaunayClusterer:
    """Object-style front end mirroring the published snippet semantics."""

    def __init__(self, prune_param=PARAM_DEFAULTS["prune_param"],
                 merge_param=PARAM_DEFAULTS["merge_param"],
                 back_proj=PARAM_DEFAULTS["back_projection"],
                 anomaly_sensitivity=PARAM_DEFAULTS["anomaly_sensitivity"],
                 tau=PARAM_DEFAULTS["tau"],
                 merging_enabled=PARAM_DEFAULTS["merging_enabled"],
                 size_mode=PARAM_DEFAULTS["size_mode"],
                 standardize=PARAM_DEFAULTS["standardize"]):
        self.params = ClusterParams(
            prune_param=prune_param,
            merge_param=merge_param,
            tau=tau,
            anomaly_sensitivity=anomaly_sensitivity,
            back_projection=back_proj,
            merging_enabled=merging_enabled,
            size_mode=size_mode,
            standardize=standardize,
        )
        self.result_ = None

    def fit_predict(self, data, embedding=None) -> np.ndarray:
        self.result_ = fit_predict(data, self.params,
                                   external_embedding=embedding)
        return self.result_.labels
