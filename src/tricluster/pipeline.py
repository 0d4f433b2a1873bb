"""End-to-end clustering pipeline with ablation switches.

Stage order: project -> triangulate -> prune -> components ->
representatives -> merge -> anomaly -> label. The projection is PCA
unless an external embedding is passed. On the PCA path the original
space that the later stages read is the matrix PCA centred, since a
translation moves no Euclidean distance; with ``copy=False`` that is the
input itself, and the job holds one n x d array instead of two.
Ablations: merging can be skipped, back-projection can be disabled (all
original-space reads are replaced by the embedding, making the result a
pure function of the embedding), and anomaly_sensitivity = 0 merges
every mergeable anomaly group.
"""

from __future__ import annotations

import math
import numbers
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
from .projection import Embedding, embedding_from_array, owned_float64, pca2


@dataclass(frozen=True)
class ClusterParams:
    """Pipeline knobs; defaults mirror the published quick-start settings."""

    prune_param: float = 0.3
    merge_param: float = -0.8
    tau: int = 3
    anomaly_sensitivity: float = 0.99
    back_projection: bool = True
    merging_enabled: bool = True

    def validate(self):
        for name in ("prune_param", "merge_param", "tau",
                     "anomaly_sensitivity"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ConfigError(
                    f"{name} must be a real number, got {value!r}")
            # a NaN fails every comparison, so it would pass the checks below
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.tau < 1:
            raise ConfigError("tau must be >= 1")
        if not 0.0 <= self.anomaly_sensitivity <= 1.0:
            raise ConfigError("anomaly_sensitivity must lie in [0, 1]")


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
                external_embedding: Embedding = None, *,
                copy: bool = True) -> ClusteringResult:
    """Run the full pipeline and return labels plus diagnostics.

    ``external_embedding`` (an ``Embedding`` or an (n, 2) array) replaces
    the PCA projection when given, and ``data`` is then only read. On the
    PCA path the later stages read the matrix ``pca2`` centred. By
    default that is a float64 copy, and ``data`` is left as it was. With
    ``copy=False``, as in ``pca2``, a writeable float64 ndarray is
    centred in place and left centred, and any other input is copied.
    """
    params = params or ClusterParams()
    params.validate()
    if external_embedding is None:
        # pca2 centres this matrix in place, and the later stages read it
        data = owned_float64(data, copy)
    else:
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
            emb = pca2(data, copy=False)
    proj = emb.coords

    # back-projection off: every original-space read uses the embedding,
    # so the outcome is a pure function of the embedding
    back_space = data if params.back_projection else proj

    with _Stage("triangulate", diag):
        tri = triangulate(proj)
    diag["n_triangles"] = len(tri.triangles)

    with _Stage("prune", diag):
        sizes = pruning_mod.triangle_sizes(tri, back_space, proj)
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
    """Object-style front end mirroring the published snippet semantics.

    Keyword arguments are ``ClusterParams`` fields; ``back_proj`` is the
    published snippet's name for ``back_projection``.
    """

    def __init__(self, *, back_proj=None, **params):
        if back_proj is not None:
            params["back_projection"] = back_proj
        self.params = ClusterParams(**params)
        self.result_ = None

    def fit_predict(self, data, embedding=None) -> np.ndarray:
        self.result_ = fit_predict(data, self.params,
                                   external_embedding=embedding)
        return self.result_.labels
