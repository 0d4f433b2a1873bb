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

``fit_predict`` returns each stage's output as a typed field of its
result, and in a ``RunTrace`` the numbers that no stage's output holds.
"""

from __future__ import annotations

import math
import numbers
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from . import anomaly as anomaly_mod
from . import merging as merging_mod
from . import pruning as pruning_mod
from .delaunay import Triangulation, triangulate
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
        for name in ("back_projection", "merging_enabled"):
            value = getattr(self, name)
            # a truthy string such as "false" would switch the stage on
            if not isinstance(value, (bool, np.bool_)):
                raise ConfigError(f"{name} must be a bool, got {value!r}")
        for name in ("prune_param", "merge_param", "tau",
                     "anomaly_sensitivity"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(
                    f"{name} must be a real number, got {value!r}")
            # a NaN fails every comparison, so it would pass the checks below
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        # a fractional tau would run as its floor
        if not isinstance(self.tau, numbers.Integral) or self.tau < 1:
            raise ConfigError(f"tau must be an integer >= 1, got {self.tau!r}")
        if not 0.0 <= self.anomaly_sensitivity <= 1.0:
            raise ConfigError("anomaly_sensitivity must lie in [0, 1]")


# the one source of parameter defaults for every front end
PARAM_DEFAULTS = {f.name: f.default for f in fields(ClusterParams)}


@dataclass(frozen=True)
class RunTrace:
    """A run's numbers that no stage's output holds: each stage's wall
    time in ms, the clusters after pruning and how many merging joined."""

    ms_project: float
    ms_triangulate: float
    ms_prune: float
    ms_merge: float
    ms_anomaly: float
    n_components_initial: int
    merge_count: int


@dataclass(frozen=True)
class ClusteringResult:
    """The labels of the input rows and each stage's output. The mesh
    stages' ids are vertices, which ``triangulation.unique_rows`` maps to
    input rows. ``merge_rule`` is the representatives' sigma rule, None
    when merging is off or no three representatives triangulate."""

    labels: np.ndarray
    n_clusters: int
    n_anomalies: int
    embedding: Embedding
    triangulation: Triangulation
    sizes: pruning_mod.TriangleSizes
    prune_result: pruning_mod.PruneResult
    merge_rule: pruning_mod.PruneResult | None
    anomaly: anomaly_mod.AnomalyDecisions
    trace: RunTrace


@contextmanager
def _stage(name, times):
    """Times a stage into ``times`` as ``ms_<name>`` and tags a
    TriclusterError raised inside it with the stage name."""
    t0 = time.perf_counter()
    try:
        yield
    except TriclusterError as exc:
        if exc.stage is None:
            exc.stage = name
        raise
    finally:
        times[f"ms_{name}"] = (time.perf_counter() - t0) * 1000.0


def fit_predict(data, params: ClusterParams = None,
                external_embedding: Embedding = None, *,
                copy: bool = True) -> ClusteringResult:
    """Run the full pipeline and return its ``ClusteringResult``.

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
    if data.ndim != 2 or data.shape[1] == 0:
        raise ShapeMismatchError("data must be an n x d matrix, d >= 1")
    if not np.isfinite(data).all():
        raise NonFiniteError("data contains NaN or Inf")

    times = {}

    with _stage("project", times):
        if external_embedding is not None:
            coords = getattr(external_embedding, "coords", external_embedding)
            emb = embedding_from_array(coords, data)
        else:
            emb = pca2(data, copy=False)
    proj = emb.coords

    # back-projection off: every original-space read uses the embedding,
    # so the outcome is a pure function of the embedding
    back_space = data if params.back_projection else proj

    with _stage("triangulate", times):
        tri = triangulate(proj)

    with _stage("prune", times):
        sizes = pruning_mod.triangle_sizes(tri, back_space, proj)
        prune_res, kept_edges = pruning_mod.prune(tri, sizes,
                                                  params.prune_param)
        labels_u = pruning_mod.connected_components(tri.n_vertices,
                                                    kept_edges)
    n_initial = int(labels_u.max()) + 1

    rule = None
    with _stage("merge", times):
        if params.merging_enabled:
            reps = merging_mod.compute_representatives(
                labels_u, proj.take(tri.unique_rows, axis=0))
            labels_u, rule = merging_mod.merge_clusters(
                labels_u, reps,
                back_space.take(tri.unique_rows.take(reps.rep_point_index),
                                axis=0),
                params.merge_param,
            )
    n_merged = n_initial - (int(labels_u.max()) + 1)

    with _stage("anomaly", times):
        groups = anomaly_mod.detect_anomaly_groups(labels_u, params.tau)
        labels_u, decisions = anomaly_mod.score_and_merge(
            groups, labels_u, tri, sizes, params.anomaly_sensitivity,
            medians=(prune_res.median, prune_res.median_proj),
        )

    # expand labels back to the input rows (duplicates inherit their
    # representative's label), then canonicalize to -1 plus 0..k-1
    labels = canonicalize_labels(labels_u[tri.rep_u])

    n_anomalies = int((labels == -1).sum())
    n_clusters = int(labels.max()) + 1 if (labels >= 0).any() else 0
    return ClusteringResult(
        labels=labels,
        n_clusters=n_clusters,
        n_anomalies=n_anomalies,
        embedding=emb,
        triangulation=tri,
        sizes=sizes,
        prune_result=prune_res,
        merge_rule=rule,
        anomaly=decisions,
        trace=RunTrace(**times, n_components_initial=n_initial,
                       merge_count=n_merged),
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
