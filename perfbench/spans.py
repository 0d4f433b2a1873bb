"""Spans and predicate counters recorded from outside the program.

Both passes replace module attributes for the duration of a job and put
the originals back afterwards. A wrapped attribute that does not exist is
reported as absent instead of failing, so the traced run survives a
refactor that removes an entry point.
"""

from __future__ import annotations

import importlib
import os
from time import perf_counter

import numpy as np

# (module, attribute): the names callers reach each layer through.
SPAN_TARGETS = [
    ("io", "load_matrix"),
    ("io", "save_labels"),
    ("cli", "fit_predict"),
    ("pipeline", "pca2"),
    ("pipeline", "embedding_from_array"),
    ("pipeline", "triangulate"),
    ("delaunay", "collapse_duplicates"),
    ("pruning", "triangle_sizes"),
    ("pruning", "prune"),
    ("pruning", "connected_components"),
    ("merging", "compute_representatives"),
    ("merging", "merge_clusters"),
    ("merging", "triangulate"),
    ("anomaly", "detect_anomaly_groups"),
    ("anomaly", "score_and_merge"),
    ("anomaly", "triangle_sizes"),
]

# Predicate entry points, and the triangulations their calls belong to.
COUNT_TARGETS = [
    ("delaunay", "orient2d"),
    ("delaunay", "incircle"),
    ("predicates", "_orient2d_exact"),
    ("predicates", "_incircle_exact"),
]
COUNT_CONTEXTS = [("pipeline", "triangulate"), ("merging", "triangulate")]

PACKAGE = "tricluster"


def _n_labels(labels) -> int:
    labels = np.asarray(labels)
    return int(len(np.unique(labels[labels >= 0])))


def _sizes_bytes(args):
    # the per-edge difference arrays, m x d float64, three edges, both spaces
    tri, original, proj = args[:3]
    m = len(tri.triangles)
    dims = sum(np.asarray(getattr(s, "coords", s)).reshape(tri.n_input, -1)
               .shape[1] for s in (original, proj))
    return {"bytes": 3 * m * dims * 8}


# Counts read off a span's arguments and result, after the span has ended.
ANNOTATE = {
    "io.load_matrix": lambda a, r: {"bytes": os.path.getsize(a[0])},
    "pipeline.triangulate": lambda a, r: {
        "n_vertices": int(r.n_vertices),
        "n_triangles": int(len(r.triangles)),
        "n_edges": int(len(r.edges)),
    },
    "pruning.triangle_sizes": lambda a, r: _sizes_bytes(a),
    "pruning.prune": lambda a, r: {
        "keep_ratio": float(np.mean(r[0].keep_mask)),
    },
    "pruning.connected_components": lambda a, r: {"n": _n_labels(r)},
    "merging.compute_representatives": lambda a, r: {
        "n": int(len(r.cluster_ids)),
    },
    "merging.merge_clusters": lambda a, r: {
        "n_merged": _n_labels(a[0]) - _n_labels(r),
    },
    "anomaly.detect_anomaly_groups": lambda a, r: {"n": len(r)},
    "anomaly.score_and_merge": lambda a, r: {
        "n_merged": sum(1 for d in r[1] if d.merged),
    },
}


class _Patches:
    """Module attributes replaced by wrappers, restored on exit."""

    def __init__(self):
        self.saved = []
        self.absent = []

    def install(self, targets, make_wrapper):
        for mod_name, attr in targets:
            name = f"{mod_name}.{attr}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self.saved.append((module, attr, original))
            setattr(module, attr, make_wrapper(name, original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()
        return False


class SpanRecorder:
    """Records (name, start, end, parent, counts) for every wrapped call.

    Spans stay in memory; the caller writes them out when the run ends.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.absent = []

    def span(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        record = {"name": name, "start": perf_counter(), "end": None,
                  "parent": parent, "counts": None}
        self.spans.append(record)
        self.stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = perf_counter()
            self.stack.pop()
        annotate = ANNOTATE.get(name)
        if annotate is not None:
            try:
                record["counts"] = annotate(args, result)
            except Exception:  # a changed signature loses counts, not the job
                record["counts"] = None
        return result

    def patches(self) -> _Patches:
        patches = _Patches()

        def make_wrapper(name, original):
            def wrapper(*args, **kwargs):
                return self.span(name, original, *args, **kwargs)
            return wrapper

        patches.install(SPAN_TARGETS, make_wrapper)
        self.absent = patches.absent
        return patches


class PredicateCounter:
    """Counts predicate calls, keyed by the triangulation that made them."""

    def __init__(self):
        self.counts = {}
        self.context = ["other"]
        self.triangles = []  # stage-one triangles, one array per job
        self.absent = []

    def patches(self) -> _Patches:
        patches = _Patches()
        counts, context = self.counts, self.context

        def make_counter(name, original):
            def wrapper(*args):
                key = (context[-1], name)
                counts[key] = counts.get(key, 0) + 1
                return original(*args)
            return wrapper

        def make_context(name, original):
            def wrapper(*args, **kwargs):
                context.append(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    context.pop()
                if name == "pipeline.triangulate":
                    self.triangles.append(np.asarray(result.triangles))
                return result
            return wrapper

        patches.install(COUNT_TARGETS, make_counter)
        patches.install(COUNT_CONTEXTS, make_context)
        self.absent = patches.absent
        return patches

    def as_dict(self) -> dict:
        out = {}
        for (ctx, name), n in sorted(self.counts.items()):
            out.setdefault(ctx, {})[name] = n
        return out


def _duration(span) -> float:
    return span["end"] - span["start"]


def job_layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced job from its spans.

    Self time is a span's duration minus that of its direct children,
    which run one after another inside it.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += _duration(s)

    def select(name, parent=None):
        return [(i, s) for i, s in enumerate(spans) if s["name"] == name
                and (parent is None or (s["parent"] >= 0 and
                                        spans[s["parent"]]["name"] == parent))]

    def total(name, parent=None):
        return sum(_duration(s) for _, s in select(name, parent))

    def self_time(name):
        return sum(_duration(s) - child_time[i] for i, s in select(name))

    def count(name, key, parent=None):
        return sum(s["counts"][key] for _, s in select(name, parent)
                   if s["counts"] is not None)

    n_groups = count("anomaly.detect_anomaly_groups", "n")
    return {
        "cli.self_s": self_time("cli.main"),
        "io.load_s": total("io.load_matrix"),
        "io.save_s": total("io.save_labels"),
        "io.bytes_in": count("io.load_matrix", "bytes"),
        "projection.s": (total("pipeline.pca2")
                         + total("pipeline.embedding_from_array")),
        "delaunay.s": total("pipeline.triangulate"),
        "delaunay.collapse_s": total("delaunay.collapse_duplicates",
                                     parent="pipeline.triangulate"),
        "delaunay.n_vertices": count("pipeline.triangulate", "n_vertices"),
        "delaunay.n_triangles": count("pipeline.triangulate", "n_triangles"),
        "delaunay.n_edges": count("pipeline.triangulate", "n_edges"),
        "pruning.sizes_s": total("pruning.triangle_sizes",
                                 parent="cli.fit_predict"),
        "pruning.sizes_bytes": count("pruning.triangle_sizes", "bytes",
                                     parent="cli.fit_predict"),
        # the second sizing pass, however anomaly scoring reaches it
        "anomaly.resize_s": (total("anomaly.triangle_sizes")
                             + total("pruning.triangle_sizes",
                                     parent="anomaly.score_and_merge")),
        "pruning.prune_s": total("pruning.prune"),
        "pruning.components_s": total("pruning.connected_components"),
        "pruning.keep_ratio": count("pruning.prune", "keep_ratio"),
        "pruning.n_components": count("pruning.connected_components", "n"),
        "merging.reps_s": total("merging.compute_representatives"),
        "merging.merge_s": self_time("merging.merge_clusters"),
        "merging.rep_tri_s": total("merging.triangulate"),
        "merging.n_reps": count("merging.compute_representatives", "n"),
        "merging.n_merged": count("merging.merge_clusters", "n_merged"),
        "anomaly.detect_s": total("anomaly.detect_anomaly_groups"),
        "anomaly.score_s": self_time("anomaly.score_and_merge"),
        "anomaly.n_groups": n_groups,
        "anomaly.merge_ratio": (count("anomaly.score_and_merge", "n_merged")
                                / n_groups if n_groups else 0.0),
        "pipeline.s": total("cli.fit_predict"),
        "pipeline.self_s": self_time("cli.fit_predict"),
    }


def predicate_metrics(counts: dict) -> dict:
    """Predicate metrics of the stage-one mesh; merging's mesh apart."""
    stage = counts.get("pipeline.triangulate", {})
    orient = stage.get("delaunay.orient2d", 0)
    incircle = stage.get("delaunay.incircle", 0)
    exact = (stage.get("predicates._orient2d_exact", 0)
             + stage.get("predicates._incircle_exact", 0))
    rep = counts.get("merging.triangulate", {})
    return {
        "predicates.orient2d_calls": orient,
        "predicates.incircle_calls": incircle,
        "predicates.exact_calls": exact,
        "predicates.exact_ratio": (exact / (orient + incircle)
                                   if orient + incircle else 0.0),
        "merging.rep_predicate_calls": (rep.get("delaunay.orient2d", 0)
                                        + rep.get("delaunay.incircle", 0)),
    }
