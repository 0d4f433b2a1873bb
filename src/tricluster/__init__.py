"""Triangulation-based clustering with back-projected edge pruning.

Points are projected to 2-D, Delaunay-triangulated, and the triangles are
sized in the original high-dimensional space; robust sigma pruning of
oversized triangles yields clusters, which are then conservatively merged
and screened for anomalies.
"""

from .anomaly import AnomalyDecisions, detect_anomaly_groups, score_and_merge
from .delaunay import Triangulation, triangulate
from .errors import (
    CollinearError,
    ConfigError,
    DegenerateError,
    EmptyError,
    IoError,
    LengthMismatchError,
    NonFiniteError,
    NumericalError,
    ParseError,
    ShapeMismatchError,
    TooFewPointsError,
    TriclusterError,
)
from .io import load_labels, load_matrix, save_labels, save_matrix
from .merging import Representatives, compute_representatives, merge_clusters
from .pipeline import (
    ClusteringResult,
    ClusterParams,
    DelaunayClusterer,
    RunTrace,
    fit_predict,
)
from .projection import Embedding, import_embedding, pca2
from .pruning import (
    PruneResult,
    TriangleSizes,
    connected_components,
    prune,
    prune_threshold,
    robust_z,
    sigma_rule,
    triangle_sizes,
)
__version__ = "0.1.0"

# the metrics and the generator load on first use (PEP 562), so the CLI's
# clustering job does not import them
_LAZY = {
    "anomaly_prf": "metrics", "ari": "metrics", "nmi": "metrics",
    "SynthConfig": "synthgen", "generate": "synthgen",
    "generate_backprojection_demo": "synthgen",
    "generate_degradation_pair": "synthgen",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "AnomalyDecisions",
    "ClusterParams", "ClusteringResult", "CollinearError", "ConfigError",
    "DegenerateError", "DelaunayClusterer", "Embedding", "EmptyError",
    "IoError", "LengthMismatchError", "NonFiniteError", "NumericalError",
    "ParseError", "PruneResult", "Representatives", "RunTrace",
    "ShapeMismatchError",
    "SynthConfig", "TooFewPointsError", "TriangleSizes", "Triangulation",
    "TriclusterError", "anomaly_prf", "ari", "compute_representatives",
    "connected_components", "detect_anomaly_groups", "fit_predict",
    "generate", "generate_backprojection_demo", "generate_degradation_pair",
    "import_embedding", "load_labels", "load_matrix", "merge_clusters", "nmi",
    "pca2", "prune", "prune_threshold", "robust_z", "save_labels",
    "save_matrix", "score_and_merge", "sigma_rule", "triangle_sizes",
    "triangulate",
]
