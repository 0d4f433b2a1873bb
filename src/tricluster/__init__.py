"""Triangulation-based clustering with back-projected edge pruning.

Points are projected to 2-D, Delaunay-triangulated, and the triangles are
sized in the original high-dimensional space; robust sigma pruning of
oversized triangles yields clusters, which are then conservatively merged
and screened for anomalies.
"""

from .anomaly import detect_anomaly_groups, score_and_merge
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
from .metrics import anomaly_prf, ari, nmi
from .pipeline import (
    ClusteringResult,
    ClusterParams,
    DelaunayClusterer,
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
from .synthgen import (
    SynthConfig,
    generate,
    generate_backprojection_demo,
    generate_degradation_pair,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterParams", "ClusteringResult", "CollinearError", "ConfigError",
    "DegenerateError", "DelaunayClusterer", "Embedding", "EmptyError",
    "IoError", "LengthMismatchError", "NonFiniteError", "NumericalError",
    "ParseError", "PruneResult", "Representatives", "ShapeMismatchError",
    "SynthConfig", "TooFewPointsError", "TriangleSizes", "Triangulation",
    "TriclusterError", "anomaly_prf", "ari", "compute_representatives",
    "connected_components", "detect_anomaly_groups", "fit_predict",
    "generate", "generate_backprojection_demo", "generate_degradation_pair",
    "import_embedding", "load_labels", "load_matrix", "merge_clusters", "nmi",
    "pca2", "prune", "prune_threshold", "robust_z", "save_labels",
    "save_matrix", "score_and_merge", "sigma_rule", "triangle_sizes",
    "triangulate",
]
