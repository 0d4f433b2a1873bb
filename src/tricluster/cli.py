"""Command-line surface.

Subcommands: gen, cluster, eval, bench, scaling, ablate, demo, sweep. stdout
carries machine-readable JSON only; human-oriented notes go to stderr.
Exit codes: 0 success, 1 usage error, 2 data error. All subcommands are
deterministic under fixed seeds.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys

import numpy as np

from . import io
from .errors import ConfigError, IoError, TriclusterError
from .pipeline import PARAM_DEFAULTS, ClusterParams, fit_predict
from .projection import import_embedding
from .pruning import group_by_label

# bench, metrics, svg, synthgen and csv are imported by the commands that
# use them, so `tricluster cluster` does not load them

# glibc's mallopt parameters (malloc.h) and the values the CLI sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_MALLOC_SETTINGS = (
    (_M_MMAP_THRESHOLD, 32 << 20),
    (_M_TRIM_THRESHOLD, 64 << 20),
    (_M_ARENA_MAX, 1),
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _emit(obj):
    print(json.dumps(obj, sort_keys=True))


def _comma_list(kind):
    """argparse type for a comma-separated list of ``kind`` values."""
    def parse(text):
        return [kind(v) for v in text.split(",")]
    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def _add_job_flags(p):
    """The input and ClusterParams flags of cluster, ablate and sweep."""
    p.add_argument("--input", required=True)
    p.add_argument("--format", default="csv", choices=("csv", "binary"))
    p.add_argument("--header", action="store_true")
    p.add_argument("--embedding", default=None,
                   help="import a 2-column embedding instead of PCA")
    p.add_argument("--embedding-format", default="csv",
                   choices=("csv", "binary"))
    # every dest below is a ClusterParams field name
    d = PARAM_DEFAULTS
    p.add_argument("--prune", dest="prune_param", type=float,
                   default=d["prune_param"],
                   help=f"pruning factor sigma_f (default {d['prune_param']})")
    p.add_argument("--merge", dest="merge_param", type=float,
                   default=d["merge_param"],
                   help=f"merge factor lambda (default {d['merge_param']})")
    p.add_argument("--sensitivity", dest="anomaly_sensitivity", type=float,
                   default=d["anomaly_sensitivity"],
                   help="anomaly sensitivity in [0,1] "
                        f"(default {d['anomaly_sensitivity']})")
    p.add_argument("--tau", type=int, default=d["tau"],
                   help="max cluster size treated as an anomaly group")
    p.add_argument("--no-merge", dest="merging_enabled", action="store_false",
                   default=d["merging_enabled"],
                   help="disable the cluster-merge stage")
    p.add_argument("--proj-off", dest="back_projection",
                   action="store_false", default=d["back_projection"],
                   help="disable back-projection (embedding-only sizes)")


def _params_from_args(args) -> ClusterParams:
    return ClusterParams(**{k: getattr(args, k) for k in PARAM_DEFAULTS})


def _check_outputs(files=(), dirs=()):
    """Fail before any work when an output path cannot be created: a file
    path needs an existing parent directory, and each directory in
    ``dirs`` is created here. None entries are unset options."""
    for path in files:
        if path is not None and not os.path.isdir(
                os.path.dirname(path) or os.curdir):
            raise IoError(f"cannot write {path}: its parent is not "
                          "an existing directory")
    for path in dirs:
        if path is not None:
            os.makedirs(path, exist_ok=True)


def _load_input(args):
    data = io.load_matrix(args.input, fmt=args.format, header=args.header)
    emb = None
    if args.embedding:
        emb = import_embedding(args.embedding, data, fmt=args.embedding_format)
    else:
        print("note: projecting with native PCA; pass --embedding to import "
              "an externally computed 2-D embedding (e.g. UMAP)",
              file=sys.stderr)
    return data, emb


def _write_diag(diag_dir, result):
    import csv

    tri, sizes, pres = result.triangulation, result.sizes, result.prune_result
    dec = result.anomaly
    # csv.writer's dialect: CRLF line ends, header first
    table = dict(delimiter=",", newline="\r\n", comments="")
    with open(os.path.join(diag_dir, "triangles.csv"), "w",
              encoding="utf-8", newline="") as fh:
        np.savetxt(fh, tri.triangles, fmt="%d", header="i,j,k", **table)
    with open(os.path.join(diag_dir, "pruning.csv"), "w",
              encoding="utf-8", newline="") as fh:
        # vertex indices stay exact in float64 up to 2^53
        columns = np.column_stack([
            tri.triangles, sizes.sizes, sizes.sizes_proj,
            pres.z, pres.z_proj, pres.keep_mask])
        np.savetxt(fh, columns, fmt=["%d"] * 3 + ["%.17g"] * 4 + ["%d"],
                   header="i,j,k,s,s_proj,z,z_proj,kept", **table)
    # each group's members, ascending, as one ;-joined cell
    _, members, starts, _ = group_by_label(dec.group_of)
    points = [";".join(map(str, g.tolist()))
              for g in np.split(members, starts[1:])]
    with open(os.path.join(diag_dir, "anomaly.csv"), "w",
              encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["group_id", "points", "best_cluster", "best_score",
                    "delta", "merged"])
        w.writerows(
            [i, p, c, f"{sc:.17g}", f"{dec.delta:.17g}", int(m)]
            for i, (p, c, sc, m) in enumerate(zip(
                points, dec.best_cluster.tolist(), dec.best_score.tolist(),
                dec.merged.tolist())))


def _cmd_gen(args):
    from .synthgen import SynthConfig, generate

    truth_path = args.truth or args.out + ".labels"
    _check_outputs(files=(args.out, truth_path))
    cfg = SynthConfig(
        n_points=args.n, n_clusters=args.clusters, n_dim=args.dim,
        overlap=args.overlap, anomaly_fraction=args.anomaly_frac,
        snake_fraction=args.snake_frac, random_state=args.seed,
    )
    data, truth = generate(cfg)
    io.save_matrix(data, args.out, fmt=args.format)
    io.save_labels(truth, truth_path)
    _emit({"out": args.out, "truth": truth_path,
           "n_points": int(len(data)), "n_dims": int(data.shape[1]),
           "n_anomalies": int((truth == -1).sum())})
    return 0


def _cmd_cluster(args):
    _check_outputs(files=(args.out, args.svg), dirs=(args.diag,))
    data, emb = _load_input(args)
    params = _params_from_args(args)
    # the job owns the loaded matrix and never reads it again
    result = fit_predict(data, params, external_embedding=emb, copy=False)
    if args.svg:
        from .svg import scatter_svg

        scatter_svg(result.embedding.coords, result.labels, args.svg)
    if args.diag:
        _write_diag(args.diag, result)
    # last, so a failed job leaves no labels file
    io.save_labels(result.labels, args.out)
    _emit({"out": args.out, "n_clusters": result.n_clusters,
           "n_anomalies": result.n_anomalies})
    return 0


def _cmd_eval(args):
    from . import metrics

    true_labels = io.load_labels(args.true)
    pred_labels = io.load_labels(args.pred)
    precision, recall, f1 = metrics.anomaly_prf(true_labels, pred_labels)
    pred_clusters = np.unique(pred_labels[pred_labels >= 0])
    n_anomalies = int((pred_labels == -1).sum())
    if args.exclude_true_anomalies:
        mask = true_labels != -1
        true_labels = true_labels[mask]
        pred_labels = pred_labels[mask]
    _emit({
        "ari": metrics.ari(true_labels, pred_labels),
        "nmi": metrics.nmi(true_labels, pred_labels),
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "n_clusters": int(len(pred_clusters)),
        "n_anomalies": n_anomalies,
    })
    return 0


def _cmd_bench(args):
    from . import bench as bench_mod
    from .synthgen import SynthConfig

    _check_outputs(files=(args.out,), dirs=(args.svg_dir,))
    try:
        with open(args.suite, "r", encoding="utf-8") as fh:
            spec_dicts = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {args.suite}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"suite {args.suite} is not JSON: {exc}") from exc
    if not isinstance(spec_dicts, list):
        raise ConfigError(f"suite {args.suite} must be a JSON list of entries")
    specs = []
    for sd in spec_dicts:
        if not isinstance(sd, dict) or "name" not in sd:
            raise ConfigError(f"suite entry {sd!r} is not an object "
                              "with a 'name'")
        params = sd.get("params", {})
        repeats = sd.get("repeats", 1)
        if (not isinstance(params, dict) or isinstance(repeats, bool)
                or not isinstance(repeats, int) or repeats < 0):
            raise ConfigError(f"suite entry {sd['name']!r} needs an object "
                              "'params' and a non-negative integer 'repeats'")
        generator = sd.get("generator", {})
        # check every entry before the first run: a bad one fails the suite
        try:
            SynthConfig(**generator).validate()
            cluster_params = ClusterParams(**params)
            cluster_params.validate()
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"suite entry {sd['name']!r}: {exc}") from exc
        specs.append(bench_mod.BenchSpec(
            name=sd["name"], generator=generator,
            params=cluster_params, repeats=repeats,
        ))
    report = bench_mod.run_suite(specs, svg_dir=args.svg_dir)
    report.write_csv(args.out, include_timings=args.measure_timings)
    for name, seed, msg in report.errors:
        print(f"bench error: {name} seed={seed}: {msg}", file=sys.stderr)
    _emit({"out": args.out, "rows": len(report.rows),
           "errors": len(report.errors)})
    return 0


def _cmd_scaling(args):
    from . import bench as bench_mod

    _check_outputs(files=(args.out,))
    report = bench_mod.runtime_scaling(args.n_list, args.d_list)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
    _emit({"out": args.out, "rows": len(report["rows"])})
    return 0


def _cmd_ablate(args):
    from . import bench as bench_mod

    _check_outputs(files=(args.out_prefix,))
    data, emb = _load_input(args)
    params = _params_from_args(args)
    truth = io.load_labels(args.truth) if args.truth else None
    variants = tuple(v for v in args.variants.split(",") if v)
    runs = bench_mod.run_ablations(data, params, truth=truth,
                                   variants=variants, embedding=emb)
    summary = {}
    for name, entry in runs.items():
        io.save_labels(entry["labels"], f"{args.out_prefix}.{name}.labels")
        summary[name] = {k: v for k, v in entry.items() if k != "labels"}
    _emit(summary)
    return 0


def _cmd_demo(args):
    from . import bench as bench_mod

    _check_outputs(files=(args.out,))
    if args.which == "backprojection":
        rows = bench_mod.backprojection_demo(n_seeds=args.seeds)
    else:
        rows = bench_mod.degradation_sweep(n_seeds=args.seeds)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, sort_keys=True, indent=2)
    _emit({"which": args.which, "rows": rows})
    return 0


def _cmd_sweep(args):
    from . import bench as bench_mod

    _check_outputs(files=(args.trace,))
    data, emb = _load_input(args)
    truth = io.load_labels(args.truth)
    base = _params_from_args(args)
    best, trace = bench_mod.grid_sweep(
        data, truth, prune_values=args.prune_grid,
        merge_values=args.merge_grid, n_probes=args.probes, seed=args.seed,
        params=base, embedding=emb,
    )
    if args.trace:
        import csv

        with open(args.trace, "w", encoding="utf-8", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(trace[0].keys()))
            w.writeheader()
            w.writerows(trace)
    best_row = max(trace, key=lambda r: r["ari"])
    _emit({"prune_param": best.prune_param, "merge_param": best.merge_param,
           "ari": best_row["ari"], "probes": len(trace)})
    return 0


def _gen_flags(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--overlap", type=float, default=0.1)
    p.add_argument("--anomaly-frac", type=float, default=0.05)
    p.add_argument("--snake-frac", type=float, default=0.20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--truth", default=None,
                   help="ground-truth label path (default <out>.labels)")
    p.add_argument("--format", default="csv", choices=("csv", "binary"))


def _cluster_flags(p):
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.add_argument("--diag", default=None,
                   help="directory for diagnostic CSV dumps")
    _add_job_flags(p)


def _eval_flags(p):
    p.add_argument("--true", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--exclude-true-anomalies", action="store_true",
                   help="drop true -1 rows from ARI/NMI "
                        "(anomaly P/R/F1 always use all rows)")


def _bench_flags(p):
    p.add_argument("--suite", required=True, help="suite JSON file")
    p.add_argument("--out", required=True)
    p.add_argument("--svg-dir", default=None)
    p.add_argument("--measure-timings", action="store_true",
                   help="include wall-clock columns in the report "
                        "(makes the file run-dependent)")


def _scaling_flags(p):
    p.add_argument("--n-list", type=_comma_list(int), default="1000,2000")
    p.add_argument("--d-list", type=_comma_list(int), default="5,20")
    p.add_argument("--out", required=True)


def _ablate_flags(p):
    p.add_argument("--truth", default=None)
    p.add_argument("--variants", default="merge_off,proj_off,anom_merged")
    p.add_argument("--out-prefix", default="ablation")
    _add_job_flags(p)


def _demo_flags(p):
    p.add_argument("--which", required=True,
                   choices=("backprojection", "degradation"))
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--out", default=None)


def _sweep_flags(p):
    p.add_argument("--truth", required=True)
    p.add_argument("--probes", type=int, default=0,
                   help="random probes; 0 means exhaustive grid")
    p.add_argument("--prune-grid", type=_comma_list(float), default=None)
    p.add_argument("--merge-grid", type=_comma_list(float), default=None)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random probes")
    p.add_argument("--trace", default=None, help="trace CSV path")
    _add_job_flags(p)


# name: (help, flags, command), in the order the help lists them
_COMMANDS = {
    "gen": ("generate a synthetic benchmark dataset", _gen_flags, _cmd_gen),
    "cluster": ("cluster a point matrix", _cluster_flags, _cmd_cluster),
    "eval": ("score predicted against true labels", _eval_flags, _cmd_eval),
    "bench": ("run a benchmark suite", _bench_flags, _cmd_bench),
    "scaling": ("run the runtime scaling probe", _scaling_flags,
                _cmd_scaling),
    "ablate": ("run ablation variants", _ablate_flags, _cmd_ablate),
    "demo": ("run a built-in experiment", _demo_flags, _cmd_demo),
    "sweep": ("hyperparameter sweep against truth", _sweep_flags,
              _cmd_sweep),
}


def build_parser(command=None) -> _Parser:
    """The CLI's parser; given a ``command``, with that subcommand's
    parser alone. Its usage line still names every subcommand, as the
    top-level parser prints it for an argument the subcommand leaves."""
    parser = _Parser(prog="tricluster",
                     description="triangulation-based clustering toolkit")
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser,
        metavar="{" + ",".join(_COMMANDS) + "}" if command else None)
    for name, (help_text, add_flags, run) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_flags(p)
            p.set_defaults(func=run)
    return parser


def _keep_freed_memory():
    """Have glibc keep the memory a job frees for the job's next
    allocations; a C library without ``mallopt``, as on macOS, is left
    as it is.

    The Delaunay rounds allocate and free a few n-sized temporaries per
    round. Above glibc's sliding mmap threshold each one is mapped on its
    own, unmapped when freed and faulted in again on the next round:
    about 2 500 minor faults in a job on the 80x80 lattice. An mmap
    threshold of 32 MiB, the ceiling of that sliding rule on 64-bit,
    serves them from the heap, and a trim threshold of twice that, as
    the rule would set, keeps the heap's freed top. A trim threshold set
    alone would instead pin the mmap threshold at 128 KiB. One arena
    makes the CSV reader's threads free into the heap that the later
    stages allocate from. Only the CLI calls this: a library caller's
    process keeps its own allocator settings.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _MALLOC_SETTINGS:
        mallopt(param, value)


def main(argv=None) -> int:
    _keep_freed_memory()
    argv = sys.argv[1:] if argv is None else argv
    # a run builds the parser of its own subcommand only; help, a missing
    # or an unknown subcommand get every one
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (TriclusterError, OSError) as exc:
        # an OSError is an IoError on a path a command opens itself
        print(f"tricluster: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
