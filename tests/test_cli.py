import csv
import ctypes
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tricluster
from tricluster import (
    ClusterParams,
    DelaunayClusterer,
    fit_predict,
    load_labels,
    load_matrix,
    save_labels,
    save_matrix,
)
from tricluster import bench as bench_mod
from tricluster import cli, synthgen
from tricluster.cli import _params_from_args, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_cluster_eval_roundtrip(tmp_path, capsys):
    data = str(tmp_path / "toy.csv")
    truth = str(tmp_path / "toy.labels")
    pred = str(tmp_path / "pred.labels")

    code, out, _ = run_cli(capsys, "gen", "--n", "150", "--clusters", "3",
                           "--dim", "2", "--overlap", "0.03",
                           "--anomaly-frac", "0", "--snake-frac", "0",
                           "--seed", "5", "--out", data, "--truth", truth)
    assert code == 0
    assert json.loads(out)["n_points"] == 150

    code, out, _ = run_cli(capsys, "cluster", "--input", data,
                           "--prune", "1.0", "--merge", "-1.9",
                           "--sensitivity", "1.0", "--out", pred)
    assert code == 0
    assert json.loads(out)["out"] == pred

    code, out, _ = run_cli(capsys, "eval", "--true", truth, "--pred", pred)
    assert code == 0
    scores = json.loads(out)
    assert scores["ari"] == 1.0
    assert scores["nmi"] == 1.0


def test_cluster_missing_input_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["cluster", "--out", "x.labels"])
    assert exc_info.value.code == 1


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["eval", "--true", "a", "--pred", "b", "--bogus"])
    assert exc_info.value.code == 1


def test_unknown_subcommand_rejected(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 1


SUBCOMMANDS = ("gen", "cluster", "eval", "bench", "scaling", "ablate", "demo",
               "sweep")
# the top-level usage line, at argparse's default width of 80 columns
USAGE = "usage: tricluster [-h] {" + ",".join(SUBCOMMANDS) + "} ...\n"


def test_help_names_every_subcommand(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc_info:
        main(["--help"])
    assert exc_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(USAGE)
    listed = [line.split()[0] for line in out.splitlines()
              if line.startswith("    ")]
    assert listed == list(SUBCOMMANDS)


def test_unknown_subcommand_usage_lists_the_choices(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(USAGE)
    # Python versions differ in whether the choices are quoted
    choices = err.split("invalid choice: 'frobnicate' (choose from ", 1)[1]
    assert re.findall(r"[a-z]+", choices) == list(SUBCOMMANDS)


def test_cluster_help_lists_the_job_flags(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["cluster", "--help"])
    assert exc_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: tricluster cluster ")
    for flag in ("--prune", "--merge", "--sensitivity", "--tau"):
        assert re.search(rf"^  {flag}\b", out, re.MULTILINE), flag


def test_stray_argument_after_a_subcommand_shows_the_full_usage(
        capsys, monkeypatch):
    # the subcommand's parser leaves "extra" to the top-level parser,
    # whose usage line names every subcommand
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc_info:
        main(["eval", "--true", "a", "--pred", "b", "extra"])
    assert exc_info.value.code == 1
    assert capsys.readouterr().err == (
        USAGE + "tricluster: error: unrecognized arguments: extra\n")


def test_eval_length_mismatch_is_data_error(tmp_path, capsys):
    a = tmp_path / "a.labels"
    b = tmp_path / "b.labels"
    save_labels([0, 1, 2], a)
    save_labels([0, 1], b)
    code, _, err = run_cli(capsys, "eval", "--true", str(a), "--pred", str(b))
    assert code == 2
    assert "tricluster:" in err


def test_eval_exclude_true_anomalies(tmp_path, capsys):
    a = tmp_path / "a.labels"
    b = tmp_path / "b.labels"
    save_labels([0, 0, 1, 1, -1, -1], a)
    save_labels([0, 0, 1, 1, 0, 1], b)  # anomalies mislabeled as clusters
    code, out, _ = run_cli(capsys, "eval", "--true", str(a),
                           "--pred", str(b), "--exclude-true-anomalies")
    scores = json.loads(out)
    assert scores["ari"] == 1.0   # agreement is perfect on non-anomaly rows
    assert scores["recall"] == 0.0  # but the anomaly class is still missed


def test_eval_excluding_every_row_is_data_error(tmp_path, capsys):
    # every true label is -1, so no row is left to score
    a = tmp_path / "a.labels"
    b = tmp_path / "b.labels"
    save_labels([-1, -1, -1], a)
    save_labels([0, -1, 1], b)
    code, out, err = run_cli(capsys, "eval", "--true", str(a),
                             "--pred", str(b), "--exclude-true-anomalies")
    assert code == 2
    assert out == ""
    assert err.startswith("tricluster:") and err.count("\n") == 1


def test_eval_missing_file_is_data_error(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "eval", "--true", str(tmp_path / "no.l"),
                         "--pred", str(tmp_path / "no2.l"))
    assert code == 2


def test_cluster_with_imported_embedding(tmp_path, capsys):
    rng = np.random.default_rng(0)
    data = np.vstack([rng.normal(0, 0.5, (20, 4)),
                      rng.normal(0, 0.5, (20, 4)) + 20])
    emb = np.vstack([rng.normal(0, 0.5, (20, 2)),
                     rng.normal(0, 0.5, (20, 2)) + 20])
    dpath = tmp_path / "d.csv"
    epath = tmp_path / "e.csv"
    save_matrix(data, dpath)
    save_matrix(emb, epath)
    pred = tmp_path / "p.labels"
    code, out, err = run_cli(capsys, "cluster", "--input", str(dpath),
                             "--embedding", str(epath), "--prune", "1.0",
                             "--sensitivity", "1.0", "--out", str(pred))
    assert code == 0
    labels = load_labels(pred)
    assert len(set(labels[:20].tolist())) == 1
    assert labels[0] != labels[20]
    assert "PCA" not in err  # the PCA note only appears without --embedding


def test_cluster_svg_and_diag(tmp_path, capsys):
    data = str(tmp_path / "toy.csv")
    run_cli(capsys, "gen", "--n", "80", "--clusters", "2", "--dim", "3",
            "--overlap", "0.05", "--anomaly-frac", "0.05", "--seed", "2",
            "--out", data)
    svg = tmp_path / "plot.svg"
    diag = tmp_path / "diag"
    code, _, _ = run_cli(capsys, "cluster", "--input", data, "--prune", "1.0",
                         "--out", str(tmp_path / "p.labels"),
                         "--svg", str(svg), "--diag", str(diag))
    assert code == 0
    assert svg.read_text().startswith("<svg")
    for name in ("triangles.csv", "pruning.csv", "anomaly.csv"):
        assert (diag / name).exists()
    header = (diag / "pruning.csv").read_text().splitlines()[0]
    assert header == "i,j,k,s,s_proj,z,z_proj,kept"


def test_diag_tables_match_csv_writer(tmp_path, capsys):
    # oracle: the csv.writer rows np.savetxt replaced. At the default
    # parameters this input has a merged group, unmerged groups and
    # groups with no cluster neighbour
    data = tmp_path / "d.csv"
    save_matrix(np.random.default_rng(4).standard_normal((200, 5)), data)
    diag = tmp_path / "diag"
    code, _, _ = run_cli(capsys, "cluster", "--input", str(data),
                         "--out", str(tmp_path / "p.labels"),
                         "--diag", str(diag))
    assert code == 0
    result = fit_predict(load_matrix(data))
    tri, sizes, pres = result.triangulation, result.sizes, result.prune_result
    groups = result.anomaly
    assert set(groups.merged.tolist()) == {True, False}
    assert np.isnan(groups.best_score).any()
    tables = {
        "triangles.csv": [["i", "j", "k"]]
        + [[int(v) for v in row] for row in tri.triangles],
        "pruning.csv": [["i", "j", "k", "s", "s_proj", "z", "z_proj", "kept"]]
        + [[*(int(v) for v in tri.triangles[t]),
            f"{sizes.sizes[t]:.17g}", f"{sizes.sizes_proj[t]:.17g}",
            f"{pres.z[t]:.17g}", f"{pres.z_proj[t]:.17g}",
            int(pres.keep_mask[t])] for t in range(len(tri.triangles))],
        "anomaly.csv": [["group_id", "points", "best_cluster", "best_score",
                         "delta", "merged"]]
        + [[i, ";".join(map(str, np.flatnonzero(groups.group_of == i))),
            int(groups.best_cluster[i]), f"{groups.best_score[i]:.17g}",
            f"{groups.delta:.17g}", int(groups.merged[i])]
           for i in range(len(groups.merged))],
    }
    for name, rows in tables.items():
        want = io.StringIO()
        csv.writer(want).writerows(rows)
        assert (diag / name).read_bytes() == want.getvalue().encode("utf-8")


def test_failed_cluster_leaves_no_labels_file(tmp_path, capsys):
    data = tmp_path / "d.csv"
    save_matrix(np.random.default_rng(5).standard_normal((60, 3)), data)
    labels = tmp_path / "p.labels"
    # an existing directory passes the up-front check; opening it fails
    code, stdout, err = run_cli(capsys, "cluster", "--input", str(data),
                                "--out", str(labels), "--svg", str(tmp_path))
    assert code == 2
    assert stdout == ""
    errors = [line for line in err.splitlines()
              if line.startswith("tricluster:")]
    assert len(errors) == 1 and "Traceback" not in err
    assert not labels.exists()


def test_bench_suite(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([{
        "name": "tiny",
        "generator": {"n_points": 120, "n_clusters": 3, "n_dim": 3,
                      "overlap": 0.08, "anomaly_fraction": 0.05},
        "params": {"prune_param": 1.0, "anomaly_sensitivity": 0.99},
        "repeats": 2,
    }]))
    out = tmp_path / "report.csv"
    code, stdout, _ = run_cli(capsys, "bench", "--suite", str(suite),
                              "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["rows"] == 2
    assert out.read_text().splitlines()[0].startswith("name,seed,n,d,")


def test_bench_suite_svg_dir(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([{
        "name": "tiny",
        "generator": {"n_points": 120, "n_clusters": 3, "n_dim": 3},
        "repeats": 2,
    }]))
    svg_dir = tmp_path / "plots"
    code, _, _ = run_cli(capsys, "bench", "--suite", str(suite),
                         "--out", str(tmp_path / "report.csv"),
                         "--svg-dir", str(svg_dir))
    assert code == 0
    assert sorted(os.listdir(svg_dir)) == ["tiny_0.svg", "tiny_1.svg"]
    for name in os.listdir(svg_dir):
        assert (svg_dir / name).read_text().startswith("<svg")


def test_bench_failed_run_is_reported_once(tmp_path, capsys):
    # one dimension projects onto a line: the run fails, the suite goes on
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([{
        "name": "flat",
        "generator": {"n_points": 60, "n_clusters": 2, "n_dim": 1}}]))
    code, stdout, err = run_cli(capsys, "bench", "--suite", str(suite),
                                "--out", str(tmp_path / "report.csv"))
    assert code == 0
    assert json.loads(stdout)["errors"] == 1
    assert len(err.splitlines()) == 1 and "collinear" in err


def test_bench_suite_unknown_param_is_config_error(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([{
        "name": "old",
        "generator": {"n_points": 120, "n_clusters": 3, "n_dim": 3},
        "params": {"prune_param": 1.0, "dim_reduction": "pca"},
    }]))
    out = tmp_path / "report.csv"
    code, stdout, err = run_cli(capsys, "bench", "--suite", str(suite),
                                "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert "dim_reduction" in err and "'old'" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_bench_suite_not_json_is_config_error(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text("name,generator\n")
    out = tmp_path / "report.csv"
    code, stdout, err = run_cli(capsys, "bench", "--suite", str(suite),
                                "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert "not JSON" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("entry, word", [
    ({"generator": {}, "params": {"tau": 2}}, "'name'"),
    ({"name": "x", "params": 5}, "'params'"),
    ({"name": "x", "repeats": "2"}, "'repeats'"),
    ({"name": "x", "generator": {"bogus": 1}}, "bogus"),
    ({"name": "x", "generator": {"n_points": 60}, "params": {"tau": "two"}},
     "suite entry 'x'"),
    ({"name": "t", "params": {"tau": "two"}}, "suite entry 't': tau"),
    ({"name": "x", "generator": {"n_points": 0}}, "suite entry 'x': n_points"),
    ({"name": "y", "generator": {"n_points": 60},
      "params": {"prune_param": "abc"}}, "suite entry 'y': prune_param"),
    ({"name": "t", "params": {"tau": 2.5}}, "suite entry 't': tau"),
    ({"name": "t", "params": {"tau": True}}, "suite entry 't': tau"),
    ({"name": "t", "params": {"back_projection": "false"}},
     "suite entry 't': back_projection"),
    ({"name": "t", "params": {"merging_enabled": 0}},
     "suite entry 't': merging_enabled"),
    ({"name": "t", "params": {"prune_param": True}},
     "suite entry 't': prune_param"),
    ({"name": "x", "repeats": True}, "'repeats'"),
    ({"name": "x", "repeats": -1}, "'repeats'"),
])
def test_bench_malformed_suite_entry_is_config_error(tmp_path, capsys,
                                                     entry, word):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([entry]))
    out = tmp_path / "report.csv"
    code, stdout, err = run_cli(capsys, "bench", "--suite", str(suite),
                                "--out", str(out))
    assert code == 2
    assert stdout == ""
    errors = [line for line in err.splitlines()
              if line.startswith("tricluster:")]
    assert len(errors) == 1 and word in errors[0]
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, word", [
    (["cluster", "--tau", "0", "--out", "p.labels"], "tau"),
    (["cluster", "--sensitivity", "1.5", "--out", "p.labels"],
     "anomaly_sensitivity"),
    (["ablate", "--variants", "bogus"], "bogus"),
    (["cluster", "--prune", "nan", "--out", "p.labels"], "prune_param"),
    (["cluster", "--merge", "nan", "--out", "p.labels"], "merge_param"),
])
def test_bad_param_value_is_config_error(tmp_path, capsys, monkeypatch,
                                         argv, word):
    monkeypatch.chdir(tmp_path)
    save_matrix(np.random.default_rng(6).standard_normal((30, 3)), "d.csv")
    code, stdout, err = run_cli(capsys, *argv, "--input", "d.csv")
    assert code == 2
    assert stdout == ""
    errors = [line for line in err.splitlines()
              if line.startswith("tricluster:")]
    assert len(errors) == 1 and word in errors[0]
    assert "Traceback" not in err
    assert not any(name.endswith(".labels") for name in os.listdir())


def test_bad_comma_list_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["scaling", "--n-list", "a",
              "--out", str(tmp_path / "s.json")])
    assert exc_info.value.code == 1
    err = capsys.readouterr().err
    assert "--n-list" in err and "Traceback" not in err


def test_bench_missing_suite_file_is_io_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    out = tmp_path / "report.csv"
    code, stdout, err = run_cli(capsys, "bench", "--suite", str(missing),
                                "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert "cannot read" in err and "Traceback" not in err
    assert not out.exists()


def test_bench_needs_suite_and_takes_no_scaling_flags(tmp_path, capsys):
    out = str(tmp_path / "report.csv")
    suite = ["bench", "--suite", "s.json", "--out", out]
    for argv, named in ((["bench", "--out", out], "--suite"),
                        (suite + ["--scaling"], "--scaling"),
                        (suite + ["--n-list", "60"], "--n-list"),
                        (["scaling", "--svg-dir", "plots", "--out", out],
                         "--svg-dir")):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 1
        assert named in capsys.readouterr().err


def test_ablate(tmp_path, capsys):
    data = str(tmp_path / "toy.csv")
    truth = str(tmp_path / "toy.labels")
    run_cli(capsys, "gen", "--n", "120", "--clusters", "3", "--dim", "4",
            "--overlap", "0.05", "--anomaly-frac", "0.05", "--seed", "3",
            "--out", data, "--truth", truth)
    prefix = str(tmp_path / "abl")
    code, out, _ = run_cli(capsys, "ablate", "--input", data,
                           "--truth", truth, "--prune", "1.0",
                           "--out-prefix", prefix)
    assert code == 0
    summary = json.loads(out)
    assert set(summary) == {"full", "merge_off", "proj_off", "anom_merged"}
    for variant in summary:
        assert os.path.exists(f"{prefix}.{variant}.labels")


def test_demo_backprojection(tmp_path, capsys):
    out = tmp_path / "demo.json"
    code, stdout, _ = run_cli(capsys, "demo", "--which", "backprojection",
                              "--seeds", "2", "--out", str(out))
    assert code == 0
    rows = json.loads(stdout)["rows"]
    assert len(rows) == 2
    assert json.load(open(out)) == rows


@pytest.mark.parametrize("which, seeds", [
    ("degradation", "0"), ("backprojection", "0"), ("backprojection", "-2"),
])
def test_demo_without_seeds_is_config_error(tmp_path, capsys, which, seeds):
    out = tmp_path / "demo.json"
    code, stdout, err = run_cli(capsys, "demo", "--which", which,
                                "--seeds", seeds, "--out", str(out))
    assert code == 2
    assert stdout == ""
    errors = [line for line in err.splitlines()
              if line.startswith("tricluster:")]
    assert len(errors) == 1 and "seeds" in errors[0]
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag", [
    "cluster --out", "cluster --svg", "cluster --diag", "ablate --out-prefix",
    "gen --out", "gen --truth", "demo --out", "sweep --trace",
    "bench --out", "bench --svg-dir", "scaling --out",
])
def test_unwritable_output_path_is_io_error(tmp_path, capsys, monkeypatch,
                                            flag):
    data = str(tmp_path / "toy.csv")
    truth = str(tmp_path / "toy.labels")
    run_cli(capsys, "gen", "--n", "60", "--clusters", "2", "--dim", "2",
            "--seed", "1", "--out", data, "--truth", truth)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([{
        "name": "tiny",
        "generator": {"n_points": 60, "n_clusters": 2, "n_dim": 2}}]))
    # a path below a regular file: not even makedirs can create it
    bad = str(tmp_path / "toy.csv" / "out")
    labels = str(tmp_path / "p.labels")
    argv = {
        "cluster --out": ["cluster", "--input", data, "--out", bad],
        "cluster --svg": ["cluster", "--input", data, "--out", labels,
                          "--svg", bad],
        "cluster --diag": ["cluster", "--input", data, "--out", labels,
                           "--diag", bad],
        "ablate --out-prefix": ["ablate", "--input", data,
                                "--out-prefix", bad],
        "gen --out": ["gen", "--n", "60", "--clusters", "2", "--dim", "2",
                      "--out", bad],
        "gen --truth": ["gen", "--n", "60", "--clusters", "2", "--dim", "2",
                        "--out", str(tmp_path / "g.csv"), "--truth", bad],
        "demo --out": ["demo", "--which", "backprojection", "--seeds", "1",
                       "--out", bad],
        "sweep --trace": ["sweep", "--input", data, "--truth", truth,
                          "--prune-grid", "1.0", "--merge-grid", "-1.9",
                          "--trace", bad],
        "bench --out": ["bench", "--suite", str(suite), "--out", bad],
        "bench --svg-dir": ["bench", "--suite", str(suite),
                            "--out", str(tmp_path / "r.csv"),
                            "--svg-dir", bad],
        "scaling --out": ["scaling", "--n-list", "60", "--d-list", "2",
                          "--out", bad],
    }[flag]

    # the path is checked before any work
    def work(*args, **kwargs):
        raise AssertionError(f"{flag}: work ran before the output check")
    for module, name in ((cli, "fit_predict"), (synthgen, "generate"),
                         (bench_mod, "backprojection_demo"),
                         (bench_mod, "degradation_sweep"),
                         (bench_mod, "grid_sweep"),
                         (bench_mod, "run_ablations"),
                         (bench_mod, "run_suite"),
                         (bench_mod, "runtime_scaling")):
        monkeypatch.setattr(module, name, work)
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    errors = [line for line in err.splitlines()
              if line.startswith("tricluster:")]
    assert len(errors) == 1 and bad in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["cluster", "eval"])
def test_non_utf8_text_input_is_parse_error(tmp_path, capsys, command):
    binary = str(tmp_path / "m.bin")
    save_matrix(np.ones((4, 2)), binary, fmt="binary")
    labels = str(tmp_path / "l.labels")
    save_labels([0, 0, 1, 1], labels)
    argv = {
        "cluster": ["cluster", "--format", "csv", "--input", binary,
                    "--out", labels],
        "eval": ["eval", "--true", binary, "--pred", labels],
    }[command]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    errors = [line for line in err.splitlines()
              if line.startswith("tricluster:")]
    assert len(errors) == 1 and binary in errors[0]
    assert "not UTF-8 text" in errors[0]
    assert "Traceback" not in err


def test_removed_param_flags_are_usage_errors(tmp_path, capsys):
    for flag in (["--size-mode", "max_edge"], ["--standardize"]):
        with pytest.raises(SystemExit) as exc_info:
            main(["cluster", "--input", "x.csv", "--out", "y.labels", *flag])
        assert exc_info.value.code == 1
        assert flag[0] in capsys.readouterr().err


def test_sweep(tmp_path, capsys):
    data = str(tmp_path / "toy.csv")
    truth = str(tmp_path / "toy.labels")
    run_cli(capsys, "gen", "--n", "150", "--clusters", "3", "--dim", "2",
            "--overlap", "0.03", "--anomaly-frac", "0", "--snake-frac", "0",
            "--seed", "5", "--out", data, "--truth", truth)
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "sweep", "--input", data, "--truth", truth,
                           "--prune-grid", "0.8,1.0", "--merge-grid", "-1.9",
                           "--sensitivity", "1.0", "--trace", str(trace))
    assert code == 0
    best = json.loads(out)
    assert best["ari"] == 1.0
    assert trace.exists()


def test_stdout_is_json_only(tmp_path, capsys):
    data = str(tmp_path / "toy.csv")
    code, out, err = run_cli(capsys, "gen", "--n", "50", "--clusters", "2",
                             "--dim", "2", "--seed", "1", "--out", data)
    assert code == 0
    json.loads(out)  # every stdout line must parse as JSON
    assert out.count("\n") == 1


def test_cluster_defaults_are_cluster_params_defaults():
    for argv in (["cluster", "--input", "x.csv", "--out", "y.labels"],
                 ["ablate", "--input", "x.csv"],
                 ["sweep", "--input", "x.csv", "--truth", "t.labels"]):
        args = build_parser().parse_args(argv)
        assert _params_from_args(args) == ClusterParams()
    assert DelaunayClusterer().params == ClusterParams()


def test_huge_scale_is_data_error(tmp_path, capsys):
    # the column sums of data near the float64 limit overflow in the
    # centring; data at 1e300 alone is scaled by a power of two and clusters
    data = np.random.default_rng(3).standard_normal((40, 3)) * 1e300
    data[:4] = 1.7e308
    path = tmp_path / "huge.csv"
    save_matrix(data, path)
    code, out, err = run_cli(capsys, "cluster", "--input", str(path),
                             "--out", str(tmp_path / "p.labels"))
    assert code == 2
    assert out == ""
    assert "[project]" in err and "overflows" in err


def _run_python(script, cwd):
    """Run ``script`` in a fresh interpreter that imports this package."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(tricluster.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, cwd=cwd, env=env, check=False)


def test_cli_job_loads_no_scipy(tmp_path):
    # importing scipy.spatial costs a CLI process tens of MB of peak RSS
    # and a large share of its start-up time
    data = tmp_path / "toy.csv"
    save_matrix(np.random.default_rng(5).standard_normal((60, 3)), data)
    script = (
        "import sys\n"
        "import tricluster.cli as cli\n"
        f"rc = cli.main(['cluster', '--input', {str(data)!r}, '--prune', '1.0',"
        f" '--out', {str(tmp_path / 'p.labels')!r}])\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(rc, loaded)\n"
    )
    proc = _run_python(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def _glibc_64bit():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION")) and sys.maxsize > 2**32
    except (AttributeError, ValueError, OSError):
        return False


glibc_64bit = pytest.mark.skipif(not _glibc_64bit(),
                                 reason="the settings are glibc's, on 64-bit")


def _lattice_job(tmp_path, side=60):
    """argv of a cluster job on a side x side lattice, imported as the
    embedding of the lattice plus three noise columns."""
    axis = np.arange(side, dtype=np.float64)
    emb = np.column_stack([np.repeat(axis, side), np.tile(axis, side)])
    noise = np.random.default_rng(0).normal(size=(len(emb), 3))
    save_matrix(np.hstack([emb, noise]), tmp_path / "d.bin", fmt="binary")
    save_matrix(emb, tmp_path / "e.bin", fmt="binary")
    return ["cluster", "--input", str(tmp_path / "d.bin"),
            "--format", "binary", "--embedding", str(tmp_path / "e.bin"),
            "--embedding-format", "binary",
            "--out", str(tmp_path / "p.labels")]


@glibc_64bit
def test_allocator_settings_are_accepted():
    mallopt = ctypes.CDLL(None).mallopt
    # mallopt refuses a value by returning 0, and changes nothing:
    # M_MXFAST (1) takes at most 160 bytes on 64-bit
    assert mallopt(1, 1 << 20) == 0
    assert [mallopt(p, v) for p, v in cli._MALLOC_SETTINGS] == [1, 1, 1]


@glibc_64bit
def test_cli_jobs_reuse_freed_memory(tmp_path):
    # with glibc's defaults the Delaunay rounds' freed temporaries are
    # unmapped and faulted in again: the third job took 1 368 minor
    # faults, and 14 with the CLI's settings
    script = (
        "import resource, sys\n"
        "import tricluster.cli as cli\n"
        f"argv = {_lattice_job(tmp_path)!r}\n"
        "for _ in range(3):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    assert cli.main(argv) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    proc = _run_python(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.splitlines()[-1]) < 200


def test_only_the_cli_sets_the_allocator(tmp_path, capsys, monkeypatch):
    calls = []
    libc = SimpleNamespace(mallopt=lambda *call: calls.append(call) or 1)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    argv = _lattice_job(tmp_path, side=12)
    fit_predict(load_matrix(argv[2], fmt="binary"),
                external_embedding=load_matrix(argv[6], fmt="binary"))
    assert calls == []
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls == list(cli._MALLOC_SETTINGS)


def test_cli_runs_where_the_c_library_has_no_mallopt(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace())
    argv = _lattice_job(tmp_path, side=12)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["n_clusters"] >= 1
    assert len(load_labels(argv[-1])) == 144
