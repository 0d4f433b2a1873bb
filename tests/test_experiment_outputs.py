"""The experiment commands' outputs, pinned byte for byte.

``ablate``, ``sweep`` and ``demo --which backprojection`` cluster on an
imported embedding, so no BLAS or LAPACK call touches their numbers and
their pins hold on any build. ``bench`` and ``demo --which degradation``
project with PCA and are pinned where LAPACK rounds as in
``test_projection``'s pins. Only outputs that hold no path are pinned.
"""

import hashlib
import json

import numpy as np
import pytest

from tricluster import SynthConfig, generate, save_labels, save_matrix
from tricluster.cli import main

from test_projection import skip_unless_lapack_as_pinned


def digest(data):
    return hashlib.sha256(data).hexdigest()


def run(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out.encode("utf-8")


@pytest.fixture
def job(tmp_path, monkeypatch):
    """The input flags of a 300 x 6 synthgen set whose imported
    embedding is its first two columns, run from ``tmp_path``."""
    monkeypatch.chdir(tmp_path)
    data, truth = generate(SynthConfig(
        n_points=300, n_clusters=3, n_dim=6, overlap=0.08,
        anomaly_fraction=0.05, random_state=11))
    save_matrix(data, "d.csv")
    save_matrix(np.ascontiguousarray(data[:, :2]), "e.csv")
    save_labels(truth, "t.labels")
    return ["--input", "d.csv", "--embedding", "e.csv", "--prune", "1.0"]


ABLATION_LABELS = {
    "full": "0237e4e20e7c2ab3b7a3b91b934e9b9e4573f2d0f90ea310b498562e9ac6a801",
    "merge_off":
        "0237e4e20e7c2ab3b7a3b91b934e9b9e4573f2d0f90ea310b498562e9ac6a801",
    "proj_off":
        "2124fd4ba7d9b132e0b09c90a558bf69706b1f7b7ae71e5233ae057b0f745ade",
    "anom_merged":
        "e0fd804a565b0b54477f944a3c2f04a5f76cd1259deea67b834f5605ad0af5a7",
}


@pytest.mark.parametrize("truth, stdout", [
    (True,
     "490be0ec6910188ca88f9b8bda1d215911c4e015294fa30b09492d90b7ca920a"),
    (False,
     "5e14ea39d231d53eef48e7ee0e664b4292b86429d16c8e1420717e72379442f8"),
])
def test_ablate_outputs_pinned(capsys, tmp_path, job, truth, stdout):
    flags = ["--truth", "t.labels"] if truth else []
    out = run(capsys, "ablate", *job, *flags, "--out-prefix", "abl")
    assert digest(out) == stdout
    for name, want in ABLATION_LABELS.items():
        assert digest((tmp_path / f"abl.{name}.labels").read_bytes()) == want


@pytest.mark.parametrize("flags, stdout, table", [
    (["--probes", "3", "--seed", "4"],
     "e88755a2e3d069e91672a3c6a8b37b52b79c20f79a4d1fd1f0e47c63029480bc",
     "48b3f7205e218bf1a0a337d2d52c2d7f5627dccc518c39238949327cb261f1ff"),
    (["--prune-grid", "0.8,1.2", "--merge-grid=-0.8,-1.5"],
     "899cd73082f92a1e67ed296dc6ced6b458c652a4e8c8f6e7760b662901105509",
     "eaa7766a004e70b00bc59257c5fc364ee43a571e0d479af1b5fabbe82a336abb"),
])
def test_sweep_outputs_pinned(capsys, tmp_path, job, flags, stdout, table):
    out = run(capsys, "sweep", *job, "--truth", "t.labels", *flags,
              "--trace", "trace.csv")
    assert digest(out) == stdout
    assert digest((tmp_path / "trace.csv").read_bytes()) == table


@pytest.mark.parametrize("which, stdout, table", [
    ("backprojection",
     "9e5a538acdf200a09c2ed824fe86d2a4d8aa460926a2857708bda7f5570f33b5",
     "e6c39b68c75418005075c57f269af385b2b44582024ace516804e031147b92f9"),
    ("degradation",
     "6858b6951d87b663f008d60aae7bee3b3f9daa30651f7f05704894f3d26a316f",
     "1a2da602806dc7f8b44e3d86903e4161be5eb239755d8a2b2e760550ee38ed67"),
])
def test_demo_outputs_pinned(capsys, tmp_path, monkeypatch, which, stdout,
                             table):
    if which == "degradation":
        skip_unless_lapack_as_pinned()
    monkeypatch.chdir(tmp_path)
    out = run(capsys, "demo", "--which", which, "--seeds", "2",
              "--out", "demo.json")
    assert digest(out) == stdout
    assert digest((tmp_path / "demo.json").read_bytes()) == table


def test_default_bench_report_pinned(capsys, tmp_path, monkeypatch):
    skip_unless_lapack_as_pinned()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "suite.json").write_text(json.dumps([
        {"name": "small", "generator": {"n_points": 200, "n_clusters": 3,
                                        "n_dim": 6},
         "params": {"prune_param": 1.0}},
        {"name": "tail", "generator": {"n_points": 250, "n_clusters": 4,
                                       "n_dim": 30, "anomaly_fraction": 0.05},
         "repeats": 2}]))
    run(capsys, "bench", "--suite", "suite.json", "--out", "report.csv")
    assert digest((tmp_path / "report.csv").read_bytes()) == (
        "2ec54328994684c67e17d24cf26e9537425cdbea23e5d7c8459d18698f57fe20")
