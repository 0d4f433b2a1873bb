"""The three benchmark workloads: inputs made from a seed, written to files.

Each workload returns the files the program reads, the `tricluster
cluster` argument list that reads them, the ground truth, and the 2-D
embedding the certificate triangulates. The files are written with the
benchmark's own writers, following the formats documented in
`tricluster.io`, so a change to the program's writers cannot change the
inputs.
"""

from __future__ import annotations

import os
import struct

import numpy as np

# Quality-relevant flags shared by every workload.
PARAMS = ["--prune", "1.0", "--merge", "-0.8", "--sensitivity", "0.99",
          "--tau", "3"]

# The synthgen data set of both synthgen workloads; `--seed` permutes its
# rows. The clustering of synthgen data depends on the generator seed
# (on wide_binary, 3 of the seeds 0..29 give an anomaly F1 of 0.41 to
# 0.80 against 0.98 to 0.995 for the rest), so a seeded data set would
# make `ari`, `anomaly_f1` and the per-seed work spread with the seed
# and blunt them as guards against a change in the program's results.
# Row order changes the input file and the labels' order, not the
# mesh, so the work and the quality of a run do not depend on the seed.
GENERATOR_SEED = 7

LATTICE_SIDE = 80
LATTICE_NOISE_DIMS = 6
LATTICE_NOISE_SIGMA = 0.05
LATTICE_ANOMALY_SPACING = 8
LATTICE_ANOMALY_OFFSET = 2.0


def write_binary(values: np.ndarray, path: str) -> None:
    """DTRC v1: magic, u32 version, u64 rows, u64 columns, f64 LE payload."""
    n, d = values.shape
    with open(path, "wb") as fh:
        fh.write(b"DTRC")
        fh.write(struct.pack("<IQQ", 1, n, d))
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def write_csv(values: np.ndarray, path: str) -> None:
    # 17 significant digits round-trip float64 exactly
    np.savetxt(path, values, fmt="%.17g", delimiter=",")


def _synth(seed, n, k, d, overlap, anomaly_fraction):
    from tricluster.synthgen import SynthConfig, generate
    data, truth = generate(SynthConfig(
        n_points=n, n_clusters=k, n_dim=d, overlap=overlap,
        anomaly_fraction=anomaly_fraction, random_state=GENERATOR_SEED,
    ))
    order = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    return data[order], truth[order]


def _pca_embedding(data):
    from tricluster.projection import pca2
    return pca2(data).coords


def blobs_csv(seed: int, workdir: str) -> dict:
    data, truth = _synth(seed, 20_000, 5, 50, 0.08, 0.05)
    path = os.path.join(workdir, "data.csv")
    write_csv(data, path)
    return {
        "argv": ["cluster", "--input", path, "--format", "csv", *PARAMS],
        "truth": truth,
        "embedding": lambda: _pca_embedding(data),
        "lattice": False,
    }


def lattice(seed: int, workdir: str) -> dict:
    """80x80 integer lattice as an imported embedding.

    The original space is the lattice plus seeded noise dimensions. The
    81 points of an 8-spaced sub-grid are pushed 40 sigma away along a
    seeded direction in the noise dimensions: they sit on the lattice in
    2-D, so only back-projection can find them, and they give the quality
    metrics a truth to score. Their places are fixed, so the quality
    metrics do not spread with the seed. The embedding does not depend on
    the seed either.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    side = np.arange(LATTICE_SIDE, dtype=np.float64)
    xx, yy = np.meshgrid(side, side, indexing="ij")
    emb = np.column_stack([xx.ravel(), yy.ravel()])
    n = len(emb)
    noise = rng.normal(0.0, LATTICE_NOISE_SIGMA, size=(n, LATTICE_NOISE_DIMS))
    step = LATTICE_ANOMALY_SPACING
    inner = np.arange(step, LATTICE_SIDE - step // 2, step)
    planted = (inner[:, None] * LATTICE_SIDE + inner[None, :]).ravel()
    direction = rng.normal(size=(len(planted), LATTICE_NOISE_DIMS))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    noise[planted] += LATTICE_ANOMALY_OFFSET * direction
    truth = np.zeros(n, dtype=np.int64)
    truth[planted] = -1

    data_path = os.path.join(workdir, "data.bin")
    emb_path = os.path.join(workdir, "embedding.bin")
    write_binary(np.hstack([emb, noise]), data_path)
    write_binary(emb, emb_path)
    return {
        "argv": ["cluster", "--input", data_path, "--format", "binary",
                 "--embedding", emb_path, "--embedding-format", "binary",
                 *PARAMS],
        "truth": truth,
        "embedding": lambda: emb,
        "lattice": True,
    }


def wide_binary(seed: int, workdir: str) -> dict:
    data, truth = _synth(seed, 5_000, 5, 1_000, 0.08, 0.02)
    path = os.path.join(workdir, "data.bin")
    write_binary(data, path)
    return {
        "argv": ["cluster", "--input", path, "--format", "binary", *PARAMS],
        "truth": truth,
        "embedding": lambda: _pca_embedding(data),
        "lattice": False,
    }


WORKLOADS = {
    "blobs_csv": blobs_csv,
    "lattice": lattice,
    "wide_binary": wide_binary,
}
