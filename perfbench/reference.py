"""Reference kernel that gauges the host's speed at the moment.

The sandbox this benchmark runs in is a few cores of a shared host whose
speed drifts by tens of percent over minutes, so a raw job time says as
much about the neighbours as about the program. The benchmark therefore
runs this fixed kernel between jobs and reports job times in reference
seconds: a job's wall time divided by the time of the kernel runs on
either side of it, times REFERENCE_S. That is the job's time on a host
on which the kernel takes REFERENCE_S seconds.

The kernel mixes the kinds of work the jobs do, on one thread: parsing
numbers out of CSV text, as in loading; float arithmetic on tuples with
dict inserts, as in the Delaunay mesh and its predicates; Fraction
arithmetic, as in the exact fallbacks; and numpy gathers and differences
over arrays larger than the L2 cache, as in triangle sizing. It uses no
code of the program under test, and its inputs are fixed, so it does the
same work on every run and every seed.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np

# Nominal kernel time; job times are scaled to a host that runs the
# kernel in this many seconds.
REFERENCE_S = 0.3

_ARRAYS = {}


def _inputs():
    if not _ARRAYS:
        rng = np.random.Generator(np.random.PCG64(20240917))
        _ARRAYS["x"] = rng.normal(size=(2_000, 700))
        _ARRAYS["csv"] = "\n".join(
            ",".join(repr(v) for v in row)
            for row in rng.normal(size=(5_000, 20)).tolist())
        _ARRAYS["tri"] = rng.integers(0, 2_000, size=(4_000, 3))
        _ARRAYS["pts"] = [(float(a), float(b))
                          for a, b in rng.normal(size=(3_000, 2))]
        _ARRAYS["frac"] = [(Fraction(int(a), 97), Fraction(int(b), 89))
                           for a, b in rng.integers(-500, 500, (5_000, 2))]
    return _ARRAYS


def _parse(text):
    return [[float(v) for v in line.split(",")]
            for line in text.splitlines()]


def _geometry(pts):
    mesh = {}
    acc = 0.0
    n = len(pts)
    for r in range(1, 41):
        for i in range(n):
            (ax, ay), (bx, by), (cx, cy) = pts[i], pts[(i + r) % n], \
                pts[(i + 2 * r) % n]
            det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            if det > 0.0:
                mesh[(i, r)] = (det, i + r)
            acc += det
    return acc + len(mesh)


def _exact(frac):
    acc = Fraction(0)
    n = len(frac)
    for i in range(n):
        (ax, ay), (bx, by), (cx, cy) = frac[i], frac[(i + 1) % n], \
            frac[(i + 2) % n]
        acc += (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return acc


def _arrays(x, tri):
    total = 0.0
    for u, v in ((0, 1), (1, 2), (2, 0)):
        diff = x[tri[:, u]] - x[tri[:, v]]
        total += float(np.einsum("ij,ij->i", diff, diff).sum())
    return total


def run() -> float:
    """Run the kernel once and return its wall time in seconds."""
    data = _inputs()
    t0 = perf_counter()
    _parse(data["csv"])
    _geometry(data["pts"])
    _exact(data["frac"])
    _arrays(data["x"], data["tri"])
    return perf_counter() - t0
