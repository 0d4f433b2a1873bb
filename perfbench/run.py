"""Benchmark of `tricluster cluster` jobs, timed and traced from outside.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload blobs_csv --seed 7 --seconds 28 \
        --trace 0

It builds the workload's inputs from the seed and writes them to files,
certifies the triangulation of the workload's embedding, measures the
interpreter set-up, then runs jobs through `tricluster.cli.main` in a
separate worker process for the given number of seconds and checks every
job's output. Between jobs, and between set-up probes, this process runs
the fixed reference kernel of `reference.py`, and timings are reported in
reference seconds: divided by the kernel's mean time over the same phase
of the run, so that the drift of a shared host's speed cancels.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; with `--trace 0` the metrics are the
end-to-end metrics of BENCHMARK.json, with `--trace 1` its per-layer
metrics. The exit code is 0 only when every check passed.
Full results, including every span, go to perfbench/.results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 7

# Stage-one triangles of the 80x80 lattice. The lattice embedding does not
# depend on the seed, so this pins the cocircular tie rule across runs.
LATTICE_TRIANGLES_SHA256 = (
    "98662e33330cd746889abbb783faa99b52bef73e2505bcc7c527b1f80a8a0142")

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")


def _machine(nproc: int) -> dict:
    import numpy as np

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, entry, key)) as fh:
                    fields[key] = fh.read().strip()
        except OSError:
            continue
        caches[f"L{fields['level']}_{fields['type']}"] = fields["size"]
    return {
        "nproc": nproc,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": nproc,
        "machine": platform.machine(),
    }


def _to_reference(ref_times) -> float:
    """Factor from wall seconds to reference seconds, for one phase."""
    return reference.REFERENCE_S / statistics.mean(ref_times)


def _setup_seconds(env):
    """Wall times of fresh interpreters importing the CLI module, and of
    the reference kernel runs before the first and after each."""
    reference.run()  # warm-up, not counted
    times, refs = [], [reference.run()]
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", "import tricluster.cli"], env=env,
            cwd=ROOT)
        # a wait with a timeout polls, in steps of up to 50 ms, so the
        # timeout is a watchdog instead
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
        times.append(perf_counter() - t0)
        if rc != 0:
            raise RuntimeError(f"import tricluster.cli exited with {rc}")
        refs.append(reference.run())
    return times, refs


def _run_worker(spec, timeout):
    """Run worker.py on ``spec``, timing the reference kernel whenever it
    asks, and return the kernel's times. The worker waits meanwhile."""
    to_parent_r, to_parent_w = os.pipe()
    to_worker_r, to_worker_w = os.pipe()
    spec = dict(spec, fd_in=to_worker_r, fd_out=to_parent_w)
    spec_path = os.path.join(os.path.dirname(spec["out"]), "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
        cwd=ROOT, pass_fds=(to_worker_r, to_parent_w))
    os.close(to_worker_r)
    os.close(to_parent_w)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    ref_times = []
    try:
        with os.fdopen(to_parent_r, "r", encoding="ascii") as requests, \
                os.fdopen(to_worker_w, "w", encoding="ascii") as replies:
            for _ in requests:
                ref_times.append(reference.run())
                try:
                    replies.write("done\n")
                    replies.flush()
                except BrokenPipeError:
                    break
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if rc != 0:
        raise RuntimeError(f"worker exited with code {rc}")
    return ref_times


def _read_labels(path):
    import numpy as np

    with open(path, encoding="utf-8") as fh:
        return np.asarray([int(v) for v in fh.read().split()], dtype=np.int64)


def _check_job(job, n_rows):
    """Problems with one job's exit code, stdout and labels file."""
    import numpy as np

    if job["error"] is not None:
        return [job["error"].strip().splitlines()[-1]], None
    if job["rc"] != 0:
        return [f"exit code {job['rc']}: {job['stderr'].strip()[-300:]}"], None
    lines = job["stdout"].strip().splitlines()
    try:
        summary = json.loads(lines[0]) if len(lines) == 1 else None
    except json.JSONDecodeError:
        summary = None
    if not isinstance(summary, dict):
        return ["stdout is not one JSON object"], None
    try:
        labels = _read_labels(job["labels"])
    except (OSError, ValueError) as exc:
        return [f"labels file unreadable: {exc}"], None
    problems = []
    if len(labels) != n_rows:
        problems.append(f"labels file has {len(labels)} rows, not {n_rows}")
    if labels.size and labels.min() < -1:
        problems.append("label below -1")
    kept = labels[labels >= 0]
    ids, first = np.unique(kept, return_index=True)
    if not np.array_equal(ids[np.argsort(first)], np.arange(len(ids))):
        problems.append("labels are not 0..k-1 in first-occurrence order")
    if (summary.get("n_clusters") != len(ids)
            or summary.get("n_anomalies") != int((labels == -1).sum())):
        problems.append("stdout counts disagree with the labels file")
    return problems, labels


def _ari(truth, pred) -> float:
    import numpy as np

    _, t = np.unique(truth, return_inverse=True)
    _, p = np.unique(pred, return_inverse=True)
    table = np.zeros((t.max() + 1, p.max() + 1), dtype=np.int64)
    np.add.at(table, (t, p), 1)

    def pairs(x):
        return float((x * (x - 1) // 2).sum())

    n = len(truth)
    index = pairs(table)
    rows, cols = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / pairs(np.asarray([n]))
    maximum = (rows + cols) / 2.0
    if maximum == expected:
        return 1.0
    return (index - expected) / (maximum - expected)


def _anomaly_f1(truth, pred) -> float:
    tp = int(((truth == -1) & (pred == -1)).sum())
    n_pred, n_true = int((pred == -1).sum()), int((truth == -1).sum())
    return 2.0 * tp / (n_pred + n_true) if n_pred + n_true else 0.0


def _tail(values):
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return {"percentile": None, "value": None, "n": n}
    return {"percentile": 100.0 * (n - 10) / n,
            "value": sorted(values)[n - 11], "n": n}


def _medians(rows):
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    if not os.path.isfile(os.path.join(SRC, "tricluster", "cli.py")):
        print(f"run.py: no tricluster sources under {SRC}", file=sys.stderr)
        return 2

    # cap BLAS threads before this process or the worker imports numpy
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)
    from certify import certify
    from spans import job_layer_metrics, predicate_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    machine = _machine(nproc)
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-"
                                          f"{os.getpid()}")
    os.makedirs(workdir)
    try:
        t0 = perf_counter()
        inputs = WORKLOADS[args.workload](args.seed, workdir)
        input_s = perf_counter() - t0
        setup_times, setup_refs = _setup_seconds(os.environ.copy())

        t0 = perf_counter()
        try:
            cert = certify(inputs["embedding"]())
        except Exception as exc:  # a triangulator that raises is uncertified
            cert = {"problems": [f"triangulate raised {exc!r}"],
                    "n_problems": 1, "n_triangles": 0,
                    "n_cocircular_edges": 0, "triangles_sha256": None}
        cert["seconds"] = perf_counter() - t0
        if (inputs["lattice"]
                and cert["triangles_sha256"] != LATTICE_TRIANGLES_SHA256):
            cert["problems"].append("lattice triangles differ from the "
                                    "pinned tie-rule result")
            cert["n_problems"] += 1

        spec = {
            "root": ROOT,
            "argv": inputs["argv"],
            "labels": os.path.join(workdir, "labels-{i}.txt"),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "out": os.path.join(workdir, "worker.json"),
        }
        ref_times = _run_worker(spec, args.seconds + 120)
        with open(spec["out"], encoding="utf-8") as fh:
            worker = json.load(fh)

        # output checks, after the worker has exited
        truth = inputs["truth"]
        failures, first_labels, digest = [], None, None
        for job in worker["jobs"]:
            problems, labels = _check_job(job, len(truth))
            if labels is not None:
                if first_labels is None:
                    first_labels = labels
                elif not (labels == first_labels).all():
                    problems.append("labels differ from the first job's")
            if problems:
                failures.append({"job": job["index"], "problems": problems})
        if first_labels is not None:
            digest = hashlib.sha256(
                first_labels.astype("<i8").tobytes()).hexdigest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = worker["jobs"]
    timed = [j for j in jobs if j["timed"]]
    factor = _to_reference(ref_times)
    plain = [j["seconds"] * factor for j in timed if not j["traced"]]
    traced = [j["seconds"] * factor for j in timed if j["traced"]]
    setup_scaled = [t * _to_reference(setup_refs) for t in setup_times]
    checks = {"certificate": cert["n_problems"] == 0}
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine, "input_s": input_s,
        "reference_s": reference.REFERENCE_S,
        "setup_s": setup_scaled, "setup_wall_s": setup_times,
        "setup_reference_s": setup_refs,
        "certificate": cert, "labels_sha256": digest,
        "job_s": plain,
        "job_wall_s": [j["seconds"] for j in timed if not j["traced"]],
        "job_cpu_s": [j["cpu_seconds"] for j in timed if not j["traced"]],
        "job_reference_s": ref_times,
        "job_s_tail": _tail(plain), "failures": failures,
    }
    if args.trace:
        layers = _medians([job_layer_metrics(t["spans"])
                           for t in worker["traces"]])
        counts = worker["counts"]
        checks["counts_repeat"] = len(counts) == 2 and counts[0] == counts[1]
        meshes = worker["triangles_sha256"]
        checks["mesh_matches_certificate"] = bool(meshes) and all(
            h == cert["triangles_sha256"] for h in meshes)
        layers.update(predicate_metrics(counts[0] if counts else {}))
        layers["trace.job_s"] = statistics.mean(traced)
        layers["trace.overhead_s"] = (statistics.mean(traced)
                                      - statistics.mean(plain))
        details.update(absent=worker["absent"], counts=counts,
                       traced_job_s=traced, traces=worker["traces"])
        wanted = bench["per_layer"]
        values = layers
    else:
        found = first_labels is not None
        values = {
            # seconds per job over the run: the inverse of throughput
            "job_s": statistics.mean(plain),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
            "ari": _ari(truth, first_labels) if found else 0.0,
            "anomaly_f1": _anomaly_f1(truth, first_labels) if found else 0.0,
            "success_rate": 1.0 - len(failures) / len(jobs),
        }
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = not failures and all(checks.values())
    details.update(checks=checks, metrics=metrics)

    os.makedirs(os.path.join(HERE, ".results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out = os.path.join(HERE, ".results", name)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)

    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"certificate: {cert['n_problems']} problems, "
          f"{cert['n_triangles']} triangles, "
          f"{cert['n_cocircular_edges']} cocircular edges, "
          f"sha256 {cert['triangles_sha256']}")
    for failure in failures[:5] + [{"problems": cert["problems"][:5]}]:
        for problem in failure["problems"]:
            print(f"FAILED: {problem}")
    print(f"labels sha256: {digest}")
    tail = details["job_s_tail"]
    print(f"job_s: {len(plain)} jobs, mean "
          f"{statistics.mean(plain):.4f} reference s, "
          f"median {statistics.median(plain):.4f}, "
          f"tail p{tail['percentile']} = {tail['value']}; wall mean "
          f"{statistics.mean(details['job_wall_s']):.4f} s, reference "
          f"kernel mean {statistics.mean(ref_times):.4f} s "
          f"(nominal {reference.REFERENCE_S} s)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(f"checks: {json.dumps(checks, sort_keys=True)}")
    print(json.dumps({"correct": correct, "attempted": len(jobs),
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
