"""Runs `tricluster cluster` jobs in-process, one at a time, and times them.

Usage: python3 worker.py SPEC.json

The spec names the source tree, the job's argument list, where each job
writes its labels, how long to run, whether to trace, and the two pipe
ends through which the worker asks the parent to run the reference
kernel (`reference.py`) and waits until it has. The parent runs the
kernel before the first timed job and after every job, while the worker
waits, so no two of them run at once. The first job is a warm-up and is
not timed. The worker does no checking of its own: it records each job's
exit code, stdout and labels path, and the parent process checks them
after the worker exits. Its peak RSS therefore covers only the jobs.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter, process_time


def _run_job(cli, argv, recorder=None):
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0, c0 = perf_counter(), process_time()
        try:
            if recorder is None:
                rc = cli.main(argv)
            else:
                rc = recorder.span("cli.main", cli.main, argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a job that raises is a failed job, not a crash
            rc = None
            error = traceback.format_exc()
        seconds = perf_counter() - t0
        cpu = process_time() - c0
    return {"seconds": seconds, "cpu_seconds": cpu, "rc": rc,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
            "error": error}


class _Parent:
    """The pipe ends to the parent, which runs the reference kernel."""

    def __init__(self, fd_in, fd_out):
        self.reader = os.fdopen(fd_in, "r", encoding="ascii")
        self.writer = os.fdopen(fd_out, "w", encoding="ascii")

    def reference(self) -> None:
        """Have the parent time the kernel, and wait until it has."""
        self.writer.write("reference\n")
        self.writer.flush()
        if not self.reader.readline():
            raise SystemExit("worker: the parent closed the pipe")


def _peak_rss_kb() -> int:
    """Peak RSS of this process's own address space.

    ru_maxrss would also count the parent's peak, which a child inherits
    through fork and exec; VmHWM starts afresh at exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    if not os.path.isfile(os.path.join(src, "tricluster", "cli.py")):
        print(f"worker: no tricluster sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import tricluster.cli as cli
    from certify import triangles_sha256
    from spans import PredicateCounter, SpanRecorder

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src)):
        print(f"worker: imported {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    parent = _Parent(spec["fd_in"], spec["fd_out"])
    jobs, traces = [], []
    absent = []
    # job 0 warms up imports and caches and is checked but not timed
    argv = spec["argv"] + ["--out", spec["labels"].format(i=0)]
    job = _run_job(cli, argv)
    job.update(index=0, traced=False, timed=False, labels=argv[-1])
    jobs.append(job)
    parent.reference()
    start = perf_counter()
    i = 1
    # a traced run needs at least one untraced and one traced job
    while (perf_counter() - start < spec["seconds"]
           or i < 2 or (spec["trace"] and i < 3)):
        argv = spec["argv"] + ["--out", spec["labels"].format(i=i)]
        # traced runs alternate untraced and traced jobs, so both medians
        # come from the same stretch of time
        traced = spec["trace"] and i % 2 == 0
        gc.collect()
        if traced:
            recorder = SpanRecorder()
            with recorder.patches():
                job = _run_job(cli, argv, recorder)
            traces.append({"job": i, "spans": recorder.spans})
            absent = recorder.absent
        else:
            job = _run_job(cli, argv)
        parent.reference()
        job.update(index=i, traced=traced, timed=True, labels=argv[-1])
        jobs.append(job)
        i += 1
    peak_rss_kb = _peak_rss_kb()

    counts, tri_hashes = [], []
    if spec["trace"]:
        # two untimed counting passes: the counts must repeat exactly
        for _ in range(2):
            counter = PredicateCounter()
            argv = spec["argv"] + ["--out", spec["labels"].format(i=i)]
            with counter.patches():
                job = _run_job(cli, argv)
            job.update(index=i, traced=True, timed=False, labels=argv[-1])
            jobs.append(job)
            counts.append(counter.as_dict())
            tri_hashes += [triangles_sha256(t) for t in counter.triangles]
            absent = sorted(set(absent) | set(counter.absent))
            i += 1

    result = {
        "jobs": jobs,
        "traces": traces,
        "absent": absent,
        "counts": counts,
        "triangles_sha256": tri_hashes,
        "peak_rss_kb": peak_rss_kb,
    }
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
