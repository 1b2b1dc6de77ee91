"""Runs one workload in this process and writes its raw measurements as JSON.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 \\
        --work-dir DIR --result FILE

``run.py`` starts this in a fresh process per run, with ``src`` on
``PYTHONPATH`` and the BLAS and OpenMP thread counts set to 1, and turns
the raw passes into metrics.  Each pass calls ``blocksep.cli.main`` once
per invocation of the workload, one after the other, and times each
call.  After each call, outside the timed region, the outputs are
checked against ``reference.json`` and their digests taken.

With ``--trace 1`` the first third of the time runs untraced passes, for
``trace.overhead_ratio``, and the rest traced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import oracle
import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
CAL_LOOPS = 40000


def load_reference(workload: str, seed: int) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref["workloads"][workload][str(workloads.variant_of(seed))]


def call(main, inv: workloads.Invocation):
    """Run one invocation; return (exit code or None on a crash, wall
    seconds, captured output)."""
    shutil.rmtree(inv.out_dir, ignore_errors=True)
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = main(list(inv.argv))
    except Exception:  # a crash is a failed operation, not a benchmark error
        code = None
        buf.write(traceback.format_exc())
    return code, time.perf_counter() - t0, buf.getvalue()


def calibrate() -> float:
    """Seconds taken by a fixed loop that does not involve the program:
    Python arithmetic, dict lookups and small NumPy products, like the
    program's own inner loops.  Timed between invocations, it tracks the
    speed of a shared machine, which drifts by tens of percent."""
    import numpy as np

    m = np.array([[2.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 4.0]])
    env = {"x": 0.5, "y": 0.25}
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(CAL_LOOPS):
        env["x"] = 0.5 + i * 1e-5
        acc += math.sin(env["x"]) * env["y"] + (i % 7)
        if i % 16 == 0:
            acc += float((m @ np.array([acc * 1e-9, 1.0, 0.5]))[0])
    return time.perf_counter() - t0


def run_pass(main, workload: str, invocations, ref: dict) -> dict:
    out = {"wall": {}, "cal": [calibrate()], "errors": {}, "digests": {},
           "bytes": 0}
    for inv in invocations:
        code, dt, text = call(main, inv)
        out["cal"].append(calibrate())
        out["wall"][inv.name] = dt
        errors = oracle.check(workload, inv.command, inv.out_dir, text,
                              -1 if code is None else code, ref[inv.name])
        if code is None:
            errors.append(text.strip().splitlines()[-1])
        if errors:
            out["errors"][inv.name] = errors
        report = oracle.REPORTS.get(inv.command)
        if report and os.path.exists(os.path.join(inv.out_dir, report)):
            out["digests"][inv.name] = oracle.digest(
                os.path.join(inv.out_dir, report))
        out["bytes"] += oracle.bytes_in(inv.out_dir)
    out["pass_s"] = sum(out["wall"].values())
    return out


def run_passes(main, workload, invocations, ref, budget, tracer=None):
    """Passes until the next one would end past ``budget`` seconds; at
    least one."""
    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        p = run_pass(main, workload, invocations, ref)
        if tracer is not None:
            p["trace"] = {name: [s.calls, s.total_s, s.self_s]
                          for name, s in tracer.stats.items()}
            p["steps"] = dict(tracer.steps)
        p["traced"] = tracer is not None
        passes.append(p)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(q["pass_s"] for q in passes) > budget:
            return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    import numpy
    from blocksep import cli

    calibrate()  # the first call pays for NumPy's lazy set-up
    invocations = workloads.build(args.workload, args.seed, args.work_dir)
    ref = load_reference(args.workload, args.seed)
    if args.trace:
        passes = run_passes(cli.main, args.workload, invocations, ref,
                            args.seconds / 3)
        tracer = Tracer()
        missing = tracer.install()
        try:
            passes += run_passes(cli.main, args.workload, invocations, ref,
                                 args.seconds * 2 / 3, tracer)
        finally:
            tracer.uninstall()
    else:
        missing = []
        passes = run_passes(cli.main, args.workload, invocations, ref,
                            args.seconds)
    result = {
        "passes": passes,
        "tracer_missing": missing,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
