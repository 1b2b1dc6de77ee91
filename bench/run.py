"""The blocksep benchmark: one workload, one run, one JSON line of results.

    python3 bench/run.py --workload {orbits,readout,battery} --seed N \\
        --seconds S --trace 0|1

Run from anywhere; the program is taken from ``src`` next to this
directory, so nothing needs installing.  The run

1. writes the workload's config files, made from ``--seed``, to a fresh
   directory under ``.bench_tmp`` at the repository root (removed at the
   end);
2. runs the workload for ``--seconds`` in one fresh process with one
   thread (``worker.py``), checking every invocation's outputs;
3. times the program's set-up ``SETUP_REPEATS`` times, each in a fresh
   process (``setup_probe.py``), half before the worker and half after;
4. prints a human-readable summary and, as the last line, the result:
   ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
   the metrics are the end-to-end ones of ``BENCHMARK.json``, with
   ``--trace 1`` the per-layer ones.

``attempted`` and ``failed`` count CLI invocations; an invocation fails
when its exit code is not 0 or its outputs leave the oracle's
tolerances (``oracle.py``).  ``correct`` is false when any invocation
failed, when an output differs between passes of the run, or, in a
traced run, when a function the workload is expected to use was never
called or a counter differs between traced passes.

Uses the standard library only; exits 2 without a result when the
program's sources are missing or a child process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracer
import workloads
from worker import load_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".bench_tmp")

SETUP_REPEATS = 10
# Whole run, set-up included; the contract allows 180 s.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
COMMANDS = ("simulate", "compare", "verify", "curvature")


class ChildError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update({name: "1" for name in THREAD_VARS})
    return env


def run_child(argv, deadline: float) -> str:
    """Run a child to completion (it is killed and reaped on timeout) and
    return its standard output."""
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                              env=child_env(), capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildError(f"{argv[0]} timed out") from None
    if proc.returncode != 0:
        raise ChildError(f"{argv[0]} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return proc.stdout


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def src_lines() -> int:
    total = 0
    for root, _, files in os.walk(os.path.join(SRC, "blocksep")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def command_walls(passes, invocations) -> dict:
    """Median over passes of the wall seconds each command takes per pass,
    summed over the workload's entries; 0 for commands it does not run."""
    out = {}
    for cmd in COMMANDS:
        names = [inv.name for inv in invocations if inv.command == cmd]
        out[cmd] = (statistics.median(sum(p["wall"][n] for n in names)
                                      for p in passes) if names else 0.0)
    return out


def pass_cal(passes) -> float:
    """Mean pass wall time over the mean calibration-loop time.  Each
    invocation is paired with the mean of the two loops around it, and
    that pair is weighted by the invocation's wall time, so the machine
    speed is taken from the moments the work ran."""
    wall = weighted = 0.0
    for p in passes:
        cal = p["cal"]
        for k, dt in enumerate(p["wall"].values()):
            wall += dt
            weighted += dt * 0.5 * (cal[k] + cal[k + 1])
    return (wall / len(passes)) / (weighted / wall)


def end_to_end(passes, setup, rss) -> dict:
    return {
        "pass_cal": metric(pass_cal(passes), "cal"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }


def per_layer(untraced, traced, invocations, identical) -> dict:
    first = traced[0]
    m = {}
    for name in tracer.NAMES:
        calls = first["trace"][name][0]
        self_s = statistics.median(p["trace"][name][2] for p in traced)
        m[f"{name}.calls"] = metric(calls, "count")
        m[f"{name}.self_s"] = metric(self_s, "s")
    steps = first["steps"]
    n_steps = steps["accepted"] + steps["rejected"]
    for key, value in steps.items():
        m[f"dynamics.{key}"] = metric(value, "count")
    m["dynamics.rejected_ratio"] = metric(
        steps["rejected"] / n_steps if n_steps else 0.0, "ratio")
    m["dynamics.integrate.self_us_per_step"] = metric(
        1e6 * m["dynamics.integrate.self_s"]["value"] / n_steps
        if n_steps else 0.0, "us")
    field_calls = first["trace"][tracer.FIELD][0]
    field_total = statistics.median(p["trace"][tracer.FIELD][1]
                                    for p in traced)
    m["dynamics.field.us_per_call"] = metric(
        1e6 * field_total / field_calls if field_calls else 0.0, "us")
    for cmd, wall in command_walls(untraced, invocations).items():
        m[f"cli.{cmd}.wall_s"] = metric(wall, "s")
    m["pass.wall_s"] = metric(
        statistics.median(p["pass_s"] for p in untraced), "s")
    m["cli.bytes_written"] = metric(untraced[0]["bytes"], "bytes")
    m["repo.src_lines"] = metric(src_lines(), "lines")
    m["outputs.identical"] = metric(identical, "count")
    m["trace.overhead_ratio"] = metric(
        statistics.median(p["pass_s"] for p in traced)
        / statistics.median(p["pass_s"] for p in untraced), "ratio")
    return m


def consistency(passes, workload: str) -> list[str]:
    """Problems that make the run incorrect beyond failed invocations."""
    problems = []
    for name, digest in passes[0]["digests"].items():
        if any(p["digests"].get(name) != digest for p in passes):
            problems.append(f"{name}: output differs between passes")
    traced = [p for p in passes if p["traced"]]
    if traced:
        counts = [({n: v[0] for n, v in p["trace"].items()}, p["steps"])
                  for p in traced]
        if any(c != counts[0] for c in counts):
            problems.append("trace counters differ between traced passes")
        for name in workloads.WORKLOADS[workload]["uses"]:
            if counts[0][0][name] == 0:
                problems.append(f"{name} was never called")
    return problems


def report(args, invocations, setup, result) -> int:
    passes = result["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = len(passes) * len(invocations)
    failed = sum(len(p["errors"]) for p in passes)
    ref = load_reference(args.workload, args.seed)
    last = passes[-1]["digests"]
    identical = sum(1 for name, d in last.items()
                    if d == ref[name].get("digest"))
    problems = consistency(passes, args.workload)

    print(f"# python {result['python']}, numpy {result['numpy']}, "
          f"nproc {os.cpu_count()}, cpu {cpu_model()}")
    print(f"# workload {args.workload}, seed {args.seed} (variant "
          f"{workloads.variant_of(args.seed)}), {len(untraced)} untraced "
          f"and {len(traced)} traced passes")
    for inv in invocations:
        wall = statistics.median(p["wall"][inv.name] for p in untraced)
        print(f"# {inv.name:<24} {wall:9.4f} s median")
    walls = command_walls(untraced, invocations)
    print("# per pass: " + ", ".join(f"{cmd} {w:.4f} s"
                                     for cmd, w in walls.items() if w))
    print("# setup_s samples: " + ", ".join(f"{v:.4f}" for v in setup))
    print("# pass wall s: " + ", ".join(f"{p['pass_s']:.4f}"
                                        for p in passes))
    print("# calibration loop ms, median per pass: " + ", ".join(
        f"{1e3 * statistics.median(p['cal']):.3f}" for p in passes))
    print(f"# outputs identical to reference: {identical}/{len(last)}")
    for name, obs in ref.items():
        if obs.get("known_failures"):
            print(f"# known failure {name}: "
                  + ", ".join(obs["known_failures"]))
    if result["tracer_missing"]:
        print("# tracer found no " + ", ".join(result["tracer_missing"]))
    for p in passes:
        for name, errors in p["errors"].items():
            for e in errors:
                print(f"# FAILED {name}: {e}")
    for problem in problems:
        print(f"# INCORRECT: {problem}")

    if args.trace:
        metrics = per_layer(untraced, traced, invocations, identical)
    else:
        metrics = end_to_end(untraced, setup, result["peak_rss_mb"])
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "blocksep", "__init__.py")):
        print(f"bench: no program sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(TMP, exist_ok=True)
    work = tempfile.mkdtemp(dir=TMP)
    try:
        invocations = workloads.build(args.workload, args.seed, work)
        configs = sorted({inv.argv[2] for inv in invocations})
        probe = [os.path.join(HERE, "setup_probe.py"), *configs]
        # half the probes before the worker and half after, so that the
        # median spans two states of a machine whose speed drifts
        setup = [float(run_child(probe, deadline))
                 for _ in range(SETUP_REPEATS // 2)]
        result_path = os.path.join(work, "result.json")
        run_child([os.path.join(HERE, "worker.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace),
                   "--work-dir", work, "--result", result_path], deadline)
        setup += [float(run_child(probe, deadline))
                  for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except ChildError as ex:
        print(f"bench: {ex}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(TMP):
            os.rmdir(TMP)
    return report(args, invocations, setup, result)


if __name__ == "__main__":
    sys.exit(main())
