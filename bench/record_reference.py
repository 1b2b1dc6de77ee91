"""Records the output oracle, ``reference.json``, from the current program.

    PYTHONPATH=src python3 bench/record_reference.py [WORKLOAD...]

Runs one pass of each named workload (default: all) for every input
variant and keeps what ``oracle.observe`` reads off each invocation,
plus the digest of its CSV report.  It refuses to record an invocation
that crashes or fails the checks that need no reference (energy
drift, thresholds).  A verify or curvature check that fails is
recorded as a known failure and reported.  Re-record only when a change
to the program's outputs is intended, and say so where it is logged.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import oracle
import workloads
from run import THREAD_VARS, TMP
from worker import REFERENCE, call


def record(workload: str, variant: int, work: str, main) -> dict:
    out = {}
    for inv in workloads.build(workload, variant, work):
        code, _, text = call(main, inv)
        if code not in (0, 1):
            raise SystemExit(f"{workload} variant {variant} {inv.name}: "
                             f"exit {code}\n{text}")
        obs = oracle.observe(inv.command, inv.out_dir, text)
        if obs.get("known_failures"):
            print(f"{workload} variant {variant} {inv.name}: known "
                  f"failures {obs['known_failures']}", file=sys.stderr)
        errors = oracle.check(workload, inv.command, inv.out_dir, text,
                              code, obs)
        if errors:
            raise SystemExit(f"{workload} variant {variant} {inv.name}: "
                             + "; ".join(errors))
        report = oracle.REPORTS.get(inv.command)
        if report:
            obs["digest"] = oracle.digest(os.path.join(inv.out_dir, report))
        out[inv.name] = obs
    return out


def main(names) -> int:
    os.environ.update({name: "1" for name in THREAD_VARS})
    from blocksep import cli

    names = names or list(workloads.WORKLOADS)
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
    else:
        ref = {"variants": workloads.VARIANTS, "workloads": {}}
    os.makedirs(TMP, exist_ok=True)
    work = tempfile.mkdtemp(dir=TMP)
    try:
        for name in names:
            ref["workloads"][name] = {
                str(v): record(name, v, work, cli.main)
                for v in range(workloads.VARIANTS)}
            print(f"recorded {name}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
