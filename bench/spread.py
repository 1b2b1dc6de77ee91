"""Run-to-run spread of the end-to-end metrics, workloads interleaved.

    python3 bench/spread.py [--runs 10] [--first-seed 0] \\
        [--workloads orbits,readout] [--out FILE]

Runs the benchmark command of ``BENCHMARK.json`` once per seed and
workload, cycling through the workloads inside each seed so that drift
of a shared machine falls on every workload alike.  For each end-to-end
metric it prints the median, the distance between the first and third
quartile as a share of the median (``statistics.quantiles(n=4)``), and
that metric's bound.  A spread above a third of its bound is flagged.
With ``--out``, every run's summary and result lines are saved as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    names = args.workloads.split(",")

    runs = {name: [] for name in names}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for name in names:
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=300)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs[name].append({"seed": seed, "summary": lines[:-1],
                               **result})
            values = " ".join(f"{k}={v['value']:.4f}"
                              for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}",
                  flush=True)

    worst = 0.0
    for name in names:
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs[name]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < m["bound"] / 3 else "  ABOVE bound/3"
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"{name:<8} {m['name']:<12} median {med:10.4f} "
                  f"{m['unit']:<3} spread {spread:7.4f} "
                  f"bound {m['bound']}{flag}")
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
