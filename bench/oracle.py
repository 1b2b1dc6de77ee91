"""Output oracle: checks one invocation's outputs against stated tolerances.

``reference.json`` holds, for every workload and input variant, the
values that ``record_reference.py`` read off the program's outputs, and
the SHA-256 digest of each CSV report.  An invocation fails when its
exit code is not the expected one or a number leaves its tolerance:

* ``orbit.csv`` (simulate): the header and row count match; every value
  is finite; the sampled rows match the reference to ``ROW_TOL`` (scaled
  by ``max(1, |reference|)``); ``H`` and every ``K_a`` stay within
  ``DRIFT_TOL`` of their first-row value along the orbit, which needs no
  reference at all.
* compare: the printed sup discrepancy is within the program's own
  threshold, and the printed clock window end ``tau`` matches the
  reference to ``TAU_TOL``, the precision it is printed with.
* ``verify_report.csv`` and ``curvature_report.csv``: the check names
  match the reference; every residual is finite, within its printed
  threshold and marked ``pass``, except for the checks that the
  reference lists as ``known_failures``, which may fail.  The exit code
  must be 1 when a check failed and 0 otherwise.

Known failures are verdicts of the program that depend on the probe
seed (README.md, "Known failures").  They are recorded instead of
avoided, so that they show; a change that makes them pass is accepted.

A digest that differs from the reference is not a failure, since the
program may change last bits on purpose; it is counted apart as
``outputs.identical``.  Uses the standard library only.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import re

# Tolerances by workload.  Halving or doubling rtol moves the sampled
# readout rows by up to 1e-4 and the readout drift to 1.3e-7, so a valid
# change of integrator stays well inside them; a wrong field does not
# (README.md, "Output oracle").
ROW_TOL = {"orbits": 1e-6, "readout": 1e-3}
DRIFT_TOL = {"orbits": 1e-8, "readout": 1e-5}
TAU_TOL = 1e-5

# Files whose digest is recorded, by command.
REPORTS = {"simulate": "orbit.csv", "verify": "verify_report.csv",
           "curvature": "curvature_report.csv"}

_TAU = re.compile(r"^compare: block \d+ of \S+ over t in \[\S+, \S+\], "
                  r"tau in \[\S+, (\S+)\]$", re.M)
_SUP = re.compile(r"^compare: sup discrepancy = (\S+) \(threshold (\S+)\)$",
                  re.M)


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def bytes_in(directory: str) -> int:
    total = 0
    for root, _, files in os.walk(directory):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def sample_rows(n_rows: int) -> list[int]:
    """Row indices kept in the reference: seven spread over the orbit."""
    return sorted({round(k * (n_rows - 1) / 6) for k in range(7)})


def read_orbit(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


def read_report(path: str) -> list[dict]:
    """Rows of a machine report.  Check names such as ``bracket(H,K_2)``
    are written unquoted, so a row is split on its last four commas."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    keys = lines[0].split(",")
    return [dict(zip(keys, line.rsplit(",", len(keys) - 1)))
            for line in lines[1:]]


def observe(command: str, out_dir: str, stdout: str) -> dict:
    """What the reference records for one invocation."""
    if command == "simulate":
        header, rows = read_orbit(os.path.join(out_dir, "orbit.csv"))
        return {"header": header, "n_rows": len(rows),
                "rows": {str(i): rows[i] for i in sample_rows(len(rows))}}
    if command == "compare":
        return {"tau_end": float(_TAU.search(stdout).group(1))}
    rows = read_report(os.path.join(out_dir, REPORTS[command]))
    return {"checks": [r["name"] for r in rows],
            "known_failures": [r["name"] for r in rows
                               if r["status"] != "pass"]}


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _check_orbit(path: str, ref: dict, workload: str) -> list[str]:
    header, rows = read_orbit(path)
    if header != ref["header"]:
        return [f"header {header} != {ref['header']}"]
    if len(rows) != ref["n_rows"]:
        return [f"{len(rows)} rows, expected {ref['n_rows']}"]
    errors = []
    for row in rows:
        if not all(math.isfinite(v) for v in row):
            errors.append(f"non-finite value in row t={row[0]!r}")
            break
    tol = ROW_TOL[workload]
    for idx, want in ref["rows"].items():
        got = rows[int(idx)]
        bad = [(header[k], g, w) for k, (g, w) in enumerate(zip(got, want))
               if not _close(g, w, tol)]
        if bad:
            name, g, w = bad[0]
            errors.append(f"row {idx} {name} = {g!r}, reference {w!r} "
                          f"(tol {tol:g})")
    drift_tol = DRIFT_TOL[workload]
    first_integral = header.index("H")
    for k in range(first_integral, len(header)):
        col0 = rows[0][k]
        drift = max(abs(row[k] - col0) for row in rows)
        if drift > drift_tol * max(1.0, abs(col0)):
            errors.append(f"{header[k]} drifts by {drift:.3e} "
                          f"(tol {drift_tol:g})")
    return errors


def _check_compare(stdout: str, ref: dict) -> list[str]:
    sup = _SUP.search(stdout)
    tau = _TAU.search(stdout)
    if sup is None or tau is None:
        return ["compare printed no discrepancy or clock window"]
    errors = []
    value, threshold = float(sup.group(1)), float(sup.group(2))
    if not value <= threshold:
        errors.append(f"sup discrepancy {value:.3e} > {threshold:.1e}")
    tau_end = float(tau.group(1))
    if not _close(tau_end, ref["tau_end"], TAU_TOL):
        errors.append(f"tau window end {tau_end!r}, reference "
                      f"{ref['tau_end']!r}")
    return errors


def _check_report(path: str, ref: dict) -> tuple[list[str], bool]:
    """Errors, and whether any check failed."""
    rows = read_report(path)
    names = [r["name"] for r in rows]
    if names != ref["checks"]:
        return [f"checks {names} != {ref['checks']}"], False
    errors = []
    failing = False
    for r in rows:
        residual, threshold = float(r["residual"]), float(r["threshold"])
        passed = residual <= threshold and r["status"] == "pass"
        failing |= not passed
        if not math.isfinite(residual) or (
                not passed and r["name"] not in ref["known_failures"]):
            errors.append(f"{r['name']}: residual {residual:.3e} "
                          f"threshold {threshold:.1e} {r['status']}")
    return errors, failing


def check(workload: str, command: str, out_dir: str, stdout: str,
          exit_code: int, ref: dict) -> list[str]:
    """Reasons the invocation failed; empty when it passed."""
    failing = False
    try:
        if command == "simulate":
            errors = _check_orbit(os.path.join(out_dir, "orbit.csv"), ref,
                                  workload)
        elif command == "compare":
            errors = _check_compare(stdout, ref)
        else:
            errors, failing = _check_report(
                os.path.join(out_dir, REPORTS[command]), ref)
    except (OSError, ValueError, KeyError, StopIteration) as ex:
        errors = [f"unreadable output: {type(ex).__name__}: {ex}"]
    expected = 1 if failing else 0
    if exit_code != expected:
        errors.insert(0, f"exit code {exit_code}, expected {expected}")
    return errors
