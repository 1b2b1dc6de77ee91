"""Tests of the benchmark itself: tracer coverage, the oracle, determinism.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py

The determinism tests run each workload twice, traced, in fresh
processes, and take a few minutes.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import NAMES, Stat, Tracer  # noqa: E402
from worker import load_reference  # noqa: E402


def test_tracer_rebinds_every_name_and_restores_it():
    from blocksep import catalog, cli, dynamics, expr, model

    originals = (cli._COMMANDS["simulate"], cli.integrate,
                 dynamics.integrate, dynamics.Trajectory.sample,
                 dynamics.BlockClock.tau, model.matrix_values,
                 expr.evaluate)
    tr = Tracer()
    tr.install()
    try:
        assert cli._COMMANDS["simulate"].__wrapped__ is originals[0]
        assert cli.integrate is dynamics.integrate
        assert dynamics.Trajectory.sample.__wrapped__ is originals[3]
        assert dynamics.BlockClock.tau.__wrapped__ is originals[4]
        field = cli.full_field_callable(catalog.load("pendula").system)
        field(0.0, [0.1, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert tr.stats["dynamics.field"].calls == 1
        assert tr.stats["model.matrix_values"].calls > 0
        assert tr.stats["expr.evaluate"].calls > 0
    finally:
        tr.uninstall()
    assert (cli._COMMANDS["simulate"], cli.integrate, dynamics.integrate,
            dynamics.Trajectory.sample, dynamics.BlockClock.tau,
            model.matrix_values, expr.evaluate) == originals


def test_self_time_excludes_traced_callees():
    tr = Tracer()
    tr.stats["outer"] = Stat()
    inner = tr.wrap("expr.evaluate", lambda: time.sleep(0.02))
    outer = tr.wrap("outer", lambda: inner())
    outer()
    assert tr.stats["outer"].total_s >= 0.02
    assert tr.stats["outer"].self_s < 0.01
    assert tr.stats["expr.evaluate"].self_s >= 0.02


def test_oracle_rejects_wrong_orbit_values(tmp_path):
    from blocksep import cli

    inv = next(i for i in workloads.build("readout", 0, str(tmp_path))
               if i.entry == "pendula")
    with redirect_stdout(io.StringIO()):
        assert cli.main(list(inv.argv)) == 0
    ref = load_reference("readout", 0)[inv.name]
    path = os.path.join(inv.out_dir, "orbit.csv")
    assert oracle.check("readout", "simulate", inv.out_dir, "", 0, ref) == []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    def corrupt(row: int, col: int, delta: float) -> list[str]:
        cells = lines[row + 1].split(",")
        cells[col] = repr(float(cells[col]) + delta)
        bad = lines[:row + 1] + [",".join(cells)] + lines[row + 2:]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(bad) + "\n")
        return oracle.check("readout", "simulate", inv.out_dir, "", 0, ref)

    assert any("row 1000" in e for e in corrupt(1000, 1, 1e-2))
    assert any("H drifts" in e for e in corrupt(17, 10, 1e-3))
    assert oracle.check("readout", "simulate", inv.out_dir, "", 3, ref)


def traced_run(workload: str, seed: int, work) -> dict:
    work.mkdir()
    result = work / "result.json"
    run.run_child([os.path.join(HERE, "worker.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", "1", "--trace", "1",
                   "--work-dir", str(work), "--result", str(result)],
                  time.monotonic() + 600)
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_runs_repeat_exactly(workload, tmp_path):
    runs = [traced_run(workload, 3, tmp_path / tag) for tag in "ab"]
    passes = [p for r in runs for p in r["passes"]]
    assert all(not p["errors"] for p in passes)
    traced = [p for p in passes if p["traced"]]
    assert len(traced) == 2
    a, b = traced
    assert a["steps"] == b["steps"]
    assert ({n: a["trace"][n][0] for n in NAMES}
            == {n: b["trace"][n][0] for n in NAMES})
    assert all(p["digests"] == passes[0]["digests"] for p in passes)
    assert not run.consistency(passes, workload)
