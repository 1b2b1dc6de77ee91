"""Config grammar and command-line behavior.

Commands run in-process through cli.main so exit codes, stdout reports
and written artifacts are all observable without subprocesses.
"""

import argparse
import gc
import hashlib
import importlib.util
import math
import os
import shutil
import subprocess
import sys
import weakref

import numpy as np
import pytest

import walker
from conftest import position_env

import blocksep
from blocksep import catalog, cli, config, dynamics, expr, geometry, model
from blocksep.config import ConfigError, load_config

PENDULA_BODY = """
[system]
catalog = pendula

[integration]
t_span = 0.0, 5.0
rtol = 1e-10
atol = 1e-12

[verification]
seed = 1234
points = 60
"""

INLINE_BODY = """
[system]
blocks = q1 | q2 | q3

[stackel]
row1 = "2", "1+q1", "2*q1^2+2"
row2 = "3", "q2", "q2^3+2"
row3 = "4", "q3", "q3^2+1"

[block1]
metric = "1"
potential = "-cos(q1)/2"

[block2]
potential = "-cos(q2)/2"

[block3]

[initial]
q = 0.2, -0.2, 0.0
p = 0.0, 0.0, 0.0

[integration]
t_span = 0.0, 3.0
samples = 80
"""


def write_config(tmp_path, body, name="run.ini", out=None):
    out = out or str(tmp_path / "out")
    path = tmp_path / name
    path.write_text(body + f"\n[output]\ndirectory = {out}\n")
    return str(path)


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def readme_inline_body():
    """The inline-system config of README.md, as written there."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read().split("An inline system replaces", 1)[1]
    return text.split("```ini\n", 1)[1].split("```", 1)[0]


# ---------------------------------------------------------------------------
# config parsing

def test_missing_file_names_path(tmp_path):
    missing = str(tmp_path / "nope.ini")
    with pytest.raises(ConfigError, match="nope.ini"):
        load_config(missing)


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[system]\ncatalog = pendula\nloose statement\n")
    with pytest.raises(ConfigError, match=r"bad.ini:3"):
        load_config(str(path))


def test_statement_outside_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("catalog = pendula\n")
    with pytest.raises(ConfigError, match=r"bad.ini:1.*section"):
        load_config(str(path))


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[system]\ncatalog = pendula\ncatalog = oscillators\n")
    with pytest.raises(ConfigError, match=r"bad.ini:3.*duplicate"):
        load_config(str(path))


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[system]\ncatalog = pendula\n[integration]\nstep = 2\n")
    with pytest.raises(ConfigError, match=r"bad.ini:4.*unknown key 'step'"):
        load_config(str(path))


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[system]\ncatalog = pendula\n[plotting]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"unknown section \[plotting\]"):
        load_config(str(path))


def test_comments_and_quoting(tmp_path):
    path = tmp_path / "ok.ini"
    path.write_text(
        "# full line comment\n"
        "[system]\n"
        "catalog = pendula   # trailing comment\n"
        "[verification]\n"
        'corrupt = 1, 1, "2+0.1*q2"  # quoted hash: "#" stays\n')
    cfg = load_config(str(path))
    assert cfg.system_name == "pendula"
    r, a, e = cfg.corrupt
    assert (r, a) == (1, 1)
    assert "0.1" in str(e)


def test_bad_expression_fails_at_load(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text('[system]\nblocks = q1\n[stackel]\nrow1 = "1+*q1"\n'
                    "[block1]\n[initial]\nq = 0.0\n")
    with pytest.raises(ConfigError, match=r"bad.ini:4"):
        load_config(str(path))


def test_wrong_block_row_names_entry(tmp_path):
    body = INLINE_BODY.replace('row1 = "2", "1+q1"', 'row1 = "2", "1+q2"')
    path = write_config(tmp_path, body)
    with pytest.raises(ConfigError, match=r"S\[1\]\[2\].*q2.*block-1"):
        load_config(path)


def test_initial_dimension_mismatch(tmp_path):
    body = INLINE_BODY.replace("q = 0.2, -0.2, 0.0", "q = 0.2, -0.2")
    body = body.replace("p = 0.0, 0.0, 0.0", "p = 0.0, 0.0")
    path = write_config(tmp_path, body)
    with pytest.raises(ConfigError, match="2 coordinates"):
        load_config(path)


def test_threshold_must_be_positive(tmp_path):
    path = write_config(tmp_path,
                        PENDULA_BODY + "\n[verification2]\n")
    # section name typo caught first
    with pytest.raises(ConfigError):
        load_config(path)
    path2 = tmp_path / "neg.ini"
    path2.write_text("[system]\ncatalog = pendula\n"
                     "[verification]\nbracket = -1e-8\n")
    with pytest.raises(ConfigError, match="positive"):
        load_config(str(path2))


def test_degenerate_span_rejected(tmp_path):
    path = tmp_path / "span.ini"
    path.write_text("[system]\ncatalog = pendula\n"
                    "[integration]\nt_span = 2.0, 2.0\n")
    with pytest.raises(ConfigError, match="nonzero length"):
        load_config(str(path))


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("span", ["0.0, nan", "0.0, inf", "-inf, 0.0"])
def test_non_finite_span_exits_config(tmp_path, capsys, command, span):
    body = PENDULA_BODY.replace("t_span = 0.0, 5.0", f"t_span = {span}")
    path = write_config(tmp_path, body)
    assert cli.main([command, "--config", path]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {path}: time span must be finite")


def test_a_system_only_file_loads_the_dataclass_defaults(tmp_path):
    path = tmp_path / "bare.ini"
    path.write_text("[system]\ncatalog = pendula\n")
    assert load_config(str(path)) == config.RunConfig(
        source=str(path), system_name="pendula")


def test_defaults_and_override():
    cfg = config.RunConfig(source="x", system_name="pendula")
    assert cfg.t_span == (0.0, 30.0)
    assert cfg.thresholds["bracket"] == 1e-8
    cfg2 = cfg.override(seed=9, out_dir=None, rtol=1e-8)
    assert cfg2.seed == 9
    assert cfg2.rtol == 1e-8
    assert cfg2.out_dir == cfg.out_dir


def test_echo_lists_every_default(tmp_path):
    path = write_config(tmp_path, PENDULA_BODY)
    cfg = load_config(path)
    lines = cfg.echo()
    assert lines == cfg.echo()
    text = "\n".join(lines)
    for needle in ("system = pendula", "rtol = ", "seed = 1234",
                   "threshold.bracket", "threshold.leaf"):
        assert needle in text


def test_pairs_parsing(tmp_path):
    path = tmp_path / "pairs.ini"
    path.write_text("[system]\ncatalog = pendula\n"
                    "[output]\npairs = q1:p1, q3:p2\n")
    cfg = load_config(str(path))
    assert cfg.pairs == ((1, 1), (3, 2))
    bad = tmp_path / "badpairs.ini"
    bad.write_text("[system]\ncatalog = pendula\n"
                   "[output]\npairs = q1-p1\n")
    with pytest.raises(ConfigError, match="q1:p1"):
        load_config(str(bad))


def test_system_box_key_is_rejected(tmp_path, capsys):
    # an inline system is probed in one box around its initial point,
    # the box verify samples; there is no key to narrow it
    body = INLINE_BODY.replace("blocks = q1 | q2 | q3\n",
                               "blocks = q1 | q2 | q3\nbox = -0.1, 0.1\n")
    path = write_config(tmp_path, body)
    assert cli.main(["simulate", "--config", path]) == 2
    assert "[system] unknown key 'box'" in capsys.readouterr().err


# sha256 of the float64 rows each system was checked at when built:
# the declared point, if any, then 20 points of its box at seed 42
@pytest.mark.parametrize("name, shape, digest", [
    ("pendula", (21, 3),
     "66e66218129d78fbcf0b8d7024752a5fbf7d821079776d5712afbc01c380cec3"),
    ("calogero4", (20, 4),
     "c487ea953065f4266561dd09ca9add48a5c7b32054539acdd4cd167f3538894d"),
    ("oscillators", (1, 3),
     "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0"),
    ("readme-inline", (21, 3),
     "e98e6093faf76c0852ea727a6dbef4810a91adfad8477d155014df798f2618f1"),
])
def test_build_probes_are_pinned(tmp_path, name, shape, digest):
    if name == "readme-inline":
        sys_ = load_config(write_config(tmp_path, readme_inline_body())).inline
    else:
        sys_ = catalog.load(name).system
    rows = np.array(sys_.probes, dtype="<f8")
    assert rows.shape == shape
    assert hashlib.sha256(rows.tobytes()).hexdigest() == digest


def test_system_params_decoded(tmp_path):
    path = tmp_path / "osc.ini"
    path.write_text("[system]\ncatalog = oscillators\n"
                    "omega = 1, 2, 4\nalpha = 2, 1, 0.5\n")
    cfg = load_config(str(path))
    assert cfg.system_params == {"omega": (1.0, 2.0, 4.0),
                                 "alpha": (2.0, 1.0, 0.5)}
    path2 = tmp_path / "fam.ini"
    path2.write_text('[system]\ncatalog = e3-case-ii\nc1 = -2\nf = "1"\n')
    cfg2 = load_config(str(path2))
    assert cfg2.system_params == {"c1": -2.0, "f": "1"}


# ---------------------------------------------------------------------------
# report types

def test_verification_report_renderings():
    checks = (cli.CheckResult("alpha", 1e-9, 1e-8),
              cli.CheckResult("beta", 2e-3, 1e-8, where="worst at (1 2)"))
    report = cli.VerificationReport(("config = x",), checks)
    assert not report.passed
    human = report.human()
    assert "FAIL" in human and "pass" in human and "# config = x" in human
    machine = report.machine()
    rows = machine.splitlines()
    assert rows[0] == "name,residual,threshold,status,where"
    assert rows[1].startswith("alpha,") and rows[1].endswith(",pass,")
    assert rows[2].startswith("beta,") and "fail" in rows[2]
    ok = cli.VerificationReport((), (cli.CheckResult("a", 0.0, 1e-8),))
    assert ok.passed


def test_svg_writer_structure(tmp_path):
    path = str(tmp_path / "plot.svg")
    xs = np.linspace(0, 1, 10)
    cli.write_polyline_svg(path, [("wave", xs, np.sin(xs)),
                                  ("flat", xs, np.zeros(10))],
                           "demo", "time", "value")
    text = open(path).read()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert "demo" in text and "time" in text and "value" in text
    # constant-only series must not divide by a zero span
    cli.write_polyline_svg(path, [("c", [0.0, 1.0], [2.0, 2.0])],
                           "const", "x", "y")
    assert "<polyline" in open(path).read()


def test_svg_points_match_the_per_point_mapping(tmp_path):
    # the array mapping must round as the point-by-point one, on lists
    # and on arrays alike
    rng = np.random.default_rng(3)
    series = [("a", rng.normal(0.0, 3.0, 200), rng.normal(1.0, 1e-3, 200)),
              ("b", rng.uniform(-7.0, 2.0, 50).tolist(),
               rng.uniform(-1.0, 1.0, 50).tolist())]
    path = str(tmp_path / "plot.svg")
    cli.write_polyline_svg(path, series, "t", "x", "y")
    x0, x1 = cli._bounds([float(v) for _, xs, _ in series for v in xs])
    y0, y1 = cli._bounds([float(v) for _, _, ys in series for v in ys])
    want = [" ".join(f"{64 + (float(x) - x0) / (x1 - x0) * (620 - 64):.2f},"
                     f"{430 - (float(y) - y0) / (y1 - y0) * (430 - 44):.2f}"
                     for x, y in zip(xs, ys)) for _, xs, ys in series]
    got = [line.split('points="')[1].split('"')[0]
           for line in open(path).read().splitlines() if "<polyline" in line]
    assert got == want


# ---------------------------------------------------------------------------
# commands

def test_list_prints_catalog(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["pendula", "oscillators", "calogero4",
                   "e3-case-i", "e3-case-ii"]


def test_unknown_catalog_name(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[system]\ncatalog = three-body\n")
    assert cli.main(["verify", "--config", str(path)]) == 2
    assert "three-body" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["atol = 0", "atol = nan",
                                     "rtol = -1e-8", "rtol = inf"])
def test_invalid_tolerance_exits_config(tmp_path, capsys, setting):
    key = setting.split()[0]
    body = "\n".join(setting if line.startswith(key + " =") else line
                     for line in PENDULA_BODY.splitlines())
    path = write_config(tmp_path, body)
    assert cli.main(["simulate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert key in err
    assert err.startswith(f"config error: {path}: ")


def test_too_many_blocks_exits_config(tmp_path, capsys):
    n = model.MAX_BLOCKS + 1
    blocks = " | ".join(f"q{r}" for r in range(1, n + 1))
    rows = "\n".join(f"row{r} = " + ", ".join(
        '"1"' if a == r else '"0"' for a in range(1, n + 1))
        for r in range(1, n + 1))
    body = (f"[system]\nblocks = {blocks}\n[stackel]\n{rows}\n"
            f"[initial]\nq = {', '.join(['0.0'] * n)}\n")
    path = write_config(tmp_path, body)
    assert cli.main(["simulate", "--config", path]) == 2
    assert capsys.readouterr().err == (
        f"config error: {path}: invalid inline system: {n} blocks, more "
        f"than the {n - 1} supported\n")


def test_invalid_tolerance_flag_exits_config(tmp_path, capsys):
    path = write_config(tmp_path, PENDULA_BODY)
    assert cli.main(["simulate", "--config", path, "--atol", "0"]) == 2
    err = capsys.readouterr().err
    assert "atol" in err
    assert err.startswith(f"config error: {path}: ")


def test_bad_builder_parameter(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[system]\ncatalog = pendula\nmass = 2\n")
    assert cli.main(["simulate", "--config", str(path)]) == 2
    assert "bad parameters" in capsys.readouterr().err


def test_a_failed_build_fails_the_same_again(tmp_path, capsys, cold_jets):
    # nothing is kept of a builder that raises: a second call in the
    # process builds again and reports in the same words
    path = tmp_path / "bad.ini"
    path.write_text("[system]\ncatalog = pendula\nmass = 2\n")
    for _ in range(2):
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: bad parameters for catalog entry 'pendula': "
            "pendula() got an unexpected keyword argument 'mass'\n")
    assert catalog._ENTRIES == {}


def test_missing_config_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate"])
    assert exc.value.code == 2


def test_main_builds_one_parser(monkeypatch, capsys):
    # the parser is built on the first call only, and the built one
    # still rejects an unknown flag with exit code 2
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        real(self, *args, **kwargs)
        if self.prog == "blocksep":
            built.append(self)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert cli.main(["list"]) == 0
    assert cli.main(["list"]) == 0
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["list", "--no-such-flag"])
        assert exc.value.code == 2
    assert len(built) == 1
    assert "--no-such-flag" in capsys.readouterr().err


def test_simulate_pendula(tmp_path, capsys):
    out = str(tmp_path / "out")
    path = write_config(tmp_path, PENDULA_BODY, out=out)
    assert cli.main(["simulate", "--config", path]) == 0
    text = capsys.readouterr().out
    assert "# system = pendula" in text
    assert "# initial.q" in text

    rows = open(os.path.join(out, "orbit.csv")).read().splitlines()
    assert rows[0] == ("t,q1,q2,q3,p1,p2,p3,tau_1,tau_2,tau_3,H,K_2,K_3")
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert data.shape[0] == 600
    assert np.all(np.diff(data[:, 0]) > 0)
    # conserved along the orbit
    assert np.max(np.abs(data[:, 10] - data[0, 10])) <= 1e-7
    assert np.max(np.abs(data[:, 11] - data[0, 11])) <= 1e-7


def test_simulate_deterministic(tmp_path, capsys):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    body = PENDULA_BODY + "\n"
    path = write_config(tmp_path, body, name="r1.ini", out=out1)
    assert cli.main(["simulate", "--config", path, "--svg"]) == 0
    assert cli.main(["simulate", "--config", path, "--svg",
                     "--out", out2]) == 0
    capsys.readouterr()
    first = open(os.path.join(out1, "orbit.csv"), "rb").read()
    second = open(os.path.join(out2, "orbit.csv"), "rb").read()
    assert first == second
    svg1 = open(os.path.join(out1, "phase_q1_p1.svg"), "rb").read()
    svg2 = open(os.path.join(out2, "phase_q1_p1.svg"), "rb").read()
    assert svg1 == svg2


def test_simulate_zero_field_rows_constant(tmp_path, capsys):
    body = """
[system]
blocks = q1 | q2
[stackel]
row1 = "1", "0"
row2 = "0", "1"
[block1]
[block2]
[initial]
q = 0.3, -0.4
[integration]
t_span = 0.0, 2.0
samples = 40
"""
    out = str(tmp_path / "out")
    path = write_config(tmp_path, body, out=out)
    assert cli.main(["simulate", "--config", path]) == 0
    capsys.readouterr()
    rows = open(os.path.join(out, "orbit.csv")).read().splitlines()
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert np.all(data[:, 1:5] == data[0, 1:5])
    assert np.allclose(data[:, 5], data[:, 0], atol=1e-12)


def test_simulate_failure_partial_csv(tmp_path, capsys):
    body = """
[system]
blocks = q1 | q2
[stackel]
row1 = "q1", "1"
row2 = "0", "1"
[block1]
[block2]
[initial]
q = 0.5, 0.0
p = -0.5, 0.2
[integration]
t_span = 0.0, 5.0
samples = 60
"""
    out = str(tmp_path / "out")
    path = write_config(tmp_path, body, out=out)
    assert cli.main(["simulate", "--config", path]) == 3
    err = capsys.readouterr().err
    assert "FAILED" in err and "orbit.csv" in err
    rows = open(os.path.join(out, "orbit.csv")).read().splitlines()
    assert rows[0].startswith("t,q1")
    assert len(rows) > 10   # partial data, not just the header
    last_t = float(rows[-1].split(",")[0])
    assert last_t < 5.0


def test_simulate_svg_closed_curve(tmp_path, capsys):
    body = PENDULA_BODY.replace("t_span = 0.0, 5.0", "t_span = 0.0, 30.0")
    out = str(tmp_path / "out")
    path = write_config(tmp_path, body + "\n", out=out)
    assert cli.main(["simulate", "--config", path, "--svg"]) == 0
    capsys.readouterr()
    svg = open(os.path.join(out, "phase_q1_p1.svg")).read()
    assert "<polyline" in svg and "q1" in svg and "p1" in svg


def test_simulate_checks_plot_pairs_before_integrating(tmp_path, capsys,
                                                       monkeypatch):
    # a pair outside the dimension is a config error found before the
    # orbit is integrated and before anything is printed or written
    calls = []
    monkeypatch.setattr(cli, "integrate", lambda *args: calls.append(args))
    out = str(tmp_path / "out")
    path = tmp_path / "run.ini"
    path.write_text(PENDULA_BODY + f"""
[output]
directory = {out}
pairs = q1:p1, q9:p1
""")
    assert cli.main(["simulate", "--config", str(path), "--svg"]) == 2
    captured = capsys.readouterr()
    assert "plot pair q9:p1 outside dimension 3" in captured.err
    assert captured.out == ""
    assert calls == []
    assert not os.path.exists(os.path.join(out, "orbit.csv"))


@pytest.mark.parametrize("command", ["simulate", "compare", "verify"])
def test_plot_pairs_are_checked_without_svg(tmp_path, capsys, monkeypatch,
                                            command):
    # a pair outside the dimension is a config error even when no
    # portrait is drawn, found before the orbit is integrated
    calls = []
    monkeypatch.setattr(cli, "integrate", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "compare_block_orbits",
                        lambda *args, **kw: calls.append(args))
    out = str(tmp_path / "out")
    path = tmp_path / "run.ini"
    path.write_text(PENDULA_BODY + f"""
[output]
directory = {out}
svg = false
pairs = q9:p1
""")
    assert cli.main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "plot pair q9:p1 outside dimension 3" in captured.err
    assert captured.out == ""
    assert calls == []
    assert not os.path.exists(out)


CALOGERO_SHORT = """
[system]
catalog = calogero4
[integration]
t_span = 0.0, 2.0
samples = 50
[verification]
seed = 5
points = 10
"""


def test_only_verify_builds_the_cartesian_reference(tmp_path, capsys,
                                                    monkeypatch, cold_jets):
    built = []
    real = catalog.CartesianReference

    def counted(*args, **kw):
        built.append(None)
        return real(*args, **kw)

    monkeypatch.setattr(catalog, "CartesianReference", counted)
    path = write_config(tmp_path, CALOGERO_SHORT, out=str(tmp_path / "out"))
    for command, code in (("simulate", 0), ("compare", 0)):
        assert cli.main([command, "--config", path]) == code
        assert built == []
    assert cli.main(["verify", "--config", path]) == 0
    assert len(built) == 1
    # the entry verify loaded, with the reference it built
    entry = catalog.load("calogero4")
    assert entry.cartesian is entry.cartesian and len(built) == 1
    assert cli.main(["verify", "--config", path]) == 0
    assert catalog.load("calogero4") is entry and len(built) == 1
    capsys.readouterr()


def test_simulate_svg_reads_the_csv_samples(tmp_path, capsys, monkeypatch):
    # the phase portraits take the q and p columns of the CSV rows: --svg
    # samples the orbit no more often than a run without it, and each
    # portrait is the one drawn from one sample of every row time
    calls = []
    sample = dynamics.Trajectory.sample

    def counted(self, t):
        calls.append(None)
        return sample(self, t)

    monkeypatch.setattr(dynamics.Trajectory, "sample", counted)
    out = str(tmp_path / "out")
    path = write_config(tmp_path, PENDULA_BODY, out=out)
    counts = []
    for flags in ([], ["--svg"]):
        calls.clear()
        assert cli.main(["simulate", "--config", path, *flags]) == 0
        counts.append(len(calls))
    capsys.readouterr()
    assert counts[1] == counts[0]

    cfg = config.load_config(path)
    entry = catalog.load("pendula")
    y0 = np.concatenate([entry.initial_point.as_array(),
                         np.zeros(entry.system.n)])
    traj = dynamics.integrate(
        dynamics.full_field_callable(entry.system), y0, cfg.t_span,
        dynamics.IntegratorConfig(rtol=cfg.rtol, atol=cfg.atol))
    states = traj.sample(np.linspace(*cfg.t_span, cfg.samples))
    N = entry.system.dim
    for k in range(1, N + 1):
        want = str(tmp_path / f"want_{k}.svg")
        cli.write_polyline_svg(
            want, [("orbit", states[:, k - 1], states[:, N + k - 1])],
            "pendula: phase portrait", f"q{k}", f"p{k}")
        with open(os.path.join(out, f"phase_q{k}_p{k}.svg"), "rb") as got:
            assert got.read() == open(want, "rb").read()


# the override flags each subcommand reads, besides --config
FLAGS = {
    "simulate": {"--out", "--svg", "--rtol", "--atol"},
    "compare": {"--block", "--out", "--rtol", "--atol"},
    "verify": {"--out", "--seed"},
    "curvature": {"--out", "--seed"},
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for command, flags in FLAGS.items():
        options = {o for a in commands[command]._actions
                   for o in a.option_strings}
        assert options == flags | {"--config", "-h", "--help"}
    assert sum(len(flags) for flags in FLAGS.values()) == 12


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_a_flag_a_subcommand_does_not_read_is_an_error(command, tmp_path,
                                                       capsys):
    path = write_config(tmp_path, PENDULA_BODY)
    for flag, value in (("--block", "1"), ("--svg", None), ("--seed", "1"),
                        ("--rtol", "1e-6"), ("--atol", "1e-8")):
        if flag in FLAGS[command]:
            continue
        argv = [command, "--config", path, flag] + ([value] if value else [])
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_compare_pendula_block1(tmp_path, capsys):
    out = str(tmp_path / "out")
    path = write_config(tmp_path, PENDULA_BODY, out=out)
    assert cli.main(["compare", "--config", path, "--block", "1"]) == 0
    text = capsys.readouterr().out
    assert "sup discrepancy" in text
    for name in ("overlay_block1_q1.svg", "series_t_block1.svg",
                 "series_tau_block1.svg"):
        assert os.path.exists(os.path.join(out, name))


def test_compare_threshold_is_config(tmp_path, capsys):
    body = PENDULA_BODY + "compare = 1e-15\n"
    path = write_config(tmp_path, body)
    assert cli.main(["compare", "--config", path, "--block", "1"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_compare_block_out_of_range(tmp_path, capsys):
    path = write_config(tmp_path, PENDULA_BODY)
    assert cli.main(["compare", "--config", path, "--block", "7"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_verify_pendula_passes(tmp_path, capsys):
    out = str(tmp_path / "out")
    path = write_config(tmp_path, PENDULA_BODY, out=out)
    assert cli.main(["verify", "--config", path]) == 0
    text = capsys.readouterr().out
    assert "overall: pass" in text
    assert "bracket(H,K_2)" in text
    machine = open(os.path.join(out, "verify_report.csv")).read()
    assert machine.splitlines()[0] == "name,residual,threshold,status,where"
    assert os.path.exists(os.path.join(out, "verify_report.txt"))


def test_verify_corrupted_entry_fails(tmp_path, capsys):
    body = PENDULA_BODY + 'corrupt = 1, 1, "2+0.1*q2"\n'
    path = write_config(tmp_path, body)
    assert cli.main(["verify", "--config", path]) == 1
    text = capsys.readouterr().out
    assert "overall: FAIL" in text
    # the corruption is visible in the echoed config
    assert "corrupt = S[1][1]" in text


def test_verify_calogero_includes_tensor_checks(tmp_path, capsys):
    body = """
[system]
catalog = calogero4
[verification]
seed = 5
points = 25
"""
    out = str(tmp_path / "out")
    path = write_config(tmp_path, body, out=out)
    assert cli.main(["verify", "--config", path]) == 0
    text = capsys.readouterr().out
    for needle in ("killing K_2", "torsion-normality K_2",
                   "haantjes-condition K_3", "characteristic K_3",
                   "overall: pass"):
        assert needle in text
    # every row, the flat-chart battery's too, names its worst probe
    rows = open(os.path.join(out, "verify_report.csv")).read().splitlines()
    assert all(r.rsplit(",", 1)[1].startswith("worst at (")
               for r in rows[1:])


def test_verify_makes_one_jet_per_flat_chart_grid(tmp_path, capsys,
                                                 monkeypatch, cold_jets):
    # K's covariant and mixed tags are one grid, and one jet
    made = []
    init = model._GridJet.__init__

    def counted(self, exprs, *args, **kw):
        made.append(tuple(exprs))
        init(self, exprs, *args, **kw)

    monkeypatch.setattr(model._GridJet, "__init__", counted)
    path = write_config(tmp_path, CALOGERO_SHORT, out=str(tmp_path / "out"))
    assert cli.main(["verify", "--config", path]) == 0
    capsys.readouterr()
    # the grids, equal in structure to the ones verify read
    grids = [tuple(e for row in K.tensor.grid for e in row)
             for K in catalog.load("calogero4").cartesian.integrals]
    assert grids[0] != grids[1]
    assert made.count(grids[0]) == made.count(grids[1]) == 1


def test_a_warm_verify_builds_and_keys_nothing(tmp_path, capsys,
                                              monkeypatch, cold_jets):
    # a second verify of calogero4, at another seed, parses no
    # expression, builds no system and makes no jet: its entry, the
    # integrals' scalars and the flat-chart jets are those of the first
    path = write_config(tmp_path, CALOGERO_SHORT, out=str(tmp_path / "out"))
    assert cli.main(["verify", "--config", path]) == 0
    calls = []

    def counting(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for module, name in ((expr, "parse"), (expr, "_jet_ops"),
                         (model, "build_system"), (catalog, "build_system")):
        monkeypatch.setattr(module, name,
                            counting(name, getattr(module, name)))
    monkeypatch.setattr(model._GridJet, "__init__", counting(
        "_GridJet", model._GridJet.__init__))
    assert cli.main(["verify", "--config", path, "--seed", "6"]) == 0
    assert "# seed = 6" in capsys.readouterr().out
    assert calls == []


def _outputs(argv, capsys):
    """The exit code, stdout, stderr and written files of one command,
    whose --out directory is the last argument, which it then removes."""
    code = cli.main(argv)
    out, err = capsys.readouterr()
    files = {name: open(os.path.join(argv[-1], name), "rb").read()
             for name in sorted(os.listdir(argv[-1]))}
    shutil.rmtree(argv[-1])
    return code, out, err, files


def test_held_entries_leave_no_trace_in_later_outputs(tmp_path, capsys,
                                                      cold_jets):
    # verify at seeds 1234, 1235 and 1234 with other commands between,
    # all in one process, writes what each writes in a cold process
    bodies = {
        "calogero4": CALOGERO_SHORT,
        "pendula": PENDULA_BODY,
        "e3-case-ii": "[system]\ncatalog = e3-case-ii\n"
                      "[verification]\npoints = 50\n",
    }
    paths = {name: write_config(tmp_path, body, name=f"{name}.ini")
             for name, body in bodies.items()}
    runs = [("verify", "calogero4", "1234"), ("simulate", "calogero4", None),
            ("verify", "calogero4", "1235"), ("compare", "pendula", None),
            ("curvature", "e3-case-ii", "1234"),
            ("verify", "calogero4", "1234")]

    def argv(k):  # the reports echo the --out directory
        command, name, seed = runs[k]
        return [command, "--config", paths[name],
                *(["--seed", seed] if seed else []),
                "--out", str(tmp_path / "out")]

    warm = [_outputs(argv(k), capsys) for k in range(len(runs))]
    for k in range(len(runs)):
        catalog._ENTRIES.clear()
        assert _outputs(argv(k), capsys) == warm[k]
    assert [w[0] for w in warm] == [0] * len(runs)


def test_verify_rejects_metric_family(tmp_path, capsys):
    path = tmp_path / "fam.ini"
    path.write_text("[system]\ncatalog = e3-case-i\n")
    assert cli.main(["verify", "--config", str(path)]) == 2
    assert "metric family" in capsys.readouterr().err


def test_curvature_case_i(tmp_path, capsys):
    body = "[system]\ncatalog = e3-case-i\n[verification]\npoints = 30\n"
    out = str(tmp_path / "out")
    path = write_config(tmp_path, body, out=out)
    assert cli.main(["curvature", "--config", path]) == 0
    text = capsys.readouterr().out
    assert "riemann max-norm" in text and "overall: pass" in text
    assert os.path.exists(os.path.join(out, "curvature_report.csv"))


def test_curvature_case_ii_leaf_scalar(tmp_path, capsys):
    body = "[system]\ncatalog = e3-case-ii\n[verification]\npoints = 50\n"
    path = write_config(tmp_path, body)
    assert cli.main(["curvature", "--config", path]) == 0
    text = capsys.readouterr().out
    assert "leaf scalar curvature" in text and "overall: pass" in text


def test_curvature_flags_wrong_profile(tmp_path, capsys):
    body = ('[system]\ncatalog = e3-case-ii\nf = "1+v^2+w^2"\n'
            "[verification]\npoints = 20\n")
    path = write_config(tmp_path, body)
    assert cli.main(["curvature", "--config", path]) == 1
    text = capsys.readouterr().out
    assert "overall: FAIL" in text
    assert "worst at (" in text


def test_curvature_rejects_dynamic_entry(tmp_path, capsys):
    path = write_config(tmp_path, PENDULA_BODY)
    assert cli.main(["curvature", "--config", path]) == 2
    assert "not a metric family" in capsys.readouterr().err


def test_singular_matrix_while_verifying_exits_numeric(tmp_path, capsys):
    # a valid two-block system whose probe box reaches its singular set:
    # at probe seed 6 the separation matrix is numerically singular
    body = """
[system]
blocks = q1 | q2

[stackel]
row1 = "1", "1"
row2 = "1", "1+exp(-0.1/abs(q2-0.29))"

[initial]
q = 0, 0
p = 0.1, 0.1
"""
    path = write_config(tmp_path, body)
    assert cli.main(["verify", "--config", path, "--seed", "6"]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: matrix numerically singular" in err
    assert "at q=(-0.29466251667873916, 0.287260537311178)" in err


def test_twist_failure_names_the_first_separability_row(tmp_path, capsys):
    # the system and probe seed above: the eigenvalue-gradient and
    # connection rows share one position jet per block of probes, and a
    # twist that fails at a probe is named as K_2's row, which runs first
    body = """
[system]
blocks = q1 | q2

[stackel]
row1 = "1", "1"
row2 = "1", "1+exp(-0.1/abs(q2-0.29))"

[initial]
q = 0, 0
p = 0.1, 0.1
"""
    path = write_config(tmp_path, body)
    assert cli.main(["verify", "--config", path, "--seed", "6"]) == 3
    err = capsys.readouterr().err.rstrip("\n")
    assert err.endswith("(in check eigenvalue-gradient K_2 at "
                        "q=(-0.29466251667873916, 0.287260537311178))")


def test_evaluation_failure_names_check_and_probe(tmp_path, capsys):
    # the same system at probe seed 1: 1 + exp(-0.1/|q2 - 0.29|) rounds
    # to 1 near q2 = 0.29, the separation determinant to 0, and the
    # bracket's cofactor inverse divides by it
    body = """
[system]
blocks = q1 | q2

[stackel]
row1 = "1", "1"
row2 = "1", "1+exp(-0.1/abs(q2-0.29))"

[initial]
q = 0, 0
p = 0.1, 0.1
"""
    path = write_config(tmp_path, body)
    assert cli.main(["verify", "--config", path, "--seed", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: division by zero")
    assert ("in check bracket(H,K_2) at "
            "q=(-0.008885415341018943, 0.28844231988074315)") in err


def test_ill_conditioned_twist_is_noted_on_stderr(tmp_path, capsys):
    # det S = 1e-9 (2 + q2^2), so cond1(S) is about 2e9 near q2 = 0
    body = """
[system]
blocks = q1 | q2

[stackel]
row1 = "1", "1"
row2 = "1", "1+1e-9*(2+q2^2)"

[initial]
q = 0, 0
p = 0.1, 0.1
"""
    path = write_config(tmp_path, body)
    assert cli.main(["verify", "--config", path]) == 1
    out, err = capsys.readouterr()
    assert "ill-conditioned" not in out
    lines = err.splitlines()
    assert len(lines) == 1
    head = ("verify: ill-conditioned separation matrix: 1-norm condition "
            "estimate ")
    assert lines[0].startswith(head)
    cond, probe = lines[0][len(head):].split(" exceeds 1e+08 at probe ")
    q = [float(v) for v in probe.strip("()").split()]
    stackel = cli._resolve_dynamic(load_config(path)).system.stackel
    S = walker.matrix_values(stackel.entries, {"q1": q[0], "q2": q[1]})
    # the probe is printed to 6 digits; cond hardly moves over that
    assert float(cond) == pytest.approx(
        model.invert_with_condition(S)[1], rel=1e-3)
    assert float(cond) > model.COND_WARN


def test_ill_conditioned_orbit_is_noted_on_stderr(tmp_path, capsys):
    # det S = 1e-9 (2 + q2^2): cond1(S) passes 1e8 at every row
    body = """
[system]
blocks = q1 | q2

[stackel]
row1 = "1", "1"
row2 = "1", "1+1e-9*(2+q2^2)"

[integration]
t_span = 0.0, 1.0
samples = 300

[initial]
q = 0, 0
p = 0.1, 0.1
"""
    out = str(tmp_path / "out")
    path = write_config(tmp_path, body, out=out)
    assert cli.main(["simulate", "--config", path]) == 0
    text, err = capsys.readouterr()
    assert "ill-conditioned" not in text
    lines = err.splitlines()
    assert len(lines) == 1
    head = ("simulate: ill-conditioned separation matrix: 1-norm condition "
            "estimate ")
    assert lines[0].startswith(head)
    cond, t = lines[0][len(head):].split(" exceeds 1e+08 at t = ")
    rows = open(os.path.join(out, "orbit.csv")).read().splitlines()[1:]
    times = [float(row.split(",")[0]) for row in rows]
    assert float(t) in [float(f"{x:.6g}") for x in times]
    assert float(cond) > model.COND_WARN


def test_well_conditioned_simulate_writes_no_stderr(tmp_path, capsys):
    path = write_config(tmp_path, PENDULA_BODY)
    assert cli.main(["simulate", "--config", path]) == 0
    assert capsys.readouterr().err == ""


def test_well_conditioned_verify_writes_no_stderr(tmp_path, capsys):
    path = write_config(tmp_path, PENDULA_BODY)
    assert cli.main(["verify", "--config", path]) == 0
    assert capsys.readouterr().err == ""


def test_verify_keeps_no_twist_of_a_finished_probe_block(tmp_path,
                                                        monkeypatch):
    # the note needs each block's largest cond and its probe, not the
    # block's Twist with its cached partials
    made = []
    init = model.Twist.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    alive = []
    row = cli._row

    def counting(name, *args):
        if name.startswith("block-connection"):
            gc.collect()
            alive.append(sum(ref() is not None for ref in made))
        return row(name, *args)

    monkeypatch.setattr(model.Twist, "__init__", recording)
    monkeypatch.setattr(cli, "_row", counting)
    path = write_config(tmp_path, PENDULA_BODY.replace("points = 60",
                                                       "points = 300"))
    assert cli.main(["verify", "--config", path]) == 0
    assert len(made) >= 3   # one per block of 128 probes, at least
    assert alive == [0, 0]


@pytest.mark.parametrize("command", ["simulate", "compare", "verify"])
def test_a_run_leaves_no_reference_cycle(tmp_path, capsys, command):
    # the system and its jet, and the closures that call themselves,
    # are freed as their last reference goes: a run leaves the cyclic
    # collector nothing to find
    path = write_config(tmp_path, PENDULA_BODY)
    assert cli.main([command, "--config", path]) == 0  # first-use caches
    gc.collect()
    gc.disable()
    try:
        assert cli.main([command, "--config", path]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(blocksep.__file__))))
    proc = subprocess.run([sys.executable, "-m", "blocksep", "list"],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "pendula"
    assert proc.stderr == ""


def tree_walked_energies(sys_, q, p):
    """Block energies by one tree walk per metric entry and potential."""
    env = position_env(sys_, q)
    out = []
    for r, blk in enumerate(sys_.blocks, start=1):
        idx = sys_.structure.block_range(r)
        kinetic = 0.0
        for i, gi in enumerate(idx):
            for j, gj in enumerate(idx):
                gij = walker.evaluate(blk.metric[i][j], env)
                kinetic += gij * p[gi] * p[gj]
        out.append(0.5 * kinetic + walker.evaluate(blk.potential, env))
    return np.array(out)


@pytest.mark.parametrize("name", ["pendula", "oscillators", "calogero4"])
def test_orbit_integral_columns_are_row_dots(name, tmp_path, capsys):
    # H and K_a are (S^-1)[a] @ E, E the block energies: the same bits
    # as a tree-walked S, its gated inverse and tree-walked energies
    body = f"""
[system]
catalog = {name}
[integration]
t_span = 0.0, 2.0
samples = 40
"""
    out = str(tmp_path / "out")
    path = write_config(tmp_path, body, out=out)
    assert cli.main(["simulate", "--config", path]) == 0
    capsys.readouterr()
    sys_ = catalog.load(name).system
    N, n = sys_.dim, sys_.n
    rows = open(os.path.join(out, "orbit.csv")).read().splitlines()[1:]
    for row in rows:
        vals = [float(v) for v in row.split(",")]
        q, p = vals[1:1 + N], vals[1 + N:1 + 2 * N]
        S = walker.matrix_values(sys_.stackel.entries,
                                 position_env(sys_, q))
        M, _ = model.invert_with_condition(S)
        E = tree_walked_energies(sys_, q, p)
        assert vals[1 + 2 * N + n:] == [float(M[a] @ E) for a in range(n)]


@pytest.mark.parametrize("target, check", [
    ("poisson_bracket", "bracket(H,K_2)"),
    ("block_eisenhart_residual", "eigenvalue-gradient K_2"),
], ids=["bracket", "eigenvalue-gradient"])
def test_nan_residual_at_a_later_probe_fails(target, check, tmp_path,
                                             capsys, monkeypatch):
    # Python's max drops a nan that follows a number; the check must
    # report nan and fail instead.  Each check takes its probes in one
    # stack: the first call is the check named, and its second probe's
    # residual is replaced
    real = getattr(geometry, target)
    calls = []

    def nan_at_second_probe(*args):
        calls.append(None)
        out = np.array(real(*args))
        if len(calls) == 1:
            out[1] = math.nan
        return out

    monkeypatch.setattr(geometry, target, nan_at_second_probe)
    out = str(tmp_path / "out")
    path = write_config(tmp_path, PENDULA_BODY, out=out)
    assert cli.main(["verify", "--config", path]) == 1
    assert "overall: FAIL" in capsys.readouterr().out
    # name,residual,threshold,status,where; a name may hold a comma
    rows = [r.rsplit(",", 4) for r in
            open(os.path.join(out, "verify_report.csv")).read().splitlines()]
    assert {(r[0], r[1], r[3]) for r in rows[1:] if r[3] != "pass"} == {
        (check, "nan", "fail")}


def test_simulate_integrates_once(tmp_path, monkeypatch):
    # the orbit and its clocks come from one integration
    from blocksep import dynamics

    calls = []
    real = dynamics.integrate

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate", counted)
    monkeypatch.setattr(cli, "integrate", counted)
    out = str(tmp_path / "out")
    path = write_config(tmp_path, PENDULA_BODY, out=out)
    assert cli.main(["simulate", "--config", path]) == 0
    assert len(calls) == 1
    rows = open(os.path.join(out, "orbit.csv")).read().splitlines()
    assert rows[0] == "t,q1,q2,q3,p1,p2,p3,tau_1,tau_2,tau_3,H,K_2,K_3"
    assert rows[1].split(",")[7:10] == ["0", "0", "0"]


CASE_II_BODY = "[system]\ncatalog = e3-case-ii\n[verification]\npoints = 10\n"


@pytest.mark.parametrize("target, value, check", [
    ("riemann", np.full((3, 3, 3, 3), math.nan), "riemann max-norm"),
    ("ricci_scalar", math.nan, "leaf scalar curvature"),
])
def test_nan_curvature_at_a_later_point_fails(target, value, check,
                                               tmp_path, capsys,
                                               monkeypatch):
    # the check takes its points in one stack; the second point's
    # result is replaced
    real = getattr(geometry, target)

    def nan_at_second_point(*args):
        out = np.array(real(*args))
        out[1] = value
        return out

    monkeypatch.setattr(geometry, target, nan_at_second_point)
    out = str(tmp_path / "out")
    path = write_config(tmp_path, CASE_II_BODY, out=out)
    assert cli.main(["curvature", "--config", path]) == 1
    assert "overall: FAIL" in capsys.readouterr().out
    rows = [r.rsplit(",", 4) for r in open(
        os.path.join(out, "curvature_report.csv")).read().splitlines()]
    second = catalog.load("e3-case-ii").sample(10, 1234)[1]
    where = "worst at (" + " ".join(f"{v:.6g}" for v in second) + ")"
    assert [r for r in rows[1:] if r[3] != "pass"] == [
        [check, "nan", "9.9999999999999995e-07", "fail", where]]


def test_curvature_evaluation_failure_names_check_and_point(
        tmp_path, capsys, monkeypatch):
    # the check takes its points in one stack, which fails because its
    # second point does; that point alone fails again
    real = geometry.riemann
    points = []

    def failing_at_second_point(metric, qs):
        qs = [tuple(float(v) for v in q) for q in qs]
        points.extend(qs)
        if points[1] in qs:
            raise expr.DomainError("ln of a non-positive value")
        return real(metric, qs)

    monkeypatch.setattr(geometry, "riemann", failing_at_second_point)
    path = write_config(tmp_path, CASE_II_BODY)
    assert cli.main(["curvature", "--config", path]) == 3
    err = capsys.readouterr().err.rstrip("\n")
    assert err.startswith("numerical failure: ln of a non-positive value")
    assert err.endswith(f"(in check riemann max-norm at q={points[1]})")


@pytest.mark.parametrize("command, body, code, message", [
    ("curvature", '[system]\ncatalog = e3-case-ii\nf = "exp(800*v)"\n'
     "[verification]\npoints = 10\n", 3, "in check riemann max-norm at q="),
    ("simulate", """
[system]
blocks = q1 | q2
[stackel]
row1 = "1", "1"
row2 = "0", "1"
[block1]
potential = "exp(1000*q1)"
[initial]
q = 0.8, 0
""", 3, "value overflows the float range"),
    ("simulate", """
[system]
blocks = q1 | q2
[stackel]
row1 = "ln(q1)", "1"
row2 = "0", "1"
[initial]
q = 0.1, 0
""", 2, "invalid inline system: separation matrix entry S[1][1] fails at "
        "q=("),
], ids=["curvature-overflow", "simulate-overflow", "inline-probe-failure"])
def test_expression_failure_exits_with_its_code(command, body, code, message,
                                               tmp_path, capsys):
    # an overflow, or a failing entry while the inline system is built,
    # ends in an exit code and a message, never in a traceback
    path = write_config(tmp_path, body)
    assert cli.main([command, "--config", path]) == code
    assert message in capsys.readouterr().err


SINGULAR_AT_ORIGIN = """
[system]
blocks = q1 | q2
[stackel]
row1 = "q1", "1"
row2 = "0", "1"
"""


@pytest.mark.parametrize("command, initial, message", [
    *((command, "", "an inline system needs [initial] q")
      for command in ("simulate", "compare", "verify")),
    ("curvature", "", "needs a catalog metric family, not an inline system"),
    ("simulate", "[initial]\nq = 0.5\n",
     "initial point has 1 coordinates for a 2-dimensional system"),
])
def test_inline_system_without_its_initial_point_names_it(
        tmp_path, capsys, command, initial, message):
    # S is singular at the origin; with no initial point to probe
    # around, each command rejects the config for the missing point,
    # not for the origin
    path = write_config(tmp_path, SINGULAR_AT_ORIGIN + initial)
    assert cli.main([command, "--config", path]) == 2
    err = capsys.readouterr().err
    assert message in err and "singular" not in err


@pytest.mark.parametrize("command", ["simulate", "compare", "verify"])
def test_readme_inline_config_runs(tmp_path, capsys, command):
    path = write_config(tmp_path, readme_inline_body())
    assert cli.main([command, "--config", path]) == 0


def test_corrupt_demo_fails_unless_the_corrupted_battery_fails(
        tmp_path, capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "run_calogero_verify",
        os.path.join(ROOT, "scripts", "run_calogero_verify.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    argv = ["--points", "10", "--out", str(tmp_path / "calogero4"),
            "--corrupt"]
    assert script.main(argv) == 0
    assert "corrupted battery exit code: 1" in capsys.readouterr().out

    # a battery that passes the corrupted matrix fails the demo
    verify = cli.cmd_verify
    monkeypatch.setattr(cli, "cmd_verify", lambda cfg: (
        cli.EXIT_OK if cfg.corrupt is not None else verify(cfg)))
    assert script.main(argv) == cli.EXIT_VERIFY
    assert "corrupted battery exit code: 0" in capsys.readouterr().out
