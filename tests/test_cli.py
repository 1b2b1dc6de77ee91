"""Config grammar and command-line behavior.

Commands run in-process through cli.main so exit codes, stdout reports
and written artifacts are all observable without subprocesses.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import blocksep
from blocksep import catalog, cli, config, expr, model
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


def test_bad_builder_parameter(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[system]\ncatalog = pendula\nmass = 2\n")
    assert cli.main(["simulate", "--config", str(path)]) == 2
    assert "bad parameters" in capsys.readouterr().err


def test_missing_config_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate"])
    assert exc.value.code == 2


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
box = -0.1, 0.1
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
    path = write_config(tmp_path, body)
    assert cli.main(["verify", "--config", path]) == 0
    text = capsys.readouterr().out
    for needle in ("killing K_2", "torsion-normality K_2",
                   "haantjes-condition K_3", "characteristic K_3",
                   "overall: pass"):
        assert needle in text


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
    env = sys_.env(q)
    out = []
    for r, blk in enumerate(sys_.blocks, start=1):
        idx = sys_.structure.block_range(r)
        kinetic = 0.0
        for i, gi in enumerate(idx):
            for j, gj in enumerate(idx):
                gij = expr.evaluate(blk.metric[i][j], env)
                kinetic += gij * p[gi] * p[gj]
        out.append(0.5 * kinetic + expr.evaluate(blk.potential, env))
    return np.array(out)


@pytest.mark.parametrize("name", ["pendula", "calogero4"])
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
        S = model.matrix_values(sys_.stackel.entries, sys_.env(q))
        M, _, _ = model.invert_with_condition(S)
        E = tree_walked_energies(sys_, q, p)
        assert vals[1 + 2 * N + n:] == [float(M[a] @ E) for a in range(n)]


def test_partial_csv_survives_clock_model_error(tmp_path, capsys,
                                                 monkeypatch):
    # the system of test_simulate_failure_partial_csv, with clocks that
    # fail with a model error (a singular twist, say): the partial orbit
    # is still written, without clock columns
    body = """
[system]
blocks = q1 | q2
box = -0.1, 0.1
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

    def failing_clock(sys_, trajectory, r):
        raise model.SingularMatrixError("matrix numerically singular",
                                        cond=1e13, point=(0.0, 0.0))

    monkeypatch.setattr(cli, "block_clock", failing_clock)
    out = str(tmp_path / "out")
    path = write_config(tmp_path, body, out=out)
    assert cli.main(["simulate", "--config", path]) == 3
    err = capsys.readouterr().err
    assert "partial orbit written" in err
    rows = open(os.path.join(out, "orbit.csv")).read().splitlines()
    assert rows[0] == "t,q1,q2,p1,p2,tau_1,tau_2,H,K_2"
    assert len(rows) > 10
    assert all(row.split(",")[5:7] == ["nan", "nan"] for row in rows[1:])
