"""The orbit read out in blocks of times.

``Trajectory.sample`` at an array of times must equal, bit for bit, the
sample at each time taken one at a time, on forward and backward orbits,
at step ends and at unsorted and repeated times, over several gathers
of ``dynamics._CHUNK`` times; an array holding a time outside the span
names the first such time, and a sample's temporary memory stays the
size of one gather.  S and the block energies over a stack of rows
equal their float form at each row, bit for bit, and a stack raises the
float form's error of its first failing row.  The CSV rows of
``simulate`` are made per block of ``cli._CSV_BLOCK`` times (one
sample, one stack call each of S and the energies, one stacked gated
inverse of S, one stacked row dot) and must be byte-identical to rows
made one time at a time, forward and backward; a block holding a row
whose S fails the gate raises the error of the first failing row, as
the rows one at a time would.  A block's text equals ``%.17g`` of each
value, on drawn blocks and on a list of edge values.
"""

import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from conftest import PENDULA_P0, make_pendula_like

from blocksep import catalog, cli, dynamics, expr, model
from blocksep.dynamics import (DynamicsError, IntegrationError,
                               IntegratorConfig, block_clock,
                               compare_block_orbits, full_field_callable,
                               integrate)


def with_clocks(sys_, point):
    return np.concatenate([point.as_array(), np.zeros(sys_.n)])


def orbit(sys_, point, span, rtol=1e-6, atol=1e-8):
    return integrate(full_field_callable(sys_), with_clocks(sys_, point),
                     span, IntegratorConfig(rtol=rtol, atol=atol))


def interpolant(traj, t):
    """The DOP853 dense output at the time t, a float, taken on its own:
    the step i holding t, x = (t - t_i) / h, u = 1 - x, and
    ys[i] + (x, xu, x^2 u, x^2 u^2, x^3 u^2, x^3 u^3, x^4 u^3) @ F."""
    key = t * traj.direction
    i = int(np.searchsorted(traj.ts * traj.direction, key, side="right")) - 1
    i = min(max(i, 0), len(traj) - 2)
    t_old, h = float(traj.ts[i]), float(traj.h[i])
    F = traj.F[i].T  # the step's (7, d) layout, strides (8, 8 * 7)
    assert F.shape == (7, traj.dim) and F.strides == (8, 56)
    x = min(max((t - t_old) / h, 0.0), 1.0)
    xu = x * (1.0 - x)
    xu2 = xu * xu
    xu3 = xu2 * xu
    w = np.array((x, xu, x * xu, xu2, x * xu2, xu3, x * xu3))
    return traj.ys[i] + w @ F


def one_by_one(traj, ts):
    return np.array([interpolant(traj, float(t)) for t in ts])


# ---------------------------------------------------------------------------
# the array sample

@pytest.mark.parametrize("span", [(0.0, 10.0), (0.0, -10.0)])
def test_array_sample_equals_per_time_sample(span):
    # sorted, unsorted and repeated times over many steps, in three
    # gathers and a partial one
    entry = catalog.load("oscillators")
    traj = orbit(entry.system, entry.initial_point, span, 1e-8, 1e-10)
    assert len(traj) > 40
    rng = np.random.default_rng(7)
    sorted_ = np.linspace(*span, 1301)
    ts = np.concatenate([sorted_, traj.ts, [traj.t_start, traj.t_end],
                         rng.permutation(np.linspace(*span, 97)),
                         rng.choice(sorted_, 200)])
    assert len(ts) > 3 * dynamics._CHUNK
    want = one_by_one(traj, ts)
    assert np.array_equal(traj.sample(ts), want)
    assert np.array_equal([traj.sample(float(t)) for t in ts], want)
    assert np.array_equal(traj.sample(ts.tolist()), want)
    assert traj.sample(ts[:0]).shape == (0, traj.dim)
    assert traj.sample(span[1]).shape == (traj.dim,)


def test_partial_orbit_samples_as_per_time_sample():
    # y0' = y0^2 blows up at t = 1; the orbit up to there is sampled
    def field(t, y):
        return (y[0] * y[0], math.sin(t + y[1]) * y[0])

    with pytest.raises(IntegrationError) as exc:
        integrate(field, [1.0, 0.5], (0.0, 2.0),
                  IntegratorConfig(rtol=1e-8, atol=1e-10))
    partial = exc.value.partial
    assert len(partial) > 20
    ts = np.linspace(0.0, partial.t_end, 2 * dynamics._CHUNK + 7)
    assert np.array_equal(partial.sample(ts), one_by_one(partial, ts))


def rates_per_step(traj, column, cuts):
    """``Trajectory.rates`` as one row of F per step, stacked."""
    x = np.linspace(0.0, 1.0, cuts + 1)
    u = 1.0 - x
    dw = np.array([np.ones_like(x), u - x, x * (2 * u - x),
                   2 * x * u * (u - x), x * x * u * (3 * u - 2 * x),
                   3 * (x * u) ** 2 * (u - x),
                   x ** 3 * u * u * (4 * u - 3 * x)])
    h = traj.h[:, None]
    F = np.array([traj.F[i].T[:, column] for i in range(len(traj) - 1)])
    return (traj.ts[:-1, None] + h * x).ravel(), (F @ dw / h).ravel()


@pytest.mark.parametrize("span", [(0.0, 6.0), (0.0, -6.0)])
def test_rates_equal_the_per_step_rates(span):
    sys_ = make_pendula_like()
    traj = orbit(sys_, PENDULA_P0, span)
    for column in (0, traj.dim - 1):
        for got, want in zip(traj.rates(column, 64),
                             rates_per_step(traj, column, 64)):
            assert np.array_equal(got, want)


def test_sampling_many_times_keeps_its_memory_small():
    # the gather runs per chunk of times: an unchunked one would hold
    # 7 coefficients per output entry at once
    sys_ = make_pendula_like()
    traj = orbit(sys_, PENDULA_P0, (0.0, 6.0))
    ts = np.linspace(0.0, 6.0, 100_000)
    tracemalloc.start()
    try:
        out = traj.sample(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (len(ts), traj.dim)
    assert peak <= 3 * out.nbytes


def test_array_sample_names_the_first_time_outside_the_span():
    sys_ = make_pendula_like()
    traj = orbit(sys_, PENDULA_P0, (0.0, 2.0))
    with pytest.raises(DynamicsError) as one:
        traj.sample(2.5)
    with pytest.raises(DynamicsError) as many:
        traj.sample(np.array([0.5, 2.5, -1.0, 3.0]))
    assert str(many.value) == str(one.value)
    assert "time 2.5 outside" in str(many.value)


def test_array_clock_reads_the_array_sample():
    sys_ = make_pendula_like()
    traj = orbit(sys_, PENDULA_P0, (0.0, 4.0))
    ts = np.linspace(0.0, 4.0, 200)
    for r in range(1, sys_.n + 1):
        clock = block_clock(sys_, traj, r)
        taus = clock.tau(ts)
        assert taus.shape == ts.shape
        assert taus.tolist() == [clock.tau(float(t)) for t in ts]


def test_compare_states_are_the_per_time_samples():
    sys_ = make_pendula_like()
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-10)
    report = compare_block_orbits(sys_, PENDULA_P0, 2, (0.0, 3.0), cfg)
    full = orbit(sys_, PENDULA_P0, (0.0, 3.0), cfg.rtol, cfg.atol)
    cols = [1, sys_.dim + 1]
    assert np.array_equal(report.full_states,
                          one_by_one(full, report.times)[:, cols])


# ---------------------------------------------------------------------------
# the stacked gate

BAD = {
    "singular": np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]]),
    "nan": np.array([[math.nan, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "ill": np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-13, 0.0],
                     [0.0, 0.0, 1.0]]),
}


def gate_error(S, point):
    with pytest.raises(model.ModelError) as err:
        model.invert_with_condition(S, point=point)
    return err.value


def healthy_stack(m=300):
    rng = np.random.default_rng(3)
    S = rng.uniform(-1.0, 1.0, (m, 3, 3)) + 3.0 * np.eye(3)
    return S, [(0.001 * k, -0.5, 2.0) for k in range(m)]


def test_stack_inverse_equals_row_inverses():
    S, points = healthy_stack()
    assert np.array_equal(model.invert_with_condition(S, points)[0],
                          [model.invert_with_condition(s)[0] for s in S])


@pytest.mark.parametrize("rows", [(140, 200, 290), (290, 200, 131),
                                  (260, 256, 255), (0, 299, 150)])
@pytest.mark.parametrize("kinds", list(itertools.permutations(sorted(BAD))))
def test_stack_inverse_raises_the_first_failing_row(rows, kinds):
    S, points = healthy_stack()
    for row, kind in zip(rows, kinds):
        S[row] = BAD[kind]
    first = min(rows)
    want = gate_error(S[first], points[first])
    with pytest.raises(model.ModelError) as got:
        model.invert_with_condition(S, points)
    assert type(got.value) is type(want)
    assert str(got.value) == str(want)
    assert got.value.point == points[first]


# ---------------------------------------------------------------------------
# S and the block energies over a stack of rows

def float_forms(sys_):
    """S's entries and the block energies compiled on floats, one point
    per call, from the expressions the jet compiles."""
    entries = [e for row in sys_.stackel.entries for e in row]
    return (expr.compile(entries, sys_.structure.names),
            expr.compile(*sys_.jet._energies))


def random_rows(entry, count, seed):
    """Phase points with positions in the entry's box, (count, 2N)."""
    rng = np.random.default_rng(seed)
    lo, hi = np.array(entry.sample_box).T
    qs = rng.uniform(lo, hi, (count, len(lo)))
    return np.hstack([qs, rng.uniform(-1.0, 1.0, qs.shape)])


@pytest.mark.parametrize("name", ["pendula", "oscillators", "calogero4"])
def test_stack_stackel_and_energies_equal_the_float_form(name):
    entry = catalog.load(name)
    sys_ = entry.system
    n, N = sys_.n, sys_.dim
    ys = random_rows(entry, 300, 5)
    S_at, H_at = float_forms(sys_)
    S = sys_.jet.stackel(ys[:, :N])
    H = sys_.jet.energies(ys)
    assert S.shape == (300, n, n) and H.shape == (300, n)
    want_S = np.array([S_at(*y) for y in ys[:, :N].tolist()])
    want_H = np.array([H_at(*y) for y in ys.tolist()])
    assert S.reshape(300, -1).tobytes() == want_S.tobytes()
    assert H.tobytes() == want_H.tobytes()
    # a single point runs the float form, with the same values
    y = ys[7].tolist()
    assert np.array_equal(sys_.jet.twist(y[:N]).matrix,
                          model.invert_with_condition(S[7])[0])
    assert np.array_equal(model._block_energies(
        sys_, model.PhasePoint(y[:N], y[N:])), H[7])


@pytest.mark.parametrize("rows", [(3,), (0, 255), (140, 20, 299)])
def test_stack_stackel_raises_the_float_error_of_the_first_row(rows):
    # calogero4's S[1][3] = -1/r^2 divides by zero where r = 0, and
    # 1/sin(phi2)^2 in block 3's metric where phi2 = 0
    entry = catalog.load("calogero4")
    sys_ = entry.system
    N = sys_.dim
    S_at, H_at = float_forms(sys_)
    for column, jet_call, float_call, width in (
            (0, sys_.jet.stackel, S_at, N),
            (2, sys_.jet.energies, H_at, 2 * N)):
        ys = random_rows(entry, 300, 9)[:, :width]
        ys[list(rows), column] = 0.0
        with pytest.raises(expr.DomainError) as want:
            float_call(*ys[min(rows)].tolist())
        with pytest.raises(expr.ExprError) as got:
            jet_call(ys)
        assert type(got.value) is expr.DomainError
        assert str(got.value) == str(want.value)
        assert got.value.offset == want.value.offset is not None


# ---------------------------------------------------------------------------
# the CSV rows

def per_row_csv(sys_, traj, clocks, times):
    """orbit.csv's rows made one time at a time."""
    N = sys_.dim
    rows = []
    for t in times:
        state = interpolant(traj, float(t))
        y = state[:2 * N].tolist()
        taus = [float(state[c.column]) for c in clocks]
        tw = sys_.jet.twist(y[:N])
        E = sys_.jet.energies([y])[0]
        vals = [float(t), *y, *taus, *[float(row @ E) for row in tw.matrix]]
        rows.append(",".join(f"{v:.17g}" for v in vals))
    return rows


# rows of a CSV: two full blocks and a partial one
B = cli._CSV_BLOCK
ROWS = 2 * B + 44


# (span, rtol, atol, rows): the readout settings, the orbits settings
# and a backward span
SETTINGS = [((0.0, 10.0), 1e-6, 1e-8, ROWS), ((0.0, 10.0), 1e-10, 1e-12, 600),
            ((0.0, -10.0), 1e-6, 1e-8, ROWS)]


@pytest.mark.parametrize("span, rtol, atol, rows", SETTINGS,
                         ids=["readout", "orbits", "backward"])
@pytest.mark.parametrize("name", ["pendula", "oscillators", "calogero4"])
def test_simulate_rows_equal_per_row_rows(name, span, rtol, atol, rows,
                                          tmp_path, capsys):
    out = str(tmp_path / "out")
    path = tmp_path / "run.ini"
    path.write_text(f"""
[system]
catalog = {name}
[integration]
t_span = {span[0]!r}, {span[1]!r}
rtol = {rtol!r}
atol = {atol!r}
samples = {rows}
[output]
directory = {out}
""")
    assert cli.main(["simulate", "--config", str(path)]) == 0
    capsys.readouterr()
    entry = catalog.load(name)
    sys_ = entry.system
    traj = orbit(sys_, entry.initial_point, span, rtol, atol)
    clocks = [block_clock(sys_, traj, r) for r in range(1, sys_.n + 1)]
    rows = per_row_csv(sys_, traj, clocks, np.linspace(*span, rows))
    want = "\n".join([cli._csv_header(sys_)] + rows) + "\n"
    with open(os.path.join(out, "orbit.csv"), encoding="utf-8") as fh:
        assert fh.read() == want


def percent_rows(block):
    """A block's rows as ``%.17g`` text, one value at a time."""
    return "\n".join(",".join("%.17g" % v for v in row)
                     for row in block.tolist())


# a failing block is reported as drawn: shrinking a pool and a shape of
# up to 4,500 values, each step checked against % one value at a time,
# ran for minutes
@settings(max_examples=300, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.lists(st.floats(width=64), min_size=1, max_size=64),
       st.integers(1, 300), st.integers(1, 15), st.integers(0, 2 ** 32 - 1))
def test_row_text_is_percent_17g(pool, rows, cols, seed):
    # the values of a block are drawn from the pool, which may hold nan,
    # +-inf, +-0.0 and subnormals
    pick = np.random.default_rng(seed).integers(len(pool), size=(rows, cols))
    block = np.array(pool)[pick]
    assert cli._g17(block) == percent_rows(block)


def _edge_values():
    # ties of the 18th digit (% rounds them to even); each power of ten
    # from 1e-26 to 1e21 and its neighbours, which hold the ends of the
    # array range (1e-25 and 1e20) and the %g switch points (1e-5, 1e-4,
    # 1e16 and 1e17); a 17-nines literal, which is 1e17; zeros, nan,
    # infinities and the extremes of the doubles
    values = [1234567890123456.75, 1234567890123456.25, 99999999999999999.0,
              0.0, math.nan, math.inf, 5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308]
    for e in range(-26, 22):
        power = float(f"1e{e}")
        values += [np.nextafter(power, 0.0), power,
                   np.nextafter(power, math.inf)]
    return np.array(values + [-v for v in values])


@pytest.mark.parametrize("shape", [(-1, 1), (1, -1), (-1, 6)])
def test_row_text_is_percent_17g_at_the_edges(shape):
    block = _edge_values().reshape(shape)
    assert cli._g17(block) == percent_rows(block)


@pytest.fixture
def rigged():
    """A pendula-like orbit over ``ROWS`` CSV times, its rows' positions,
    and a function that makes S at chosen rows a given matrix."""
    sys_ = make_pendula_like()
    traj = orbit(sys_, PENDULA_P0, (0.0, 3.0))
    times = np.linspace(0.0, 3.0, ROWS)
    N = sys_.dim
    qs = [tuple(state[:N].tolist()) for state in one_by_one(traj, times)]
    jet = sys_.jet
    real = jet.stackel

    def rig(bad, monkeypatch):
        bad = {qs[row]: S for row, S in bad.items()}
        monkeypatch.setitem(jet.__dict__, "stackel", lambda rows: np.array(
            [bad.get(tuple(q), S) for q, S in zip(rows, real(rows))]))

    clocks = [block_clock(sys_, traj, r) for r in range(1, sys_.n + 1)]
    return sys_, traj, clocks, times, qs, rig


@pytest.mark.parametrize("rows", [(B + 12, B + 72, 2 * B + 34),
                                  (2 * B + 34, B + 72, B + 3),
                                  (2 * B + 4, 2 * B, 2 * B - 1)])
@pytest.mark.parametrize("kinds", list(itertools.permutations(sorted(BAD))))
def test_blocked_rows_raise_the_first_failing_row(rigged, rows, kinds,
                                                  monkeypatch):
    sys_, traj, clocks, times, qs, rig = rigged
    rig({row: BAD[kind] for row, kind in zip(rows, kinds)}, monkeypatch)
    first = min(rows)
    want = gate_error(BAD[kinds[rows.index(first)]], list(qs[first]))
    with pytest.raises(model.ModelError) as got:
        cli._csv_rows(sys_, traj, clocks, times)
    assert type(got.value) is type(want)
    assert str(got.value) == str(want)
    assert tuple(got.value.point) == qs[first]


@pytest.mark.parametrize("gate_row, energy_row, wins", [
    (B + 73, B + 72, "energies"), (B + 72, B + 73, "gate"),
    (B + 72, B + 72, "gate")])
def test_blocked_rows_keep_the_row_order_of_errors(rigged, gate_row,
                                                   energy_row, wins,
                                                   monkeypatch):
    # a row's twist fails before its energies, and both before the
    # next row's
    sys_, traj, clocks, times, qs, rig = rigged
    rig({gate_row: BAD["singular"]}, monkeypatch)
    jet, N = sys_.jet, sys_.dim
    real = jet.energies

    def energies(rows):
        if any(tuple(y[:N]) == qs[energy_row] for y in rows):
            raise expr.DomainError("energy fails")
        return real(rows)

    monkeypatch.setitem(jet.__dict__, "energies", energies)
    with pytest.raises((model.ModelError, expr.ExprError)) as got:
        cli._csv_rows(sys_, traj, clocks, times)
    if wins == "gate":
        assert isinstance(got.value, model.SingularMatrixError)
        assert tuple(got.value.point) == qs[gate_row]
    else:
        assert str(got.value) == "energy fails"


def test_simulate_svg_equals_per_time_portrait(tmp_path, capsys):
    out = str(tmp_path / "out")
    path = tmp_path / "run.ini"
    path.write_text(f"""
[system]
catalog = pendula
[integration]
t_span = 0.0, 20.0
rtol = 1e-8
atol = 1e-10
samples = 400
[output]
directory = {out}
""")
    assert cli.main(["simulate", "--config", str(path), "--svg"]) == 0
    capsys.readouterr()
    entry = catalog.load("pendula")
    sys_ = entry.system
    N = sys_.dim
    traj = orbit(sys_, entry.initial_point, (0.0, 20.0), 1e-8, 1e-10)
    states = one_by_one(traj, np.linspace(0.0, 20.0, 400))
    for k in range(1, N + 1):
        want = str(tmp_path / f"want_{k}.svg")
        cli.write_polyline_svg(
            want, [("orbit", states[:, k - 1], states[:, N + k - 1])],
            "pendula: phase portrait", f"q{k}", f"p{k}")
        with open(os.path.join(out, f"phase_q{k}_p{k}.svg"), "rb") as got:
            assert got.read() == open(want, "rb").read()
