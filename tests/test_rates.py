import csv
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wpconv import model as M
from wpconv import lyapunov as L
from wpconv import rates as R
from wpconv import presets as P
from wpconv.errors import HypothesisFailed, InconclusiveFit, SaturatedAtGridEnd

from conftest import PRESET_RATE_RUNS


def profile(grid, values, r0=None):
    return L.RadialProfile(grid=np.asarray(grid, dtype=float),
                           values=np.asarray(values, dtype=float),
                           r0=float(grid[0]) if r0 is None else r0)


@pytest.fixture(scope="module")
def alpha_33():
    m = P.make_model("example_3_3", p=2.0)
    rg = np.geomspace(1e-2, 1e10, 2401)
    return R.rate_tables(m, L.DriftConfig(case="cor_a", sigma=1.0), r_grid=rg)


# ---------------------------------------------------------------------------
# RateTable
# ---------------------------------------------------------------------------

def test_rate_table_rejects_monotonicity_violation():
    g = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        R.RateTable(grid=g, values=np.array([1.0, 1.5, 1.2]),
                    monotonicity="nonincreasing")
    # within 1e-12 is accepted
    R.RateTable(grid=g, values=np.array([1.0, 1.0 + 1e-13, 0.5]),
                monotonicity="nonincreasing")


def test_rate_table_inverse_conventions():
    g = np.geomspace(1.0, 100.0, 21)
    t = R.RateTable(grid=g, values=1.0 / g, monotonicity="nonincreasing")
    # left-continuous: ties belong to the sublevel set
    assert t.inverse(1.0 / g[7]) == pytest.approx(g[7])
    # above the maximum clamps to the first grid point
    assert t.inverse(5.0) == g[0]
    with pytest.raises(SaturatedAtGridEnd):
        t.inverse(1e-9)


def test_rate_table_constant_inverse_clamps():
    t = R.RateTable(grid=np.array([2.0, 5.0, 9.0]),
                    values=np.array([0.3, 0.3, 0.3]))
    assert t.inverse(0.3) == 2.0
    assert t.inverse(0.7) == 2.0


def test_rate_table_reads_its_top_value_past_the_grid_and_raises_below():
    """A table never extrapolates: past its top it reads the top value (for
    a nonincreasing rate, an upper bound there), with no warning, and below
    its bottom it raises SaturatedAtGridEnd naming s."""
    g = np.geomspace(1e-3, 1e-1, 30)
    t = R.RateTable(grid=g, values=g ** -1.5)
    top = t.value_at(g[-1])
    assert top == pytest.approx(t.values[-1], rel=1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert t.value_at(0.5) == top
        np.testing.assert_array_equal(t.value_at(np.array([0.1, 2.0, 1e9])), top)
    with pytest.raises(SaturatedAtGridEnd, match=r"s=0\.0005 below"):
        t.value_at(5e-4)
    with pytest.raises(SaturatedAtGridEnd, match=r"s=1e-06 below"):
        t.value_at(np.array([1e-2, 1e-6, 1e-7]))


def test_rate_table_inverse_value_sandwich():
    g = np.geomspace(0.5, 50.0, 40)
    t = R.RateTable(grid=g, values=g ** -1.7)
    spacing = np.max(np.diff(g))
    for r in [0.9, 3.3, 17.0]:
        assert t.inverse(t.value_at(r)) <= r + spacing


def _write_csv_reference(path, header, columns):
    """The row-by-row writer write_csv replaced, kept as its reference."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in zip(*columns):
            w.writerow([repr(float(v)) for v in row])


SPECIAL = [-0.0, 0.0, 0.0, -0.0, float("nan"), float("inf"), -float("inf"),
           5e-324, -5e-324, 1e16, 1e16, 0.1, 1.0 / 3.0]


@pytest.mark.parametrize("n", [0, 1, 13, 4095, 4096, 4097, 2 * 4096 + 5])
def test_write_csv_matches_the_row_writer(tmp_path, n):
    """Bytes equal the row-by-row csv.writer + repr(float(v)) writer across
    block edges, on signed zeros, nan, infinities, subnormals, long runs of
    equal values and plain lists."""
    assert R.CSV_BLOCK_ROWS == 4096
    rng = np.random.default_rng(n)
    distinct = np.geomspace(1e-9, 1e9, n)
    runs = np.repeat(rng.standard_normal(n // 50 + 1), 50)[:n]
    special = np.resize(np.array(SPECIAL), n)
    ints = list(range(n))
    header = ("s", "runs", "special", "ints")
    for cols in [(distinct, runs, special, ints),
                 (distinct.tolist(), runs.tolist(), special.tolist(), ints)]:
        R.write_csv(tmp_path / "new.csv", header, cols)
        _write_csv_reference(tmp_path / "ref.csv", header, cols)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.csv", "ref.csv"]


def test_write_csv_keeps_signed_zeros_apart(tmp_path):
    R.write_csv(tmp_path / "z.csv", ("x",), ([0.0, -0.0, -0.0, 0.0],))
    assert (tmp_path / "z.csv").read_bytes() == b"x\r\n0.0\r\n-0.0\r\n-0.0\r\n0.0\r\n"


def test_write_csv_rejects_unequal_columns(tmp_path):
    pth = tmp_path / "short.csv"
    with pytest.raises(ValueError, match=r"short\.csv: columns of unequal length \[3, 2, 3\]"):
        R.write_csv(pth, ("a", "b", "c"), ([1.0, 2.0, 3.0], [1.0, 2.0], [4.0, 5.0, 6.0]))
    assert not pth.exists()


def test_cli_p_sweep_csvs_match_the_row_writer(tmp_path, monkeypatch):
    """Every CSV of an example_3_2 p sweep, alpha.csv spanning several
    blocks, equals the reference writer's bytes on the same columns."""
    from wpconv import cli
    written = {}
    write = R.write_csv

    def recording_write(path, header, columns):
        written[path] = (header, columns)
        write(path, header, columns)

    monkeypatch.setattr(R, "write_csv", recording_write)
    out = tmp_path / "run"
    assert cli.main(["run", json.dumps({
        "preset": "example_3_2", "p": 0.6, "stages": ["rate", "sweep"],
        "sweep": {"param": "p", "values": [0.5, 0.6]}}), "-o", str(out)]) == 0
    assert sorted(map(str, written)) == [str(out / n) for n in
                                         ("alpha.csv", "beta.csv", "sweep.csv")]
    assert len(written[str(out / "alpha.csv")][1][0]) > 2 * R.CSV_BLOCK_ROWS
    for path, (header, columns) in written.items():
        _write_csv_reference(tmp_path / "ref.csv", header, columns)
        assert Path(path).read_bytes() == (tmp_path / "ref.csv").read_bytes(), path


@given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=3, max_size=30),
       st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=60, deadline=None)
def test_rate_table_inverse_is_generalized_inverse(vals, s):
    vals = sorted(set(vals), reverse=True)
    if len(vals) < 2:
        return
    g = np.geomspace(1.0, 10.0, len(vals))
    t = R.RateTable(grid=g, values=np.array(vals))
    try:
        r = t.inverse(s)
    except SaturatedAtGridEnd:
        assert s < t.values[-1]
        return
    # r is in the sublevel set, and no earlier grid point is
    assert t.values[np.searchsorted(g, r)] <= s
    earlier = g[g < r]
    if earlier.size:
        assert t.values[earlier.size - 1] > s


# ---------------------------------------------------------------------------
# varphi
# ---------------------------------------------------------------------------

def test_varphi_inverse_square_closed_form():
    C = 3.7
    g = np.geomspace(0.1, 1e5, 1200)
    phi = profile(g, C / g ** 2)
    for r in [1.0, 10.0, 1e4]:
        assert R.varphi_phi(phi, r) == pytest.approx(math.sqrt(C * r), rel=1e-8)


def test_varphi_power_profile_matches_bisection_oracle():
    """Closed-form segment inversion against an explicit bisection on the
    interpolated running minimum."""
    C, p = 0.8, 0.6
    g = np.geomspace(0.5, 1e5, 900)
    vals = C * g ** (2 * (p - 1))
    phi = profile(g, vals)

    def running_min_interp(s):
        # piecewise log-log interpolant of the (decreasing) profile
        return float(np.exp(np.interp(np.log(s), np.log(g), np.log(vals))))

    for r in [5.0, 120.0, 9e3]:
        target = 1.0 / r
        lo, hi = g[0], g[-1]
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if running_min_interp(mid) >= target:
                lo = mid
            else:
                hi = mid
        expected = (C * r) ** (1.0 / (2.0 * (1.0 - p)))
        assert R.varphi_phi(phi, r) == pytest.approx(lo, rel=1e-10)
        assert R.varphi_phi(phi, r) == pytest.approx(expected, rel=1e-8)


def test_varphi_non_monotone_dip_matches_grid_scan():
    g = np.geomspace(0.5, 100.0, 400)
    vals = 1.0 / g + 0.5 * np.exp(-((g - 5.0) ** 2))  # bump, then a dip after it
    vals = np.where(np.abs(g - 5.0) < 1.0, 0.04, vals)  # carve a dip at s = 5
    phi = profile(g, vals)
    scan_s = np.geomspace(0.5, 100.0, 100000)
    interp = np.exp(np.interp(np.log(scan_s), np.log(g), np.log(vals)))
    runmin = np.minimum.accumulate(interp)
    for r in [3.0, 24.0, 26.0, 80.0]:
        oracle = scan_s[runmin >= 1.0 / r][-1] if np.any(runmin >= 1.0 / r) else 0.0
        got = R.varphi_phi(phi, r)
        assert got == pytest.approx(oracle, rel=1e-3)


def test_varphi_empty_set_and_saturation():
    g = np.geomspace(1.0, 10.0, 50)
    phi = profile(g, 1.0 / g)
    assert R.varphi_phi(phi, 0.5) == 0.0  # 1/r = 2 above the profile maximum
    with pytest.raises(SaturatedAtGridEnd):
        R.varphi_phi(phi, 1e6)


def test_varphi_names_the_first_nonpositive_r():
    g = np.geomspace(1.0, 10.0, 50)
    with pytest.raises(ValueError, match=r"r must be positive, got r=-2"):
        R.varphi_phi(profile(g, 1.0 / g), np.array([0.5, -2.0, 0.0]))


def test_varphi_nondecreasing_and_scale_equivariance():
    g = np.geomspace(0.2, 1e4, 700)
    vals = 2.3 / g ** 1.5
    phi = profile(g, vals)
    rr = np.geomspace(1.0, 1e4, 60)
    t = R.varphi_phi(phi, rr)
    assert np.all(np.diff(t) >= -1e-14)
    # k * phi shifts the argument: varphi_{k phi}(r) = varphi_phi(k r)
    k = 3.7
    scaled = profile(g, k * vals)
    for r in [2.0, 50.0, 900.0]:
        assert R.varphi_phi(scaled, r) == pytest.approx(
            R.varphi_phi(phi, k * r), rel=1e-12)


def _varphi_loop(phi, r):
    """The per-r inversion that varphi_phi replaced, kept as its oracle."""
    grid, values = phi.grid, phi.values
    runmin = np.minimum.accumulate(values)
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    target = 1.0 / r_arr
    out = np.empty(r_arr.shape)
    for i, t in enumerate(target):
        if runmin[0] < t:
            out[i] = 0.0
            continue
        if runmin[-1] >= t:
            raise SaturatedAtGridEnd(
                f"phi stays above 1/r={t:g} out to s={grid[-1]:g}; extend the grid")
        j = int(np.searchsorted(-runmin, -t, side="right"))
        v0, v1 = values[j - 1], values[j]
        if v1 >= t:
            out[i] = grid[j]
            continue
        lo, hi = grid[j - 1], grid[j]
        frac = (math.log(t) - math.log(max(v0, t))) \
            / (math.log(v1) - math.log(max(v0, t)))
        out[i] = math.exp(math.log(lo) + frac * (math.log(hi) - math.log(lo)))
    return out


@st.composite
def _profile_and_radii(draw):
    """Profiles on [1, e^1.35] with log-step 0.05 whose log-values sit on a
    0.1 lattice in [-1.3, 1.3]: repeated levels give plateaus, rises give
    dips.  Every strict drop is steeper than slope 1 and every log is below
    1.4, so a one-ulp difference between np.log and math.log moves the
    crossing by at most a few ulp."""
    levels = draw(st.lists(st.integers(-13, 13), min_size=2, max_size=28))
    grid = np.exp(0.05 * np.arange(len(levels)))
    values = np.exp(0.1 * np.asarray(levels, dtype=float))
    at_nodes = st.sampled_from(list(values)).map(lambda v: 1.0 / v)
    anywhere = st.floats(-1.5, 1.5).map(lambda x: math.exp(-x))
    radii = draw(st.lists(at_nodes | anywhere, min_size=1, max_size=20))
    return profile(grid, values), np.asarray(radii)


@given(_profile_and_radii())
@settings(max_examples=300, deadline=None)
def test_varphi_array_matches_scalar_loop(case):
    phi, radii = case
    try:
        expected = _varphi_loop(phi, radii)
    except SaturatedAtGridEnd as exc:
        with pytest.raises(SaturatedAtGridEnd) as got:
            R.varphi_phi(phi, radii)
        assert str(got.value) == str(exc)
        return
    got = R.varphi_phi(phi, radii)
    assert np.all(np.abs(got - expected) <= 4 * np.spacing(expected))


# ---------------------------------------------------------------------------
# beta
# ---------------------------------------------------------------------------

def test_beta_compact_branch_is_mu_tail_only(alpha_33):
    m = P.make_model("example_3_3", p=2.0)
    phi = alpha_33.phi
    r = 1e4
    t = 0.5 * R.varphi_phi(phi, r)
    floor = m.source.support_radius + phi.r0
    expect = M.measure_tail(m, "mu", max(t, floor))
    assert R.beta_phi(m, phi, r) == pytest.approx(expect, rel=1e-9)
    # nu contributes nothing once the radius passes the support
    assert M.measure_tail(m, "nu", max(t, floor)) == 0.0


@pytest.mark.parametrize("case", sorted(PRESET_RATE_RUNS))
def test_rate_tables_beta_is_beta_phi_where_the_running_minimum_is_idle(
        case, preset_rate_run):
    """rate_tables and beta_phi read one mu-tail path: beta agrees bit for bit
    wherever the running minimum leaves it alone."""
    model, r_grid, res, _ = preset_rate_run(case)
    raw = R.beta_phi(model, res.phi, r_grid)
    keep = np.isfinite(raw) & (raw > 1e-300)
    np.testing.assert_array_equal(res.beta.grid, r_grid[keep])
    raw = raw[keep]
    idle = raw == np.minimum.accumulate(raw)
    np.testing.assert_array_equal(res.beta.values[idle], raw[idle])


@pytest.mark.parametrize("case", ["example_3_3", "example_3_4", "lemma_3_2"])
def test_rate_tables_profile_extends_its_first_round_bitwise(case, preset_rate_run):
    """A profile node depends on its radius alone: the first growth round's
    profile equals the final rate_tables profile on every shared node."""
    model, _, res, _ = preset_rate_run(case)
    cfg = res.config
    first = L.phi_profile(model, cfg, s_max=100.0 * max(cfg.R0, 1.0))
    n = first.grid.size
    assert res.phi.grid.size > n
    for field in ("grid", "values", "psi", "log_p_sigma"):
        np.testing.assert_array_equal(getattr(first, field),
                                      getattr(res.phi, field)[:n])


def test_beta_degenerate_sublevel_gives_two():
    m = M.ConvolutionModel(M.quadratic_potential(), M.power_tail_density(1.0))
    g = np.geomspace(1.0, 10.0, 50)
    phi = profile(g, 1.0 / g)  # max phi = 1, so 1/r = 4 has empty sublevel set
    val = R.beta_phi(m, phi, 0.25)
    assert val == pytest.approx(2.0, abs=1e-12)


def test_beta_slope_for_algebraic_tails(alpha_33):
    b = alpha_33.beta
    msk = (b.grid >= 1e5) & (b.grid <= 1e9)
    slope = np.polyfit(np.log(b.grid[msk]), np.log(b.values[msk]), 1)[0]
    assert abs(slope - (-1.0)) < 0.1  # -p/2 with p = 2


# ---------------------------------------------------------------------------
# alpha
# ---------------------------------------------------------------------------

def test_alpha_from_synthetic_power_beta():
    C, p, c0 = 2.0, 2.0, 1.5
    rr = np.geomspace(1.0, 1e8, 1600)
    beta = R.RateTable(grid=rr, values=C * rr ** (-p / 2.0))
    alpha = R.alpha_from_beta(beta, c0=c0)
    ss = alpha.grid[10:-10]
    expect = c0 * (C / ss) ** (2.0 / p)
    np.testing.assert_allclose(alpha.value_at(ss), expect, rtol=2e-2)
    slope = np.polyfit(np.log(ss), np.log(alpha.value_at(ss)), 1)[0]
    assert abs(slope - (-2.0 / p)) < 0.01


def test_alpha_constant_beta_clamps_to_r_min():
    rr = np.geomspace(2.0, 100.0, 30)
    beta = R.RateTable(grid=rr, values=np.full(30, 0.25))
    alpha = R.alpha_from_beta(beta, c0=3.0, s_grid=np.array([0.25, 0.5, 1.0]))
    np.testing.assert_allclose(alpha.values, 3.0 * rr[0])


def test_alpha_beta_round_trip(alpha_33):
    """beta(alpha(s)/c0) <= s for every grid s (generalized-inverse sandwich)."""
    beta, alpha, c0 = alpha_33.beta, alpha_33.alpha, alpha_33.c0
    back = beta.value_at(alpha.values / c0)
    assert np.all(back <= alpha.grid * (1.0 + 1e-9))


def test_alpha_monotone_and_beta_monotone(alpha_33):
    assert np.all(np.diff(alpha_33.alpha.values) <= 0.0)
    assert np.all(np.diff(alpha_33.beta.values) <= 0.0)
    assert np.all(np.diff(alpha_33.varphi.values) >= 0.0)


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------

def test_fit_exact_power():
    ss = np.geomspace(1e-8, 1e-1, 400)
    alpha = R.RateTable(grid=ss, values=7.0 * ss ** -3.0)
    fit = R.fit_asymptotics(alpha)
    assert fit.family == "power"
    assert fit.exponent == pytest.approx(3.0, abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.scale == pytest.approx(7.0, rel=1e-6)


def test_fit_exact_poly_log():
    ss = np.geomspace(1e-10, 0.5, 500)
    vals = 4.0 * (1.0 + np.log1p(1.0 / ss)) ** 1.5
    alpha = R.RateTable(grid=ss, values=vals)
    fit = R.fit_asymptotics(alpha, fit_window=(ss[0], ss[-1]))
    assert fit.family == "poly_log"
    assert fit.exponent == pytest.approx(1.5, abs=1e-6)


def test_fit_exact_stretched_exponential():
    ss = np.geomspace(1e-3, 0.5, 300)
    vals = 2.0 * np.exp(1.3 * ss ** -0.8)
    alpha = R.RateTable(grid=ss, values=vals)
    fit = R.fit_asymptotics(alpha, fit_window=(ss[0], 1e-1))
    assert fit.family == "stretched_exp"
    assert fit.exponent == pytest.approx(0.8, abs=0.05)


def test_fit_default_window_keeps_the_middle_node_of_an_odd_grid():
    """The default upper edge sqrt(g0 gN) is the middle node of an odd-length
    geometric grid up to rounding; moving the grid ends by one ulp must not
    move that node in or out of the fit."""
    ss = np.geomspace(1e-8, 1e-1, 401)
    counts = set()
    for lo_dir in (None, -np.inf, np.inf):
        for hi_dir in (None, -np.inf, np.inf):
            g = ss.copy()
            if lo_dir is not None:
                g[0] = np.nextafter(g[0], lo_dir)
            if hi_dir is not None:
                g[-1] = np.nextafter(g[-1], hi_dir)
            fit = R.fit_asymptotics(R.RateTable(grid=g, values=7.0 * g ** -3.0),
                                    families=("power",))
            counts.add(fit.diagnostics["power"]["n_points"])
    assert counts == {201}


def test_fit_requires_enough_points_and_conclusive_r2():
    ss = np.geomspace(1e-4, 1e-1, 50)
    # a hard step is far from every candidate family
    alpha = R.RateTable(grid=ss, values=np.where(ss < 3e-3, 1e8, 1.0))
    with pytest.raises(InconclusiveFit, match="holds 2 nodes of the alpha grid"):
        R.fit_asymptotics(alpha, fit_window=(1e-4, 1.2e-4))
    with pytest.raises(InconclusiveFit):
        R.fit_asymptotics(alpha, fit_window=(ss[0], ss[-1]))


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def _sigma_runs(m, cfg, sigmas, rg=None):
    return [(f"sigma={sig}", R.rate_tables(m, replace(cfg, sigma=sig), r_grid=rg).alpha)
            for sig in sigmas]


def test_compare_sigma_identity():
    m = P.make_model("example_3_3", p=2.0)
    cfg = L.DriftConfig(case="cor_a")
    rg = np.geomspace(1.0, 1e6, 600)
    rep = R.compare_sigma(_sigma_runs(m, cfg, [1.0, 1.0], rg))
    pair = next(iter(rep["pairs"].values()))
    assert pair["range_factor"] == pytest.approx(1.0, abs=1e-12)
    assert rep["bounded"]


def test_compare_sigma_bounded_across_sigmas():
    m = P.make_model("example_3_3", p=2.0)
    cfg = L.DriftConfig(case="cor_a")
    rg = np.geomspace(1.0, 1e8, 1000)
    rep = R.compare_sigma(_sigma_runs(m, cfg, [1.0, 5.0], rg))
    assert rep["bounded"], rep


def _stability(mu, conv, cfg, **kw):
    """compare_stability on both models' tables on rate_tables' default grid."""
    tables = (R.rate_tables(m, L.DriftConfig(case="cor_a", sigma=cfg.sigma)).alpha
              for m in (mu, conv))
    return R.compare_stability(mu, conv, cfg, *tables, **kw)


def test_compare_stability_identical_measures():
    m = M.ConvolutionModel(M.log_potential(2.0), M.point_mass())
    cfg = L.DriftConfig(case="cor_a", sigma=1.5)
    rep = _stability(m, m, cfg)
    assert rep["eta0"] == pytest.approx(1.0, abs=1e-12)
    assert rep["range_factor"] == pytest.approx(1.0, abs=1e-12)


def test_compare_stability_eta0_grows_toward_one():
    mu = M.ConvolutionModel(M.log_potential(1.0), M.point_mass())
    conv = M.ConvolutionModel(M.log_potential(1.0), M.uniform_density(1.0))
    cfg = L.DriftConfig(case="cor_a", sigma=1.5)
    rep = _stability(mu, conv, cfg)
    est = rep["eta0_estimates"]
    assert est[0] < est[1] < est[2] < 1.0
    assert rep["eta0"] > 0.9


def test_compare_stability_hypothesis_failure():
    mu = M.ConvolutionModel(M.log_potential(2.0), M.point_mass())
    conv = M.ConvolutionModel(M.log_potential(2.0), M.uniform_density(1.0))
    cfg = L.DriftConfig(case="cor_a", sigma=1.5)
    # tiny evaluation radii make the window ratio collapse below w0
    with pytest.raises(HypothesisFailed):
        _stability(mu, conv, cfg, sigma0=19.0, eval_radii=(2.3, 2.5, 3.0))


# ---------------------------------------------------------------------------
# pipeline result
# ---------------------------------------------------------------------------

def test_rate_result_grid_extension_served_all_r(alpha_33):
    assert alpha_33.beta.grid[-1] == pytest.approx(1e10)
    assert alpha_33.alpha.values[0] > alpha_33.alpha.values[-1]


def test_capped_rate_tables_serves_the_unsaturated_prefix(monkeypatch):
    monkeypatch.setattr(R, "S_MAX_CAP", 1e4)
    m = P.make_model("example_3_3", p=2.0)
    rg = np.geomspace(1e-2, 1e10, 2401)
    res = R.rate_tables(m, L.DriftConfig(case="cor_a", sigma=1.0), r_grid=rg)
    served = []
    for rv in rg:
        try:
            _varphi_loop(res.phi, rv)
        except SaturatedAtGridEnd:
            break
        served.append(rv)
    assert 32 <= len(served) < rg.size
    np.testing.assert_array_equal(res.varphi.grid, served)
    assert res.r_truncated == rg.size - len(served) > 0
    assert res.r_dropped == 0


def test_rate_result_counts_nothing_cut_on_example_3_1():
    from wpconv import cli
    cfg = {"preset": "example_3_1", "p": 1, "stages": ["rate"]}
    rg = cli._r_grid(cli.load_config(cfg))
    res = R.rate_tables(P.make_model("example_3_1", p=1.0), P.default_drift_config("example_3_1"),
                        r_grid=rg, via_comparison=P.make_model("lemma_3_2", p=1.0))
    assert (res.r_truncated, res.r_dropped) == (0, 0)
    assert res.beta.grid.size == rg.size


def test_scaled_result_equals_the_alpha_built_with_c0(alpha_33):
    """Scaling a c0 = 1 result by c0 equals alpha_from_beta with c0 bit for
    bit: rounding is monotone, so c0 commutes with the running minimum."""
    assert alpha_33.c0 == 1.0
    for c0 in (1.0, 5.206, math.pi, 1e-3):
        scaled = alpha_33.scaled(c0)
        assert scaled.c0 == c0 and scaled.alpha_final is scaled.alpha
        np.testing.assert_array_equal(scaled.alpha.values,
                                      R.alpha_from_beta(alpha_33.beta, c0=c0).values)


def test_rate_tables_names_the_first_nonpositive_r():
    m = P.make_model("example_3_3", p=2.0)
    with pytest.raises(ValueError, match=r"r must be positive, got r=0"):
        R.rate_tables(m, L.DriftConfig(case="cor_a", R0=3.0), r_grid=[1.0, 0.0, 2.0])


def test_comparison_transfer_preserves_order():
    m31 = P.make_model("example_3_1", p=1.0, nu={"kind": "integer_lattice",
                                                 "p": 1.0, "n_max": 60_000})
    comp = P.make_model("lemma_3_2", p=1.0)
    rg = np.geomspace(1.0, 1e6, 700)
    res = R.rate_tables(m31, L.DriftConfig(case="a", sigma=1.0), r_grid=rg,
                        via_comparison=comp)
    assert res.comparison is not None
    assert 0.9 < res.comparison["ratio_lower"] <= res.comparison["ratio_upper"] < 1.1
    c_lo, c_hi = res.comparison["ratio_lower"], res.comparison["ratio_upper"]
    scaled = res.scaled(3.0)
    np.testing.assert_array_equal(scaled.alpha_final.grid, res.alpha.grid * c_hi)
    np.testing.assert_array_equal(scaled.alpha_final.values,
                                  (c_hi / c_lo) * (3.0 * res.alpha.values))
    f_raw = R.fit_asymptotics(res.alpha, families=("power",))
    f_fin = R.fit_asymptotics(res.alpha_final, families=("power",))
    assert f_fin.exponent == pytest.approx(f_raw.exponent, abs=0.02)
    assert f_fin.exponent == pytest.approx(2.0, abs=0.3)
