import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from wpconv import model as M
from wpconv import lyapunov as L
from wpconv import presets as P
from wpconv import rates as R
from wpconv.errors import DriftConditionFailed


CFG_A = L.DriftConfig(case="a", R0=1.0, sigma=1.0)


@pytest.fixture(scope="module")
def models():
    return {
        "3_2": P.make_model("example_3_2", p=0.6),
        "3_3": P.make_model("example_3_3", p=2.0),
        "3_4": P.make_model("example_3_4", p=2.0),
    }


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    {"case": "z"}, {"sigma": 0.0}, {"delta": 1.0}, {"delta": 0.0}, {"R0": -1.0},
])
def test_drift_config_rejects_bad_parameters(kw):
    with pytest.raises(ValueError):
        L.DriftConfig(**kw)


# ---------------------------------------------------------------------------
# psi (case a)
# ---------------------------------------------------------------------------

def test_psi_point_mass_power_closed_form():
    m = M.ConvolutionModel(M.power_potential(1.5), M.point_mass())
    for s in [0.5, 2.0, 11.0]:
        assert L.psi_case_a(m, s) == pytest.approx(1.5 * s ** 0.5, rel=1e-12)


def test_psi_two_atom_brute_oracle():
    """x = 3, atoms at +-1, quadratic well: direct two-atom formula."""
    m = M.ConvolutionModel(M.quadratic_potential(), M.symmetric_pair(1.0))
    # V'(u) = 2u at u = 2 and 4, tilted by exp(-V): weights e^-4, e^-16
    oracle = (4.0 * math.exp(-4.0) + 8.0 * math.exp(-16.0)) \
        / (math.exp(-4.0) + math.exp(-16.0))
    assert L.psi_case_a(m, 3.0) == pytest.approx(oracle, rel=1e-13)


def test_psi_inverse_radius_regime_continuous():
    """Power-tail density source: s * psi(s) settles to a constant.

    The transient of the stretched-exponential well is long (the 1/s^2
    correction carries a third-moment constant), so the settled window starts
    at s = 500."""
    lem = P.make_model("lemma_3_2", p=1.0)
    ss = np.geomspace(500.0, 5000.0, 12)
    prod = ss * L.psi_case_a(lem, ss)
    assert prod.max() / prod.min() < 1.10


def test_psi_lattice_tracks_continuum_then_oscillates():
    """The integer-lattice source matches the continuum rate at moderate radii
    but its discrete tilted sum oscillates with constant amplitude, so the
    sphere infimum eventually dips negative (the rate for this preset is
    built on the comparison model instead)."""
    m31 = P.make_model("example_3_1", p=1.0)
    # the discrete oscillation amplitude is ~5.9e-4 in psi (constant in s), so
    # s * psi stays near the continuum value 2 only while 2/s dominates it
    ss = np.geomspace(200.0, 1000.0, 9)
    prod = ss * L.psi_case_a(m31, ss)
    assert np.all(prod > 1.2) and np.all(prod < 3.0)
    # the oscillation has period 1 (integer spacing): scan one full period
    period = np.linspace(3435.0, 3436.0, 101)
    scan = L.psi_case_a(m31, period)
    assert np.any(scan < 0.0)
    # phi_profile, the one place that checks the rate, names the first
    # nonpositive radius of its grid
    cfg = L.DriftConfig(case="a", R0=3435.0)
    grid = L._anchored_grid(cfg.R0, 3436.0, 200, include_radii=period)
    first = grid[np.isin(grid, period[scan <= 0.0])][0]
    with pytest.raises(DriftConditionFailed, match=rf"drift rate nonpositive at s={first:g}$"):
        L.phi_profile(m31, cfg, s_max=3436.0, include_radii=period)


def _two_point_drift(model, s):
    """The signed tilted radial drift at x = +s and x = -s, unfolded."""
    pts = np.stack([s, -s], axis=-1)
    return np.where(pts >= 0.0, 1.0, -1.0) * M.tilted_u_moment(
        model, pts, model.potential.grad_1d)


def test_psi_asymmetric_source_is_the_explicit_two_point_minimum():
    m = M.ConvolutionModel(M.quadratic_potential(), M.discrete_atoms([-1.0, 2.0], [1, 1]))
    assert not m.source.symmetric
    s = np.geomspace(0.1, 20.0, 60)
    raw = _two_point_drift(m, s)
    assert np.max(np.abs(raw[:, 0] - raw[:, 1]) / np.abs(raw).max(axis=1)) > 0.1
    np.testing.assert_array_equal(L.psi_case_a(m, s), raw.min(axis=1))


def test_psi_fold_matches_the_two_point_minimum_on_lemma_3_2():
    """The power-tail source is mirror-symmetric, so psi evaluates +s only.

    Both points carry the same value up to the kernel's own mirror
    asymmetry (the quadrature nodes of -s are not the exact reflection of
    those of +s), measured at 1.2e-12 relative below s = 1e5, past the
    profile end 1.03e5 of the preset's rate chain, and at 1.2e-10 at
    s = 6.5e6 toward the 1e7 domain cap; the fold differs from the two-point
    minimum by at most 1.2e-12 resp. 8.0e-11 there.
    """
    m = P.make_model("lemma_3_2", p=1.0)
    assert m.source.symmetric
    cfg = L.resolve_r0(m, P.default_drift_config("lemma_3_2"))
    s = np.geomspace(cfg.R0, 1e7, 400)
    raw = _two_point_drift(m, s)
    explicit = raw.min(axis=1)
    rel = np.abs(L.psi_case_a(m, s) - explicit) / explicit
    near = s <= 1e5
    assert np.max(rel[near]) <= 5e-12
    assert np.max(rel) <= 5e-10
    # the case-b integrand is folded the same way: one value per pair
    b = L.case_b_integrand(m, np.stack([s, -s], axis=-1), cfg)
    np.testing.assert_array_equal(b[:, 0], b[:, 1])
    unfolded = M.tilted_u_moment(m, -s, lambda u: cfg.delta * m.potential.grad_1d(u) ** 2
                                 - m.potential.laplacian(np.abs(u)))
    np.testing.assert_allclose(b[:, 1], unfolded, rtol=5e-10)


def test_psi_case_a_names_the_first_nonpositive_radius():
    m = M.ConvolutionModel(M.quadratic_potential(), M.point_mass())
    with pytest.raises(ValueError, match=r"radii must be positive, got s=-0\.5"):
        L.psi_case_a(m, np.array([1.0, -0.5, 0.0]))


# ---------------------------------------------------------------------------
# eta windows
# ---------------------------------------------------------------------------

def test_eta_closed_form_power():
    m = P.make_model("example_3_2", p=0.5)
    assert L.eta_window(m, 4.0) == pytest.approx(0.75, rel=1e-12)
    for s in [2.0, 7.0, 30.0]:
        expect = 0.5 * s ** -0.5 * (s - 1.0)
        assert L.eta_window(m, s) == pytest.approx(expect, rel=1e-12)


def test_eta_window_psi_degenerates_to_point_mass_rate():
    """R = 0: the window collapses and psi equals the point-mass drift rate."""
    pot = M.power_potential(1.5)
    m0 = M.ConvolutionModel(pot, M.point_mass())
    for r in [2.0, 9.0]:
        w = L.eta_window_psi(m0, r)
        a = L.psi_case_a(m0, r)
        assert w == pytest.approx(a, rel=1e-12)


def test_phi_profile_fails_when_window_crosses_origin(monkeypatch):
    """R0 <= R: phi_profile refuses before it evaluates anything, while
    eta_window_psi itself only computes, a clamped window included."""
    m = P.make_model("example_3_2", p=0.6)
    cfg = L.DriftConfig(case="cor_a", R0=0.1)
    unbounded = M.ConvolutionModel(m.potential, M.power_tail_density(1.0))
    with pytest.raises(DriftConditionFailed, match="requires compact nu"):
        L.phi_profile(unbounded, cfg)
    monkeypatch.setattr(L, "_case_scan_values", None)
    with pytest.raises(DriftConditionFailed,
                       match=r"window \[r-R, r\+R\] leaves the positive axis at r=0\.1$"):
        L.phi_profile(m, cfg)
    assert np.all(L.eta_window_psi(m, np.array([0.1, 0.5, 1.5])) < 0.0)


def test_eta_window_psi_array_matches_per_radius_calls(models):
    for m in models.values():
        R = m.source.support_radius
        radii = np.concatenate([[0.5 * R, R], np.geomspace(1.5 * R, 1e7, 300)])
        arr = L.eta_window_psi(m, radii)
        one = np.array([L.eta_window_psi(m, r) for r in radii])
        np.testing.assert_array_equal(arr, one)


@pytest.mark.parametrize("pot", [M.log_potential(2.0), M.power_potential(2.0, d=2)],
                         ids=["log_d1", "power_d2"])
def test_eta_window_non_radial_matches_radial_closed_form(pot):
    """An off-centre (non-radial) source enters eta only through R."""
    R = 0.7
    src = M.point_mass(location=[R] + [0.0] * (pot.d - 1), d=pot.d)
    s = np.geomspace(0.3, 1e4, 50)
    closed = L.eta_window(M.ConvolutionModel(pot, src), s)
    vp = pot.v0p(s)
    np.testing.assert_array_equal(closed, vp * s - R * np.abs(vp))


# ---------------------------------------------------------------------------
# p_sigma
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,R0", [(1, 1.0), (2, 2.0), (3, 2.0)])
def test_p_sigma_at_r0_is_power_of_r0(d, R0):
    cfg = L.DriftConfig(case="a", R0=R0)
    val = L.p_sigma(lambda s: np.ones(np.shape(s)), R0, cfg, d)
    assert val == pytest.approx(R0 ** (d - 1), rel=1e-12)


def test_p_sigma_names_the_radius_below_r0():
    cfg = L.DriftConfig(case="a", R0=2.0)
    with pytest.raises(ValueError, match=r"r >= R0, got r=1\.5 < R0=2"):
        L.p_sigma(lambda s: np.ones(np.shape(s)), np.array([3.0, 1.5, 1.0]), cfg, 1)


def test_p_sigma_constant_rate_closed_form():
    c0, sig, R0 = 0.7, 1.0, 1.0
    cfg = L.DriftConfig(case="a", R0=R0, sigma=sig)
    w = sig / (1.0 + sig)
    for r in [1.5, 3.0, 12.0, 40.0]:
        val = L.p_sigma(lambda s: c0 * np.ones(np.shape(s)), r, cfg, 1)
        closed = (1.0 - math.exp(-w * c0 * (r - R0))) / (w * c0) \
            + math.exp(-w * c0 * (r - R0))
        assert val == pytest.approx(closed, rel=1e-4)
    # bounded in r, hence phi = c0/((1+sigma) p_sigma) is bounded below
    big = L.p_sigma(lambda s: c0 * np.ones(np.shape(s)),
                    np.array([1e2, 1e3, 1e4]), cfg, 1)
    assert np.all(big < 1.0 / (w * c0) + 1.0)


def test_p_sigma_inverse_radius_rate_grows_linearly():
    cfg = L.DriftConfig(case="a", R0=1.0, sigma=1.0)
    rr = np.geomspace(1e2, 1e4, 9)
    vals = L.p_sigma(lambda s: 3.0 / np.asarray(s), rr, cfg, 1)
    ratio = vals / rr
    assert ratio.max() / ratio.min() < 1.10


def test_p_sigma_monotone_in_sigma():
    m33 = P.make_model("example_3_3", p=2.0)
    cfg0 = L.resolve_r0(m33, L.DriftConfig(case="cor_a"))
    psi = lambda s: L.eta_window_psi(m33, s)
    rr = np.geomspace(cfg0.R0, 1e3, 40)
    prev = None
    for sig in [0.5, 1.0, 2.0, 5.0]:
        vals = L.p_sigma(psi, rr, L.DriftConfig(case="cor_a", R0=cfg0.R0, sigma=sig), 1)
        if prev is not None:
            assert np.all(vals <= prev * (1.0 + 1e-12))
        prev = vals


def _log_p_sigma_inline(grid, psi_vals, sigma, d):
    """log p_sigma with the panel rule lyapunov carried before it shared
    model._log_panel_rule, kept as its reference."""
    w = sigma / (sigma + 1.0)
    I = integrate.cumulative_trapezoid(psi_vals, grid, initial=0.0)
    logg = (1.0 - d) * np.log(grid) + w * I
    hi = np.maximum(logg[:-1], logg[1:])
    da = np.abs(logg[1:] - logg[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(da > 1e-6,
                        np.log(-np.expm1(-np.maximum(da, 1e-300)))
                        - np.log(np.maximum(da, 1e-300)),
                        -0.5 * da)
    panel = hi + corr + np.log(np.diff(grid))
    cum = np.concatenate([[-np.inf], np.logaddexp.accumulate(panel)])
    return np.logaddexp(cum, 0.0) - logg, I


@pytest.mark.parametrize("name", ["example_3_2", "example_3_3", "example_3_4",
                                  "lemma_3_2"])
def test_p_sigma_shared_panel_rule_is_bitwise_on_criterion_06_grids(name):
    work = P.make_model(name)
    cfg0 = L.resolve_r0(work, P.default_drift_config(name))
    rr = np.geomspace(cfg0.R0, 1e3, 60)
    grid = L._anchored_grid(cfg0.R0, float(rr.max()), L._REFINE_PER_DECADE,
                            include_radii=rr)
    vals = L.drift_rate(work, grid, cfg0)
    for sig in (0.5, 1.0, 2.0, 5.0):
        logp, I, _ = L._log_p_sigma_on_grid(grid, vals, sig, work.d)
        ref_logp, ref_I = _log_p_sigma_inline(grid, vals, sig, work.d)
        np.testing.assert_array_equal(logp, ref_logp)
        np.testing.assert_array_equal(I, ref_I)


# ---------------------------------------------------------------------------
# phi profiles
# ---------------------------------------------------------------------------

def test_phi_profile_cor_a_power_law_slopes(models):
    cfg32 = L.resolve_r0(models["3_2"], L.DriftConfig(case="cor_a"))
    phi = L.phi_profile(models["3_2"], cfg32, s_max=1e4)
    msk = phi.grid >= 1e2
    slope = np.polyfit(np.log(phi.grid[msk]), np.log(phi.values[msk]), 1)[0]
    assert abs(slope - 2.0 * (0.6 - 1.0)) < 0.05

    cfg33 = L.resolve_r0(models["3_3"], L.DriftConfig(case="cor_a"))
    phi33 = L.phi_profile(models["3_3"], cfg33, s_max=1e4)
    msk = phi33.grid >= 1e2
    slope33 = np.polyfit(np.log(phi33.grid[msk]), np.log(phi33.values[msk]), 1)[0]
    assert abs(slope33 - (-2.0)) < 0.05


def test_phi_profile_b_point_mass_closed_form():
    p, delta = 1.5, 0.75
    m = M.ConvolutionModel(M.power_potential(p), M.point_mass())
    cfg = L.DriftConfig(case="b", R0=1.0, delta=delta)
    phi = L.phi_profile(m, cfg, s_max=50.0, include_radii=[1.0, 4.0, 20.0])
    for s in [1.0, 4.0, 20.0]:
        expect = (1.0 - delta) * (delta * p ** 2 * s ** (2 * p - 2)
                                  - p * (1 + p - 2) * s ** (p - 2))
        assert phi(s) == pytest.approx(expect, rel=1e-10)


def test_case_b_integrand_quadratic_value():
    m = M.ConvolutionModel(M.quadratic_potential(), M.point_mass())
    cfg = L.DriftConfig(case="b", R0=1.0, delta=0.75)
    val = L.case_b_integrand(m, 2.0, cfg)
    assert (1.0 - cfg.delta) * val == pytest.approx(2.5, rel=1e-12)


def test_phi_profile_cor_b_loglog_slope(models):
    cfg = L.resolve_r0(models["3_4"], L.DriftConfig(case="cor_b", delta=0.75))
    phi = L.phi_profile(models["3_4"], cfg, s_max=1e4)
    msk = phi.grid >= 1e2
    slope = np.polyfit(np.log(phi.grid[msk]), np.log(phi.values[msk]), 1)[0]
    assert abs(slope - (-2.0)) < 0.1


def test_phi_profile_interpolation_and_extension():
    m = M.ConvolutionModel(M.power_potential(1.5), M.point_mass())
    cfg = L.DriftConfig(case="a", R0=1.0)
    phi = L.phi_profile(m, cfg, s_max=100.0)
    # constant extension below R0
    assert phi(0.1) == pytest.approx(phi(1.0), rel=1e-12)
    # log-log interpolation is exact for pure powers between grid nodes
    mid = math.sqrt(phi.grid[10] * phi.grid[11])
    dense = L.phi_profile(m, cfg, s_max=100.0, include_radii=[mid])
    assert phi(mid) == pytest.approx(dense(mid), rel=1e-4)


def test_phi_profile_last_node_matches_a_longer_build(models):
    """The anchored grid's last node lies past s_max; its p_sigma is read at
    that node, not at s_max, so it equals a longer build's like every other
    node."""
    cfg = L.resolve_r0(models["3_3"], L.DriftConfig(case="cor_a"))
    short = L.phi_profile(models["3_3"], cfg, s_max=1e5)
    long = L.phi_profile(models["3_3"], cfg, s_max=1e6)
    assert short.grid[-1] > 1e5
    np.testing.assert_array_equal(short.grid, long.grid[:short.grid.size])
    np.testing.assert_array_equal(short.values, long.values[:short.grid.size])


@pytest.mark.parametrize("case", ["a", "b", "cor_a", "cor_b"])
def test_phi_profile_prefix_reuse_is_bitwise(monkeypatch, case):
    """A profile grown from a shorter one evaluates only the new radii and
    equals a fresh build bit for bit, for a density source too: the tilted
    kernel sums each radius's terms independently of its batch."""
    m = M.ConvolutionModel(M.log_potential(2.0), M.uniform_density(1.0))
    cfg = L.resolve_r0(m, L.DriftConfig(case=case))
    short = L.phi_profile(m, cfg, s_max=10.0 * cfg.R0)
    fresh = L.phi_profile(m, cfg, s_max=100.0 * cfg.R0)
    scanned = []
    scan = L._case_scan_values

    def counting_scan(model, grid, cfg):
        scanned.append(grid.size)
        return scan(model, grid, cfg)

    monkeypatch.setattr(L, "_case_scan_values", counting_scan)
    grown = L.phi_profile(m, cfg, s_max=100.0 * cfg.R0,
                          prefix=short)
    assert scanned == [fresh.grid.size - short.grid.size]
    for field in ("grid", "values", "psi", "log_p_sigma"):
        a, b = getattr(grown, field), getattr(fresh, field)
        if b is None:
            assert a is None
        else:
            np.testing.assert_array_equal(a, b)


def test_phi_profile_builds_a_prefix_without_psi_in_full(models):
    """A profile that holds no psi has nothing to lend: growing it is a full
    build, equal to a fresh one."""
    m = models["3_3"]
    cfg = L.resolve_r0(m, L.DriftConfig(case="a"))
    phi = L.phi_profile(m, cfg, s_max=10.0 * cfg.R0)
    bare = L.RadialProfile(grid=phi.grid, values=phi.values, r0=phi.r0)
    grown = L.phi_profile(m, cfg, s_max=100.0 * cfg.R0, prefix=bare)
    fresh = L.phi_profile(m, cfg, s_max=100.0 * cfg.R0)
    for field in ("grid", "values", "psi", "log_p_sigma"):
        np.testing.assert_array_equal(getattr(grown, field), getattr(fresh, field))


@pytest.mark.parametrize("sigma", [1.0, 0.7])
@pytest.mark.parametrize("name", ["example_3_2", "example_3_3", "example_3_4",
                                  "lemma_3_2"])
def test_grown_profile_integrates_only_the_new_lattice(monkeypatch, name, sigma):
    """Each growth round runs the p_sigma lattice from the seam, the last
    node of the profile it grows, and equals a fresh build bit for bit, at
    the default sigma and another.  psi is read from one table, scanned
    once, so the rounds and the fresh builds spend their time on the
    p_sigma lattice this test is about."""
    m = P.make_model(name)
    cfg = L.resolve_r0(m, replace(P.default_drift_config(name), sigma=sigma))
    top = 1600.0 * max(cfg.R0, 1.0)
    nodes = L._anchored_grid(cfg.R0, top, 200)
    table = dict(zip(nodes, L._case_scan_values(m, nodes, cfg)))
    monkeypatch.setattr(L, "_case_scan_values",
                        lambda model, grid, cfg: np.array([table[x] for x in grid]))
    calls = []
    on_grid = L._log_p_sigma_on_grid

    def recording(grid, *args):
        calls.append((grid[0], grid.size))
        return on_grid(grid, *args)

    monkeypatch.setattr(L, "_log_p_sigma_on_grid", recording)
    grown = None
    for s_max in (top / 16.0, top / 4.0, top):
        prev, calls[:] = grown, []
        grown = L.phi_profile(m, cfg, s_max=s_max, prefix=prev)
        lattice = L._anchored_grid(cfg.R0, grown.grid[-1], L._REFINE_PER_DECADE,
                                   include_radii=grown.grid)
        seam = cfg.R0 if prev is None else prev.grid[-1]
        assert calls == [(seam, int(np.sum(lattice >= seam)))]
        fresh = L.phi_profile(m, cfg, s_max=s_max)
        for field in ("grid", "values", "psi", "log_p_sigma"):
            np.testing.assert_array_equal(getattr(grown, field), getattr(fresh, field))
        assert grown._seam == fresh._seam
    assert prev.grid.size < grown.grid.size
    # include_radii, or a grid the prefix is longer than: the full build
    for kw in ({"s_max": top, "include_radii": nodes[3:4]},
               {"s_max": top / 4.0}):
        calls[:] = []
        L.phi_profile(m, cfg, prefix=grown, **kw)
        assert calls[0][0] == cfg.R0



# ---------------------------------------------------------------------------
# condition checks
# ---------------------------------------------------------------------------

def test_robustness_bracket_families():
    s = np.geomspace(10.0, 1e4, 400)
    # c t^(p-1), p > 0: passes
    assert L.robustness_bracket(s, 0.7 * s ** -0.5, 1.0, 1).min() > 0.0
    # c/t with c > d-2: bracket = w0 + (2-d)/c, positive once sigma0 is large
    # enough that w0 > (d-2)/c
    assert L.robustness_bracket(s, 4.0 / s, 10.0, 5).min() > 0.0
    # c/t with c < d-2 in d=5: negative for every sigma0 (w0 < 1 <= (d-2)/c)
    assert L.robustness_bracket(s, 1.0 / s, 10.0, 5).min() < 0.0
    assert L.robustness_bracket(s, 1.0 / s, 1.0, 5).min() < 0.0


def test_check_conditions_report(models):
    rep = L.check_conditions(models["3_3"], L.DriftConfig(case="cor_a"))
    assert rep.psi_positive and rep.case_b_positive and rep.robustness_ok
    assert rep.all_ok
    d = rep.to_dict()
    assert set(d) >= {"R0", "psi_min", "case_b_min", "robustness_inf"}


def test_check_conditions_reports_failure_without_raising(models):
    rep = L.check_conditions(models["3_2"], L.DriftConfig(case="cor_a", R0=0.1))
    assert not rep.psi_positive
    assert not rep.all_ok


def test_resolve_r0_auto(models):
    cfg = L.resolve_r0(models["3_3"], L.DriftConfig(case="cor_a"))
    assert 2.0 < cfg.R0 < 4.0
    # explicit R0 is honored
    cfg2 = L.resolve_r0(models["3_3"], L.DriftConfig(case="cor_a", R0=7.0))
    assert cfg2.R0 == 7.0


# ---------------------------------------------------------------------------
# drift certificates
# ---------------------------------------------------------------------------

def test_drift_check_case_a_gaussian_exact():
    """Point-mass source, quadratic well: the radial identity makes
    L W / W = -phi exactly; zero violations at 1e-8 over 200 radii in [1, 10].
    Independent oracle: the Lyapunov function and its drift integrated by
    adaptive quadrature."""
    m = M.ConvolutionModel(M.quadratic_potential(), M.point_mass())
    cfg = L.DriftConfig(case="a", R0=1.0, sigma=1.0)
    cert = L.drift_check(m, cfg, np.geomspace(1.0, 10.0, 200))
    assert cert.violation_fraction == 0.0
    assert cert.max_violation <= 1e-8
    assert cert.valid

    # oracle: W(s) = int_1^s exp(w (u^2 - 1)) du + 1, L W / W = (W'/W)(w psi - psi)
    w = 0.5
    for s in [1.5, 3.0, 7.0]:
        Wp = math.exp(w * (s * s - 1.0))
        W = integrate.quad(lambda u: math.exp(w * (u * u - 1.0)), 1.0, s)[0] + 1.0
        lw = (Wp / W) * (w * 2.0 * s - 2.0 * s)
        phi_oracle = 2.0 * s / ((1.0 + cfg.sigma) * (W / Wp))
        assert lw == pytest.approx(-phi_oracle, rel=1e-12)
        assert cert.phi(s) == pytest.approx(phi_oracle, rel=2e-4)


def test_drift_check_case_b_gaussian():
    m = M.ConvolutionModel(M.quadratic_potential(), M.point_mass())
    cfg = L.DriftConfig(case="b", R0=1.0, delta=0.75)
    cert = L.drift_check(m, cfg, np.geomspace(1.0, 10.0, 200))
    assert cert.violation_fraction == 0.0
    assert cert.valid


def test_drift_check_b_constant_stable_under_grid_refinement():
    m = M.ConvolutionModel(M.quadratic_potential(), M.point_mass())
    cfg = L.DriftConfig(case="b", R0=1.0, delta=0.75)
    b1 = L.drift_check(m, cfg, np.geomspace(1.0, 10.0, 50)).b
    b2 = L.drift_check(m, cfg, np.geomspace(1.0, 10.0, 100)).b
    assert b1 > 0.0 and abs(b1 - b2) <= 0.01 * b2


def test_certificate_constant_assembly():
    m = M.ConvolutionModel(M.quadratic_potential(), M.point_mass())
    cfg = L.DriftConfig(case="a", R0=1.0, sigma=1.0)
    cert = L.drift_check(m, cfg, np.geomspace(1.0, 10.0, 50))
    assert cert.c0 == pytest.approx(cert.b * cert.lambda_inv_bound + 1.0, rel=1e-14)
    s = cert.summary()
    assert s["valid"] and s["c0"] == pytest.approx(cert.c0)


def test_case_b_dominance_and_dual_route_laplacian(models):
    """The exact Laplacian (boundary terms of the uniform source) against the
    tilted-moment identity Delta V_nu = |grad V_nu|^2 - E[|grad V|^2 - Delta V],
    valid where the window [x-R, x+R] misses the cusp of V, and the convexity
    dominance that makes the exponential Lyapunov drift work."""
    m = models["3_3"]
    pot = m.potential
    delta = 0.75
    cfg = L.DriftConfig(case="b", R0=2.0, delta=delta)

    def h(u):
        return pot.grad_1d(u) ** 2 - pot.laplacian(np.abs(u))
    for x in [2.0, -3.7, 9.0]:
        _, g, lap = M.v_nu_grad_laplacian(m, x)
        lap_id = g * g - M.tilted_u_moment(m, x, h)
        assert lap == pytest.approx(lap_id, rel=1e-12, abs=0.0)
        assert delta * g * g - lap >= L.case_b_integrand(m, x, cfg) - 1e-8


def test_rate_quantities_stable_under_quadrature_refinement(models):
    m = models["3_2"]
    m2 = M.ConvolutionModel(m.potential, m.source,
                            quadrature=M.QuadratureSpec(nodes=2 * m.quadrature.nodes))
    cfg = L.DriftConfig(case="a", R0=2.0, sigma=1.0)
    ss = np.array([2.0, 5.0, 20.0, 80.0])
    psi1 = L.psi_case_a(m, ss)
    psi2 = L.psi_case_a(m2, ss)
    np.testing.assert_allclose(psi1, psi2, rtol=1e-3)
    phi1 = L.phi_profile(m, cfg, s_max=100.0)
    phi2 = L.phi_profile(m2, cfg, s_max=100.0)
    np.testing.assert_allclose(phi1(ss), phi2(ss), rtol=1e-3)


def test_certificate_and_rate_tables_reuse_the_profile_bitwise():
    """drift_check reads the drift at its points from its profile, which
    holds their radii, and rate_tables lent that profile builds the tables
    of a separate build, bit for bit."""
    m = P.make_model("lemma_3_2")
    cfg = L.resolve_r0(m, L.DriftConfig(case="a"))
    radii = np.geomspace(cfg.R0, 10.0 * cfg.R0, 40)
    cert = L.drift_check(m, cfg, radii)
    drift = L._tilted_radial_drift(m, L._sphere_points(m, radii, 16))
    psi = cert.phi.psi[np.searchsorted(cert.phi.grid, radii)]
    assert drift.tobytes() == np.broadcast_to(psi[:, None], drift.shape).tobytes()
    r = np.geomspace(1.0, 1e6, 121)
    lent, fresh = (R.rate_tables(m, cfg, r_grid=r, profile=p) for p in (cert.phi, None))
    for table in ("varphi", "beta", "alpha"):
        for field in ("grid", "values"):
            a, b = (getattr(getattr(res, table), field) for res in (lent, fresh))
            assert a.tobytes() == b.tobytes(), (table, field)
    for field in ("grid", "values", "psi", "log_p_sigma"):
        assert getattr(lent.phi, field).tobytes() == getattr(fresh.phi, field).tobytes()
