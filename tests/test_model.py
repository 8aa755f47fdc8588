import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from wpconv import model as M
from wpconv import presets as P
from wpconv import verify as V
from wpconv.errors import ConfigError, NumericUnderflow

from conftest import PRESET_RATE_RUNS


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def test_quadratic_normalization_constant():
    pot = M.quadratic_potential()
    assert abs(pot.c - 0.5 * math.log(math.pi)) < 1e-10


def test_log_potential_d1_p2_constant_is_zero():
    # density (1+|x|)^-3 integrates to one on the line already
    pot = M.log_potential(2.0)
    assert abs(pot.c) < 1e-10


@pytest.mark.parametrize("make", [
    lambda: M.power_potential(0.6),
    lambda: M.power_potential(1.5),
    lambda: M.log_potential(2.0),
    lambda: M.loglog_potential(2.0),
    lambda: M.smooth_well_potential(0.5),
])
def test_potential_gradient_matches_fd(make):
    pot = make()
    rng = np.random.default_rng(11)
    xs = np.sign(rng.normal(size=50)) * rng.uniform(0.3, 40.0, size=50)
    for x in xs:
        g = pot.grad_1d(x)
        fd = central_diff(lambda y: pot.value(abs(y)), x)
        assert abs(g - fd) <= 1e-6 * max(abs(fd), 1e-12)


def test_potential_laplacian_matches_fd_of_gradient():
    pot = M.loglog_potential(2.0)
    for x in [0.7, 3.0, 25.0]:
        lap = pot.laplacian(x)
        fd = central_diff(pot.grad_1d, x)
        assert abs(lap - fd) <= 1e-6 * max(abs(fd), 1e-10)


def test_radial_invariance_under_rotation_d2():
    pot = M.log_potential(2.0, d=2)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=2) * rng.uniform(0.5, 30.0)
        th = rng.uniform(0.0, 2.0 * np.pi)
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert abs(pot.value(x) - pot.value(R @ x)) < 1e-12 * max(1.0, abs(pot.value(x)))


def test_patched_profile_is_c2_at_the_seam():
    pot = M.power_potential(0.6).patched(0.1)
    e = 0.1
    for f, fp in [(pot.v0, pot.v0p), (pot.v0p, pot.v0pp)]:
        left = f(e - 1e-9)
        right = f(e + 1e-9)
        assert abs(left - right) < 1e-6
    # patched profile is smooth at the origin: derivative vanishes there
    assert abs(pot.v0p(1e-12)) < 1e-9


# ---------------------------------------------------------------------------
# p_nu
# ---------------------------------------------------------------------------

def test_p_nu_point_mass_identity(gaussian_point):
    m = gaussian_point
    for x in [-1.3, 0.0, 0.4, 2.2]:
        assert M.p_nu(m, x) == pytest.approx(math.exp(-m.potential.value(x)), rel=1e-14)


def test_p_nu_two_atom_closed_form(gaussian_pair):
    m = gaussian_pair
    c = m.potential.c
    assert M.p_nu(m, 0.0) == pytest.approx(math.exp(-c) * math.exp(-1.0), rel=1e-14)


def test_p_nu_lattice_matches_brute_series(lattice_well):
    """Direct summation oracle: truncate where the exp-damped series tail is
    below 1e-10; levels N and 2N must agree to 1e-9."""
    m = lattice_well
    pot = m.potential

    def brute(N):
        i = np.arange(-N, N + 1, dtype=float)
        # Euler-Maclaurin corrected normalizer for sum 1/(1+i^2)
        K = 10 ** 6
        j = np.arange(1, K + 1, dtype=float)
        gamma = 1.0 + 2.0 * np.sum(1.0 / (1.0 + j ** 2)) + 2.0 * (np.pi / 2.0 - np.arctan(K + 0.5))
        w = (1.0 / (1.0 + np.abs(i) ** 2)) / gamma
        return float(np.sum(w * np.exp(-pot.c - pot.v0(np.abs(0.0 - i)))))

    b1, b2 = brute(2000), brute(4000)
    assert abs(b1 - b2) <= 1e-9
    assert M.p_nu(m, 0.0) == pytest.approx(b2, abs=1e-9)


def test_p_nu_matches_adaptive_quadrature(power_uniform):
    m = power_uniform
    pot, nu = m.potential, m.source
    for x in [0.0, 0.5, 3.0, 41.0]:
        f = lambda z: math.exp(-pot.value(abs(x - z))) * 0.5
        ref = sum(integrate.quad(f, a, b, epsabs=1e-15, epsrel=1e-13, limit=300)[0]
                  for a, b in [(-1.0, min(x, 1.0) if -1 < x < 1 else 0.0),
                               (min(x, 1.0) if -1 < x < 1 else 0.0, 1.0)])
        assert M.p_nu(m, x) == pytest.approx(ref, rel=1e-9)


def test_p_nu_underflow_raises(gaussian_point):
    with pytest.raises(NumericUnderflow):
        M.p_nu(gaussian_point, 40.0)
    # but the log-space value is still available
    assert np.isfinite(M.v_nu(gaussian_point, 40.0))


def test_log_space_consistency(log_uniform):
    m = log_uniform
    for x in [0.0, 1.2, 17.0, 240.0]:
        assert abs(M.v_nu(m, x) + math.log(M.p_nu(m, x))) < 1e-10


# ---------------------------------------------------------------------------
# gradients of V_nu
# ---------------------------------------------------------------------------

def test_grad_point_mass_identity(gaussian_point):
    m = gaussian_point
    for x in [-2.0, 0.3, 1.7]:
        _, g = M.v_nu_and_grad(m, x)
        assert g == pytest.approx(2.0 * x, rel=1e-12)


def test_grad_two_atom_symmetry(gaussian_pair):
    _, g = M.v_nu_and_grad(gaussian_pair, 0.0)
    assert abs(g) < 1e-14


@pytest.mark.parametrize("fixture", [
    "gaussian_pair", "lattice_well", "power_uniform",
    "log_uniform", "loglog_uniform", "well_power_density",
])
def test_grad_matches_fd_at_seeded_points(fixture, request):
    m = request.getfixturevalue(fixture)
    rng = np.random.default_rng(1234)
    xs = np.sign(rng.normal(size=100)) * rng.uniform(1.5, 40.0, size=100)
    for x in xs:
        _, g = M.v_nu_and_grad(m, x)
        fd = central_diff(lambda y: M.v_nu(m, y), x)
        assert abs(g - fd) <= 1e-6 * max(abs(fd), 1e-10), f"x={x}"


# ---------------------------------------------------------------------------
# tilted expectations
# ---------------------------------------------------------------------------

def test_tilted_point_mass_returns_g_at_atom(gaussian_point):
    val = M.tilted_expectation(gaussian_point, 1.3, lambda z: np.cos(z))
    assert val == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("fixture", [
    "gaussian_pair", "lattice_well", "power_uniform", "log_uniform", "well_power_density",
])
def test_tilted_normalization(fixture, request):
    m = request.getfixturevalue(fixture)
    for x in [-7.0, 0.0, 2.5, 61.0]:
        one = M.tilted_expectation(m, x, lambda z: np.ones(np.shape(z)))
        assert abs(one - 1.0) <= 1e-10


def test_tilted_odd_function_vanishes_by_symmetry():
    m = M.ConvolutionModel(M.quadratic_potential(), M.uniform_density(1.0))
    val = M.tilted_expectation(m, 0.0, lambda z: z)
    assert abs(val) < 1e-12


@pytest.mark.parametrize("make, symmetric", [
    (lambda: M.point_mass(0.0), True),
    (lambda: M.point_mass(0.0, d=2), True),
    (lambda: M.point_mass(0.5), False),
    (lambda: M.symmetric_pair(1.0), True),
    (lambda: M.symmetric_pair(1.0, d=2), True),
    (lambda: M.discrete_atoms([-1.0, 2.0], [0.5, 0.5]), False),
    (lambda: M.discrete_atoms([-1.0, 1.0], [0.3, 0.7]), False),
    (lambda: M.discrete_atoms([[1.0, 2.0], [-1.0, -2.0], [0.0, 0.0]], [1, 1, 3], d=2), True),
    (lambda: M.discrete_atoms([[1.0, 2.0], [-1.0, 2.0]], [1, 1], d=2), False),
    (lambda: M.integer_lattice(1.0, n_max=1000), True),
    (lambda: M.uniform_density(1.0), True),
    (lambda: M.power_tail_density(1.0), True),
    (lambda: P.make_source({"kind": "atoms", "locations": [2.0, -2.0, 0.0],
                            "weights": [1, 1, 2]}), True),
    (lambda: P.make_source({"kind": "atoms", "locations": [2.0, -2.0],
                            "weights": [1, 2]}), False),
    (lambda: P.make_source({"kind": "point_mass", "location": 0.5}), False),
    (lambda: P.make_source(None), True),
])
def test_source_symmetric_flag(make, symmetric):
    assert make().symmetric is symmetric


@pytest.mark.parametrize("src", [M.integer_lattice(1.0, n_max=1000),
                                 M.uniform_density(1.5), M.power_tail_density(0.7)],
                         ids=["lattice", "uniform", "power_tail"])
def test_symmetric_by_construction_matches_the_data(src):
    """The constructors that set the flag without checking build mirror data."""
    if src.kind == "density":
        z = np.linspace(0.0, 40.0, 4001)
        np.testing.assert_array_equal(src.density(z), src.density(-z))
    else:
        assert M.discrete_atoms(src.locations, src.weights).symmetric


def test_fold_even_calls_once_per_distinct_radius(lattice_well):
    x = np.array([[2.0, -2.0], [0.5, -3.0], [3.0, 0.0]])
    seen = []

    def f(a):
        seen.append((a, M._batch_log_p(lattice_well, a)))
        return seen[-1][1]
    folded = M._fold_even(lattice_well, x, f)
    (radii, values), = seen
    np.testing.assert_array_equal(radii, [0.0, 0.5, 2.0, 3.0])
    np.testing.assert_array_equal(folded, values[np.searchsorted(radii, np.abs(x))])
    np.testing.assert_allclose(folded, M._batch_log_p(lattice_well, x), rtol=1e-14)
    # an asymmetric source calls through unchanged
    m = M.ConvolutionModel(M.quadratic_potential(), M.discrete_atoms([-1.0, 2.0], [1, 1]))
    np.testing.assert_array_equal(M._fold_even(m, x, lambda a: a), x)


# ---------------------------------------------------------------------------
# tails
# ---------------------------------------------------------------------------

def test_tail_at_zero_is_one(log_uniform):
    assert M.measure_tail(log_uniform, "mu", 0.0) == pytest.approx(1.0, abs=1e-10)
    assert M.measure_tail(log_uniform, "nu", 0.0) == pytest.approx(1.0, abs=1e-14)


def test_mu_tail_slope_and_closed_form(log_uniform):
    """Algebraic-tail potential, p=2: tail(t) = (1+t)^-2 exactly in d=1."""
    m = log_uniform
    ts = np.geomspace(1e2, 1e5, 25)
    tails = M.measure_tail(m, "mu", ts)
    closed = (1.0 + ts) ** -2
    np.testing.assert_allclose(tails, closed, rtol=1e-8)
    slope = np.polyfit(np.log(ts), np.log(tails), 1)[0]
    assert abs(slope - (-2.0)) < 0.05


def test_compact_source_tail_vanishes_beyond_support(log_uniform):
    assert M.measure_tail(log_uniform, "nu", 1.5) == 0.0


def test_lattice_tail_matches_brute(lattice_well):
    nu = lattice_well.source
    j = np.arange(10, 10 ** 7, dtype=float)
    brute = 2.0 * np.sum(1.0 / (1.0 + j ** 2)) / (np.pi / np.tanh(np.pi))
    assert nu.tail(10.0) == pytest.approx(brute, abs=1e-7)
    assert nu.tail(9.5) == nu.tail(10.0)  # atoms live on the integers


ZETA_Q = (1.2, 1.5, 2.0, 3.0)


def test_hurwitz_zeta_matches_scipy():
    """Cephes' algorithm in numpy against scipy.special.zeta, k = 1..120 and
    m from 1 to 1e12, across the q > 1e8 asymptotic branch.  Only numpy's
    power separates the two (last-bit differences), so 6e-16 relative; values
    below 1e-300 lose bits to subnormal intermediates and get 1e-310 absolute."""
    m = np.unique(np.concatenate([np.ceil(np.geomspace(1.0, 1e12, 400)),
                                  [1e8 - 1.0, 1e8, 1e8 + 1.0, 1e8 + 2.0]]))
    k = np.arange(1, 121)
    for q in ZETA_Q:
        x, mm = np.broadcast_arrays(k * q, m[:, None])
        with np.errstate(invalid="ignore"):  # 0/0 once q^-x underflows
            z = M._hurwitz_zeta(x, mm)
        np.testing.assert_allclose(z, special.zeta(x, mm), rtol=6e-16, atol=1e-310)


def _ptail_sum_scipy(m, q, terms=120):
    """The alternating Hurwitz-zeta series on scipy's zeta, summed in full."""
    extra, m = (0.5, 2) if m == 1 else (0.0, m)
    k = np.arange(1, terms + 1, dtype=float)
    return extra + float(np.sum(np.where(k % 2 == 1, 1.0, -1.0) * special.zeta(k * q, m)))


@pytest.mark.parametrize("q", ZETA_Q)
def test_ptail_sum_normalizer_and_truncation_within_one_ulp(q):
    for m in (1, 200_001):
        ref = _ptail_sum_scipy(m, q)
        assert abs(M._ptail_sum(m, q) - ref) <= np.spacing(ref)


def test_lattice_tail_matches_scipy_series():
    nu = M.integer_lattice(1.0)
    gamma = 1.0 + 2.0 * _ptail_sum_scipy(1, 2.0)
    t = np.geomspace(1.0, 1e12, 1000)
    ref = np.array([2.0 * _ptail_sum_scipy(int(math.ceil(v)), 2.0) / gamma for v in t])
    np.testing.assert_allclose(nu.tail(t), ref, rtol=1e-15, atol=0.0)


def _power_tail_quad(p, t):
    """The power-tail density's tail: adaptive quadrature on [t, 2] with
    breaks at the powers of 2 (a single [t, 2] interval is off by 1.7e-15 at
    p = 0.5, t = 1e-6, against the hypergeometric closed form), and the
    alternating series beyond 2."""
    q = 1.0 + p
    k = np.arange(1, 120, dtype=float)
    signs = np.where(k % 2 == 1, 1.0, -1.0)

    def half(t):
        if t >= 2.0:
            return float(np.sum(signs * t ** (1.0 - k * q) / (k * q - 1.0)))
        breaks = [b for b in 2.0 ** -np.arange(0.0, 60.0) if t < b]
        return integrate.quad(lambda z: 1.0 / (1.0 + z ** q), t, 2.0, points=breaks,
                              epsabs=1e-15, epsrel=1e-15, limit=200,
                              full_output=1)[0] + half(2.0)

    return np.array([half(v) / half(0.0) for v in t])


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0, 2.0, 3.0])
def test_power_tail_density_tail_matches_quad(p):
    t = np.concatenate([np.linspace(0.0, 2.0, 81), np.geomspace(1e-6, 100.0, 120)])
    nu = M.power_tail_density(p)
    np.testing.assert_allclose(nu.tail(t), _power_tail_quad(p, t), rtol=1e-15, atol=0.0)


def test_power_tail_density_at_p1_is_the_cauchy_density():
    """At p = 1 the normalizer is pi, as the quad-based rule also gave."""
    z = np.linspace(-50.0, 50.0, 201)
    np.testing.assert_array_equal(M.power_tail_density(1.0).density(z),
                                  1.0 / (np.pi * (1.0 + np.abs(z) ** 2.0)))


def test_sphere_area_matches_scipy_gamma_bitwise():
    for d in range(1, 7):
        assert M.sphere_area(d) == 2.0 * np.pi ** (d / 2.0) / special.gamma(d / 2.0)


@pytest.mark.parametrize("nu", [M.integer_lattice(1.0), M.power_tail_density(1.5)],
                         ids=["lattice", "power_tail"])
def test_source_tails_are_array_at_once(nu):
    t = np.array([[-1.0, 0.0, 0.4, 1.0], [2.5, 10.0, 1e3, 1e9]])
    out = nu.tail(t)
    assert out.shape == t.shape
    assert out[0, 0] == 1.0 and out[0, 1] == 1.0
    for idx in np.ndindex(t.shape):
        scalar = nu.tail(float(t[idx]))
        assert isinstance(scalar, float) and scalar == out[idx]
        assert nu.tail(np.array(t[idx])) == scalar
    np.testing.assert_array_equal(nu.tail(t.ravel()), out.ravel())
    assert np.all(np.diff(out[1]) < 0.0)


@given(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=2, max_size=8))
@settings(max_examples=25, deadline=None)
def test_tail_monotonicity(ts):
    m = M.ConvolutionModel(M.log_potential(2.0), M.uniform_density(1.0))
    ts = np.sort(np.asarray(ts))
    mu = M.measure_tail(m, "mu", ts)
    nu = M.measure_tail(m, "nu", ts)
    assert np.all(np.diff(mu) <= 1e-12)
    assert np.all(np.diff(nu) <= 1e-12)


def _radial_mass_quad(pot, a, far=None):
    """int_a^inf exp(-v0(s)) s^(d-1) ds by adaptive quadrature: s-space
    panels up to 1e6, then doubling panels in y = log s up to y = 100, plus
    far(100), the closed-form mass beyond, where a profile leaves some.  The
    integrand is scaled by exp(v0(a)), so a mass below the normal float
    range is as accurate as its last rounding allows."""
    v0a = float(pot.v0(a))
    f = lambda s: np.exp(v0a - pot.v0(s)) * s ** (pot.d - 1)
    marks = [0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 1e2, 1e3, 1e4, 1e5, 1e6]
    edges = [a] + [m for m in marks if a < m] if a < 1e6 else []
    total = sum(integrate.quad(f, lo, hi, epsabs=1e-300, epsrel=1e-12,
                               limit=200, full_output=1)[0]
                for lo, hi in zip(edges[:-1], edges[1:]))
    g = lambda y: np.exp(pot.d * y + v0a - pot.v0(np.exp(y)))
    ya = math.log(max(a, 1e6))
    while ya < 100.0:
        yb = min(max(2.0 * ya, ya + 5.0), 100.0)
        total += integrate.quad(g, ya, yb, epsabs=1e-300, epsrel=1e-10, limit=100,
                                full_output=1)[0]
        ya = yb
    return math.exp(-v0a) * total + (far(100.0) if far else 0.0)


def _mass(pot, a):
    """int_a^inf exp(-v0(s)) s^(d-1) ds as read through c and measure_tail."""
    model = M.ConvolutionModel(pot, M.point_mass(d=pot.d))
    return math.exp(pot.c) / M.sphere_area(pot.d) * M.measure_tail(model, "mu", a)


RADIAL_MASS_POTENTIALS = {
    **{name: P.make_model(name).potential
       for name in ("example_3_1", "example_3_2", "example_3_3", "example_3_4")},
    "loglog_p1.5": M.loglog_potential(1.5),
    "smooth_well_q0.3": M.smooth_well_potential(0.3),
    "quadratic": M.quadratic_potential(),
    "patched_power_0.4": M.power_potential(0.4).patched(),
    "log_d2": M.log_potential(1.0, d=2),
    "power_d2": M.power_potential(1.5, d=2),
}

# loglog_potential(p), d = 1: c and mu(|x| >= t) at t = 1e7, 1e100, from
# 30-digit mpmath integrals to infinity (example_3_4 is p = 2)
LOGLOG_MPMATH = {
    "loglog_p1.5": (1.63217703387868828882,
                    {1e7: 0.194785958217374314286, 1e100: 0.0515355206152065597160}),
    "example_3_4": (1.08633762827670599516,
                    {1e7: 0.0418722044969151492398, 1e100: 0.00293105433626263129104}),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(RADIAL_MASS_POTENTIALS))
def test_radial_mass_rule_matches_adaptive_quadrature(name):
    pot = RADIAL_MASS_POTENTIALS[name]
    if name in LOGLOG_MPMATH:
        # the quadrature stops at y = 100, short of a loglog profile's mass
        c, tails = LOGLOG_MPMATH[name]
        assert pot.c == pytest.approx(c, rel=1e-15, abs=0.0)
        model = M.ConvolutionModel(pot, M.point_mass())
        for t, tail in tails.items():
            assert M.measure_tail(model, "mu", t) == pytest.approx(tail, rel=1e-15, abs=0.0), t
        return
    for a in (0.0, 1e-3, 0.7, 17.0, 1e5, 1e7, 1e9):
        ref = _radial_mass_quad(pot, a)
        assert _mass(pot, a) == pytest.approx(ref, rel=1e-12, abs=0.0), a


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_radial_lattice_ends_before_the_profile_leaves_the_float_range():
    """v0 = r^3 - r^2 is inf - inf = nan past s = 1e154; the lattice must end
    where the density falls below 1e-320, long before that."""
    pot = M.expression_potential("r**3 - r**2")
    for a in (0.0, 0.7, 2.0):
        assert _mass(pot, a) == pytest.approx(_radial_mass_quad(pot, a), rel=1e-12, abs=0.0), a


MU_TAIL_CASES = {
    "quadratic": (M.quadratic_potential(), np.geomspace(1.0, 26.0, 15)),
    "smooth_well_q0.3": (M.smooth_well_potential(0.3), np.geomspace(1e3, 1e12, 40)),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(MU_TAIL_CASES) + sorted(PRESET_RATE_RUNS))
def test_measure_tail_matches_the_per_radius_rule(case, preset_rate_run):
    """The tail over a whole radius array against _radial_mass_quad per
    radius, on sparse steep inputs and at the radii the preset rate chains
    ask for (every 8th distinct one and the largest, to bound the quad cost)."""
    far = None
    if case in MU_TAIL_CASES:
        pot, t = MU_TAIL_CASES[case]
        model = M.ConvolutionModel(pot, M.uniform_density(1.0))
        checked = t
    else:
        model, _, _, t = preset_rate_run(case)
        distinct = np.unique(t)
        checked = np.append(distinct[::8], distinct[-1])
        if case == "example_3_4":  # loglog, p = 2: y^-2 density beyond y = 100
            far = lambda y: 1.0 / y
    got = dict(zip(t, M.measure_tail(model, "mu", t)))
    pot = model.potential
    total = _radial_mass_quad(pot, 0.0, far)
    ref = [1.0 if x <= 1e-12 else _radial_mass_quad(pot, x, far) / total for x in checked]
    # below the normal float range only absolute accuracy is defined
    np.testing.assert_allclose([got[x] for x in checked], ref, rtol=1e-12,
                               atol=1e-12 * np.finfo(float).tiny)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(RADIAL_MASS_POTENTIALS))
def test_measure_tail_of_one_radius_is_the_per_radius_value(name):
    """A one-radius call, scalar or array, gives the value the radius gets in
    a call over all the radii; t <= 1e-12 gives 1."""
    pot = RADIAL_MASS_POTENTIALS[name]
    model = M.ConvolutionModel(pot, M.point_mass(d=pot.d))
    ts = np.array([0.0, 1e-12, 1e-3, 0.7, 17.0, 1e5, 1e9])
    every = M.measure_tail(model, "mu", ts)
    assert every[0] == every[1] == 1.0
    for t, ref in zip(ts, every):
        assert M.measure_tail(model, "mu", t) == ref
        np.testing.assert_array_equal(M.measure_tail(model, "mu", np.array([t])), [ref])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ["example_3_1", "example_3_2", "example_3_3",
                                  "example_3_4", "lemma_3_2"])
def test_measure_tail_of_each_radius_is_independent_of_the_others(name):
    """Each radius of a shuffled subset of the verify table's nodes gets,
    bit for bit, what a one-radius call gives it."""
    model = P.make_model(name)
    log_t, _ = V._mu_log_tail(model)
    t = np.random.default_rng(3).permutation(np.exp(log_t))[:400]
    one = [M.measure_tail(model, "mu", x) for x in t]
    np.testing.assert_array_equal(M.measure_tail(model, "mu", t), one)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [0.5, 2.0, 4.0])
def test_log_potential_tail_is_the_closed_form(p):
    """log_potential(p), d = 1: mu(|x| >= t) = (1+t)^-p, within 4 ulp of
    |log tail| (plus 4e-16), wherever the tail is above 1e-300."""
    model = M.ConvolutionModel(M.log_potential(p), M.point_mass())
    t = np.geomspace(1e-10, 1e150, 3001)
    exact = np.exp(-p * np.log1p(t))
    keep = exact > 1e-300
    t, exact = t[keep], exact[keep]
    err = np.abs(M.measure_tail(model, "mu", t) / exact - 1.0)
    assert np.all(err <= 4.0 * np.spacing(np.abs(np.log(exact))) + 4e-16)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quadratic_tail_is_erfc():
    """quadratic_potential(), d = 1: mu(|x| >= t) = erfc(t), within 4 ulp of
    |log tail| (plus 4e-16) and the rounding of log t, which moves the log
    tail by kappa * eps with kappa = |d log erfc / d log t|."""
    model = M.ConvolutionModel(M.quadratic_potential(), M.point_mass())
    t = np.concatenate([np.geomspace(1e-10, 1.0, 400), np.linspace(1.0, 26.5, 2001)])
    exact = special.erfc(t)
    kappa = 2.0 / math.sqrt(math.pi) * t * np.exp(-t * t) / exact
    err = np.abs(M.measure_tail(model, "mu", t) / exact - 1.0)
    bound = 4.0 * np.spacing(np.abs(np.log(exact))) + 4e-16 + kappa * np.finfo(float).eps
    assert np.all(err <= bound)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("q", [0.4, 0.5])
def test_patched_mass_matches_quad_split_at_the_seam(q):
    """power_potential(q).patched(0.1): the normalization and the tail mass at
    a = 0.05 and 0.2 against adaptive quadrature split at the seam s = 0.1."""
    pot = M.power_potential(q).patched(0.1)
    f = lambda s: math.exp(-float(pot.v0(s)))

    def mass(a):
        edges = [a] + [e for e in (0.1, 1.0, 10.0, 1e2, 1e3, 1e4, 1e5) if e > a] + [np.inf]
        return sum(integrate.quad(f, lo, hi, epsabs=1e-300, epsrel=1e-13, limit=200,
                                  full_output=1)[0] for lo, hi in zip(edges[:-1], edges[1:]))

    total = mass(0.0)
    assert pot.c == pytest.approx(math.log(2.0 * total), rel=1e-14, abs=0.0)
    model = M.ConvolutionModel(pot, M.point_mass())
    for a in (0.05, 0.2):
        assert M.measure_tail(model, "mu", a) == pytest.approx(mass(a) / total, rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# normalization invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fixture", ["gaussian_pair", "power_uniform", "log_uniform",
                                     "loglog_uniform", "lattice_well", "well_power_density"])
def test_density_normalization(fixture, request):
    grid, complement, width = M.density_normalization(
        request.getfixturevalue(fixture), return_parts=True)
    assert abs(grid + complement - 1.0) < 1e-6
    # the analytic complement must not be what carries the tolerance
    assert width <= 1e-7


def test_quadrature_refinement_stability(power_uniform):
    """Doubling the per-panel node count moves p and grad V_nu by < 0.1%."""
    m = power_uniform
    m2 = M.ConvolutionModel(m.potential, m.source,
                            quadrature=M.QuadratureSpec(nodes=2 * m.quadrature.nodes))
    for x in [0.4, 2.0, 33.0]:
        p1, p2 = M.p_nu(m, x), M.p_nu(m2, x)
        assert abs(p1 - p2) <= 1e-3 * p2
        g1 = M.v_nu_and_grad(m, x)[1]
        g2 = M.v_nu_and_grad(m2, x)[1]
        assert abs(g1 - g2) <= 1e-3 * max(abs(g2), 1e-12)


# ---------------------------------------------------------------------------
# the batched quadrature kernel
# ---------------------------------------------------------------------------

# batched and single-point calls sum the same terms with different padding,
# so they agree to rounding of a few hundred terms
BATCH_RTOL = 64 * np.finfo(float).eps


def _quad(f, edges):
    return sum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=400)[0]
               for a, b in zip(edges[:-1], edges[1:]) if b > a)


def _density_oracle(m, x, h):
    """(p(x), E_{nu_x}[h(u)]) by adaptive quadrature in u = x - z, split at
    the potential cusp u = 0, the density kink u = x and geometric marks."""
    pot, src = m.potential, m.source
    if np.isfinite(src.support_radius):
        lo, hi = x - src.support_radius, x + src.support_radius
    else:
        lo, hi = -m.reach(), m.reach()
    marks = [lo, hi, 0.0, x] + [s * 10.0 ** k for s in (-1, 1) for k in range(4)]
    edges = sorted(e for e in set(marks) if lo <= e <= hi)
    f = lambda u: math.exp(-pot.value(abs(u))) * float(src.density(x - u))
    p = _quad(f, edges)
    return p, _quad(lambda u: f(u) * float(h(u)), edges) / p


def _atom_oracle(m, x, h):
    """(p(x), E_{nu_x}[h(u)]) by direct summation over every stored atom."""
    pot, src = m.potential, m.source
    u = x - src.locations[:, 0]
    t = src.weights * np.exp(-pot.value(np.abs(u)))
    return float(np.sum(t)), float(np.sum(t * h(u)) / np.sum(t))


KERNEL_CASES = {
    "finite_atoms": (lambda: M.ConvolutionModel(
        M.power_potential(1.5), M.discrete_atoms([-2.0, 0.5, 3.0], [0.2, 0.5, 0.3])),
        _atom_oracle),
    "lattice": (lambda: M.ConvolutionModel(M.smooth_well_potential(0.5),
                                           M.integer_lattice(1.0)), _atom_oracle),
    "compact_density": (lambda: M.ConvolutionModel(M.log_potential(2.0),
                                                   M.uniform_density(1.0)),
                        _density_oracle),
    "unbounded_density": (lambda: M.ConvolutionModel(M.smooth_well_potential(0.5),
                                                     M.power_tail_density(1.0)),
                          _density_oracle),
}
KERNEL_POINTS = np.array([-37.5, -4.2, -1.5, 1.0, 1.75, 6.0, 55.0])


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_array_calls_match_scalar_calls_and_oracle(case):
    make, oracle = KERNEL_CASES[case]
    m = make()
    h = np.tanh
    v = M.v_nu(m, KERNEL_POINTS)
    v2, g = M.v_nu_and_grad(m, KERNEL_POINTS)
    mom = M.tilted_u_moment(m, KERNEL_POINTS, h)
    assert v.shape == g.shape == mom.shape == KERNEL_POINTS.shape
    np.testing.assert_array_equal(v, v2)
    for i, x in enumerate(KERNEL_POINTS):
        np.testing.assert_allclose(v[i], M.v_nu(m, x), rtol=BATCH_RTOL, atol=0.0)
        np.testing.assert_allclose(g[i], M.v_nu_and_grad(m, x)[1], rtol=BATCH_RTOL,
                                   atol=0.0)
        np.testing.assert_allclose(mom[i], M.tilted_u_moment(m, x, h), rtol=BATCH_RTOL,
                                   atol=0.0)
        p_ref, mom_ref = oracle(m, x, h)
        _, g_ref = oracle(m, x, m.potential.grad_1d)
        assert math.exp(-v[i]) == pytest.approx(p_ref, rel=1e-10), f"x={x}"
        assert g[i] == pytest.approx(g_ref, rel=1e-10), f"x={x}"
        assert mom[i] == pytest.approx(mom_ref, rel=1e-10), f"x={x}"


@pytest.mark.parametrize("x_over_r", [-1.0, -0.5, 0.3, 0.5, 1.0])
def test_compact_density_log_p_at_support_edge(x_over_r):
    """When [x-R, x+R] ends at the cusp u = 0 (x = +-R) the panel touching
    it must be graded like every other panel at the cusp."""
    m = P.make_model("example_3_2", p=0.6)
    R = m.source.support_radius
    x = x_over_r * R
    p_ref, _ = _density_oracle(m, x, np.ones_like)
    batched = M._batch_log_p(m, np.array([x]))[0]
    assert batched == pytest.approx(math.log(p_ref), rel=1e-13, abs=1e-13)
    assert -M.v_nu(m, x) == pytest.approx(math.log(p_ref), rel=1e-13, abs=1e-13)


def test_gauss_legendre_rule_is_cached_read_only():
    t, w = M._gauss_legendre(48)
    assert M._gauss_legendre(48)[0] is t
    with pytest.raises(ValueError):
        t[0] = 0.0
    with pytest.raises(ValueError):
        w[:] = 1.0


def test_point_mass_d2_evaluators_match_potential():
    m = M.ConvolutionModel(M.log_potential(2.0, d=2), M.point_mass(d=2))
    pts = np.array([[1.0, 2.0], [-3.0, 0.5], [0.2, -0.1]])
    v, g = M.v_nu_and_grad(m, pts)
    np.testing.assert_allclose(v, m.potential.value(pts), rtol=1e-14)
    np.testing.assert_allclose(g, m.potential.gradient(pts), rtol=1e-14)
    assert g.shape == pts.shape


def test_expression_potential_without_sympy_raises_config_error(monkeypatch):
    monkeypatch.setitem(sys.modules, "sympy", None)
    with pytest.raises(ConfigError, match="expression"):
        M.expression_potential("r**4")
