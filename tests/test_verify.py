import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from wpconv import model as M
from wpconv import lyapunov as L
from wpconv import rates as R
from wpconv import verify as V
from wpconv import presets as P
from wpconv.errors import StepSizeTooLarge


@pytest.fixture(scope="module")
def m33():
    return P.make_model("example_3_3", p=2.0)


@pytest.fixture(scope="module")
def alpha_33(m33):
    rg = np.geomspace(1e-2, 1e10, 1601)
    return R.rate_tables(m33, L.DriftConfig(case="cor_a", sigma=1.0), r_grid=rg)


TANH = V.TestFunction(id="tanh", value=np.tanh,
                      gradient=lambda x: V._sech2(x), osc_bound=2.0)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def test_corpus_composition_and_bounds():
    corpus = V.build_corpus(seed=7)
    assert len(corpus) == 30
    assert sum(f.role == "calibration" for f in corpus) == 10
    assert sum(f.role == "holdout" for f in corpus) == 20
    x = np.linspace(-200.0, 200.0, 4001)
    for f in corpus:
        assert np.all(np.abs(f.value(x)) <= f.osc_bound + 1e-12)
        assert np.max(f.value(x)) - np.min(f.value(x)) <= f.osc_bound + 1e-12


def test_corpus_gradients_match_fd():
    corpus = V.build_corpus(seed=7)
    xs = np.linspace(-30.0, 30.0, 101)
    h = 1e-6
    for f in corpus[::5]:
        fd = (f.value(xs + h) - f.value(xs - h)) / (2 * h)
        np.testing.assert_allclose(f.gradient(xs), fd, rtol=1e-6, atol=1e-9)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampler_reproducible(m33):
    b1 = V.sample_convolution(m33, 99, 5000)
    b2 = V.sample_convolution(m33, 99, 5000)
    assert np.array_equal(b1.points, b2.points)
    b3 = V.sample_convolution(m33, 100, 5000)
    assert not np.array_equal(b1.points, b3.points)


def test_sampler_gaussian_second_moment():
    """Quadrature oracle: E[X^2] for the quadratic well equals the integral
    of x^2 exp(-V), computed independently."""
    m = M.ConvolutionModel(M.quadratic_potential(), M.point_mass())
    oracle = integrate.quad(
        lambda x: x * x * math.exp(-m.potential.value(abs(x))),
        -10.0, 10.0)[0]
    n = 10 ** 6
    x = V.sample_convolution(m, 42, n).points[:, 0]
    se = np.std(x ** 2) / math.sqrt(n)
    assert abs(x.var() - oracle) <= 3.0 * se
    assert oracle == pytest.approx(0.5, rel=1e-10)


def test_sampler_d1_stream_is_pinned(m33):
    """The d = 1 draws (|X| first, then its sign, then Z) are pinned: the
    decay and WPI checks are calibrated on this stream."""
    pts = V.sample_convolution(m33, 5, 20_000).points
    assert hashlib.sha256(pts.tobytes()).hexdigest() == (
        "83bd3d778ef69872d754ddca2e3ae88a6dec84d6170f631a8879d3e900033b61")


@pytest.mark.parametrize("name, seed, ks", [
    ("example_3_2", 11, "0x1.f29e55e93f700p-9"),
    ("example_3_3", 11, "0x1.15b915adc4f00p-8"),
    ("example_3_4", 11, "0x1.fab3ace473200p-9"),
    ("two_atoms", 7, "0x1.540c0f8fe7300p-9"),
])
def test_ks_statistics_of_the_acceptance_models_are_pinned(name, seed, ks):
    m = (M.ConvolutionModel(M.quadratic_potential(), M.symmetric_pair(1.0))
         if name == "two_atoms" else P.make_model(name))
    assert V.ks_statistic(m, seed, 10 ** 5) == float.fromhex(ks)


class _FixedUniform:
    """Generator stand-in: the first uniform draw returns u, later ones
    (the signs) return ones, so every sign is +."""

    def __init__(self, u):
        self.u, self.calls = u, 0

    def uniform(self, low=0.0, high=1.0, size=None):
        self.calls += 1
        return self.u.copy() if self.calls == 1 else np.ones(size)


FIXED_U = np.concatenate([np.geomspace(1e-6, 0.5, 200),
                          1.0 - np.geomspace(0.5, 1e-14, 200)[1:]])


@pytest.mark.parametrize("p", [0.5, 2.0])
def test_sampler_inverts_the_closed_form_mu_tail(p):
    """Closed form: for log_potential(p) in d = 1, mu(|x| >= t) = (1+t)^-p,
    so the draw at u is |X| = (1-u)^(-1/p) - 1, here from 2e-6 out to 1e28."""
    m = M.ConvolutionModel(M.log_potential(p), M.point_mass())
    x = V._radial_draws(_FixedUniform(FIXED_U), FIXED_U.size, 1, V._mu_log_tail(m))[:, 0]
    np.testing.assert_allclose(x, (1.0 - FIXED_U) ** (-1.0 / p) - 1.0,
                               rtol=1e-5, atol=0.0)


def test_sampler_and_ks_cdf_read_one_mu_table():
    """F_mu of the draw at u is (1+u)/2 to rounding: the sampler inverts the
    table the KS reference CDF interpolates.  The loglog tail of example_3_4
    keeps about 1e-3 of mu beyond 1e300, the table's end; those draws sit
    at the end rather than further in."""
    m = P.make_model("example_3_4", p=2.0)
    F_mu = V._mu_cdf(m)
    x = V._radial_draws(_FixedUniform(FIXED_U), FIXED_U.size, 1, V._mu_log_tail(m))[:, 0]
    half_tail = 0.5 * (1.0 - FIXED_U)
    beyond = half_tail < 1.0 - F_mu(np.array([1e300]))[0]
    assert beyond.any() and not beyond.all()
    np.testing.assert_allclose(x[beyond], 1e300, rtol=1e-12)
    np.testing.assert_allclose(1.0 - F_mu(x[~beyond]), half_tail[~beyond],
                               rtol=1e-9, atol=0.0)


@given(st.lists(st.sampled_from([-3.0, -1.0, 0.0, 0.25, 0.5, 0.5, 1.0, 2.0, 7.5])
                | st.floats(-10.0, 10.0), min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_interp_sorted_is_np_interp(qs):
    """Unsorted queries, ties, and queries beyond both ends of xp."""
    xp = np.array([-2.0, -0.5, 0.0, 0.5, 1.0, 4.0])
    fp = np.array([3.0, -1.0, 0.125, 0.125, 9.0, -4.0])
    q = np.asarray(qs)
    want = np.interp(q.copy(), xp, fp)
    got = V._interp_sorted(q, xp, fp)
    assert got is q and np.array_equal(got, want)


def test_interp_sorted_blocks_are_np_interp():
    """Several blocks, a ragged last one, and ties across blocks."""
    rng = np.random.default_rng(3)
    q = rng.choice(np.append(rng.uniform(-0.5, 1.5, 1000), [0.0, 0.5, 1.0]),
                   size=2 * V.SAMPLE_BLOCK + 17)
    xp = np.linspace(0.0, 1.0, 257)
    fp = np.sin(7.0 * xp)
    want = np.interp(q, xp, fp)
    assert np.array_equal(V._interp_sorted(q, xp, fp), want)


def test_uniform_blocks_are_the_one_call_stream():
    """The samplers draw uniforms a block at a time: the doubles, and the
    generator's state after them, are those of one call."""
    n = 2 * V.SAMPLE_BLOCK + 17
    one, blocked = (np.random.default_rng(np.random.PCG64(5)) for _ in range(2))
    whole = one.uniform(size=n)
    parts = [blocked.uniform(size=min(V.SAMPLE_BLOCK, n - k))
             for k in range(0, n, V.SAMPLE_BLOCK)]
    assert np.array_equal(np.concatenate(parts), whole)
    assert blocked.standard_normal() == one.standard_normal()


def _traced_peak(fn):
    """The peak of tracemalloc's traced memory while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_draws_hold_the_points_a_mask_and_blocks(m33):
    """Drawing n points of example_3_3 (compact source) holds the returned
    float array, a bool sign mask and block-sized temporaries: below 1.5 x
    8n bytes, where one more sample-length float array would pass it.  A
    small warm-up draw first keeps numpy's one-time allocations out."""
    n, table = 2 ** 20, V._mu_log_tail(m33)
    V._draws(m33, 5, 1000, table)
    assert _traced_peak(lambda: V._draws(m33, 5, n, table)) < 1.5 * 8 * n


def test_ks_statistic_holds_the_draws_and_blocks(m33):
    """ks_statistic at n = 2^20 sorts the draws in place and reads the CDF
    and the ranks a block at a time: below 2.5 x 8n bytes, where a sorted
    copy and a full-length CDF array beside the draws would pass it."""
    n = 2 ** 20
    V.ks_statistic(m33, 5, 1000)
    assert _traced_peak(lambda: V.ks_statistic(m33, 5, n)) < 2.5 * 8 * n


def test_wpi_holds_the_draws_and_one_buffer(m33, alpha_33):
    """A whole empirical_wpi call at n = 2^20 holds the draws and one
    sample-length buffer: below 2.5 x 8n bytes."""
    n, corpus = 2 ** 20, V.build_corpus(seed=7)
    V._draws(m33, 5, 1000, V._mu_log_tail(m33))
    peak = _traced_peak(lambda: V.empirical_wpi(m33, alpha_33.alpha, corpus,
                                                np.array([1e-3]), seed=13, n=n))
    assert peak < 2.5 * 8 * n


@pytest.mark.parametrize("draw", ["compact", "unbounded", "mu_1d"])
def test_samplers_are_the_np_interp_draws(draw, m33, monkeypatch):
    """The sorted-query inversions draw bitwise what np.interp on the random
    order draws from the same seeded generator."""
    def sample():
        rng = np.random.default_rng(np.random.PCG64(21))
        if draw == "compact":
            return V._sample_source(m33.source, rng, 50_000)
        if draw == "unbounded":
            return V._sample_source(M.power_tail_density(1.0), rng, 50_000)
        return V._radial_draws(rng, 50_000, 1, V._mu_log_tail(m33))
    fast = sample()
    monkeypatch.setattr(V, "_interp_sorted", np.interp)
    assert np.array_equal(fast, sample())


def test_sampler_two_atom_symmetry():
    m = M.ConvolutionModel(M.quadratic_potential(), M.symmetric_pair(1.0))
    n = 200_000
    pts = V.sample_convolution(m, 1, n).points[:, 0]
    se = pts.std() / math.sqrt(n)
    assert abs(pts.mean()) <= 4.0 * se


def _ks_uniform(u):
    """KS distance of the sorted values u (the CDF at the draws) from U(0, 1)."""
    i = np.arange(1, u.size + 1)
    return max(np.max(i / u.size - u), np.max(u - (i - 1) / u.size))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p", [0.5, 1.0])
def test_sampler_radius_and_direction_in_d_above_1(p, d):
    """|X| follows 1 - measure_tail, and X/|X| is uniform on the sphere: its
    angle in d = 2, and its last coordinate in d = 3 (uniform on [-1, 1] by
    Archimedes), each within the 1% KS critical value."""
    m = M.ConvolutionModel(M.log_potential(p, d=d), M.point_mass(d=d))
    n = 200_000
    x = V.sample_convolution(m, 11, n).points
    r = np.linalg.norm(x, axis=1)
    u = np.arctan2(x[:, 1], x[:, 0]) / np.pi if d == 2 else x[:, 2] / r
    crit = V.ks_critical_value(n)
    assert _ks_uniform(1.0 - M.measure_tail(m, "mu", np.sort(r))) < crit
    assert _ks_uniform(np.sort(0.5 * (u + 1.0))) < crit


def test_sampler_unbounded_source_reaches_past_1e12():
    """power_tail_density(0.2) keeps 0.0038 of its mass beyond 1e12; the
    draws put that share there, within 4 standard errors."""
    src = M.power_tail_density(0.2)
    n = 200_000
    z = V._sample_source(src, np.random.default_rng(np.random.PCG64(3)), n)[:, 0]
    tail = src.tail(1e12)
    assert abs(np.mean(np.abs(z) > 1e12) - tail) <= 4.0 * math.sqrt(tail * (1.0 - tail) / n)


def test_sampler_second_moment_d2():
    """The radius density 2 pi s (1+s)^-8 has a finite fourth moment, so
    |X|^2 has a finite variance and the 4-SE bound is a real bound."""
    m = M.ConvolutionModel(M.log_potential(6.0, d=2), M.point_mass(d=2))
    pts = V.sample_convolution(m, 3, 50_000).points
    r2 = (pts ** 2).sum(axis=1)
    oracle = integrate.quad(
        lambda s: s ** 2 * 2 * np.pi * s * math.exp(-m.potential.c)
        * (1 + s) ** -8.0, 0, np.inf)[0]
    se = r2.std() / math.sqrt(len(r2))
    assert abs(r2.mean() - oracle) <= 4.0 * se


def test_ks_two_atom_model():
    m = M.ConvolutionModel(M.quadratic_potential(), M.symmetric_pair(1.0))
    d = V.ks_statistic(m, 7, 10 ** 5)
    assert d < V.ks_critical_value(10 ** 5)


def test_convolution_cdf_against_direct_quadrature():
    m = M.ConvolutionModel(M.quadratic_potential(), M.symmetric_pair(1.0))
    F = V.convolution_cdf(m)
    for x0 in [-2.0, 0.0, 0.7, 3.0]:
        oracle = integrate.quad(lambda t: M.p_nu(m, t), -12.0, x0, limit=200)[0]
        # tail-table interpolation bounds the CDF error near the bulk
        assert F(np.array([x0]))[0] == pytest.approx(oracle, abs=2e-5)
    xs = np.linspace(-8, 8, 200)
    vals = F(xs)
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[0] < 1e-6 and vals[-1] > 1 - 1e-6


def test_convolution_cdf_blocks_match_one_shot(m33):
    """The compact-source CDF, evaluated in row blocks, equals the one-shot
    sum over all rows bit for bit, across several block boundaries."""
    x = np.linspace(-60.0, 60.0, 10_001)
    F_mu = V._mu_cdf(m33)
    nodes, wts = M._gauss_legendre(96)
    R = m33.source.support_radius
    zn, wn = nodes * R, wts * R * m33.source.density(nodes * R)
    one_shot = np.sum(wn * F_mu(x[:, None] - zn), axis=1)
    assert x.size > 2 * V.CDF_BLOCK
    assert np.array_equal(V.convolution_cdf(m33)(x), one_shot)


@pytest.mark.parametrize("n_atoms", [12, 200])
def test_convolution_cdf_of_atoms_is_the_per_atom_sum(n_atoms):
    """An atom source runs the compact source's blocked node sum: bitwise the
    one-shot sum over all rows (past 96 atoms in blocks of fewer than
    CDF_BLOCK rows), and within 1e-15 of the per-atom loop at 12 atoms (the
    summation orders differ from 8 atoms on; n eps bounds them at 200)."""
    src = M.discrete_atoms(np.linspace(-3.0, 4.0, n_atoms), np.arange(1.0, n_atoms + 1.0))
    m = M.ConvolutionModel(M.log_potential(2.0), src)
    x = np.linspace(-50.0, 50.0, 5001)
    F_mu = V._mu_cdf(m)
    zn, wn = src.locations[:, 0], src.weights / src.weights.sum()
    got = V.convolution_cdf(m)(x)
    assert np.array_equal(got, np.sum(wn * F_mu(x[:, None] - zn), axis=1))
    loop = np.zeros(x.shape)
    for z, w in zip(zn, wn):
        loop += w * F_mu(x - z)
    rtol = 1e-15 if n_atoms < 96 else n_atoms * np.finfo(float).eps
    np.testing.assert_allclose(got, loop, rtol=rtol, atol=0.0)


def test_convolution_cdf_unsorted_input_matches_one_shot(m33):
    """The node-major blocks sort nothing: on shuffled x the CDF still equals
    the one-shot sum over all rows bit for bit."""
    x = np.random.default_rng(8).permutation(np.linspace(-60.0, 60.0, 10_001))
    F_mu = V._mu_cdf(m33)
    nodes, wts = M._gauss_legendre(96)
    R = m33.source.support_radius
    zn, wn = nodes * R, wts * R * m33.source.density(nodes * R)
    one_shot = np.sum(wn * F_mu(x[:, None] - zn), axis=1)
    assert np.array_equal(V.convolution_cdf(m33)(x), one_shot)


def test_convolution_cdf_and_ks_do_not_depend_on_cpus_or_block(m33, monkeypatch):
    """Each CDF row is summed alone: one CPU or two, 1024 or 4096 rows per
    block, the CDF and the KS statistic are the same bit for bit."""
    x = np.linspace(-60.0, 60.0, 10_001)
    runs = []
    for cpus in (1, 2):
        for block in (1024, 4096):
            monkeypatch.setattr(V, "_cpu_count", lambda: cpus)
            monkeypatch.setattr(V, "CDF_BLOCK", block)
            runs.append((V.convolution_cdf(m33)(x), V.ks_statistic(m33, 5, 20_000)))
    for F, ks in runs[1:]:
        assert np.array_equal(F, runs[0][0]) and ks == runs[0][1]


@pytest.mark.parametrize("name", ["example_3_3", "two_atoms"])
def test_ks_statistic_is_sampler_against_cdf(name, m33):
    """ks_statistic, which builds the mu table once, equals the KS distance
    of sample_convolution's draws against convolution_cdf bit for bit."""
    m = m33 if name == "example_3_3" else M.ConvolutionModel(
        M.quadratic_potential(), M.symmetric_pair(1.0))
    n = 20_000
    x = np.sort(V.sample_convolution(m, 5, n).points[:, 0])
    F = V.convolution_cdf(m)(x)
    i = np.arange(1, n + 1)
    assert V.ks_statistic(m, 5, n) == max(np.max(i / n - F),
                                          np.max(F - (i - 1) / n))


# ---------------------------------------------------------------------------
# empirical functional inequality
# ---------------------------------------------------------------------------

def test_wpi_constant_function_trivial(m33, alpha_33):
    const = V.TestFunction(id="const", value=lambda x: np.ones_like(x),
                           gradient=lambda x: np.zeros_like(x),
                           osc_bound=1.0, role="holdout")
    corpus = V.build_corpus(seed=7)[:10] + [const]
    r_grid = np.geomspace(1e-5, 1e-2, 10)
    rep = V.empirical_wpi(m33, alpha_33.alpha, corpus, r_grid, seed=5, n=20_000)
    st = rep.per_function["const"]
    assert st["var"] <= 1e-25
    assert st["max_slack"] <= 0.0


def test_wpi_holdout_passes_at_moderate_n(m33, alpha_33):
    corpus = V.build_corpus(seed=7)
    r_grid = np.geomspace(max(alpha_33.alpha.grid[0] * 2, 1e-6),
                          min(alpha_33.alpha.grid[-1] * 0.5, 1e-2), 25)
    rep = V.empirical_wpi(m33, alpha_33.alpha, corpus, r_grid, seed=123,
                          n=200_000)
    assert rep.holdout_violations == 0
    assert rep.c_calibrated > 0.0
    d = rep.to_dict()
    assert d["passed"] and d["n_samples"] == 200_000


def test_wpi_variance_sanity_and_energy_positivity(m33, alpha_33):
    corpus = V.build_corpus(seed=7)
    r_grid = np.geomspace(1e-5, 1e-2, 8)
    rep = V.empirical_wpi(m33, alpha_33.alpha, corpus, r_grid, seed=11, n=50_000)
    for f in corpus:
        st = rep.per_function[f.id]
        assert st["var"] <= 0.25 * st["osc"] ** 2 * (1.0 + 1e-3)
        assert st["energy"] >= 0.0


def test_wpi_moments_match_power_reference(m33, alpha_33):
    """var is bitwise the sum of centered ** 2; se_var matches the
    centered ** 4 fourth moment to rounding."""
    n = 20_000
    corpus = V.build_corpus(seed=7)
    rep = V.empirical_wpi(m33, alpha_33.alpha, corpus, np.array([1e-3]),
                          seed=13, n=n)
    x = V.sample_convolution(m33, 13, n).points[:, 0]
    for f in corpus:
        vals = f.value(x)
        c = vals - vals.mean()
        m2, m4 = np.mean(c ** 2), np.mean(c ** 4)
        st = rep.per_function[f.id]
        assert st["var"] == float(np.sum(c ** 2) / (n - 1))
        assert st["se_var"] == pytest.approx(
            math.sqrt(max(m4 - m2 * m2, 0.0) / n), rel=1e-14)


@pytest.mark.parametrize("n", [3 * V.WPI_BLOCK + 17, V.WPI_BLOCK // 3])
def test_wpi_blocked_statistics_are_the_unblocked_formulas(n, m33, alpha_33):
    """The blockwise statistics over reused buffers are bitwise the
    full-array expressions, with a ragged last block and with one block."""
    const = V.TestFunction(id="const", value=lambda x: np.full_like(x, 0.3),
                           gradient=lambda x: np.zeros_like(x), osc_bound=1.0)
    corpus = V.build_corpus(seed=7) + [const]
    rep = V.empirical_wpi(m33, alpha_33.alpha, corpus, np.array([1e-3]),
                          seed=17, n=n)
    x = V.sample_convolution(m33, 17, n).points[:, 0]
    for f in corpus:
        vals = np.asarray(f.value(x), dtype=float)
        centered = vals - vals.mean()
        c2 = centered * centered
        m2, m4 = float(np.mean(c2)), float(np.mean(c2 * c2))
        g2 = np.asarray(f.gradient(x), dtype=float) ** 2
        got = rep.per_function[f.id]
        assert got["var"] == float(np.sum(c2) / (n - 1))
        assert got["se_var"] == math.sqrt(max(m4 - m2 * m2, 0.0) / n)
        assert got["energy"] == float(g2.mean())
        assert got["se_energy"] == float(g2.std(ddof=1)) / math.sqrt(n)


def test_wpi_rejects_fewer_than_two_samples(m33, alpha_33):
    with pytest.raises(ValueError, match="n=1"):
        V.empirical_wpi(m33, alpha_33.alpha, V.build_corpus(seed=7),
                        np.array([1e-3]), seed=1, n=1)


def test_wpi_large_r_dominates(m33, alpha_33):
    """Once r >= 1/4, the oscillation term alone bounds any variance."""
    corpus = V.build_corpus(seed=7)
    # r = 0.3 lies past the alpha table's s range: it reads the top value
    rep = V.empirical_wpi(m33, alpha_33.alpha, corpus, np.array([0.3]),
                          seed=2, n=20_000)
    for f in corpus:
        assert rep.per_function[f.id]["max_slack"] <= 0.0


# ---------------------------------------------------------------------------
# decay
# ---------------------------------------------------------------------------

def _drift(table, x):
    x = np.asarray(x, dtype=float)
    return V._drift(table, x, np.empty_like(x), np.empty_like(x),
                    np.empty(x.shape, dtype=np.intp))


@pytest.fixture(scope="module")
def drift_33(m33):
    guard = 10.0 * m33.truncation_radius
    return guard, V._drift_table(m33, 1.05 * guard)


def test_drift_table_matches_kernel_off_node(m33, drift_33):
    """Oracle: the table lookup against v_nu_and_grad of the patched model the
    table is built from, at 4,000 points that are not table nodes."""
    guard, table = drift_33
    work = m33.patched(0.1) if m33.potential.smooth_radius > 0.0 else m33
    x = np.concatenate([np.random.default_rng(3).uniform(0.0, 50.0, 2000),
                        np.geomspace(50.0, guard, 2000)])
    err = np.abs(_drift(table, x) + M.v_nu_and_grad(work, x)[1])
    assert np.max(err) <= 1e-4


def test_drift_lookup_is_odd_and_clamped(drift_33):
    guard, table = drift_33
    x = np.concatenate([[0.0], np.geomspace(1e-6, 3.0 * guard, 4001)])
    assert np.array_equal(_drift(table, -x), -_drift(table, x))
    far = np.array([1.06, 2.0, 1e6]) * guard
    end = table[1][-1]
    assert np.array_equal(_drift(table, far), np.full(3, end))
    assert np.array_equal(_drift(table, -far), np.full(3, -end))


def test_decay_constant_function_is_zero(m33):
    const = V.TestFunction(id="const", value=lambda x: np.ones_like(x),
                           gradient=lambda x: np.zeros_like(x), osc_bound=1.0)
    tr = V.semigroup_decay(m33, const, np.array([0.5, 1.0]), n_paths=16,
                           dt=0.01, seed=3, n_inner=16)
    assert np.all(tr.variance_estimates <= 1e-25)


def test_decay_trace_decreases(m33):
    tr = V.semigroup_decay(m33, TANH, np.array([0.5, 2.0, 6.0]), n_paths=96,
                           dt=5e-3, seed=9, n_inner=96)
    v = tr.variance_estimates
    ci = tr.confidence_halfwidths
    assert np.all(np.diff(v) <= 2.0 * (ci[1:] + ci[:-1]))
    assert v[-1] < v[0]


def test_decay_reproducible(m33):
    t = np.array([0.25, 0.5])
    a = V.semigroup_decay(m33, TANH, t, n_paths=16, dt=0.01, seed=21, n_inner=8)
    b = V.semigroup_decay(m33, TANH, t, n_paths=16, dt=0.01, seed=21, n_inner=8)
    np.testing.assert_array_equal(a.variance_estimates, b.variance_estimates)


@pytest.mark.parametrize("kw, name", [
    (dict(n_paths=1), "n_paths=1"), (dict(n_inner=1), "n_inner=1"),
    (dict(dt=0.0), "dt=0.0"), (dict(dt=-0.01), "dt=-0.01"),
])
def test_decay_rejects_degenerate_settings(kw, name, m33):
    args = {"n_paths": 8, "dt": 0.01, "seed": 3, "n_inner": 8, **kw}
    with pytest.raises(ValueError, match=name):
        V.semigroup_decay(m33, TANH, [0.1], **args)


def test_decay_explosion_guard(monkeypatch):
    """The guard raises, and the normals worker is stopped and joined."""
    monkeypatch.setattr(V, "_cpu_count", lambda: 2)
    m = M.ConvolutionModel(M.quadratic_potential(), M.point_mass())
    threads = threading.active_count()
    with pytest.raises(StepSizeTooLarge):
        V.semigroup_decay(m, TANH, np.array([50.0]), n_paths=8, dt=1.5,
                          seed=3, n_inner=8)
    assert threading.active_count() == threads


def _decay_reference(model, f, t_grid, n_paths, dt, seed, n_inner):
    """semigroup_decay's estimator with one rng.standard_normal(out=z) per
    Euler step, the stream the blockwise draws must reproduce."""
    guard = 10.0 * model.truncation_radius
    table = V._drift_table(model, guard * 1.05)
    rng = np.random.default_rng(np.random.PCG64(seed))
    pos = np.repeat(V.sample_convolution(model, seed + 1, n_paths).points[:, 0],
                    n_inner)
    step, w, z = (np.empty(pos.size) for _ in range(3))
    idx = np.empty(pos.size, dtype=np.intp)
    out, t_now = [], 0.0
    for t_target in t_grid:
        steps = int(round((t_target - t_now) / dt))
        for _ in range(steps):
            pos += np.multiply(V._drift(table, pos, step, w, idx), dt, out=step)
            pos += np.multiply(rng.standard_normal(out=z), math.sqrt(2.0 * dt),
                               out=z)
        t_now += steps * dt
        vals = f.value(pos).reshape(n_paths, n_inner)
        inner_mean = vals.mean(axis=1)
        dev = (inner_mean - inner_mean.mean()) ** 2
        raw = float(np.sum(dev) / (n_paths - 1))
        correction = float(vals.var(axis=1, ddof=1).mean()) / n_inner
        out.append((max(raw - correction, 0.0),
                    2.0 * float(np.std(dev, ddof=1)) / math.sqrt(n_paths)))
    return np.array(out).T


@pytest.mark.parametrize("cpus", [1, 2])
def test_decay_matches_step_by_step_stream(m33, monkeypatch, cpus):
    """Inline (1 CPU) and worker-thread (2 CPUs) block draws give the trace of
    the per-step reference loop bit for bit.  The segments take 3, 10, 7 and
    21 steps: 41 in all, so the last block is partial."""
    monkeypatch.setattr(V, "_cpu_count", lambda: cpus)
    t = np.array([0.03, 0.13, 0.2, 0.41])
    kw = dict(n_paths=12, dt=0.01, seed=23, n_inner=10)
    threads = threading.active_count()
    tr = V.semigroup_decay(m33, TANH, t, **kw)
    assert threading.active_count() == threads
    var, hw = _decay_reference(m33, TANH, t, **kw)
    assert np.array_equal(tr.variance_estimates, var)
    assert np.array_equal(tr.confidence_halfwidths, hw)


def _block_threads():
    return [t for t in threading.enumerate() if t.name == "wpconv-blocks"]


def _square_blocks(x, out, seen):
    """fn for _map_blocks: out[k:k+m] = x[k:k+m]^2 + k, and (k, m) in seen."""
    def fn(k, m):
        seen.append((k, m))
        np.add(np.square(x[k:k + m]), k, out=out[k:k + m])
    return fn


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 8 * 5 + 3])
def test_map_blocks_runs_every_block_once(n, cpus, monkeypatch):
    """Blocks of 8, ragged last blocks included: each block runs exactly
    once, and the output is the inline loop's."""
    monkeypatch.setattr(V, "_cpu_count", lambda: cpus)
    x = np.linspace(-3.0, 3.0, n)
    out, seen = np.empty(n), []
    V._map_blocks(_square_blocks(x, out, seen), n, 8)
    inline = [(k, min(8, n - k)) for k in range(0, n, 8)]
    assert sorted(seen) == inline
    assert np.array_equal(out, [v * v + 8 * (i // 8) for i, v in enumerate(x)])
    assert not _block_threads()


@pytest.mark.parametrize("cpus, n", [(1, 100), (2, 8), (2, 3)])
def test_map_blocks_inline_starts_no_thread(cpus, n, monkeypatch):
    """One CPU, or no more than one block: every block runs on the caller."""
    monkeypatch.setattr(V, "_cpu_count", lambda: cpus)
    threads = []
    V._map_blocks(lambda k, m: threads.append(threading.get_ident()), n, 8)
    assert set(threads) == {threading.get_ident()}


def _both_threads_take_a_block(fn):
    """fn, except that each thread's first block waits (10 s at most) until
    the other thread has started one, so both threads run blocks."""
    barrier = threading.Barrier(2, timeout=10.0)
    started = set()

    def wrapped(k, m):
        if threading.get_ident() not in started:
            started.add(threading.get_ident())
            barrier.wait()
        return fn(k, m)
    return wrapped


class _BlockFailed(Exception):
    pass


@pytest.mark.parametrize("on_worker", [False, True])
def test_map_blocks_reraises_a_block_error(on_worker, monkeypatch):
    """An exception in a block on either thread reaches the caller with its
    type after the worker is joined."""
    monkeypatch.setattr(V, "_cpu_count", lambda: 2)
    caller = threading.get_ident()

    def fn(k, m):
        if (threading.get_ident() != caller) == on_worker:
            raise _BlockFailed(k)
    with pytest.raises(_BlockFailed):
        V._map_blocks(_both_threads_take_a_block(fn), 1000, 8)
    assert not _block_threads()


def test_map_blocks_worker_sees_the_callers_errstate(monkeypatch):
    """numpy keeps errstate in a context variable: the worker runs in a copy
    of the caller's context, so an overflow raises on either thread."""
    monkeypatch.setattr(V, "_cpu_count", lambda: 2)
    seen = {}

    def fn(k, m):
        seen.setdefault(threading.get_ident(), []).append(np.geterr())
    with np.errstate(over="raise", under="ignore"):
        expected = np.geterr()
        V._map_blocks(_both_threads_take_a_block(fn), 64, 8)
    assert len(seen) == 2
    assert all(e == expected for runs in seen.values() for e in runs)
    assert expected["over"] == "raise" != np.geterr()["over"]


def test_map_blocks_under_thread_stress(monkeypatch):
    """Four callers at once, each with its worker, so more threads than CPUs,
    with a 1 us switch interval: each still runs every block once and gets
    the inline output."""
    monkeypatch.setattr(V, "_cpu_count", lambda: 2)
    n, block = 8 * 50 + 5, 8
    x = np.linspace(-3.0, 3.0, n)
    got = {}

    def run(i):
        out, seen = np.empty(n), []
        V._map_blocks(_square_blocks(x + i, out, seen), n, block)
        got[i] = (out, sorted(seen))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,), daemon=True)
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    inline = [(k, min(block, n - k)) for k in range(0, n, block)]
    for i in range(4):
        out, seen = got[i]
        assert seen == inline
        assert np.array_equal(out, [(v + i) ** 2 + block * (j // block)
                                    for j, v in enumerate(x)])
    assert not _block_threads()


@pytest.mark.parametrize("cpus", [1, 2])
def test_normal_rows_block_fill_is_the_row_stream(monkeypatch, cpus):
    """A (DECAY_ROWS, n) fill equals DECAY_ROWS successive (n,) draws; the
    rows (a partial last block included) are the per-row stream."""
    monkeypatch.setattr(V, "_cpu_count", lambda: cpus)
    block = np.random.default_rng(4).standard_normal((V.DECAY_ROWS, 7))
    rng = np.random.default_rng(4)
    assert np.array_equal(block, [rng.standard_normal(7)
                                  for _ in range(V.DECAY_ROWS)])
    rows = 2 * V.DECAY_ROWS + 3
    rng = np.random.default_rng(6)
    expect = [rng.standard_normal(7) for _ in range(rows)]
    got = [r.copy() for r in V._normal_rows(np.random.default_rng(6), rows, 7)]
    assert np.array_equal(got, expect)


def test_normal_rows_streams_under_thread_stress(monkeypatch):
    """Four generators at once, so more threads than CPUs, with a 1 us switch
    interval: each still yields its serial stream."""
    monkeypatch.setattr(V, "_cpu_count", lambda: 2)
    rows, n = 5 * V.DECAY_ROWS + 1, 64
    got = {}

    def run(seed):
        got[seed] = [r.copy() for r in
                     V._normal_rows(np.random.default_rng(seed), rows, n)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(s,), daemon=True)
                   for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        assert np.array_equal(got[seed], [rng.standard_normal(n)
                                          for _ in range(rows)])


def test_normal_rows_closed_early_joins_worker(monkeypatch):
    """Closing the generator mid-stream stops and joins the worker thread."""
    monkeypatch.setattr(V, "_cpu_count", lambda: 2)
    threads = threading.active_count()
    gen = V._normal_rows(np.random.default_rng(1), 10 * V.DECAY_ROWS, 5)
    next(gen)
    assert threading.active_count() == threads + 1
    closer = threading.Thread(target=gen.close, daemon=True)
    closer.start()
    closer.join(timeout=10.0)
    assert not closer.is_alive()
    assert threading.active_count() == threads


def test_decay_heavier_tails_decay_slower():
    """Paired traces with shared seeds: the lighter-tailed well (p = 4) damps
    the conditional mean faster than the heavy one (p = 1) at matched times."""
    m_heavy = P.make_model("example_3_3", p=1.0)
    m_light = P.make_model("example_3_3", p=4.0)
    t = np.array([1.0, 3.0, 6.0])
    kw = dict(n_paths=96, dt=5e-3, seed=17, n_inner=96)
    tr_h = V.semigroup_decay(m_heavy, TANH, t, **kw)
    tr_l = V.semigroup_decay(m_light, TANH, t, **kw)
    gap = tr_h.variance_estimates - tr_l.variance_estimates
    ci = tr_h.confidence_halfwidths + tr_l.confidence_halfwidths
    assert np.all(gap >= -ci)
    assert gap[-1] > 0.0


def test_decay_trace_csv(tmp_path, m33):
    from wpconv import rates
    tr = V.semigroup_decay(m33, TANH, np.array([0.25, 0.5]), n_paths=8,
                           dt=0.01, seed=4, n_inner=8)
    pth = tmp_path / "decay.csv"
    rates.write_csv(pth, ("t", "variance", "ci_halfwidth"),
                    (tr.times, tr.variance_estimates, tr.confidence_halfwidths))
    rows = pth.read_text().strip().splitlines()
    assert rows[0] == "t,variance,ci_halfwidth"
    assert len(rows) == 3


# ---------------------------------------------------------------------------
# gradient hygiene
# ---------------------------------------------------------------------------

def test_crosscheck_quadratic_laplacian():
    m = M.ConvolutionModel(M.quadratic_potential(), M.point_mass())
    rep = V.crosscheck_gradients(m, V.default_check_points(m, 20, seed=5))
    assert rep["lap_V"] <= 1e-8
    assert rep["grad_V"] <= 1e-8


def test_crosscheck_loglog_potential():
    m = P.make_model("example_3_4", p=2.0)
    pts = V.default_check_points(m, 100, seed=77, lo=1.0, hi=100.0)
    rep = V.crosscheck_gradients(m, pts)
    assert rep["grad_V"] <= 1e-6
    assert rep["grad_V_nu"] <= 1e-6


def test_crosscheck_lattice_grad_v_nu():
    m31 = P.make_model("example_3_1", p=1.0)
    rep = V.crosscheck_gradients(m31, np.array([-50.0, -10.0, -2.0, 2.0, 10.0, 50.0]))
    assert rep["grad_V_nu"] <= 1e-6
