import math
import sys
import threading

import numpy as np
import pytest
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
    x = V._sample_mu_1d(m, _FixedUniform(FIXED_U), FIXED_U.size)
    np.testing.assert_allclose(x, (1.0 - FIXED_U) ** (-1.0 / p) - 1.0,
                               rtol=1e-5, atol=0.0)


def test_sampler_and_ks_cdf_read_one_mu_table():
    """F_mu of the draw at u is (1+u)/2 to rounding: the sampler inverts the
    table the KS reference CDF interpolates.  The loglog tail of example_3_4
    keeps about 1e-3 of mu beyond 1e300, the table's end; those draws sit
    at the end rather than further in."""
    m = P.make_model("example_3_4", p=2.0)
    F_mu = V._mu_cdf(m)
    x = V._sample_mu_1d(m, _FixedUniform(FIXED_U), FIXED_U.size)
    half_tail = 0.5 * (1.0 - FIXED_U)
    beyond = half_tail < 1.0 - F_mu(np.array([1e300]))[0]
    assert beyond.any() and not beyond.all()
    np.testing.assert_allclose(x[beyond], 1e300, rtol=1e-12)
    np.testing.assert_allclose(1.0 - F_mu(x[~beyond]), half_tail[~beyond],
                               rtol=1e-9, atol=0.0)


def test_sampler_two_atom_symmetry():
    m = M.ConvolutionModel(M.quadratic_potential(), M.symmetric_pair(1.0))
    n = 200_000
    pts = V.sample_convolution(m, 1, n).points[:, 0]
    se = pts.std() / math.sqrt(n)
    assert abs(pts.mean()) <= 4.0 * se


def test_sampler_rejection_d2():
    m = M.ConvolutionModel(M.log_potential(3.0, d=2), M.point_mass(d=2))
    pts = V.sample_convolution(m, 3, 50_000).points
    r2 = (pts ** 2).sum(axis=1)
    oracle = integrate.quad(
        lambda s: s ** 2 * 2 * np.pi * s * math.exp(-m.potential.c)
        * (1 + s) ** -5.0, 0, np.inf)[0]
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


def test_wpi_large_r_dominates(m33, alpha_33):
    """Once r >= 1/4, the oscillation term alone bounds any variance."""
    corpus = V.build_corpus(seed=7)
    # r = 0.3 lies past the alpha table's s range: its end is extrapolated
    with pytest.warns(UserWarning, match="extrapolated by terminal power law"):
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
    from wpconv import cli
    tr = V.semigroup_decay(m33, TANH, np.array([0.25, 0.5]), n_paths=8,
                           dt=0.01, seed=4, n_inner=8)
    pth = tmp_path / "decay.csv"
    cli._write_csv(pth, ("t", "variance", "ci_halfwidth"),
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
