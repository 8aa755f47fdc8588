"""Monte Carlo validation of computed rate functions.

sample_convolution draws X + Z with X from the base measure and Z from the
perturbing measure.  In every d, |X| inverts a log-log table of the exact
model.measure_tail out to 1e300, so heavy tails are sampled without truncating
representable mass, and its direction is a fair sign (d = 1) or uniform on the
sphere (d > 1); an unbounded source density is drawn from its tail the same
way.  convolution_cdf, the d = 1 KS reference, reads the same mu table, and
ks_statistic tests the draws that empirical_wpi and semigroup_decay use.
empirical_wpi, which acts on the first coordinate, calibrates the single
constant c of

    Var(f) <= c * alpha(r) * E(|grad f|^2) + r * Osc^2(f)

on a calibration split of a bounded-function corpus and reports the slack on
the holdout split.  Its statistics run in blocks of WPI_BLOCK samples over
three buffers reused for every function, and reduce over the full buffers, so
they are bitwise the one-shot formulas.  The samplers invert their tables on
sorted queries (_interp_sorted, bitwise np.interp).  The KS reference CDF,
a sum over atoms or quadrature nodes of the source, runs in row blocks on two
CPUs when the process may use them (_map_blocks); each row is summed alone,
so no value depends on the blocks.  semigroup_decay runs nested Euler-Maruyama paths of the diffusion
with drift -grad V_nu and reports the variance of the conditional mean of a
test function over time.  Its normals are drawn a block of DECAY_ROWS steps
ahead on a second CPU when the process may use one (inline otherwise); the
trace is bitwise that of the step-by-step stream.
"""

import contextvars
import math
import os
import threading
from contextlib import closing
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import model as model_mod
from .errors import CalibrationFailed, StepSizeTooLarge, UnsupportedDimension

__all__ = [
    "TestFunction",
    "SampleBatch",
    "DecayTrace",
    "WpiReport",
    "build_corpus",
    "sample_convolution",
    "convolution_cdf",
    "ks_statistic",
    "ks_critical_value",
    "empirical_wpi",
    "semigroup_decay",
    "crosscheck_gradients",
    "default_check_points",
]

SCHEMA_VERSION = 1
CDF_BLOCK = 1024      # rows per block of the KS reference CDF, up to 96 nodes
WPI_BLOCK = 16384     # samples per block of the WPI corpus statistics
DRIFT_NODES = 8001    # uniform asinh-grid nodes of the decay drift table
DECAY_ROWS = 8        # Euler steps of normals per block drawn ahead


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Bounded C^1 function with an a-priori oscillation bound.  value and
    gradient act elementwise on arrays: empirical_wpi calls them blockwise."""

    id: str
    value: Callable
    gradient: Callable
    osc_bound: float
    role: str = "holdout"  # calibration | holdout


def _sech2(t):
    e = np.exp(-2.0 * np.abs(t))
    return e * (2.0 / (1.0 + e)) ** 2


def _tanh_ramp(a, w):
    value = lambda x: np.tanh((x - a) / w)
    grad = lambda x: _sech2((x - a) / w) / w
    return value, grad, 2.0


def _gauss_bump(a, w):
    value = lambda x: np.exp(-((x - a) / w) ** 2)
    grad = lambda x: -2.0 * (x - a) / w ** 2 * np.exp(-((x - a) / w) ** 2)
    return value, grad, 1.0


def _smooth_step(a, w):
    value = lambda x: 0.5 * (1.0 + np.tanh((x - a) / w))
    grad = lambda x: 0.5 * _sech2((x - a) / w) / w
    return value, grad, 1.0


def build_corpus(seed=7):
    """30 bounded functions (ramps, bumps, smoothed steps) with centers in
    [-20, 20] and widths in [0.5, 5], probing bulk and tail; the first 10
    carry the calibration role, the other 20 the holdout role."""
    rng = np.random.default_rng(seed)
    makers = [_tanh_ramp, _gauss_bump, _smooth_step]
    out = []
    for i in range(30):
        a = rng.uniform(-20.0, 20.0)
        w = rng.uniform(0.5, 5.0)
        value, grad, osc = makers[i % len(makers)](a, w)
        role = "calibration" if i < 10 else "holdout"
        out.append(TestFunction(id=f"f{i:02d}", value=value, gradient=grad,
                                osc_bound=osc, role=role))
    return out


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleBatch:
    seed: int
    size: int
    points: np.ndarray


def _log_tail_table(tail):
    """Log radii and log tail(t), made nonincreasing, at 400 nodes per decade
    from 1e-8 to 1e12, then 32 per decade on to 1e300 (past e^690, so
    logarithmic tails keep their representable mass)."""
    nodes = np.unique(np.concatenate([np.geomspace(1e-8, 1e12, 8002),
                                      np.geomspace(1e12, 1e300, 9217)]))
    tails = np.minimum.accumulate(np.maximum(tail(nodes), 1e-320))
    return np.log(nodes), np.log(tails)


def _mu_log_tail(model):
    """The mu law's table: measure_tail of mu on _log_tail_table's nodes."""
    return _log_tail_table(lambda t: model_mod.measure_tail(model, "mu", t))


def _interp_sorted(q, xp, fp):
    """Bitwise np.interp(q, xp, fp) for a float array q, evaluated on the
    sorted queries so that each bin search starts from the previous one, and
    scattered back."""
    order = np.argsort(q)
    out = q[order]
    out[order] = np.interp(out, xp, fp)
    return out


def _invert_tail(log_q, log_t, log_tails):
    """Radii t with tail(t) = exp(log_q): the decreasing table (log_t,
    log_tails) interpolated log-log and clamped at its ends.  log_q is
    negated in place."""
    t = _interp_sorted(np.negative(log_q, out=log_q), -log_tails, log_t)
    return np.exp(t, out=t)


def _radial_draws(rng, n, d, table):
    """n draws, shape (n, d), of the radial law with the log-tail table
    (_log_tail_table): |X| = T^-1(1 - u) on the strictly decreasing part of
    the table (below the 1e-320 floor it is flat).  The direction is a fair
    sign in d = 1 and normalized standard normals in d > 1."""
    log_t, log_tails = table
    strict = np.concatenate([[True], np.diff(log_tails) < 0.0])
    log_q = np.log1p(-rng.uniform(0.0, 1.0, size=n))
    if d == 1:
        x = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)[:, None]
    else:
        x = rng.standard_normal((n, d))
        x /= np.linalg.norm(x, axis=1)[:, None]
    x *= _invert_tail(log_q, log_t[strict], log_tails[strict])[:, None]
    return x


def _sample_source(src, rng, n):
    """n draws from the source, shape (n, d); densities only in d = 1."""
    if src.kind in ("point_mass", "discrete_atoms"):
        cum = np.cumsum(src.weights)
        idx = np.searchsorted(cum / cum[-1], rng.uniform(size=n), side="left")
        return src.locations[idx]
    if src.d != 1:
        raise UnsupportedDimension(f"d={src.d} sampling supports atom sources")
    if np.isfinite(src.support_radius):
        R = src.support_radius
        zz = np.linspace(-R, R, 20001)
        dens = src.density(zz)
        cdf = np.concatenate([[0.0], np.cumsum(
            0.5 * (dens[1:] + dens[:-1]) * np.diff(zz))])
        cdf = cdf / cdf[-1]
        return _interp_sorted(rng.uniform(size=n), cdf, zz)[:, None]
    return _radial_draws(rng, n, 1, _log_tail_table(src.tail))


def _draws(model, seed, n, table):
    """n draws of X + Z, shape (n, d): X from the mu table, then Z."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    return _radial_draws(rng, n, model.d, table) + _sample_source(model.source, rng, n)


def sample_convolution(model, seed, n):
    """n independent draws of X + Z; reproducible per (seed, model spec).

    In every d, |X| inverts the exact measure_tail table that the d = 1 KS
    reference CDF (convolution_cdf) reads; its direction is a fair sign in
    d = 1 and uniform on the sphere in d > 1.  Z comes from the source, an
    unbounded density through the same inversion of its tail.
    """
    return SampleBatch(seed=seed, size=n, points=_draws(model, seed, n, _mu_log_tail(model)))


def _mu_cdf(model, table=None):
    """The CDF of mu in d = 1 from the _mu_log_tail table (built unless given),
    interpolated log-log."""
    log_nodes, log_tails = table or _mu_log_tail(model)

    def F_mu(x, work=None, mask=None):
        # x is left intact; `work` (float) and `mask` (bool), buffers of x's
        # shape, hold the log radii and the masks, so a blockwise caller
        # allocates them once.  The result is np.interp's own array.
        r = np.abs(x, out=work)
        tiny = np.less_equal(r, 1e-12, out=mask)
        tail = np.interp(np.log(np.maximum(r, 1e-12, out=r), out=r),
                         log_nodes, log_tails)
        np.exp(tail, out=tail)
        tail[tiny] = 1.0
        tail *= 0.5
        return np.subtract(1.0, tail, out=tail, where=np.greater_equal(x, 0.0, out=mask))
    return F_mu


def convolution_cdf(model):
    """CDF of X + Z in d = 1, assembled from the base measure's radial tail
    (numerically exact far out) mixed over the source.  Vectorized callable."""
    if model.d != 1:
        raise UnsupportedDimension("convolution CDF implemented for d = 1")
    return _mixed_cdf(model.source, _mu_cdf(model))


def _mixed_cdf(src, F_mu):
    """The CDF x -> E F_mu(x - Z) over source draws Z: a weighted sum over
    the atoms, or over 96 Gauss-Legendre nodes of a compact density."""
    R = src.support_radius
    if src.kind in ("point_mass", "discrete_atoms"):
        zn, wn = src.locations[:, 0], src.weights / src.weights.sum()
    elif np.isfinite(R):
        nodes, wts = model_mod._gauss_legendre(96)
        zn = nodes * R
        wn = wts * R * src.density(zn)
    else:
        raise UnsupportedDimension("convolution CDF needs compact or atomic source")
    # a thread's buffers hold at most 96 * CDF_BLOCK floats each
    block = max(CDF_BLOCK * 96 // max(zn.size, 96), 1)

    def F(x):
        # node-major: row i of d, x - zn[i], is sorted when x is
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(x.shape)
        rows = min(x.size, block)
        bufs = threading.local()           # each thread's diff, work and mask

        def fill(k, n):
            if not hasattr(bufs, "mask"):
                bufs.diff, bufs.work = np.empty((2, zn.size, rows))
                bufs.mask = np.empty((zn.size, rows), dtype=bool)
            f = bufs.work.reshape(rows, zn.size)[:n]  # F_mu is done with work on return
            d = np.subtract(x[k:k + n], zn[:, None], out=bufs.diff[:, :n])
            np.copyto(f, F_mu(d, bufs.work[:, :n], bufs.mask[:, :n]).T)
            np.sum(np.multiply(f, wn, out=f), axis=1, out=out[k:k + n])
        _map_blocks(fill, x.size, block)
        return out
    return F


def ks_statistic(model, seed, n):
    """Kolmogorov-Smirnov distance between the empirical CDF of n convolution
    samples (sample_convolution's draws) and the quadrature CDF."""
    if model.d != 1:
        raise UnsupportedDimension("convolution CDF implemented for d = 1")
    table = _mu_log_tail(model)
    x = np.sort(_draws(model, seed, n, table)[:, 0])
    F = _mixed_cdf(model.source, _mu_cdf(model, table))(x)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))


def ks_critical_value(n, level=0.01):
    return math.sqrt(-0.5 * math.log(level / 2.0)) / math.sqrt(n)


# ---------------------------------------------------------------------------
# empirical functional inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WpiReport:
    c_calibrated: float
    n_samples: int
    seed: int
    r_grid: np.ndarray
    holdout_violations: int
    worst_slack_sigma: float     # largest slack / CI over the holdout split
    per_function: dict
    z_ci: float

    @property
    def passed(self):
        return self.holdout_violations == 0

    def to_dict(self):
        return {"schema_version": SCHEMA_VERSION,
                "c_calibrated": self.c_calibrated,
                "n_samples": self.n_samples, "seed": self.seed,
                "r_min": float(self.r_grid[0]), "r_max": float(self.r_grid[-1]),
                "n_r": int(self.r_grid.size),
                "holdout_violations": self.holdout_violations,
                "worst_slack_sigma": self.worst_slack_sigma,
                "z_ci": self.z_ci, "passed": self.passed,
                "per_function": self.per_function}


def empirical_wpi(model, alpha, corpus, r_grid, seed, n):
    """Calibrate c on the calibration split, then test every holdout function
    at every grid r: Var(f) - c alpha(r) E(f) - r Osc^2(f) <= z_ci * CI, z_ci = 2."""
    if n < 2:
        raise ValueError(f"empirical_wpi needs n >= 2 samples, got n={n!r}")
    r_grid = np.asarray(r_grid, dtype=float)
    batch = sample_convolution(model, seed, n)
    x = batch.points[:, 0]
    a_of_r = np.asarray(alpha.value_at(r_grid), dtype=float)

    c2, c4, g2 = np.empty((3, n))
    blocks = [slice(k, k + WPI_BLOCK) for k in range(0, n, WPI_BLOCK)]
    stats = {}
    for f in corpus:
        for b in blocks:
            c2[b] = f.value(x[b])
            g2[b] = f.gradient(x[b]) ** 2
        mean, energy = c2.mean(), float(g2.mean())
        for b in blocks:    # c2 <- (f - mean)^2, c4 <- c2^2, g2 <- (g2 - energy)^2
            np.square(np.subtract(c2[b], mean, out=c2[b]), out=c2[b])
            np.square(c2[b], out=c4[b])
            np.square(np.subtract(g2[b], energy, out=g2[b]), out=g2[b])
        # full-array reductions keep numpy's pairwise order: one-shot moments bitwise
        var = float(np.sum(c2) / (n - 1))
        m2, m4 = float(np.mean(c2)), float(np.mean(c4))
        se_var = math.sqrt(max(m4 - m2 * m2, 0.0) / n)
        se_energy = math.sqrt(float(np.sum(g2)) / (n - 1)) / math.sqrt(n)
        stats[f.id] = {"role": f.role, "var": var, "se_var": se_var,
                       "energy": energy, "se_energy": se_energy,
                       "osc": f.osc_bound}

    c = 0.0
    for f in corpus:
        if f.role != "calibration":
            continue
        st = stats[f.id]
        need = st["var"] - r_grid * st["osc"] ** 2
        denom = a_of_r * st["energy"]
        pos = need > 0.0
        if np.any(pos & (denom <= 0.0)):
            raise CalibrationFailed(
                f"{f.id}: positive variance excess with zero energy")
        if np.any(pos):
            c = max(c, float(np.max(need[pos] / denom[pos])))

    violations = 0
    worst = -np.inf
    for f in corpus:
        st = stats[f.id]
        slack = st["var"] - c * a_of_r * st["energy"] - r_grid * st["osc"] ** 2
        se = np.sqrt(st["se_var"] ** 2 + (c * a_of_r * st["se_energy"]) ** 2)
        sigma = slack / np.maximum(se, 1e-300)
        st["max_slack"] = float(np.max(slack))
        st["max_slack_sigma"] = float(np.max(sigma))
        if f.role == "holdout":
            worst = max(worst, st["max_slack_sigma"])
            if np.any(sigma > 2.0):
                violations += 1
    return WpiReport(c_calibrated=float(c), n_samples=n, seed=seed,
                     r_grid=r_grid, holdout_violations=violations,
                     worst_slack_sigma=float(worst), per_function=stats,
                     z_ci=2.0)


# ---------------------------------------------------------------------------
# semigroup decay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayTrace:
    times: np.ndarray
    variance_estimates: np.ndarray
    confidence_halfwidths: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if np.any(np.asarray(self.confidence_halfwidths) < 0.0):
            raise ValueError("halfwidths must be nonnegative")


def _drift_table(model, edge):
    """Drift -dV_nu/dx of the origin-patched model (d = 1) at nodes uniform in
    asinh x on [0, edge]: (inv_h, g, dg), dg[i] = g[i+1] - g[i], dg[-1] = 0."""
    work = model.patched(0.1) if model.potential.smooth_radius > 0.0 else model
    u = np.linspace(0.0, math.asinh(edge), DRIFT_NODES)
    g = -model_mod.v_nu_and_grad(work, np.sinh(u))[1]
    return (DRIFT_NODES - 1) / u[-1], g, np.append(np.diff(g), 0.0)


def _drift(table, x, out, w, idx):
    """out <- drift at x, linear in asinh|x| and held at the end value beyond
    the table; bitwise odd.  Buffers out, w and idx (intp) are shaped like x."""
    inv_h, g, dg = table
    np.multiply(np.arcsinh(np.abs(x, out=out), out=out), inv_h, out=out)
    np.minimum(out, g.size - 1, out=out)
    np.copyto(idx, out, casting="unsafe")       # truncation is floor: out >= 0
    out -= idx
    out *= np.take(dg, idx, out=w)
    out += np.take(g, idx, out=w)
    return np.multiply(out, np.sign(x, out=w), out=out)


def _cpu_count():
    """CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _map_blocks(fn, n, block):
    """Call fn(k, m) once for each block [k, k + m) of range(n).  With a second
    CPU and more than one block, the caller and a worker thread claim blocks in
    turn, so a stalled CPU holds up one block; the worker runs in a copy of the
    caller's context (numpy's errstate).  A block's exception is re-raised."""
    starts, lock, errors = iter(range(0, n, block)), threading.Lock(), []

    def drain():
        try:
            while not errors:
                with lock:
                    k = next(starts, None)
                if k is None:
                    return
                fn(k, min(block, n - k))
        except BaseException as exc:    # re-raised by the caller after the join
            errors.append(exc)

    worker = None
    if _cpu_count() > 1 and n > block:
        worker = threading.Thread(target=contextvars.copy_context().run,
                                  args=(drain,), name="wpconv-blocks", daemon=True)
        worker.start()
    drain()
    if worker is not None:
        worker.join()
    if errors:
        raise errors[0]


def _normal_rows(rng, rows, n):
    """`rows` rows of length n, bitwise `rows` calls rng.standard_normal(out=z)
    with z of shape (n,), filled DECAY_ROWS at a time into two alternating
    buffers (a row is valid until the next is asked for).  With a second CPU a
    worker thread fills the next block meanwhile; it touches only rng, and it
    is stopped and joined when the generator finishes or is closed."""
    bufs = np.empty((2, DECAY_ROWS, n))
    plan = [(b & 1, min(DECAY_ROWS, rows - k))
            for b, k in enumerate(range(0, rows, DECAY_ROWS))]
    if _cpu_count() < 2:
        for j, m in plan:
            yield from rng.standard_normal(out=bufs[j, :m])
        return
    free = threading.Semaphore(2)      # buffers the worker may fill
    filled = threading.Semaphore(0)    # blocks the caller may read
    stop = threading.Event()

    def fill():
        for j, m in plan:
            free.acquire()
            if stop.is_set():
                return
            rng.standard_normal(out=bufs[j, :m])
            filled.release()

    worker = threading.Thread(target=fill, name="wpconv-normals", daemon=True)
    worker.start()
    try:
        for j, m in plan:
            filled.acquire()
            yield from bufs[j, :m]
            free.release()
    finally:
        stop.set()
        free.release()
        worker.join()


def semigroup_decay(model, f, t_grid, n_paths, dt, seed, n_inner=256):
    """Variance of the conditional-mean estimator of f along the diffusion
    with drift -grad V_nu and diffusion sqrt(2), nested over n_paths starting
    points with n_inner inner paths each."""
    if model.d != 1:
        raise UnsupportedDimension("path simulation implemented for d = 1")
    for name, count in (("n_paths", n_paths), ("n_inner", n_inner)):
        if count < 2:
            raise ValueError(f"semigroup_decay needs {name} >= 2, got {name}={count!r}")
    if not dt > 0.0:
        raise ValueError(f"semigroup_decay needs dt > 0, got dt={dt!r}")
    t_grid = np.asarray(t_grid, dtype=float)
    guard = 10.0 * model.truncation_radius
    table = _drift_table(model, guard * 1.05)
    rng = np.random.default_rng(np.random.PCG64(seed))
    starts = sample_convolution(model, seed + 1, n_paths).points[:, 0]
    pos = np.repeat(starts, n_inner)
    step, w = np.empty((2, pos.size))
    idx = np.empty(pos.size, dtype=np.intp)
    sq2dt = math.sqrt(2.0 * dt)

    segments, t_now = [], 0.0          # (Euler steps, end time) per t_grid point
    for t_target in t_grid:
        k = int(round((t_target - t_now) / dt))
        t_now += k * dt
        segments.append((k, t_now))
    rows = sum(max(k, 0) for k, _ in segments)

    variances = []
    halfwidths = []
    with closing(_normal_rows(rng, rows, pos.size)) as normals:
        for k, t_now in segments:
            for _ in range(k):
                pos += np.multiply(_drift(table, pos, step, w, idx), dt, out=step)
                pos += np.multiply(next(normals), sq2dt, out=step)
            if np.any(np.abs(pos) > guard):
                raise StepSizeTooLarge(
                    f"path left the guarded domain (|x| > {guard:g}) at t={t_now:g}")
            vals = np.asarray(f.value(pos), dtype=float).reshape(n_paths, n_inner)
            inner_mean = vals.mean(axis=1)
            inner_var = vals.var(axis=1, ddof=1)
            grand = inner_mean.mean()
            dev = (inner_mean - grand) ** 2
            raw = float(np.sum(dev) / (n_paths - 1))
            correction = float(inner_var.mean()) / n_inner
            v_hat = max(raw - correction, 0.0)
            se = float(np.std(dev, ddof=1)) / math.sqrt(n_paths)
            variances.append(v_hat)
            halfwidths.append(2.0 * se)
    return DecayTrace(times=t_grid, variance_estimates=np.array(variances),
                      confidence_halfwidths=np.array(halfwidths))


# ---------------------------------------------------------------------------
# gradient hygiene
# ---------------------------------------------------------------------------

def default_check_points(model, n=100, seed=1234, lo=1.5, hi=50.0):
    """Seeded points away from the origin cusp and the support edge."""
    rng = np.random.default_rng(seed)
    mags = rng.uniform(lo, hi, size=n)
    signs = np.sign(rng.normal(size=n))
    return signs * mags


def _richardson(fun, x):
    def D(step):
        return (fun(x + step) - fun(x - step)) / (2.0 * step)
    return (4.0 * D(5e-5) - D(1e-4)) / 3.0


def crosscheck_gradients(model, points):
    """Max relative discrepancy of each analytic derivative against
    Richardson-extrapolated central differences of step 1e-4 (d = 1)."""
    pot = model.potential
    x = np.asarray(points, dtype=float)

    def worst_rel(value, fd):
        return float(np.max(np.abs(value - fd) / np.maximum(np.abs(fd), 1e-12),
                            initial=0.0))

    worst = {
        "grad_V": worst_rel(pot.grad_1d(x),
                            _richardson(lambda y: pot.value(np.abs(y)), x)),
        "lap_V": worst_rel(pot.laplacian(np.abs(x)), _richardson(pot.grad_1d, x)),
        "grad_V_nu": worst_rel(model_mod.v_nu_and_grad(model, x)[1],
                               _richardson(lambda y: model_mod.v_nu(model, y), x)),
    }
    worst["n_points"] = int(x.size)
    worst["schema_version"] = SCHEMA_VERSION
    return worst
