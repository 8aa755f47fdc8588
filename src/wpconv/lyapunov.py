"""Lyapunov drift data for the convolution generator L = Delta - grad V_nu . grad.

Two constructions of a rate phi > 0 with L W / W <= -phi + b 1_{|x| <= R0}:

  case 'a'    -- radial W built from the inward drift
                 psi(s) = inf_{|x|=s} E_{nu_x}[<x, grad V(x-z)>] / |x|;
                 the certified rate is phi = psi / ((1+sigma) p_sigma) with
                 the integral correction p_sigma below.
  case 'b'    -- W = exp((1-delta) V_nu), giving
                 phi = (1-delta) E_{nu_x}[delta |grad V(x-z)|^2 - Delta V(x-z)].

For compactly supported nu the tilted averages can be replaced by worst-case
windows of the plain potential ('cor_a', 'cor_b'): eta(s) = inf over the
sphere of <grad V(x), x> - R |grad V(x)|, psi(r) = inf of eta over
[r-R, r+R] divided by r, and the case-b integrand is minimized over the
ball of radius R around x.

p_sigma(r) = ( int_R0^r s^(1-d) exp[w int_R0^s psi] ds + 1 )
             / ( r^(1-d) exp[w int_R0^r psi] ),   w = sigma/(sigma+1),

computed entirely in log space on the anchored lattice R0 10^(k/1600) merged
with the requested radii, so the exact monotonicity p_sigma2 <= p_sigma1 for
sigma2 > sigma1 holds termwise in the discretization, and p_sigma(r) depends on
psi on [R0, r] alone, not on how far a profile extends (prefix property).
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import model as model_mod
from .errors import DriftConditionFailed, InvalidCertificate, UnsupportedDimension

__all__ = [
    "DriftConfig",
    "RadialProfile",
    "DriftCertificate",
    "ConditionsReport",
    "sphere_directions",
    "psi_case_a",
    "eta_window",
    "eta_window_psi",
    "drift_rate",
    "p_sigma",
    "phi_profile",
    "case_b_integrand",
    "check_conditions",
    "drift_check",
    "resolve_r0",
    "robustness_bracket",
]

_CASES = ("a", "b", "cor_a", "cor_b")
SPHERE_SAMPLES = 64   # directions of a sphere infimum in d > 1
WINDOW_SAMPLES = 33   # points of a radius-window infimum, both ends included


@dataclass(frozen=True)
class DriftConfig:
    """Parameters of the drift construction.

    R0 = None requests automatic selection (smallest radius past which the
    case quantity stays positive on a doubling-horizon scan, times 1.25).
    """

    case: str = "a"
    R0: Optional[float] = None
    sigma: float = 1.0
    delta: float = 0.75

    def __post_init__(self):
        if self.case not in _CASES:
            raise ValueError(f"case must be one of {_CASES}")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.R0 is not None and self.R0 <= 0.0:
            raise ValueError("R0 must be positive")


@dataclass(frozen=True)
class RadialProfile:
    """Positive radial function tabulated on an increasing grid, interpolated
    log-log between nodes, constant below r0, clamped beyond the last node."""

    grid: np.ndarray
    values: np.ndarray
    r0: float
    name: str = "phi"
    # the case quantity on the same grid: the scaled drift rate psi for cases
    # 'a'/'cor_a', the integrand infimum for 'b'/'cor_b'
    psi: Optional[np.ndarray] = None
    log_p_sigma: Optional[np.ndarray] = None  # log p_sigma on the same grid ('a'/'cor_a')

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing and match values")
        if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
            raise ValueError("profile values must be positive and finite")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        sc = np.clip(s, self.grid[0], self.grid[-1])
        out = np.exp(np.interp(np.log(sc), np.log(self.grid), np.log(self.values)))
        return out if s.shape else float(out)

    @property
    def s_max(self):
        return float(self.grid[-1])

    def scaled(self, k):
        if k <= 0:
            raise ValueError("scale must be positive")
        return replace(self, values=self.values * k, psi=None, log_p_sigma=None,
                       name=f"{k}*{self.name}")


@dataclass(frozen=True)
class DriftCertificate:
    """Numeric record of a verified drift inequality.

    b is measured on the interior ball: for case 'a' the Lyapunov function is
    extended by the constant 1 inside (zero interior drift term), so b is the
    interior maximum of phi; for case 'b' the explicit W is global and
    L W / W + phi is measured directly.  lambda_inv_bound is the local
    spectral bound (4 R0^2 / pi^2) exp(osc of V_nu over the ball), and
    c0 = b * lambda_inv_bound + 1.
    """

    config: DriftConfig
    phi: RadialProfile
    b: float
    lambda_inv_bound: float
    c0: float
    violation_fraction: float
    max_violation: float
    n_points: int

    @property
    def valid(self):
        return self.violation_fraction <= 0.01

    def summary(self):
        return {
            "case": self.config.case,
            "R0": self.config.R0,
            "sigma": self.config.sigma,
            "delta": self.config.delta,
            "b": self.b,
            "lambda_inv_bound": self.lambda_inv_bound,
            "c0": self.c0,
            "violation_fraction": self.violation_fraction,
            "max_violation": self.max_violation,
            "n_points": self.n_points,
            "valid": self.valid,
            "phi_at_r0": float(self.phi(self.config.R0)),
            "phi_grid_end": self.phi.s_max,
        }


def sphere_directions(d, n):
    """Deterministic direction set on the unit sphere: exact pair in d=1,
    golden-angle set in d=2, Fibonacci sphere in d=3."""
    if d == 1:
        return np.array([[-1.0], [1.0]])
    if d == 2:
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        k = np.arange(n)
        th = 2.0 * np.pi * np.mod(k / golden, 1.0)
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    if d == 3:
        k = np.arange(n) + 0.5
        phi = np.arccos(1.0 - 2.0 * k / n)
        golden = np.pi * (1.0 + math.sqrt(5.0))
        th = golden * k
        return np.stack([np.cos(th) * np.sin(phi), np.sin(th) * np.sin(phi),
                         np.cos(phi)], axis=1)
    raise UnsupportedDimension("sphere sampling implemented for d <= 3")


# ---------------------------------------------------------------------------
# drift rates
# ---------------------------------------------------------------------------

def _sphere_points(model, s, n):
    """Points on the spheres |x| = s: the exact pair +-s in d = 1, n
    directions otherwise.  Shape (radii, directions) resp. (radii, n, d).
    For a mirror-symmetric nu in d = 1 the pair carries one value, and the
    evaluators of even quantities (model._fold_even) compute it once."""
    s = np.asarray(s, dtype=float)
    if model.d == 1:
        return np.stack([s, -s], axis=-1)
    return s[:, None, None] * sphere_directions(model.d, n)[None]


def _tilted_radial_drift(model, x):
    """E_{nu_x}[<e, grad V(x - z)>] at x = |x| e, at every point of x."""
    x = np.asarray(x, dtype=float)
    if model.d == 1:
        def drift(pts):
            sgn = np.where(pts >= 0.0, 1.0, -1.0)
            return sgn * model_mod.tilted_u_moment(model, pts, model.potential.grad_1d)
        return model_mod._fold_even(model, x, drift)
    e = x / np.linalg.norm(x, axis=-1, keepdims=True)
    _, grad = model_mod.v_nu_and_grad(model, x)
    return np.sum(e * grad, axis=-1)


def psi_case_a(model, s, cfg, strict=True):
    """inf over the sphere |x| = s of E_{nu_x}[<x, grad V(x-z)>] / |x|.

    Exact two-point infimum in d = 1, one evaluation per radius when nu is
    mirror-symmetric (both points carry the same value); SPHERE_SAMPLES
    directions otherwise.  Vectorized over s.  With strict=True, a
    nonpositive value at s >= R0 raises DriftConditionFailed.
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s_arr <= 0.0):
        raise ValueError(f"radii must be positive, got s={s_arr[s_arr <= 0.0][0]:g}")
    pts = _sphere_points(model, s_arr, SPHERE_SAMPLES)
    out = np.min(_tilted_radial_drift(model, pts), axis=1)
    if strict and cfg.R0 is not None:
        bad = (s_arr >= cfg.R0) & (out <= 0.0)
        if np.any(bad):
            raise DriftConditionFailed(
                f"inward drift rate nonpositive at s={s_arr[bad][0]:g} >= R0={cfg.R0:g}")
    return out if np.asarray(s).shape else float(out[0])


def eta_window(model, s, cfg):
    """eta(s) = inf_{|x|=s} ( <grad V(x), x> - R |grad V(x)| ), which for the
    radial potential is v0'(s) s - R |v0'(s)| on every direction."""
    pot, R = model.potential, model.source.support_radius
    if not np.isfinite(R):
        raise DriftConditionFailed("window construction requires compact nu")
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    vp = pot.v0p(s_arr)
    out = vp * s_arr - R * np.abs(vp)
    return out if np.asarray(s).shape else float(out[0])


def eta_window_psi(model, r, cfg, strict=True):
    """psi(r) = (1/r) inf of eta over the window [r-R, r+R]; the window
    infimum is taken over WINDOW_SAMPLES points including both endpoints."""
    R = model.source.support_radius
    if not np.isfinite(R):
        raise DriftConditionFailed("window construction requires compact nu")
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    lo = r_arr - R
    crossing = lo <= 0.0
    if strict and np.any(crossing):
        raise DriftConditionFailed(
            f"window [r-R, r+R] leaves the positive axis at r={r_arr[crossing][0]:g}")
    lo = np.where(crossing, np.minimum(1e-9, r_arr * 1e-9), lo)
    win = np.linspace(lo, r_arr + R, WINDOW_SAMPLES, axis=-1)
    out = np.min(eta_window(model, win, cfg), axis=-1) / r_arr
    if strict and cfg.R0 is not None:
        bad = (r_arr >= cfg.R0) & (out <= 0.0)
        if np.any(bad):
            raise DriftConditionFailed(
                f"window drift rate nonpositive at r={r_arr[bad][0]:g}")
    return out if np.asarray(r).shape else float(out[0])


def drift_rate(model, s, cfg, strict=True):
    """The case-appropriate radial drift rate psi."""
    if cfg.case in ("a", "b"):
        return psi_case_a(model, s, cfg, strict=strict)
    return eta_window_psi(model, s, cfg, strict=strict)


# ---------------------------------------------------------------------------
# p_sigma and phi profiles
# ---------------------------------------------------------------------------

_REFINE_PER_DECADE = 1600


def _anchored_grid(R0, s_max, points_per_decade, include_radii=None):
    """Log-step grid anchored at R0 so that extending s_max keeps every
    previous node (prefix property; lets callers reuse tabulated rates)."""
    n = max(int(math.ceil(math.log10(max(s_max / R0, 1.0 + 1e-9))
                          * points_per_decade)), 1)
    grid = R0 * 10.0 ** (np.arange(n + 1) / points_per_decade)
    if include_radii is not None:
        grid = np.unique(np.concatenate(
            [grid, np.asarray(include_radii, dtype=float)]))
        grid = grid[grid >= R0]
    return grid


def _log_p_sigma_on_grid(grid, psi_vals, sigma, d):
    """log p_sigma at every grid point via cumulative log-sum-exp trapezoid.

    Termwise p_sigma = sum_k c_k exp(-w (I_r - I_k)) + exp(-w I_r) r^(d-1)
    with c_k >= 0 and I nondecreasing, hence exactly nonincreasing in sigma.
    """
    w = sigma / (sigma + 1.0)
    # cumulative trapezoid of psi, in scipy's cumulative_trapezoid operation order
    I = np.concatenate([[0.0], np.cumsum(np.diff(grid) * (psi_vals[1:] + psi_vals[:-1]) / 2.0)])
    logg = (1.0 - d) * np.log(grid) + w * I
    # the integrand varies exponentially: the log-linear panel rule is exact
    # when logg is linear on a panel
    panel = model_mod._log_panel_rule(logg, np.diff(grid))
    cum = np.concatenate([[-np.inf], np.logaddexp.accumulate(panel)])
    lognum = np.logaddexp(cum, 0.0)
    return lognum - logg, I


def _log_p_sigma(psi, r, sigma, R0, d):
    """log p_sigma at the radii r on the anchored lattice merged with r: the
    nodes below a radius do not depend on the other radii, so each value
    depends on psi on [R0, r] alone.  Radii below R0 read the value at R0."""
    grid = _anchored_grid(R0, float(np.max(r)), _REFINE_PER_DECADE, include_radii=r)
    vals = np.asarray(psi(grid), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DriftConditionFailed("drift rate is not finite on the grid")
    logp, _ = _log_p_sigma_on_grid(grid, vals, sigma, d)
    return logp[np.searchsorted(grid, r)]


def p_sigma(psi, r, cfg, d):
    """The integral correction factor at radii r >= R0.

    psi is a vectorized map of the radius; the cumulative integrals run on
    the anchored lattice merged with the requested radii, so p_sigma(R0) =
    R0^(d-1) exactly and no value depends on the other radii requested.
    """
    if cfg.R0 is None:
        raise ValueError("cfg.R0 must be set (use resolve_r0)")
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    below = r_arr < cfg.R0 * (1.0 - 1e-12)
    if np.any(below):
        raise ValueError(f"p_sigma is defined for r >= R0, got r={r_arr[below][0]:g} "
                         f"< R0={cfg.R0:g}")
    out = np.exp(_log_p_sigma(psi, r_arr, cfg.sigma, cfg.R0, d))
    return out if np.asarray(r).shape else float(out[0])


def case_b_integrand(model, x, cfg):
    """E_{nu_x}[delta |grad V(x-z)|^2 - Delta V(x-z)] at every point of x."""
    pot = model.potential
    delta = cfg.delta
    if model.d == 1:
        def h(u):
            return delta * pot.grad_1d(u) ** 2 - pot.laplacian(np.abs(u))
        return model_mod._fold_even(model, x,
                                    lambda pts: model_mod.tilted_u_moment(model, pts, h))

    def h(u):
        g = np.asarray(pot.gradient(u))
        return delta * np.sum(g * g, axis=-1) - pot.laplacian(u)
    return model_mod.tilted_u_moment(model, x, h)


def _ball_infimum_integrand(model, s, cfg):
    """inf over the ball B_R(x), |x| = s, of delta |grad V|^2 - Delta V (the
    ball projects onto the radius window [s-R, s+R]).  Vectorized over s."""
    pot, R = model.potential, model.source.support_radius
    s = np.asarray(s, dtype=float)
    lo = np.maximum(s - R, max(pot.smooth_radius + 1e-12, 1e-12))
    win = np.linspace(lo, s + R, WINDOW_SAMPLES, axis=-1)
    vp = pot.v0p(win)
    lap = pot.v0pp(win) + (pot.d - 1) * vp / win
    return np.min(cfg.delta * vp ** 2 - lap, axis=-1)


def _case_scan_values(model, grid, cfg, strict):
    """The case quantity at every radius of grid: the drift rate psi for
    cases 'a'/'cor_a' (strict as in drift_rate), the sphere infimum of the
    tilted integrand for 'b', the ball infimum for 'cor_b'."""
    if cfg.case in ("a", "cor_a"):
        return drift_rate(model, grid, cfg, strict=strict)
    if cfg.case == "b":
        pts = _sphere_points(model, grid, SPHERE_SAMPLES)
        return np.min(case_b_integrand(model, pts, cfg), axis=1)
    return _ball_infimum_integrand(model, grid, cfg)


def phi_profile(model, cfg, s_max=None, points_per_decade=200, include_radii=None,
                psi_scale=1.0, prefix=None):
    """The certified radial rate phi of cfg.case on [R0, s_max], extended by
    the constant phi(R0) below R0 (the practical lower-bound form):
    psi / ((1+sigma) p_sigma) for cases 'a'/'cor_a', and (1-delta) times the
    tilted integrand ('b') or its ball infimum ('cor_b') for the exponential
    Lyapunov function.

    psi_scale multiplies the drift rate of cases 'a'/'cor_a' before the
    correction integrals (used by the perturbation comparisons); prefix, a
    profile built with the same model, cfg and psi_scale, lends its psi on
    the nodes the two grids share."""
    exp_case = cfg.case in ("b", "cor_b")
    if exp_case and psi_scale != 1.0:
        raise ValueError(f"psi_scale={psi_scale:g} scales the drift rate of cases "
                         f"'a'/'cor_a'; case {cfg.case!r} has none to scale")
    cfg = resolve_r0(model, cfg)
    R0 = cfg.R0
    if s_max is None:
        s_max = 1e4 * max(R0, 1.0)
    grid = _anchored_grid(R0, s_max, points_per_decade, include_radii)
    k = 0
    if prefix is not None and include_radii is None:
        k = min(prefix.grid.size, grid.size)
        if not np.array_equal(prefix.grid[:k], grid[:k]):
            k = 0
    psi = psi_scale * np.asarray(_case_scan_values(model, grid[k:], cfg, strict=True),
                                 dtype=float)
    if k:
        psi = np.concatenate([prefix.psi[:k], psi])
    bad = psi <= 0.0
    if np.any(bad):
        what = "case-b integrand" if exp_case else "drift rate"
        raise DriftConditionFailed(f"{what} nonpositive at s={grid[bad][0]:g}")
    name = f"phi_{cfg.case}"
    if exp_case:
        return RadialProfile(grid=grid, values=(1.0 - cfg.delta) * psi, r0=R0,
                             name=name, psi=psi)
    # the cumulative integrals read psi log-log interpolated between the nodes
    log_grid, log_psi = np.log(grid), np.log(psi)
    logp = _log_p_sigma(lambda s: np.exp(np.interp(np.log(s), log_grid, log_psi)),
                        grid, cfg.sigma, R0, model.d)
    phi_vals = np.exp(log_psi - math.log(1.0 + cfg.sigma) - logp)
    return RadialProfile(grid=grid, values=phi_vals, r0=R0, name=name,
                         psi=psi, log_p_sigma=logp)


# ---------------------------------------------------------------------------
# R0 selection and condition reports
# ---------------------------------------------------------------------------

def resolve_r0(model, cfg, safety=1.25):
    """Fill in cfg.R0: the smallest scanned radius past which the case
    quantity stays positive over a doubling horizon, times the safety factor.
    Windowed cases additionally require R0 comfortably above R."""
    if cfg.R0 is not None:
        return cfg
    R = model.source.support_radius
    windowed = cfg.case in ("cor_a", "cor_b")
    # case 'b' needs the tilted integrand to stay away from the origin of the
    # potential: inside the support the pointwise Laplacian misses the
    # distributional part of a profile cusp
    needs_gap = windowed or (cfg.case == "b" and model.potential.smooth_radius > 0.0)
    r_lo = max(1.05 * R + 1e-3, 0.05) if (needs_gap and np.isfinite(R)) else 0.05
    horizon = max(16.0 * r_lo, 16.0)
    last_star = None
    while True:
        grid = np.geomspace(r_lo, horizon,
                            max(int(40 * math.log10(horizon / r_lo)), 24))
        vals = _case_scan_values(model, grid, cfg, strict=False)
        pos = vals > 0.0
        if not pos[-1]:
            star = None
        else:
            bad = np.where(~pos)[0]
            star = grid[bad[-1] + 1] if bad.size else grid[0]
        if star is not None and last_star is not None \
                and abs(star - last_star) <= 0.05 * star:
            r0 = safety * star
            if windowed and np.isfinite(R):
                r0 = max(r0, safety * 1.2 * R)
            return replace(cfg, R0=float(r0))
        last_star = star
        horizon *= 2.0
        if horizon > 1e7:
            raise DriftConditionFailed(
                "no radius with stable positive drift found below 1e7")


@dataclass(frozen=True)
class ConditionsReport:
    """Report-only evaluation of the drift hypotheses on a radius grid."""

    R0: float
    grid_min: float
    grid_max: float
    psi_min: float
    psi_positive: bool
    case_b_min: float
    case_b_positive: bool
    robustness_inf: float        # inf of w0 - psi'/psi^2 + (1-d)/(s psi)
    robustness_ok: bool
    sigma0: float
    case: str

    def to_dict(self):
        return {k: getattr(self, k) for k in (
            "R0", "grid_min", "grid_max", "psi_min", "psi_positive",
            "case_b_min", "case_b_positive", "robustness_inf",
            "robustness_ok", "sigma0", "case")}

    @property
    def all_ok(self):
        primary = self.psi_positive if self.case in ("a", "cor_a") \
            else self.case_b_positive
        return bool(primary)


def robustness_bracket(s_grid, psi_vals, sigma0, d):
    """w0 - psi'/psi^2 + (1-d)/(s psi) with psi' by centered differences of
    the tabulated rate; positivity of its infimum at large radii makes the
    rate function's order insensitive to the choice of sigma."""
    s = np.asarray(s_grid, dtype=float)
    v = np.asarray(psi_vals, dtype=float)
    dpsi = np.gradient(v, s)
    w0 = sigma0 / (1.0 + sigma0)
    with np.errstate(divide="ignore", invalid="ignore"):
        bracket = w0 - dpsi / (v * v) + (1.0 - d) / (s * v)
    return np.where(v > 0.0, bracket, -np.inf)


def check_conditions(model, cfg, s_grid=None, sigma0=None):
    """Evaluate every hypothesis on a radius grid; report-only, never raises
    on condition failure."""
    try:
        cfg = resolve_r0(model, cfg)
    except DriftConditionFailed:
        cfg = replace(cfg, R0=max(1.0, 2.0 * model.source.support_radius)
                      if np.isfinite(model.source.support_radius) else 1.0)
    if s_grid is None:
        s_grid = np.geomspace(cfg.R0, 100.0 * cfg.R0, 257)
    s_grid = np.asarray(s_grid, dtype=float)
    sigma0 = cfg.sigma if sigma0 is None else sigma0
    psi_vals = drift_rate(model, s_grid, cfg, strict=False)
    bcase = replace(cfg, case="b" if cfg.case in ("a", "b") else "cor_b")
    b_vals = _case_scan_values(model, s_grid, bcase, strict=False)
    bracket = robustness_bracket(s_grid, psi_vals, sigma0, model.d)
    # the robustness hypothesis concerns large radii: take the upper half
    upper = s_grid >= math.sqrt(s_grid[0] * s_grid[-1])
    rob_inf = float(np.min(bracket[upper]))
    return ConditionsReport(
        R0=float(cfg.R0),
        grid_min=float(s_grid[0]),
        grid_max=float(s_grid[-1]),
        psi_min=float(np.min(psi_vals)),
        psi_positive=bool(np.all(psi_vals > 0.0)),
        case_b_min=float(np.min(b_vals)),
        case_b_positive=bool(np.all(b_vals > 0.0)),
        robustness_inf=rob_inf,
        robustness_ok=bool(rob_inf > 0.0),
        sigma0=float(sigma0),
        case=cfg.case,
    )


# ---------------------------------------------------------------------------
# drift certificate
# ---------------------------------------------------------------------------

def laplacian_v_nu_fd(model, x, h=1e-4):
    """Delta V_nu by Richardson-extrapolated centered differences of the
    analytic gradient, at every point of x (one batched gradient call)."""
    x = np.asarray(x, dtype=float)
    steps = np.array([h / 2.0, -h / 2.0, h, -h])
    if model.d == 1:
        g = model_mod.v_nu_and_grad(model, x[..., None] + steps)[1]
    else:
        # shifted copies along each axis; keep d/dx_ax of the ax-th component
        eye = np.eye(model.d)
        pts = x[..., None, None, :] + steps[:, None, None] * eye
        g = np.diagonal(model_mod.v_nu_and_grad(model, pts)[1], axis1=-2, axis2=-1)
        g = np.moveaxis(g, -2, -1)
    D_half = (g[..., 0] - g[..., 1]) / (2.0 * (h / 2.0))
    D_full = (g[..., 2] - g[..., 3]) / (2.0 * h)
    lap = (4.0 * D_half - D_full) / 3.0
    return lap if model.d == 1 else np.sum(lap, axis=-1)


def _exp_case_lw(model, x, delta):
    """L W / W for W = exp((1-delta) V_nu): -(1-delta)(delta |grad V_nu|^2
    - Delta V_nu), the Laplacian by Richardson differences.  Vectorized."""
    g = model_mod.v_nu_and_grad(model, x)[1]
    gsq = g * g if model.d == 1 else np.sum(g * g, axis=-1)
    lap = laplacian_v_nu_fd(model, x)
    return -(1.0 - delta) * (delta * gsq - lap)


def drift_check(model, cfg, certificate_grid=None, tol_abs=1e-8, tol_rel=1e-6,
                strict=False):
    """Evaluate L W / W against -phi at sampled points with |x| >= R0 and
    assemble the certificate (b, local spectral bound, c0, violations).

    The radii of certificate_grid are merged into the profile grid so the
    tabulated drift-rate values are reused exactly at the checked points.
    """
    cfg = resolve_r0(model, cfg)
    if certificate_grid is None:
        certificate_grid = np.geomspace(cfg.R0, 10.0 * cfg.R0, 200)
    radii = np.asarray(certificate_grid, dtype=float)
    s_max = float(radii.max()) * 1.05
    phi = phi_profile(model, cfg, s_max=s_max, include_radii=radii)
    exp_case = cfg.case in ("b", "cor_b")

    idx = np.clip(np.searchsorted(phi.grid, radii), 0, phi.grid.size - 1)
    phi_s = phi.values[idx][:, None]
    points = _sphere_points(model, radii, 16)
    if exp_case:
        lw = _exp_case_lw(model, points, cfg.delta)
    else:
        w = cfg.sigma / (1.0 + cfg.sigma)
        inv_p = np.exp(-phi.log_p_sigma[idx])[:, None]
        lw = inv_p * (w * phi.psi[idx][:, None] - _tilted_radial_drift(model, points))
    excess = lw + phi_s
    n_checked = excess.size
    max_violation = float(np.max(excess, initial=-np.inf))
    violations = int(np.count_nonzero(excess > tol_abs + tol_rel * phi_s))
    violation_fraction = violations / max(n_checked, 1)

    # interior ball: b and the local spectral bound
    if model.d == 1:
        pts = np.linspace(-cfg.R0, cfg.R0, 101)
        r = np.abs(pts)
    else:
        rad = np.linspace(0.0, cfg.R0, 13)[1:]
        pts = np.concatenate([_sphere_points(model, rad, 8).reshape(-1, model.d),
                              np.zeros((1, model.d))])
        r = np.linalg.norm(pts, axis=-1)
    phi_r0 = float(phi(cfg.R0))
    if exp_case:
        # keep away from a potential cusp that survives in the convolution
        guard = model.potential.smooth_radius + 1e-6 \
            if model.source.kind == "point_mass" else 0.0
        lw_ball = _exp_case_lw(model, pts[r > guard], cfg.delta)
        b = float(np.max(lw_ball + phi_r0, initial=0.0))
    else:
        # constant-1 interior extension: zero interior drift term
        b = phi_r0

    vnu_vals = model_mod.v_nu(model, pts)
    osc = float(np.max(vnu_vals) - np.min(vnu_vals))
    lam_inv = (4.0 * cfg.R0 ** 2 / np.pi ** 2) * math.exp(osc)
    c0 = b * lam_inv + 1.0

    cert = DriftCertificate(config=cfg, phi=phi, b=float(b),
                            lambda_inv_bound=float(lam_inv), c0=float(c0),
                            violation_fraction=float(violation_fraction),
                            max_violation=float(max_violation),
                            n_points=int(n_checked))
    if strict and not cert.valid:
        raise InvalidCertificate(
            f"violation fraction {violation_fraction:.3f} exceeds 0.01 "
            f"(R0, sigma or delta mis-specified?)")
    return cert
