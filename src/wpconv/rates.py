"""From a radial drift rate phi to the rate function alpha of the functional
inequality  Var(f) <= alpha(r) * E(|grad f|^2) + r * Osc^2(f).

The chain:

    varphi(r) = sup{ s > 0 : inf_{|x| <= s} phi >= 1/r }
    beta(r)   = mu(|x| >= varphi(r)/2) + nu(|z| >= varphi(r)/2)
    alpha(s)  = c0 * inf{ r : beta(r) <= s }

(the 1/2 inside beta follows the drift argument; set half=False for the
variant without it).  For compactly supported nu the beta tail restricts to
{|x| >= R + R0} and the nu term vanishes for large r.

All generalized inverses use the left-continuous convention
F^{-1}(s) = inf{r : F(r) <= s}, evaluated tablewise.
"""

import csv
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import model as model_mod
from . import lyapunov as lyap
from .errors import HypothesisFailed, InconclusiveFit, SaturatedAtGridEnd

__all__ = [
    "RateTable",
    "AsymptoticFit",
    "RateResult",
    "varphi_phi",
    "beta_phi",
    "alpha_from_beta",
    "fit_asymptotics",
    "rate_tables",
    "compare_sigma",
    "compare_stability",
]

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateTable:
    """Monotone tabulated function with a generalized inverse.

    Values must respect the declared monotonicity up to 1e-12 (violations
    beyond that are rejected at construction).  Positive tables interpolate
    log-log; extrapolation is 'clamp' or 'power_law' (terminal slope, with a
    warning).
    """

    grid: np.ndarray
    values: np.ndarray
    monotonicity: str = "nonincreasing"
    extrapolation: str = "clamp"

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or g.size < 2:
            raise ValueError("grid/values must be 1-d arrays of equal length >= 2")
        if np.any(np.diff(g) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if self.monotonicity not in ("nonincreasing", "nondecreasing"):
            raise ValueError("monotonicity must be nonincreasing or nondecreasing")
        if self.extrapolation not in ("clamp", "power_law"):
            raise ValueError("extrapolation must be clamp or power_law")
        d = np.diff(v)
        scale = np.maximum(np.abs(v[:-1]), np.abs(v[1:]))
        bad = d > 1e-12 * np.maximum(scale, 1.0) if self.monotonicity == "nonincreasing" \
            else d < -1e-12 * np.maximum(scale, 1.0)
        if np.any(bad):
            raise ValueError(f"values violate declared {self.monotonicity} monotonicity")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    @property
    def positive(self):
        return bool(np.all(self.values > 0.0))

    def value_at(self, r):
        r = np.asarray(r, dtype=float)
        out_of_range = (r < self.grid[0]) | (r > self.grid[-1])
        if self.extrapolation == "power_law" and np.any(out_of_range):
            warnings.warn("rate table extrapolated by terminal power law",
                          stacklevel=2)
            lo_slope = self._edge_slope(0)
            hi_slope = self._edge_slope(-1)
            rc = np.clip(r, self.grid[0], self.grid[-1])
            base = self._interp(rc)
            out = np.where(r < self.grid[0],
                           self.values[0] * (r / self.grid[0]) ** lo_slope,
                           np.where(r > self.grid[-1],
                                    self.values[-1] * (r / self.grid[-1]) ** hi_slope,
                                    base))
            return out if r.shape else float(out)
        rc = np.clip(r, self.grid[0], self.grid[-1])
        out = self._interp(rc)
        return out if r.shape else float(out)

    def _interp(self, r):
        if self.positive:
            return np.exp(np.interp(np.log(r), np.log(self.grid),
                                    np.log(self.values)))
        return np.interp(r, self.grid, self.values)

    def _edge_slope(self, end):
        i = (0, 1) if end == 0 else (-2, -1)
        return (math.log(self.values[i[1]] / self.values[i[0]])
                / math.log(self.grid[i[1]] / self.grid[i[0]]))

    def inverse(self, s):
        """inf{r : value(r) <= s} for nonincreasing tables, evaluated on the
        grid (left-continuous convention; ties belong to the sublevel set)."""
        if self.monotonicity != "nonincreasing":
            raise ValueError("generalized inverse implemented for nonincreasing tables")
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        rev = self.values[::-1]
        k = np.searchsorted(rev, s_arr, side="right")
        if np.any(k == 0):
            bad = s_arr[k == 0][0]
            raise SaturatedAtGridEnd(
                f"requested level {bad:g} below the table minimum "
                f"{self.values[-1]:g}; extend the r grid")
        out = self.grid[self.grid.size - k]
        return out if np.asarray(s).shape else float(out[0])

    def to_json(self):
        return {"schema_version": SCHEMA_VERSION,
                "abscissa": self.grid.tolist(),
                "value": self.values.tolist(),
                "monotonicity": self.monotonicity,
                "extrapolation": self.extrapolation}

    @classmethod
    def from_json(cls, doc):
        return cls(grid=np.asarray(doc["abscissa"], dtype=float),
                   values=np.asarray(doc["value"], dtype=float),
                   monotonicity=doc.get("monotonicity", "nonincreasing"),
                   extrapolation=doc.get("extrapolation", "clamp"))

    def to_csv(self, path, header=("abscissa", "value")):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for a, v in zip(self.grid, self.values):
                w.writerow([repr(float(a)), repr(float(v))])

    @classmethod
    def from_csv(cls, path, monotonicity="nonincreasing"):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        data = np.array([[float(a), float(b)] for a, b in rows[1:]])
        return cls(grid=data[:, 0], values=data[:, 1], monotonicity=monotonicity)


@dataclass(frozen=True)
class AsymptoticFit:
    """Best-family description of a rate table's blow-up as s -> 0."""

    family: str
    exponent: float
    scale: float
    r_squared: float
    fit_window: tuple
    diagnostics: dict = field(default_factory=dict)

    @property
    def conclusive(self):
        return self.r_squared >= 0.95

    def to_dict(self):
        return {"schema_version": SCHEMA_VERSION, "family": self.family,
                "exponent": self.exponent, "scale": self.scale,
                "r_squared": self.r_squared,
                "fit_window": list(self.fit_window),
                "diagnostics": self.diagnostics}


# ---------------------------------------------------------------------------
# varphi and beta
# ---------------------------------------------------------------------------

def varphi_phi(phi, r):
    """sup{s > 0 : inf_{|x| <= s} phi >= 1/r} on the tabulated profile.

    The running minimum of the table is inverted segmentwise; inside a
    segment the log-log interpolant is monotone, so the crossing solves in
    closed form (the exact limit of bisection).  Returns 0 when the sublevel
    set is empty and raises SaturatedAtGridEnd when the set reaches past the
    table end.
    """
    grid, values = phi.grid, phi.values
    runmin = np.minimum.accumulate(values)
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r_arr <= 0.0):
        raise ValueError(f"r must be positive, got r={r_arr[r_arr <= 0.0][0]:g}")
    target = 1.0 / r_arr
    saturated = runmin[-1] >= target
    if np.any(saturated):
        raise SaturatedAtGridEnd(
            f"phi stays above 1/r={target[saturated][0]:g} out to "
            f"s={grid[-1]:g}; extend the grid")
    # segment (j-1, j): values[j-1] >= runmin[j-1] >= t > runmin[j] = values[j];
    # j = 0 when the sublevel set is empty (phi is constant below the first node)
    j = np.searchsorted(-runmin, -target, side="right")
    jc = np.maximum(j, 1)
    v0, v1 = np.log(values[jc - 1]), np.log(values[jc])
    lo, hi = np.log(grid[jc - 1]), np.log(grid[jc])
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (np.log(target) - v0) / (v1 - v0)
    out = np.where(j == 0, 0.0, np.exp(lo + frac * (hi - lo)))
    return out if np.asarray(r).shape else float(out[0])


def beta_phi(model, phi, r, compact_branch=None, half=True):
    """Spatial-tail bound at the sublevel radius: mu-tail + nu-tail of
    varphi(r)/2 in general; for compactly supported nu the mu-tail restricted
    to {|x| >= R + R0} alone (the nu term is identically zero there)."""
    t = varphi_phi(phi, np.atleast_1d(np.asarray(r, dtype=float)))
    t = 0.5 * t if half else t
    if compact_branch is None:
        compact_branch = bool(np.isfinite(model.source.support_radius))
    if compact_branch:
        t = np.maximum(t, model.source.support_radius + phi.r0)
    out = model_mod.measure_tail(model, "mu", t)
    if not compact_branch:
        out = out + np.asarray(model.source.tail(t), dtype=float)
    return out if np.asarray(r).shape else float(out[0])


def alpha_from_beta(beta, c0=1.0, s_grid=None, points_per_decade=200):
    """alpha(s) = c0 * inf{r : beta(r) <= s} on a log-spaced s grid inside the
    range of beta."""
    if s_grid is None:
        lo = float(beta.values[-1]) * (1.0 + 1e-9)
        hi = float(beta.values[0]) * (1.0 - 1e-9)
        if not lo < hi:
            raise ValueError("beta table has no usable range")
        n = max(int(points_per_decade * math.log10(hi / lo)) + 2, 16)
        s_grid = np.geomspace(lo, hi, n)
    s_grid = np.asarray(s_grid, dtype=float)
    inv = np.asarray(beta.inverse(s_grid), dtype=float)
    # alpha is nonincreasing in s; clamp stray float wiggles downward
    vals = np.minimum.accumulate(c0 * inv)
    return RateTable(grid=s_grid, values=vals, monotonicity="nonincreasing",
                     extrapolation="power_law")


# ---------------------------------------------------------------------------
# asymptotic fits
# ---------------------------------------------------------------------------

def _linfit(x, y):
    if x.size < 2 or np.ptp(x) == 0.0:
        return 0.0, 0.0, -np.inf
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else (1.0 if ss_res == 0.0 else -np.inf)
    return float(slope), float(intercept), r2


def fit_asymptotics(alpha, families=("power", "poly_log", "stretched_exp"),
                    fit_window=None):
    """Least-squares fit of alpha's small-s behavior in each family's natural
    coordinates; returns the best family by r^2.

      power          log(alpha) ~ log(scale) + exponent * log(1/s)
      poly_log       log(alpha) ~ log(scale) + exponent * log(1 + log(1 + 1/s))
      stretched_exp  log(log(alpha)) ~ log(scale) + exponent * log(1/s)
                     (alpha ~ c1 exp(scale * s^-exponent))
    """
    if fit_window is None:
        s_lo = float(alpha.grid[0])
        s_hi = math.sqrt(float(alpha.grid[0]) * float(alpha.grid[-1]))
        fit_window = (s_lo, s_hi)
    lo, hi = fit_window
    # tolerant edges: sqrt(g0 gN) is an odd grid's middle node up to rounding
    msk = (alpha.grid >= lo * (1.0 - 1e-12)) & (alpha.grid <= hi * (1.0 + 1e-12))
    if int(msk.sum()) < 10:
        raise ValueError("fit window must contain at least 10 grid points")
    s = alpha.grid[msk]
    a = alpha.values[msk]
    diagnostics = {}
    best = None
    for fam in families:
        if fam == "power":
            x, y = np.log(1.0 / s), np.log(a)
        elif fam == "poly_log":
            x, y = np.log1p(np.log1p(1.0 / s)), np.log(a)
        elif fam == "stretched_exp":
            ok = a > math.e
            x, y = np.log(1.0 / s[ok]), np.log(np.log(a[ok]))
        else:
            raise ValueError(f"unknown family {fam!r}")
        finite = np.isfinite(x) & np.isfinite(y)
        x, y = x[finite], y[finite]
        if x.size < 10:
            diagnostics[fam] = {"exponent": float("nan"), "r_squared": -1.0,
                                "n_points": int(x.size)}
            continue
        slope, intercept, r2 = _linfit(x, y)
        diagnostics[fam] = {"exponent": slope, "r_squared": r2,
                            "n_points": int(x.size)}
        if best is None or r2 > best[2]:
            best = (fam, slope, r2, math.exp(min(intercept, 700.0)))
    if best is None or best[2] < 0.95:
        detail = ", ".join(f"{k}: {v['r_squared']:.3f}"
                           for k, v in diagnostics.items())
        raise InconclusiveFit(f"no family reached r^2 >= 0.95 ({detail})")
    fam, slope, r2, scale = best
    return AsymptoticFit(family=fam, exponent=slope, scale=scale, r_squared=r2,
                         fit_window=(float(lo), float(hi)),
                         diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateResult:
    """Output of the rate pipeline.

    beta/alpha are the tables of the model the drift construction actually
    ran on; when a comparison model was used (discrete source replaced by its
    equivalent density) alpha_final carries the transferred table and
    `comparison` the measured density-ratio constants.  r_truncated counts
    the requested r cut at the s_max_cap grid end, r_dropped those whose
    beta underflowed.
    """

    phi: lyap.RadialProfile
    varphi: RateTable
    beta: RateTable
    alpha: RateTable
    c0: float
    config: lyap.DriftConfig
    alpha_final: Optional[RateTable] = None
    comparison: Optional[dict] = None
    r_truncated: int = 0
    r_dropped: int = 0

    def __post_init__(self):
        if self.alpha_final is None:
            object.__setattr__(self, "alpha_final", self.alpha)


def _density_ratio_bounds(model, comparison, n=600):
    """Extremes of p_model / p_comparison over the evaluation domain."""
    T = min(model_mod.default_domain(model), model_mod.default_domain(comparison))
    if T > 30.0:
        xs = np.unique(np.concatenate([
            np.linspace(-30.0, 30.0, n // 2),
            np.geomspace(30.0, T, n // 4),
            -np.geomspace(30.0, T, n // 4)]))
    else:
        xs = np.linspace(-T, T, n)
    la, lb = (model_mod._fold_even(m, xs, lambda pts, m=m: model_mod._batch_log_p(m, pts))
              for m in (model, comparison))
    ratio = la - lb
    return float(np.exp(ratio.min())), float(np.exp(ratio.max()))


def rate_tables(model, cfg, r_grid=None, s_grid=None, c0=1.0,
                points_per_decade=200, half=True,
                via_comparison=None, psi_scale=1.0, s_max_cap=3e8):
    """Run the full chain phi -> varphi -> beta -> alpha.

    The profile grid end extends by doubling until varphi is defined at every
    requested r; r values whose beta underflows are dropped.  via_comparison
    computes everything on the comparison model and transfers alpha through
    measured density-ratio bounds (alpha(s) = (c_hi/c_lo) alpha_tilde(s/c_hi),
    reported as alpha_final).
    """
    work = via_comparison if via_comparison is not None else model
    cfg = lyap.resolve_r0(work, cfg)
    if r_grid is None:
        r_grid = np.geomspace(1.0, 1e8, int(8 * points_per_decade) + 1)
    r_grid = np.asarray(r_grid, dtype=float)
    if np.any(r_grid <= 0.0):
        raise ValueError(f"r must be positive, got r={r_grid[r_grid <= 0.0][0]:g}")

    s_max = 100.0 * max(cfg.R0, 1.0)
    n_requested = r_grid.size
    phi = None
    for _ in range(40):
        phi = lyap.phi_profile(work, cfg, s_max=s_max,
                               points_per_decade=points_per_decade,
                               psi_scale=psi_scale, prefix=phi)
        # varphi_phi's test: the sublevel set of 1/r reaches past the grid end
        saturated = phi.values.min() >= 1.0 / r_grid
        if not np.any(saturated):
            break
        if s_max >= s_max_cap:
            # serve the r prefix below the first saturated 1/r; with too short
            # a prefix varphi_phi raises SaturatedAtGridEnd below
            served = int(np.argmax(saturated))
            if served >= 32:
                r_grid = r_grid[:served]
            break
        s_max = min(s_max * 4.0, s_max_cap)
    else:
        raise SaturatedAtGridEnd("profile grid never covered the r grid")
    t_vals = varphi_phi(phi, r_grid)

    beta_vals = beta_phi(work, phi, r_grid, half=half)
    keep = np.isfinite(beta_vals) & (beta_vals > 1e-300)
    r_kept = r_grid[keep]
    varphi_tab = RateTable(grid=r_kept, values=np.maximum.accumulate(t_vals[keep]),
                           monotonicity="nondecreasing")
    beta_tab = RateTable(grid=r_kept, values=np.minimum.accumulate(beta_vals[keep]),
                         monotonicity="nonincreasing")
    alpha_tab = alpha_from_beta(beta_tab, c0=c0, s_grid=s_grid,
                                points_per_decade=points_per_decade)

    comparison = None
    alpha_final = None
    if via_comparison is not None:
        c_lo, c_hi = _density_ratio_bounds(model, via_comparison)
        alpha_final = RateTable(grid=alpha_tab.grid * c_hi,
                                values=(c_hi / c_lo) * alpha_tab.values,
                                monotonicity="nonincreasing",
                                extrapolation="power_law")
        comparison = {"ratio_lower": c_lo, "ratio_upper": c_hi,
                      "comparison_model": via_comparison.name}
    return RateResult(phi=phi, varphi=varphi_tab, beta=beta_tab,
                      alpha=alpha_tab, c0=c0, config=cfg,
                      alpha_final=alpha_final, comparison=comparison,
                      r_truncated=n_requested - r_grid.size,
                      r_dropped=int(np.count_nonzero(~keep)))


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def _shared_s_grid(tables, n=400):
    lo = max(float(t.grid[0]) for t in tables) * (1.0 + 1e-9)
    hi = min(float(t.grid[-1]) for t in tables) * (1.0 - 1e-9)
    if not lo < hi:
        raise ValueError("alpha tables have no common range")
    return np.geomspace(lo, hi, n)


def compare_sigma(model, cfg, sigma_list, r_grid=None, psi_scales=None,
                  bound_factor=2.0, s_window=None):
    """Rate functions across sigma (and optionally across scaled drift rates):
    pairwise ratio ranges over a shared s grid plus a boundedness verdict.

    The verdict factor is a harness choice (default 2); the underlying
    comparison statement asserts only two-sided bounds.
    """
    return _sigma_runs(model, cfg, sigma_list, r_grid, psi_scales,
                       bound_factor, s_window)[0]


def _sigma_runs(model, cfg, sigma_list, r_grid=None, psi_scales=None,
                bound_factor=2.0, s_window=None):
    """compare_sigma's report together with the labelled alpha tables it
    compared, one per (scale, sigma) in that loop order."""
    sigma_list = list(sigma_list)
    psi_scales = [1.0] if not psi_scales else list(psi_scales)
    runs = []
    for k in psi_scales:
        for sig in sigma_list:
            c = replace(cfg, sigma=sig)
            res = rate_tables(model, c, r_grid=r_grid, psi_scale=k)
            runs.append((f"sigma={sig},scale={k}", res.alpha))
    grid = _shared_s_grid([tab for _, tab in runs])
    if s_window is not None:
        grid = grid[(grid >= s_window[0]) & (grid <= s_window[1])]
        if grid.size < 16:
            raise ValueError("s_window leaves too few shared grid points")
    vals = [(label, tab.value_at(grid)) for label, tab in runs]
    pairs = {}
    worst = 1.0
    for i, (la, va) in enumerate(vals):
        for lb, vb in vals[i + 1:]:
            ratio = va / vb
            rng = float(ratio.max() / ratio.min())
            pairs[f"{la} / {lb}"] = {
                "ratio_min": float(ratio.min()),
                "ratio_max": float(ratio.max()),
                "range_factor": rng}
            worst = max(worst, rng)
    doc = {"schema_version": SCHEMA_VERSION,
           "s_min": float(grid[0]), "s_max": float(grid[-1]),
           "pairs": pairs, "worst_range_factor": worst,
           "bounded": bool(worst < bound_factor),
           "bound_factor": bound_factor}
    return doc, runs


def compare_stability(mu_model, conv_model, cfg, sigma0=0.5,
                      eval_radii=(1e2, 1e3, 1e4), bound_factor=3.0):
    """Stability of the rate order under convolution with a compact measure.

    Estimates eta0 = liminf of (window infimum of eta) / eta_mu, checks the
    admissibility bound sigma > sigma0 / (eta0 (1+sigma0) - sigma0), and
    compares the two rate functions over their shared range.
    """
    R = conv_model.source.support_radius
    if not np.isfinite(R):
        raise HypothesisFailed("stability comparison requires compact nu")
    pot = mu_model.potential
    r = np.asarray(eval_radii, dtype=float)
    # window infimum of eta over [r-R, r+R] against eta_mu(r) = v0'(r) r
    ratios = lyap.eta_window_psi(conv_model, r, cfg, strict=False) / pot.v0p(r)
    eta0 = float(np.min(ratios))
    w0 = sigma0 / (1.0 + sigma0)
    if eta0 <= w0:
        raise HypothesisFailed(
            f"estimated eta0 = {eta0:.4f} does not exceed "
            f"sigma0/(1+sigma0) = {w0:.4f}")
    sigma_min = sigma0 / (eta0 * (1.0 + sigma0) - sigma0)
    s_chk = np.geomspace(max(10.0, 2.0 * R + 1.0), 1e4, 200)
    rob = lyap.robustness_bracket(s_chk, pot.v0p(s_chk), sigma0, mu_model.d)
    res_mu = rate_tables(mu_model, lyap.DriftConfig(case="cor_a", sigma=cfg.sigma))
    res_conv = rate_tables(conv_model, lyap.DriftConfig(case="cor_a", sigma=cfg.sigma))
    grid = _shared_s_grid([res_mu.alpha, res_conv.alpha])
    ratio = res_conv.alpha.value_at(grid) / res_mu.alpha.value_at(grid)
    rng = float(ratio.max() / ratio.min())
    return {"schema_version": SCHEMA_VERSION,
            "eta0_estimates": [float(v) for v in ratios],
            "eta0": float(eta0),
            "sigma0": float(sigma0),
            "sigma_admissible_above": float(sigma_min),
            "sigma_used": float(cfg.sigma),
            "sigma_admissible": bool(cfg.sigma > sigma_min),
            "robustness_inf": float(np.min(rob)),
            "ratio_min": float(ratio.min()), "ratio_max": float(ratio.max()),
            "range_factor": rng, "bounded": bool(rng < bound_factor),
            "bound_factor": bound_factor,
            "s_min": float(grid[0]), "s_max": float(grid[-1])}
