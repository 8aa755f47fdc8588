"""From a radial drift rate phi to the rate function alpha of the functional
inequality  Var(f) <= alpha(r) * E(|grad f|^2) + r * Osc^2(f).

The chain:

    varphi(r) = sup{ s > 0 : inf_{|x| <= s} phi >= 1/r }
    beta(r)   = mu(|x| >= varphi(r)/2) + nu(|z| >= varphi(r)/2)
    alpha(s)  = c0 * inf{ r : beta(r) <= s }

(the 1/2 inside beta follows the drift argument).  For compactly supported nu
the beta tail restricts to {|x| >= R + R0} and the nu term vanishes for large r.

All generalized inverses use the left-continuous convention
F^{-1}(s) = inf{r : F(r) <= s}, evaluated tablewise.  No table extrapolates:
a read past the top of its grid returns the top value (for the nonincreasing
alpha, a valid upper bound on the rate there) and a read below its bottom
raises SaturatedAtGridEnd.  The comparisons take the tables they compare.
"""

import csv
import math
import os
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import model as model_mod
from . import lyapunov as lyap
from .errors import HypothesisFailed, InconclusiveFit, SaturatedAtGridEnd

__all__ = [
    "RateTable",
    "write_csv",
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
S_MAX_CAP = 3e8  # largest profile grid end rate_tables grows to
FIT_FAMILIES = ("power", "poly_log", "stretched_exp")  # fit_asymptotics' families
CSV_BLOCK_ROWS = 4096  # rows formatted and written per block by write_csv


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateTable:
    """Monotone tabulated function with a generalized inverse.

    Values must respect the declared monotonicity up to 1e-12 (violations
    beyond that are rejected at construction).  Positive tables interpolate
    log-log.  value_at never extrapolates: past the top of the grid it reads
    the top value, and below the bottom it raises SaturatedAtGridEnd.
    """

    grid: np.ndarray
    values: np.ndarray
    monotonicity: str = "nonincreasing"

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or g.size < 2:
            raise ValueError("grid/values must be 1-d arrays of equal length >= 2")
        if np.any(np.diff(g) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if self.monotonicity not in ("nonincreasing", "nondecreasing"):
            raise ValueError("monotonicity must be nonincreasing or nondecreasing")
        d = np.diff(v)
        scale = np.maximum(np.abs(v[:-1]), np.abs(v[1:]))
        bad = d > 1e-12 * np.maximum(scale, 1.0) if self.monotonicity == "nonincreasing" \
            else d < -1e-12 * np.maximum(scale, 1.0)
        if np.any(bad):
            raise ValueError(f"values violate declared {self.monotonicity} monotonicity")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    def value_at(self, s):
        """The table at s, interpolated; the top value past the grid end."""
        s = np.asarray(s, dtype=float)
        below = s < self.grid[0]
        if np.any(below):
            raise SaturatedAtGridEnd(
                f"rate table read at s={s[below].flat[0]:g} below its grid "
                f"start {self.grid[0]:g}; extend the grid")
        s_in = np.minimum(s, self.grid[-1])
        if np.all(self.values > 0.0):  # log-log
            out = np.exp(np.interp(np.log(s_in), np.log(self.grid), np.log(self.values)))
        else:
            out = np.interp(s_in, self.grid, self.values)
        return out if s.shape else float(out)

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


def _repr_runs(block):
    """repr of every float of block, computed once per run of equal bit
    patterns (so -0.0 and 0.0 stay distinct)."""
    bits = block.view(np.int64)
    new = np.concatenate([[True], bits[1:] != bits[:-1]])
    reps = np.array([repr(v) for v in block[new].tolist()], dtype=object)
    return reps[np.cumsum(new) - 1].tolist()


def write_csv(path, header, columns):
    """Write equal-length float columns under one header row, with \\r\\n line
    ends and each float as Python's shortest round-trip repr, to path.tmp
    renamed into place."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    lengths = [c.size for c in cols]
    if len(set(lengths)) > 1:
        raise ValueError(f"{path}: columns of unequal length {lengths}")
    tmp, step = str(path) + ".tmp", 2 * len(cols)
    with open(tmp, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, max(lengths, default=0), CSV_BLOCK_ROWS):
            # cell, separator, ..., cell, line end: one string per block
            parts = [","] * (step * min(CSV_BLOCK_ROWS, lengths[0] - lo))
            for i, c in enumerate(cols):
                parts[2 * i::step] = _repr_runs(c[lo:lo + CSV_BLOCK_ROWS])
            parts[step - 1::step] = ["\r\n"] * (len(parts) // step)
            fh.write("".join(parts))
    os.replace(tmp, path)


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


def beta_phi(model, phi, r):
    """Spatial-tail bound at the sublevel radius: mu-tail + nu-tail of
    varphi(r)/2 in general; for compactly supported nu the mu-tail restricted
    to {|x| >= R + R0} alone (the nu term is identically zero there)."""
    t = 0.5 * varphi_phi(phi, np.atleast_1d(np.asarray(r, dtype=float)))
    R = model.source.support_radius
    if np.isfinite(R):
        out = model_mod.measure_tail(model, "mu", np.maximum(t, R + phi.r0))
    else:
        nu_tail = np.asarray(model.source.tail(t), dtype=float)
        out = model_mod.measure_tail(model, "mu", t) + nu_tail
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
    return RateTable(grid=s_grid, values=vals, monotonicity="nonincreasing")


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


def fit_asymptotics(alpha, families=FIT_FAMILIES, fit_window=None):
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
        raise InconclusiveFit(f"fit window [{lo:g}, {hi:g}] holds {int(msk.sum())} "
                              f"nodes of the alpha grid, fewer than 10")
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
    ran on, alpha with the constant c0; when a comparison model was used
    (discrete source replaced by its equivalent density) alpha_final carries
    the transferred table, (c_hi/c_lo) alpha(s/c_hi), and `comparison` the
    measured density-ratio constants c_lo, c_hi.  r_truncated counts the
    requested r cut at the S_MAX_CAP grid end, r_dropped those whose beta
    underflowed.
    """

    phi: lyap.RadialProfile
    varphi: RateTable
    beta: RateTable
    alpha: RateTable
    c0: float
    config: lyap.DriftConfig
    comparison: Optional[dict] = None
    r_truncated: int = 0
    r_dropped: int = 0
    alpha_final: RateTable = field(init=False)

    def __post_init__(self):
        final = self.alpha
        if self.comparison is not None:
            c_lo, c_hi = self.comparison["ratio_lower"], self.comparison["ratio_upper"]
            final = RateTable(grid=self.alpha.grid * c_hi,
                              values=(c_hi / c_lo) * self.alpha.values)
        object.__setattr__(self, "alpha_final", final)

    def scaled(self, c0):
        """This result with alpha, and so alpha_final, multiplied by c0 (a
        result of rate_tables has c0 = 1)."""
        return replace(self, c0=c0, alpha=RateTable(grid=self.alpha.grid,
                                                    values=c0 * self.alpha.values))


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


def rate_tables(model, cfg, r_grid=None, s_grid=None, points_per_decade=200,
                via_comparison=None, profile=None):
    """Run the full chain phi -> varphi -> beta -> alpha, with c0 = 1
    (RateResult.scaled applies a certificate's constant).

    The profile grid end extends by doubling until varphi is defined at every
    requested r; r values whose beta underflows are dropped.  alpha is
    tabulated on s_grid, or on points_per_decade nodes per decade inside the
    range of beta.  via_comparison computes everything on the comparison
    model and transfers alpha through measured density-ratio bounds
    (alpha(s) = (c_hi/c_lo) alpha_tilde(s/c_hi), reported as alpha_final).
    profile, a phi_profile of the same model (the comparison model, with
    via_comparison), case and delta, such as a drift certificate's, lends its
    drift rates on the radii it holds (phi_profile's prefix).
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
    phi = profile
    for _ in range(40):
        phi = lyap.phi_profile(work, cfg, s_max=s_max,
                               points_per_decade=points_per_decade, prefix=phi)
        # varphi_phi's test: the sublevel set of 1/r reaches past the grid end
        saturated = phi.values.min() >= 1.0 / r_grid
        if not np.any(saturated):
            break
        if s_max >= S_MAX_CAP:
            # serve the r prefix below the first saturated 1/r; with too short
            # a prefix varphi_phi raises SaturatedAtGridEnd below
            served = int(np.argmax(saturated))
            if served >= 32:
                r_grid = r_grid[:served]
            break
        s_max = min(s_max * 4.0, S_MAX_CAP)
    else:
        raise SaturatedAtGridEnd("profile grid never covered the r grid")
    t_vals = varphi_phi(phi, r_grid)

    beta_vals = beta_phi(work, phi, r_grid)
    keep = np.isfinite(beta_vals) & (beta_vals > 1e-300)
    r_kept = r_grid[keep]
    varphi_tab = RateTable(grid=r_kept, values=np.maximum.accumulate(t_vals[keep]),
                           monotonicity="nondecreasing")
    beta_tab = RateTable(grid=r_kept, values=np.minimum.accumulate(beta_vals[keep]),
                         monotonicity="nonincreasing")
    alpha_tab = alpha_from_beta(beta_tab, s_grid=s_grid,
                                points_per_decade=points_per_decade)

    comparison = None
    if via_comparison is not None:
        c_lo, c_hi = _density_ratio_bounds(model, via_comparison)
        comparison = {"ratio_lower": c_lo, "ratio_upper": c_hi,
                      "comparison_model": via_comparison.name}
    return RateResult(phi=phi, varphi=varphi_tab, beta=beta_tab,
                      alpha=alpha_tab, c0=1.0, config=cfg, comparison=comparison,
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


def compare_sigma(runs, s_window=None):
    """Pairwise ratio ranges of labelled alpha tables, runs = [(label,
    table), ...] such as one construction across sigma, over their shared s
    grid (inside s_window when given), plus a boundedness verdict.

    The verdict factor 2 is a harness choice; the underlying comparison
    statement asserts only two-sided bounds.
    """
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
    return {"schema_version": SCHEMA_VERSION,
            "s_min": float(grid[0]), "s_max": float(grid[-1]),
            "pairs": pairs, "worst_range_factor": worst,
            "bounded": bool(worst < 2.0), "bound_factor": 2.0}


def compare_stability(mu_model, conv_model, cfg, alpha_mu, alpha_conv, sigma0=0.5,
                      eval_radii=(1e2, 1e3, 1e4)):
    """Stability of the rate order under convolution with a compact measure.

    Estimates eta0 = liminf of (window infimum of eta) / eta_mu, checks the
    admissibility bound sigma > sigma0 / (eta0 (1+sigma0) - sigma0) at
    sigma = cfg.sigma, and compares the rate functions alpha_mu of mu_model
    and alpha_conv of conv_model, built by the caller, over their shared
    range (bounded when their ratio ranges over less than a factor 3).
    """
    R = conv_model.source.support_radius
    if not np.isfinite(R):
        raise HypothesisFailed("stability comparison requires compact nu")
    pot = mu_model.potential
    r = np.asarray(eval_radii, dtype=float)
    # window infimum of eta over [r-R, r+R] against eta_mu(r) = v0'(r) r
    ratios = lyap.eta_window_psi(conv_model, r) / pot.v0p(r)
    eta0 = float(np.min(ratios))
    w0 = sigma0 / (1.0 + sigma0)
    if eta0 <= w0:
        raise HypothesisFailed(
            f"estimated eta0 = {eta0:.4f} does not exceed "
            f"sigma0/(1+sigma0) = {w0:.4f}")
    sigma_min = sigma0 / (eta0 * (1.0 + sigma0) - sigma0)
    s_chk = np.geomspace(max(10.0, 2.0 * R + 1.0), 1e4, 200)
    rob = lyap.robustness_bracket(s_chk, pot.v0p(s_chk), sigma0, mu_model.d)
    grid = _shared_s_grid([alpha_mu, alpha_conv])
    ratio = alpha_conv.value_at(grid) / alpha_mu.value_at(grid)
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
            "range_factor": rng, "bounded": bool(rng < 3.0), "bound_factor": 3.0,
            "s_min": float(grid[0]), "s_max": float(grid[-1])}
