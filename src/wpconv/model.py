"""Confining potentials, perturbing measures, and their convolution.

The base measure is mu(dx) = exp(-V(x)) dx with V = c + v0(|x|) for a radial
profile v0 and normalization constant c fixed by quadrature.  A perturbing
measure nu (atoms or a density) turns mu into the convolution measure with
density

    p(x) = integral of exp(-V(x - z)) nu(dz),

log-density potential  V_nu = -log p,  and the reweighted measure nu_x with
dnu_x/dnu proportional to exp(-V(x - z)).  This module evaluates p, V_nu,
grad V_nu, tilted expectations under nu_x, and the tails of mu and nu.

All dataclasses are frozen; every evaluator is a pure function of its
arguments and may be called concurrently.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NumericUnderflow, UnsupportedDimension

__all__ = [
    "QuadratureSpec",
    "Potential",
    "SourceMeasure",
    "ConvolutionModel",
    "power_potential",
    "log_potential",
    "loglog_potential",
    "smooth_well_potential",
    "quadratic_potential",
    "expression_potential",
    "point_mass",
    "discrete_atoms",
    "symmetric_pair",
    "integer_lattice",
    "uniform_density",
    "power_tail_density",
    "p_nu",
    "v_nu",
    "v_nu_and_grad",
    "tilted_expectation",
    "tilted_u_moment",
    "measure_tail",
    "density_normalization",
]

# exp(-41.5) ~ 1e-18: relative mass threshold used to size quadrature windows
_REACH_LOG = 41.5


def sphere_area(d):
    """Surface measure of the unit sphere in R^d."""
    # Gamma(d/2) by the exact recurrence up from Gamma(1/2) or Gamma(1)
    gamma, x = (math.sqrt(math.pi), 0.5) if d % 2 else (1.0, 1.0)
    while x < d / 2.0:
        gamma *= x
        x += 1.0
    return 2.0 * np.pi ** (d / 2.0) / gamma


@dataclass(frozen=True)
class QuadratureSpec:
    """Deterministic quadrature parameters.

    nodes  -- Gauss-Legendre nodes per panel of the composite rule, whose
              panels are graded toward the (possible) cusp of V at the origin.
    """

    nodes: int = 48


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Potential:
    """Confining radial potential V(x) = c + v0(|x|).

    v0, v0p, v0pp are the radial profile and its first two derivatives,
    vectorized over radii.  c makes exp(-V) integrate to one.
    value/gradient/laplacian are derived from the profile; the gradient at
    the exact origin is reported as zero (symmetric minimum), which callers
    must avoid when the profile has a cusp there.  c and measure_tail read
    lattice, the _RadialLattice of v0 (measure_tail builds it if missing).
    """

    d: int
    c: float
    v0: Callable
    v0p: Callable
    v0pp: Callable
    name: str = "potential"
    smooth_radius: float = 0.0  # profile is C^2 only for s > smooth_radius
    lattice: Optional["_RadialLattice"] = None

    def value(self, x):
        s = _radii(x, self.d)
        return self.c + self.v0(s)

    def gradient(self, x):
        pts = _as_points(x, self.d)
        s = np.sqrt(np.sum(pts * pts, axis=-1))
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(s > 0.0, self.v0p(np.where(s > 0.0, s, 1.0)) / np.where(s > 0.0, s, 1.0), 0.0)
        out = pts * scale[..., None]
        return out[..., 0] if self.d == 1 else out

    def laplacian(self, x):
        s = _radii(x, self.d)
        safe = np.where(s > 0.0, s, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            lap = self.v0pp(safe) + (self.d - 1) * self.v0p(safe) / safe
        return np.where(s > 0.0, lap, self.v0pp(safe))

    def grad_1d(self, u):
        """Signed derivative of V along the line (d must be 1)."""
        u = np.asarray(u, dtype=float)
        a = np.abs(u)
        safe = np.where(a > 0.0, a, 1.0)
        return np.where(a > 0.0, np.sign(u) * self.v0p(safe), 0.0)

    def patched(self, eps=0.1):
        """Replace v0 on [0, eps) by an even quartic matching value, first and
        second derivative at eps.  Removes the origin cusp of fractional-power
        profiles; used where path simulation needs a C^2 drift."""
        e = float(eps)
        v, vp, vpp = self.v0(e), self.v0p(e), self.v0pp(e)
        c4 = (vpp - vp / e) / (8.0 * e * e)
        b2 = (vp / e - 4.0 * c4 * e * e) / 2.0
        a0 = v - b2 * e * e - c4 * e ** 4
        base_v0, base_v0p, base_v0pp = self.v0, self.v0p, self.v0pp

        def v0(s):
            s = np.asarray(s, dtype=float)
            si = np.minimum(s, e)
            return np.where(s < e, a0 + b2 * si * si + c4 * si ** 4, base_v0(np.maximum(s, e)))

        def v0p(s):
            s = np.asarray(s, dtype=float)
            si = np.minimum(s, e)
            return np.where(s < e, 2.0 * b2 * si + 4.0 * c4 * si ** 3, base_v0p(np.maximum(s, e)))

        def v0pp(s):
            s = np.asarray(s, dtype=float)
            si = np.minimum(s, e)
            return np.where(s < e, 2.0 * b2 + 12.0 * c4 * si * si, base_v0pp(np.maximum(s, e)))

        return _make_radial(v0, v0p, v0pp, self.d, self.name + "_patched",
                            far=self.lattice and self.lattice.far, seam=math.log(e))


def _as_points(x, d):
    x = np.asarray(x, dtype=float)
    if d == 1:
        return x[..., None]
    if x.shape[-1] != d:
        raise ValueError(f"expected points with last axis {d}, got shape {x.shape}")
    return x


def _radii(x, d):
    pts = _as_points(x, d)
    return np.sqrt(np.sum(pts * pts, axis=-1))


# the anchored lattice: half units of y = log s from s = 1e-18 (the mass
# below is dropped) to y = 690, where e^y nears the float range
_HALF_UNITS = np.arange(-83, 1381) / 2.0


def _log_density(v0, d, y):
    """The log radial density g(y) = d y - v0(e^y); -inf or nan where v0 overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return d * y - v0(np.exp(y))


def _log_panel_mass(v0, d, a, b):
    """log int_a^b e^g dy for each pair a <= b: one 16-point Gauss-Legendre
    panel, or, where g falls by more than 8, panels cut at a + 2^-k
    (k = 11..1) below b, graded toward a."""
    with np.errstate(invalid="ignore"):  # -inf - -inf past a profile's float range
        steep = _log_density(v0, d, a) - _log_density(v0, d, b) > 8.0
    t, w = _gauss_legendre(16)
    out = np.empty(a.shape)
    for rows, cuts in ((~steep, np.empty(0)), (steep, 2.0 ** -np.arange(11.0, 0.0, -1.0))):
        lo, hi = a[rows, None], b[rows, None]
        edges = np.concatenate([lo, np.minimum(lo + cuts, hi), hi], axis=1)
        half = 0.5 * np.diff(edges, axis=1)[:, :, None]
        g = _log_density(v0, d, edges[:, :-1, None] + half * (t + 1.0))
        top = np.max(g, axis=(1, 2))
        top = np.where(np.isfinite(top), top, 0.0)
        terms = half * w * np.exp(g - top[:, None, None])
        with np.errstate(divide="ignore"):
            out[rows] = top + np.log(np.sum(terms, axis=(1, 2)))
    return out


class _RadialLattice:
    """log M(y) = log int_y^inf e^g du, the mass of exp(-v0(|x|)) dx / omega_d
    beyond |x| = e^y, on panels anchored at the half units of y from -41.5
    and at a patched profile's seam.  Log-type profiles end them at y = 40 and
    pass far(y), the closed-form log M(y) beyond; the others end at the first
    half unit past the peak of g below log(1e-320) (y = 690 at the latest),
    with no mass beyond.  suffix[i] is log M(edges[i]).
    """

    def __init__(self, v0, d, far=None, seam=None):
        if far is None:
            g = _log_density(v0, d, _HALF_UNITS)
            end = (g < math.log(1e-320)) & (np.arange(g.size) > np.nanargmax(g))
        else:  # e^(1-y) < 1e-16 past y = 40, where far is exact
            end = _HALF_UNITS >= 40.0
        edges = _HALF_UNITS[:np.argmax(np.append(end, True)) + 1]
        if seam is not None and edges[0] < seam < edges[-1]:
            edges = np.union1d(edges, [seam])
        panels = _log_panel_mass(v0, d, edges[:-1], edges[1:])
        # either side of the largest panel sums smallest first: above it from
        # the far end, below it as the total less the sum from the near end
        k = int(np.argmax(panels))
        rest = far(edges[-1]) if far is not None else -np.inf
        above = np.logaddexp.accumulate(np.append(panels[k:], rest)[::-1])[::-1]
        below = np.logaddexp.accumulate(np.append(-np.inf, panels[:k]))
        total = np.logaddexp(below[-1], above[0])
        self.suffix = np.append(total + np.log1p(-np.exp(below[:-1] - total)), above)
        self.edges, self.far = edges, far


def _make_radial(v0, v0p, v0pp, d, name, smooth_radius=0.0, far=None, seam=None):
    lattice = _RadialLattice(v0, d, far, seam)
    return Potential(d=d, c=math.log(sphere_area(d)) + float(lattice.suffix[0]), v0=v0,
                     v0p=v0p, v0pp=v0pp, name=name, smooth_radius=smooth_radius,
                     lattice=lattice)


def power_potential(p, d=1):
    """V = c + |x|^p.  Cusp at the origin when p < 2 (gradient when p < 1)."""
    if p <= 0:
        raise ValueError("power potential requires p > 0")
    v0 = lambda s: np.asarray(s, dtype=float) ** p
    v0p = lambda s: p * np.asarray(s, dtype=float) ** (p - 1.0)
    v0pp = lambda s: p * (p - 1.0) * np.asarray(s, dtype=float) ** (p - 2.0)
    return _make_radial(v0, v0p, v0pp, d, f"power(p={p})",
                        smooth_radius=0.0 if p >= 2 else 1e-12)


def log_potential(p, d=1):
    """V = c + (d+p) log(1+|x|): algebraic density tails of order |x|^-(d+p)."""
    if p <= 0:
        raise ValueError("log potential requires p > 0")
    k = d + p
    v0 = lambda s: k * np.log1p(s)
    v0p = lambda s: k / (1.0 + np.asarray(s, dtype=float))
    v0pp = lambda s: -k / (1.0 + np.asarray(s, dtype=float)) ** 2
    # e^(d y) (1 + e^y)^-k = e^(-p y) to 1e-16 for y >= 40
    far = lambda y: -p * y - math.log(p)
    return _make_radial(v0, v0p, v0pp, d, f"log(p={p})", smooth_radius=1e-12, far=far)


def loglog_potential(p, d=1):
    """V = c + d log(1+|x|) + p log log(e+|x|): barely-integrable tails, p > 1."""
    if p <= 1:
        raise ValueError("loglog potential requires p > 1")

    def v0(s):
        s = np.asarray(s, dtype=float)
        return d * np.log1p(s) + p * np.log(np.log(np.e + s))

    def v0p(s):
        s = np.asarray(s, dtype=float)
        es = np.e + s
        return d / (1.0 + s) + p / (es * np.log(es))

    def v0pp(s):
        s = np.asarray(s, dtype=float)
        es = np.e + s
        ls = np.log(es)
        return -d / (1.0 + s) ** 2 - p * (ls + 1.0) / (es * ls) ** 2

    # e^(d y) (1 + e^y)^-d log(e + e^y)^-p = y^-p to 1e-16 for y >= 40
    far = lambda y: (1.0 - p) * np.log(y) - math.log(p - 1.0)
    return _make_radial(v0, v0p, v0pp, d, f"loglog(p={p})", smooth_radius=1e-12, far=far)


def smooth_well_potential(exponent=0.5, d=1):
    """V = c + (1+|x|^2)^(q/2), 0 < q < 1: a C^inf sub-linear well."""
    q = float(exponent)
    if not 0.0 < q < 1.0:
        raise ValueError("smooth well requires exponent in (0, 1)")

    def v0(s):
        s = np.asarray(s, dtype=float)
        return (1.0 + s * s) ** (q / 2.0)

    def v0p(s):
        s = np.asarray(s, dtype=float)
        return q * s * (1.0 + s * s) ** (q / 2.0 - 1.0)

    def v0pp(s):
        s = np.asarray(s, dtype=float)
        t = 1.0 + s * s
        return q * t ** (q / 2.0 - 1.0) + q * (q - 2.0) * s * s * t ** (q / 2.0 - 2.0)

    return _make_radial(v0, v0p, v0pp, d, f"smooth_well(q={q})")


def quadratic_potential(d=1):
    """V = c + |x|^2, the Gaussian reference well (c = log pi^(d/2))."""
    v0 = lambda s: np.asarray(s, dtype=float) ** 2
    v0p = lambda s: 2.0 * np.asarray(s, dtype=float)
    v0pp = lambda s: 2.0 * np.ones_like(np.asarray(s, dtype=float))
    return _make_radial(v0, v0p, v0pp, d, "quadratic")


def expression_potential(expression, d=1):
    """Radial profile given as a sympy-parseable expression in the radius r.

    Example: expression='r**4' builds V = c + |x|^4.  Derivatives are obtained
    symbolically, so the expression must be differentiable for r > 0.
    The variable may be written 'r' or 'x'.  Needs sympy (the 'expr' extra).
    """
    try:
        import sympy
    except ImportError as exc:
        raise ConfigError(f"potential.expression={expression!r}: expression "
                          "potentials need sympy; install wpconv[expr]") from exc

    r = sympy.Symbol("r", nonnegative=True)
    expr = sympy.sympify(expression.replace("x", "r"), locals={"r": r})
    dv = sympy.diff(expr, r)
    ddv = sympy.diff(dv, r)
    v0 = sympy.lambdify(r, expr, "numpy")
    v0p = sympy.lambdify(r, dv, "numpy")
    v0pp = sympy.lambdify(r, ddv, "numpy")

    def wrap(f):
        def g(s):
            out = np.asarray(f(np.asarray(s, dtype=float)), dtype=float)
            return np.broadcast_to(out, np.shape(s)) if out.shape != np.shape(s) else out
        return g

    return _make_radial(wrap(v0), wrap(v0p), wrap(v0pp), d,
                        f"expr({expression})", smooth_radius=1e-12)


# ---------------------------------------------------------------------------
# source measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SourceMeasure:
    """The perturbing probability measure nu.

    kind             -- 'point_mass' | 'discrete_atoms' | 'density'
    locations/weights-- atoms (locations shape (n, d)); weights sum to
                        1 - truncation_error.
    density          -- vectorized z -> density, for kind='density' (d = 1)
    density_reach    -- half-width outside which the density tail is handled
                        analytically (sampling / tabulation cutoff)
    support_radius   -- sup |z| over the support (inf when unbounded)
    tail             -- vectorized t -> nu(|z| >= t), exact (analytic) where
                        the measure has unbounded support
    truncation_error -- weight mass beyond the stored atoms (tracked, not lost:
                        tail() remains exact)
    symmetric        -- nu is invariant under z -> -z, set by the constructors
                        (then so is mu * nu, and d = 1 evaluators of even
                        quantities fold the points x and -x)
    """

    kind: str
    d: int
    support_radius: float
    tail: Callable
    locations: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    density: Optional[Callable] = None
    density_reach: float = 0.0
    truncation_error: float = 0.0
    name: str = "nu"
    symmetric: bool = False

    def __post_init__(self):
        if self.kind in ("point_mass", "discrete_atoms"):
            w = np.asarray(self.weights, dtype=float)
            if np.any(w <= 0):
                raise ValueError("atom weights must be positive")
            if abs(w.sum() + self.truncation_error - 1.0) > 1e-9:
                raise ValueError("atom weights (plus tracked truncation) must sum to 1")


def point_mass(location=0.0, d=1):
    loc = np.asarray(location, dtype=float).reshape(-1)
    if loc.size == 1 and d > 1:
        loc = np.broadcast_to(loc, (d,))
    loc = loc.reshape(1, d)
    radius = float(np.sqrt((loc ** 2).sum()))
    tail = lambda t: np.where(np.asarray(t, dtype=float) <= radius, 1.0, 0.0)
    return SourceMeasure(kind="point_mass", d=d, support_radius=radius,
                         tail=tail, locations=loc, weights=np.array([1.0]),
                         name="delta", symmetric=radius == 0.0)


def discrete_atoms(locations, weights, d=1):
    loc = np.asarray(locations, dtype=float).reshape(-1, d)
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    # mirror-symmetric when the atoms and their reflections sort to the same list
    mirror = [np.lexsort((w,) + tuple(sgn * loc.T[::-1])) for sgn in (1.0, -1.0)]
    symmetric = bool(np.array_equal(loc[mirror[0]], -loc[mirror[1]])
                     and np.array_equal(w[mirror[0]], w[mirror[1]]))
    radii = np.sqrt((loc ** 2).sum(axis=1))
    order = np.argsort(radii)
    radii_sorted = radii[order]
    w_sorted = w[order]
    # survival function over atom radii
    cum = np.concatenate([[0.0], np.cumsum(w_sorted)])

    def tail(t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(radii_sorted, t, side="left")
        return 1.0 - cum[idx]

    return SourceMeasure(kind="discrete_atoms", d=d,
                         support_radius=float(radii.max()), tail=tail,
                         locations=loc, weights=w, name="atoms", symmetric=symmetric)


def symmetric_pair(a=1.0, d=1):
    """nu = (delta_{-a} + delta_{+a}) / 2 on the first axis."""
    loc = np.zeros((2, d))
    loc[0, 0], loc[1, 0] = -a, a
    return discrete_atoms(loc, [0.5, 0.5], d=d)


# Euler-Maclaurin coefficients (2k)!/B_2k of cephes' Hurwitz zeta
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
           -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
           1.1646782814350067249e14, -4.5979787224074726105e15,
           1.8152105401943546773e17, -7.1661652561756670113e18)
_MACHEP = 1.11022302462515654042e-16


def _hurwitz_zeta(x, q):
    """zeta(x, q) = sum_{i>=0} (q+i)^-x for x > 1, q >= 1, elementwise.

    Cephes' algorithm: nine direct terms (fewer once a term drops below
    MACHEP of the sum), then Euler-Maclaurin with twelve Bernoulli terms;
    q > 1e8 takes the asymptotic (1/(x-1) + 1/(2q)) q^(1-x).  Every step is
    cephes' own, so only numpy's power, which may differ from libm's pow in
    the last bit, separates the values from scipy.special.zeta.
    """
    x, q = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(q, dtype=float))
    out = np.empty(x.shape)
    far = q > 1e8
    out[far] = (1.0 / (x[far] - 1.0) + 1.0 / (2.0 * q[far])) * q[far] ** (1.0 - x[far])
    x, q = x[~far], q[~far]
    s = q ** -x
    a, b = q, s
    live = np.ones(s.shape, dtype=bool)
    for _ in range(9):
        a = a + 1.0
        b = np.where(live, a ** -x, b)
        s = np.where(live, s + b, s)
        live &= np.abs(b / s) >= _MACHEP
    w = a
    s = np.where(live, s + b * w / (x - 1.0) - 0.5 * b, s)
    a, k = 1.0, 0.0
    for A in _ZETA_A:
        a = a * (x + k)
        b = b / w
        t = a * b / A
        s = np.where(live, s + t, s)
        live &= np.abs(t / s) >= _MACHEP
        a = a * (x + (k + 1.0))
        b = b / w
        k += 2.0
    out[~far] = s
    return out


def _ptail_sum(m, q, terms=120):
    """sum_{i>=m} 1/(1+i^q) for integers m >= 1 (scalar or array), via the
    alternating Hurwitz-zeta series.

    1/(1+i^q) = sum_k (-1)^(k+1) i^(-kq) converges for i >= 2; the i=1 term
    (value 1/2) is added explicitly where m == 1.  Term k is of order
    m^(-kq) relative to the sum, so a row keeps its first ceil(37/(q log10 m))
    terms (all `terms` at m = 2) and the rest, below 1e-37, are zeros.  Rows
    are padded to a multiple of 8 columns, so each row sums in the order of
    np.sum over the full `terms`.
    """
    m = np.asarray(m, dtype=float)
    if np.any(m < 1):
        raise ValueError("m >= 1 required")
    extra = np.where(m == 1.0, 0.5, 0.0)
    mm = np.maximum(m, 2.0).ravel()
    n = np.clip(np.ceil(37.0 / (q * np.log10(mm))), 1, terms).astype(int)
    width = min(terms, 8 * -(-int(n.max(initial=1)) // 8))
    rows, cols = np.nonzero(np.arange(width) < n[:, None])
    z = _hurwitz_zeta((cols + 1.0) * q, mm[rows])
    series = np.zeros((mm.size, width))
    series[rows, cols] = np.where(cols % 2 == 0, z, -z)
    out = extra + np.sum(series, axis=1).reshape(m.shape)
    return out if out.ndim else float(out)


def integer_lattice(p, n_max=200_000):
    """Atoms at the integers with weights proportional to 1/(1+|i|^(1+p)).

    The normalizer and the tail map use the exact series (Hurwitz-zeta sums);
    stored atoms cover |i| <= n_max and the uncovered weight mass is tracked in
    truncation_error.  Evaluations of the convolution density window the atoms
    by the reach of exp(-V), which keeps the density truncation error at the
    1e-18 level regardless of the raw weight tail.
    """
    if p <= 0:
        raise ValueError("integer lattice requires p > 0")
    q = 1.0 + p
    gamma = 1.0 + 2.0 * _ptail_sum(1, q)
    i = np.arange(-n_max, n_max + 1, dtype=float)
    w = (1.0 / (1.0 + np.abs(i) ** q)) / gamma
    trunc = 2.0 * _ptail_sum(n_max + 1, q) / gamma

    def tail(t):
        # one series per distinct ceil(t)
        t = np.asarray(t, dtype=float)
        m, inv = np.unique(np.maximum(np.ceil(t), 1.0), return_inverse=True)
        out = np.where(t > 0.0, 2.0 * _ptail_sum(m, q)[inv.reshape(t.shape)] / gamma, 1.0)
        return out if out.ndim else float(out)

    return SourceMeasure(kind="discrete_atoms", d=1, support_radius=np.inf,
                         tail=tail, locations=i.reshape(-1, 1), weights=w,
                         truncation_error=trunc, name=f"lattice(p={p})", symmetric=True)


def uniform_density(halfwidth=1.0):
    """nu uniform on [-R, R] (d = 1)."""
    R = float(halfwidth)

    def density(z):
        z = np.asarray(z, dtype=float)
        return np.where(np.abs(z) <= R, 1.0 / (2.0 * R), 0.0)

    def tail(t):
        t = np.asarray(t, dtype=float)
        return np.clip((R - t) / R, 0.0, 1.0)

    return SourceMeasure(kind="density", d=1, support_radius=R, tail=tail,
                         density=density, density_reach=R, name=f"uniform(R={R})",
                         symmetric=True)


def power_tail_density(p, reach=None):
    """nu with density proportional to 1/(1+|z|^(1+p)) on the line (d = 1)."""
    if p <= 0:
        raise ValueError("power-tail density requires p > 0")
    q = 1.0 + p

    k = np.arange(1, 120, dtype=float)
    signs = np.where(k % 2 == 1, 1.0, -1.0)
    nodes, weights = _gauss_legendre(16)
    # quarter-unit panels on [1/2, 2], then dyadic ones graded toward the
    # cusp of z^q at 0
    edges = np.concatenate([np.arange(2.0, 0.5, -0.25), 2.0 ** -np.arange(1.0, 61.0), [0.0]])

    def panel_mass(a, b):
        # int_a^b dz/(1+z^q) on one 16-point Gauss-Legendre panel per pair
        half = 0.5 * (b - a)[..., None]
        z = a[..., None] + half * (nodes + 1.0)
        return np.sum(half * weights / (1.0 + z ** q), axis=-1)

    # above[j] = int_{edges[j]}^2
    above = np.concatenate([[0.0], np.cumsum(panel_mass(edges[1:], edges[:-1]))])

    def half_tail(t):
        # int_t^inf dz/(1+z^q), t >= 0: the alternating series in t^-q from 2
        # on, plus the panels of [t, 2] below it
        t = np.asarray(t, dtype=float)
        far = np.sum(signs * np.maximum(t, 2.0)[..., None] ** (1.0 - k * q) / (k * q - 1.0),
                     axis=-1)
        j = np.maximum(np.searchsorted(-edges, -t, side="right") - 1, 0)
        near = panel_mass(np.minimum(t, 2.0), edges[j]) + above[j]
        return np.where(t < 2.0, near + far, far)

    gamma = 2.0 * float(half_tail(0.0))

    def density(z):
        z = np.asarray(z, dtype=float)
        return 1.0 / (gamma * (1.0 + np.abs(z) ** q))

    def tail(t):
        out = 2.0 * half_tail(np.maximum(t, 0.0)) / gamma
        return out if out.ndim else float(out)

    if reach is None:
        # density quantile cutoff for node placement; the analytic tail covers the rest
        reach = (2.0 / (gamma * 1e-10 * p)) ** (1.0 / p)
    return SourceMeasure(kind="density", d=1, support_radius=np.inf, tail=tail,
                         density=density, density_reach=float(reach),
                         name=f"power_tail(p={p})", symmetric=True)


# ---------------------------------------------------------------------------
# convolution model and evaluators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvolutionModel:
    """mu * nu with its deterministic quadrature data.

    truncation_radius is the |x| scale past which exp(-v0) has dropped below
    1e-16 of its peak (capped at 1e7 for heavy-tailed profiles).  It sets
    default_domain, the guard of the diffusion paths and the range of the
    2-d rejection proposal.
    """

    potential: Potential
    source: SourceMeasure
    truncation_radius: float = 0.0
    quadrature: QuadratureSpec = QuadratureSpec()
    name: str = "model"

    def __post_init__(self):
        if self.source.d != self.potential.d:
            raise UnsupportedDimension("potential and source dimensions differ")
        if self.truncation_radius <= 0.0:
            object.__setattr__(self, "truncation_radius",
                               _profile_reach(self.potential, 16.0 * math.log(10.0)))

    @property
    def d(self):
        return self.potential.d

    def reach(self):
        """Radius beyond which exp(-v0) is below 1e-18 of its peak."""
        return self._reach

    @cached_property
    def _reach(self):
        return _profile_reach(self.potential, _REACH_LOG)

    def patched(self, eps=0.1):
        return replace(self, potential=self.potential.patched(eps),
                       name=self.name + "_patched")


def _profile_reach(potential, log_drop):
    v0 = potential.v0
    base = float(v0(0.0))
    lo, hi = 1.0, 2.0
    while float(v0(hi)) - base < log_drop:
        hi *= 2.0
        if hi > 1e7:
            return 1e7
    while float(v0(lo)) - base >= log_drop:
        lo *= 0.5
        if lo < 1e-12:
            break
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if float(v0(mid)) - base < log_drop:
            lo = mid
        else:
            hi = mid
    return hi


# quadrature terms per kernel call: every (rows, k) float temporary stays near 4 MB
_CHUNK_TERMS = 1 << 19


@lru_cache(maxsize=8)
def _gauss_legendre(n):
    """The n-point Gauss-Legendre rule on [-1, 1], built once per n.  Every
    caller shares the arrays, so they are read-only."""
    t, w = np.polynomial.legendre.leggauss(n)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def _panel_rule(anchor, step, graded, n):
    """Composite Gauss-Legendre rule over panels {anchor + step * T : T in [0, 1]},
    one row of panels per point.  Graded panels substitute T = t^4, which
    resolves an integrand cusp at the anchor.  Zero-width panels are dropped;
    rows with fewer panels are padded with zero weights.

    anchor, step, graded: arrays (m, panels).  Returns nodes, weights (m, k).
    """
    keep = step != 0.0
    width = max(int(keep.sum(axis=1).max(initial=0)), 1)
    order = np.argsort(~keep, axis=1, kind="stable")[:, :width]
    anchor, step, graded = (np.take_along_axis(a, order, axis=1)
                            for a in (anchor, step, graded))
    t, w = _gauss_legendre(n)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    g = graded[:, :, None]
    nodes = anchor[:, :, None] + step[:, :, None] * np.where(g, t ** 4, t)
    weights = np.abs(step)[:, :, None] * np.where(g, 4.0 * t ** 3 * w, w)
    m = anchor.shape[0]
    return nodes.reshape(m, -1), weights.reshape(m, -1)


def _line_panels(lo, hi, n):
    """Panels on [lo_i, hi_i], refined geometrically toward zero (where the
    potential profile may have a cusp).  Each side of zero is handled in
    magnitudes [p, q]: edges p, s, 2s, 4s, ... up to q, with s = 1 when the
    side starts at zero (its first panel is then graded) and max(2p, 1e-9)
    otherwise."""
    anchors, steps, graded = [], [], []
    for sign, p, q in ((1.0, np.maximum(lo, 0.0), np.maximum(hi, 0.0)),
                       (-1.0, np.maximum(-hi, 0.0), np.maximum(-lo, 0.0))):
        s = np.where(p == 0.0, 1.0, np.maximum(2.0 * p, 1e-9))
        doublings = int(np.ceil(np.log2(max(float(np.max(q / s)), 1.0)))) + 2
        edges = np.concatenate(
            [p[:, None], np.minimum(q[:, None], s[:, None] * 2.0 ** np.arange(doublings))],
            axis=1)
        a, b = edges[:, :-1], edges[:, 1:]
        anchors.append(sign * a)
        steps.append(sign * (b - a))
        graded.append(a == 0.0)
    return _panel_rule(np.concatenate(anchors, axis=1), np.concatenate(steps, axis=1),
                       np.concatenate(graded, axis=1), n)


_LADDER = np.concatenate([[0.0], 2.0 ** np.arange(0, 24, dtype=float)])


def _ladder_panels(lo, hi, n):
    """Panels over [lo_i, hi_i] cut by a fixed geometric ladder around zero
    (..., -2, -1, 0, 1, 2, ...); the panel touching zero from either side is
    graded toward zero."""
    span = max(float(np.abs(lo).max()), float(np.abs(hi).max()), 1.0)
    k = int(np.searchsorted(_LADDER, span))
    ladder = _LADDER[:min(k + 1, _LADDER.size)]
    edges = np.clip(np.concatenate([-ladder[::-1], ladder])[None, :],
                    lo[:, None], hi[:, None])
    a, b = edges[:, :-1], edges[:, 1:]
    right = b == 0.0
    return _panel_rule(np.where(right, b, a), np.where(right, a - b, b - a),
                       (a == 0.0) | right, n)


def _split_panels(model, xs):
    """Nodes u and weights for p(x) = int exp(-V(u)) q(x-u) du with q an
    unbounded density (d = 1).

    The line is split exactly at u = x/2 into a u-side family (graded at the
    potential cusp u = 0) and a y = x - u family (graded at the density kink
    y = 0), so both moving peaks are resolved and nothing is counted twice.
    """
    L = min(model.reach(), 1e7)
    n = model.quadrature.nodes
    mid = xs / 2.0
    pos = xs >= 0.0
    # u-side: [-L, mid] for x >= 0, [mid, L] for x < 0
    un, uw = _ladder_panels(np.where(pos, -L, mid), np.where(pos, mid, L), n)
    # y-side: y in [x-L, mid] for x >= 0, [mid, x+L] for x < 0
    yn, yw = _ladder_panels(np.where(pos, xs - L, mid), np.where(pos, mid, xs + L), n)
    return (np.concatenate([un, xs[:, None] - yn], axis=1),
            np.concatenate([uw, yw], axis=1))


def _atom_terms(model, xs):
    src = model.source
    z, w = src.locations, src.weights
    if np.isfinite(src.support_radius) or model.d > 1:
        logw = np.broadcast_to(np.log(w), (xs.shape[0], w.size))
        if model.d == 1:
            return xs[:, None] - z[None, :, 0], logw
        return xs[:, None, :] - z[None], logw
    # unbounded lattice: window the atoms by the reach of exp(-V)
    zc = z[:, 0]
    reach = model.reach()
    i0 = np.searchsorted(zc, xs - reach)
    i1 = np.searchsorted(zc, xs + reach, side="right")
    empty = i0 >= i1
    if np.any(empty):
        raise NumericUnderflow(
            f"x={xs[empty][0]:g} outside the stored atom range; enlarge n_max")
    idx = i0[:, None] + np.arange(int(np.max(i1 - i0)))
    valid = idx < i1[:, None]
    idx = np.minimum(idx, zc.size - 1)
    return xs[:, None] - zc[idx], np.where(valid, np.log(w[idx]), -np.inf)


def _terms(model, xs):
    """The quadrature kernel: p(x) = sum_k exp(logw - V(u)) with u = x - z
    over the source atoms or density nodes z, at every point of xs.

    xs has shape (m,) in d = 1 and (m, d) for atoms in d > 1.  Returns u of
    shape (m, k) (resp. (m, k, d)) and logw of shape (m, k); padded terms
    carry logw = -inf.  Atoms use their log-weights; density sources carry
    log(density * quadrature weight) on graded composite Gauss-Legendre
    panels.
    """
    src = model.source
    if src.kind != "density":
        return _atom_terms(model, xs)
    if model.d != 1:
        raise UnsupportedDimension("density sources are implemented for d = 1")
    if np.isfinite(src.support_radius):
        # integrate in u = x - z; the cusp of v0 sits at u = 0
        R = src.support_radius
        u, w = _line_panels(xs - R, xs + R, model.quadrature.nodes)
    else:
        u, w = _split_panels(model, xs)
    with np.errstate(divide="ignore"):
        logw = np.log(src.density(xs[:, None] - u)) + np.log(w)
    return u, logw


def _chunk_rows(model):
    """Points per kernel call, from an upper estimate of the terms per point."""
    src = model.source
    if src.kind == "density" and np.isfinite(src.support_radius):
        # one or two panels per point, about 32 next to the support edge
        k = 32 * model.quadrature.nodes
    elif src.kind == "density":
        # four ladder families, each at most log2(reach) + 2 panels long
        L = min(model.reach(), 1e7)
        k = 4 * (math.ceil(math.log2(max(L, 2.0))) + 2) * model.quadrature.nodes
    elif np.isfinite(src.support_radius) or model.d > 1:
        k = src.weights.size * model.d
    else:
        k = min(src.weights.size, 2 * math.ceil(model.reach()) + 1)
    return max(_CHUNK_TERMS // k, 1)


def _reduce(model, x, f=None):
    """log p and, when f is given, the tilted mean E_{nu_x}[f(u, x)] at every
    point of x, reduced chunk by chunk over the kernel.

    x has shape (...) in d = 1 and (..., d) otherwise.  f maps u of shape
    (rows, k[, d]) and the chunk's points to values of shape (rows, k, ...).
    log p is -inf where every term underflows.
    """
    d = model.d
    pot = model.potential
    x = np.asarray(x, dtype=float)
    if d > 1 and x.shape[-1:] != (d,):
        raise ValueError(f"expected points with last axis {d}, got shape {x.shape}")
    shape = x.shape if d == 1 else x.shape[:-1]
    pts = x.reshape((-1,) + x.shape[len(shape):])
    logp = np.empty(pts.shape[0])
    means = []
    rows = _chunk_rows(model)
    for i in range(0, pts.shape[0], rows):
        xs = pts[i:i + rows]
        u, logw = _terms(model, xs)
        r = np.abs(u) if d == 1 else np.sqrt(np.sum(u * u, axis=-1))
        logt = logw - pot.v0(r) - pot.c
        top = np.max(logt, axis=1)
        top = np.where(np.isfinite(top), top, 0.0)
        pw = np.exp(logt - top[:, None])
        den = np.sum(pw, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            logp[i:i + rows] = top + np.log(den)
            if f is not None:
                fu = np.asarray(f(u, xs), dtype=float)
                pw = pw / den[:, None]
                means.append(np.sum(pw.reshape(pw.shape + (1,) * (fu.ndim - 2)) * fu,
                                    axis=1))
    logp = logp.reshape(shape)
    if f is None:
        return logp, None
    if not means:  # no points: the value shape comes from f on no terms
        u0 = np.empty((0, 0) + pts.shape[1:])
        means.append(np.empty((0,) + np.shape(f(u0, pts))[2:]))
    mean = np.concatenate(means)
    return logp, mean.reshape(shape + mean.shape[1:])


def _fold_even(model, x, f):
    """f(x) for a function f of the points x that is even in x when nu is
    mirror-symmetric.  On such a d = 1 model, f runs once per distinct |x|
    and its values are scattered back; otherwise this is f(x)."""
    if model.d != 1 or not model.source.symmetric:
        return f(x)
    x = np.asarray(x, dtype=float)
    a, inv = np.unique(np.abs(x), return_inverse=True)
    return np.asarray(f(a))[inv.reshape(x.shape)]


def _batch_log_p(model, xs):
    """log p on an array of points (-inf where every term underflows)."""
    return _reduce(model, xs)[0]


def _first_point(x, bad):
    """The first point of x where the mask bad holds (x itself for one point)."""
    x = np.asarray(x, dtype=float)
    return x[bad][0] if np.ndim(bad) else x


def _evaluate(model, x, f=None):
    """_reduce for the public evaluators: raises NumericUnderflow when log p
    is not finite, and returns Python floats for a single point."""
    logp, mean = _reduce(model, x, f)
    bad = ~np.isfinite(logp)
    if np.any(bad):
        raise NumericUnderflow(
            f"all quadrature terms underflowed at x={_first_point(x, bad)}")
    if logp.ndim == 0:
        logp = float(logp)
        if mean is not None and mean.ndim == 0:
            mean = float(mean)
    return logp, mean


def v_nu(model, x):
    """V_nu(x) = -log p(x), computed in shifted log space."""
    return -_evaluate(model, x)[0]


def p_nu(model, x):
    """Convolution density p(x) in linear space.

    Raises NumericUnderflow when the result is not representable; callers in
    the far tail should use v_nu instead.
    """
    logp = _evaluate(model, x)[0]
    with np.errstate(over="ignore"):
        p = np.exp(logp)
    bad = ~((p > 0.0) & np.isfinite(p))
    if np.any(bad):
        raise NumericUnderflow(f"p(x) underflowed at x={_first_point(x, bad)}; use v_nu")
    return float(p) if np.ndim(p) == 0 else p


def v_nu_and_grad(model, x):
    """(V_nu(x), grad V_nu(x)); the gradient is the tilted mean of grad V."""
    pot = model.potential
    grad = pot.grad_1d if model.d == 1 else pot.gradient
    logp, g = _evaluate(model, x, lambda u, xs: grad(u))
    return -logp, g


def tilted_expectation(model, x, g):
    """E[g(z)] under nu_x(dz) = exp(-V(x-z)) nu(dz) / p(x)."""
    return _evaluate(model, x, lambda u, xs: g(xs[:, None, ...] - u))[1]


def tilted_u_moment(model, x, h):
    """E[h(x - z)] under nu_x: tilted moments of functions of the shifted
    argument (the form every drift integrand takes).  Vectorized over x."""
    return _evaluate(model, x, lambda u, xs: h(u))[1]


def measure_tail(model, which, t):
    """mu(|x| >= t) or nu(|z| >= t); vectorized over t, nonincreasing.

    The mu tail is 1 for t <= 1e-12.  Above, it reads the potential's
    _RadialLattice at y = log t: the partial panel up to the next anchored
    edge plus the suffix mass from that edge, or, past a log-type profile's
    last edge (y = 40), its closed-form remainder alone.  So each value
    depends on its radius alone; against closed forms ((1+t)^-p, erfc) it is
    within a few ulp of its log.
    """
    t_arr = np.asarray(t, dtype=float)
    if which == "nu":
        return model.source.tail(t_arr)
    if which != "mu":
        raise ValueError("which must be 'mu' or 'nu'")
    pot = model.potential
    lat = pot.lattice or _RadialLattice(pot.v0, pot.d)
    out = np.ones(t_arr.shape)
    far = t_arr > 1e-12
    y = np.log(t_arr[far])
    j = np.searchsorted(lat.edges, y)
    inside = j < lat.edges.size
    log_mass = np.full(y.shape, -np.inf)
    if lat.far is not None:
        log_mass[~inside] = lat.far(y[~inside])
    y, j = y[inside], j[inside]
    log_mass[inside] = np.logaddexp(_log_panel_mass(pot.v0, pot.d, y, lat.edges[j]), lat.suffix[j])
    out[far] = np.exp(log_mass - lat.suffix[0])
    return out if t_arr.shape else float(out)


def _log_panel_rule(logg, dy):
    """Log-space panel masses for int e^g dy with g sampled at the nodes:
    exact when g is linear on the panel.  Handles -inf nodes."""
    logg = np.maximum(np.asarray(logg, dtype=float), -800.0)
    hi = np.maximum(logg[:-1], logg[1:])
    da = np.abs(np.diff(logg))
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(da > 1e-6,
                        np.log(-np.expm1(-np.maximum(da, 1e-300)))
                        - np.log(np.maximum(da, 1e-300)),
                        -0.5 * da)
    return hi + corr + np.log(dy)


# ---------------------------------------------------------------------------
# evaluation grids (d = 1) and normalization
# ---------------------------------------------------------------------------

def default_domain(model):
    """|x| cutoff for evaluation grids: the potential reach widened by the
    source support, capped by stored-atom coverage for lattice sources."""
    src = model.source
    T = model.truncation_radius
    if np.isfinite(src.support_radius):
        T = T + src.support_radius
    elif src.kind == "density":
        T = T + min(src.density_reach, model.truncation_radius)
    elif src.kind == "discrete_atoms":
        # infinite lattice: convolution tails follow the source; stretch the
        # domain as far as the stored atoms allow
        T = max(T, float(src.locations[-1, 0]) - model.reach() - 1.0)
    return min(T, 1e7)


def density_normalization(model, return_parts=False):
    """Total mass of the convolution density: composite Gauss-Legendre
    quadrature over [-T, T] plus the analytic complement for the mass beyond T.

    The panels are the quadrature kernel's (_panel_rule with the model's node
    count).  Their edges are a binary ladder +-2^k out to T and the breaks
    where p may lose smoothness: 0, +-R for a compact density and the atoms of
    a finite atom source.  Every panel touches at most one break and is
    graded toward it.  T is default_domain(model), except that an unbounded
    density is integrated out to that domain's 1e7 cap, which its slowly
    decaying tail needs.

    The complement sandwiches P(|X+Z| > T) between tail values of the exact
    marginals (offset by the support radius resp. the potential reach) and
    returns the midpoint.  The sandwich width is below 1e-7 for every built-in
    model but the power-tail density with p < 0.5, whose mass beyond 1e7 is
    that heavy (width 7.9e-7 at p = 0.3, 2.7e-6 at p = 0.2).  d = 1 only.
    """
    if model.d != 1:
        raise UnsupportedDimension("direct normalization check implemented for d = 1")
    src = model.source
    T = 1e7 if src.kind == "density" and not np.isfinite(src.support_radius) \
        else default_domain(model)
    breaks = np.zeros(1)
    if np.isfinite(src.support_radius):
        R = src.support_radius
        breaks = np.append(breaks, [-R, R] if src.kind == "density" else src.locations[:, 0])
    breaks = np.unique(breaks[np.abs(breaks) < T])
    ladder = _LADDER[1:][_LADDER[1:] < T]
    # a midpoint between neighbouring breaks keeps each panel at one break
    edges = np.unique(np.concatenate([-ladder, ladder, breaks,
                                      0.5 * (breaks[:-1] + breaks[1:]), [-T, T]]))
    at = np.isin(edges, breaks)
    a, b = edges[:-1], edges[1:]
    right = at[1:] & ~at[:-1]
    xs, w = _panel_rule(np.where(right, b, a)[None], np.where(right, a - b, b - a)[None],
                        (at[:-1] | at[1:])[None], model.quadrature.nodes)
    grid_mass = float(np.sum(np.exp(_batch_log_p(model, xs[0])) * w[0]))
    if np.isfinite(src.support_radius):
        lo = measure_tail(model, "mu", T + R)
        hi = measure_tail(model, "mu", max(T - R, 0.0))
    else:
        # {|X+Z| > T} subset {|X| > L} union {|Z| > T-L}, and contains
        # {|Z| > T+L, |X| <= L}
        L = model.reach()
        mu_l = measure_tail(model, "mu", L)
        lo = max(float(src.tail(T + L)) - mu_l, 0.0)
        hi = float(src.tail(max(T - L, 0.0))) + mu_l
    complement = 0.5 * (lo + hi)
    if return_parts:
        return grid_mass, complement, hi - lo
    return grid_mass + complement
