"""Named model presets, the paper's worked examples (README.md lists them).

Every model fact lives in three tables: _PRESETS (one row per preset),
FAMILIES (potential families) and SOURCES (source kinds); preset and custom
models are both built from the last two.  The comparison rule: a row with a
twin takes the rate of an integer-lattice source from the twin preset at the
lattice's own p (for example_3_1, Lemma 3.2's model: the same well with the
lattice's density twin) by the density-ratio transfer, which holds only
through that twin.
"""

import math
from typing import Callable, NamedTuple, Optional

from . import model as model_mod
from .errors import ConfigError
from .lyapunov import DriftConfig

__all__ = ["PRESETS", "FAMILIES", "SOURCES", "validate_preset", "make_model",
           "make_source", "model_from_specs", "comparison_model", "default_drift_config",
           "rate_grid_hints"]


class _Preset(NamedTuple):
    p: float              # default p
    p_range: tuple        # the open interval p lies in
    d1: bool              # defined for d = 1 only
    well: Callable        # p -> potential spec (of FAMILIES)
    source: Callable      # (p, R) -> default source spec (of SOURCES)
    case: str             # default drift case
    hints: tuple          # r-grid hints: r_min, r_max, fit_window (None: automatic)
    twin: Optional[str] = None  # the preset that, at a lattice source's p, is the comparison


_well = lambda family: lambda p: {"family": family, "p": p}
_tail = lambda kind: lambda p, R: {"kind": kind, "p": p}
_SMOOTH_WELL = lambda p: {"family": "smooth_well", "exponent": 0.5}  # q = 1/2
_UNIFORM = lambda p, R: {"kind": "uniform", "halfwidth": R}

_PRESETS = {
    "example_3_1": _Preset(1.0, (0.0, math.inf), True, _SMOOTH_WELL, _tail("integer_lattice"),
                           "a", (1e0, 1e9, None), twin="lemma_3_2"),
    "example_3_2": _Preset(0.6, (0.0, 1.0), False, _well("power"), _UNIFORM, "cor_a",
                           (1e-2, 1e5, None)),
    "example_3_3": _Preset(2.0, (0.0, math.inf), False, _well("log"), _UNIFORM, "cor_a",
                           (1e-2, 1e10, (1e-6, 1e-2))),
    "example_3_4": _Preset(2.0, (1.0, math.inf), False, _well("loglog"), _UNIFORM, "cor_a",
                           (1e0, 1e9, None)),
    "lemma_3_2": _Preset(1.0, (0.0, math.inf), True, _SMOOTH_WELL, _tail("power_density"),
                         "a", (1e0, 1e9, None)),
}
PRESETS = tuple(_PRESETS)
# what a model without a preset reads: the windowed case and its r grid
_CUSTOM = _Preset(None, None, False, None, None, "cor_a", (1e-2, 1e8, None))

# potential families: the keys a spec of the family may set besides family
# and d, those it must set, and its constructor
FAMILIES = {
    "power": (("p",), ("p",), lambda s, d: model_mod.power_potential(float(s["p"]), d=d)),
    "log": (("p",), ("p",), lambda s, d: model_mod.log_potential(float(s["p"]), d=d)),
    "loglog": (("p",), ("p",), lambda s, d: model_mod.loglog_potential(float(s["p"]), d=d)),
    "smooth_well": (("exponent",), (), lambda s, d: model_mod.smooth_well_potential(
        float(s.get("exponent", 0.5)), d=d)),
    "quadratic": ((), (), lambda s, d: model_mod.quadratic_potential(d=d)),
    "expression": (("expression",), ("expression",),
                   lambda s, d: model_mod.expression_potential(s["expression"], d=d)),
}

# source kinds: the keys a spec of the kind may set besides kind, those it
# must set, whether it is defined for d = 1 only, and its constructor
SOURCES = {
    "point_mass": (("location",), (), False,
                   lambda s, d: model_mod.point_mass(s.get("location", 0.0), d=d)),
    "uniform": (("halfwidth",), (), True,
                lambda s, d: model_mod.uniform_density(s.get("halfwidth", 1.0))),
    "atoms": (("locations", "weights"), ("locations", "weights"), False,
              lambda s, d: model_mod.discrete_atoms(s["locations"], s["weights"], d=d)),
    "integer_lattice": (("p", "n_max"), (), True, lambda s, d: model_mod.integer_lattice(
        s.get("p", 1.0), n_max=int(s.get("n_max", 200_000)))),
    "power_density": (("p",), (), True,
                      lambda s, d: model_mod.power_tail_density(s.get("p", 1.0))),
}


def _row(name):
    if name is None:
        return _CUSTOM
    if name not in _PRESETS:
        raise ConfigError(f"preset: unknown preset '{name}' (choose from {PRESETS})")
    return _PRESETS[name]


def validate_preset(name, p=None, d=1, R=None, nu=None):
    """p of the named preset (its default when None).  A p or d outside the
    row's raises ConfigError naming it, and so does a p or R the model would
    not read: R is only the halfwidth of the row's default source, and p,
    where the well takes none, only that source's p; a nu replaces the source."""
    row = _row(name)
    if R is not None and (nu or "halfwidth" not in row.source(row.p, R)):
        raise ConfigError(f"R: {name} reads R only as its default source's halfwidth")
    if p is not None and nu and "p" not in row.well(row.p):
        raise ConfigError(f"p: {name} reads p only in its default source, which nu replaces")
    p = row.p if p is None else float(p)
    lo, hi = row.p_range
    if not lo < p < hi:
        raise ConfigError(f"p: {name} requires p > {lo:g}" if hi == math.inf
                          else f"p: {name} requires {lo:g} < p < {hi:g}")
    if row.d1 and d != 1:
        raise ConfigError(f"d: {name} is defined for d = 1")
    return p


def make_source(spec, d=1):
    """Build a SourceMeasure from a spec of SOURCES (None or empty: a point mass at 0)."""
    return SOURCES[spec["kind"]][3](spec, d) if spec else model_mod.point_mass(d=d)


def model_from_specs(potential, source, d=1, name="custom"):
    """ConvolutionModel of a potential spec of FAMILIES (of dimension d) and a
    source spec of SOURCES."""
    pot = FAMILIES[potential["family"]][2](potential, d)
    return model_mod.ConvolutionModel(pot, make_source(source, d=pot.d), name=name)


def make_model(name, p=None, d=1, R=None, nu=None):
    """Build the preset's ConvolutionModel (default quadrature); a nu spec
    overrides the row's default source, whose halfwidth R is 1 by default."""
    p = validate_preset(name, p=p, d=d)
    row = _row(name)
    source = nu or row.source(p, 1.0 if R is None else float(R))
    return model_from_specs(row.well(p), source, d, name)


def comparison_model(name, p=None, nu=None):
    """The model whose rate the preset's model takes by the density-ratio
    transfer: the row's twin at the lattice's own p when the source (nu, or
    the row's default) is an integer lattice, else None."""
    row = _row(name)
    spec = nu or row.source(validate_preset(name, p=p), 1.0)
    if row.twin is None or spec["kind"] != "integer_lattice":
        return None
    return make_model(row.twin, p=float(spec.get("p", 1.0)))


def default_drift_config(name):
    """Preset drift configuration with DriftConfig's defaults otherwise: the
    windowed case cor_a for compact sources, the tilted case a for the others;
    cor_a without a preset (name None)."""
    return DriftConfig(case=_row(name).case)


def rate_grid_hints(name):
    """Defaults for the inversion grid: (r_min, r_max) plus the fit window in
    the rate-function argument (None = automatic); name None: no preset."""
    return dict(zip(("r_min", "r_max", "fit_window"), _row(name).hints))
