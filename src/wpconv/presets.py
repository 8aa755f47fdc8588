"""Named model presets: the standard potential / source-measure combinations.

Each preset builds a ConvolutionModel (make_model, from the parameters p, d,
R, well_exponent and nu and no others), a default DriftConfig (from the name
alone) and grid hints for the rate pipeline.  Presets:

  example_3_1  d=1 smooth sub-linear well (1+x^2)^(q/2) with the integer
               lattice source of weight ~ 1/(1+|i|^(1+p)); expected rate
               function order: power s^(-2/p).
  lemma_3_2    same well with the continuous density ~ 1/(1+|z|^(1+p)).
  example_3_2  |x|^p well, 0 < p < 1, compact source; expected order:
               poly-log [1+log(1+1/s)]^(2(1-p)/p).
  example_3_3  (d+p) log(1+|x|) well, compact source; expected order s^(-2/p).
  example_3_4  d log(1+|x|) + p loglog(e+|x|) well, p > 1, compact source;
               expected order exp(c s^(-1/(p-1))).

Compact presets default to the uniform source on [-R, R], R = 1; `nu` spec
dicts override (kinds: point_mass, uniform, atoms, integer_lattice,
power_density).
"""

from dataclasses import dataclass
from typing import Optional

from . import model as model_mod
from .errors import ConfigError
from .lyapunov import DriftConfig

__all__ = ["PRESETS", "PresetSpec", "make_model", "make_source", "default_drift_config",
           "rate_grid_hints"]

PRESETS = ("example_3_1", "example_3_2", "example_3_3", "example_3_4", "lemma_3_2")


@dataclass(frozen=True)
class PresetSpec:
    """Validated preset parameters."""

    name: str
    p: float
    d: int = 1
    R: float = 1.0
    well_exponent: float = 0.5
    nu: Optional[dict] = None


def validate_preset(name, p=None, d=1, R=1.0, well_exponent=0.5, nu=None):
    """PresetSpec of the named preset; p defaults per preset, and a p, d or
    well_exponent outside the preset's range raises ConfigError naming it."""
    if name not in PRESETS:
        raise ConfigError(f"preset: unknown preset '{name}' (choose from {PRESETS})")
    defaults = {"example_3_1": 1.0, "example_3_2": 0.6, "example_3_3": 2.0,
                "example_3_4": 2.0, "lemma_3_2": 1.0}
    p = defaults[name] if p is None else float(p)
    if name == "example_3_2" and not 0.0 < p < 1.0:
        raise ConfigError("p: example_3_2 requires 0 < p < 1")
    if name == "example_3_4" and not p > 1.0:
        raise ConfigError("p: example_3_4 requires p > 1")
    if name in ("example_3_1", "example_3_3", "lemma_3_2") and not p > 0.0:
        raise ConfigError(f"p: {name} requires p > 0")
    if name in ("example_3_1", "lemma_3_2") and d != 1:
        raise ConfigError(f"d: {name} is defined for d = 1")
    if not 0.0 < well_exponent < 1.0:
        raise ConfigError("well_exponent: must lie in (0, 1)")
    return PresetSpec(name=name, p=p, d=int(d), R=float(R),
                      well_exponent=float(well_exponent), nu=nu)


def make_source(spec, d=1):
    """Build a SourceMeasure from a config dict."""
    if spec is None:
        return model_mod.point_mass(d=d)
    kind = spec.get("kind")
    if kind == "point_mass":
        return model_mod.point_mass(spec.get("location", 0.0), d=d)
    if kind == "uniform":
        if d != 1:
            raise ConfigError("nu.kind: uniform density requires d = 1")
        return model_mod.uniform_density(spec.get("halfwidth", 1.0))
    if kind == "atoms":
        try:
            return model_mod.discrete_atoms(spec["locations"], spec["weights"], d=d)
        except KeyError as exc:
            raise ConfigError(f"nu.{exc.args[0]}: required for kind 'atoms'") from exc
    if kind == "integer_lattice":
        return model_mod.integer_lattice(spec.get("p", 1.0),
                                         n_max=int(spec.get("n_max", 200_000)))
    if kind == "power_density":
        return model_mod.power_tail_density(spec.get("p", 1.0))
    raise ConfigError(f"nu.kind: unknown source kind {kind!r}")


def make_model(name, p=None, d=1, R=1.0, well_exponent=0.5, nu=None):
    """Build the preset's ConvolutionModel (default quadrature)."""
    spec = validate_preset(name, p=p, d=d, R=R, well_exponent=well_exponent, nu=nu)
    if spec.name == "example_3_1":
        pot = model_mod.smooth_well_potential(spec.well_exponent, d=1)
        src = make_source(spec.nu, d=1) if spec.nu else model_mod.integer_lattice(spec.p)
    elif spec.name == "lemma_3_2":
        pot = model_mod.smooth_well_potential(spec.well_exponent, d=1)
        src = make_source(spec.nu, d=1) if spec.nu else model_mod.power_tail_density(spec.p)
    else:
        if spec.name == "example_3_2":
            pot = model_mod.power_potential(spec.p, d=spec.d)
        elif spec.name == "example_3_3":
            pot = model_mod.log_potential(spec.p, d=spec.d)
        else:
            pot = model_mod.loglog_potential(spec.p, d=spec.d)
        src = make_source(spec.nu, d=spec.d) if spec.nu \
            else model_mod.uniform_density(spec.R)
    return model_mod.ConvolutionModel(pot, src, name=spec.name)


def default_drift_config(name):
    """Preset drift configuration with DriftConfig's defaults otherwise: the
    windowed case cor_a for compact sources, the tilted case a for the others."""
    return DriftConfig(case="a" if name in ("example_3_1", "lemma_3_2") else "cor_a")


def rate_grid_hints(name, p):
    """Per-preset defaults for the inversion grid: (r_min, r_max) plus the
    fit window in the rate-function argument (None = automatic)."""
    if name == "example_3_2":
        return {"r_min": 1e-2, "r_max": 1e5, "fit_window": None}
    if name == "example_3_4":
        return {"r_min": 1e0, "r_max": 1e9, "fit_window": None}
    if name in ("example_3_1", "lemma_3_2"):
        return {"r_min": 1e0, "r_max": 1e9, "fit_window": None}
    return {"r_min": 1e-2, "r_max": 1e10, "fit_window": (1e-6, 1e-2)}
