"""Batch orchestration: load a run configuration (YAML), execute the requested
stages in dependency order, and write per-stage CSV/JSON artifacts.

Subcommands:

    wpconv run <config> [--set key=value ...] [-o DIR]
    wpconv sweep <config> --param sigma --values 1,2,5
    wpconv presets
    wpconv validate <config>

Exit codes: 0 success, 1 error, 2 a hypothesis/condition/certificate check
failed (artifacts are still written with failure markers).

Output layout (one directory per run): manifest.json, conditions.json,
certificate.json, alpha.csv (s, alpha), beta.csv (r, varphi_phi, beta),
fit.json, wpi_report.json, decay.csv (t, variance, ci_halfwidth), sweep.csv,
sweep.json, stability.json.  JSON documents carry schema_version; the manifest
holds the only timestamp, and the number of CPUs the run could use.
"""

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, asdict, replace
from typing import Optional

import numpy as np
import yaml

from . import __version__
from . import model as model_mod
from . import lyapunov as lyap
from . import rates as rates_mod
from . import verify as verify_mod
from . import presets as presets_mod
from .errors import (CalibrationFailed, ConfigError, DriftConditionFailed,
                     HypothesisFailed, InconclusiveFit, SaturatedAtGridEnd)

SCHEMA_VERSION = 1

STAGES = ("conditions", "drift", "rate", "fit", "verify", "decay", "sweep",
          "stability")

_GRID_KEYS = {"r_min", "r_max", "points_per_decade", "s_min", "s_max",
              "wpi_r_min", "wpi_r_max", "n_wpi_r", "certificate_points"}
_SEED_KEYS = {"sampler", "corpus", "decay"}
_SAMPLE_KEYS = {"n_wpi", "n_paths", "n_inner", "dt", "t_max", "n_times"}
_TOL_KEYS = {"drift_tol_abs", "drift_tol_rel"}
_FIT_KEYS = {"families", "window"}
_SWEEP_KEYS = {"param", "values"}


@dataclass
class RunConfig:
    """Validated batch-run configuration with defaults filled."""

    preset: Optional[str] = None
    custom: Optional[dict] = None
    p: Optional[float] = None
    d: int = 1
    R: float = 1.0
    well_exponent: float = 0.5
    R0: Optional[float] = None
    sigma: float = 1.0
    delta: float = 0.75
    case: Optional[str] = None
    nu: Optional[dict] = None
    stages: tuple = ()
    grids: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    fit: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    output_dir: str = "wpconv_out"

    def to_dict(self):
        doc = asdict(self)
        doc["stages"] = list(self.stages)
        return doc


_TOP_KEYS = {f.name for f in fields(RunConfig)}
# custom.potential families: the parameter each requires, and its constructor
_FAMILIES = {
    "power": ("p", lambda s, d: model_mod.power_potential(float(s["p"]), d=d)),
    "log": ("p", lambda s, d: model_mod.log_potential(float(s["p"]), d=d)),
    "loglog": ("p", lambda s, d: model_mod.loglog_potential(float(s["p"]), d=d)),
    "smooth_well": (None, lambda s, d: model_mod.smooth_well_potential(
        float(s.get("exponent", 0.5)), d=d)),
    "quadratic": (None, lambda s, d: model_mod.quadratic_potential(d=d)),
    "expression": ("expression",
                   lambda s, d: model_mod.expression_potential(s["expression"], d=d)),
}

_DEFAULT_SEEDS = {"sampler": 20_260_809, "corpus": 7, "decay": 5}
_DEFAULT_SAMPLES = {"n_wpi": 1_000_000, "n_paths": 128, "n_inner": 128,
                    "dt": 2e-3, "t_max": 40.0, "n_times": 8}
_DEFAULT_TOLS = {"drift_tol_abs": 1e-8, "drift_tol_rel": 1e-6}
_DECAY_T_FIRST = 0.25   # earliest first time of a decay grid of n_times > 1


def _check_keys(doc, allowed, path):
    for k in doc:
        if k not in allowed:
            raise ConfigError(f"{path}{k}: unknown key")


def _read_config(source):
    """The configuration mapping in a YAML file, or in inline YAML text."""
    text = source
    if os.path.exists(str(source)):
        with open(source) as fh:
            text = fh.read()
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config does not parse as YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    return doc


def load_config(source):
    """Parse and validate a configuration from a path or inline YAML text."""
    doc = source if isinstance(source, dict) else _read_config(source)
    _check_keys(doc, _TOP_KEYS, "")
    preset = doc.get("preset")
    custom = doc.get("custom")
    if (preset is None) == (custom is None):
        raise ConfigError("preset/custom: exactly one must be given")
    for sub, keys in (("grids", _GRID_KEYS), ("seeds", _SEED_KEYS),
                      ("samples", _SAMPLE_KEYS), ("tolerances", _TOL_KEYS),
                      ("fit", _FIT_KEYS), ("sweep", _SWEEP_KEYS)):
        val = doc.get(sub) or {}
        if not isinstance(val, dict):
            raise ConfigError(f"{sub}: must be a mapping")
        _check_keys(val, keys, sub + ".")
    stages = doc.get("stages", [])
    if isinstance(stages, str):
        stages = [stages]
    for st in stages:
        if st not in STAGES:
            raise ConfigError(f"stages: unknown stage {st!r} (choose from {STAGES})")
    if custom is not None:
        _check_keys(custom, {"potential", "source"}, "custom.")
        pot = custom.get("potential") or {}
        _check_keys(pot, {"family", "p", "d", "exponent", "expression"},
                    "custom.potential.")
        _check_d(pot.get("d", 1), "custom.potential.d")
        fam = pot.get("family")
        if not isinstance(fam, str) or fam not in _FAMILIES:
            raise ConfigError("custom.potential.family: unknown family")
        required = _FAMILIES[fam][0]
        if required is not None and pot.get(required) is None:
            raise ConfigError(f"custom.potential.{required}: required for family {fam!r}")
        _check_source(custom.get("source") or {}, "custom.source")
    _check_d(doc.get("d", 1), "d")
    for key in ("R", "R0"):
        if doc.get(key) is not None:
            _positive(doc[key], key)
    if doc.get("nu") is not None:
        _check_source(doc["nu"], "nu")
    cfg = RunConfig(
        preset=preset, custom=custom,
        p=doc.get("p"), d=int(doc.get("d", 1)), R=float(doc.get("R", 1.0)),
        well_exponent=float(doc.get("well_exponent", 0.5)),
        R0=(None if doc.get("R0") is None else float(doc["R0"])),
        sigma=float(doc.get("sigma", 1.0)), delta=float(doc.get("delta", 0.75)),
        case=doc.get("case"), nu=doc.get("nu"),
        stages=tuple(stages),
        grids=dict(doc.get("grids") or {}),
        seeds={**_DEFAULT_SEEDS, **(doc.get("seeds") or {})},
        samples={**_DEFAULT_SAMPLES, **(doc.get("samples") or {})},
        tolerances={**_DEFAULT_TOLS, **(doc.get("tolerances") or {})},
        fit=dict(doc.get("fit") or {}),
        sweep=dict(doc.get("sweep") or {}),
        output_dir=str(doc.get("output_dir", "wpconv_out")),
    )
    if cfg.sigma <= 0.0:
        raise ConfigError("sigma: must be positive")
    if not 0.0 < cfg.delta < 1.0:
        raise ConfigError("delta: must lie in (0, 1)")
    if cfg.case is not None and cfg.case not in ("a", "b", "cor_a", "cor_b"):
        raise ConfigError("case: must be one of a, b, cor_a, cor_b")
    if preset is not None:
        presets_mod.validate_preset(preset, p=cfg.p, d=cfg.d, R=cfg.R,
                                    well_exponent=cfg.well_exponent, nu=cfg.nu)
    _check_grids(cfg)
    _check_samples(cfg)
    param = cfg.sweep.get("param", "sigma")
    if param not in ("sigma", "delta", "p"):
        raise ConfigError(f"sweep.param: must be sigma, delta or p, got {param!r}")
    values = cfg.sweep.get("values", [1.0])
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(f"sweep.values: must be a nonempty list, got {values!r}")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"sweep.values: must hold numbers, got {v!r}")
        try:  # a value the swept parameter takes
            if param != "p":
                lyap.DriftConfig(**{param: v})
            elif preset is not None:
                presets_mod.validate_preset(preset, p=v, d=cfg.d, R=cfg.R,
                                            well_exponent=cfg.well_exponent, nu=cfg.nu)
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"sweep.values: {exc}") from None
    return cfg


def _check_source(spec, path):
    """A source spec is a mapping of known keys with a positive halfwidth."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: must be a mapping, got {spec!r}")
    _check_keys(spec, {"kind", "halfwidth", "location", "locations", "weights", "p",
                       "n_max"}, path + ".")
    if "halfwidth" in spec:
        _positive(spec["halfwidth"], path + ".halfwidth")


def _check_d(raw, path):
    """The dimension is 1, 2 or 3."""
    if isinstance(raw, bool) or raw not in (1, 2, 3):
        raise ConfigError(f"{path}: must be 1, 2 or 3, got {raw!r}")


def _positive(raw, path):
    """float(raw), which must be a positive finite number."""
    try:
        val = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: must be a number, got {raw!r}") from None
    if not 0.0 < val < math.inf:
        raise ConfigError(f"{path}: must be positive and finite, got {raw!r}")
    return val


def _check_grids(cfg):
    """Every grid key is a positive finite number, the counts are at least 1,
    and each given range is increasing (r_min/r_max read the rate grid's
    defaults where one is not given)."""
    g = dict(cfg.grids)
    for key, raw in g.items():
        g[key] = _positive(raw, f"grids.{key}")
        if key in ("points_per_decade", "n_wpi_r", "certificate_points") and g[key] < 1.0:
            raise ConfigError(f"grids.{key}: must be at least 1, got {raw!r}")
    g = {**_r_hints(cfg), **g}
    for lo, hi in (("r_min", "r_max"), ("s_min", "s_max"), ("wpi_r_min", "wpi_r_max")):
        if lo in g and hi in g and not g[lo] < g[hi]:
            raise ConfigError(f"grids.{lo}: must lie below grids.{hi} = {g[hi]:g}, "
                              f"got {g[lo]:g}")


def _check_samples(cfg):
    """dt and t_max are positive and finite; n_wpi, n_paths and n_inner are
    integers of at least 2, and n_times is an integer of at least 1.  A decay
    grid of more than one time needs t_max above its first time."""
    for key, raw in cfg.samples.items():
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ConfigError(f"samples.{key}: must be a number, got {raw!r}")
        if key in ("dt", "t_max"):
            if not 0.0 < raw < math.inf:
                raise ConfigError(f"samples.{key}: must be positive and finite, got {raw!r}")
            continue
        least = 1 if key == "n_times" else 2
        if not float(raw).is_integer() or raw < least:
            raise ConfigError(f"samples.{key}: must be an integer of at least {least}, "
                              f"got {raw!r}")
    if cfg.samples["n_times"] > 1 and cfg.samples["t_max"] <= _DECAY_T_FIRST:
        raise ConfigError(f"samples.t_max: must exceed {_DECAY_T_FIRST:g} when n_times > 1, "
                          f"got {cfg.samples['t_max']!r}")


def apply_overrides(doc, pairs):
    """Apply --set key=value pairs (dotted paths, YAML-parsed values)."""
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set {pair!r}: expected key=value")
        key, _, raw = pair.partition("=")
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            raise ConfigError(f"--set {key}: value does not parse as YAML: {exc}") from exc
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: {part} is not a mapping")
        node[parts[-1]] = value
    return doc


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

def _build_custom_potential(spec, d):
    return _FAMILIES[spec["family"]][1](spec, int(spec.get("d", d)))


def build_model(cfg):
    """ConvolutionModel (and the comparison model, when the preset's source
    is an unbounded lattice) from a validated config."""
    if cfg.preset is not None:
        model = presets_mod.make_model(cfg.preset, p=cfg.p, d=cfg.d, R=cfg.R,
                                       well_exponent=cfg.well_exponent, nu=cfg.nu)
        comparison = None
        if cfg.preset == "example_3_1" and model.source.support_radius == np.inf \
                and model.source.kind == "discrete_atoms":
            spec = presets_mod.validate_preset(cfg.preset, p=cfg.p, d=cfg.d,
                                               well_exponent=cfg.well_exponent)
            comparison = presets_mod.make_model("lemma_3_2", p=spec.p,
                                                well_exponent=cfg.well_exponent)
        return model, comparison
    pot = _build_custom_potential(cfg.custom.get("potential") or {}, cfg.d)
    src = presets_mod.make_source(cfg.custom.get("source"), d=pot.d)
    return model_mod.ConvolutionModel(pot, src, name="custom"), None


def _drift_config(cfg):
    case = cfg.case or (presets_mod.default_drift_config(cfg.preset).case
                        if cfg.preset else "cor_a")
    return lyap.DriftConfig(case=case, R0=cfg.R0, sigma=cfg.sigma,
                            delta=cfg.delta)


def _r_hints(cfg):
    return presets_mod.rate_grid_hints(cfg.preset, cfg.p) if cfg.preset \
        else {"r_min": 1e-2, "r_max": 1e8, "fit_window": None}


def _r_grid(cfg):
    hints = _r_hints(cfg)
    g = cfg.grids
    r_min = float(g.get("r_min", hints["r_min"]))
    r_max = float(g.get("r_max", hints["r_max"]))
    ppd = int(g.get("points_per_decade", 200))
    return _log_grid(r_min, r_max, ppd), hints.get("fit_window"), ppd


def _log_grid(lo, hi, ppd):
    """Geometric grid on [lo, hi] with ppd points per decade, at least 16."""
    return np.geomspace(lo, hi, max(int(ppd * math.log10(hi / lo)) + 1, 16))


def _fit(cfg, hint_window, table):
    """fit_asymptotics of an alpha table with the configured families and
    window (the preset's hint window by default)."""
    window = cfg.fit.get("window", hint_window)
    families = tuple(cfg.fit.get("families", ("power", "poly_log", "stretched_exp")))
    return rates_mod.fit_asymptotics(table, families=families,
                                     fit_window=tuple(window) if window else None)


# ---------------------------------------------------------------------------
# artifact writing
# ---------------------------------------------------------------------------

def _write_json(path, doc):
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def _stage_closure(requested):
    stages = set(requested)
    if "fit" in stages:
        stages.add("rate")
    if "verify" in stages:
        stages.update(("rate", "drift"))
    order = [s for s in STAGES if s in stages]
    return order


def run(config):
    """Execute the configured stages; returns (exit_status, artifact_dict)."""
    cfg = config if isinstance(config, RunConfig) else load_config(config)
    outdir = cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    status = 0
    stage_status = {}
    artifacts = {}

    def mark(stage, ok, note=""):
        nonlocal status
        stage_status[stage] = {"ok": bool(ok), "note": note}
        if not ok:
            status = max(status, 2)

    def fail(stage, name, flag, exc):
        # the stage's document records the failure in place of its result
        _write_json(os.path.join(outdir, name),
                    {"schema_version": SCHEMA_VERSION, flag: False, "error": str(exc)})
        mark(stage, False, str(exc))

    model, comparison = build_model(cfg)
    work = comparison if comparison is not None else model
    dcfg = _drift_config(cfg)
    order = _stage_closure(cfg.stages)
    # the stages that share dcfg resolve R0 once, at the first of them; if
    # that fails, each stage resolves again and reports the failure itself
    needs_r0 = {"conditions", "drift", "rate"}
    if cfg.sweep.get("param", "sigma") == "sigma":
        needs_r0.add("sweep")
    r_grid_full, hint_window, ppd = _r_grid(cfg)
    rate_result = None
    certificate = None
    c0_used = 1.0
    fit_result = None

    try:
        for stage in order:
            if stage in needs_r0:
                needs_r0 = set()
                try:
                    dcfg = lyap.resolve_r0(work, dcfg)
                except DriftConditionFailed:
                    pass

            if stage == "conditions":
                rep = lyap.check_conditions(work, dcfg)
                doc = rep.to_dict()
                doc["schema_version"] = SCHEMA_VERSION
                doc["model"] = work.name
                _write_json(os.path.join(outdir, "conditions.json"), doc)
                artifacts["conditions"] = doc
                mark(stage, rep.all_ok,
                     "" if rep.all_ok else "a drift hypothesis failed on the grid")

            elif stage == "drift":
                rcfg = lyap.resolve_r0(work, dcfg)
                npts = int(cfg.grids.get("certificate_points", 200))
                grid = np.geomspace(rcfg.R0, 10.0 * rcfg.R0, npts)
                certificate = lyap.drift_check(
                    work, rcfg, grid,
                    tol_abs=cfg.tolerances["drift_tol_abs"],
                    tol_rel=cfg.tolerances["drift_tol_rel"])
                doc = certificate.summary()
                doc["schema_version"] = SCHEMA_VERSION
                doc["model"] = work.name
                _write_json(os.path.join(outdir, "certificate.json"), doc)
                artifacts["certificate"] = doc
                c0_used = certificate.c0
                mark(stage, certificate.valid,
                     "" if certificate.valid else "drift violations above 1%")

            elif stage == "rate":
                s_grid = None
                if cfg.grids.get("s_min") and cfg.grids.get("s_max"):
                    s_grid = _log_grid(float(cfg.grids["s_min"]),
                                       float(cfg.grids["s_max"]), ppd)
                # the drift stage's profile holds the drift rates of its radii
                rate_result = rates_mod.rate_tables(
                    model, dcfg, r_grid=r_grid_full, s_grid=s_grid, c0=c0_used,
                    points_per_decade=ppd, via_comparison=comparison,
                    profile=None if certificate is None else certificate.phi)
                alpha = rate_result.alpha_final
                rates_mod.write_csv(os.path.join(outdir, "alpha.csv"),
                                    ("s", "alpha"), (alpha.grid, alpha.values))
                rates_mod.write_csv(os.path.join(outdir, "beta.csv"),
                                    ("r", "varphi_phi", "beta"),
                                    (rate_result.beta.grid, rate_result.varphi.values,
                                     rate_result.beta.values))
                artifacts["rate"] = rate_result
                mark(stage, True)

            elif stage == "fit":
                try:
                    fit_result = _fit(cfg, hint_window, rate_result.alpha_final)
                    doc = fit_result.to_dict()
                    doc["c0_used"] = c0_used
                    _write_json(os.path.join(outdir, "fit.json"), doc)
                    artifacts["fit"] = doc
                    mark(stage, fit_result.conclusive)
                except InconclusiveFit as exc:
                    fail(stage, "fit.json", "conclusive", exc)

            elif stage == "verify":
                corpus = verify_mod.build_corpus(seed=cfg.seeds["corpus"])
                alpha_unit = rates_mod.RateTable(
                    grid=rate_result.alpha_final.grid,
                    values=rate_result.alpha_final.values / c0_used,
                    monotonicity="nonincreasing", extrapolation="power_law")
                lo = float(cfg.grids.get("wpi_r_min",
                                         alpha_unit.grid[0] * 2.0))
                hi = float(cfg.grids.get("wpi_r_max",
                                         min(alpha_unit.grid[-1] * 0.5, 1e-2)))
                n_r = int(cfg.grids.get("n_wpi_r", 40))
                r_w = np.geomspace(lo, hi, n_r)
                try:
                    report = verify_mod.empirical_wpi(
                        model, alpha_unit, corpus, r_w,
                        seed=cfg.seeds["sampler"],
                        n=int(cfg.samples["n_wpi"]))
                    _write_json(os.path.join(outdir, "wpi_report.json"),
                                report.to_dict())
                    artifacts["wpi"] = report
                    mark(stage, report.passed,
                         "" if report.passed else "holdout violations")
                except CalibrationFailed as exc:
                    fail(stage, "wpi_report.json", "passed", exc)

            elif stage == "decay":
                f = verify_mod.TestFunction(
                    id="tanh", value=np.tanh,
                    gradient=lambda x: verify_mod._sech2(x), osc_bound=2.0)
                t_max = float(cfg.samples["t_max"])
                n_t = int(cfg.samples["n_times"])
                t_first = max(t_max / 64.0, _DECAY_T_FIRST) if n_t > 1 else t_max
                t_grid = np.geomspace(t_first, t_max, n_t)
                trace = verify_mod.semigroup_decay(
                    model, f, t_grid, n_paths=int(cfg.samples["n_paths"]),
                    dt=float(cfg.samples["dt"]), seed=cfg.seeds["decay"],
                    n_inner=int(cfg.samples["n_inner"]))
                rates_mod.write_csv(os.path.join(outdir, "decay.csv"),
                                    ("t", "variance", "ci_halfwidth"),
                                    (trace.times, trace.variance_estimates,
                                     trace.confidence_halfwidths))
                artifacts["decay"] = trace
                mark(stage, True)

            elif stage == "sweep":
                param = cfg.sweep.get("param", "sigma")
                values = cfg.sweep.get("values", [1.0, 2.0, 5.0])
                doc, columns = _run_sweep(model, comparison, dcfg, cfg,
                                          param, values)
                _write_json(os.path.join(outdir, "sweep.json"), doc)
                if columns is not None:
                    rates_mod.write_csv(os.path.join(outdir, "sweep.csv"),
                                        columns[0], columns[1])
                artifacts["sweep"] = doc
                mark(stage, doc.get("bounded", True),
                     "" if doc.get("bounded", True) else "ratio range exceeded factor")

            elif stage == "stability":
                mu_model = model_mod.ConvolutionModel(
                    model.potential, model_mod.point_mass(d=model.d),
                    name=model.name + "_base")
                try:
                    doc = rates_mod.compare_stability(mu_model, model, dcfg)
                    _write_json(os.path.join(outdir, "stability.json"), doc)
                    artifacts["stability"] = doc
                    mark(stage, doc["bounded"])
                except HypothesisFailed as exc:
                    fail(stage, "stability.json", "bounded", exc)

    except (DriftConditionFailed, SaturatedAtGridEnd) as exc:
        mark(stage, False, f"{type(exc).__name__}: {exc}")
    except ConfigError:
        raise
    except Exception as exc:  # annotate unexpected failures with the stage
        _write_manifest(outdir, cfg, stage_status, c0_used, comparison,
                        error=f"{stage}: {type(exc).__name__}: {exc}")
        raise RuntimeError(f"stage {stage!r} failed: {exc}") from exc

    _write_manifest(outdir, cfg, stage_status, c0_used, comparison)
    return status, artifacts


def _write_manifest(outdir, cfg, stage_status, c0_used, comparison, error=None):
    doc = {"schema_version": SCHEMA_VERSION,
           "version": __version__,
           "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
           "config": cfg.to_dict(),
           "stages": stage_status,
           "c0_used": c0_used,
           "cpus": verify_mod._cpu_count()}
    if comparison is not None:
        doc["comparison_model"] = comparison.name
    if error:
        doc["error"] = error
    _write_json(os.path.join(outdir, "manifest.json"), doc)


def _run_sweep(model, comparison, dcfg, cfg, param, values):
    r_grid, hint_window, _ = _r_grid(cfg)
    if param == "sigma":
        doc, runs, grid = rates_mod._sigma_runs(
            model if comparison is None else comparison, dcfg, values,
            r_grid=r_grid)
        # wide CSV of the compared alpha tables on their shared grid
        header = ["s"] + [f"alpha_sigma_{sig:g}" for sig in values]
        cols = [grid] + [t.value_at(grid) for _, t in runs]
        return doc, (header, cols)
    if param in ("p", "delta"):
        dcfg = _drift_config(cfg)  # the user's R0: R0 depends on the model and delta
        rows = {}
        fits = {}
        for val in values:
            if param == "p":
                sub_cfg = RunConfig(**{**cfg.to_dict(), "p": float(val),
                                       "stages": ()})
                sub_model, sub_comp = build_model(sub_cfg)
                res = rates_mod.rate_tables(sub_model, dcfg, r_grid=r_grid,
                                            via_comparison=sub_comp)
            else:
                c = replace(dcfg, case="cor_b" if dcfg.case.startswith("cor") else "b",
                            delta=float(val))
                res = rates_mod.rate_tables(
                    model if comparison is None else comparison, c, r_grid=r_grid)
            try:
                fits[f"{param}={val:g}"] = _fit(cfg, hint_window, res.alpha_final).to_dict()
            except InconclusiveFit as exc:
                fits[f"{param}={val:g}"] = {"conclusive": False, "error": str(exc)}
            rows[f"{param}={val:g}"] = res.alpha_final
        grid = rates_mod._shared_s_grid(list(rows.values()))
        header = ["s"] + [f"alpha_{k}" for k in rows]
        cols = [grid] + [t.value_at(grid) for t in rows.values()]
        doc = {"schema_version": SCHEMA_VERSION, "param": param,
               "values": [float(v) for v in values], "fits": fits,
               "bounded": True}
        return doc, (header, cols)
    raise ConfigError(f"sweep.param: unknown parameter {param!r}")


def sweep(config, param, values):
    """Run the sweep stage standalone (the sweep subcommand)."""
    cfg = config if isinstance(config, RunConfig) else load_config(config)
    doc = dict(cfg.to_dict())
    doc["sweep"] = {"param": param, "values": list(values)}
    doc["stages"] = ["sweep"]
    return run(load_config(doc))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wpconv",
        description="rate functions for convolution measures: batch runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute the configured stages")
    run_p.add_argument("config", help="path to a YAML config (or inline text)")
    run_p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
    run_p.add_argument("-o", "--output-dir", default=None)

    sweep_p = sub.add_parser("sweep", help="sweep one parameter")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--param", required=True, choices=["sigma", "delta", "p"])
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 1,2,5")
    sweep_p.add_argument("--set", dest="overrides", action="append", default=[])
    sweep_p.add_argument("-o", "--output-dir", default=None)

    sub.add_parser("presets", help="list the named presets")

    val_p = sub.add_parser("validate", help="validate a config and exit")
    val_p.add_argument("config")
    val_p.add_argument("--set", dest="overrides", action="append", default=[])

    args = parser.parse_args(argv)

    if args.command == "presets":
        for name in presets_mod.PRESETS:
            print(name)
        return 0

    try:
        doc = apply_overrides(_read_config(args.config), getattr(args, "overrides", []))
        if getattr(args, "output_dir", None):
            doc["output_dir"] = args.output_dir
        cfg = load_config(doc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print("ok")
        return 0

    try:
        if args.command == "sweep":
            values = [float(v) for v in args.values.split(",")]
            status, _ = sweep(cfg, args.param, values)
        else:
            status, _ = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
