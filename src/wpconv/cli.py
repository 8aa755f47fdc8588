"""Batch orchestration: load a run configuration (YAML), execute the requested
stages in dependency order, and write per-stage CSV/JSON artifacts.

Subcommands:

    wpconv run <config> [--set key=value ...] [-o DIR]
    wpconv sweep <config> --param sigma --values 1,2,5
    wpconv presets
    wpconv validate <config>

Exit codes: 0 success, 1 error, 2 a hypothesis/condition/certificate check
failed (artifacts are still written with failure markers).

Stages are rows of one table (``_STAGES``): a function of the run's shared
context that returns (ok, note, documents), the stages it needs, and the
failure it records in its own document.  One loop runs them in order.  The
rate, fit, sweep and stability stages read their rate tables from one memo
of the run (``_Run.rates``), built on the run's grids.

Output layout (one directory per run): manifest.json, conditions.json,
certificate.json, alpha.csv (s, alpha), beta.csv (r, varphi_phi, beta),
fit.json, wpi_report.json, decay.csv (t, variance, ci_halfwidth), sweep.csv,
sweep.json, stability.json.  JSON documents carry schema_version; the
manifest holds the only timestamp, the wall time of each stage that ran
(timings), and the number of CPUs the run could use.
"""

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, asdict, replace
from functools import cached_property
from typing import Callable, NamedTuple, Optional

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

_GRID_KEYS = {"r_min", "r_max", "points_per_decade", "s_min", "s_max",
              "n_wpi_r", "certificate_points"}
_SEED_KEYS = {"sampler", "corpus", "decay"}
_SAMPLE_KEYS = {"n_wpi", "n_paths", "n_inner", "dt", "t_max", "n_times"}
_FIT_KEYS = {"families", "window"}
_SWEEP_KEYS = {"param", "values"}


@dataclass
class RunConfig:
    """Validated batch-run configuration with defaults filled."""

    preset: Optional[str] = None
    custom: Optional[dict] = None
    p: Optional[float] = None
    d: int = 1
    R: Optional[float] = None
    R0: Optional[float] = None
    sigma: float = 1.0
    delta: float = 0.75
    case: Optional[str] = None
    nu: Optional[dict] = None
    stages: tuple = ()
    grids: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    fit: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    output_dir: str = "wpconv_out"

    def to_dict(self):
        doc = asdict(self)
        doc["stages"] = list(self.stages)
        return doc


_TOP_KEYS = {f.name for f in fields(RunConfig)}

_DEFAULT_SEEDS = {"sampler": 20_260_809, "corpus": 7, "decay": 5}
_DEFAULT_SAMPLES = {"n_wpi": 1_000_000, "n_paths": 128, "n_inner": 128,
                    "dt": 2e-3, "t_max": 40.0, "n_times": 8}
_DECAY_T_FIRST = 0.25   # earliest first time of a decay grid of n_times > 1


def _check_keys(doc, allowed, path, why="unknown key"):
    for k in doc:
        if k not in allowed:
            raise ConfigError(f"{path}{k}: {why}")


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
                      ("samples", _SAMPLE_KEYS), ("fit", _FIT_KEYS),
                      ("sweep", _SWEEP_KEYS)):
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
    d = _check_d(doc.get("d", 1), "d")
    if custom is not None:
        for key in ("p", "R", "nu"):  # a preset's keys, which a custom model has no use for
            if doc.get(key) is not None:
                raise ConfigError(f"{key}: a preset key; a custom model takes its "
                                  f"potential and source from custom")
        _check_keys(custom, {"potential", "source"}, "custom.")
        pot = custom.get("potential") or {}
        _check_keys(pot, {"family", "p", "d", "exponent", "expression"}, "custom.potential.")
        _check_d(pot.get("d", 1), "custom.potential.d")
        fam = pot.get("family")
        if not isinstance(fam, str) or fam not in presets_mod.FAMILIES:
            raise ConfigError("custom.potential.family: unknown family")
        required = presets_mod.FAMILIES[fam][0]
        if required is not None and pot.get(required) is None:
            raise ConfigError(f"custom.potential.{required}: required for family {fam!r}")
        _check_source(custom.get("source"), pot.get("d", d), "custom.source")
    else:
        _check_source(doc.get("nu"), d, "nu")
    for key in ("R", "R0"):
        if doc.get(key) is not None:
            _positive(doc[key], key)
    cfg = RunConfig(
        preset=preset, custom=custom,
        p=doc.get("p"), d=int(d),
        R=None if custom is not None else float(doc.get("R", 1.0)),
        R0=(None if doc.get("R0") is None else float(doc["R0"])),
        sigma=float(doc.get("sigma", 1.0)), delta=float(doc.get("delta", 0.75)),
        case=doc.get("case"), nu=doc.get("nu"),
        stages=tuple(stages),
        grids=dict(doc.get("grids") or {}),
        seeds={**_DEFAULT_SEEDS, **(doc.get("seeds") or {})},
        samples={**_DEFAULT_SAMPLES, **(doc.get("samples") or {})},
        fit=dict(doc.get("fit") or {}),
        sweep=dict(doc.get("sweep") or {}),
        output_dir=str(doc.get("output_dir", "wpconv_out")),
    )
    try:  # sigma, delta and case
        _drift_config(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if preset is not None:
        presets_mod.validate_preset(preset, p=cfg.p, d=cfg.d)
    _check_samples(cfg)
    param, values = _sweep_spec(cfg)
    if param not in ("sigma", "delta", "p"):
        raise ConfigError(f"sweep.param: must be sigma, delta or p, got {param!r}")
    if param == "p" and preset is None:
        raise ConfigError("sweep.param: p is a preset's parameter; a custom model has none")
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(f"sweep.values: must be a nonempty list, got {values!r}")
    for v in values:
        if not _is_number(v):
            raise ConfigError(f"sweep.values: must hold numbers, got {v!r}")
        try:  # a value the swept parameter takes
            if param != "p":
                lyap.DriftConfig(**{param: v})
            else:
                presets_mod.validate_preset(preset, p=v, d=cfg.d)
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"sweep.values: {exc}") from None
    _check_fit(cfg.fit)
    _check_grids(cfg)  # last: its s_min/s_max pairing comes after every value check
    return cfg


def _sweep_spec(cfg):
    """The swept parameter and its values; sigma over [1, 2, 5] by default."""
    return cfg.sweep.get("param", "sigma"), cfg.sweep.get("values", [1, 2, 5])


def _is_number(raw):
    return not isinstance(raw, bool) and isinstance(raw, (int, float))


def _check_fit(fit):
    """fit.families lists known families; fit.window is two increasing numbers."""
    fams = fit.get("families", rates_mod.FIT_FAMILIES)
    if not isinstance(fams, (list, tuple)) or not fams \
            or any(f not in rates_mod.FIT_FAMILIES for f in fams):
        raise ConfigError(f"fit.families: must be a nonempty list of "
                          f"{', '.join(rates_mod.FIT_FAMILIES)}, got {fams!r}")
    win = fit.get("window")
    if "window" in fit and not (isinstance(win, (list, tuple)) and len(win) == 2
                                and all(_is_number(v) for v in win)
                                and 0.0 < win[0] < win[1] < math.inf):
        raise ConfigError(f"fit.window: must be two positive finite increasing "
                          f"numbers, got {win!r}")


def _check_source(spec, d, path):
    """A source spec (None or empty: the default source) names a kind of
    presets.SOURCES and sets only that kind's keys, every one it requires, a
    positive halfwidth, and d = 1 where the kind needs it."""
    if spec is None or spec == {}:
        return
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: must be a mapping, got {spec!r}")
    name = spec.get("kind")
    if str(name) not in presets_mod.SOURCES:
        raise ConfigError(f"{path}.kind: unknown source kind {name!r}")
    keys, required, d1, _ = presets_mod.SOURCES[name]
    _check_keys(spec, {"kind", *keys}, path + ".", f"unknown key for kind {name!r}")
    for key in required:
        if key not in spec:
            raise ConfigError(f"{path}.{key}: required for kind {name!r}")
    if d1 and d != 1:
        raise ConfigError(f"{path}.kind: {name} requires d = 1")
    if "halfwidth" in spec:
        _positive(spec["halfwidth"], path + ".halfwidth")


def _check_d(raw, path):
    """The dimension, which is 1, 2 or 3."""
    if isinstance(raw, bool) or raw not in (1, 2, 3):
        raise ConfigError(f"{path}: must be 1, 2 or 3, got {raw!r}")
    return raw


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
    each given range is increasing (r_min/r_max read the rate grid's
    defaults where one is not given), and s_min and s_max come together."""
    g = dict(cfg.grids)
    for key, raw in g.items():
        g[key] = _positive(raw, f"grids.{key}")
        if key in ("points_per_decade", "n_wpi_r", "certificate_points") and g[key] < 1.0:
            raise ConfigError(f"grids.{key}: must be at least 1, got {raw!r}")
    g = {**presets_mod.rate_grid_hints(cfg.preset), **g}
    for lo, hi in (("r_min", "r_max"), ("s_min", "s_max")):
        if lo in g and hi in g and not g[lo] < g[hi]:
            raise ConfigError(f"grids.{lo}: must lie below grids.{hi} = {g[hi]:g}, "
                              f"got {g[lo]:g}")
    for key, other in (("s_min", "s_max"), ("s_max", "s_min")):
        if key in g and other not in g:
            raise ConfigError(f"grids.{other}: required with grids.{key}")


def _check_samples(cfg):
    """dt and t_max are positive and finite; n_wpi, n_paths and n_inner are
    integers of at least 2, and n_times is an integer of at least 1.  A decay
    grid of more than one time needs t_max above its first time."""
    for key, raw in cfg.samples.items():
        if not _is_number(raw):
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

def build_model(cfg):
    """ConvolutionModel and its comparison model (None unless the preset's
    row transfers its source's rate from a twin) from a validated config."""
    if cfg.preset is None:
        pot = cfg.custom.get("potential") or {}
        return presets_mod.model_from_specs(pot, cfg.custom.get("source"),
                                            int(pot.get("d", cfg.d))), None
    return (presets_mod.make_model(cfg.preset, p=cfg.p, d=cfg.d, R=cfg.R, nu=cfg.nu),
            presets_mod.comparison_model(cfg.preset, p=cfg.p, nu=cfg.nu))


def _drift_config(cfg):
    return lyap.DriftConfig(case=cfg.case or presets_mod.default_drift_config(cfg.preset).case,
                            R0=cfg.R0, sigma=cfg.sigma, delta=cfg.delta)


def _r_grid(cfg):
    hints = presets_mod.rate_grid_hints(cfg.preset)
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
    families = tuple(cfg.fit.get("families", rates_mod.FIT_FAMILIES))
    return rates_mod.fit_asymptotics(table, families=families,
                                     fit_window=tuple(window) if window else None)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def _write(path, doc):
    """Write a JSON mapping, or a CSV given as (header, columns)."""
    if not isinstance(doc, dict):
        rates_mod.write_csv(path, *doc)
        return
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    os.replace(tmp, path)


class _Run:
    """What the stages of a run share: the config, the models, the user's drift
    config, the rate grids, the certificate and c0-scaled rate tables later
    stages read, and the memo of rate tables (rates) every stage builds from."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.model, self.comparison = build_model(cfg)
        self.work = self.comparison if self.comparison is not None else self.model
        self.dcfg = _drift_config(cfg)
        self.r_grid, self.hint_window, self.ppd = _r_grid(cfg)
        g = cfg.grids
        self.s_grid = _log_grid(float(g["s_min"]), float(g["s_max"]), self.ppd) \
            if "s_min" in g else None
        self.certificate = self.rate = None
        self._rates = {}

    @cached_property
    def r0cfg(self):
        """dcfg with R0 resolved, scanned once per run; if the scan fails, dcfg,
        so that each stage resolves again and reports the failure itself."""
        try:
            return lyap.resolve_r0(self.work, self.dcfg)
        except DriftConditionFailed:
            return self.dcfg

    @property
    def c0(self):
        return 1.0 if self.certificate is None else self.certificate.c0

    def rates(self, model, cfg, comparison=None):
        """rate_tables of model (through comparison, when given) under the
        construction cfg, on the run's r grid, points per decade and s range,
        with c0 = 1; built once per model and construction with R0 resolved
        (the run's own construction through the run's one R0 scan)."""
        work = model if comparison is None else comparison
        if work is self.work and cfg == self.dcfg:
            cfg = self.r0cfg
        if cfg.R0 is None:
            cfg = lyap.resolve_r0(work, cfg)
        key = (id(model), id(comparison), cfg)
        if key not in self._rates:
            # a certificate of the same construction lends its drift rates
            cert = self.certificate
            lent = cert.phi if cert is not None and work is self.work \
                and cert.config == cfg else None
            self._rates[key] = (model, comparison, rates_mod.rate_tables(
                model, cfg, r_grid=self.r_grid, s_grid=self.s_grid,
                points_per_decade=self.ppd, via_comparison=comparison, profile=lent))
        return self._rates[key][2]


def _conditions(ctx):
    rep = lyap.check_conditions(ctx.work, ctx.r0cfg)
    doc = {**rep.to_dict(), "schema_version": SCHEMA_VERSION, "model": ctx.work.name}
    return (rep.all_ok, "" if rep.all_ok else "a drift hypothesis failed on the grid",
            {"conditions.json": doc})


def _drift(ctx):
    cfg = ctx.cfg
    rcfg = lyap.resolve_r0(ctx.work, ctx.r0cfg)
    radii = lyap.certificate_radii(rcfg.R0, int(cfg.grids.get("certificate_points", 200)))
    cert = ctx.certificate = lyap.drift_check(ctx.work, rcfg, radii)
    doc = {**cert.summary(), "schema_version": SCHEMA_VERSION, "model": ctx.work.name}
    return (cert.valid, "" if cert.valid else "drift violations above 1%",
            {"certificate.json": doc})


def _rate(ctx):
    res = ctx.rate = ctx.rates(ctx.model, ctx.dcfg, ctx.comparison).scaled(ctx.c0)
    alpha = res.alpha_final
    return True, "", {
        "alpha.csv": (("s", "alpha"), (alpha.grid, alpha.values)),
        "beta.csv": (("r", "varphi_phi", "beta"),
                     (res.beta.grid, res.varphi.values, res.beta.values))}


def _fit_stage(ctx):
    fit = _fit(ctx.cfg, ctx.hint_window, ctx.rate.alpha_final)
    return fit.conclusive, "", {"fit.json": {**fit.to_dict(), "c0_used": ctx.c0}}


def _verify(ctx):
    cfg, alpha = ctx.cfg, ctx.rate.alpha_final
    corpus = verify_mod.build_corpus(seed=cfg.seeds["corpus"])
    alpha_unit = rates_mod.RateTable(grid=alpha.grid, values=alpha.values / ctx.c0)
    r_w = np.geomspace(alpha_unit.grid[0] * 2.0, min(alpha_unit.grid[-1] * 0.5, 1e-2),
                       int(cfg.grids.get("n_wpi_r", 40)))
    report = verify_mod.empirical_wpi(ctx.model, alpha_unit, corpus, r_w,
                                      seed=cfg.seeds["sampler"],
                                      n=int(cfg.samples["n_wpi"]))
    return (report.passed, "" if report.passed else "holdout violations",
            {"wpi_report.json": report.to_dict()})


def _decay(ctx):
    f = verify_mod.TestFunction(id="tanh", value=np.tanh,
                                gradient=lambda x: verify_mod._sech2(x), osc_bound=2.0)
    smp = ctx.cfg.samples
    t_max, n_t = float(smp["t_max"]), int(smp["n_times"])
    t_first = max(t_max / 64.0, _DECAY_T_FIRST) if n_t > 1 else t_max
    trace = verify_mod.semigroup_decay(
        ctx.model, f, np.geomspace(t_first, t_max, n_t), n_paths=int(smp["n_paths"]),
        dt=float(smp["dt"]), seed=ctx.cfg.seeds["decay"], n_inner=int(smp["n_inner"]))
    return True, "", {"decay.csv": (("t", "variance", "ci_halfwidth"), (
        trace.times, trace.variance_estimates, trace.confidence_halfwidths))}


def _sweep(ctx):
    """Alpha tables across sigma (compared, at the resolved R0) or across p or
    delta (fitted, at the user's R0), and their CSV on the shared grid."""
    cfg = ctx.cfg
    param, values = _sweep_spec(cfg)
    if param == "sigma":
        runs = [(sig, ctx.rates(ctx.work, replace(ctx.r0cfg, sigma=sig)).alpha)
                for sig in values]
        # the pair labels of sweep.json keep their format's (constant) scale
        doc = rates_mod.compare_sigma([(f"sigma={sig},scale=1.0", tab) for sig, tab in runs])
        tables = [(f"sigma_{sig:g}", tab) for sig, tab in runs]
    else:
        rows, fits = {}, {}
        for val in values:
            key = f"{param}={val:g}"
            if param == "p":  # the run's own p reads the run's models
                sub_model, sub_comp = (ctx.model, ctx.comparison) if float(val) == cfg.p \
                    else build_model(replace(cfg, p=float(val)))
                res = ctx.rates(sub_model, ctx.dcfg, sub_comp)
            else:
                res = ctx.rates(ctx.work, replace(
                    ctx.dcfg, case="cor_b" if ctx.dcfg.case.startswith("cor") else "b",
                    delta=float(val)))
            try:
                fits[key] = _fit(cfg, ctx.hint_window, res.alpha_final).to_dict()
            except InconclusiveFit as exc:
                fits[key] = {"conclusive": False, "error": str(exc)}
            rows[key] = res.alpha_final
        tables = list(rows.items())
        doc = {"schema_version": SCHEMA_VERSION, "param": param,
               "values": [float(v) for v in values], "fits": fits, "bounded": True}
    grid = rates_mod._shared_s_grid([tab for _, tab in tables])
    columns = (["s"] + [f"alpha_{key}" for key, _ in tables],
               [grid] + [tab.value_at(grid) for _, tab in tables])
    return (doc["bounded"], "" if doc["bounded"] else "ratio range exceeded factor",
            {"sweep.json": doc, "sweep.csv": columns})


def _stability(ctx):
    m = ctx.model
    mu_model = model_mod.ConvolutionModel(m.potential, model_mod.point_mass(d=m.d),
                                          name=m.name + "_base")
    doc = rates_mod.compare_stability(
        mu_model, m, ctx.dcfg, ctx.rates(mu_model, ctx.dcfg).alpha,
        ctx.rates(m, ctx.dcfg, ctx.comparison).alpha)
    return doc["bounded"], "", {"stability.json": doc}


class _Stage(NamedTuple):  # failure: (error it records, its document, flag set False)
    run: Callable
    needs: tuple = ()
    failure: tuple = ((), None, None)


# the stages in run order; a stage needs only stages before it
_STAGES = {
    "conditions": _Stage(_conditions),
    "drift": _Stage(_drift),
    "rate": _Stage(_rate),
    "fit": _Stage(_fit_stage, ("rate",), (InconclusiveFit, "fit.json", "conclusive")),
    "verify": _Stage(_verify, ("rate", "drift"),
                     (CalibrationFailed, "wpi_report.json", "passed")),
    "decay": _Stage(_decay),
    "sweep": _Stage(_sweep),
    "stability": _Stage(_stability, (), (HypothesisFailed, "stability.json", "bounded")),
}
STAGES = tuple(_STAGES)


def _stage_closure(requested):
    """The requested stages and every stage they need, in run order."""
    stages = set(requested)
    for name in reversed(STAGES):  # a stage's needs come before it
        if name in stages:
            stages.update(_STAGES[name].needs)
    return [s for s in STAGES if s in stages]


def run(config):
    """Execute the configured stages; returns (exit_status, documents): each
    document written, by file name (a JSON mapping, or CSV (header, columns))."""
    cfg = config if isinstance(config, RunConfig) else load_config(config)
    os.makedirs(cfg.output_dir, exist_ok=True)
    ctx = _Run(cfg)
    status, stage_status, timings, documents = 0, {}, {}, {}
    for name in _stage_closure(cfg.stages):
        t0 = time.perf_counter()
        error, failed_doc, flag = _STAGES[name].failure
        try:
            try:
                ok, note, docs = _STAGES[name].run(ctx)
            except error as exc:
                ok, note = False, str(exc)
                docs = {failed_doc: {"schema_version": SCHEMA_VERSION, flag: False,
                                     "error": note}}
            for fname, doc in docs.items():
                _write(os.path.join(cfg.output_dir, fname), doc)
        except (DriftConditionFailed, SaturatedAtGridEnd) as exc:
            # a failed drift condition or a saturated inverse ends the run
            ok, note, docs = False, f"{type(exc).__name__}: {exc}", None
        except ConfigError:
            raise
        except Exception as exc:  # annotate unexpected failures with the stage
            timings[name] = time.perf_counter() - t0
            _write_manifest(ctx, stage_status, timings,
                            error=f"{name}: {type(exc).__name__}: {exc}")
            raise RuntimeError(f"stage {name!r} failed: {exc}") from exc
        timings[name] = time.perf_counter() - t0
        stage_status[name] = {"ok": bool(ok), "note": note}
        status = status if ok else 2
        if docs is None:
            break
        documents.update(docs)
    _write_manifest(ctx, stage_status, timings)
    return status, documents


def _write_manifest(ctx, stage_status, timings, error=None):
    doc = {"schema_version": SCHEMA_VERSION, "version": __version__,
           "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
           "config": ctx.cfg.to_dict(), "stages": stage_status, "timings": timings,
           "c0_used": ctx.c0, "cpus": verify_mod._cpu_count()}
    if ctx.comparison is not None:
        doc["comparison_model"] = ctx.comparison.name
    if error:
        doc["error"] = error
    _write(os.path.join(ctx.cfg.output_dir, "manifest.json"), doc)


def sweep(config, param, values):
    """Run the sweep stage standalone (the sweep subcommand)."""
    cfg = config if isinstance(config, RunConfig) else load_config(config)
    return run(load_config({**cfg.to_dict(), "stages": ["sweep"],
                            "sweep": {"param": param, "values": list(values)}}))


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
