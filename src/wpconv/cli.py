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
rate, fit, verify, sweep and stability stages read their rate tables from one
memo of the run (``_Run.rates``), built on the run's grids.

Output layout (one directory per run): manifest.json, conditions.json,
certificate.json, alpha.csv (s, alpha), beta.csv (r, varphi_phi, beta),
fit.json, wpi_report.json, decay.csv (t, variance, ci_halfwidth), sweep.csv,
sweep.json, stability.json.  JSON documents carry schema_version; the
manifest echoes the filled config (every key, defaults written out; it loads
back as the same config) and holds the only timestamp, the wall time of each
stage that ran (timings), and the number of CPUs the run could use.
"""

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, make_dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple

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
_DECAY_T_FIRST = 0.25   # earliest first time of a decay grid of n_times > 1


def _check_keys(doc, allowed, path, why="unknown key"):
    for k in doc:
        if k not in allowed:
            raise ConfigError(f"{path}{k}: {why}")


def _is_number(raw):
    return not isinstance(raw, bool) and isinstance(raw, (int, float))


# the kinds of value: each reads a raw value at a key path, or raises
# ConfigError naming the path

def _kind(test, what, cast=float):
    """The kind of a number (not a bool) that passes test, read by cast."""
    def check(raw, path):
        if not (_is_number(raw) and test(raw)):
            raise ConfigError(f"{path}: must be {what}, got {raw!r}")
        return cast(raw)
    return check


_number = _kind(lambda v: abs(v) <= sys.float_info.max, "a number")
_positive = _kind(lambda v: 0.0 < v <= sys.float_info.max, "positive and finite")


def _count(least):
    """The kind of an integer of at least `least` (a seed: 0), read as an int."""
    return _kind(lambda v: (isinstance(v, int) or v.is_integer()) and v >= least,
                 f"an integer of at least {least}", int)


def _choice(*choices):
    """The kind of one of `choices`, read as that choice (d: 1.0 reads as 1)."""
    def check(raw, path):
        if isinstance(raw, bool) or raw not in choices:
            *head, last = map(str, choices)
            raise ConfigError(f"{path}: must be {', '.join(head)} or {last}, got {raw!r}")
        return choices[choices.index(raw)]
    return check


def _path(raw, path):
    """A file system path, read as a str."""
    if not isinstance(raw, (str, os.PathLike)):
        raise ConfigError(f"{path}: must be a path, got {raw!r}")
    return os.fspath(raw)


def _check_stages(raw, path):
    """A stage or a list of stages, read as a list."""
    stages = [raw] if isinstance(raw, str) else raw
    if not isinstance(stages, (list, tuple)):
        raise ConfigError(f"{path}: must be a stage or a list of stages, got {raw!r}")
    for st in stages:
        if st not in STAGES:
            raise ConfigError(f"{path}: unknown stage {st!r} (choose from {STAGES})")
    return list(stages)


def _check_source(spec, path):
    """A source spec (empty: the default source) names a kind of
    presets.SOURCES and sets only that kind's keys, every one it requires and
    a positive halfwidth."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: must be a mapping, got {spec!r}")
    if not spec:
        return spec
    name = spec.get("kind")
    if str(name) not in presets_mod.SOURCES:
        raise ConfigError(f"{path}.kind: unknown source kind {name!r}")
    keys, required, _, _ = presets_mod.SOURCES[name]
    _check_keys(spec, {"kind", *keys}, path + ".", f"unknown key for kind {name!r}")
    for key in required:
        if key not in spec:
            raise ConfigError(f"{path}.{key}: required for kind {name!r}")
    if "halfwidth" in spec:
        _positive(spec["halfwidth"], path + ".halfwidth")
    return spec


_DIM = _choice(1, 2, 3)


def _check_custom(custom, path):
    """A custom model: a potential spec of presets.FAMILIES, which sets only
    its family's keys, every one it requires and a d of 1, 2 or 3, and a
    source spec."""
    if not isinstance(custom, dict):
        raise ConfigError(f"{path}: must be a mapping, got {custom!r}")
    _check_keys(custom, {"potential", "source"}, path + ".")
    pot = custom.get("potential")
    fam = pot.get("family") if isinstance(pot, dict) else None
    if not isinstance(fam, str) or fam not in presets_mod.FAMILIES:
        raise ConfigError(f"{path}.potential.family: unknown family")
    keys, required, _ = presets_mod.FAMILIES[fam]
    _check_keys(pot, {"family", "d", *keys}, path + ".potential.",
                f"unknown key for family {fam!r}")
    _DIM(pot.get("d", 1), path + ".potential.d")
    for key in required:
        if pot.get(key) is None:
            raise ConfigError(f"{path}.potential.{key}: required for family {fam!r}")
    if custom.get("source") is not None:
        _check_source(custom["source"], path + ".source")
    return custom


def _check_families(raw, path):
    """A nonempty list of rates.FIT_FAMILIES, read as a tuple."""
    if not isinstance(raw, (list, tuple)) or not raw \
            or any(f not in rates_mod.FIT_FAMILIES for f in raw):
        raise ConfigError(f"{path}: must be a nonempty list of "
                          f"{', '.join(rates_mod.FIT_FAMILIES)}, got {raw!r}")
    return tuple(raw)


def _check_window(raw, path):
    """Two positive finite increasing numbers, read as a tuple."""
    if not (isinstance(raw, (list, tuple)) and len(raw) == 2
            and all(_is_number(v) for v in raw) and 0.0 < raw[0] < raw[1] < math.inf):
        raise ConfigError(f"{path}: must be two positive finite increasing "
                          f"numbers, got {raw!r}")
    return tuple(raw)


def _check_values(raw, path):
    """A nonempty list of numbers, kept as given (sweep.json prints them)."""
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(f"{path}: must be a nonempty list, got {raw!r}")
    for v in raw:
        _number(v, path)
    return list(raw)


def _hint(key):
    """The default that reads `key` of the preset's rate-grid hints."""
    return lambda preset: presets_mod.rate_grid_hints(preset)[key]


# Every key a config may set: (its kind, its default), or for a section the
# table of its own keys.  An unset or null key takes its default; a default
# that is a function reads the preset (None: a custom model), so "preset"
# comes first.  p and R stay unset unless given: a preset refuses either
# beside a nu that makes it unread (presets.validate_preset).
_SCHEMA = {
    "preset": (_choice(*presets_mod.PRESETS), None),
    "custom": (_check_custom, None),
    "p": (_number, None),
    "d": (_DIM, 1),
    "R": (_positive, None),
    "R0": (_positive, None),
    "sigma": (_number, 1.0),
    "delta": (_number, 0.75),
    "case": (_choice(*lyap._CASES),
             lambda preset: presets_mod.default_drift_config(preset).case),
    "nu": (_check_source, None),
    "stages": (_check_stages, []),
    "grids": {"r_min": (_positive, _hint("r_min")),
              "r_max": (_positive, _hint("r_max")),
              "points_per_decade": (_count(1), 200),
              "s_min": (_positive, None),
              "s_max": (_positive, None),
              "n_wpi_r": (_count(1), 40),
              "certificate_points": (_count(1), 200)},
    "seeds": {"sampler": (_count(0), 20_260_809),
              "corpus": (_count(0), 7),
              "decay": (_count(0), 5)},
    "samples": {"n_wpi": (_count(2), 1_000_000),
                "n_paths": (_count(2), 128),
                "n_inner": (_count(2), 128),
                "dt": (_positive, 2e-3),
                "t_max": (_positive, 40.0),
                "n_times": (_count(1), 8)},
    "fit": {"families": (_check_families, rates_mod.FIT_FAMILIES),
            "window": (_check_window, _hint("fit_window"))},
    "sweep": {"param": (_choice("sigma", "delta", "p"), "sigma"),
              "values": (_check_values, [1, 2, 5])},
    "output_dir": (_path, "wpconv_out"),
}

# a configuration as load_config returns it: every key of _SCHEMA, its value
# read by its kind and its default filled
RunConfig = make_dataclass("RunConfig", list(_SCHEMA), namespace={"to_dict": asdict})


def _fill(doc, schema, path, preset):
    """The values of the mapping doc read by their kinds in schema, with every
    unset key's default; a section is a mapping read by its own table."""
    _check_keys(doc, schema, path)
    out = {}
    for key, entry in schema.items():
        raw = doc.get(key)
        if isinstance(entry, dict):
            raw = {} if raw is None else raw
            if not isinstance(raw, dict):
                raise ConfigError(f"{path}{key}: must be a mapping, got {raw!r}")
            out[key] = _fill(raw, entry, f"{path}{key}.", preset)
            continue
        check, default = entry
        if raw is None:
            raw = default(preset) if callable(default) else default
        out[key] = None if raw is None else check(raw, path + key)
    return out


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
    """Parse a configuration from a path, inline YAML text or a mapping: read
    every value by its kind in _SCHEMA, fill every default, then check the
    rules that tie keys together."""
    doc = source if isinstance(source, dict) else _read_config(source)
    cfg = RunConfig(**_fill(doc, _SCHEMA, "", doc.get("preset")))
    preset, custom, g = cfg.preset, cfg.custom, cfg.grids
    if (preset is None) == (custom is None):
        raise ConfigError("preset/custom: exactly one must be given")
    if custom is not None:
        for key in ("p", "R", "nu"):  # a preset's keys, which a custom model has no use for
            if getattr(cfg, key) is not None:
                raise ConfigError(f"{key}: a preset key; a custom model takes its "
                                  f"potential and source from custom")
    spec, path, d = (custom.get("source"), "custom.source",
                     custom["potential"].get("d", cfg.d)) if custom else (cfg.nu, "nu", cfg.d)
    if spec and presets_mod.SOURCES[spec["kind"]][2] and d != 1:
        raise ConfigError(f"{path}.kind: {spec['kind']} requires d = 1")
    try:  # sigma and delta
        _drift_config(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if preset is not None:
        presets_mod.validate_preset(preset, p=cfg.p, d=cfg.d, R=cfg.R, nu=cfg.nu)
    if cfg.samples["n_times"] > 1 and cfg.samples["t_max"] <= _DECAY_T_FIRST:
        raise ConfigError(f"samples.t_max: must exceed {_DECAY_T_FIRST:g} when n_times > 1, "
                          f"got {cfg.samples['t_max']!r}")
    param = cfg.sweep["param"]
    if param == "p" and preset is None:
        raise ConfigError("sweep.param: p is a preset's parameter; a custom model has none")
    for v in cfg.sweep["values"]:
        try:  # a value the swept parameter takes
            if param != "p":
                lyap.DriftConfig(**{param: v})
            else:
                presets_mod.validate_preset(preset, p=v, d=cfg.d, nu=cfg.nu)
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"sweep.values: {exc}") from None
    for lo, hi in (("r_min", "r_max"), ("s_min", "s_max")):
        if None not in (g[lo], g[hi]) and not g[lo] < g[hi]:
            raise ConfigError(f"grids.{lo}: must lie below grids.{hi} = {g[hi]:g}, "
                              f"got {g[lo]:g}")
    for key, other in (("s_min", "s_max"), ("s_max", "s_min")):
        if g[key] is not None and g[other] is None:
            raise ConfigError(f"grids.{other}: required with grids.{key}")
    return cfg


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
            if node.get(part) is None:  # a null section reads as {}, as in load_config
                node[part] = {}
            node = node[part]
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
        pot = cfg.custom["potential"]
        return presets_mod.model_from_specs(pot, cfg.custom.get("source"),
                                            int(pot.get("d", cfg.d))), None
    return (presets_mod.make_model(cfg.preset, p=cfg.p, d=cfg.d, R=cfg.R, nu=cfg.nu),
            presets_mod.comparison_model(cfg.preset, p=cfg.p, nu=cfg.nu))


def _drift_config(cfg):
    return lyap.DriftConfig(case=cfg.case, R0=cfg.R0, sigma=cfg.sigma, delta=cfg.delta)


def _r_grid(cfg):
    g = cfg.grids
    return _log_grid(g["r_min"], g["r_max"], g["points_per_decade"])


def _log_grid(lo, hi, ppd):
    """Geometric grid on [lo, hi] with ppd points per decade, at least 16."""
    return np.geomspace(lo, hi, max(int(ppd * math.log10(hi / lo)) + 1, 16))


def _fit(cfg, table):
    """fit_asymptotics of an alpha table with the configured families and window."""
    return rates_mod.fit_asymptotics(table, cfg.fit["families"], cfg.fit["window"])


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
        g = cfg.grids
        self.r_grid = _r_grid(cfg)
        self.s_grid = None if g["s_min"] is None else \
            _log_grid(g["s_min"], g["s_max"], g["points_per_decade"])
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
                points_per_decade=self.cfg.grids["points_per_decade"],
                via_comparison=comparison, profile=lent))
        return self._rates[key][2]


def _conditions(ctx):
    rep = lyap.check_conditions(ctx.work, ctx.r0cfg)
    doc = {**rep.to_dict(), "schema_version": SCHEMA_VERSION, "model": ctx.work.name}
    return (rep.all_ok, "" if rep.all_ok else "a drift hypothesis failed on the grid",
            {"conditions.json": doc})


def _drift(ctx):
    cfg = ctx.cfg
    rcfg = lyap.resolve_r0(ctx.work, ctx.r0cfg)
    radii = lyap.certificate_radii(rcfg.R0, cfg.grids["certificate_points"])
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
                     (res.beta.grid, res.varphi, res.beta.values))}


def _fit_stage(ctx):
    fit = _fit(ctx.cfg, ctx.rate.alpha_final)
    return fit.conclusive, "", {"fit.json": {**fit.to_dict(), "c0_used": ctx.c0}}


def _verify(ctx):
    cfg = ctx.cfg
    corpus = verify_mod.build_corpus(seed=cfg.seeds["corpus"])
    alpha_unit = ctx.rates(ctx.model, ctx.dcfg, ctx.comparison).alpha_final
    r_w = np.geomspace(alpha_unit.grid[0] * 2.0, min(alpha_unit.grid[-1] * 0.5, 1e-2),
                       cfg.grids["n_wpi_r"])
    report = verify_mod.empirical_wpi(ctx.model, alpha_unit, corpus, r_w,
                                      seed=cfg.seeds["sampler"],
                                      n=cfg.samples["n_wpi"])
    return (report.passed, "" if report.passed else "holdout violations",
            {"wpi_report.json": report.to_dict()})


def _decay(ctx):
    f = verify_mod.TestFunction(id="tanh", value=np.tanh,
                                gradient=lambda x: verify_mod._sech2(x), osc_bound=2.0)
    smp = ctx.cfg.samples
    t_max, n_t = smp["t_max"], smp["n_times"]
    t_first = max(t_max / 64.0, _DECAY_T_FIRST) if n_t > 1 else t_max
    trace = verify_mod.semigroup_decay(
        ctx.model, f, np.geomspace(t_first, t_max, n_t), n_paths=smp["n_paths"],
        dt=smp["dt"], seed=ctx.cfg.seeds["decay"], n_inner=smp["n_inner"])
    return True, "", {"decay.csv": (("t", "variance", "ci_halfwidth"), (
        trace.times, trace.variance_estimates, trace.confidence_halfwidths))}


def _sweep(ctx):
    """Alpha tables across sigma (compared, at the resolved R0) or across p or
    delta (fitted, at the user's R0), and their CSV on the shared grid."""
    cfg = ctx.cfg
    param, values = cfg.sweep["param"], cfg.sweep["values"]
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
            if param == "p":  # the run's own p (given, or the preset's) reads the run's models
                own_p = presets_mod.validate_preset(cfg.preset, p=cfg.p, d=cfg.d)
                sub_model, sub_comp = (ctx.model, ctx.comparison) if float(val) == own_p \
                    else build_model(replace(cfg, p=float(val)))
                res = ctx.rates(sub_model, ctx.dcfg, sub_comp)
            else:
                res = ctx.rates(ctx.work, replace(
                    ctx.dcfg, case="cor_b" if ctx.dcfg.case.startswith("cor") else "b",
                    delta=float(val)))
            try:
                fits[key] = _fit(cfg, res.alpha_final).to_dict()
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
    rates_mod._compact_radius(m)  # refuses a non-compact nu before any table is built
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
        doc = apply_overrides(_read_config(args.config), args.overrides)
        if getattr(args, "output_dir", None):
            doc["output_dir"] = args.output_dir
        cfg = load_config(doc)
        if args.command == "validate":
            print("ok")
            return 0
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
