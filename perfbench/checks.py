"""Output checks, at the thresholds of the acceptance suite (tests/
test_acceptance.py).  Each check returns ``Check`` records; a job fails when
it raised, exited non-zero, or any of its checks failed.

``order_errors`` also returns |fitted exponent - the paper's order| for every
fit a job wrote, which the runner reduces to ``order_err``.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

CHECK_KINDS = ("exit_status", "fit_order", "certificate", "sigma_sweep",
               "wpi_holdout", "decay", "ks", "normalization")

# criteria 01-03: (family or None, tolerance on the exponent)
_FIT_RULES = {"example_3_3": ("power", 0.15),
              "example_3_1": (None, 0.3),
              "lemma_3_2": (None, 0.3),
              "example_3_2": ("poly_log", 0.27)}


@dataclass
class Check:
    kind: str
    job: str
    ok: bool
    detail: str

    def __post_init__(self):
        self.ok = bool(self.ok)


def paper_order(preset, p):
    """Exponent of the paper's blow-up order of alpha(s) as s -> 0 (PAPER.md
    preset table), in the parametrisation of ``rates.fit_asymptotics``."""
    if preset in ("example_3_1", "lemma_3_2", "example_3_3"):
        return 2.0 / p
    if preset == "example_3_2":
        return 2.0 * (1.0 - p) / p
    if preset == "example_3_4":
        return 1.0 / (p - 1.0)
    raise ValueError(f"no paper order for preset {preset!r}")


def _load(outdir, name):
    path = os.path.join(outdir, name)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def _fits(config, outdir):
    """(label, p, fit dict) for fit.json and every per-p fit of sweep.json."""
    out = []
    fit = _load(outdir, "fit.json")
    if fit is not None:
        out.append(("fit", float(config["p"]), fit))
    sweep = _load(outdir, "sweep.json")
    if sweep is not None and sweep.get("param") == "p":
        for key, doc in sweep.get("fits", {}).items():
            out.append((f"sweep {key}", float(key.split("=", 1)[1]), doc))
    return out


def check_cli_job(job, status, outdir):
    """Checks of one ``wpconv run`` job; returns (checks, order errors)."""
    cfg = job["config"]
    preset = cfg["preset"]
    jid = job["id"]
    checks = [Check("exit_status", jid, status == 0, f"exit {status}")]
    errors = []
    for label, p, fit in _fits(cfg, outdir):
        if not fit.get("conclusive", True) or "exponent" not in fit:
            checks.append(Check("fit_order", jid, False,
                                f"{label}: inconclusive ({fit.get('error')})"))
            continue
        err = abs(float(fit["exponent"]) - paper_order(preset, p))
        errors.append(err)
        if preset in _FIT_RULES:
            family, tol = _FIT_RULES[preset]
            ok = err <= tol and (family is None or fit["family"] == family)
            checks.append(Check("fit_order", jid, ok,
                                f"{label}: {fit['family']} exponent "
                                f"{fit['exponent']:.4f}, |err| {err:.4f} "
                                f"(tol {tol})"))
    cert = _load(outdir, "certificate.json")
    if cert is not None:
        tol = cfg.get("tolerances", {}).get("drift_tol_abs", 1e-8)
        ok = cert["violation_fraction"] == 0.0 and tol <= 1e-8
        checks.append(Check("certificate", jid, ok,
                            f"violation_fraction {cert['violation_fraction']:g}"
                            f" at tol_abs {tol:g}"))
    sweep = _load(outdir, "sweep.json")
    if sweep is not None and sweep.get("param", "sigma") == "sigma":
        factor = sweep["worst_range_factor"]
        checks.append(Check("sigma_sweep", jid, factor < 2.0,
                            f"worst range factor {factor:.4f} (< 2)"))
    wpi = _load(outdir, "wpi_report.json")
    if wpi is not None:
        viol = wpi.get("holdout_violations")
        checks.append(Check("wpi_holdout", jid, viol == 0,
                            f"holdout violations {viol}"))
    decay_csv = os.path.join(outdir, "decay.csv")
    if os.path.exists(decay_csv):
        data = np.loadtxt(decay_csv, delimiter=",", skiprows=1, ndmin=2)
        v, ci = data[:, 1], data[:, 2]
        monotone = bool(np.all(np.diff(v) <= 2.0 * (ci[1:] + ci[:-1])))
        ratio = v[-1] / v[0]
        checks.append(Check("decay", jid, monotone and ratio < 0.10,
                            f"nonincreasing within 2 CI: {monotone}, "
                            f"final/initial {ratio:.4f} (< 0.1)"))
    return checks, errors


def check_ks(job, distance, critical):
    ratio = distance / critical
    return [Check("ks", job["id"], distance < critical,
                  f"D {distance:.5f} / critical {critical:.5f} = {ratio:.4f}")]


def check_normalization(job, parts):
    """1 must lie inside [grid + lo, grid + hi] +- 1e-6, where [lo, hi] is
    the complement sandwich returned with ``return_parts``."""
    grid, complement, width = parts
    lo = grid + complement - 0.5 * width
    hi = grid + complement + 0.5 * width
    ok = lo - 1e-6 <= 1.0 <= hi + 1e-6 and math.isfinite(grid + complement)
    return [Check("normalization", job["id"], ok,
                  f"mass {grid + complement:.9f}, sandwich width {width:.3g}")]
