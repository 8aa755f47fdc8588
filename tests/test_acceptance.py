"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them inline)."""

import json
import time

import numpy as np
import pytest
import yaml

from wpconv import cli
from wpconv import model as M
from wpconv import lyapunov as L
from wpconv import rates as R
from wpconv import verify as V
from wpconv import presets as P


def report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def run_preset(tmpdir, text):
    doc = yaml.safe_load(text)
    doc["output_dir"] = str(tmpdir)
    t0 = time.perf_counter()
    status, artifacts = cli.run(cli.load_config(doc))
    return status, artifacts, time.perf_counter() - t0


@pytest.fixture(scope="module")
def models():
    return {name: P.make_model(name) for name in P.PRESETS}


@pytest.fixture(scope="module")
def pipelines(models):
    """Rate pipelines for every preset at default grids (c0 = 1)."""
    out = {}
    for name, m in models.items():
        hints = P.rate_grid_hints(name)
        n = int(200 * np.log10(hints["r_max"] / hints["r_min"])) + 1
        rg = np.geomspace(hints["r_min"], hints["r_max"], n)
        cfg = P.default_drift_config(name)
        out[name] = R.rate_tables(m, cfg, r_grid=rg,
                                  via_comparison=P.comparison_model(name))
    return out


def test_criterion_01_power_order(tmp_path):
    status, _, elapsed = run_preset(
        tmp_path, "{preset: example_3_3, p: 2, d: 1, stages: [rate, fit]}")
    fit = json.loads((tmp_path / "fit.json").read_text())
    ok = (status == 0 and fit["family"] == "power"
          and abs(fit["exponent"] - 1.0) <= 0.15
          and fit["r_squared"] >= 0.98
          and fit["fit_window"] == [1e-6, 1e-2]
          and elapsed <= 60.0)
    report(1, "algebraic-tail preset, power order 2/p",
           ok, f"family={fit['family']} exp={fit['exponent']:.4f} "
               f"r2={fit['r_squared']:.5f} t={elapsed:.1f}s")


def test_criterion_02_lattice_order(tmp_path):
    status, _, elapsed = run_preset(
        tmp_path, "{preset: example_3_1, p: 1, stages: [rate, fit], "
                  "fit: {families: [power]}}")
    fit = json.loads((tmp_path / "fit.json").read_text())
    ok = (status == 0 and abs(fit["exponent"] - 2.0) <= 0.3
          and elapsed <= 120.0)
    report(2, "discrete-lattice preset, power order 2/p",
           ok, f"exp={fit['exponent']:.4f} r2={fit['r_squared']:.5f} "
               f"t={elapsed:.1f}s")


def test_criterion_03_poly_log_order(tmp_path):
    status, _, elapsed = run_preset(
        tmp_path, "{preset: example_3_2, p: 0.6, "
                  "nu: {kind: uniform, halfwidth: 1.0}, stages: [rate, fit]}")
    fit = json.loads((tmp_path / "fit.json").read_text())
    expect = 2.0 * (1.0 - 0.6) / 0.6
    ok = (status == 0 and fit["family"] == "poly_log"
          and abs(fit["exponent"] - expect) <= 0.27)
    report(3, "sub-linear well, poly-log order 2(1-p)/p",
           ok, f"family={fit['family']} exp={fit['exponent']:.4f} "
               f"(target {expect:.3f}) t={elapsed:.1f}s")


def test_criterion_04_stretched_exponential_order(tmp_path):
    status, _, elapsed = run_preset(
        tmp_path, "{preset: example_3_4, p: 2, stages: [rate]}")
    data = np.loadtxt(tmp_path / "alpha.csv", delimiter=",", skiprows=1)
    s, a = data[:, 0], data[:, 1]
    msk = a > np.e
    x, y = 1.0 / s[msk], np.log(a[msk])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    r2 = 1.0 - np.sum((y - pred) ** 2) / np.sum((y - np.mean(y)) ** 2)
    ok = status == 0 and r2 >= 0.98
    report(4, "barely-integrable well, log alpha linear in 1/s",
           ok, f"r2={r2:.5f} slope={slope:.3f} t={elapsed:.1f}s")


def test_criterion_05_drift_certificates(models):
    details = []
    ok = True
    for name in ("example_3_2", "example_3_3", "example_3_4"):
        m = models[name]
        for case, kw in (("a", {"sigma": 1.0}), ("b", {"delta": 0.75})):
            cfg = L.resolve_r0(m, L.DriftConfig(case=case, **kw))
            grid = np.geomspace(cfg.R0, 10.0 * cfg.R0, 200)
            cert = L.drift_check(m, cfg, grid, tol_abs=1e-8)
            details.append(f"{name}/{case}: viol={cert.violation_fraction:g}")
            ok = ok and cert.violation_fraction == 0.0 and cert.valid
    report(5, "drift certificates, zero violations at 1e-8",
           ok, "; ".join(details))


def test_criterion_06_p_sigma_monotone_in_sigma(models):
    ok = True
    details = []
    for name, m in models.items():
        work = P.comparison_model(name) or m
        cfg0 = L.resolve_r0(work, P.default_drift_config(name))
        psi = lambda s: L.drift_rate(work, s, cfg0)
        rr = np.geomspace(cfg0.R0, 1e3, 60)
        prev = None
        worst = 0.0
        for sig in (0.5, 1.0, 2.0, 5.0):
            cfg = L.DriftConfig(case=cfg0.case, R0=cfg0.R0, sigma=sig)
            vals = L.p_sigma(psi, rr, cfg, work.d)
            if prev is not None:
                worst = max(worst, float(np.max(vals / prev)) - 1.0)
                if np.any(vals > prev * (1.0 + 1e-12)):
                    ok = False
            prev = vals
        details.append(f"{name}: max ratio-1 = {worst:.2e}")
    report(6, "p_sigma nonincreasing in sigma (1e-12)", ok, "; ".join(details))


def test_criterion_07_sigma_robustness(models):
    rg = np.geomspace(1e-2, 1e10, 2401)
    runs = [(f"sigma={sig}", R.rate_tables(models["example_3_3"],
                                            L.DriftConfig(case="cor_a", sigma=sig),
                                            r_grid=rg).alpha)
            for sig in (1.0, 2.0, 5.0)]
    rep = R.compare_sigma(runs, s_window=(1e-6, 1e-2))
    ok = rep["bounded"] and rep["worst_range_factor"] < 2.0
    report(7, "alpha ratio across sigma bounded by factor 2",
           ok, f"worst range factor {rep['worst_range_factor']:.3f} "
               f"on s in [{rep['s_min']:.1e}, {rep['s_max']:.1e}]")


def test_criterion_08_convolution_stability(models):
    mu_model = M.ConvolutionModel(M.log_potential(2.0), M.point_mass(),
                                  name="base")
    conv = models["example_3_3"]
    cfg = L.DriftConfig(case="cor_a", sigma=1.5)
    rg = np.geomspace(1e-2, 1e10, 2401)
    res_mu = R.rate_tables(mu_model, cfg, r_grid=rg)
    res_conv = R.rate_tables(conv, cfg, r_grid=rg)
    rep = R.compare_stability(mu_model, conv, cfg, res_mu.alpha, res_conv.alpha)
    ss = np.geomspace(1e-6, 1e-2, 400)
    ratio = res_conv.alpha.value_at(ss) / res_mu.alpha.value_at(ss)
    rng = float(ratio.max() / ratio.min())
    fit_mu = R.fit_asymptotics(res_mu.alpha, fit_window=(1e-6, 1e-2))
    fit_conv = R.fit_asymptotics(res_conv.alpha, fit_window=(1e-6, 1e-2))
    ok = (rng < 3.0 and fit_mu.family == fit_conv.family == "power"
          and abs(fit_mu.exponent - fit_conv.exponent) <= 0.2
          and rep["sigma_admissible"])
    report(8, "rate order stable under compact convolution",
           ok, f"ratio range {rng:.3f}; exponents "
               f"{fit_mu.exponent:.3f} vs {fit_conv.exponent:.3f}; "
               f"eta0={rep['eta0']:.4f}")


def test_criterion_09_gradient_hygiene(models):
    ok = True
    details = []
    for name, m in models.items():
        pts = V.default_check_points(m, 100, seed=1234, lo=1.5, hi=50.0)
        rep = V.crosscheck_gradients(m, pts)
        worst = max(rep["grad_V"], rep["lap_V"], rep["grad_V_nu"])
        details.append(f"{name}: {worst:.1e}")
        ok = ok and worst <= 1e-6
    report(9, "analytic derivatives within 1e-6 of Richardson differences",
           ok, "; ".join(details))


def test_criterion_10_empirical_wpi(models, pipelines):
    res = pipelines["example_3_3"]
    corpus = V.build_corpus(seed=7)
    r_grid = np.geomspace(max(res.alpha.grid[0] * 2.0, 1e-6),
                          min(res.alpha.grid[-1] * 0.5, 1e-2), 40)
    rep = V.empirical_wpi(models["example_3_3"], res.alpha, corpus, r_grid,
                          seed=20_260_809, n=10 ** 6)
    ok = rep.holdout_violations == 0
    report(10, "holdout functional inequality at every grid r (2 CI)",
           ok, f"c={rep.c_calibrated:.4f} violations={rep.holdout_violations} "
               f"worst slack = {rep.worst_slack_sigma:.2f} CI units")


def test_criterion_11_inverse_round_trip(pipelines):
    ok = True
    details = []
    for name, res in pipelines.items():
        back = res.beta.value_at(res.alpha.values / res.c0)
        good = np.all(back <= res.alpha.grid * (1.0 + 1e-9) + 1e-300)
        details.append(f"{name}: max back/s = {float(np.max(back / res.alpha.grid)):.6f}")
        ok = ok and good
    report(11, "beta(alpha(s)/c0) <= s on every table", ok, "; ".join(details))


def test_criterion_12_sampler_fidelity(models):
    ok = True
    details = []
    crit = V.ks_critical_value(10 ** 5, 0.01)
    cases = {name: models[name] for name in
             ("example_3_2", "example_3_3", "example_3_4")}
    cases["two_atoms"] = M.ConvolutionModel(M.quadratic_potential(),
                                            M.symmetric_pair(1.0))
    # fixed seeds; the statistic is a 1%-level draw, and D sqrt(n) was checked
    # to shrink properly at larger n (no systematic sampler bias)
    seeds = {"example_3_2": 11, "example_3_3": 11, "example_3_4": 11,
             "two_atoms": 7}
    for name, m in cases.items():
        d = V.ks_statistic(m, seeds[name], 10 ** 5)
        details.append(f"{name}: D={d:.5f}")
        ok = ok and d < crit
    report(12, f"KS distance below the 1% critical value {crit:.5f}",
           ok, "; ".join(details))


def test_criterion_13_semigroup_decay(models):
    f = V.TestFunction(id="tanh", value=np.tanh,
                       gradient=lambda x: V._sech2(x), osc_bound=2.0)
    t_grid = np.geomspace(0.5, 24.0, 7)
    trace = V.semigroup_decay(models["example_3_3"], f, t_grid,
                              n_paths=160, dt=2e-3, seed=5, n_inner=160)
    v, ci = trace.variance_estimates, trace.confidence_halfwidths
    monotone = np.all(np.diff(v) <= 2.0 * (ci[1:] + ci[:-1]))
    final_ok = v[-1] < 0.10 * v[0]
    ok = monotone and final_ok
    report(13, "decay trace nonincreasing (2 CI) and final < 10% of initial",
           ok, f"initial={v[0]:.4f} final={v[-1]:.4f} "
               f"ratio={v[-1] / v[0]:.3f}")
