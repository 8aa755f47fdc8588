import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from wpconv import cli
from wpconv import lyapunov as L
from wpconv import model as M
from wpconv import rates as R
from wpconv import verify
from wpconv.errors import ConfigError, DriftConditionFailed


FAST_GRIDS = "grids: {r_min: 1.0e-1, r_max: 1.0e+7, points_per_decade: 80}"


def run_cfg(text, outdir):
    doc = yaml.safe_load(text)
    doc["output_dir"] = str(outdir)
    return cli.run(cli.load_config(doc))


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_load_minimal_preset():
    cfg = cli.load_config("{preset: example_3_3, p: 2, d: 1}")
    assert cfg.preset == "example_3_3"
    assert cfg.p == 2 and cfg.d == 1
    assert cfg.seeds["sampler"] == 20_260_809
    assert cfg.samples["n_wpi"] == 1_000_000


def test_load_rejects_out_of_range_preset_parameter():
    with pytest.raises(ConfigError, match="requires 0 < p < 1"):
        cli.load_config("{preset: example_3_2, p: 1.5}")


def test_load_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="bogus"):
        cli.load_config("{preset: example_3_3, bogus: 1}")
    with pytest.raises(ConfigError, match="grids.bogus"):
        cli.load_config("{preset: example_3_3, grids: {bogus: 2}}")
    with pytest.raises(ConfigError, match="half_factor: unknown key"):
        cli.load_config("{preset: example_3_3, half_factor: false}")


@pytest.mark.parametrize("override, key", [
    ("grids.points_per_decade=0", "grids.points_per_decade"),
    ("grids.points_per_decade=0.5", "grids.points_per_decade"),
    ("grids.r_min=-1", "grids.r_min"),
    ("grids.r_min=abc", "grids.r_min"),
    ("grids.r_min=1e11", "grids.r_min"),  # above example_3_3's default r_max
    ("grids.s_max=1.0e-9", "grids.s_min"),
    ("sweep.values=[]", "sweep.values"),
    ("sweep.values=[a]", "sweep.values"),
    ("R=-1", "R:"),
    ("R0=-1", "R0:"),
    ("nu={kind: uniform, halfwidth: 0}", "nu.halfwidth"),
    ("nu={kind: uniform, halfwith: 2}", "nu.halfwith: unknown key"),
    ("nu=5", "nu: must be a mapping"),
    ("nu={kind: point_mass, p: 2}", "nu.p: unknown key for kind 'point_mass'"),
    ("nu={kind: bogus}", "nu.kind: unknown source kind 'bogus'"),
    ("nu={kind: atoms, locations: [1.0]}", "nu.weights: required for kind 'atoms'"),
    ("sweep.values=[-1, 2]", "sweep.values: sigma must be positive"),
    ("sweep={param: delta, values: [0.5, 1.0]}", "sweep.values: delta must lie"),
    ("sweep={param: p, values: [2, -1]}", "sweep.values: p: example_3_3 requires p > 0"),
    ("sweep={param: R, values: [1, 2]}", "sweep.param"),
    ("d=0", "d"),
    ("d=4", "d"),
    ("d=1.5", "d"),
    ("d=abc", "d"),
    ("fit={families: [bogus]}", "fit.families"),
    ("fit={families: power}", "fit.families"),
    ("fit={families: []}", "fit.families"),
    ("fit={window: 5}", "fit.window"),
    ("fit={window: [1.0e-2, 1.0e-6]}", "fit.window"),
    ("fit={window: [0, 1.0e-2]}", "fit.window"),
    ("grids.points_per_decade=50", "grids.s_max: required"),  # a lone s_min
    ("grids={s_max: 1.0e-3}", "grids.s_min: required"),
])
def test_load_rejects_out_of_range_grids_and_sweeps(override, key, capsys, tmp_path):
    doc = cli.apply_overrides({"preset": "example_3_3", "grids": {"s_min": 1e-8}},
                              [override])
    with pytest.raises(ConfigError, match=key):
        cli.load_config(doc)
    # the run reports the key instead of failing inside a stage
    code = cli.main(["run", "{preset: example_3_3, stages: [rate, sweep], "
                     "grids: {s_min: 1.0e-8}}", "--set", override, "-o", str(tmp_path)])
    assert code == 1 and f"config error: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("override, key", [
    ("samples.n_wpi=1", "samples.n_wpi"),
    ("samples.n_wpi=abc", "samples.n_wpi"),
    ("samples.n_paths=0", "samples.n_paths"),
    ("samples.n_inner=1", "samples.n_inner"),
    ("samples.n_inner=2.5", "samples.n_inner"),
    ("samples.dt=0", "samples.dt"),
    ("samples.dt=.inf", "samples.dt"),
    ("samples.t_max=-1.0", "samples.t_max"),
    ("samples.n_times=0", "samples.n_times"),
    # the default n_times (8) needs a grid that increases from 0.25
    ("samples.t_max=0.25", "samples.t_max"),
    ("samples.t_max=0.1", "samples.t_max"),
])
def test_load_rejects_out_of_range_samples(override, key, capsys, tmp_path):
    doc = cli.apply_overrides({"preset": "example_3_3", "p": 2}, [override])
    with pytest.raises(ConfigError, match=key):
        cli.load_config(doc)
    # the run reports the key instead of writing NaN statistics
    code = cli.main(["run", "{preset: example_3_3, p: 2, stages: [verify, decay]}",
                     "--set", override, "-o", str(tmp_path)])
    assert code == 1 and f"config error: {key}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_load_accepts_the_smallest_samples():
    cfg = cli.load_config("{preset: example_3_3, p: 2, samples: {n_wpi: 2, "
                          "n_paths: 2, n_inner: 2, dt: 1.0e-3, t_max: 0.5, n_times: 1}}")
    assert cfg.samples["n_wpi"] == 2 and cfg.samples["n_times"] == 1


def test_run_decay_of_one_time_reads_t_max(tmp_path):
    """n_times: 1 puts the one time at t_max, which may then lie below 0.25;
    the manifest records the CPUs the run could use."""
    text = ("preset: example_3_3\nstages: [decay]\n"
            "samples: {n_paths: 4, n_inner: 4, dt: 0.01, t_max: 0.1, n_times: 1}\n")
    assert run_cfg(text, tmp_path)[0] == 0
    rows = (tmp_path / "decay.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].split(",")[0] == "0.1"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["cpus"] == verify._cpu_count() >= 1


def test_load_requires_exactly_one_of_preset_custom():
    with pytest.raises(ConfigError, match="exactly one"):
        cli.load_config("{stages: [rate]}")
    with pytest.raises(ConfigError, match="exactly one"):
        cli.load_config(
            "{preset: example_3_3, custom: {potential: {family: quadratic}}}")


def test_load_rejects_custom_potential_dimension():
    with pytest.raises(ConfigError, match="custom.potential.d: must be 1, 2 or 3"):
        cli.load_config("{custom: {potential: {family: quadratic, d: 0}}}")


@pytest.mark.parametrize("family, key", [
    ("power", "p"), ("log", "p"), ("loglog", "p"), ("expression", "expression")])
def test_load_rejects_custom_potential_without_its_parameter(family, key, capsys):
    text = f"{{custom: {{potential: {{family: {family}}}}}, stages: [rate]}}"
    with pytest.raises(ConfigError, match=f"custom.potential.{key}: required"):
        cli.load_config(text)
    assert cli.main(["validate", text]) == 1
    assert f"config error: custom.potential.{key}" in capsys.readouterr().err


CUSTOM = {"custom": {"potential": {"family": "log", "p": 2}}}


@pytest.mark.parametrize("doc, key", [
    ({**CUSTOM, "p": 2}, "p"),
    ({**CUSTOM, "R": 2}, "R"),
    ({**CUSTOM, "nu": {"kind": "uniform"}}, "nu"),
    ({**CUSTOM, "sweep": {"param": "p", "values": [1, 3]}}, "sweep.param"),
    ({"custom": {"potential": {"family": "log", "p": 2},
                 "source": {"kind": "uniform", "weights": [1]}}},
     "custom.source.weights: unknown key for kind 'uniform'"),
    ({"preset": "example_3_3", "nu": {"kind": "uniform", "weights": [1]}},
     "nu.weights: unknown key for kind 'uniform'"),
], ids=["p", "R", "nu", "p-sweep", "custom-source-key", "nu-key"])
def test_load_refuses_keys_the_model_would_ignore(doc, key, capsys):
    """A custom model has no p, R or nu to set or sweep, and a source spec
    sets only its own kind's keys: each is refused, naming the key, instead
    of being read as the default."""
    with pytest.raises(ConfigError, match=key):
        cli.load_config(doc)
    assert cli.main(["validate", json.dumps(doc)]) == 1
    assert f"config error: {key}" in capsys.readouterr().err


def test_load_refuses_a_one_dimensional_source_in_d_2():
    with pytest.raises(ConfigError, match="nu.kind: power_density requires d = 1"):
        cli.load_config({"preset": "example_3_3", "d": 2, "nu": {"kind": "power_density"}})


def test_custom_p_sweep_exits_one(tmp_path, capsys):
    text = json.dumps({**CUSTOM, "grids": {"r_min": 0.1, "r_max": 1e7,
                                            "points_per_decade": 80}})
    assert cli.main(["sweep", text, "--param", "p", "--values", "1,3",
                     "-o", str(tmp_path)]) == 1
    assert "config error: sweep.param" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_lattice_override_transfers_through_its_own_p_twin():
    """A lattice nu of another p than the preset's is compared with the
    power-tail density of its own p, so the density ratio stays near 1."""
    cfg = cli.load_config("{preset: example_3_1, nu: {kind: integer_lattice, p: 3.0}}")
    model, comparison = cli.build_model(cfg)
    assert comparison.source.name == M.power_tail_density(3.0).name
    lo, hi = R._density_ratio_bounds(model, comparison)
    assert 0.5 < lo <= hi < 2.0


def test_load_rejects_unknown_stage():
    with pytest.raises(ConfigError, match="unknown stage"):
        cli.load_config("{preset: example_3_3, stages: [frobnicate]}")


def test_custom_config_round_trips():
    text = ("custom:\n"
            "  potential: {family: expression, expression: x**4, d: 1}\n"
            "  source: {kind: uniform, halfwidth: 1.0}\n"
            "stages: [rate]\n")
    cfg = cli.load_config(text)
    dumped = yaml.safe_dump(cfg.to_dict())
    cfg2 = cli.load_config(dumped)
    assert cfg2.to_dict() == cfg.to_dict()
    model, comparison = cli.build_model(cfg)
    assert comparison is None
    assert model.potential.v0(2.0) == pytest.approx(16.0)


def test_overrides_dotted_paths():
    doc = yaml.safe_load("{preset: example_3_3}")
    cli.apply_overrides(doc, ["p=4", "samples.n_wpi=1000", "nu.kind=point_mass"])
    cfg = cli.load_config(doc)
    assert cfg.p == 4
    assert cfg.samples["n_wpi"] == 1000
    assert cfg.nu == {"kind": "point_mass"}
    with pytest.raises(ConfigError, match="expected key=value"):
        cli.apply_overrides(doc, ["oops"])
    with pytest.raises(ConfigError, match="--set p: value does not parse as YAML"):
        cli.apply_overrides(doc, ["p=[1,2"])


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_no_stages_writes_manifest_only(tmp_path):
    status, _ = run_cfg("{preset: example_3_3, stages: []}", tmp_path)
    assert status == 0
    files = {p.name for p in tmp_path.iterdir()}
    assert files == {"manifest.json"}
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["config"]["preset"] == "example_3_3"


def test_run_rate_and_fit(tmp_path):
    status, art = run_cfg(
        "preset: example_3_3\np: 2\nstages: [rate, fit]\n" + FAST_GRIDS,
        tmp_path)
    assert status == 0
    for name in ("alpha.csv", "beta.csv", "fit.json", "manifest.json"):
        assert (tmp_path / name).exists()
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["family"] == "power"
    assert abs(fit["exponent"] - 1.0) < 0.2
    rows = (tmp_path / "beta.csv").read_text().splitlines()
    assert rows[0] == "r,varphi_phi,beta"


def test_fit_auto_runs_rate(tmp_path):
    status, _ = run_cfg(
        "preset: example_3_3\nstages: [fit]\n" + FAST_GRIDS, tmp_path)
    assert status == 0
    assert (tmp_path / "alpha.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["stages"]["rate"]["ok"]


def test_run_infeasible_radius_exits_two(tmp_path):
    status, _ = run_cfg(
        "{preset: example_3_2, p: 0.6, R0: 0.1, stages: [conditions]}",
        tmp_path)
    assert status == 2
    doc = json.loads((tmp_path / "conditions.json").read_text())
    assert doc["psi_positive"] is False
    assert doc["psi_min"] < 0.0


def test_stage_closure_keeps_the_run_order_and_the_needs():
    """Every subset of STAGES closes over the same stages, in the same order,
    as the rule the stage table replaced."""
    def rule(requested):
        stages = set(requested)
        if "fit" in stages:
            stages.add("rate")
        if "verify" in stages:
            stages.update(("rate", "drift"))
        return [s for s in cli.STAGES if s in stages]

    assert len(cli.STAGES) == 8
    for mask in range(2 ** len(cli.STAGES)):
        subset = [s for i, s in enumerate(cli.STAGES) if mask >> i & 1]
        assert cli._stage_closure(subset) == rule(subset)


def test_run_stability_stage(tmp_path):
    """Compact nu: stability.json reads bounded.  The unbounded lattice of
    lemma_3_2 fails the hypothesis: its document records the error, the
    stage is marked failed and the run exits 2 after the stages before it."""
    status, docs = run_cfg("{preset: example_3_3, p: 2, stages: [stability]}",
                           tmp_path / "compact")
    doc = json.loads((tmp_path / "compact" / "stability.json").read_text())
    assert status == 0 and doc["bounded"] and docs["stability.json"] == doc
    out = tmp_path / "lattice"
    status, _ = run_cfg("preset: lemma_3_2\nstages: [stability, fit]\n" + FAST_GRIDS, out)
    assert status == 2
    doc = json.loads((out / "stability.json").read_text())
    assert doc["bounded"] is False and "compact nu" in doc["error"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stages"]["stability"] == {"ok": False, "note": doc["error"]}
    assert manifest["stages"]["fit"]["ok"] and (out / "fit.json").exists()


def test_stability_reads_the_runs_construction_and_grids(tmp_path):
    """stability.json compares the point-mass and the convolved tables built
    with the run's case, R0 and grids: with R0 = 5 and case cor_b it equals
    compare_stability on such tables and differs from the default run's."""
    text = "{preset: example_3_3, p: 2, R0: 5, case: cor_b, stages: [stability]}"
    status, docs = run_cfg(text, tmp_path / "cor_b")
    cfg = cli.load_config(text)
    model, _ = cli.build_model(cfg)
    r_grid, _, ppd = cli._r_grid(cfg)
    dcfg = L.DriftConfig(case="cor_b", R0=5.0)
    mu = M.ConvolutionModel(model.potential, M.point_mass(), name="mu")
    tables = [R.rate_tables(m, dcfg, r_grid=r_grid, points_per_decade=ppd).alpha
              for m in (mu, model)]
    assert status == 0 and docs["stability.json"]["bounded"]
    assert docs["stability.json"] == R.compare_stability(mu, model, dcfg, *tables)
    _, default = run_cfg("{preset: example_3_3, p: 2, stages: [stability]}",
                         tmp_path / "default")
    assert default["stability.json"]["bounded"]
    assert default["stability.json"] != docs["stability.json"]


def test_sweep_and_stability_follow_the_runs_s_range(tmp_path):
    """With grids.s_min/s_max, the sigma sweep and the stability comparison
    read the rate stage's alpha on that range: sweep.csv's sigma = 1 column
    is alpha.csv read at its s, and every s lies in [s_min, s_max]."""
    status, docs = run_cfg(
        "{preset: example_3_3, p: 2, stages: [rate, sweep, stability], "
        "sweep: {values: [1, 2]}, grids: {s_min: 1.0e-5, s_max: 1.0e-3}}", tmp_path)
    assert status == 0
    alpha = np.loadtxt(tmp_path / "alpha.csv", delimiter=",", skiprows=1)
    sweep = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1)
    assert (alpha[0, 0], alpha[-1, 0]) == pytest.approx((1e-5, 1e-3), rel=1e-12)
    table = R.RateTable(grid=alpha[:, 0], values=alpha[:, 1])
    np.testing.assert_array_equal(sweep[:, 1], table.value_at(sweep[:, 0]))
    stab = docs["stability.json"]
    for lo, hi in ((sweep[0, 0], sweep[-1, 0]), (stab["s_min"], stab["s_max"])):
        assert 1e-5 <= lo < hi <= 1e-3
    assert stab["bounded"]


def test_run_builds_each_rate_table_once(tmp_path, monkeypatch):
    """The rate stage's table is the sigma = 1 sweep entry, the p sweep's
    entry at the run's own p and the stability stage's convolved table."""
    calls = []
    build = R.rate_tables

    def counting(model, cfg, *args, **kw):
        calls.append((model.name, cfg.sigma))
        return build(model, cfg, *args, **kw)

    monkeypatch.setattr(R, "rate_tables", counting)
    status, _ = run_cfg("{preset: example_3_3, p: 2, stages: [rate, fit, sweep, "
                        "stability], sweep: {param: sigma, values: [1, 2, 5]}}",
                        tmp_path / "sigma")
    assert status == 0
    assert calls == [("example_3_3", 1.0), ("example_3_3", 2), ("example_3_3", 5),
                     ("example_3_3_base", 1.0)]
    calls[:] = []
    status, _ = run_cfg("{preset: example_3_3, p: 2, stages: [rate, fit, sweep], "
                        "sweep: {param: p, values: [1.5, 2, 3]}}", tmp_path / "p")
    assert status == 0 and len(calls) == 3


def test_short_fit_window_is_an_inconclusive_fit(tmp_path):
    """A fit window holding fewer than 10 nodes of the alpha grid records an
    inconclusive fit: fit.json reads conclusive false and the run exits 2,
    and a p sweep records it per p."""
    window = "fit: {window: [1.0e-12, 1.0e-11]}"
    out = tmp_path / "fit"
    assert cli.main(["run", "{preset: example_3_3, p: 2, stages: [fit], " + window + "}",
                     "-o", str(out)]) == 2
    fit = json.loads((out / "fit.json").read_text())
    assert fit["conclusive"] is False and "fewer than 10" in fit["error"]
    out = tmp_path / "sweep"
    assert cli.main(["run", "{preset: example_3_3, p: 2, stages: [sweep], "
                     "sweep: {param: p, values: [1.5, 2]}, " + window + "}",
                     "-o", str(out)]) == 0
    fits = json.loads((out / "sweep.json").read_text())["fits"]
    assert set(fits) == {"p=1.5", "p=2"}
    for doc in fits.values():
        assert doc["conclusive"] is False and "fewer than 10" in doc["error"]


def test_run_stops_at_the_stage_whose_r0_scan_fails(tmp_path, monkeypatch):
    """With no radius of positive drift, conditions reports from its
    fallback radius, drift is marked failed and rate does not run; the scan
    is tried once for the run, once by conditions and once by drift."""
    scans = []

    def failing(model, cfg):
        if cfg.R0 is not None:
            return cfg
        scans.append(model.name)
        raise DriftConditionFailed("no radius with stable positive drift found")

    monkeypatch.setattr(L, "resolve_r0", failing)
    status, _ = run_cfg("{preset: example_3_3, stages: [conditions, drift, rate]}",
                        tmp_path)
    assert status == 2 and scans == ["example_3_3"] * 3
    assert json.loads((tmp_path / "conditions.json").read_text())["R0"] == 2.0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["stages"]["drift"] == {
        "ok": False, "note": "DriftConditionFailed: no radius with stable positive "
                             "drift found"}
    assert set(manifest["stages"]) == set(manifest["timings"]) == {"conditions", "drift"}
    assert not (tmp_path / "certificate.json").exists()
    assert not (tmp_path / "beta.csv").exists()


def test_run_records_an_unexpected_error_in_the_manifest(tmp_path, capsys):
    """The alpha tables of example_3_4 at p = 1.5 and 3 share no range: the
    manifest names the stage and the error, and the run exits 1."""
    text = "{preset: example_3_4, stages: [sweep], sweep: {param: p, values: [1.5, 3]}}"
    assert cli.main(["run", text, "-o", str(tmp_path)]) == 1
    assert "stage 'sweep' failed: alpha tables have no common range" \
        in capsys.readouterr().err
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["error"] == "sweep: ValueError: alpha tables have no common range"
    assert manifest["stages"] == {} and set(manifest["timings"]) == {"sweep"}


def test_run_artifacts_are_reproducible(tmp_path):
    """Two runs write the same bytes: the drift certificate, the rate
    tables, the fit and the sigma sweep; the manifest differs in its
    timestamp and its stage wall times alone."""
    a, b = tmp_path / "a", tmp_path / "b"
    text = ("preset: example_3_3\nstages: [drift, rate, fit, sweep]\n"
            "sweep: {param: sigma, values: [1, 2]}\n"
            "grids: {r_min: 1.0e-1, r_max: 1.0e+7, points_per_decade: 80, "
            "certificate_points: 40}\n")
    assert run_cfg(text, a)[0] == 0
    run_cfg(text, b)
    for name in ("certificate.json", "alpha.csv", "beta.csv", "fit.json",
                 "sweep.json", "sweep.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    for m in (ma, mb):
        timings = m.pop("timings")
        assert set(timings) == set(m["stages"]) == {"drift", "rate", "fit", "sweep"}
        assert all(np.isfinite(t) and t >= 0.0 for t in timings.values())
    ma.pop("timestamp"), mb.pop("timestamp")
    ma["config"].pop("output_dir"), mb["config"].pop("output_dir")
    assert ma == mb


def test_run_drift_certificate_stage(tmp_path):
    status, _ = run_cfg(
        "{preset: example_3_3, stages: [drift], grids: {certificate_points: 40}}",
        tmp_path)
    assert status == 0
    doc = json.loads((tmp_path / "certificate.json").read_text())
    assert doc["valid"] and doc["violation_fraction"] == 0.0
    assert doc["c0"] == pytest.approx(doc["b"] * doc["lambda_inv_bound"] + 1.0)


def test_run_verify_stage_small(tmp_path):
    text = ("preset: example_3_3\nstages: [verify]\n"
            "samples: {n_wpi: 20000}\n"
            "grids: {r_min: 1.0e-1, r_max: 1.0e+7, points_per_decade: 80, "
            "n_wpi_r: 8, certificate_points: 40}\n")
    status, art = run_cfg(text, tmp_path)
    assert status == 0
    doc = json.loads((tmp_path / "wpi_report.json").read_text())
    assert doc["passed"] and doc["holdout_violations"] == 0
    # closure pulled in rate and drift
    assert (tmp_path / "alpha.csv").exists()
    assert (tmp_path / "certificate.json").exists()


@pytest.mark.parametrize("d", [2, 3])
def test_run_verify_stage_in_d_above_1(d, tmp_path):
    """A heavy log tail (p = 1) in d = 2 and 3: the radial sampler draws it
    and the WPI corpus, on the first coordinate, passes."""
    text = (f"custom: {{potential: {{family: log, p: 1}}}}\nd: {d}\nstages: [verify]\n"
            "samples: {n_wpi: 20000}\n"
            "grids: {r_min: 1.0e-1, r_max: 1.0e+7, points_per_decade: 80, "
            "n_wpi_r: 8, certificate_points: 40}\n")
    status, _ = run_cfg(text, tmp_path)
    assert status == 0
    assert json.loads((tmp_path / "wpi_report.json").read_text())["passed"]


def test_run_decay_stage_small(tmp_path):
    text = ("preset: example_3_3\nstages: [decay]\n"
            "samples: {n_paths: 12, n_inner: 8, dt: 0.01, t_max: 1.0, n_times: 3}\n")
    status, _ = run_cfg(text, tmp_path)
    assert status == 0
    rows = (tmp_path / "decay.csv").read_text().splitlines()
    assert rows[0] == "t,variance,ci_halfwidth"
    assert len(rows) == 4
    assert all(len([float(v) for v in row.split(",")]) == 3 for row in rows[1:])
    assert not (tmp_path / "decay.csv.tmp").exists()


def test_run_resolves_r0_once_for_its_stages(tmp_path, monkeypatch):
    """conditions, drift and rate share one R0 scan, and their artifacts
    equal those of runs that each resolve R0 themselves."""
    text = ("preset: example_3_3\n"
            "grids: {r_min: 1.0e-1, r_max: 1.0e+7, points_per_decade: 80, "
            "certificate_points: 40}\n")
    scans = []
    resolve = L.resolve_r0

    def counting(model, cfg, *args, **kw):
        if cfg.R0 is None:
            scans.append(model.name)
        return resolve(model, cfg, *args, **kw)

    monkeypatch.setattr(L, "resolve_r0", counting)
    both = tmp_path / "both"
    status, _ = run_cfg(text + "stages: [conditions, drift, rate]\n", both)
    assert status == 0
    assert scans == ["example_3_3"]
    for stage, name in (("conditions", "conditions.json"),
                        ("drift", "certificate.json"), ("rate", "beta.csv")):
        alone = tmp_path / stage
        run_cfg(text + f"stages: [{stage}]\n", alone)
        assert (alone / name).read_bytes() == (both / name).read_bytes()


def test_sweep_single_value_degenerates(tmp_path):
    cfg = cli.load_config(
        "preset: example_3_3\nstages: []\noutput_dir: " + str(tmp_path)
        + "\n" + FAST_GRIDS)
    status, _ = cli.sweep(cfg, "sigma", [1.0])
    assert status == 0
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert doc["pairs"] == {}
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("s,alpha_sigma_1")


def test_sigma_sweep_csv_holds_the_compared_tables(tmp_path):
    """sweep.csv tabulates the runs sweep.json compares, at the user's R0
    and on the run's r grid and points per decade."""
    cfg = cli.load_config(
        "preset: example_3_3\nR0: 5.0\nstages: []\noutput_dir: " + str(tmp_path)
        + "\n" + FAST_GRIDS)
    status, _ = cli.sweep(cfg, "sigma", [1.0, 2.0])
    assert status == 0
    data = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1)
    model, _ = cli.build_model(cfg)
    r_grid, _, ppd = cli._r_grid(cfg)
    for col, sig in enumerate((1.0, 2.0), start=1):
        res = R.rate_tables(model, L.DriftConfig(case="cor_a", R0=5.0, sigma=sig),
                            r_grid=r_grid, points_per_decade=ppd)
        np.testing.assert_array_equal(data[:, col], res.alpha.value_at(data[:, 0]))


def test_delta_sweep_csv_holds_the_tables_at_the_users_R0(tmp_path):
    """sweep.csv of a delta sweep tabulates case-cor_b runs at the user's R0
    and on the run's r grid and points per decade."""
    cfg = cli.load_config(
        "preset: example_3_3\nR0: 5.0\nstages: []\noutput_dir: " + str(tmp_path)
        + "\n" + FAST_GRIDS)
    status, _ = cli.sweep(cfg, "delta", [0.5, 0.75])
    assert status == 0
    data = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1)
    model, _ = cli.build_model(cfg)
    r_grid, _, ppd = cli._r_grid(cfg)
    for col, delta in enumerate((0.5, 0.75), start=1):
        res = R.rate_tables(model, L.DriftConfig(case="cor_b", R0=5.0, delta=delta),
                            r_grid=r_grid, points_per_decade=ppd)
        np.testing.assert_array_equal(data[:, col], res.alpha_final.value_at(data[:, 0]))


def test_sweep_p_recovers_both_exponents(tmp_path):
    """p-sweep of the lattice preset: fitted power exponents track 2/p."""
    cfg = cli.load_config(
        "preset: example_3_1\nstages: []\noutput_dir: " + str(tmp_path)
        + "\ngrids: {r_min: 1.0, r_max: 1.0e+8, points_per_decade: 100}\n"
        + "fit: {families: [power]}\n")
    status, _ = cli.sweep(cfg, "p", [1.0, 2.0])
    assert status == 0
    doc = json.loads((tmp_path / "sweep.json").read_text())
    exps = {k: v["exponent"] for k, v in doc["fits"].items()}
    assert abs(exps["p=1"] - 2.0) < 0.3
    assert abs(exps["p=2"] - 1.0) < 0.2
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("s,alpha_p=1,alpha_p=2")


def test_main_subcommands(tmp_path, capsys):
    assert cli.main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "example_3_3" in out and "lemma_3_2" in out
    assert cli.main(["validate", "{preset: example_3_3}"]) == 0
    assert cli.main(["validate", "{preset: example_3_2, p: 1.5}"]) == 1
    assert cli.main(["validate", "{preset: example_3_2}",
                     "--set", "p=1.5"]) == 1
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text("preset: example_3_3\nstages: []\n")
    assert cli.main(["run", str(cfgfile), "-o", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "manifest.json").exists()


def test_main_reports_malformed_yaml_as_config_error(tmp_path, capsys):
    cfgfile = tmp_path / "bad.yaml"
    cfgfile.write_text("preset: example_3_3\np: [1, 2\n")
    assert cli.main(["validate", str(cfgfile)]) == 1
    assert "config error" in capsys.readouterr().err
    assert cli.main(["validate", "{preset: example_3_3}", "--set", "p=[1,2"]) == 1
    assert "config error: --set p" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# runtime dependencies: numpy and PyYAML only
# ---------------------------------------------------------------------------

SRC = Path(cli.__file__).resolve().parents[1]

BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
"""


def _python(code, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def test_import_leaves_scipy_unloaded(tmp_path):
    proc = _python("import sys\nimport wpconv, wpconv.cli\n"
                   "assert 'scipy' not in sys.modules, sorted(sys.modules)\n", tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_run_succeeds_with_scipy_blocked(tmp_path):
    """The lattice (Hurwitz-zeta tail) and power-tail (panel tail) sources
    build and run the rate chain with every scipy import failing."""
    runs = []
    for name in ("example_3_1", "lemma_3_2"):
        text = f"preset: {name}\nstages: [rate, fit]\n" + FAST_GRIDS
        runs.append(f"assert cli.main(['run', {text!r}, '-o', {str(tmp_path / name)!r}]) == 0")
    code = BLOCK_SCIPY + "\n".join([
        "from wpconv import cli, presets",
        "presets.make_model('example_3_1')",
        "presets.make_model('lemma_3_2')",
        *runs,
        "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)",
    ])
    proc = _python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("example_3_1", "lemma_3_2"):
        assert (tmp_path / name / "fit.json").exists()
