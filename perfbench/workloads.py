"""Job lists of the benchmark's workloads.

A job is a dict with an ``id`` and a ``kind``:

* ``cli``  -- ``wpconv run <config>`` through ``cli.main``; ``config`` is the
  run configuration (the output directory is added by the runner);
* ``ks``   -- ``verify.ks_statistic(model, seed, n)``;
* ``norm`` -- ``model.density_normalization(model, return_parts=True)``.

Why each workload exists, and which layer it loads, is written down in
NOTES.md next to this file.
"""

import numpy as np

WORKLOADS = ("tilted", "windowed", "validate", "smoke")

# Seeds of the acceptance suite's statistical checks (criteria 10, 12, 13).
# Their checks are 1%-level or 2-CI draws, so these seeds stay fixed and the
# benchmark seed drives only the 10^6-point WPI sample; NOTES.md records how
# often the checks fail under other corpus and path seeds.
KS_SEEDS = {"example_3_2": 11, "example_3_3": 11, "example_3_4": 11,
            "two_atoms": 7}
CORPUS_SEED = 7
DECAY_SEED = 5
KS_N = 10 ** 5


def _cli(job_id, **config):
    return {"id": job_id, "kind": "cli", "config": config}


def _ks(model, n=KS_N):
    return {"id": f"ks/{model}", "kind": "ks", "model": model,
            "seed": KS_SEEDS[model], "n": n}


def _norm(model):
    return {"id": f"norm/{model}", "kind": "norm", "model": model}


def _sigma_sweep(p):
    return _cli(f"example_3_3/p={p:g}/sigma-sweep", preset="example_3_3", p=p,
                stages=["rate", "fit", "sweep", "stability"],
                sweep={"param": "sigma", "values": [1, 2, 5]})


def _p_sweep(preset, p, values):
    return _cli(f"{preset}/p={p:g}/p-sweep", preset=preset, p=p,
                stages=["rate", "fit", "sweep"],
                sweep={"param": "p", "values": values})


def _sample_seeds(seed):
    """The WPI sampler seed, drawn from the benchmark seed."""
    sampler = np.random.SeedSequence(seed).generate_state(1)[0]
    return {"sampler": int(sampler), "corpus": CORPUS_SEED, "decay": DECAY_SEED}


def jobs(workload, seed):
    """The job list of one iteration of ``workload``."""
    if workload == "tilted":
        return [
            _cli("example_3_1/p=1/rate", preset="example_3_1", p=1,
                 stages=["conditions", "drift", "rate", "fit"],
                 fit={"families": ["power"]}),
            _cli("example_3_3/p=2/case-b-drift", preset="example_3_3", p=2,
                 case="b", stages=["drift"]),
        ]
    if workload == "windowed":
        return [
            _sigma_sweep(2),
            _p_sweep("example_3_2", 0.6, [0.4, 0.5, 0.6, 0.7]),
            # fails at the parent commit: the alpha tables of the three p
            # values share no range (a recorded defect, kept on purpose)
            _p_sweep("example_3_4", 2, [1.5, 2, 3]),
            _sigma_sweep(1.5),
            _sigma_sweep(3),
            _p_sweep("example_3_2", 0.5, [0.4, 0.5, 0.6, 0.7]),
            _p_sweep("example_3_3", 2, [1.5, 2, 3]),
        ]
    if workload == "validate":
        return [
            _cli("example_3_3/p=2/verify-decay", preset="example_3_3", p=2,
                 stages=["verify", "decay", "fit"],
                 seeds=_sample_seeds(seed),
                 samples={"n_wpi": 1_000_000, "n_paths": 128, "n_inner": 128,
                          "t_max": 8}),
            *[_ks(m) for m in ("example_3_2", "example_3_3", "example_3_4",
                               "two_atoms")],
            *[_norm(m) for m in ("example_3_3", "example_3_4", "lemma_3_2")],
        ]
    if workload == "smoke":
        # one small instance of every job kind and every output check
        return [
            _cli("example_3_3/p=2/smoke", preset="example_3_3", p=2,
                 stages=["drift", "rate", "fit", "sweep", "verify", "decay"],
                 sweep={"param": "sigma", "values": [1, 2]},
                 seeds=_sample_seeds(seed),
                 samples={"n_wpi": 20_000, "n_paths": 32, "n_inner": 32,
                          "t_max": 8}),
            _ks("example_3_3", n=10 ** 4),
            _norm("example_3_3"),
        ]
    raise ValueError(f"unknown workload {workload!r} (choose from {WORKLOADS})")


def reference_jobs(workload):
    """Untimed accuracy jobs that give ``norm_err`` and ``ks_ratio`` on the
    workloads whose job list has no KS or normalization job.  example_3_3 is
    the preset every workload runs."""
    if any(j["kind"] in ("ks", "norm") for j in jobs(workload, 0)):
        return []
    return [_ks("example_3_3"), _norm("example_3_3")]


def models_used(workload):
    """(preset, p) pairs plus the named models of the workload, each built
    once during set-up."""
    out = []
    for job in jobs(workload, 0) + reference_jobs(workload):
        if job["kind"] == "cli":
            cfg = job["config"]
            out.append((cfg["preset"], float(cfg["p"])))
            if cfg["preset"] == "example_3_1":
                out.append(("lemma_3_2", float(cfg["p"])))
            if cfg.get("sweep", {}).get("param") == "p":
                out += [(cfg["preset"], float(v)) for v in cfg["sweep"]["values"]]
        else:
            out.append((job["model"], None))
    return sorted(set(out), key=lambda t: (t[0], t[1] or 0.0))


def build_model(wpconv, name, p=None):
    """A named model: a preset, or the acceptance suite's two-atom Gaussian."""
    if name == "two_atoms":
        m = wpconv.model
        return m.ConvolutionModel(m.quadratic_potential(), m.symmetric_pair(1.0))
    return wpconv.presets.make_model(name, p=p)
