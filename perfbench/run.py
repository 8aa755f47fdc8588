"""wpconv benchmark: time the model -> lyapunov -> rates -> verify chain on one
workload, check every job's output, and print the metrics.

    python3 perfbench/run.py --workload {tilted,windowed,validate,smoke}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout that holds ``src/wpconv``; nothing is
installed.  The job list is repeated while another iteration fits in S
seconds (at least once).  With ``--trace 0`` the end-to-end metrics of
BENCHMARK.json are reported; with ``--trace 1`` iterations alternate between
untraced and traced, and the per-layer metrics come from the traced ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file with
the environment, every check and the metrics is written to
``.perfbench_out/``.  See NOTES.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "pass_frac": "1", "order_err": "1", "norm_err": "1",
              "ks_ratio": "1"}


class Bench:
    """One benchmark run: the imported program, its models and the record of
    every job."""

    def __init__(self, workload, seed):
        import wpconv
        import wpconv.cli

        if Path(wpconv.__file__).resolve().parent != SRC / "wpconv":
            raise RuntimeError(f"imported wpconv from {wpconv.__file__}, "
                               f"not from {SRC}")
        self.wpconv = wpconv
        self.jobs = workloads.jobs(workload, seed)
        self.models = {key: workloads.build_model(wpconv, *key)
                       for key in workloads.models_used(workload)}
        self.checks = []
        self.outcomes = {}
        self.job_walls = {}
        self.order_errors = []
        self.norm_errors = []
        self.ks_ratios = []
        self.tracer = None
        (OUT / "jobs").mkdir(parents=True, exist_ok=True)

    # -- one job -----------------------------------------------------------

    def run_job(self, job):
        """Run one job; returns its wall time.  Checks are made afterwards,
        outside the timed region."""
        if self.tracer is not None:
            self.tracer.start_job(job["id"])
        w = self.wpconv
        result, error = None, None
        outdir = None
        if job["kind"] == "cli":
            outdir = tempfile.mkdtemp(dir=OUT / "jobs")
            argv = ["run", json.dumps(job["config"]), "-o", outdir]
        t0 = time.perf_counter()
        try:
            if job["kind"] == "cli":
                result = w.cli.main(argv)
            elif job["kind"] == "ks":
                model = self.models[(job["model"], None)]
                result = w.verify.ks_statistic(model, job["seed"], job["n"])
            else:
                model = self.models[(job["model"], None)]
                result = w.model.density_normalization(model, return_parts=True)
        except Exception as exc:  # a raising job is a failed job, not a crash
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        self.job_walls.setdefault(job["id"], []).append(elapsed)
        self._check(job, result, error, outdir)
        return elapsed

    def _check(self, job, result, error, outdir):
        checks = []
        if error is not None:
            checks.append(checks_mod.Check("exit_status", job["id"], False, error))
        elif job["kind"] == "cli":
            checks, errors = checks_mod.check_cli_job(job, result, outdir)
            self.order_errors += errors
        elif job["kind"] == "ks":
            crit = self.wpconv.verify.ks_critical_value(job["n"], 0.01)
            checks = checks_mod.check_ks(job, result, crit)
            self.ks_ratios.append(result / crit)
        else:
            checks = checks_mod.check_normalization(job, result)
            self.norm_errors.append(abs(result[0] + result[1] - 1.0))
        if outdir is not None:
            if self.tracer is not None:
                # manifest.json holds the timestamp and the output path, so
                # only the other artifacts are byte-reproducible
                self.tracer.counters["cli.artifact_bytes"] += sum(
                    p.stat().st_size for p in Path(outdir).iterdir()
                    if p.is_file() and p.name != "manifest.json")
            shutil.rmtree(outdir)
        self.checks += checks
        ok = all(c.ok for c in checks)
        self.outcomes[job["id"]] = self.outcomes.get(job["id"], True) and ok

    def iteration(self):
        return sum(self.run_job(job) for job in self.jobs)

    # -- reporting ---------------------------------------------------------

    def counts(self, job_ids=None):
        """(attempted, failed) over distinct jobs: a job that ran in several
        iterations counts once, and fails if it failed in any of them.  So the
        counts do not depend on how many iterations fit in the run."""
        ids = self.outcomes if job_ids is None else job_ids
        return len(ids), sum(not self.outcomes[j] for j in ids)

    def correct(self):
        """Every output was checked and is right.  A job that raised or exited
        non-zero counts as failed; it is not a wrong output."""
        return all(c.ok for c in self.checks if c.kind != "exit_status")

    def check_record(self):
        counts = Counter((c.kind, c.job, c.ok, c.detail) for c in self.checks)
        return [{"kind": k, "job": j, "ok": ok, "detail": d, "times": n}
                for (k, j, ok, d), n in counts.items()]


def environment():
    import numpy as np
    import scipy
    import yaml

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name") + " " + str(deps[k].get("version"))
                for k in ("blas", "lapack")}
    except (TypeError, KeyError, AttributeError):
        blas = {}
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "pyyaml": yaml.__version__,
            "blas": blas, "platform": platform.platform(),
            "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS}}


def probe_setup(workload):
    """Seconds from starting a fresh interpreter to its ``ready`` line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"),
                             workload], stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def timed_loop(seconds, step):
    """Call ``step`` while another call fits in ``seconds`` (at least once)."""
    t_start = time.perf_counter()
    out = []
    while True:
        out.append(step(len(out)))
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def end_to_end(bench, workload, seconds, setup):
    """Timed iterations with tracing off; returns (metrics, walls).

    ``wall_s`` is the sum over the job list of each job's median wall.  A
    burst of load on the host then moves one sample of one job, which its
    median drops, instead of the wall of a whole iteration."""
    walls = timed_loop(seconds, lambda i: bench.iteration())
    wall_s = sum(statistics.median(bench.job_walls[job["id"]])
                 for job in bench.jobs)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = bench.counts([job["id"] for job in bench.jobs])
    pass_frac = 1.0 - failed / attempted
    for job in workloads.reference_jobs(workload):
        bench.run_job(job)
    values = {"wall_s": wall_s,
              "setup_s": statistics.median(setup),
              "peak_rss_mb": peak_mb,
              "pass_frac": pass_frac,
              "order_err": max(bench.order_errors, default=math.inf),
              "norm_err": max(bench.norm_errors, default=math.inf),
              "ks_ratio": max(bench.ks_ratios, default=math.inf)}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, walls


def per_layer(bench, workload, seed, seconds):
    """Pairs of one untraced and one traced iteration, in alternating order;
    returns (metrics, walls)."""
    tracer = tracing.Tracer()
    plain, traced = [], []

    def pair(i):
        for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
            if is_traced:
                tracer.install(bench.wpconv)
                bench.tracer = tracer
            try:
                (traced if is_traced else plain).append(bench.iteration())
            finally:
                tracer.uninstall()
                bench.tracer = None

    timed_loop(seconds, pair)
    values, ok, detail = tracer.summary(sum(traced), len(traced))
    values["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
    bench.checks.append(checks_mod.Check("trace_accounting", "trace", ok, detail))
    tracer.save(OUT / f"spans-{workload}-seed{seed}.npz")
    metrics = {k: {"value": values[k], "unit": u} for k, u in tracing.PER_LAYER.items()}
    return metrics, {"plain": plain, "traced": traced}


def run(workload, seed, seconds, trace):
    setup = [] if trace else [probe_setup(workload) for _ in range(SETUP_PROBES)]
    bench = Bench(workload, seed)
    if trace:
        metrics, walls = per_layer(bench, workload, seed, seconds)
    else:
        metrics, walls = end_to_end(bench, workload, seconds, setup)
    shutil.rmtree(OUT / "jobs", ignore_errors=True)
    attempted, failed = bench.counts()
    result = {"correct": bench.correct(), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "walls": walls, "job_walls": bench.job_walls,
              "setup_samples": setup,
              "env": environment(), "checks": bench.check_record(),
              "result": result}
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record):
    print(f"env: {json.dumps(record['env'], sort_keys=True)}")
    walls = record["walls"]
    n = len(walls["traced"] if record["trace"] else walls)
    print(f"workload {record['workload']}, seed {record['seed']}, "
          f"{n} {'traced ' if record['trace'] else ''}iteration(s)")
    for c in record["checks"]:
        if not c["ok"]:
            print(f"FAIL {c['kind']} {c['job']} x{c['times']}: {c['detail']}")
    kinds = sorted({c["kind"] for c in record["checks"]})
    print(f"checks run: {', '.join(kinds)}")
    for name, m in record["result"]["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(record["result"]), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    report(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    if not (SRC / "wpconv" / "__init__.py").is_file():
        print(f"perfbench: no wpconv sources at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        sys.exit(2)
    # one BLAS/OpenMP thread, set before numpy is imported here or in any
    # set-up probe: the LAPACK calls are small, and a second thread that
    # spin-waits for a CPU shared with other processes times the scheduler
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import checks as checks_mod
    import tracing
    import workloads
    sys.exit(main())
