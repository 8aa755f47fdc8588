"""Span tracing of the calls into each wpconv layer, from outside ``src/``.

``Tracer.install`` replaces module attributes with wrappers that record one
span per call: name, layer, start, end, parent span and job id.  wpconv looks
these names up at call time (``model_mod.p_nu(...)``, ``p_nu(...)`` inside
``model``, ``np.polynomial.legendre.leggauss(...)``), so the wrappers see both
cross-module and intra-module calls.  Names that do not exist are skipped, so
a later refactor of ``src/`` cannot break the benchmark.

Spans live in compact in-memory arrays and are written out by ``save``.  A
layer's self time is the duration of its spans minus the time covered by
their child spans; time covered by no span is ``other``.
"""

import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("model", "lyapunov", "rates", "verify", "presets", "cli")

# per-layer metrics and their units, per traced iteration of the job list
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "model.eval_points": "count", "model.eval_us_per_point": "us",
    "model.leggauss_calls": "count", "model.leggauss_s": "s",
    "model.batch_points": "count", "model.batch_us_per_point": "us",
    "model.tail_s": "s",
    "lyapunov.phi_builds": "count", "lyapunov.radii": "count",
    "lyapunov.r0_scans": "count", "lyapunov.r0_scan_s": "s",
    "lyapunov.cert_points": "count", "lyapunov.cert_s": "s",
    "rates.rate_tables_calls": "count", "rates.varphi_points": "count",
    "rates.r_kept_ratio": "1",
    "verify.samples": "count", "verify.path_steps": "count",
    "verify.ns_per_path_step": "ns",
    "cli.artifact_bytes": "B",
    "other.self_s": "s", "trace.spans": "count", "trace.wall_s": "s",
    "trace.overhead": "1",
}

# private names other modules call, and public helpers outside __all__
_EXTRA = {
    "model": ("_batch_log_p", "_profile_reach", "_v0_of_log", "_log_panel_rule",
              "mu_tail_table"),
    "rates": ("_shared_s_grid",),
    "cli": ("run", "build_model", "load_config"),
}

_EVAL = {"p_nu", "v_nu", "v_nu_and_grad", "tilted_u_moment",
         "tilted_expectation"}
_TAIL = {"measure_tail", "mu_tail_table", "power_potential", "log_potential",
         "loglog_potential", "smooth_well_potential", "quadratic_potential",
         "expression_potential", "point_mass", "discrete_atoms",
         "symmetric_pair", "integer_lattice", "uniform_density",
         "power_tail_density"}


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _n_points(args, kwargs):
    model, x = args[0], _arg(args, kwargs, 1, "x")
    return max(np.size(x) // max(int(getattr(model, "d", 1)), 1), 1)


def _path_steps(args, kwargs):
    """n_paths * n_inner * Euler steps of one ``semigroup_decay`` call,
    counted the way its time loop counts them."""
    t_grid = np.asarray(_arg(args, kwargs, 2, "t_grid"), dtype=float)
    n_paths = int(_arg(args, kwargs, 3, "n_paths"))
    dt = float(_arg(args, kwargs, 4, "dt"))
    n_inner = int(_arg(args, kwargs, 6, "n_inner", 256))
    steps, t_now = 0, 0.0
    for t in t_grid:
        k = int(round((t - t_now) / dt))
        steps += k
        t_now += k * dt
    return n_paths * n_inner * steps


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.names = []
        self._name_id = {}
        self.job_ids = []
        self.name = array("i")
        self.layer = array("b")
        self.parent = array("i")
        self.job = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counters = defaultdict(float)
        self._stack = []
        self._job = -1
        self._patched = []

    # -- installation ------------------------------------------------------

    def install(self, wpconv):
        """Wrap every function of the layers' public API, the private names
        other modules call, and numpy's Gauss-Legendre rule."""
        for layer in LAYERS:
            mod = getattr(wpconv, layer)
            names = list(getattr(mod, "__all__", ())) + list(_EXTRA.get(layer, ()))
            for name in names:
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn):
                    self._wrap(mod, name, LAYERS.index(layer))
        self._wrap(np.polynomial.legendre, "leggauss", -1)

    def uninstall(self):
        for owner, name, fn in reversed(self._patched):
            setattr(owner, name, fn)
        self._patched.clear()

    def start_job(self, job_id):
        self.job_ids.append(job_id)
        self._job = len(self.job_ids) - 1

    def _wrap(self, owner, name, layer):
        fn = getattr(owner, name)
        nid = self._name_id.setdefault(name, len(self._name_id))
        if nid == len(self.names):
            self.names.append(name)
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            # leggauss belongs to the layer that asked for the rule
            lay = layer if layer >= 0 else (tracer.layer[parent] if parent >= 0 else 0)
            idx = len(tracer.t0)
            tracer.name.append(nid)
            tracer.layer.append(lay)
            tracer.parent.append(parent)
            tracer.job.append(tracer._job)
            tracer.t1.append(0.0)
            stack.append(idx)
            tracer.t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.t1[idx] = clock()
                stack.pop()
            tracer._count(name, idx, parent, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, fn))

    # -- work counters -----------------------------------------------------

    def _count(self, name, idx, parent, args, kwargs, result):
        c = self.counters
        dur = self.t1[idx] - self.t0[idx]
        pname = self.names[self.name[parent]] if parent >= 0 else None
        if name in _EVAL:
            if pname not in _EVAL:
                c["model.eval_points"] += _n_points(args, kwargs)
                c["model.eval_s"] += dur
        elif name == "leggauss":
            c["model.leggauss_calls"] += 1
            c["model.leggauss_s"] += dur
        elif name == "_batch_log_p":
            if pname != "_batch_log_p":
                c["model.batch_points"] += np.size(_arg(args, kwargs, 1, "xs"))
                c["model.batch_s"] += dur
        elif name in _TAIL:
            if not self._inside(parent, _TAIL):
                c["model.tail_s"] += dur
        elif name in ("phi_case_a", "phi_case_b"):
            c["lyapunov.phi_builds"] += 1
            c["lyapunov.radii"] += np.size(result.grid)
        elif name == "resolve_r0":
            if pname != "resolve_r0":
                c["lyapunov.r0_scans"] += 1
                c["lyapunov.r0_scan_s"] += dur
        elif name == "drift_check":
            c["lyapunov.cert_points"] += result.n_points
            c["lyapunov.cert_s"] += dur
        elif name == "rate_tables":
            c["rates.rate_tables_calls"] += 1
            r_grid = _arg(args, kwargs, 2, "r_grid")
            if r_grid is not None:
                c["rates.r_requested"] += np.size(r_grid)
                c["rates.r_kept"] += np.size(result.beta.grid)
        elif name == "varphi_phi":
            if pname != "varphi_phi":
                c["rates.varphi_points"] += np.size(_arg(args, kwargs, 1, "r"))
        elif name == "sample_convolution":
            c["verify.samples"] += int(_arg(args, kwargs, 2, "n"))
        elif name == "semigroup_decay":
            c["verify.path_steps"] += _path_steps(args, kwargs)

    def _inside(self, idx, names):
        while idx >= 0:
            if self.names[self.name[idx]] in names:
                return True
            idx = self.parent[idx]
        return False

    # -- reduction ---------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the time of direct children."""
        t0 = np.frombuffer(self.t0, dtype=float)
        t1 = np.frombuffer(self.t1, dtype=float)
        dur = t1 - t0
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur - child, parent

    def summary(self, wall, iterations):
        """Per-layer metrics per traced iteration, and a check that the
        layers' self times plus ``other`` account for the traced wall time."""
        self_t, parent = self.self_times()
        layer = np.frombuffer(self.layer, dtype=np.int8)
        name = np.frombuffer(self.name, dtype=np.int32)
        # union of the root spans' intervals: time inside any span
        roots = parent < 0
        t0 = np.frombuffer(self.t0, dtype=float)[roots]
        t1 = np.frombuffer(self.t1, dtype=float)[roots]
        order = np.argsort(t0)
        covered, end = 0.0, -np.inf
        for a, b in zip(t0[order], t1[order]):
            if b > end:
                covered += b - max(a, end)
                end = b
        other = wall - covered
        per = float(iterations)
        m = {}
        layer_self = {}
        for i, lay in enumerate(LAYERS):
            layer_self[lay] = float(self_t[layer == i].sum())
            m[f"{lay}.self_s"] = layer_self[lay] / per
        c = self.counters

        def ratio(num, den, scale):
            return num / den * scale if den else 0.0

        m["model.eval_points"] = c["model.eval_points"] / per
        m["model.eval_us_per_point"] = ratio(c["model.eval_s"],
                                             c["model.eval_points"], 1e6)
        m["model.leggauss_calls"] = c["model.leggauss_calls"] / per
        m["model.leggauss_s"] = c["model.leggauss_s"] / per
        m["model.batch_points"] = c["model.batch_points"] / per
        m["model.batch_us_per_point"] = ratio(c["model.batch_s"],
                                              c["model.batch_points"], 1e6)
        m["model.tail_s"] = c["model.tail_s"] / per
        for k in ("phi_builds", "radii", "r0_scans", "r0_scan_s",
                  "cert_points", "cert_s"):
            m[f"lyapunov.{k}"] = c[f"lyapunov.{k}"] / per
        m["rates.rate_tables_calls"] = c["rates.rate_tables_calls"] / per
        m["rates.varphi_points"] = c["rates.varphi_points"] / per
        m["rates.r_kept_ratio"] = ratio(c["rates.r_kept"],
                                        c["rates.r_requested"], 1.0)
        m["verify.samples"] = c["verify.samples"] / per
        m["verify.path_steps"] = c["verify.path_steps"] / per
        decay = self._name_id.get("semigroup_decay", -1)
        m["verify.ns_per_path_step"] = ratio(float(self_t[name == decay].sum()),
                                             c["verify.path_steps"], 1e9)
        m["cli.artifact_bytes"] = c["cli.artifact_bytes"] / per
        m["other.self_s"] = other / per
        m["trace.spans"] = len(self.t0) / per
        m["trace.wall_s"] = wall / per
        accounted = sum(layer_self.values()) + other
        nested = bool(np.all(self_t >= -1e-9)) and other >= -1e-9
        ok = nested and abs(accounted - wall) <= 1e-6 * max(wall, 1.0)
        detail = (f"layer self times {sum(layer_self.values()):.6f} s + other "
                  f"{other:.6f} s = {accounted:.6f} s vs traced wall "
                  f"{wall:.6f} s; spans nested inside the jobs: {nested}")
        return m, ok, detail

    def save(self, path):
        """Write every span: name, layer, start, end, parent, job."""
        np.savez_compressed(
            path, names=np.array(self.names), layers=np.array(LAYERS),
            job_ids=np.array(self.job_ids),
            name=np.frombuffer(self.name, dtype=np.int32),
            layer=np.frombuffer(self.layer, dtype=np.int8),
            t0=np.frombuffer(self.t0, dtype=float),
            t1=np.frombuffer(self.t1, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32))
