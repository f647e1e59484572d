"""In-memory span tracer that wraps vectorhost's public functions from outside.

Spans are recorded at module boundaries only: each wrapper replaces the
name a calling module looks up (for example vectorhost.periodic's global
integrate_over_period), so nothing under src/ changes and per-step kernels
(stepper's step and tridiagonal solves) stay unwrapped.  Work the program
does per step is derived from the arguments of the period-map and
trajectory calls and labelled computed.

A span is (id, name, start, end, parent, op, thread, wall, cpu, attrs).
Spans stay in memory; write_jsonl dumps them once the pass is over.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from collections import defaultdict

MODULES = ("cli", "config", "dynamics", "periodic", "eigen", "stepper",
           "grid", "coeffs")
EIGEN_NAMES = ("zeta", "gamma_rho", "lambda_V", "lambda_V_eps")
MAP_KINDS = ("logistic", "truncated", "linear")
# derived from call arguments, not counted where the work happens
COMPUTED = ("stepper.tridiag_solves", "stepper.trajectory_steps")


def _solves_per_step(system) -> int:
    """Tridiagonal solves one IMEX step of this system performs."""
    kind = getattr(system, "kind", None)
    if kind is None:                       # LinearPeriodicSystem
        return len(system.comps)
    return {"logistic": 1, "truncated": 2, "full": 3}[kind]


def _period_map_attrs(args, kwargs):
    system = args[0]
    m = system.grid.steps_per_period
    return {"kind": getattr(system, "kind", "linear"),
            "solves": m * _solves_per_step(system)}


def _trajectory_attrs(args, kwargs):
    model = args[0]
    n_periods = args[2] if len(args) > 2 else kwargs["n_periods"]
    steps = n_periods * model.grid.steps_per_period
    return {"steps": steps, "solves": steps * _solves_per_step(model)}


def _field_key_attrs(args, kwargs):
    e, x, t = args[:3]
    shape = getattr(x, "shape", ())
    first = float(x.flat[0]) if getattr(x, "size", 0) else None
    return {"key": (e, shape, first, float(t))}


def _eigen_result(attrs, result):
    attrs["iterations"] = result.iterations


# (calling module, attribute, span name, attrs from args, attrs from result)
_TARGETS = [
    ("cli", "load_config", "config.load_config", None, None),
    ("cli", "substituted_coeffs", "config.substituted_coeffs", None, None),
    ("config", "build_grid", "grid.build_grid", None, None),
    ("cli", "validate_hypothesis_H", "coeffs.validate_hypothesis_H", None, None),
    ("cli", "classify_regime", "dynamics.classify_regime", None, None),
    ("dynamics", "classify_regime", "dynamics.classify_regime", None, None),
    ("cli", "verify_trichotomy", "dynamics.verify_trichotomy", None, None),
    ("cli", "build_initial_state", "dynamics.build_initial_state", None, None),
    ("dynamics", "solve_logistic_orbit", "periodic.solve_logistic_orbit", None, None),
    ("cli", "solve_logistic_orbit", "periodic.solve_logistic_orbit", None, None),
    ("dynamics", "solve_endemic_pair", "periodic.solve_endemic_pair", None, None),
    ("cli", "solve_endemic_pair", "periodic.solve_endemic_pair", None, None),
    ("periodic", "solve_Hbar", "periodic.solve_Hbar", None, None),
    ("cli", "solve_Hbar", "periodic.solve_Hbar", None, None),
    ("periodic", "integrate_over_period", "stepper.integrate_over_period",
     _period_map_attrs, None),
    ("periodic", "prepare", "stepper.prepare", None, None),
    ("stepper", "prepare", "stepper.prepare", None, None),
    ("dynamics", "integrate_trajectory", "stepper.integrate_trajectory",
     _trajectory_attrs, None),
    ("cli", "integrate_trajectory", "stepper.integrate_trajectory",
     _trajectory_attrs, None),
    ("stepper", "assemble_diffusion", "grid.assemble_diffusion", None, None),
    ("eigen", "assemble_diffusion", "grid.assemble_diffusion", None, None),
]
_TARGETS += [(mod, name, f"eigen.{name}", None, _eigen_result)
             for mod, names in (("periodic", EIGEN_NAMES),
                                ("dynamics", ("lambda_V",)),
                                ("cli", ("gamma_rho", "lambda_V", "lambda_V_eps")))
             for name in names]
_TARGETS += [(mod, "field_values", "coeffs.field_values", _field_key_attrs, None)
             for mod in ("coeffs", "grid", "stepper", "eigen", "periodic",
                         "dynamics")]


class Tracer:
    """Collects spans while installed; one instance per traced pass."""

    def __init__(self):
        self.spans = []
        self.op = None
        # next() on a count is atomic under the GIL, so no lock is needed
        self._span_ids = itertools.count(1)
        self._thread_ids = itertools.count(0)
        self._local = threading.local()
        self._main_stack = None
        self._saved = []

    # ── recording ──────────────────────────────────────────────────────────

    def _stack(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.thread = next(self._thread_ids)
        return stack

    def _wrap(self, name, fn, from_args, from_result):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                # a pool thread: attribute the span to whatever the
                # operation's own thread is blocked in
                parent = tracer._main_stack[-1]
            else:
                parent = None
            sid = next(tracer._span_ids)
            attrs = from_args(args, kwargs) if from_args else {}
            stack.append(sid)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            else:
                if from_result:
                    from_result(attrs, result)
                return result
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, tracer.op,
                                     tracer._local.thread, c1 - c0, attrs))

        traced.__wrapped__ = fn
        return traced

    def begin_op(self, op_id):
        """Mark the calling thread as the one running operation op_id."""
        self.op = op_id
        self._main_stack = self._stack()

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span (the operation's root span)."""
        return self._wrap(name, fn, None, None)(*args)

    # ── installation ───────────────────────────────────────────────────────

    def install(self, vh_modules: dict) -> None:
        """Replace each target name in its calling module with a wrapper.

        vh_modules maps the short module name to the imported module.
        """
        for mod, attr, name, from_args, from_result in _TARGETS:
            module = vh_modules[mod]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, from_args,
                                             from_result))
        dispatch = vh_modules["cli"]._DISPATCH
        for command, original in list(dispatch.items()):
            self._saved.append((dispatch, command, original))
            dispatch[command] = self._wrap(f"cli.{original.__name__}",
                                           original, None, None)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._saved):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._saved.clear()

    # ── output ─────────────────────────────────────────────────────────────

    def write_jsonl(self, path: str, t_origin: float) -> None:
        """One JSON object per span, gzipped, times in seconds from t_origin."""
        selfs = self_times(self.spans)
        with gzip.open(path, "wt", compresslevel=1) as f:
            for sid, name, t0, t1, parent, op, thread, cpu, attrs in self.spans:
                rec = {"id": sid, "name": name, "start": t0 - t_origin,
                       "end": t1 - t_origin, "parent": parent, "op": op,
                       "thread": thread, "wall": t1 - t0, "cpu": cpu,
                       "self": selfs[sid]}
                rec.update({k: v for k, v in attrs.items() if k != "key"})
                f.write(json.dumps(rec) + "\n")


# ── analysis ───────────────────────────────────────────────────────────────


def self_times(spans) -> dict:
    """Span wall time minus the part of it that child spans cover.

    Children may run on other threads and overlap, so their intervals are
    merged before being subtracted.
    """
    children = defaultdict(list)
    for sid, _, t0, t1, parent, *_ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _, t0, t1, *_ in spans:
        covered = 0.0
        lo = hi = None
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, t0), min(c1, t1)
            if c1 <= c0:
                continue
            if hi is None or c0 > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c0, c1
            else:
                hi = max(hi, c1)
        if hi is not None:
            covered += hi - lo
        out[sid] = (t1 - t0) - covered
    return out


def layer_metrics(spans) -> dict:
    """Per-layer counts and times summed over every span of the pass."""
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    count = defaultdict(int)
    total = defaultdict(float)
    module_self = defaultdict(float)
    module_wait = defaultdict(float)
    maps = defaultdict(int)
    map_s = defaultdict(float)
    solves = iterations = traj_steps = 0
    pair_periods = 0
    field_keys = set()

    def inside(span, name):
        parent = span[4]
        while parent is not None:
            p = by_id[parent]
            if p[1] == name:
                return True
            parent = p[4]
        return False

    for span in spans:
        sid, name, t0, t1, parent, op, thread, cpu, attrs = span
        wall = t1 - t0
        module = name.split(".", 1)[0]
        count[name] += 1
        total[name] += wall
        module_self[module] += selfs[sid]
        if parent is None or by_id[parent][1].split(".", 1)[0] != module:
            module_wait[module] += max(wall - cpu, 0.0)
        if name == "stepper.integrate_over_period":
            maps[attrs["kind"]] += 1
            map_s[attrs["kind"]] += wall
            solves += attrs["solves"]
            if attrs["kind"] == "truncated" and inside(span, "periodic.solve_endemic_pair"):
                pair_periods += 1
        elif name == "stepper.integrate_trajectory":
            traj_steps += attrs["steps"]
            solves += attrs["solves"]
        elif name.startswith("eigen."):
            iterations += attrs.get("iterations", 0)
        elif name == "coeffs.field_values":
            field_keys.add((op,) + attrs["key"])

    n_eval = count["coeffs.field_values"]
    metrics = {}
    for kind in MAP_KINDS:
        metrics[f"stepper.period_maps.{kind}"] = (maps[kind], "count")
        metrics[f"stepper.period_map_s.{kind}"] = (map_s[kind], "s")
    metrics.update({
        "stepper.tridiag_solves": (solves, "count"),
        "stepper.trajectory_steps": (traj_steps, "count"),
        "stepper.trajectory_s": (total["stepper.integrate_trajectory"], "s"),
        "stepper.prepare_calls": (count["stepper.prepare"], "count"),
        "stepper.prepare_s": (total["stepper.prepare"], "s"),
        "eigen.solves": (sum(count[f"eigen.{n}"] for n in EIGEN_NAMES), "count"),
        "eigen.iterations": (iterations, "count"),
        "eigen.solve_s": (sum(total[f"eigen.{n}"] for n in EIGEN_NAMES), "s"),
    })
    for n in ("zeta", "gamma_rho", "lambda_V"):
        metrics[f"eigen.solve_s.{n}"] = (total[f"eigen.{n}"], "s")
    metrics.update({
        "periodic.logistic_s": (total["periodic.solve_logistic_orbit"], "s"),
        "periodic.pair_s": (total["periodic.solve_endemic_pair"], "s"),
        "periodic.pair_periods": (pair_periods, "count"),
        "periodic.hbar_calls": (count["periodic.solve_Hbar"], "count"),
        "periodic.hbar_s": (total["periodic.solve_Hbar"], "s"),
        "coeffs.field_evals": (n_eval, "count"),
        "coeffs.field_eval_s": (total["coeffs.field_values"], "s"),
        "coeffs.distinct_eval_frac": (len(field_keys) / n_eval if n_eval else 0.0,
                                      "ratio"),
        "coeffs.validate_s": (total["coeffs.validate_hypothesis_H"], "s"),
        "grid.assemble_calls": (count["grid.assemble_diffusion"], "count"),
        "grid.assemble_s": (total["grid.assemble_diffusion"], "s"),
        "dynamics.classify_s": (total["dynamics.classify_regime"], "s"),
        "config.load_s": (total["config.load_config"], "s"),
    })
    for module in MODULES:
        metrics[f"{module}.self_s"] = (module_self[module], "s")
        metrics[f"{module}.wait_s"] = (module_wait[module], "s")
    metrics["tracing.spans"] = (len(spans), "count")
    return metrics
