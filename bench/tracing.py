"""Spans around the public functions of every cylflow module.

The traced run wraps, from the benchmark's side, each public function of
each package module plus the numpy.fft entry points.  A wrapper records one
span (name, start, end, parent) in memory; `layer_metrics` turns the spans of
one pass into the per-layer metrics.  Nothing in the package is edited.

A function is patched wherever the package looks it up: in its own module
and in every package module that imported it by name (`cli` imports `run`,
`diagnostics` imports `pressure_from_state`).  A function that no longer
exists is simply not wrapped, and the metrics that need it read as absent.
"""

from __future__ import annotations

import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("spectral", "solver", "biotsavart", "diagnostics", "inequalities", "advdiff", "io", "config", "cli")
# Public methods that carry the diagnostics cost.
METHODS = {"diagnostics": {"TrajectoryCollector": ("add", "finalize", "trajectory")}}
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")


def _fft_note(args, kwargs, result):
    a = np.asarray(args[0])
    return a.size, a.nbytes + np.asarray(result).nbytes


def _file_bytes(path):
    path = str(path)
    return sum(os.path.getsize(p) for p in (path, path + ".meta") if os.path.exists(p))


# Extra facts recorded on a span: f(args, kwargs, result) -> value.
NOTES = {
    "solver.cfl_dt": lambda a, k, r: (r, a[2] if len(a) > 2 else k.get("dt_acc", sys.modules["cylflow.solver"].DEFAULT_DT_ACC)),
    "solver.step": lambda a, k, r: a[1] if len(a) > 1 else k["dt"],
    "io.write_field": lambda a, k, r: _file_bytes(a[1]),
    "io.read_field": lambda a, k, r: _file_bytes(a[0]),
    "io.write_csv_records": lambda a, k, r: _file_bytes(a[1]),
    "io.read_csv_records": lambda a, k, r: _file_bytes(a[0]),
}


class Tracer:
    """In-memory spans of one pass; index -1 is the root."""

    def __init__(self):
        self.installed = set()
        self._patches = []
        self.names, self.starts, self.ends, self.parents, self.notes = [], [], [], [], {}
        self._stack = [-1]

    def reset(self):
        for lst in (self.names, self.starts, self.ends, self.parents):
            lst.clear()
        self.notes.clear()
        del self._stack[1:]

    def _wrap(self, name, fn):
        note = _fft_note if name.startswith("fft.") else NOTES.get(name)
        names, starts, ends, parents, notes, stack = (
            self.names, self.starts, self.ends, self.parents, self.notes, self._stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if note is not None:
                notes[i] = note(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_everywhere(self, name, owner, attr, fn, package):
        """Replace `fn` on its owner and wherever a package module bound it."""
        wrapper = self._wrap(name, fn)
        targets = [(owner, attr)]
        for mod in package:
            targets += [(mod, k) for k, v in vars(mod).items() if v is fn and (mod, k) != (owner, attr)]
        for obj, key in targets:
            self._patches.append((obj, key, getattr(obj, key)))
            setattr(obj, key, wrapper)
        self.installed.add(name)

    def install(self):
        self.installed.clear()
        package = [m for n, m in list(sys.modules.items()) if n == "cylflow" or n.startswith("cylflow.")]
        for fname in FFT_NAMES:
            fn = getattr(np.fft, fname, None)
            if fn is not None:
                self._patch_everywhere(f"fft.{fname}", np.fft, fname, fn, package)
        for layer in LAYERS:
            mod = sys.modules.get(f"cylflow.{layer}")
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._patch_everywhere(f"{layer}.{attr}", mod, attr, fn, package)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    fn = vars(cls).get(meth) if cls is not None else None
                    if inspect.isfunction(fn):
                        self._patch_everywhere(f"{layer}.{cls_name}.{meth}", cls, meth, fn, [])

    def uninstall(self):
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()

    def spans(self):
        return list(zip(self.names, self.starts, self.ends, self.parents))


# metric name -> (unit, span names it needs)
PER_LAYER = {
    "spectral.transforms": ("count", ["fft.fft2"]),
    "spectral.transform_points": ("count", ["fft.fft2"]),
    "spectral.transforms_per_step": ("count/step", ["fft.fft2", "solver.step", "solver.cfl_dt"]),
    "spectral.transform_s": ("s", ["fft.fft2"]),
    "spectral.bytes_moved_computed": ("B", ["fft.fft2"]),
    "solver.steps": ("count", ["solver.step"]),
    "solver.step_s": ("s", ["solver.step"]),
    "solver.step_p50_ms": ("ms", ["solver.step"]),
    "solver.step_p99_ms": ("ms", ["solver.step"]),
    "solver.cfl_dt_s": ("s", ["solver.cfl_dt"]),
    "solver.steps_cfl": ("count", ["solver.step", "solver.cfl_dt"]),
    "solver.steps_acc": ("count", ["solver.step", "solver.cfl_dt"]),
    "solver.steps_landing": ("count", ["solver.step", "solver.cfl_dt"]),
    "solver.dt_reuse_ratio": ("frac", ["solver.step"]),
    "solver.make_initial_data_s": ("s", ["solver.make_initial_data"]),
    "biotsavart.pressure_calls": ("count", ["biotsavart.pressure_from_state"]),
    "biotsavart.pressure_s": ("s", ["biotsavart.pressure_from_state"]),
    "diagnostics.add_calls": ("count", ["diagnostics.TrajectoryCollector.add"]),
    "diagnostics.add_s": ("s", ["diagnostics.TrajectoryCollector.add"]),
    "diagnostics.add_p50_ms": ("ms", ["diagnostics.TrajectoryCollector.add"]),
    "diagnostics.finalize_s": ("s", ["diagnostics.TrajectoryCollector.finalize"]),
    "diagnostics.theorem_checks_s": ("s", ["diagnostics.theorem_checks"]),
    "inequalities.flux_bound_s": ("s", ["inequalities.flux_bound_constants"]),
    "inequalities.nash_suite_s": ("s", ["inequalities.nash_suite"]),
    "inequalities.nash_samples": ("count", ["inequalities.nash_check"]),
    "advdiff.steps": ("count", ["solver.ifrk4_step", "solver.step"]),
    "advdiff.transforms_per_step": ("count/step", ["fft.fft2", "solver.ifrk4_step", "solver.step"]),
    "advdiff.lp_lq_s": ("s", ["advdiff.check_lp_lq"]),
    "advdiff.fundamental_solution_calls": ("count", ["advdiff.fundamental_solution"]),
    "advdiff.fundamental_solution_s": ("s", ["advdiff.fundamental_solution"]),
    "advdiff.envelope_fit_s": ("s", ["advdiff.check_gaussian_envelope"]),
    "io.write_state_calls": ("count", ["io.write_state"]),
    "io.write_state_s": ("s", ["io.write_state"]),
    "io.read_state_calls": ("count", ["io.read_state"]),
    "io.read_state_s": ("s", ["io.read_state"]),
    "io.bytes_written": ("B", ["io.write_field", "io.write_csv_records"]),
    "io.bytes_read": ("B", ["io.read_field", "io.read_csv_records"]),
    "io.csv_write_s": ("s", ["io.write_csv_records"]),
    "config.ledger_write_s": ("s", ["config.update_constant"]),
    "cli.self_s": ("s", ["cli.main"]),
}
# Metrics that must repeat exactly across passes and runs of one seed.
COUNT_METRICS = tuple(k for k, (u, _) in PER_LAYER.items() if u in ("count", "B")) + ("solver.dt_reuse_ratio",)


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass: {name: value or None if absent}."""
    names, starts, ends, parents, notes = tracer.names, tracer.starts, tracer.ends, tracer.parents, tracer.notes
    n = len(names)
    dur = [ends[i] - starts[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child[parents[i]] += dur[i]

    by_name = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)

    def ids(name):
        return by_name.get(name, [])

    def total(name):
        return sum(dur[i] for i in ids(name))

    def under(i, wanted):
        p = parents[i]
        while p >= 0:
            if names[p] in wanted:
                return p
            p = parents[p]
        return None

    ffts = [i for i in range(n) if names[i].startswith("fft.")]
    steps = ids("solver.step")
    step_ms = [1e3 * dur[i] for i in steps]
    add_ms = [1e3 * dur[i] for i in ids("diagnostics.TrajectoryCollector.add")]

    # Which limit set each step's dt: the step follows the cfl_dt call of the
    # same loop iteration.  cfl_dt returns min(dt_acc, CFL); a landing
    # shortens the step below it.
    split = {"cfl": 0, "acc": 0, "landing": 0}
    last_cfl = {}
    for i in range(n):
        if names[i] == "solver.cfl_dt":
            last_cfl[parents[i]] = notes[i]
        elif names[i] == "solver.step" and parents[i] in last_cfl:
            (limit, dt_acc), dt = last_cfl.pop(parents[i]), notes[i]
            split["landing" if dt != limit else "acc" if limit == dt_acc else "cfl"] += 1

    stepping = {"solver.step", "solver.cfl_dt"}
    step_ffts = sum(1 for i in ffts if under(i, stepping) is not None)
    adv_steps = [i for i in ids("solver.ifrk4_step") if under(i, {"solver.step"}) is None]
    adv_set = set(adv_steps)
    adv_ffts = sum(1 for i in ffts if under(i, {"solver.ifrk4_step"}) in adv_set)
    main_ids = ids("cli.main")

    values = {
        "spectral.transforms": len(ffts),
        "spectral.transform_points": sum(notes[i][0] for i in ffts),
        "spectral.transforms_per_step": step_ffts / len(steps) if steps else 0.0,
        "spectral.transform_s": sum(dur[i] for i in ffts),
        "spectral.bytes_moved_computed": sum(notes[i][1] for i in ffts),
        "solver.steps": len(steps),
        "solver.step_s": sum(dur[i] for i in steps),
        "solver.step_p50_ms": _pct(step_ms, 50),
        "solver.step_p99_ms": _pct(step_ms, 99),
        "solver.cfl_dt_s": total("solver.cfl_dt"),
        "solver.steps_cfl": split["cfl"],
        "solver.steps_acc": split["acc"],
        "solver.steps_landing": split["landing"],
        "solver.dt_reuse_ratio": 1.0 - len({notes[i] for i in steps}) / len(steps) if steps else 0.0,
        "solver.make_initial_data_s": total("solver.make_initial_data"),
        "biotsavart.pressure_calls": len(ids("biotsavart.pressure_from_state")),
        "biotsavart.pressure_s": total("biotsavart.pressure_from_state"),
        "diagnostics.add_calls": len(add_ms),
        "diagnostics.add_s": total("diagnostics.TrajectoryCollector.add"),
        "diagnostics.add_p50_ms": _pct(add_ms, 50),
        "diagnostics.finalize_s": total("diagnostics.TrajectoryCollector.finalize"),
        "diagnostics.theorem_checks_s": total("diagnostics.theorem_checks"),
        "inequalities.flux_bound_s": total("inequalities.flux_bound_constants"),
        "inequalities.nash_suite_s": total("inequalities.nash_suite"),
        "inequalities.nash_samples": len(ids("inequalities.nash_check")),
        "advdiff.steps": len(adv_steps),
        "advdiff.transforms_per_step": adv_ffts / len(adv_steps) if adv_steps else 0.0,
        "advdiff.lp_lq_s": total("advdiff.check_lp_lq"),
        "advdiff.fundamental_solution_calls": len(ids("advdiff.fundamental_solution")),
        "advdiff.fundamental_solution_s": total("advdiff.fundamental_solution"),
        "advdiff.envelope_fit_s": total("advdiff.check_gaussian_envelope"),
        "io.write_state_calls": len(ids("io.write_state")),
        "io.write_state_s": total("io.write_state"),
        "io.read_state_calls": len(ids("io.read_state")),
        "io.read_state_s": total("io.read_state"),
        "io.bytes_written": sum(notes[i] for i in ids("io.write_field") + ids("io.write_csv_records")),
        "io.bytes_read": sum(notes[i] for i in ids("io.read_field") + ids("io.read_csv_records")),
        "io.csv_write_s": total("io.write_csv_records"),
        "config.ledger_write_s": total("config.update_constant"),
        "cli.self_s": sum(dur[i] - child[i] for i in main_ids),
    }
    return {k: (values[k] if all(s in tracer.installed for s in needs) else None)
            for k, (_, needs) in PER_LAYER.items()}
