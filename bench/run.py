"""Run one cylflow benchmark workload and print its metrics.

    python3 bench/run.py --workload sim_ensemble --seed 0 --seconds 20 --trace 0

Each run is one process that drives `cylflow.cli.main(argv)` in process, one
call after another (closed loop, one caller, no threads of its own).  It
imports the package from `src/` of this checkout, sets the workload up
several times, then repeats timed passes for `--seconds` seconds and checks
every pass's outputs.  `--trace 0` prints the end-to-end metrics; `--trace 1`
alternates untraced and traced passes and prints the per-layer metrics and
the tracing overhead.  The last line of stdout is one JSON object; the full
record (machine, samples, failed checks) goes to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 3
# Time of one calibration kernel at the reference machine speed: the median
# measured on the 2-core Xeon (family 6, model 207) where the benchmark was
# defined.  Timed values are reported in seconds at that speed (see README).
CAL_REF_S = 0.0026
MIN_PASSES = {0: 3, 1: 4}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "model_time_per_s": "model_t/s", "snapshots_per_s": "1/s",
                    "peak_rss_mb": "MB", "ok_frac": "frac"}


def _nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def cap_threads():
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    n = _nproc()
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or int(cur) > n or int(cur) < 1:
            os.environ[var] = str(n)
    return {var: os.environ[var] for var in THREAD_VARS}


def import_cylflow():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cylflow.cli  # noqa: PLC0415 - timed by the caller

    where = Path(cylflow.cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"cylflow was imported from {where}, not from {src}")
    return cylflow.cli


def machine_record(caps):
    rec = {"nproc": _nproc(), "cpu_model": platform.processor() or platform.machine(), "caches": {},
           "python": platform.python_version(), "thread_caps": caps}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    rec["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        rec["caches"][f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    for pkg in ("numpy", "scipy"):
        try:
            rec[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            rec[pkg] = None
    return rec


def calibrate():
    """Seconds for a fixed calibration kernel that shares no code with cylflow.

    Four parts, each timed as the median of three runs: an interpreter loop,
    64x64 and 128x128 numpy fft2/ifft2 pairs, and 128x128 complex elementwise
    work.  The result is their geometric mean, so no part dominates.  Timings
    divided by it follow the program, not the speed the shared host happens
    to give this process.
    """
    import numpy as np

    b64 = np.cos(np.arange(64 * 64, dtype=np.float64)).reshape(64, 64)
    b128 = np.cos(np.arange(128 * 128, dtype=np.float64)).reshape(128, 128)

    def interpreter():
        x = 0
        for i in range(10000):
            x += i * i

    def fft(base, reps):
        a = base
        for _ in range(reps):
            a = np.fft.ifft2(np.fft.fft2(a) * 0.5).real + base

    def elementwise():
        a = b128 + 0j
        for _ in range(20):
            a = (a * 0.999 + b128) * np.exp(-0.001 * b128)

    parts = (interpreter, lambda: fft(b64, 30), lambda: fft(b128, 8), elementwise)
    log_sum = 0.0
    for part in parts:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            part()
            times.append(time.perf_counter() - t0)
        log_sum += math.log(statistics.median(times))
    return math.exp(log_sum / len(parts))


def _wipe(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Runner:
    """Set-up, passes and output checks of one workload in this process."""

    def __init__(self, cli, workload, seed, work, reference):
        self.cli, self.workload, self.seed, self.work = cli, workload, seed, work
        self.reference = reference  # stored values for this workload, or None
        self.first_bytes = {}

    def call(self, argv):
        """One CLI invocation through the module attribute (so tracing sees it)."""
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a failed invocation is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            rc = "exception"
        return rc

    def setup(self, clock):
        """SETUP_REPS set-ups; calibrated seconds each.

        A set-up imports the package afresh (numpy stays loaded), builds the
        pass's inputs and warms up, so work moved into import, module-level
        tables or lazy caches shows in setup_s.
        """
        reps = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            self.cli = None
            for name in [n for n in sys.modules if n == "cylflow" or n.startswith("cylflow.")]:
                del sys.modules[name]
            gc.collect()  # free the old modules' caches, or peak_rss_mb counts every copy
            self.cli = importlib.import_module("cylflow.cli")
            self.workload.build_inputs(self.work / "input", self.seed, self.call)
            _wipe(self.work / "warm")
            for argv in self.workload.warmup(self.work / "warm", self.seed):
                rc = self.call(argv)
                if rc != 0:
                    raise RuntimeError(f"warm-up {argv[0]} exited {rc}")
            reps.append(clock.scale(time.perf_counter() - t0))
        return reps

    def run_pass(self):
        """One timed pass; returns (wall seconds, [(check, ok, detail)])."""
        root = self.work / "pass"
        _wipe(root)
        argvs = self.workload.invocations(root, self.seed)
        t0 = time.perf_counter()
        codes = [self.call(argv) for argv in argvs]
        wall = time.perf_counter() - t0
        results = [(f"exit {argv[0]} #{i}", rc == 0, f"exit code {rc}") for i, (argv, rc) in enumerate(zip(argvs, codes))]
        if any(rc != 0 for rc in codes):
            return wall, results + [("output checks", False, "skipped: an invocation failed")]
        try:
            results += self.workload.checks(root, self.seed)
            for rel in self.workload.stable_files:
                data = (root / rel).read_bytes()
                first = self.first_bytes.setdefault(rel, data)
                results.append((f"{rel} identical across passes", data == first, ""))
            if self.reference is not None:
                results += self.workload.reference_checks(root, self.seed, self.reference)
        except Exception as exc:  # unreadable or missing output is a failed check
            results.append(("output checks", False, repr(exc)))
        return wall, results


class Clock:
    """Scales raw durations to seconds at the reference speed.

    Each timed section is divided by the mean of the calibrations taken just
    before and just after it.
    """

    def __init__(self):
        self.last = calibrate()

    def scale(self, raw):
        cal = calibrate()
        factor = CAL_REF_S / ((self.last + cal) / 2.0)
        self.last = cal
        return raw * factor


def run_all(args, names):
    """Every workload, each in a process of its own; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"bench: {name} exited {proc.returncode} without a result", file=sys.stderr)
            combined["correct"] = False
            continue
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all' for every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    caps = cap_threads()
    t0 = time.perf_counter()
    try:
        cli = import_cylflow()
    except ImportError as exc:
        print(f"bench: cannot import cylflow from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_raw = time.perf_counter() - t0

    from tracing import COUNT_METRICS, PER_LAYER, Tracer, layer_metrics
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    clock = Clock()
    workload = WORKLOADS[args.workload]
    machine = machine_record(caps)
    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    print(f"bench: {tag} seconds={args.seconds:g}")
    print(f"machine: {json.dumps(machine)}")
    try:
        reference = None
        if args.seed == DEFAULT_SEED:
            with open(BENCH / "reference.json", encoding="utf-8") as fh:
                reference = json.load(fh)[workload.name]
        runner = Runner(cli, workload, args.seed, work, reference)
        try:
            setup_reps = runner.setup(clock)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            print(f"bench: set-up failed: {exc}", file=sys.stderr)
            return 1

        tracer = Tracer() if args.trace else None
        raw, scaled, traced_raw, traced_scaled, per_pass, results = [], [], [], [], [], []
        start = time.perf_counter()
        last_cost = 0.0
        n = 0
        while n < MIN_PASSES[args.trace] or time.perf_counter() - start + last_cost <= args.seconds:
            t_pass = time.perf_counter()
            traced = bool(args.trace) and n % 2 == 1
            if traced:
                tracer.reset()
                tracer.install()
            try:
                wall, res = runner.run_pass()
            finally:
                if traced:
                    tracer.uninstall()
            results += res
            scaled_wall = clock.scale(wall)
            if traced:
                traced_raw.append(wall)
                traced_scaled.append(scaled_wall)
                per_pass.append(layer_metrics(tracer))
                spans = tracer.spans()
            else:
                raw.append(wall)
                scaled.append(scaled_wall)
            last_cost = time.perf_counter() - t_pass
            n += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

        if args.trace:
            metrics = {}
            for k in COUNT_METRICS:
                vals = [m[k] for m in per_pass]
                results.append((f"trace count {k} repeats across passes", all(v == vals[0] for v in vals), str(vals)))
            for k, (unit, _) in PER_LAYER.items():
                vals = [m[k] for m in per_pass]
                value = None if vals[0] is None else vals[0] if k in COUNT_METRICS else statistics.median(vals)
                metrics[k] = {"value": value, "unit": unit}
            traced_wall, untraced_wall = statistics.median(traced_scaled), statistics.median(scaled)
            metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
            metrics["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
            metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
            with open(out_dir / f"spans-{workload.name}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)

        failed = [r for r in results if not r[1]]
        q1, wall, q3 = quartiles(scaled)
        if not args.trace:
            values = {
                "setup_s": statistics.median(setup_reps),
                "wall_s": wall,
                "model_time_per_s": workload.model_time / wall,
                "snapshots_per_s": workload.snapshots / wall,
                "peak_rss_mb": peak_rss_mb,
                "ok_frac": 1.0 - len(failed) / len(results),
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

        for k, m in metrics.items():
            shown = "absent" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {k:36s} {shown:>14s} {m['unit']}")
        print(f"  wall_s passes: n={len(scaled)} q1={q1:.6g} median={wall:.6g} q3={q3:.6g} s at reference speed; "
              f"raw median {statistics.median(raw):.6g} s")
        print(f"  failed_frac: {len(failed)}/{len(results)} checks and invocations failed")
        for name, _, detail in failed[:10]:
            print(f"  FAILED {name}: {detail}", file=sys.stderr)

        result = {"correct": not failed, "attempted": len(results), "failed": len(failed), "metrics": metrics}
        record = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                      machine=machine, cal_ref_s=CAL_REF_S, first_import_raw_s=import_raw,
                      setup_reps_s=setup_reps, pass_walls_s=scaled, pass_walls_raw_s=raw,
                      traced_pass_walls_s=traced_scaled, traced_pass_walls_raw_s=traced_raw,
                      failed_checks=failed)
        with open(out_dir / f"{tag}.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, default=str)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
