"""The four benchmark workloads: argv generators, set-up and output checks.

Each workload turns one base seed into the argv lists of one pass.  The
program sees only those argv lists; every seed it uses (initial data, Nash
sampling) is derived from the base seed here.  Why each workload exists is
written in README.md next to this file.
"""

from __future__ import annotations

import csv
import json
import math
import shutil

# Stored reference values (reference.json) are checked for this seed only.
DEFAULT_SEED = 0

# Relative tolerance against reference.json.  Loose enough for float64
# rounding done in another order (an rfft2 port, batched transforms), far
# too tight for a changed result.  ABS_TOL only guards values that are 0.
REL_TOL = 1e-6
ABS_TOL = 1e-12

# Diagnostics columns compared with the reference.  The residual_* columns
# are centered differences of O(1) terms, so a reordered rounding moves them
# by more than REL_TOL of their own (tiny) size; they are left out.
# Bound on |omega_hat[0,0]| / max|omega_hat| after the first snapshot.
MEAN_VORTICITY_TOL = 1e-14

CSV_REF_COLUMNS = ("t", "sup_u", "sup_omega", "sup_uhat", "E_rho", "D_rho", "Ens_rho", "EnsD_rho", "ul2_uhat")


def _num(x):
    return repr(float(x))


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _flatten(prefix, obj, out):
    """Numeric, boolean and string leaves of a JSON tree, keyed by path."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out[prefix] = obj
    return out


def values_match(got, want):
    if isinstance(want, (bool, str)) or want is None:
        return got == want
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want)) + ABS_TOL


class Workload:
    """One workload: what a pass runs, how it is set up and checked.

    `model_time` and `snapshots` are the units of work of one pass, for
    model_time_per_s and snapshots_per_s.
    """

    name = ""
    stable_files = ()  # pass outputs that must be byte-identical across passes
    model_time = 0.0
    snapshots = 0

    def build_inputs(self, root, seed, call):
        """Inputs of a pass, built during set-up under `root`.

        Passes and warm-ups run in sibling directories of `root`, so they
        find these inputs at `<their root>.parent / root.name`.
        """

    def warmup(self, root, seed):
        """Short invocations of the same subcommands on the same grids."""
        raise NotImplementedError

    def invocations(self, root, seed):
        raise NotImplementedError

    def checks(self, root, seed):
        """Output checks of one pass: list of (name, ok, detail)."""
        raise NotImplementedError

    def observed(self, root, seed):
        """Values compared with reference.json for the default seed."""
        raise NotImplementedError

    def reference_checks(self, root, seed, reference):
        """Observed values against the stored ones: [(name, ok, detail)]."""
        observed = self.observed(root, seed)
        missing = sorted(set(reference) - set(observed))
        extra = sorted(set(observed) - set(reference))
        bad = [f"{k}: {observed[k]!r} vs {reference[k]!r}" for k in sorted(reference)
               if k in observed and not values_match(observed[k], reference[k])]
        detail = "; ".join(bad[:4] + [f"missing {missing[:4]}"] * bool(missing)
                           + [f"unexpected {extra[:4]}"] * bool(extra))
        return [(f"reference values (rel tol {REL_TOL:g})", not (bad or missing or extra), detail)]


def _simulate_argv(out, *, nx, ny, lam, t_end, seed, romega, diag_step, ru=None, snapshots=True):
    argv = ["simulate", "--nx", str(nx), "--ny", str(ny), "--lambda", _num(lam), "--t-end", _num(t_end),
            "--kind", "random_bandlimited", "--seed", str(seed), "--target-romega", _num(romega),
            "--diag-step", _num(diag_step), "--out", str(out)]
    if ru is not None:
        argv += ["--target-ru", _num(ru)]
    if not snapshots:
        argv.append("--no-snapshots")
    return argv


def _run_checks(run_dir, t_end, n_records, romega=None):
    """Checks on one simulate output directory."""
    out = []
    info = _load_json(run_dir / "run.json")
    rows = _csv_rows(run_dir / "diagnostics.csv")
    out.append((f"{run_dir.name}: records", len(rows) == n_records and info["records"] == n_records,
                f"{len(rows)} csv rows, run.json {info['records']}, expected {n_records}"))
    out.append((f"{run_dir.name}: t_final == t_end", info["t_final"] == t_end, f"{info['t_final']!r} vs {t_end!r}"))
    if romega is not None:
        ok = abs(info["m0_norm"] - romega) <= 1e-12 * romega
        out.append((f"{run_dir.name}: m0_norm == R_omega", ok, f"{info['m0_norm']!r} vs {romega!r}"))
    return out


def _snapshot_checks(run_dir, n_snapshots, diag_step):
    """Mean vorticity zero; c, m_mean, m0_norm unchanged; times on the schedule.

    omega_hat[0,0] is exactly 0 in the initial snapshot.  The solver does not
    pin it afterwards: stepping leaves float64 rounding there (measured up to
    6e-18 of max|omega_hat|), so later snapshots are held to MEAN_VORTICITY_TOL.
    """
    from cylflow.io import read_state  # the current package: set-up re-imports it

    names = sorted((run_dir / "snapshots").glob("*.bin"))
    out = [(f"{run_dir.name}: snapshot count", len(names) == n_snapshots, f"{len(names)} vs {n_snapshots}")]
    info = _load_json(run_dir / "run.json")
    first = None
    bad = []
    for i, path in enumerate(names):
        s = read_state(str(path))
        w = s.omega.data
        if abs(w[0, 0]) > (0.0 if i == 0 else MEAN_VORTICITY_TOL * abs(w).max()):
            bad.append(f"{path.name}: omega_hat[0,0]={w[0, 0]!r}")
        scalars = (s.c, s.m_mean, s.m0_norm)
        first = first or scalars
        if scalars != first or s.m0_norm != info["m0_norm"]:
            bad.append(f"{path.name}: (c, m_mean, m0_norm)={scalars} vs {first}")
        if abs(s.t - i * diag_step) > 1e-12:
            bad.append(f"{path.name}: t={s.t!r}")
    out.append((f"{run_dir.name}: snapshot invariants", not bad, "; ".join(bad[:3])))
    return out


def _csv_observed(run_dir, key):
    obs = {}
    for i, row in enumerate(_csv_rows(run_dir / "diagnostics.csv")):
        for col in CSV_REF_COLUMNS:
            obs[f"{key}[{i}].{col}"] = float(row[col])
    return obs


class SimEnsemble(Workload):
    name = "sim_ensemble"
    GRID = dict(nx=64, ny=64, lam=16.0)
    T_END = 0.1
    DIAG_STEP = 0.05
    ROMEGA = (5.0, 6.0, 7.0)
    N_RECORDS = 3
    stable_files = tuple(f"member{i}/diagnostics.csv" for i in range(3))
    model_time = 3 * T_END
    snapshots = 3 * N_RECORDS

    def _members(self, root, seed, t_end, diag_step):
        return [
            _simulate_argv(root / f"member{i}", **self.GRID, t_end=t_end, seed=seed + i, romega=r,
                           diag_step=diag_step, snapshots=False)
            for i, r in enumerate(self.ROMEGA)
        ]

    def warmup(self, root, seed):
        return self._members(root, seed, 0.002, 0.001)

    def invocations(self, root, seed):
        return self._members(root, seed, self.T_END, self.DIAG_STEP)

    def checks(self, root, seed):
        out = []
        for i, r in enumerate(self.ROMEGA):
            out += _run_checks(root / f"member{i}", self.T_END, self.N_RECORDS, romega=r)
        return out

    def observed(self, root, seed):
        obs = {}
        for i in range(len(self.ROMEGA)):
            obs.update(_csv_observed(root / f"member{i}", f"member{i}"))
        return obs


class SimCflSnap(Workload):
    name = "sim_cfl_snap"
    GRID = dict(nx=128, ny=128, lam=16.0)
    ROMEGA, RU = 20.0, 30.0
    DIAG_STEP = 0.005
    T_END = 0.025
    stable_files = ("run/diagnostics.csv",)
    model_time = T_END
    snapshots = round(T_END / DIAG_STEP) + 1

    def argv(self, out, seed, t_end):
        return _simulate_argv(out, **self.GRID, t_end=t_end, seed=seed, romega=self.ROMEGA, ru=self.RU,
                              diag_step=self.DIAG_STEP)

    def run_checks(self, run_dir, t_end):
        n = round(t_end / self.DIAG_STEP) + 1
        return (_run_checks(run_dir, t_end, n, romega=self.ROMEGA)
                + _snapshot_checks(run_dir, n, self.DIAG_STEP))

    def warmup(self, root, seed):
        return [self.argv(root / "run", seed, self.DIAG_STEP)]

    def invocations(self, root, seed):
        return [self.argv(root / "run", seed, self.T_END)]

    def checks(self, root, seed):
        return self.run_checks(root / "run", self.T_END)

    def observed(self, root, seed):
        return _csv_observed(root / "run", "run")


class ReportReplay(Workload):
    name = "report_replay"
    SOURCE = SimCflSnap()
    T_END = 0.05  # twice the sim_cfl_snap horizon: 11 snapshots per pass
    REPORT_ARGS = ["--t-grid", "0.01,0.02,0.04", "--tau", "0.01", "--window", "0.005,0.05",
                   "--laminar-window", "0.01,0.05"]
    stable_files = ("report.json",)
    model_time = T_END
    snapshots = round(T_END / SOURCE.DIAG_STEP) + 1

    def build_inputs(self, root, seed, call):
        shutil.rmtree(root, ignore_errors=True)
        rc = call(self.SOURCE.argv(root / "run", seed, self.T_END))
        if rc != 0:
            raise RuntimeError(f"building the report input exited {rc}")
        failed = [c for c in self.SOURCE.run_checks(root / "run", self.T_END) if not c[1]]
        if failed:
            raise RuntimeError(f"report input fails its checks: {failed}")

    def _argv(self, root, input_root):
        # A fresh pass directory has no ledger, so every pass estimates C3
        # (flux_bound_constants) and writes the ledger.
        return ["report", "--run-dir", str(input_root / "run"), "--constants", str(root / "constants.json"),
                *self.REPORT_ARGS, "--out", str(root / "report.json")]

    def warmup(self, root, seed):
        return [self._argv(root, root.parent / "input")]

    def invocations(self, root, seed):
        return [self._argv(root, root.parent / "input")]

    def checks(self, root, seed):
        report = _load_json(root / "report.json")
        ledger = _load_json(root / "constants.json")
        c3 = ledger.get("C3", {}).get("value")
        out = [("ledger C3 recorded and used", c3 is not None and report["provenance"]["c3"] == c3,
                f"ledger {c3!r}, report {report['provenance']['c3']!r}")]
        rows = report["localized_energy"]
        out.append(("localized-energy rows", len(rows) == 3 and all(r["ratio"] <= 1.0 for r in rows),
                    f"{len(rows)} rows"))
        out.append(("laminar floor", report["laminar"].get("passes_floor") is True, str(report["laminar"])))
        return out

    def observed(self, root, seed):
        return _flatten("report", _load_json(root / "report.json"), {})


class LinearVerify(Workload):
    name = "linear_verify"
    LP_TIMES = (0.1, 0.2, 0.3)
    ENV_TIMES = (0.1, 0.3)
    SAMPLES, POINCARE = 400, 20
    stable_files = ("advdiff/lplq.csv", "advdiff/envelope.csv", "ineq/nash_samples.csv", "ineq/summary.json")
    model_time = max(LP_TIMES) + sum(ENV_TIMES)
    snapshots = len(LP_TIMES) + len(ENV_TIMES)

    def _argvs(self, root, seed, lp_times, env_times, samples, poincare):
        join = lambda ts: ",".join(_num(t) for t in ts)
        return [
            ["advdiff", "--drift", "steady_shear_u1", "--nx", "128", "--ny", "32", "--lambda", "16",
             "--p-list", "1", "--q-list", "inf", "--times", join(lp_times), "--envelope-times", join(env_times),
             "--out", str(root / "advdiff")],
            ["verify-inequalities", "--nx", "64", "--ny", "64", "--lambda", "16", "--samples", str(samples),
             "--poincare-samples", str(poincare), "--seed", str(seed), "--out", str(root / "ineq"),
             "--constants", str(root / "constants.json")],
        ]

    def warmup(self, root, seed):
        return self._argvs(root, seed, (0.05,), (0.1,), 100, 2)

    def invocations(self, root, seed):
        return self._argvs(root, seed, self.LP_TIMES, self.ENV_TIMES, self.SAMPLES, self.POINCARE)

    def checks(self, root, seed):
        lplq = _csv_rows(root / "advdiff" / "lplq.csv")
        env = _csv_rows(root / "advdiff" / "envelope.csv")
        summary = _load_json(root / "ineq" / "summary.json")
        with open(root / "ineq" / "nash_samples.csv", encoding="utf-8") as fh:
            n_samples = sum(1 for _ in fh) - 1
        ratios = [float(r["ratio"]) for r in lplq]
        return [
            ("lplq rows", len(lplq) == len(self.LP_TIMES) and all(math.isfinite(r) and r > 0 for r in ratios),
             str(ratios)),
            ("envelope fits pass", len(env) == len(self.ENV_TIMES) and all(r["passed"] == "1" for r in env),
             str(env)),
            ("nash samples", n_samples == self.SAMPLES and summary["samples"] == self.SAMPLES,
             f"{n_samples} rows"),
            ("nash seed", summary["config"]["seed"] == seed, str(summary["config"])),
        ]

    def observed(self, root, seed):
        obs = {}
        for i, row in enumerate(_csv_rows(root / "advdiff" / "lplq.csv")):
            obs[f"lplq[{i}].ratio"] = float(row["ratio"])
        for i, row in enumerate(_csv_rows(root / "advdiff" / "envelope.csv")):
            obs[f"envelope[{i}].slope"] = float(row["slope"])
            obs[f"envelope[{i}].K2_est"] = float(row["K2_est"])
        summary = _load_json(root / "ineq" / "summary.json")
        obs["nash_max_ratio"] = summary["nash_max_ratio"]
        obs["poincare_max"] = summary["poincare_max"]
        return obs


WORKLOADS = {w.name: w for w in (SimEnsemble(), SimCflSnap(), ReportReplay(), LinearVerify())}

