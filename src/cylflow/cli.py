"""Command-line interface.

Subcommands: simulate, advdiff, verify-inequalities, kernel-table,
fit-rates, report.  The exit code is 0 only when every acceptance-relevant
check requested by the invocation passes; informational subcommands exit 0
on success.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import advdiff as advdiff_mod
from . import diagnostics as diag_mod
from . import inequalities as ineq_mod
from .biotsavart import grad_perp_K, kernel_K
from .config import (
    EstimatedConstant,
    RunConfig,
    get_constant,
    load_constants,
    parse_config,
    serialize_config,
    update_constant,
)
from .io import check_output_dir, check_output_file, csv_row, read_csv_records, read_state, write_csv
from .io import write_csv_records, write_file, write_json, write_state
from .solver import make_initial_data, run
from .spectral import ScalarField, make_grid

__all__ = ["main"]


class _UsageError(Exception):
    """A bad command-line value, found before any work; exit code 2."""


@contextlib.contextmanager
def _bad_values():
    """Report a ValueError raised while checking command-line values, or an
    OSError raised while reading an input file, as a _UsageError."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise _UsageError(str(exc)) from None


def _grid(args):
    with _bad_values():
        return make_grid(args.nx, args.ny, args.lam)


def _load_config(args):
    if getattr(args, "config", None):
        with _bad_values(), open(args.config, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    else:
        cfg = RunConfig()
    overrides = {
        f.name: getattr(args, f.name) for f in fields(RunConfig) if getattr(args, f.name, None) is not None
    }
    if getattr(args, "no_snapshots", False):
        overrides["snapshots"] = False
    if overrides:
        cfg = replace(cfg, **overrides)
    with _bad_values():
        return cfg.validate()


def _cmd_simulate(args):
    cfg = _load_config(args)
    with _bad_values():
        state = make_initial_data(cfg.initial_data_spec(), cfg.grid())
    os.makedirs(cfg.out_dir, exist_ok=True)
    collector = diag_mod.TrajectoryCollector(cfg.diagnostics_options())
    final = run(state, cfg.t_end, cfg.diag_schedule(), dt_acc=cfg.dt_acc, collector=collector)
    records = collector.finalize()
    write_csv_records(records, os.path.join(cfg.out_dir, "diagnostics.csv"))
    write_file(os.path.join(cfg.out_dir, "config.txt"), serialize_config(cfg))
    if cfg.snapshots:
        snap_dir = os.path.join(cfg.out_dir, "snapshots")
        os.makedirs(snap_dir, exist_ok=True)
        for i, snap in enumerate(collector.snapshots):
            write_state(snap.state, os.path.join(snap_dir, f"state_{i:05d}.bin"))
    summary = {
        "t_final": final.t,
        "m0_norm": state.m0_norm,
        "ru_achieved": collector.snapshots[0].sup_u if collector.snapshots else None,
        "center": collector.center,
        "records": len(records),
    }
    write_json(os.path.join(cfg.out_dir, "run.json"), summary)
    print(f"simulate: wrote {len(records)} records to {cfg.out_dir}")
    return 0


def _parse_floats(text):
    return [float(s) for s in text.split(",") if s.strip()]


def _cmd_advdiff(args):
    grid = _grid(args)
    with _bad_values():
        drift = advdiff_mod.DriftSpec(kind=args.drift, amplitude=args.amplitude, period=args.period)
        ps = _parse_floats(args.p_list)
        qs = [np.inf if s.strip() in ("inf", "oo") else float(s) for s in args.q_list.split(",") if s.strip()]
        times = sorted(_parse_floats(args.times))
        env_times = _parse_floats(args.envelope_times)
        check_output_dir(args.out_dir)
    if len(ps) != len(qs):
        raise _UsageError(f"--p-list and --q-list must pair up, got {len(ps)} and {len(qs)} values")
    for p, q in zip(ps, qs):
        if not (1 <= p <= q):
            raise _UsageError(f"--p-list and --q-list need 1 <= p <= q, got p={p:g}, q={q:g}")
    if ps and not times:
        raise _UsageError("--times needs at least one time when --p-list is given")
    if not all(0.0 <= t < math.inf for t in times):
        raise _UsageError(f"--times must be finite and >= 0, got {args.times!r}")
    if not all(0.0 < t < math.inf for t in env_times):
        raise _UsageError(f"--envelope-times must be finite and positive, got {args.envelope_times!r}")
    if env_times and not (0.0 < args.envelope_lambda < 1.0):
        raise _UsageError(f"--envelope-lambda must lie in (0, 1), got {args.envelope_lambda:g}")
    if not (0.0 < args.dt_acc < math.inf):
        raise _UsageError(f"--dt-acc must be finite and positive, got {args.dt_acc:g}")
    y = (args.y1 if args.y1 is not None else grid.lam / 2.0, args.y2)
    if not all(math.isfinite(c) for c in y):
        raise _UsageError(f"--y1 and --y2 must be finite, got {y[0]:g}, {y[1]:g}")
    sigma0 = args.sigma0 or 2.0 * max(grid.dx, grid.dy)
    # one evolution of the bump serves every smoothing ratio and envelope
    # fit, and its t = 0 field is the bump itself, the ratios' denominator;
    # a bad sigma0 fails here, before --out is created
    lp_times = [0.0] + times if ps else []
    with _bad_values():
        fields = advdiff_mod.fundamental_solution(drift, y, lp_times + env_times, sigma0, grid, dt_acc=args.dt_acc)
    os.makedirs(args.out_dir, exist_ok=True)

    rows = []
    if ps:
        bump = fields[0.0]
        lp_fields = {t: fields[t] for t in times}
        for p, q in zip(ps, qs):
            res = advdiff_mod.check_lp_lq(bump, p, q, lp_fields)
            for t, r in zip(res.times, res.ratios):
                rows.append((p, q, t, r))
        write_csv(os.path.join(args.out_dir, "lplq.csv"), ("p", "q", "t", "ratio"), rows)

    env_rows = [
        (t, advdiff_mod.check_gaussian_envelope(fields[t], y, t, drift.amplitude, args.envelope_lambda))
        for t in env_times
    ]
    if env_rows:
        env_cells = ((t, fit.slope, fit.K2_est, fit.lambda_eff, int(fit.passed)) for t, fit in env_rows)
        env_header = ("t", "slope", "K2_est", "lambda_eff", "passed")
        write_csv(os.path.join(args.out_dir, "envelope.csv"), env_header, env_cells)

    failures = sum(not fit.passed for _, fit in env_rows)
    print(f"advdiff: {len(rows)} smoothing ratios, {len(env_rows)} envelope fits, {failures} failures")
    return 1 if failures else 0


def _parse_weights(text):
    """A family=weight list: each family one of FIELD_FAMILIES and named
    once, each weight a finite float >= 0, and the weights summing to a
    positive total."""
    families = ineq_mod.FIELD_FAMILIES
    weights = {}
    for part in text.split(","):
        name, _, w = part.partition("=")
        name = name.strip()
        if name not in families:
            raise ValueError(f"--weights: unknown family {name!r}, expected one of {', '.join(families)}")
        if name in weights:
            raise ValueError(f"--weights: family {name!r} is given twice")
        weights[name] = float(w)
        if not (math.isfinite(weights[name]) and weights[name] >= 0.0):
            raise ValueError(f"--weights: {name} needs a finite weight >= 0, got {w.strip()!r}")
    if not sum(weights.values()) > 0.0:
        raise ValueError(f"--weights must sum to a positive total, got {text!r}")
    return weights


def _cmd_verify_inequalities(args):
    grid = _grid(args)
    with _bad_values():
        weights = _parse_weights(args.weights) if args.weights else None
        check_output_dir(args.out_dir)
    if args.samples < 2:
        raise _UsageError(f"--samples must be >= 2 for the split-half check, got {args.samples}")
    if args.poincare_samples < 1:
        raise _UsageError(f"--poincare-samples must be >= 1, got {args.poincare_samples}")
    if args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")
    if args.constants_path:
        # a corrupt ledger, or one in a missing directory, fails before any output
        with _bad_values():
            load_constants(args.constants_path)
    rows, report = ineq_mod.nash_suite(grid, args.samples, args.seed, weights)
    os.makedirs(args.out_dir, exist_ok=True)
    cols = ("family", "lhs", "rhs_branch1", "rhs_branch2", "ratio", "psi_c")
    write_csv(os.path.join(args.out_dir, "nash_samples.csv"), cols, ([r[c] for c in cols] for r in rows))

    # split-half stability of the suite maximum
    ratios = [r["ratio"] for r in rows]
    half = len(ratios) // 2
    m1, m2 = max(ratios[:half]), max(ratios[half:])
    stable = abs(m1 - m2) <= 0.15 * max(m1, m2)

    rng = np.random.default_rng(args.seed + 1)
    poincare_max = 0.0
    for _ in range(args.poincare_samples):
        f = ineq_mod.sample_test_field(grid, rng, "generic")
        vals = f.data - f.data.mean(axis=1, keepdims=True)
        poincare_max = max(poincare_max, ineq_mod.poincare_check(ScalarField(grid, vals)))
    ok = stable and poincare_max <= 1.0 + 1e-10

    summary = {
        "samples": report.samples,
        "nash_max_ratio": report.max_ratio,
        "nash_quantiles": report.quantiles,
        "split_half": [m1, m2],
        "stable_15pct": stable,
        "poincare_max": poincare_max,
        "config": report.config,
    }
    write_json(os.path.join(args.out_dir, "summary.json"), summary)
    if args.constants_path:
        update_constant(
            args.constants_path,
            EstimatedConstant(name="C_nash", value=report.max_ratio, provenance=report.config),
        )
    print(
        f"verify-inequalities: nash max {report.max_ratio:.4f} "
        f"(halves {m1:.4f}/{m2:.4f}), poincare max {poincare_max:.6f}"
    )
    return 0 if ok else 1


def _parse_lattice(text, flag):
    """A start:stop:count lattice with count >= 1."""
    try:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError:
        raise ValueError(f"{flag} needs start:stop:count, got {text!r}") from None
    if n < 1:
        raise ValueError(f"{flag} needs a count >= 1, got {text!r}")
    return np.linspace(a, b, n)


def _cmd_kernel_table(args):
    with _bad_values():
        xs = _parse_lattice(args.x1, "--x1")
        ys = _parse_lattice(args.x2, "--x2")
        out = contextlib.nullcontext(sys.stdout) if args.out == "-" else open(args.out, "w", encoding="utf-8")
    with out as fh:
        fh.write(csv_row(("x1", "x2", "K", "gradperpK_1", "gradperpK_2")))
        for x in xs:
            for y in ys:
                try:
                    k = kernel_K(x, y)
                    g1, g2 = grad_perp_K(x, y)
                except ValueError:
                    k, g1, g2 = math.nan, math.nan, math.nan
                fh.write(csv_row((x, y, k, g1, g2)))
    return 0


def _cmd_fit_rates(args):
    col = diag_mod.CSV_COLUMNS.index(args.column)
    with _bad_values():
        series = [(r.t, r.csv_values()[col]) for r in read_csv_records(args.csv)]
        fit = diag_mod.fit_decay_rate(series, (args.t_lo, args.t_hi), args.model)
    print(
        json.dumps(
            {
                "model": fit.model,
                "exponent_or_rate": fit.exponent_or_rate,
                "window": list(fit.window),
                "rms_log_residual": fit.rms_log_residual,
            }
        )
    )
    return 0


def _parse_window(text, flag):
    window = tuple(_parse_floats(text))
    if len(window) != 2:
        raise ValueError(f"{flag} needs two values lo,hi, got {text!r}")
    return window


def _cmd_report(args):
    with _bad_values():
        window = _parse_window(args.window, "--window") if args.window else None
        t_grid = tuple(_parse_floats(args.t_grid))
        laminar_window = _parse_window(args.laminar_window, "--laminar-window")
        check_output_file(args.out)
    c3 = args.c3
    if c3 is None:
        # a corrupt ledger, or one in a missing directory, fails before any work
        try:
            with _bad_values():
                c3 = get_constant(args.constants_path, "C3")
        except KeyError:
            pass  # estimated from the run below and recorded in the ledger
    snap_dir = os.path.join(args.run_dir, "snapshots")
    names = sorted(n for n in os.listdir(snap_dir) if n.endswith(".bin")) if os.path.isdir(snap_dir) else []
    if not names:
        raise _UsageError(f"no snapshots under {snap_dir}")
    with _bad_values():
        states = sorted(((read_state(os.path.join(snap_dir, n)), n) for n in names), key=lambda sn: sn[0].t)
    collector = diag_mod.TrajectoryCollector()
    for s, name in states:
        try:
            collector.add(s)
        except ValueError as exc:
            raise _UsageError(f"{os.path.join(snap_dir, name)}: {exc}") from None

    estimated = c3 is None
    if estimated:
        c3 = ineq_mod.flux_bound_constants(collector)["C3"].max_ratio
    # a --t-grid time between snapshots or a reversed window fails here,
    # before anything is written
    with _bad_values():
        report = diag_mod.theorem_checks(
            collector, c3=c3, t_grid=t_grid, tau=args.tau, window=window, laminar_window=laminar_window
        )
    if estimated:
        g = collector.snapshots[0].state.grid
        update_constant(
            args.constants_path,
            EstimatedConstant(
                "C3", c3, {"nx": g.nx, "ny": g.ny, "lambda": g.lam, "run_dir": args.run_dir}
            ),
        )
        print(f"report: estimated C3={c3:.4g} from the run and recorded it in {args.constants_path}")
    write_json(args.out, report)

    failures = 0
    for row in report["localized_energy"]:
        if row["ratio"] is None:
            print(f"localized-energy T={row['T']:g}: ratio: not measured")
            continue
        ok = row["ratio"] <= 1.0
        failures += 0 if ok else 1
        print(f"localized-energy T={row['T']:g}: ratio={row['ratio']:.4f} {'PASS' if ok else 'FAIL'}")
    lam_sec = report["laminar"]
    if "passes_floor" in lam_sec:
        ok = lam_sec["passes_floor"]
        failures += 0 if ok else 1
        print(
            f"laminar: ul2 rate {lam_sec['ul2_rate']:.3f} vs floor {lam_sec['rate_floor']:.3f} "
            f"{'PASS' if ok else 'FAIL'}"
        )
    for label, x in (
        ("velocity bound ratio", report["velocity_bound"]["ratio"]),
        ("vorticity decay ratio", report["vorticity_decay"]["ratio"]),
        ("smoothing max ratio", report["smoothing"]["max_ratio"]),
    ):
        print(f"{label}: {'not measured' if x is None else f'{x:.4f}'}")
    print(f"report: wrote {args.out}")
    return 1 if failures else 0


def _build_parser():
    ap = argparse.ArgumentParser(prog="cylflow", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate the vorticity equation with diagnostics")
    sim.add_argument("--config", help="flat key=value config file")
    sim.add_argument("--nx", type=int)
    sim.add_argument("--ny", type=int)
    sim.add_argument("--lambda", dest="lam", type=float)
    sim.add_argument("--t-end", dest="t_end", type=float)
    sim.add_argument("--dt-acc", dest="dt_acc", type=float)
    sim.add_argument("--diag-step", dest="diag_step", type=float)
    sim.add_argument("--diag-times", dest="diag_times")
    sim.add_argument("--kind")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--target-ru", dest="target_ru", type=float)
    sim.add_argument("--target-romega", dest="target_romega", type=float)
    sim.add_argument("--band", type=int)
    sim.add_argument("--rho", type=float)
    sim.add_argument("--center")
    sim.add_argument("--out", dest="out_dir")
    sim.add_argument("--no-snapshots", action="store_true")
    sim.set_defaults(fn=_cmd_simulate)

    adv = sub.add_parser("advdiff", help="linear advection-diffusion checks")
    adv.add_argument("--drift", default="zero", choices=advdiff_mod.DRIFT_KINDS)
    adv.add_argument("--amplitude", type=float, default=1.0)
    adv.add_argument("--period", type=float, default=1.0)
    adv.add_argument("--nx", type=int, default=128)
    adv.add_argument("--ny", type=int, default=32)
    adv.add_argument("--lambda", dest="lam", type=float, default=16.0)
    adv.add_argument("--dt-acc", dest="dt_acc", type=float, default=1e-3)
    adv.add_argument("--p-list", dest="p_list", default="")
    adv.add_argument("--q-list", dest="q_list", default="")
    adv.add_argument("--times", default="0.1,0.5,1.0")
    adv.add_argument("--sigma0", type=float, default=0.0, help="0 means 2*max(dx, dy)")
    adv.add_argument("--y1", type=float, default=None)
    adv.add_argument("--y2", type=float, default=0.5)
    adv.add_argument("--envelope-times", dest="envelope_times", default="")
    adv.add_argument("--envelope-lambda", dest="envelope_lambda", type=float, default=0.9)
    adv.add_argument("--out", dest="out_dir", default="out-advdiff")
    adv.set_defaults(fn=_cmd_advdiff)

    ver = sub.add_parser("verify-inequalities", help="sample the functional inequalities")
    ver.add_argument("--samples", type=int, default=1000)
    ver.add_argument("--poincare-samples", dest="poincare_samples", type=int, default=50)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--nx", type=int, default=64)
    ver.add_argument("--ny", type=int, default=64)
    ver.add_argument("--lambda", dest="lam", type=float, default=16.0)
    ver.add_argument("--weights", default="", help="family=weight list, e.g. broad=1,narrow=2")
    ver.add_argument("--out", dest="out_dir", default="out-inequalities")
    ver.add_argument("--constants", dest="constants_path", default="")
    ver.set_defaults(fn=_cmd_verify_inequalities)

    ker = sub.add_parser("kernel-table", help="tabulate K and grad-perp K as CSV")
    ker.add_argument("--x1", required=True, help="start:stop:count")
    ker.add_argument("--x2", required=True, help="start:stop:count")
    ker.add_argument("--out", default="-")
    ker.set_defaults(fn=_cmd_kernel_table)

    fit = sub.add_parser("fit-rates", help="decay-rate fit on a diagnostics CSV column")
    fit.add_argument("--csv", required=True)
    fit.add_argument("--column", default="sup_uhat", choices=diag_mod.CSV_COLUMNS)
    fit.add_argument("--t-lo", dest="t_lo", type=float, required=True)
    fit.add_argument("--t-hi", dest="t_hi", type=float, required=True)
    fit.add_argument("--model", default="exponential", choices=["exponential", "power"])
    fit.set_defaults(fn=_cmd_fit_rates)

    rep = sub.add_parser("report", help="theorem-level report from a simulate run directory")
    rep.add_argument("--run-dir", dest="run_dir", required=True)
    rep.add_argument("--constants", dest="constants_path", default="constants.json")
    rep.add_argument("--c3", type=float, default=None, help="override the ledger C3")
    rep.add_argument("--t-grid", dest="t_grid", default="1,4,16")
    rep.add_argument("--tau", type=float, default=0.1)
    rep.add_argument("--window", default="")
    rep.add_argument("--laminar-window", dest="laminar_window", default="0.05,0.5")
    rep.add_argument("--out", default="report.json")
    rep.set_defaults(fn=_cmd_report)
    return ap


@functools.lru_cache(maxsize=1)
def _parser():
    """The one parser of the process, built on first use; parsing leaves it
    as it was."""
    return _build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"cylflow {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
