import ast
import json
import os
import shutil
from dataclasses import fields, replace

import numpy as np
import pytest

from cylflow import diagnostics as diag_mod
from cylflow import solver
from cylflow.biotsavart import kernel_K
from cylflow.cli import _build_parser, main
from cylflow.config import EstimatedConstant, RunConfig, update_constant
from cylflow.diagnostics import CSV_COLUMNS, TrajectoryCollector
from cylflow.io import read_csv_records, read_state, write_state
from cylflow.solver import InitialDataSpec, InstabilityError, make_initial_data
from cylflow.spectral import make_grid, to_physical


def run_cli(*argv):
    return main(list(argv))


def small_run(out, t_end, ru, seed, *extra):
    """A 16x16 run with snapshots every 0.005; ru and seed set m_mean."""
    return run_cli(
        "simulate", "--nx", "16", "--ny", "16", "--lambda", "4", "--t-end", str(t_end), "--diag-step", "0.005",
        "--target-romega", "5", "--target-ru", str(ru), "--seed", str(seed), "--out", str(out), *extra,
    )


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli") / "run")
    code = run_cli(
        "simulate",
        "--nx", "32", "--ny", "32", "--lambda", "8",
        "--t-end", "0.2", "--diag-step", "0.02",
        "--kind", "shear_eigenmode", "--target-romega", "2.0",
        "--out", out,
    )
    assert code == 0
    return out


class TestSimulate:
    def test_outputs_exist(self, sim_dir):
        assert os.path.exists(os.path.join(sim_dir, "diagnostics.csv"))
        assert os.path.exists(os.path.join(sim_dir, "config.txt"))
        assert os.path.exists(os.path.join(sim_dir, "run.json"))
        snaps = os.listdir(os.path.join(sim_dir, "snapshots"))
        assert len([n for n in snaps if n.endswith(".bin")]) == 11

    def test_decay_recorded(self, sim_dir):
        recs = read_csv_records(os.path.join(sim_dir, "diagnostics.csv"))
        assert recs[0].sup_omega == pytest.approx(2.0, rel=1e-12)
        assert recs[-1].sup_omega == pytest.approx(2.0 * np.exp(-4 * np.pi**2 * 0.2), rel=1e-8)

    def test_bitwise_deterministic(self, sim_dir, tmp_path):
        out2 = str(tmp_path / "run2")
        assert run_cli(
            "simulate",
            "--nx", "32", "--ny", "32", "--lambda", "8",
            "--t-end", "0.2", "--diag-step", "0.02",
            "--kind", "shear_eigenmode", "--target-romega", "2.0",
            "--out", out2, "--no-snapshots",
        ) == 0
        a = open(os.path.join(sim_dir, "diagnostics.csv"), "rb").read()
        b = open(os.path.join(out2, "diagnostics.csv"), "rb").read()
        assert a == b

    def test_a_later_run_removes_the_earlier_snapshots(self, tmp_path):
        """A run directory holds one run: a later run into it removes the
        snapshot files of the earlier one, also under --no-snapshots, and
        nothing else."""
        out = tmp_path / "run"
        assert small_run(out, 0.02, 8, 1) == 0
        snaps = out / "snapshots"
        (snaps / "notes.txt").write_text("kept\n")
        first_m_mean = read_state(str(snaps / "state_00004.bin")).m_mean
        assert small_run(out, 0.01, 12, 2) == 0
        names = sorted(os.listdir(snaps))
        assert names == ["notes.txt"] + [f"state_{i:05d}.bin{ext}" for i in range(3) for ext in ("", ".meta")]
        m_means = {read_state(str(snaps / f"state_{i:05d}.bin")).m_mean for i in range(3)}
        assert len(m_means) == 1 and first_m_mean not in m_means
        assert small_run(out, 0.01, 12, 2, "--no-snapshots") == 0
        assert os.listdir(snaps) == ["notes.txt"] and (snaps / "notes.txt").read_text() == "kept\n"

    @pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "over_a_finished_run"])
    def test_an_unfinished_run_leaves_its_snapshots_so_far(self, earlier, tmp_path, monkeypatch):
        """Each snapshot is written when it is taken: a run stopped by an
        InstabilityError leaves the snapshots of the times it reached, each
        readable, its config.txt, and no run.json, diagnostics.csv or
        temporary file, also where a finished run was before."""
        out = tmp_path / "run"
        if earlier:
            assert small_run(out, 0.02, 8, 1) == 0
        real, reached = solver.step, []

        def unstable(state, dt):
            if len(reached) == 11:
                raise InstabilityError("forced", t=state.t)
            reached.append(state.t + dt)
            return real(state, dt)

        monkeypatch.setattr(solver, "step", unstable)
        with pytest.raises(InstabilityError):
            small_run(out, 0.02, 12, 2)
        taken = [t for t in (0.0, 0.005, 0.01, 0.015, 0.02) if t <= max(reached) + 1e-12]
        assert 2 <= len(taken) < 5
        names = sorted(os.listdir(out / "snapshots"))
        assert names == [f"state_{i:05d}.bin{ext}" for i in range(len(taken)) for ext in ("", ".meta")]
        for i, t in enumerate(taken):
            st = read_state(str(out / "snapshots" / f"state_{i:05d}.bin"))
            assert st.t == pytest.approx(t, abs=1e-12) and st.grid.nx == 16
        assert sorted(os.listdir(out)) == ["config.txt", "snapshots"]
        assert "seed = 2" in (out / "config.txt").read_text()

    def test_every_config_field_has_a_flag(self):
        # the overrides are read by field name, and a flag not given reads None
        args = _build_parser().parse_args(["simulate"])
        assert [f.name for f in fields(RunConfig) if getattr(args, f.name, "missing") is not None] == []
        assert _build_parser().parse_args(["simulate", "--no-snapshots"]).snapshots is False

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nx = 32\nny = 32\nlambda = 8.0\nt_end = 0.05\nkind = shear_eigenmode\ntarget_romega = 1.0\n")
        out = str(tmp_path / "run3")
        assert run_cli("simulate", "--config", str(cfg), "--seed", "4", "--out", out, "--no-snapshots") == 0
        text = open(os.path.join(out, "config.txt")).read()
        assert "seed = 4" in text and "nx = 32" in text


class TestReport:
    def test_report_from_run_dir(self, sim_dir, tmp_path):
        rep_path = str(tmp_path / "report.json")
        code = run_cli(
            "report",
            "--run-dir", sim_dir,
            "--c3", "1.0",
            "--t-grid", "0.1,0.2",
            "--tau", "0.1",
            "--laminar-window", "0.02,0.18",
            "--out", rep_path,
        )
        assert code == 0
        rep = json.load(open(rep_path))
        assert rep["provenance"]["M"] == pytest.approx(2.0, rel=1e-12)
        assert all(row["ratio"] <= 1.0 for row in rep["localized_energy"])
        assert rep["laminar"]["uhat_rate"] == pytest.approx(4 * np.pi**2, rel=0.01)

    def test_report_builds_no_records(self, sim_dir, tmp_path, monkeypatch):
        # the report reads the collected snapshots; the CSV records are not needed
        def refuse(self):
            raise AssertionError("report must not build diagnostics records")

        monkeypatch.setattr(TrajectoryCollector, "finalize", refuse)
        rep_path = str(tmp_path / "report.json")
        const = str(tmp_path / "constants.json")
        code = run_cli(
            "report",
            "--run-dir", sim_dir,
            "--constants", const,
            "--t-grid", "0.1,0.2",
            "--laminar-window", "0.02,0.18",
            "--out", rep_path,
        )
        assert code in (0, 1)
        assert json.load(open(rep_path))["provenance"]["c3"] == json.load(open(const))["C3"]["value"]

    def test_unmeasured_ratio_is_null(self, tmp_path, capsys):
        """At lambda = 16 the default vorticity-decay window [1, 0.1 (lam/2pi)^2]
        is empty: the report writes null and says so, not a ratio of 0."""
        run_dir = str(tmp_path / "run")
        argv = ["simulate", "--nx", "16", "--ny", "16", "--lambda", "16", "--t-end", "1.2", "--out", run_dir]
        assert run_cli(*argv) == 0
        rep_path = tmp_path / "report.json"
        assert run_cli("report", "--run-dir", run_dir, "--c3", "1.0", "--t-grid", "1", "--out", str(rep_path)) in (0, 1)
        decay = json.loads(rep_path.read_text())["vorticity_decay"]
        assert decay["samples"] == 0 and decay["ratio"] is None
        assert "vorticity decay ratio: not measured" in capsys.readouterr().out.splitlines()

    def test_unmeasured_localized_energy_is_neither_pass_nor_fail(self, tmp_path, capsys):
        """Zero initial data: every localized-energy ratio is 0/0, written
        as null and printed as not measured, and no row fails the report."""
        run_dir = str(tmp_path / "run")
        argv = ["simulate", "--nx", "16", "--ny", "16", "--lambda", "16", "--t-end", "0.2",
                "--kind", "random_bandlimited", "--target-romega", "0", "--target-ru", "0", "--out", run_dir]
        assert run_cli(*argv) == 0
        rep_path = tmp_path / "report.json"
        capsys.readouterr()
        assert run_cli("report", "--run-dir", run_dir, "--c3", "1.0", "--t-grid", "0.1,0.2",
                       "--out", str(rep_path)) == 0
        rows = json.loads(rep_path.read_text())["localized_energy"]
        assert [(row["T"], row["ratio"]) for row in rows] == [(0.1, None), (0.2, None)]
        out = capsys.readouterr().out.splitlines()
        assert "localized-energy T=0.1: ratio: not measured" in out
        assert "localized-energy T=0.2: ratio: not measured" in out
        assert not [line for line in out if "PASS" in line or "FAIL" in line]

    def test_failed_report_write_keeps_previous_report(self, sim_dir, tmp_path, monkeypatch):
        rep_path = tmp_path / "report.json"
        argv = ["report", "--run-dir", sim_dir, "--c3", "1.0", "--t-grid", "0.1", "--out", str(rep_path)]
        assert run_cli(*argv) in (0, 1)
        before = rep_path.read_bytes()
        checks = diag_mod.theorem_checks

        def unserializable(*args, **kwargs):
            # a value JSON cannot encode, after most of the report
            return {**checks(*args, **kwargs), "laminar": object()}

        monkeypatch.setattr(diag_mod, "theorem_checks", unserializable)
        with pytest.raises(TypeError):
            run_cli(*argv)
        assert rep_path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


class TestAdvdiff:
    def test_envelope_and_lplq(self, tmp_path):
        out = str(tmp_path / "adv")
        code = run_cli(
            "advdiff",
            "--drift", "steady_shear_u1", "--amplitude", "1.0",
            "--nx", "96", "--ny", "24", "--lambda", "12",
            "--dt-acc", "2e-3",
            "--p-list", "1", "--q-list", "inf", "--times", "0.2,0.5",
            "--envelope-times", "0.5", "--envelope-lambda", "0.9",
            "--out", out,
        )
        assert code == 0
        lines = open(os.path.join(out, "lplq.csv")).read().splitlines()
        assert lines[0] == "p,q,t,ratio"
        assert len(lines) == 3
        env = open(os.path.join(out, "envelope.csv")).read().splitlines()
        assert env[0] == "t,slope,K2_est,lambda_eff,passed"
        assert env[1].endswith(",1")


class TestKernelTable:
    def test_csv_shape(self, capsys):
        assert run_cli("kernel-table", "--x1", "0.5:1.5:3", "--x2", "0:1:5") == 0
        outlines = capsys.readouterr().out.splitlines()
        assert outlines[0] == "x1,x2,K,gradperpK_1,gradperpK_2"
        assert len(outlines) == 1 + 15

    def test_singular_points_are_nan(self, capsys):
        assert run_cli("kernel-table", "--x1", "0:0:1", "--x2", "0:0:1") == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert "nan" in row

    def test_out_file_holds_the_stdout_table(self, tmp_path, capsys):
        out = tmp_path / "k.csv"
        argv = ["kernel-table", "--x1=-0.5:1.5:5", "--x2", "0:1:4"]
        assert run_cli(*argv) == 0
        assert run_cli(*argv, "--out", str(out)) == 0
        assert out.read_text() == capsys.readouterr().out
        assert os.listdir(tmp_path) == ["k.csv"]


class TestFitRates:
    def test_fit_from_csv(self, sim_dir, capsys):
        code = run_cli(
            "fit-rates",
            "--csv", os.path.join(sim_dir, "diagnostics.csv"),
            "--column", "sup_omega",
            "--t-lo", "0", "--t-hi", "0.2",
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["exponent_or_rate"] == pytest.approx(4 * np.pi**2, rel=1e-6)

    @pytest.mark.parametrize("column", ["E_rho", "D_rho", "Ens_rho", "EnsD_rho"])
    def test_columns_by_csv_header_name(self, column, sim_dir, capsys):
        csv = os.path.join(sim_dir, "diagnostics.csv")
        assert run_cli("fit-rates", "--csv", csv, "--column", column, "--t-lo", "0", "--t-hi", "0.2") == 0
        rate = json.loads(capsys.readouterr().out)["exponent_or_rate"]
        if column == "Ens_rho":  # 0.5 omega^2 of the decaying shear mode
            assert rate == pytest.approx(8 * np.pi**2, rel=1e-6)
        assert np.isfinite(rate)

    def test_unknown_column_is_a_usage_error(self, sim_dir, capsys):
        csv = os.path.join(sim_dir, "diagnostics.csv")
        assert run_cli("fit-rates", "--csv", csv, "--column", "e_rho", "--t-lo", "0", "--t-hi", "0.2") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "fit-rates" in err[0] and "--column" in err[0] and "e_rho" in err[0]


class TestVerifyInequalities:
    def test_runs_and_writes(self, tmp_path):
        out = str(tmp_path / "ineq")
        const = str(tmp_path / "constants.json")
        code = run_cli(
            "verify-inequalities",
            "--samples", "80", "--poincare-samples", "10",
            "--nx", "32", "--ny", "32", "--lambda", "8",
            "--out", out, "--constants", const,
        )
        assert code == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["poincare_max"] <= 1.0 + 1e-10
        assert json.load(open(const))["C_nash"]["value"] == summary["nash_max_ratio"]


class TestCleanFailures:
    """Bad values end with exit code 2 and one stderr line, before any work."""

    @pytest.mark.parametrize("command", ["advdiff", "verify-inequalities"])
    def test_bad_grid(self, command, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run_cli(command, "--nx", "7", "--out", out) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and command in err[0] and "nx=7" in err[0]
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "argv, word",
        [
            (["simulate", "--nx", "7"], "7"),
            (["simulate", "--kind", "bogus"], "bogus"),
            (["simulate", "--center", "foo"], "foo"),
            (["simulate", "--config", "{cfg}"], "bogus_key"),
            (["advdiff", "--p-list", "1,2", "--q-list", "inf"], "pair up"),
            (["advdiff", "--p-list", "1", "--q-list", "inf", "--times", "0.1,abc"], "abc"),
            (["advdiff", "--p-list", "0.5", "--q-list", "inf"], "1 <= p <= q"),
            (["verify-inequalities", "--weights", "broad=x"], "'x'"),
            (["verify-inequalities", "--weights", "bogus=1"], "bogus"),
            (["verify-inequalities", "--weights", "broad=0"], "positive"),
            (["verify-inequalities", "--weights", "broad=-1,narrow=1"], "-1"),
            (["verify-inequalities", "--samples", "1"], "--samples"),
            (["verify-inequalities", "--poincare-samples", "-3"], "-3"),
            (["simulate", "--config", "{missing}"], "missing.cfg"),
            (["advdiff", "--p-list", "1", "--q-list", "inf", "--times", "-0.1"], "--times"),
            (["advdiff", "--p-list", "1", "--q-list", "inf", "--times", ","], "--times"),
            (["advdiff", "--envelope-times", "0"], "--envelope-times"),
            (["advdiff", "--envelope-times", "0.1", "--sigma0", "0.01"], "sigma0"),
            (["advdiff", "--envelope-times", "0.1", "--envelope-lambda", "1"], "--envelope-lambda"),
            (["advdiff", "--envelope-times", "0.1", "--dt-acc", "0"], "--dt-acc"),
            (["advdiff", "--envelope-times", "0.1", "--dt-acc", "nan"], "--dt-acc"),
            (["advdiff", "--envelope-times", "0.1", "--y1", "nan"], "--y1"),
            (["advdiff", "--envelope-times", "0.1", "--amplitude", "inf"], "amplitude"),
            (["simulate", "--dt-acc", "0"], "dt_acc"),
            (["simulate", "--dt-acc", "nan"], "dt_acc"),
            (["simulate", "--rho", "nan"], "rho"),
            (["simulate", "--rho", "inf"], "rho"),
            (["simulate", "--target-romega", "nan"], "Reynolds"),
            (["simulate", "--target-ru", "inf"], "Reynolds"),
            (["simulate", "--diag-step", "inf"], "diag_step"),
            (["simulate", "--t-end", "inf"], "t_end"),
            (["simulate", "--t-end", "nan"], "t_end"),
            (["simulate", "--lambda", "nan"], "lambda"),
            (["simulate", "--diag-times", "nan"], "diagnostic times"),
            (["simulate", "--nx", "48", "--ny", "48", "--band", "17"], "band"),
            (["simulate", "--nx", "48", "--ny", "48", "--band", "16"], "band"),
            (["simulate", "--center", "nan"], "nan"),
            (["simulate", "--center", "inf"], "inf"),
            (["simulate", "--seed", "-1"], "seed"),
            (["verify-inequalities", "--seed", "-1"], "--seed"),
            (["simulate", "--config", "{nan_center}"], "nan"),
            (["simulate", "--config", "{bogus_kind}"], "bogus"),
            (["simulate", "--nx", "16", "--ny", "16", "--lambda", "4", "--t-end", "0.01", "--diag-times", "0,0.02"],
             "got 0.02"),
            (["simulate", "--t-end", "0.01", "--diag-times=-0.01,0.01"], "got -0.01"),
            (["simulate", "--config", "{late_diag}"], "got 0.2"),
            (["simulate", "--config", "{wide_band}"], "band 6"),
            (["simulate", "--config", "{abc_nx}"], "line 1: key 'nx' expects an integer, got 'abc'"),
            (["simulate", "--config", "{frac_seed}"], "line 1: key 'seed' expects an integer, got '1.5'"),
            (["simulate", "--config", "{x_lambda}"], "line 1: key 'lambda' expects a number, got 'x'"),
            (["simulate", "--diag-times", "0,abc"], "diag_times must be a comma list of numbers, got '0,abc'"),
            (["verify-inequalities", "--weights", "broad=0,broad=1"], "'broad' is given twice"),
            (["simulate", "--nx", "abc"], "abc"),
            (["advdiff", "--drift", "bogus"], "bogus"),
            (["verify-inequalities", "--samples", "two"], "two"),
        ],
    )
    def test_bad_value(self, argv, word, tmp_path, capsys):
        configs = {
            "cfg": "bogus_key = 1\n",
            "nan_center": "center = nan\n",
            "bogus_kind": "kind = bogus\n",
            "late_diag": "t_end = 0.1\ndiag_times = 0,0.2\n",
            "wide_band": "nx = 16\nny = 16\nband = 6\n",
            "abc_nx": "nx = abc\n",
            "frac_seed": "seed = 1.5\n",
            "x_lambda": "lambda = x\n",
        }
        for name, text in configs.items():
            (tmp_path / f"{name}.cfg").write_text(text)
        out = tmp_path / "out"
        paths = {name: tmp_path / f"{name}.cfg" for name in configs}
        argv = [a.format(missing=tmp_path / "missing.cfg", **paths) for a in argv]
        assert run_cli(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and argv[0] in err[0] and word in err[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, out",
        [(c, out) for c in ("simulate", "advdiff", "verify-inequalities") for out in ("", "{file}", "{file}/sub")]
        + [("simulate", "{config}")],
    )
    def test_bad_output_directory(self, command, out, tmp_path, capsys, monkeypatch):
        """An output directory that cannot be made (an empty path, an
        existing file, a path under a file, or a config file's `out_dir =`)
        fails before any initial data, evolution or suite, and writes
        nothing."""
        monkeypatch.chdir(tmp_path)

        def no_work(*args, **kwargs):
            raise AssertionError(f"{command} did work before checking its output directory")

        monkeypatch.setattr("cylflow.cli.make_initial_data", no_work)
        monkeypatch.setattr("cylflow.advdiff.fundamental_solution", no_work)
        monkeypatch.setattr("cylflow.inequalities.nash_suite", no_work)
        (tmp_path / "file").write_text("kept\n")
        (tmp_path / "empty_out.cfg").write_text("nx = 16\nny = 16\nout_dir =\n")
        before = sorted(os.listdir(tmp_path))
        if out == "{config}":
            argv, path = ["simulate", "--config", str(tmp_path / "empty_out.cfg")], ""
        else:
            path = out.format(file=tmp_path / "file")
            argv = [command, "--out", path]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and command in err[0] and repr(path) in err[0]
        assert sorted(os.listdir(tmp_path)) == before and (tmp_path / "file").read_text() == "kept\n"

    @pytest.mark.parametrize("out", ["", "nodir/report.json", "{dir}"], ids=["empty", "missing_dir", "dir"])
    def test_report_bad_output_file(self, out, sim_dir, tmp_path, capsys, monkeypatch):
        """A report path that cannot be written fails before any snapshot
        read or ledger write: a ledger without C3, which the report would
        estimate and record, stays byte-identical."""
        monkeypatch.chdir(tmp_path)

        def no_read(*args, **kwargs):
            raise AssertionError("report read a snapshot before checking --out")

        monkeypatch.setattr("cylflow.cli.read_state", no_read)
        const = tmp_path / "constants.json"
        update_constant(str(const), EstimatedConstant("C_nash", 1.5))
        ledger = const.read_bytes()
        os.makedirs(tmp_path / "dir")
        before = sorted(os.listdir(tmp_path))
        path = out.format(dir=tmp_path / "dir")
        assert run_cli("report", "--run-dir", sim_dir, "--constants", str(const), "--out", path) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "report" in err[0] and repr(path) in err[0]
        assert const.read_bytes() == ledger
        assert sorted(os.listdir(tmp_path)) == before and not os.listdir(tmp_path / "dir")

    def test_snapshots_path_that_is_a_file(self, tmp_path, capsys, monkeypatch):
        """A run's snapshot directory that exists as a file fails before the
        initial data, and nothing is written; without snapshots the run
        does not need it."""
        def no_work(*args, **kwargs):
            raise AssertionError("simulate did work before checking its snapshot directory")

        out = tmp_path / "run"
        out.mkdir()
        (out / "snapshots").write_text("kept\n")
        with monkeypatch.context() as m:
            m.setattr("cylflow.cli.make_initial_data", no_work)
            assert small_run(out, 0.01, 8, 1) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "simulate" in err[0] and str(out / "snapshots") in err[0]
        assert os.listdir(out) == ["snapshots"] and (out / "snapshots").read_text() == "kept\n"
        assert small_run(out, 0.01, 8, 1, "--no-snapshots") == 0
        assert (out / "snapshots").read_text() == "kept\n"

    def test_report_rejects_the_snapshots_of_two_runs(self, tmp_path, capsys):
        """c, m_mean and m0_norm are conserved within a run: a snapshot
        whose values differ from the first one's is named, and nothing is
        written."""
        assert small_run(tmp_path / "a", 0.02, 8, 1) == 0
        assert small_run(tmp_path / "b", 0.01, 12, 2) == 0
        for name in ("state_00003.bin", "state_00003.bin.meta"):
            shutil.copy(tmp_path / "a" / "snapshots" / name, tmp_path / "b" / "snapshots" / name)
        const, rep_path = tmp_path / "constants.json", tmp_path / "report.json"
        argv = ["--t-grid", "0.01", "--tau", "0.005", "--constants", str(const), "--out", str(rep_path)]
        assert run_cli("report", "--run-dir", str(tmp_path / "b"), *argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "report" in err[0] and "state_00003.bin:" in err[0] and "m_mean" in err[0]
        assert not const.exists() and not rep_path.exists()

    def test_report_rejects_snapshots_out_of_time_order(self, sim_dir, tmp_path, capsys):
        """Snapshots are read in name order, which simulate makes time
        order: a state earlier than the one before it is named."""
        run_dir = tmp_path / "run"
        shutil.copytree(os.path.join(sim_dir, "snapshots"), run_dir / "snapshots")
        snaps = run_dir / "snapshots"
        for ext in ("", ".meta"):
            os.replace(snaps / f"state_00002.bin{ext}", tmp_path / "swap")
            os.replace(snaps / f"state_00003.bin{ext}", snaps / f"state_00002.bin{ext}")
            os.replace(tmp_path / "swap", snaps / f"state_00003.bin{ext}")
        rep_path = tmp_path / "report.json"
        assert run_cli("report", "--run-dir", str(run_dir), "--c3", "1.0", "--out", str(rep_path)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].count("state_00003.bin") == 1 and "t=0.04" in err[0] and "t=0.06" in err[0]
        assert not rep_path.exists()

    def test_report_localizes_at_the_run_centre(self, tmp_path):
        """report localizes at the centre simulate recorded in run.json,
        here half a period from the initial energy-density argmax; a run
        directory without run.json (an unfinished run) falls back to the
        argmax."""
        argv = ["--nx", "32", "--ny", "32", "--lambda", "8", "--t-end", "0.05", "--diag-step", "0.025", "--seed", "3"]
        cfg = RunConfig(nx=32, ny=32, lam=8.0, seed=3)
        argmax = cfg.collector()
        argmax.add(make_initial_data(cfg.initial_data_spec(), cfg.grid()))
        center = (argmax.center + 4.0) % 8.0
        run_dir = tmp_path / "run"
        assert run_cli("simulate", *argv, "--center", repr(center), "--out", str(run_dir)) == 0
        assert json.loads((run_dir / "run.json").read_text())["center"] == center

        def ratio(path):
            rep = ["report", "--run-dir", str(run_dir), "--c3", "1", "--t-grid", "0.05", "--out", str(path)]
            assert run_cli(*rep) in (0, 1)
            return json.loads(path.read_text())["localized_energy"][0]["ratio"]

        def want(center):
            coll = TrajectoryCollector(center=center)
            for i in range(3):
                coll.add(read_state(str(run_dir / "snapshots" / f"state_{i:05d}.bin")))
            return diag_mod.theorem_checks(coll, c3=1.0, t_grid=(0.05,))["localized_energy"][0]["ratio"]

        at_center = ratio(tmp_path / "a.json")
        assert at_center == want(center) and abs(at_center - want("argmax_e")) > 1e-4 * at_center
        os.remove(run_dir / "run.json")
        assert ratio(tmp_path / "b.json") == want("argmax_e")

    @pytest.mark.parametrize(
        "text", ["{", "[]", "{}", '{"center": null}', '{"center": "middle"}', '{"center": NaN}'],
        ids=["not_json", "list", "no_center", "null", "unknown_policy", "nan"],
    )
    def test_report_malformed_run_json(self, text, sim_dir, tmp_path, capsys):
        """A run.json without a valid centre fails before any snapshot is
        read or anything is written."""
        run_dir = tmp_path / "run"
        shutil.copytree(sim_dir, run_dir)
        (run_dir / "run.json").write_text(text)
        const, rep_path = tmp_path / "constants.json", tmp_path / "report.json"
        argv = ["report", "--run-dir", str(run_dir), "--constants", str(const), "--out", str(rep_path)]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "report" in err[0] and str(run_dir / "run.json") in err[0]
        assert not const.exists() and not rep_path.exists()

    @pytest.mark.parametrize("make_snapshot_dir", [False, True])
    def test_report_without_snapshots(self, make_snapshot_dir, tmp_path, capsys):
        if make_snapshot_dir:
            os.makedirs(tmp_path / "snapshots")
        rep_path = str(tmp_path / "report.json")
        assert run_cli("report", "--run-dir", str(tmp_path), "--c3", "1.0", "--out", rep_path) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(tmp_path / "snapshots") in err[0]
        assert not os.path.exists(rep_path)

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--t-grid", "1,x"),
            ("--window", "1"),
            ("--laminar-window", "0.1"),
            ("--t-grid", "0.1,0.13"),
            ("--t-grid", "0.02,0"),
            ("--t-grid", "-0.1"),
            ("--c3", "0"),
            ("--c3", "-1"),
            ("--tau", "nan"),
            ("--tau", "0"),
            ("--tau", "-0.01"),
            ("--window", "0.05,0.005"),
            ("--window", "nan,1"),
            ("--laminar-window", "0.5,0.05"),
        ],
    )
    def test_report_bad_value_writes_nothing(self, flag, value, sim_dir, tmp_path, capsys):
        # without --c3 the report would estimate C3 and write it to the ledger
        rep_path = tmp_path / "report.json"
        const = tmp_path / "constants.json"
        argv = ["report", "--run-dir", sim_dir, "--constants", str(const), flag, value, "--out", str(rep_path)]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "report" in err[0] and value.split(",")[-1] in err[0]
        assert not const.exists() and not rep_path.exists()

    def test_report_rejects_ledger_c3_of_zero(self, sim_dir, tmp_path, capsys):
        const = tmp_path / "constants.json"
        update_constant(str(const), EstimatedConstant("C3", 0.0))
        before = const.read_bytes()
        rep_path = tmp_path / "report.json"
        assert run_cli("report", "--run-dir", sim_dir, "--constants", str(const), "--out", str(rep_path)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "C3" in err[0] and "0.0" in err[0]
        assert const.read_bytes() == before and not rep_path.exists()


class TestInputFaults:
    """Unreadable inputs and malformed lattices end with exit code 2 and one
    stderr line, before anything is written."""

    def _one_line(self, capsys, *words):
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and all(w in err[0] for w in words), err

    def test_fit_rates_missing_csv(self, tmp_path, capsys):
        csv = str(tmp_path / "none.csv")
        assert run_cli("fit-rates", "--csv", csv, "--t-lo", "0", "--t-hi", "1") == 2
        self._one_line(capsys, "fit-rates", "none.csv")

    def test_fit_rates_empty_csv(self, tmp_path, capsys):
        csv = tmp_path / "empty.csv"
        csv.write_text("")
        assert run_cli("fit-rates", "--csv", str(csv), "--t-lo", "0", "--t-hi", "1") == 2
        self._one_line(capsys, "fit-rates", "empty.csv")

    def test_fit_rates_short_window(self, sim_dir, capsys):
        csv = os.path.join(sim_dir, "diagnostics.csv")
        assert run_cli("fit-rates", "--csv", csv, "--t-lo", "0", "--t-hi", "0.05") == 2
        self._one_line(capsys, "fit-rates", "8 samples")

    @pytest.mark.parametrize(
        "flag, value", [("--x1", "0:4"), ("--x1", "0:4:x"), ("--x2", "0:1:0"), ("--x1", "0:inf:3"), ("--x1", "nan:1:3")]
    )
    def test_kernel_table_bad_lattice(self, flag, value, tmp_path, capsys):
        out = tmp_path / "k.csv"
        argv = {"--x1": "0:1:2", "--x2": "0:1:2", flag: value}
        assert run_cli("kernel-table", *[a for kv in argv.items() for a in kv], "--out", str(out)) == 2
        self._one_line(capsys, "kernel-table", flag, value)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_fit_rates_non_finite_value(self, value, sim_dir, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        lines = open(os.path.join(sim_dir, "diagnostics.csv"), encoding="utf-8").read().splitlines()
        cells = lines[3].split(",")
        cells[CSV_COLUMNS.index("sup_uhat")] = value
        lines[3] = ",".join(cells)
        csv.write_text("\n".join(lines) + "\n")
        assert run_cli("fit-rates", "--csv", str(csv), "--t-lo", "0", "--t-hi", "0.2") == 2
        self._one_line(capsys, "fit-rates", "finite", value)

    def test_kernel_table_interrupted_keeps_the_old_file(self, tmp_path, monkeypatch):
        """A kernel evaluation that raises midway leaves the old table as it
        was, never a header and the first rows."""
        out = tmp_path / "k.csv"
        out.write_bytes(b"old table\n")
        calls = []

        def failing(x1, x2):
            calls.append((x1, x2))
            if len(calls) == 4:
                raise RuntimeError("interrupted")
            return kernel_K(x1, x2)

        monkeypatch.setattr("cylflow.cli.kernel_K", failing)
        with pytest.raises(RuntimeError, match="interrupted"):
            run_cli("kernel-table", "--x1", "0.5:1.5:3", "--x2", "0:1:5", "--out", str(out))
        assert len(calls) == 4
        assert out.read_bytes() == b"old table\n" and os.listdir(tmp_path) == ["k.csv"]

    def test_kernel_table_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "k.csv"
        assert run_cli("kernel-table", "--x1", "0:1:2", "--x2", "0:1:2", "--out", str(out)) == 2
        self._one_line(capsys, "kernel-table", "k.csv")
        assert not out.parent.exists()

    LEDGERS = {
        "not_json": ("{C3", "not JSON"),
        "value_not_a_number": ('{"C3": {"value": "x"}}', "'C3'"),
        "no_value": ('{"C3": {}}', "'C3'"),
    }

    @pytest.mark.parametrize("fault", sorted(LEDGERS))
    def test_report_corrupt_ledger(self, fault, sim_dir, tmp_path, capsys):
        text, word = self.LEDGERS[fault]
        const = tmp_path / "constants.json"
        const.write_text(text)
        rep_path = tmp_path / "report.json"
        argv = ["report", "--run-dir", sim_dir, "--constants", str(const), "--out", str(rep_path)]
        assert run_cli(*argv) == 2
        self._one_line(capsys, "report", str(const), word)
        assert const.read_text() == text and not rep_path.exists()

    @pytest.mark.parametrize("fault", sorted(LEDGERS))
    def test_verify_inequalities_corrupt_ledger(self, fault, tmp_path, capsys):
        text, word = self.LEDGERS[fault]
        const = tmp_path / "garbage.json"
        const.write_text(text)
        out = tmp_path / "out"
        argv = ["verify-inequalities", "--samples", "4", "--poincare-samples", "1", "--nx", "16", "--ny", "16"]
        assert run_cli(*argv, "--constants", str(const), "--out", str(out)) == 2
        self._one_line(capsys, "verify-inequalities", str(const), word)
        assert const.read_text() == text and not out.exists()

    def test_verify_inequalities_ledger_in_missing_directory(self, tmp_path, capsys):
        const = tmp_path / "nodir" / "c.json"
        out = tmp_path / "out"
        argv = ["verify-inequalities", "--samples", "4", "--poincare-samples", "1", "--nx", "16", "--ny", "16"]
        assert run_cli(*argv, "--constants", str(const), "--out", str(out)) == 2
        self._one_line(capsys, "verify-inequalities", str(const))
        assert not out.exists() and not const.parent.exists()

    def test_report_ledger_in_missing_directory(self, sim_dir, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("read a snapshot")

        monkeypatch.setattr("cylflow.cli.read_state", no_work)
        const = tmp_path / "nodir" / "c.json"
        rep_path = tmp_path / "report.json"
        argv = ["report", "--run-dir", sim_dir, "--constants", str(const), "--out", str(rep_path)]
        assert run_cli(*argv) == 2
        self._one_line(capsys, "report", str(const))
        assert not rep_path.exists() and not const.parent.exists()

    def test_report_empty_ledger_path(self, sim_dir, tmp_path, capsys, monkeypatch):
        """An empty --constants path, where the estimated C3 could never be
        recorded, fails before any snapshot read."""
        def no_work(*args, **kwargs):
            raise AssertionError("read a snapshot")

        monkeypatch.setattr("cylflow.cli.read_state", no_work)
        monkeypatch.chdir(tmp_path)
        assert run_cli("report", "--run-dir", sim_dir, "--constants", "", "--out", str(tmp_path / "report.json")) == 2
        self._one_line(capsys, "report", "''")
        assert not os.listdir(tmp_path)

    def test_fit_rates_bad_value_is_located(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        values = ["0.5"] * len(CSV_COLUMNS)
        values[CSV_COLUMNS.index("sup_u")] = "x"
        csv.write_text(",".join(CSV_COLUMNS) + "\n" + ",".join(values) + "\n")
        assert run_cli("fit-rates", "--csv", str(csv), "--t-lo", "0", "--t-hi", "1") == 2
        self._one_line(capsys, "fit-rates", "bad.csv", "line 2", "sup_u", "'x'")

    @pytest.mark.parametrize("fault", ["truncated", "full_layout", "no_meta", "mixed_grid", "non_finite"])
    def test_report_bad_snapshot(self, fault, sim_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(os.path.join(sim_dir, "snapshots"), run_dir / "snapshots")
        bad = run_dir / "snapshots" / "state_00002.bin"
        words = ()
        if fault == "truncated":
            bad.write_bytes(bad.read_bytes()[:100])
        elif fault == "full_layout":
            # the full (nx, ny) fft2 coefficients that older snapshots held
            w = to_physical(read_state(str(bad)).omega).data
            bad.write_bytes((np.fft.fft2(w) / w.size).astype("<c16").tobytes())
        elif fault == "no_meta":
            os.remove(f"{bad}.meta")
        elif fault == "non_finite":
            coeffs = np.frombuffer(bad.read_bytes(), dtype="<c16").copy()
            coeffs[5] = np.nan
            bad.write_bytes(coeffs.tobytes())
            words = ("non-finite",)
        else:
            # a 48x32 state at the replaced snapshot's time in a 32x32 run
            old = read_state(str(bad))
            wide = make_initial_data(InitialDataSpec(kind="shear_eigenmode"), make_grid(48, 32, old.grid.lam))
            write_state(replace(wide, t=old.t), str(bad))
            words = ("nx=48, ny=32", "nx=32, ny=32")
        rep_path = tmp_path / "report.json"
        const = tmp_path / "constants.json"
        argv = ["report", "--run-dir", str(run_dir), "--constants", str(const), "--out", str(rep_path)]
        assert run_cli(*argv) == 2
        self._one_line(capsys, "report", "state_00002.bin", *words)
        assert not const.exists() and not rep_path.exists()

    @pytest.mark.parametrize(
        "key, value", [("lambda", "inf"), ("c", "nan"), ("m_mean", "inf"), ("time", "nan"), ("m0_norm", "x")]
    )
    def test_report_bad_sidecar_value(self, key, value, sim_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(os.path.join(sim_dir, "snapshots"), run_dir / "snapshots")
        meta = run_dir / "snapshots" / "state_00002.bin.meta"
        lines = meta.read_text().splitlines()
        meta.write_text("\n".join(f"{key}={value}" if ln.startswith(f"{key}=") else ln for ln in lines) + "\n")
        rep_path = tmp_path / "report.json"
        const = tmp_path / "constants.json"
        argv = ["report", "--run-dir", str(run_dir), "--constants", str(const), "--out", str(rep_path)]
        assert run_cli(*argv) == 2
        self._one_line(capsys, "report", "state_00002.bin.meta", key)
        assert not const.exists() and not rep_path.exists()

    @pytest.mark.parametrize("fault", ["repeated_key", "no_equals"])
    def test_report_malformed_sidecar_line(self, fault, sim_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(os.path.join(sim_dir, "snapshots"), run_dir / "snapshots")
        meta = run_dir / "snapshots" / "state_00002.bin.meta"
        text = meta.read_text()
        meta.write_text(text + (text.splitlines()[0] if fault == "repeated_key" else "no separator") + "\n")
        rep_path = tmp_path / "report.json"
        const = tmp_path / "constants.json"
        argv = ["report", "--run-dir", str(run_dir), "--constants", str(const), "--out", str(rep_path)]
        assert run_cli(*argv) == 2
        # the state's sidecar holds eight keys, so the bad line is line 9
        self._one_line(capsys, "report", "state_00002.bin.meta", "line 9")
        assert not const.exists() and not rep_path.exists()


def test_cli_uses_only_public_names_of_the_package():
    """The command line runs the package's public functions: no `_`-prefixed
    name of another cylflow module, imported or read as an attribute."""
    import cylflow.cli

    tree = ast.parse(open(cylflow.cli.__file__, encoding="utf-8").read())
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    private.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if node.attr.startswith("_"):
                private.append(f"{node.value.id}.{node.attr}")
    assert modules and not private, private


def test_successive_calls_behave_like_fresh_ones(tmp_path, capsys):
    """main parses with one parser per process; a call leaves nothing
    behind for the next one, also when it failed on a bad value."""
    import cylflow.cli
    from cylflow.cli import _UsageError

    argvs = [
        ["simulate", "--nx", "32", "--ny", "32", "--lambda", "8", "--t-end", "0.05", "--diag-step", "0.05",
         "--kind", "shear_eigenmode", "--target-romega", "1.0", "--out", str(tmp_path / "sim"), "--no-snapshots"],
        ["verify-inequalities", "--samples", "1", "--out", str(tmp_path / "bad")],
        ["verify-inequalities", "--samples", "80", "--poincare-samples", "10", "--nx", "32", "--ny", "32",
         "--lambda", "8", "--out", str(tmp_path / "ineq")],
    ]
    assert [main(argv) for argv in argvs] == [0, 2, 0]
    assert cylflow.cli._parser() is cylflow.cli._parser()
    for argv in argvs[::2]:
        assert vars(cylflow.cli._parser().parse_args(argv)) == vars(_build_parser().parse_args(argv))
    errors = []
    for parser in (cylflow.cli._parser(), _build_parser()):
        with pytest.raises(_UsageError) as exc:
            parser.parse_args(argvs[1])
        errors.append(str(exc.value))
    assert errors[0] == errors[1] and "--samples" in errors[0]
    assert (tmp_path / "sim" / "diagnostics.csv").exists() and not (tmp_path / "bad").exists()
    summary = json.load(open(tmp_path / "ineq" / "summary.json"))
    assert summary["samples"] == 80 and summary["config"]["seed"] == 0
    assert "--samples" in capsys.readouterr().err
