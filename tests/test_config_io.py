import json
from dataclasses import fields

import numpy as np
import pytest

from cylflow.config import (
    EstimatedConstant,
    RunConfig,
    get_constant,
    load_constants,
    parse_config,
    serialize_config,
    update_constant,
)
from cylflow.diagnostics import CSV_COLUMNS, DiagnosticsOptions, DiagnosticsRecord
from cylflow.io import (
    csv_row,
    read_csv_records,
    read_field,
    read_state,
    write_csv_records,
    write_field,
    write_json,
    write_state,
)
from cylflow.solver import InitialDataSpec, make_initial_data
from cylflow.spectral import ScalarField, make_grid, to_spectral
from conftest import random_band_limited


class TestParseConfig:
    def test_minimal_file_all_defaults(self):
        assert parse_config("") == RunConfig()
        assert parse_config("# just a comment\n\n") == RunConfig()

    def test_values_and_comments(self):
        cfg = parse_config("nx = 32\nlambda = 8.0  # box\nsnapshots = false\nseed=3\n")
        assert cfg.nx == 32 and cfg.lam == 8.0 and cfg.snapshots is False and cfg.seed == 3

    def test_odd_nx_rejected(self):
        with pytest.raises(ValueError):
            parse_config("nx = 63\n")

    def test_duplicate_key_named(self):
        with pytest.raises(ValueError, match="duplicate key 'seed'"):
            parse_config("seed = 1\nseed = 2\n")

    def test_unknown_key_named(self):
        with pytest.raises(ValueError, match="unknown key 'dt'"):
            parse_config("dt = 0.1\n")

    def test_constants_path_is_unknown(self):
        # the ledger path is a flag of the commands that use the ledger
        with pytest.raises(ValueError, match="unknown key 'constants_path'"):
            parse_config("constants_path = constants.json\n")

    def test_round_trip(self):
        cfg = RunConfig(nx=32, ny=48, lam=12.0, seed=9, diag_times="0.1,0.25", kind="laminar_small")
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("dt_acc", ["0", "-1e-3", "nan", "inf"])
    def test_dt_acc_finite_and_positive(self, dt_acc):
        with pytest.raises(ValueError, match="dt_acc must be finite and positive"):
            parse_config(f"dt_acc = {dt_acc}\n")

    @pytest.mark.parametrize(
        "text",
        ["lambda = nan\n", "t_end = inf\n", "diag_step = inf\n", "rho = nan\n", "rho = inf\n",
         "target_ru = inf\n", "target_romega = nan\n", "diag_times = 0,nan\n", "diag_times = 0,inf\n"],
    )
    def test_values_finite(self, text):
        with pytest.raises(ValueError, match="finite"):
            parse_config(text)

    @pytest.mark.parametrize(
        "text, word",
        [("kind = bogus\n", "bogus"), ("seed = -1\n", "seed"), ("center = nan\n", "nan"),
         ("center = inf\n", "inf"), ("center = middle\n", "middle"), ("nx = 7\n", "nx=7")],
    )
    def test_values_checked_by_the_objects_they_build(self, text, word):
        with pytest.raises(ValueError, match=word):
            parse_config(text)

    def test_builds_what_simulate_uses(self):
        cfg = parse_config("nx = 32\nlambda = 8\ncenter = 3.5\nrho = 2\nkind = laminar_small\nseed = 4\n")
        assert (cfg.grid().nx, cfg.grid().ny, cfg.grid().lam) == (32, 64, 8.0)
        assert cfg.initial_data_spec() == InitialDataSpec(kind="laminar_small", seed=4, target_romega=1.0)
        assert cfg.diagnostics_options() == DiagnosticsOptions(rho=2.0, center=3.5)
        assert RunConfig().diagnostics_options().center == "argmax_e"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("nx = abc\n", "line 1: key 'nx' expects an integer, got 'abc'"),
            ("seed = 1.5\n", "line 1: key 'seed' expects an integer, got '1.5'"),
            ("nx = 32\nlambda = x\n", "line 2: key 'lambda' expects a number, got 'x'"),
            ("snapshots = Maybe\n", "line 1: key 'snapshots' expects a boolean, got 'Maybe'"),
        ],
    )
    def test_malformed_value_names_line_and_key(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_config(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text, word", [("t_end = 0.1\ndiag_times = 0,0.2\n", "0.2"),
                                            ("t_end = 0.1\ndiag_times = -0.01,0.1\n", "-0.01")])
    def test_diag_times_within_the_run(self, text, word):
        with pytest.raises(ValueError, match=f"requested times must lie within .*got {word}$"):
            parse_config(text)
        # the run's own tolerance: a sum that rounds past t_end still lands
        assert parse_config(f"t_end = 0.3\ndiag_times = 0.1,{0.1 + 0.2!r}\n").t_end == 0.3

    def test_random_band_within_the_dealias_band(self):
        with pytest.raises(ValueError, match="band 6 exceeds"):
            parse_config("nx = 16\nny = 16\nband = 6\n")
        with pytest.raises(ValueError, match="band 6 exceeds"):
            parse_config("nx = 16\nny = 16\nband = 6\nkind = laminar_small\n")
        assert parse_config("nx = 16\nny = 16\nband = 5\n").band == 5
        # the shear kinds ignore band
        assert parse_config("nx = 16\nny = 16\nband = 6\nkind = shear_eigenmode\n").band == 6

    def test_schedule_strictly_increasing(self):
        with pytest.raises(ValueError):
            parse_config("diag_times = 0.2,0.1\n")

    def test_schedule_from_step(self):
        cfg = parse_config("t_end = 0.2\ndiag_step = 0.05\n")
        assert cfg.diag_schedule() == pytest.approx([0.0, 0.05, 0.1, 0.15, 0.2])


class TestConstantsLedger:
    def test_update_and_get(self, tmp_path):
        path = str(tmp_path / "constants.json")
        update_constant(path, EstimatedConstant("C3", 0.012, {"nx": 64}))
        update_constant(path, EstimatedConstant("K1", 0.3, {"nx": 128}))
        update_constant(path, EstimatedConstant("C3", 0.013, {"nx": 128}))
        assert get_constant(path, "C3") == 0.013
        assert set(load_constants(path)) == {"C3", "K1"}
        with pytest.raises(KeyError):
            get_constant(path, "C9")

    def test_missing_file_empty(self, tmp_path):
        assert load_constants(str(tmp_path / "nope.json")) == {}

    def test_failed_update_keeps_previous_ledger(self, tmp_path):
        path = str(tmp_path / "constants.json")
        update_constant(path, EstimatedConstant("C3", 0.012, {"nx": 64}))
        before = open(path, "rb").read()
        with pytest.raises(TypeError):
            update_constant(path, EstimatedConstant("K1", 0.3, {"grid": object()}))
        assert open(path, "rb").read() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["constants.json"]

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            EstimatedConstant("C1", float("nan"))


def _record(t):
    return DiagnosticsRecord(
        t=t,
        sup_u=1.0 / 3.0 + t,
        sup_omega=np.pi,
        sup_uhat=1e-17,
        e_rho=0.1,
        d_rho=0.2,
        ens_rho=0.3,
        ensd_rho=0.4,
        ul2_uhat=0.5,
        residual_energy=0.0,
        residual_enstrophy=1e-300,
        residual_oscillatory=7.0,
    )


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        path = str(tmp_path / "d.csv")
        recs = [_record(0.0), _record(0.125)]
        write_csv_records(recs, path)
        back = read_csv_records(path)
        for a, b in zip(recs, back):
            assert a.csv_values() == b.csv_values()

    def test_record_fields_follow_csv_columns(self):
        # csv_values and read_csv_records rely on this order
        assert [f.name for f in fields(DiagnosticsRecord)] == [c.lower() for c in CSV_COLUMNS]

    def test_short_row_rejected(self, tmp_path):
        path = str(tmp_path / "short.csv")
        write_csv_records([_record(0.0)], path)
        text = open(path).read()
        with open(path, "w") as fh:
            fh.write(text.rstrip("\n").rsplit(",", 1)[0] + "\n")
        with pytest.raises(ValueError, match="row with 11 values, expected 12"):
            read_csv_records(path)

    def test_empty_is_header_only(self, tmp_path):
        path = str(tmp_path / "e.csv")
        write_csv_records([], path)
        content = open(path).read()
        assert content == "t,sup_u,sup_omega,sup_uhat,E_rho,D_rho,Ens_rho,EnsD_rho,ul2_uhat,residual_energy,residual_enstrophy,residual_oscillatory\n"
        assert read_csv_records(path) == []

    def test_schema_mismatch_names_first_bad_column(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("t,sup_u,sup_w\n0,1,2\n")
        with pytest.raises(ValueError, match="column 2 is 'sup_w'"):
            read_csv_records(path)

    def test_bitwise_determinism(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_csv_records([_record(0.1)], p1)
        write_csv_records([_record(0.1)], p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    @pytest.mark.parametrize(
        "value, expected",
        [
            ("narrow", "narrow"),
            (7, f"{7}"),
            (int(True), f"{int(True)}"),
            (1.0 / 3.0, f"{1.0 / 3.0:.17g}"),
            (np.float64(0.1), f"{np.float64(0.1):.17g}"),
            (np.inf, f"{np.inf:.17g}"),
            (-np.inf, f"{-np.inf:.17g}"),
            (np.nan, f"{np.nan:.17g}"),
            (1e-300, f"{1e-300:.17g}"),
        ],
    )
    def test_cell_encoder(self, value, expected):
        """Each cell as the f-strings that wrote the CSV files before, and
        a float cell reads back as the same float64."""
        assert csv_row([value]) == expected + "\n"
        if isinstance(value, float):
            back = float(csv_row([value]))
            assert back == value or (np.isnan(back) and np.isnan(value))


class TestAtomicWrites:
    @pytest.mark.parametrize("name", ["report.json", "run.json"])
    def test_failed_json_write_keeps_previous_file(self, name, tmp_path):
        path = tmp_path / name
        write_json(str(path), {"ratio": 0.5})
        before = path.read_bytes()
        # a value that is not a number fails `default=float` after the
        # first key is already encoded
        with pytest.raises(TypeError):
            write_json(str(path), {"ratio": 0.25, "grid": object()})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]


class TestSnapshots:
    def test_field_round_trip_bitwise(self, tmp_path, grid64):
        f = to_spectral(random_band_limited(grid64, seed=1))
        path = str(tmp_path / "f.bin")
        write_field(f, path, time=0.25)
        back, meta = read_field(path)
        assert np.array_equal(back.data, f.data)
        assert back.grid == grid64
        assert float(meta["time"]) == 0.25
        with pytest.raises(ValueError, match="spectral"):
            write_field(random_band_limited(grid64, seed=1), str(tmp_path / "p.bin"))

    def test_spectral_field_round_trip(self, tmp_path, grid64):
        f = to_spectral(random_band_limited(grid64, seed=2))
        path = str(tmp_path / "s.bin")
        write_field(f, path)
        back, meta = read_field(path)
        assert meta["repr"] == "spectral"
        assert np.array_equal(back.data, f.data)

    def test_state_round_trip(self, tmp_path, grid64):
        st = make_initial_data(
            InitialDataSpec(kind="random_bandlimited", seed=7, target_romega=3.0, target_ru=4.0),
            grid64,
        )
        path = str(tmp_path / "state.bin")
        write_state(st, path)
        back = read_state(path)
        assert np.array_equal(back.omega.data, st.omega.data)
        assert back.c == st.c and back.m_mean == st.m_mean
        assert back.m0_norm == st.m0_norm and back.t == st.t

    def test_missing_file_has_path_context(self, tmp_path):
        with pytest.raises(OSError, match="nothere"):
            read_field(str(tmp_path / "nothere.bin"))

    def test_truncated_file_named(self, tmp_path, grid64):
        path = str(tmp_path / "short.bin")
        write_field(to_spectral(random_band_limited(grid64, seed=3)), path)
        with open(path, "r+b") as fh:
            fh.truncate(64 * 33 * 16 - 16)
        with pytest.raises(ValueError, match="short.bin"):
            read_field(path)

    @pytest.mark.parametrize("fault", ["repeated_key", "no_equals"])
    def test_malformed_sidecar_line_named(self, fault, tmp_path, grid64):
        st = make_initial_data(InitialDataSpec(kind="random_bandlimited", seed=7, target_romega=3.0), grid64)
        path = str(tmp_path / "bad.bin")
        write_state(st, path)
        meta = open(path + ".meta").read()
        with open(path + ".meta", "a") as fh:
            fh.write((meta.splitlines()[0] if fault == "repeated_key" else "no separator") + "\n")
        # the state's sidecar holds eight keys, so the bad line is line 9
        with pytest.raises(ValueError, match=r"bad\.bin\.meta, line 9"):
            read_state(path)

    def test_sidecar_missing_key_named(self, tmp_path, grid64):
        path = str(tmp_path / "nokey.bin")
        write_field(to_spectral(random_band_limited(grid64, seed=3)), path)
        meta = open(path + ".meta").read().splitlines()
        with open(path + ".meta", "w") as fh:
            fh.write("\n".join(ln for ln in meta if not ln.startswith("repr=")) + "\n")
        with pytest.raises(ValueError, match="nokey.bin.meta lacks repr"):
            read_field(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("lambda", "inf"), ("c", "nan"), ("m_mean", "inf"), ("time", "-inf"), ("time", "-1"),
            ("m0_norm", "nan"), ("c", "abc"), ("repr", "physical"),
        ],
    )
    def test_state_sidecar_bad_value_named(self, key, value, tmp_path, grid64):
        st = make_initial_data(InitialDataSpec(kind="random_bandlimited", seed=7, target_romega=3.0), grid64)
        path = str(tmp_path / "bad.bin")
        write_state(st, path)
        meta = open(path + ".meta").read().splitlines()
        with open(path + ".meta", "w") as fh:
            fh.write("\n".join(f"{key}={value}" if ln.startswith(f"{key}=") else ln for ln in meta) + "\n")
        with pytest.raises(ValueError, match=rf"bad\.bin\.meta: .*{key}"):
            read_state(path)
