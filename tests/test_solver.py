import ast
import math
import pathlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import cylflow.solver
from cylflow.advdiff import (
    DriftSpec,
    _shear_advection,
    check_lp_lq,
    duality_residual,
    evolve,
    fundamental_solution,
    periodized_gaussian,
)
from cylflow.biotsavart import _biot_savart
from cylflow.diagnostics import TrajectoryCollector
from cylflow.solver import (
    FlowState,
    InitialDataSpec,
    InstabilityError,
    _band_step,
    _StepWork,
    _cfl_limit,
    _march,
    _nonlinear_ns,
    _sup_speed_with_mean,
    cfl_dt,
    make_initial_data,
    march,
    mean_flow_profile,
    momentum_residual,
    reconstruct_velocity,
    run,
    step,
)
from cylflow.spectral import (
    ScalarField,
    _band_block,
    _band_scatter,
    _derivative_multiplier,
    _forward,
    _inverse,
    _parseval_sq,
    _x1_inverse,
    _x2_inverse,
    make_grid,
    to_physical,
    to_spectral,
    vertical_average,
)


def bisected_mean_flow(u, target):
    """The 200-step bisection that once set `m_mean`: the oracle for
    `make_initial_data`'s closed form."""
    lo, hi = 0.0, target + _sup_speed_with_mean(u, 0.0) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _sup_speed_with_mean(u, mid) < target:
            lo = mid
        else:
            hi = mid
    return hi


class TestInitialData:
    def test_shear_eigenmode(self, grid64):
        A = 2.5
        st = make_initial_data(InitialDataSpec(kind="shear_eigenmode", target_romega=A), grid64)
        w = to_physical(st.omega).data
        assert np.abs(w - A * np.cos(2 * np.pi * grid64.x2)[None, :]).max() < 1e-12
        u = reconstruct_velocity(st)
        expect_u1 = -(A / (2 * np.pi)) * np.sin(2 * np.pi * grid64.x2)[None, :]
        assert np.abs(u.u1.data - expect_u1).max() < 1e-12
        assert np.abs(u.u2.data).max() < 1e-13
        assert st.m0_norm == pytest.approx(A, rel=1e-14)

    def test_vertical_shear(self, grid64):
        amp = 2 * np.pi / 16.0
        st = make_initial_data(InitialDataSpec(kind="vertical_shear", target_romega=amp), grid64)
        u = reconstruct_velocity(st)
        assert np.abs(u.u2.data - np.sin(2 * np.pi * grid64.x1 / 16.0)[:, None]).max() < 1e-12
        assert np.abs(u.u1.data).max() < 1e-13

    def test_random_reproducible_and_scaled(self, grid64):
        spec = InitialDataSpec(kind="random_bandlimited", seed=42, target_ru=4.0, target_romega=6.0)
        a = make_initial_data(spec, grid64)
        b = make_initial_data(spec, grid64)
        assert np.array_equal(a.omega.data, b.omega.data) and a.m_mean == b.m_mean
        assert np.abs(to_physical(a.omega).data).max() == pytest.approx(6.0, rel=1e-13)
        u = reconstruct_velocity(a)
        sup_u = np.sqrt(u.u1.data**2 + u.u2.data**2).max()
        assert abs(sup_u - 4.0) <= 0.05 * 4.0
        # <u1> = 0 in the default frame
        assert np.abs(vertical_average(u.u1).values).max() < 1e-12

    @pytest.mark.parametrize("shape", [(32, 32, 8.0), (48, 48, 4.0), (64, 64, 16.0), (128, 64, 8.0)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_mean_flow_is_the_bisection_crossing(self, shape):
        g = make_grid(*shape)
        for kind, seeds in (("random_bandlimited", range(6)), ("vertical_shear", [0])):
            for seed in seeds:
                # far above, just above and one part in 1e12 above the sup
                # speed that the vorticity induces
                for romega, ratio in ((1.0, 10.0), (20.0, 1.5), (6.0, 1.001), (3.0, 1.0 + 1e-12)):
                    spec = InitialDataSpec(kind=kind, seed=seed, target_romega=romega)
                    w = make_initial_data(spec, g).omega.data
                    u = cylflow.solver._velocity_arrays(g, w, 0.0, 0.0)
                    target = ratio * _sup_speed_with_mean(u, 0.0)
                    st = make_initial_data(replace(spec, target_ru=target), g)
                    assert st.m_mean == bisected_mean_flow(u, target)

    def test_mean_flow_of_the_cfl_benchmark_state(self):
        # 128x128, R_omega 20, R_u 30, seed 0: the closed form alone is 1 ulp low
        g = make_grid(128, 128, 16.0)
        spec = InitialDataSpec(kind="random_bandlimited", seed=0, target_romega=20.0, target_ru=30.0)
        st = make_initial_data(spec, g)
        u = cylflow.solver._velocity_arrays(g, st.omega.data, 0.0, 0.0)
        assert st.m_mean == bisected_mean_flow(u, 30.0)

    def test_mean_flow_target_equal_to_base(self, grid64):
        spec = InitialDataSpec(kind="random_bandlimited", seed=1, target_romega=5.0)
        st = make_initial_data(spec, grid64)
        base = _sup_speed_with_mean(cylflow.solver._velocity_arrays(grid64, st.omega.data, 0.0, 0.0), 0.0)
        out = make_initial_data(replace(spec, target_ru=base), grid64)
        assert out.m_mean == 0.0 and np.array_equal(out.omega.data, st.omega.data)

    def test_unreachable_targets(self, grid64):
        with pytest.raises(ValueError):
            make_initial_data(
                InitialDataSpec(kind="shear_eigenmode", target_romega=0.0, target_ru=1.0), grid64
            )
        with pytest.raises(ValueError):
            # sup speed induced by the vorticity already exceeds the target
            make_initial_data(
                InitialDataSpec(kind="random_bandlimited", seed=0, target_romega=10.0, target_ru=0.01),
                grid64,
            )

    def test_bad_kind_and_band(self, grid64):
        with pytest.raises(ValueError):
            InitialDataSpec(kind="nonsense")
        with pytest.raises(ValueError):
            make_initial_data(InitialDataSpec(kind="random_bandlimited", band=40), grid64)


class TestCfl:
    def test_zero_velocity_gives_accuracy_cap(self, grid64):
        st = make_initial_data(InitialDataSpec(kind="shear_eigenmode", target_romega=0.0), grid64)
        assert cfl_dt(st) == 1e-3

    def test_advection_limited_formula(self):
        g = make_grid(64, 64, 1.0)  # dx = dy = 1/64
        st = FlowState(grid=g, omega=ScalarField.zeros(g, "spectral"), c=10.0)
        assert cfl_dt(st, dt_acc=1.0) == pytest.approx(cylflow.solver.CFL_SAFETY / 640.0, rel=1e-12)

    def test_halving_safety_halves_dt(self, monkeypatch):
        # the safety constant is read at each call, not bound at import
        g = make_grid(64, 64, 1.0)
        st = FlowState(grid=g, omega=ScalarField.zeros(g, "spectral"), c=10.0)
        monkeypatch.setattr(cylflow.solver, "CFL_SAFETY", 0.5)
        half = cfl_dt(st)
        monkeypatch.setattr(cylflow.solver, "CFL_SAFETY", 0.25)
        assert cfl_dt(st) == pytest.approx(0.5 * half, rel=1e-12)

    def test_step_reuses_the_stage_a_of_cfl_dt(self):
        g = make_grid(64, 64, 4.0)
        st = make_initial_data(
            InitialDataSpec(kind="random_bandlimited", seed=2, target_romega=30.0, target_ru=35.0), g
        )
        uncached = replace(st)
        u1, u2 = cylflow.solver._velocity_arrays(g, st.omega.data, st.c, st.m_mean)
        dt = cfl_dt(st, dt_acc=1.0)
        assert dt < 1.0
        assert dt == cylflow.solver._cfl_limit(g, np.abs(u1).max(), np.abs(u2).max(), 1.0)
        assert "_stage_a" in vars(st)
        out = step(st, dt)
        assert "_stage_a" not in vars(st)
        ref = step(uncached, dt)
        assert np.array_equal(out.omega.data, ref.omega.data)
        assert out.omega.data.tobytes() == ref.omega.data.tobytes()

    def test_run_calls_cfl_dt_then_step_once_per_step(self, grid32, monkeypatch):
        # bench/tracing.py counts steps, their dt limits and their transforms
        # on these two calls; a loop that bypasses them reads 0 there
        calls = []

        def wrap(name, fn):
            def wrapper(state, *args, **kwargs):
                calls.append((name, state))
                return fn(state, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(cylflow.solver, "cfl_dt", wrap("cfl_dt", cylflow.solver.cfl_dt))
        monkeypatch.setattr(cylflow.solver, "step", wrap("step", cylflow.solver.step))
        st = make_initial_data(InitialDataSpec(kind="shear_eigenmode", target_romega=1.0), grid32)
        out = run(st, 0.01, diag_times=(0.005,), dt_acc=2e-3)
        assert out.t == 0.01
        assert [name for name, _ in calls] == ["cfl_dt", "step"] * 6  # 0.002 steps, landing on 0.005
        assert all(calls[i][1] is calls[i + 1][1] for i in range(0, len(calls), 2))


class TestFlowState:
    def test_rejects_vorticity_on_another_grid(self, grid64):
        g32 = make_grid(32, 32, 16.0)
        with pytest.raises(ValueError, match=r"nx=32.*nx=64"):
            FlowState(grid=grid64, omega=ScalarField.zeros(g32, "spectral"))
        # equal grids need not be the same object
        FlowState(grid=make_grid(64, 64, 16.0), omega=ScalarField.zeros(grid64, "spectral"))


class TestStep:
    def test_exact_shear_decay(self, grid64):
        st = make_initial_data(InitialDataSpec(kind="shear_eigenmode", target_romega=1.0), grid64)
        for _ in range(100):
            st = step(st, 1e-3)
        w = to_physical(st.omega).data
        expect = np.exp(-4 * np.pi**2 * 0.1) * np.cos(2 * np.pi * grid64.x2)[None, :]
        assert np.abs(w - expect).max() / np.exp(-4 * np.pi**2 * 0.1) < 1e-8

    def test_exact_vertical_shear_decay(self, grid64):
        amp = 2 * np.pi / 16.0
        st = make_initial_data(InitialDataSpec(kind="vertical_shear", target_romega=amp), grid64)
        for _ in range(100):
            st = step(st, 1e-3)
        w = to_physical(st.omega).data
        expect = np.exp(-((2 * np.pi / 16.0) ** 2) * 0.1) * amp * np.cos(2 * np.pi * grid64.x1 / 16.0)[:, None]
        assert np.abs(w - expect).max() / np.abs(expect).max() < 1e-8

    def test_uniform_flow_steady(self, grid64):
        st = FlowState(grid=grid64, omega=ScalarField.zeros(grid64, "spectral"), c=2.0)
        out = step(st, 1e-3)
        assert np.abs(out.omega.data).max() == 0.0
        assert out.c == 2.0 and out.t == pytest.approx(1e-3)

    def test_instability_sentinel(self, grid64):
        # strong mean flow at dt far beyond the advective limit
        st = make_initial_data(
            InitialDataSpec(kind="random_bandlimited", seed=1, target_romega=5.0, band=2, target_ru=30.0),
            grid64,
        )
        with pytest.raises(InstabilityError):
            s = st
            for _ in range(50):
                s = step(s, 0.05)

    def test_instability_sentinel_with_a_carried_norm(self, grid64):
        """The guard of `_band_step` reads the norm the previous step
        returned; it still raises when the step grows that norm more than
        10x."""
        st = make_initial_data(InitialDataSpec(kind="random_bandlimited", seed=1, target_romega=5.0), grid64)
        w = st.omega.data

        def zero(w, t, out):
            out[...] = 0.0
            return out

        def blowup(w, t, out):
            out = zero(w, t, out)
            out += 1e3 * w
            return out

        def guarded(w, t, dt, tendency, pre):
            return _band_step(grid64, w, _StepWork(grid64, w).blocks, t, dt, tendency, pre)

        w1, n1 = guarded(w, 0.0, 1e-3, zero, math.sqrt(_parseval_sq(grid64, w)))
        assert n1 == math.sqrt(_parseval_sq(grid64, w1))
        with pytest.raises(InstabilityError):
            guarded(w1, 1e-3, 1e-2, blowup, n1)
        # a carried norm far below the state's own is what the guard compares
        with pytest.raises(InstabilityError):
            guarded(w1, 1e-3, 1e-3, zero, n1 / 100.0)
        w2, n2 = guarded(w1, 1e-3, 1e-3, zero, n1)
        assert n2 <= n1

    def test_step_carries_the_norm_of_the_new_state(self, grid64):
        """Each state made by `step` carries its own coefficient norm, which
        the guard of its step reads in place of recomputing it."""
        st = make_initial_data(InitialDataSpec(kind="random_bandlimited", seed=1, target_romega=5.0), grid64)
        s1 = step(st, 1e-3)
        assert vars(s1)["_norm"] == math.sqrt(_parseval_sq(grid64, s1.omega.data))
        assert "_norm" not in vars(replace(s1))
        # a wrong carried norm is what the guard compares
        s1.__dict__["_norm"] = 1e-3 * s1._norm
        with pytest.raises(InstabilityError):
            step(s1, 1e-3)

    def test_rejects_nonpositive_dt(self, grid64):
        st = make_initial_data(InitialDataSpec(kind="shear_eigenmode", target_romega=1.0), grid64)
        with pytest.raises(ValueError):
            step(st, 0.0)

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_rejects_non_finite_dt_before_any_work(self, grid64, dt, monkeypatch):
        st = make_initial_data(InitialDataSpec(kind="shear_eigenmode", target_romega=1.0), grid64)

        def no_work(*args, **kwargs):
            raise AssertionError("step did work on a non-finite dt")

        for name in ("_StepWork", "_nonlinear_ns", "_exp_factors", "ifrk4_step"):
            monkeypatch.setattr(cylflow.solver, name, no_work)
        with pytest.raises(ValueError, match="finite"):
            step(st, dt)


class TestRun:
    def test_no_steps_at_t_end(self, grid64):
        st = make_initial_data(InitialDataSpec(kind="shear_eigenmode", target_romega=1.0), grid64)
        coll = TrajectoryCollector()
        out = run(st, st.t, diag_times=[], collector=coll)
        records = coll.finalize()
        assert out is st and records == []

    def test_diag_decay_value(self, grid64):
        st = make_initial_data(InitialDataSpec(kind="shear_eigenmode", target_romega=1.0), grid64)
        coll = TrajectoryCollector()
        run(st, 0.1, diag_times=[0.1], collector=coll)
        records = coll.finalize()
        assert len(records) == 1
        assert records[0].t == 0.1
        assert records[0].sup_omega == pytest.approx(np.exp(-4 * np.pi**2 * 0.1), rel=1e-8)

    def test_determinism(self, grid64):
        spec = InitialDataSpec(kind="random_bandlimited", seed=5, target_romega=4.0)
        outs = []
        for _ in range(2):
            st = make_initial_data(spec, grid64)
            coll = TrajectoryCollector()
            run(st, 0.1, diag_times=[0.05, 0.1], collector=coll)
            recs = coll.finalize()
            outs.append([r.csv_values() for r in recs])
        assert outs[0] == outs[1]

    def test_solver_does_not_import_diagnostics(self):
        # run hands states to a collector it is given; it never builds one
        tree = ast.parse(pathlib.Path(cylflow.solver.__file__).read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.append(node.module or "")
                imported += [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                imported += [a.name for a in node.names]
        assert not [m for m in imported if "diagnostics" in m.split(".")]

    def test_one_stepping_loop(self):
        # `march` and advdiff's `evolve` are the only drivers of _march, and
        # run takes no per-step hook: a caller that wants every step iterates
        package = pathlib.Path(cylflow.solver.__file__).parent
        callers = set()
        for path in sorted(package.glob("*.py")):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                for node in ast.walk(top):
                    func = node.func if isinstance(node, ast.Call) else None
                    if getattr(func, "id", getattr(func, "attr", None)) == "_march":
                        callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
        assert callers == {"solver.march", "advdiff.evolve"}
        tree = ast.parse(pathlib.Path(cylflow.solver.__file__).read_text(encoding="utf-8"))
        (run_def,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "run"]
        a = run_def.args
        assert a.vararg is None and a.kwarg is None
        assert [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs] == [
            "state0", "t_end", "diag_times", "dt_acc", "collector"
        ]

    def test_march_yields_each_step_once(self, grid64, monkeypatch):
        st = make_initial_data(InitialDataSpec(kind="random_bandlimited", seed=1, target_romega=5.0), grid64)
        steps = []
        real_step = cylflow.solver.step

        def counted(state, dt):
            steps.append(dt)
            return real_step(state, dt)

        monkeypatch.setattr(cylflow.solver, "step", counted)
        times = [0.0, 0.0125, 0.03]
        yielded = list(march(st, 0.03, times, dt_acc=4e-3))
        assert yielded[0][0] is st and yielded[0][1] == 0.0
        after = yielded[1:]
        assert len(after) == len(steps) > len(times)
        ts = [s.t for s, _ in after]
        assert all(b > a for a, b in zip([st.t] + ts, ts))
        assert [tc for _, tc in yielded if tc is not None] == times
        assert all(s.t == tc for s, tc in yielded if tc is not None)
        assert ts[-1] == 0.03

    def test_draining_march_is_run(self, grid64):
        spec = InitialDataSpec(kind="random_bandlimited", seed=2, target_romega=6.0, target_ru=7.0)
        times = [0.0, 0.01, 0.02, 0.025]
        coll_run = TrajectoryCollector()
        final = run(make_initial_data(spec, grid64), 0.025, times, dt_acc=4e-3, collector=coll_run)
        coll_march = TrajectoryCollector()
        for last, tc in march(make_initial_data(spec, grid64), 0.025, times, dt_acc=4e-3):
            if tc is not None:
                coll_march.add(last)
        assert last.t == final.t and last.omega.data.tobytes() == final.omega.data.tobytes()
        records = [np.array([r.csv_values() for r in c.finalize()]) for c in (coll_run, coll_march)]
        assert records[0].shape == (4, 12) and records[0].tobytes() == records[1].tobytes()

    @pytest.mark.parametrize("bad", [0.0, -1e-3, float("nan"), float("inf")])
    def test_march_rejects_a_bad_step_limit(self, bad):
        # a zero step used to loop forever; the limit fails the test on its
        # second call instead of hanging the suite if that comes back
        calls = []

        def limit(x, t):
            calls.append(t)
            assert len(calls) == 1, "the loop kept stepping"
            return bad

        with pytest.raises(ValueError, match="step limit must be positive and finite"):
            list(_march(0.0, 0.0, 1.0, (), limit, lambda x, t, dt, t_new: x))

    def test_diag_times_validated(self, grid64):
        st = make_initial_data(InitialDataSpec(kind="shear_eigenmode", target_romega=1.0), grid64)
        with pytest.raises(ValueError):
            run(st, 0.1, diag_times=[0.5])

    @pytest.mark.parametrize("label", [
        "evolve inf", "evolve nan", "fundamental_solution inf", "fundamental_solution nan",
        "check_lp_lq inf", "duality_residual nan", "run inf", "run below t0",
    ])
    def test_end_time_rejected_before_any_step(self, label, monkeypatch):
        """An infinite end time used to step forever, and a NaN one to
        return the initial field (duality_residual then read 0.0, a pass);
        both are rejected before the first step."""

        def no_step(*args, **kwargs):
            raise AssertionError("stepped")

        monkeypatch.setattr(cylflow.solver, "ifrk4_step", no_step)
        g = make_grid(32, 16, 8.0)
        d = DriftSpec(kind="steady_shear_u1", amplitude=1.0)
        f = periodized_gaussian(g, (4.0, 0.5), 0.5)
        inf, nan = math.inf, math.nan
        call = {
            "evolve inf": lambda: evolve(f, d, [inf]),
            "evolve nan": lambda: evolve(f, d, [nan]),
            "fundamental_solution inf": lambda: fundamental_solution(d, (4.0, 0.5), [inf], 0.5, g),
            "fundamental_solution nan": lambda: fundamental_solution(d, (4.0, 0.5), [nan], 0.5, g),
            "check_lp_lq inf": lambda: check_lp_lq(f, 1, 2, evolve(f, d, [0.1, inf])),
            "duality_residual nan": lambda: duality_residual(d, f, f, nan),
            "run inf": lambda: run(make_initial_data(InitialDataSpec(kind="shear_eigenmode"), g), inf),
            "run below t0": lambda: run(make_initial_data(InitialDataSpec(kind="shear_eigenmode"), g), -0.1),
        }[label]
        with pytest.raises(ValueError, match="end time must be finite"):
            call()

    def test_nan_requested_time_rejected(self):
        # a NaN stop used to pass the range check and never land
        with pytest.raises(ValueError, match="requested times"):
            next(_march(0.0, 0.0, 1.0, [0.5, float("nan")], lambda x, t: 0.1, lambda x, t, dt, t_new: x))

    def test_mean_vorticity_stays_exactly_zero(self, grid64):
        st = make_initial_data(InitialDataSpec(kind="random_bandlimited", target_romega=7.0), grid64)
        assert st.omega.data[0, 0] == 0.0
        out = run(st, 0.02, dt_acc=1e-3)
        assert out.omega.data[0, 0] == 0.0

    def test_mean_flow_and_galilean_conserved(self, grid64):
        st = make_initial_data(
            InitialDataSpec(kind="random_bandlimited", seed=9, target_romega=5.0, target_ru=6.0), grid64
        )
        out = run(st, 0.3)
        assert out.m_mean == st.m_mean
        assert out.c == st.c
        u = reconstruct_velocity(out)
        # <u1> equals c exactly at all times (enforced frame)
        assert np.abs(vertical_average(u.u1).values - out.c).max() < 1e-12


class TestConservation:
    def test_energy_decrement_matches_dissipation(self, grid64):
        st = make_initial_data(
            InitialDataSpec(kind="random_bandlimited", seed=3, target_romega=3.0), grid64
        )
        st = run(st, 0.05)  # settle past the band-limited start

        def energy(s):
            u = reconstruct_velocity(s)
            return 0.5 * ((u.u1.data**2 + u.u2.data**2).sum() * grid64.cell_area)

        def dissipation(s):
            coll = TrajectoryCollector()
            coll.add(s)
            return coll.snapshots[0].fine["d"].mean() * grid64.lam

        errs = []
        for dt in (2e-3, 1e-3):
            out = step(st, dt)
            drop = energy(st) - energy(out)
            errs.append(abs(drop - dt * dissipation(st)))
            assert drop > 0.0
        assert errs[0] / errs[1] > 1.8  # O(dt^2) beyond the leading decrement

    def test_mean_flow_heat_equation_residual(self, grid64):
        # d_t m + d1<u1hat u2hat> = d1^2 m, residual small under refinement
        st0 = make_initial_data(
            InitialDataSpec(kind="random_bandlimited", seed=13, target_romega=2.0), grid64
        )
        base = run(st0, 0.1)

        def residual(h, dt_acc):
            lo = base
            mid = run(lo, base.t + h, dt_acc=dt_acc)
            hi = run(mid, mid.t + h, dt_acc=dt_acc)
            m_lo = mean_flow_profile(lo)
            m_mid = mean_flow_profile(mid)
            m_hi = mean_flow_profile(hi)
            dtm = (m_hi - m_lo) / (2 * h)
            spec = np.fft.fft(m_mid)
            d2m = np.fft.ifft(-(grid64.k1**2) * spec).real
            coll = TrajectoryCollector()
            coll.add(mid)
            forcing = coll.snapshots[0].fine["forcing"][::2]
            return np.abs(dtm + forcing - d2m).max()

        r1 = residual(2e-3, 1e-3)
        r2 = residual(1e-3, 5e-4)
        assert r2 < 1e-6
        assert r1 / r2 > 3.0

    def test_temporal_order_on_nonlinear_state(self, grid64):
        st = make_initial_data(
            InitialDataSpec(kind="random_bandlimited", seed=8, target_romega=4.0, band=3), grid64
        )
        ref = run(st, 0.04, dt_acc=6.25e-5)

        def err(dt):
            out = run(st, 0.04, dt_acc=dt)
            return np.abs(out.omega.data - ref.omega.data).max()

        e1, e2 = err(2e-3), err(1e-3)
        assert e1 / e2 >= 12.0  # classical fourth order


class TestMomentumResidual:
    def test_uniform_flow(self, grid64):
        st = FlowState(grid=grid64, omega=ScalarField.zeros(grid64, "spectral"), c=2.0)
        assert momentum_residual(st) < 1e-10

    def test_zero_state(self, grid64):
        st = FlowState(grid=grid64, omega=ScalarField.zeros(grid64, "spectral"))
        assert momentum_residual(st) == 0.0

    def test_second_order_in_dt(self, grid64):
        st = make_initial_data(InitialDataSpec(kind="shear_eigenmode", target_romega=1.0), grid64)
        r1 = momentum_residual(st, dt=2e-3)
        r2 = momentum_residual(st, dt=1e-3)
        assert r1 / r2 >= 3.5

    def test_small_amplitude_threshold(self, grid64):
        # threshold from a refinement study; band 1 keeps the centered
        # difference the dominant error term at dt = 1e-4
        st = make_initial_data(
            InitialDataSpec(kind="random_bandlimited", seed=2, target_romega=0.5, band=1), grid64
        )
        assert momentum_residual(st, dt=1e-4) < 1e-4


def advective_tendency(grid, u1, u2, wx, wy):
    """Dealiased spectral -u.grad(omega) from physical u and grad(omega),
    with the (0, 0) coefficient zeroed; wx is overwritten."""
    wx *= u1
    wx += u2 * wy
    out = -_forward(wx) * grid.dealias_mask
    out[0, 0] = 0.0
    return out


def block_tendency(grid, c, m_mean, w_hat, speeds=False):
    """The step's tendency at the band block of w_hat, in a fresh workspace."""
    work = _StepWork(grid, w_hat)
    return _nonlinear_ns(grid, c, m_mean, work)(work.w, 0.0, np.empty_like(work.w), speeds=speeds)


class TestBasdevantTendency:
    @pytest.mark.parametrize("shape", [(48, 48, 16.0), (64, 64, 16.0), (40, 50, 8.0)])
    def test_matches_the_advective_form(self, shape):
        """The Basdevant tendency, on the band block, equals the dealiased
        -u.grad(omega) of `advective_tendency`, with c and m_mean in the
        velocity, for omega filling the whole dealias band, also where 3
        divides the size."""
        g = make_grid(*shape)
        rng = np.random.default_rng(11)
        w = _forward(rng.standard_normal(g.shape())) * g.dealias_mask
        w[0, 0] = 0.0
        c, m_mean = 0.7, -1.3
        got_block = block_tendency(g, c, m_mean, w)
        assert got_block.shape == (2 * g.band[0] + 1, g.band[1] + 1)
        assert got_block[0, 0] == 0.0
        got = _band_scatter(g, got_block, np.zeros_like(w))
        d1, d2 = _derivative_multiplier(g, 1), _derivative_multiplier(g, 2)
        fields = np.concatenate((_biot_savart(g, w, c, m_mean), np.stack((d1 * w, d2 * w))))
        want = advective_tendency(g, *_inverse(g, fields))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_reads_only_the_dealiased_band(self, grid64):
        """A state may carry modes outside the dealias band; the workspace
        of its step takes only the band block, so the tendency and the sup
        speeds that `cfl_dt` reads do not see them, and the step only
        decays them, by exactly E2 = exp(-|k|^2 dt)."""
        st = make_initial_data(
            InitialDataSpec(kind="random_bandlimited", seed=2, target_romega=5.0, target_ru=6.0), grid64
        )
        st = replace(st, c=0.3)
        noise = _forward(np.random.default_rng(3).standard_normal(grid64.shape()))
        outside = noise * ~grid64.dealias_mask * np.abs(st.omega.data).max() / np.abs(noise).max()
        rough = replace(st, omega=ScalarField(grid64, st.omega.data + outside, "spectral"))
        assert _StepWork(grid64, rough.omega.data).w.tobytes() == _StepWork(grid64, st.omega.data).w.tobytes()
        got, got_speeds = block_tendency(grid64, st.c, st.m_mean, rough.omega.data, speeds=True)
        want, want_speeds = block_tendency(grid64, st.c, st.m_mean, st.omega.data, speeds=True)
        assert got.tobytes() == want.tobytes()
        assert got_speeds == want_speeds
        dt = cfl_dt(rough, dt_acc=1.0)
        assert dt == cfl_dt(st, dt_acc=1.0)
        got, want = step(rough, dt).omega.data, step(st, dt).omega.data
        mask = grid64.dealias_mask
        assert got[mask].tobytes() == want[mask].tobytes()
        E2 = np.exp(-grid64.ksq * (0.5 * dt)) ** 2
        assert got[~mask].tobytes() == (E2 * rough.omega.data)[~mask].tobytes()
        assert np.abs(got[~mask]).min() > 0.0


def full_spectrum_cfl_dt_step(grid, w_hat, c, m_mean, dt_acc):
    """The oracle of the step: `cfl_dt` and then `step` as they were on the
    full half spectrum, before the step ran on the band block, from the
    band-limited transform stages up.  Returns (dt, w_new)."""
    k1 = grid.k1[:, None]
    k2 = grid.k2[None, : grid.ny // 2 + 1]
    t0, t1 = ((t * grid.dealias_mask).astype(np.complex128) for t in (k1 * k2, k1**2 - k2**2))
    nb = grid.band[1] + 1

    def tendency(w_hat, out, speeds=False):
        u = _x2_inverse(grid, _x1_inverse(grid, _biot_savart(grid, w_hat, c, m_mean), grid.nx))
        sup = (np.abs(u[0]).max(), np.abs(u[1]).max()) if speeds else None
        q = np.empty_like(u)
        np.multiply(u[0], u[1], out=q[1])
        u *= u
        np.subtract(u[1], u[0], out=q[0])
        q_hat = np.fft.rfft(q, axis=-1, norm="forward")
        band = q_hat[..., :nb]
        np.fft.fft(band, axis=-2, norm="forward", out=band)
        q_hat[..., nb:] = 0.0
        np.multiply(t0, q_hat[0], out=out)
        q_hat[1] *= t1
        out += q_hat[1]
        return (out, sup) if speeds else out

    a, sup = tendency(w_hat, np.empty_like(w_hat), speeds=True)
    dt = _cfl_limit(grid, *sup, dt_acc)
    E = np.exp(-grid.ksq * (0.5 * dt))
    E2 = E * E
    x, y, b, cc, d = (np.empty_like(w_hat) for _ in range(5))
    np.multiply(a, 0.5 * dt, out=x)
    x += w_hat
    x *= E
    tendency(x, b)
    np.multiply(E, w_hat, out=x)
    np.multiply(b, 0.5 * dt, out=y)
    x += y
    tendency(x, cc)
    np.multiply(E, cc, out=y)
    y *= dt
    np.multiply(E2, w_hat, out=x)
    x += y
    tendency(x, d)
    np.add(b, cc, out=x)
    x *= 2.0 * E
    np.multiply(E2, a, out=y)
    y += x
    y += d
    y *= dt / 6.0
    w_new = E2 * w_hat
    w_new += y
    return dt, w_new


class TestBandBlockStep:
    @pytest.mark.parametrize("shape", [(64, 64, 16.0), (48, 48, 16.0), (40, 50, 8.0), (128, 64, 8.0)])
    @pytest.mark.parametrize("kind", ["band_limited", "cfl_limited", "outside_band"])
    def test_bits_of_the_full_spectrum_step(self, shape, kind):
        """20 `cfl_dt` + `step` pairs on the band block have the bits of the
        full half-spectrum oracle: the same dt, and every coefficient's bytes.

        Band-limited data (c and m_mean nonzero; a dt_acc- and a CFL-limited
        run) hold +0 outside the band, and so does the oracle.  Modes outside
        the band decay by exactly E2 = exp(-|k|^2 dt) in the step; the
        oracle adds to them stage combinations that are zero, and so may
        differ in the sign of a coefficient that is zero (one that
        underflowed), nothing else: there the bytes are held with zeros
        made unsigned, and the decay to the bit.
        """
        g = make_grid(*shape)
        ru = 60.0 if kind == "cfl_limited" else 9.0
        st = make_initial_data(InitialDataSpec(kind="random_bandlimited", seed=1, target_romega=6.0, target_ru=ru), g)
        assert st.m_mean > 0.0
        w = st.omega.data
        if kind == "outside_band":
            noise = _forward(np.random.default_rng(3).standard_normal(g.shape()))
            w = w + noise * ~g.dealias_mask * np.abs(w).max() / np.abs(noise).max()
        st = FlowState(g, ScalarField(g, w, "spectral"), c=0.4, m_mean=st.m_mean)
        want = w
        mask = g.dealias_mask
        dts = set()
        for _ in range(20):
            prev = st.omega.data
            dt_want, want = full_spectrum_cfl_dt_step(g, want, st.c, st.m_mean, 1e-3)
            dt = cfl_dt(st)
            st = step(st, dt)
            got = st.omega.data
            assert dt == dt_want
            dts.add(dt)
            assert got[mask].tobytes() == want[mask].tobytes()
            if kind == "outside_band":
                E2 = np.exp(-g.ksq * (0.5 * dt)) ** 2
                assert got[~mask].tobytes() == (E2 * prev)[~mask].tobytes()
                assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
            else:
                assert got.tobytes() == want.tobytes()
        assert (len(dts) > 10) == (kind == "cfl_limited")
        if kind == "outside_band":
            assert np.abs(st.omega.data[~mask]).max() > 0.0

    def test_run_allocates_no_more_than_the_full_spectrum_step(self):
        """The peak of the memory a 128x128 CFL-limited run allocates above
        its start, after a warm-up run, stays at or below 2,341 KB: the
        figure of the full half-spectrum step, measured the same way.  The
        band-block step takes one workspace per step, and its buffers
        serve several roles."""
        g = make_grid(128, 128, 16.0)
        st = make_initial_data(InitialDataSpec(kind="random_bandlimited", target_romega=20.0, target_ru=30.0), g)
        run(st, 0.005)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = run(st, 0.005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.t == 0.005
        assert peak - start <= 2341 * 1024


PERIODIC = DriftSpec(kind="time_periodic_shear", amplitude=2.0, period=0.7)


@pytest.mark.parametrize("shape", [(128, 32, 16.0), (48, 48, 16.0), (8, 8, 4.0)])
@pytest.mark.parametrize("drift, a", [
    (DriftSpec(kind="steady_shear_u1", amplitude=1.3), 1.3),
    (PERIODIC, 2.0 * math.cos(2.0 * math.pi * 0.3 / 0.7)),
    (PERIODIC.reversed(0.9), -2.0 * math.cos(2.0 * math.pi * (0.9 - 0.3) / 0.7)),
], ids=["steady", "periodic", "reversed"])
def test_shear_stencil_matches_the_advective_form(shape, drift, a):
    """advdiff's stencil at t = 0.3, on the band block of a rough omega that
    fills the whole half spectrum, equals `advective_tendency` of the
    sampled drift u = (a sin(2 pi x2), 0) on omega's dealiased band: the
    stencil reads only the block, and column nb counts as zero."""
    g = make_grid(*shape)
    w = _forward(np.random.default_rng(12).standard_normal(g.shape()))
    block = _band_block(g, w)
    got = _shear_advection(g, drift)(block, 0.3, np.empty_like(block))
    u1 = a * np.sin(2.0 * np.pi * g.x2)[None, :] * np.ones((g.nx, 1))
    d1, d2 = _derivative_multiplier(g, 1), _derivative_multiplier(g, 2)
    wm = w * g.dealias_mask
    want = advective_tendency(g, u1, np.zeros_like(u1), *_inverse(g, np.stack((d1 * wm, d2 * wm))))
    got = _band_scatter(g, got, np.zeros_like(w))
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def full_complex_ifrk4(grid, w, c, m_mean, dt, steps):
    """Reference IF-RK4 on full complex spectra with fft2/ifft2, written
    independently of the package: Biot-Savart, dealiased advection with the
    (0, 0) tendency zeroed, and exact diffusion."""
    nx, ny = grid.nx, grid.ny
    j1 = np.fft.fftfreq(nx, 1.0 / nx)
    j2 = np.fft.fftfreq(ny, 1.0 / ny)
    k1 = 2.0 * np.pi * j1 / grid.lam
    k2 = 2.0 * np.pi * j2
    ik1 = 1j * np.where(np.abs(j1) == nx // 2, 0.0, k1)[:, None]
    ik2 = 1j * np.where(np.abs(j2) == ny // 2, 0.0, k2)[None, :]
    ksq = k1[:, None] ** 2 + k2[None, :] ** 2
    inv_ksq = np.divide(1.0, ksq, out=np.zeros_like(ksq), where=ksq > 0.0)
    keep = (np.abs(j1)[:, None] < nx / 3.0) & (np.abs(j2)[None, :] < ny / 3.0)

    def phys(f):
        return np.fft.ifft2(f * (nx * ny)).real

    def tendency(w):
        psi = -w * inv_ksq
        u1h, u2h = -ik2 * psi, ik1 * psi
        u1h[0, 0], u2h[0, 0] = c, m_mean
        adv = phys(u1h) * phys(ik1 * w) + phys(u2h) * phys(ik2 * w)
        out = -np.fft.fft2(adv) / (nx * ny) * keep
        out[0, 0] = 0.0
        return out

    E = np.exp(-ksq * (0.5 * dt))
    E2 = E * E
    for _ in range(steps):
        a = tendency(w)
        b = tendency(E * (w + (0.5 * dt) * a))
        cc = tendency(E * w + (0.5 * dt) * b)
        d = tendency(E2 * w + dt * (E * cc))
        w = E2 * w + (dt / 6.0) * (E2 * a + 2.0 * E * (b + cc) + d)
    return w


class TestRealSpectrumCore:
    @pytest.mark.parametrize("shape", [(64, 64, 16.0), (128, 64, 8.0)])
    def test_matches_full_complex_reference(self, shape):
        grid = make_grid(*shape)
        st = make_initial_data(
            InitialDataSpec(kind="random_bandlimited", seed=5, target_romega=6.0, target_ru=7.0), grid
        )
        st = replace(st, c=0.4)
        assert st.m_mean > 0.0
        dt = 1e-3
        out = st
        for _ in range(20):
            out = step(out, dt)
        # the reference starts from the full fft2 spectrum of the initial field
        w0 = np.fft.fft2(to_physical(st.omega).data) / (grid.nx * grid.ny)
        ref = full_complex_ifrk4(grid, w0, st.c, st.m_mean, dt, 20)
        assert np.abs(out.omega.data - ref[:, : grid.ny // 2 + 1]).max() <= 1e-12 * np.abs(ref).max()
        # the nonlinear term moved the state well beyond roundoff
        assert np.abs(ref - full_complex_ifrk4(grid, w0, 0.0, 0.0, dt, 20)).max() > 1e-6

    def test_transform_budget(self, grid64, monkeypatch):
        calls = []
        for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                     "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn"):
            fn = getattr(np.fft, name)

            def counted(a, *args, _fn=fn, **kwargs):
                calls.append((_fn.__name__, np.shape(a), kwargs.get("s", kwargs.get("n"))))
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        st = make_initial_data(InitialDataSpec(kind="random_bandlimited", target_romega=5.0), grid64)
        bump = ScalarField(grid64, to_spectral(periodized_gaussian(grid64, (8.0, 0.5), 0.4)).data, "spectral")
        drift = DriftSpec(kind="steady_shear_u1", amplitude=1.0)
        fresh = replace(st)
        made = {}
        for label, call in (
            ("step", lambda: step(st, 1e-3)),
            ("cfl_dt", lambda: cfl_dt(st)),
            ("cfl_dt+step", lambda: step(fresh, cfl_dt(fresh))),
            ("advdiff_t0", lambda: evolve(bump, drift, [0.0])),
            ("advdiff_step", lambda: evolve(bump, drift, [1e-3], dt_acc=1e-3)),
            ("add", lambda: TrajectoryCollector().add(st)),
            ("run", lambda: run(replace(st), 2e-3, dt_acc=1e-3)),
        ):
            calls.clear()
            call()
            made[label] = list(calls)
        budget = {label: len(c) for label, c in made.items()}
        # cfl_dt computes stage a of the next step, and step reuses it
        assert budget == {
            "step": 16, "cfl_dt": 4, "cfl_dt+step": 16, "advdiff_t0": 1, "advdiff_step": 1, "add": 4, "run": 32
        }
        # an advdiff step makes none: evolve's one transform is the inverse
        # of the field it returns, as at t = 0
        assert made["advdiff_step"] == made["advdiff_t0"] == [("irfft2", (64, 33), (64, 64))]
        # a stage: the block inverse of (u1, u2), whose x1 and x2 stages
        # read the columns n <= 21 only, and the block forward of the two
        # products
        stage = [
            ("ifft", (2, 64, 22), None),
            ("irfft", (2, 64, 22), 64),
            ("rfft", (2, 64, 64), None),
            ("fft", (2, 64, 22), None),
        ]
        assert made["step"] == 4 * stage
        assert made["cfl_dt"] == stage
        assert made["cfl_dt+step"] == 4 * stage
        # two dt_acc steps, each one cfl_dt and one step: the loop adds none
        assert made["run"] == 8 * stage
        # add: the stepping core's x1 stage on twice the rows, for six
        # fields and for the pressure, on the columns n <= 21 only; one x2
        # stage of three fields, and the pressure's products
        assert made["add"] == [
            ("ifft", (6, 128, 22), None),
            ("irfft", (3, 128, 33), 64),
            ("rfft2", (2, 64, 64), None),
            ("ifft", (128, 22), None),
        ]
