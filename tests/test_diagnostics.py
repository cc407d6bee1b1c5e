import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cylflow.advdiff import v_volume
from cylflow.biotsavart import _biot_savart, _pressure_hat
from cylflow.diagnostics import (
    Profile,
    TrajectoryCollector,
    _ul2_from_profile,
    fit_decay_rate,
    localized_sum,
    theorem_checks,
)
from cylflow.solver import FlowState, InitialDataSpec, make_initial_data, run
from cylflow.spectral import (
    ScalarField,
    SpectralGrid,
    VelocityField,
    _derivative_multiplier,
    _forward,
    _inverse,
    make_grid,
)
from conftest import vertical_average_quadrature


def shear_state(grid, amplitude):
    return make_initial_data(InitialDataSpec(kind="shear_eigenmode", target_romega=amplitude), grid)


def uniform_state(grid, c):
    return FlowState(grid=grid, omega=ScalarField.zeros(grid, "spectral"), c=c)


def snapshot(state):
    """The collector's per-time diagnostics of one state."""
    coll = TrajectoryCollector()
    coll.add(state)
    return coll.snapshots[0]


def finalized_residuals(states):
    """The residual columns finalize writes for the middle of three states."""
    coll = TrajectoryCollector()
    for s in states:
        coll.add(s)
    r = coll.finalize()[1]
    return r.residual_energy, r.residual_enstrophy, r.residual_oscillatory


class TestVVolume:
    @pytest.mark.parametrize("t,expect", [(1.0, 1.0), (4.0, 2.0), (0.25, 0.25)])
    def test_values(self, t, expect):
        assert v_volume(t) == expect

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            v_volume(0.0)


class TestSupNorms:
    def test_uniform_flow(self, grid64):
        s = snapshot(uniform_state(grid64, 2.0))
        assert s.sup_u == pytest.approx(2.0) and s.sup_omega == 0.0 and s.sup_uhat == 0.0

    def test_shear_eigenmode(self, grid64):
        A = 3.0
        s = snapshot(shear_state(grid64, A))
        assert s.sup_omega == pytest.approx(A, rel=1e-12)
        assert s.sup_uhat == pytest.approx(A / (2 * np.pi), rel=1e-3)

    def test_zero_state(self, grid64):
        s = snapshot(uniform_state(grid64, 0.0))
        assert (s.sup_u, s.sup_omega, s.sup_uhat) == (0.0, 0.0, 0.0)


class TestEnergyProfiles:
    def test_uniform_flow(self, grid64):
        pr = snapshot(uniform_state(grid64, 2.0)).fine
        c = 2.0
        assert np.abs(pr["e"] - c**2 / 2).max() < 1e-12
        assert np.abs(pr["h"] - c**3 / 2).max() < 1e-12
        assert np.abs(pr["f"] + c**3 / 2).max() < 1e-12
        assert np.abs(pr["d"]).max() < 1e-12

    def test_zero_state_with_m(self, grid64):
        st = FlowState(grid=grid64, omega=ScalarField.zeros(grid64, "spectral"), m0_norm=1.0)
        pr = snapshot(st).fine
        assert np.abs(pr["e"] - 0.5).max() < 1e-14
        assert np.abs(pr["h"]).max() < 1e-14
        assert np.abs(pr["d"]).max() < 1e-14
        assert np.abs(pr["f"]).max() < 1e-14

    def test_initial_density_sup_bound(self, grid64):
        # e_*(0) <= 0.5 ||u0||_inf^2 + M^2 / 2
        for seed in range(4):
            st = make_initial_data(
                InitialDataSpec(kind="random_bandlimited", seed=seed, target_romega=5.0, target_ru=6.0),
                grid64,
            )
            s = snapshot(st)
            e_star = s.fine["e"].max()
            sup_u = s.sup_u
            assert e_star <= 0.5 * sup_u**2 + 0.5 * st.m0_norm**2 + 1e-10

    def test_shear_eigenmode_quadrature(self, grid64):
        A = 2.0
        pr = snapshot(shear_state(grid64, A)).fine
        # d = <|grad u|^2>, grad u = (0, -A cos(2 pi x2)) for u1 = -(A/2pi) sin
        oracle = vertical_average_quadrature(lambda x1, x2: (A * np.cos(2 * np.pi * x2)) ** 2, [0.0])[0]
        assert np.abs(pr["d"] - oracle).max() < 1e-10
        e_expect = 0.5 * vertical_average_quadrature(
            lambda x1, x2: (A / (2 * np.pi) * np.sin(2 * np.pi * x2)) ** 2, [0.0]
        )[0] + A**2 / 2
        assert np.abs(pr["e"] - e_expect).max() < 1e-10


class TestEnstrophyProfiles:
    def test_x1_independent_no_flux(self, grid64):
        pr = snapshot(shear_state(grid64, 1.5)).fine
        assert np.abs(pr["zeta"]).max() < 1e-13
        assert np.abs(pr["phi"]).max() < 1e-13

    def test_eigenmode_values(self, grid64):
        A = 2.0
        pr = snapshot(shear_state(grid64, A)).fine
        assert np.abs(pr["eps"] - A**2 / 4).max() < 1e-12
        assert np.abs(pr["delta"] - 2 * np.pi**2 * A**2).max() < 1e-9

    def test_pointwise_eps_le_d(self, grid64):
        for seed in range(4):
            st = make_initial_data(
                InitialDataSpec(kind="random_bandlimited", seed=seed, target_romega=4.0), grid64
            )
            pr = snapshot(st).fine
            assert (pr["eps"] <= pr["d"] * (1 + 1e-12) + 1e-12).all()


class TestOscillatoryProfiles:
    def test_pure_vertical_shear_all_zero(self, grid64):
        st = make_initial_data(
            InitialDataSpec(kind="vertical_shear", target_romega=2 * np.pi / 16.0), grid64
        )
        pr = snapshot(st).fine
        for key in ("e_hat", "h_hat", "d_hat", "f_hat", "g_hat"):
            assert np.abs(pr[key]).max() < 1e-13

    def test_eigenmode_poincare_equality(self, grid64):
        A = 2.0
        pr = snapshot(shear_state(grid64, A)).fine
        # single |n| = 1 mode: e_hat = d_hat / (8 pi^2) exactly
        assert np.abs(pr["e_hat"] - pr["d_hat"] / (8 * np.pi**2)).max() < 1e-12
        assert np.abs(pr["d_hat"] - A**2 / 2).max() < 1e-10

    def test_constant_m_gives_zero_ghat(self, grid64):
        st = FlowState(
            grid=grid64,
            omega=shear_state(grid64, 1.0).omega,
            m_mean=3.0,
            m0_norm=1.0,
        )
        assert np.abs(snapshot(st).fine["g_hat"]).max() < 1e-13


class TestLocalizedSums:
    def test_constant_profile_closed_form(self):
        g = make_grid(256, 8, 16.0)
        e0, rho = 2.5, 1.0
        p = Profile(g, np.full(256, e0))
        expect = e0 * (2 / rho) * (1 - np.exp(-rho * 16.0 / 2))
        assert localized_sum(p, rho, 0.0) == pytest.approx(expect, rel=2e-3)

    def test_concentration_limit(self):
        g = make_grid(2048, 8, 16.0)
        vals = 1.0 + 0.5 * np.sin(2 * np.pi * g.x1 / 16.0)
        p = Profile(g, vals)
        a = 4.0
        rho = 16.0  # rho*dx small enough that the weight mass is resolved
        assert localized_sum(p, rho, a) * rho / 2 == pytest.approx(
            1.0 + 0.5 * np.sin(2 * np.pi * a / 16.0), rel=1e-2
        )

    def test_zero_dissipation(self, grid64):
        p = Profile(grid64, np.zeros(64))
        assert localized_sum(p, 0.7, 1.0) == 0.0

    def test_rho_validation(self, grid64):
        with pytest.raises(ValueError):
            localized_sum(Profile(grid64, np.ones(64)), 0.0, 0.0)


class TestBalanceResiduals:
    def test_zero_trajectory(self, grid64):
        states = [
            FlowState(grid=grid64, omega=ScalarField.zeros(grid64, "spectral"), t=t)
            for t in (0.0, 0.1, 0.2)
        ]
        assert finalized_residuals(states) == (0.0, 0.0, 0.0)

    def test_unequal_spacing_rejected(self, grid64):
        # no centered difference across unequal gaps: the residuals stay 0
        st = shear_state(grid64, 1.0)
        states = [run(st, t) for t in (0.0, 0.1, 0.35)]
        assert finalized_residuals(states) == (0.0, 0.0, 0.0)

    def test_eigenmode_second_order(self, grid64):
        st = shear_state(grid64, 1.0)

        def resid(h, dt_acc):
            a = run(st, 0.1 - h, dt_acc=dt_acc)
            b = run(a, 0.1, dt_acc=dt_acc)
            c = run(b, 0.1 + h, dt_acc=dt_acc)
            return finalized_residuals([a, b, c])

        r1 = resid(0.02, 1e-3)
        r2 = resid(0.01, 5e-4)
        for a, b in zip(r1, r2):
            if a > 1e-12:
                assert a / b >= 3.5


class TestUl2Norm:
    """`_ul2_from_profile(dx, q)`, the collector's only ul2 path, on q = <|u|^2>."""

    @staticmethod
    def ul2(u):
        q = (u.u1.data**2 + u.u2.data**2).mean(axis=1)
        return _ul2_from_profile(u.grid.dx, q)

    def test_zero(self, grid64):
        u = VelocityField(ScalarField.zeros(grid64), ScalarField.zeros(grid64))
        assert self.ul2(u) == 0.0

    def test_constant_speed(self, grid64):
        k = 2.3
        u = VelocityField(
            ScalarField.from_function(grid64, lambda x1, x2: np.sqrt(k) * np.sin(2 * np.pi * x2)),
            ScalarField.from_function(grid64, lambda x1, x2: np.sqrt(k) * np.cos(2 * np.pi * x2)),
        )
        assert self.ul2(u) == pytest.approx(np.sqrt(2 * k), rel=1e-12)

    def test_localized_bump_window(self):
        g = make_grid(256, 16, 16.0)
        bump = np.exp(-((g.x1 - 5.0) ** 2) / (2 * 0.25**2))
        u = VelocityField(
            ScalarField(g, np.sqrt(bump)[:, None] * np.sin(2 * np.pi * g.x2)[None, :] * np.sqrt(2)),
            ScalarField.zeros(g),
        )
        # profile of <|u|^2> is the bump; mass inside any +-1 window around 5
        oracle = np.sqrt(bump.sum() * g.dx)  # window [4, 6] captures ~all of it
        assert self.ul2(u) == pytest.approx(oracle, rel=1e-3)

    def test_narrow_box_rejected(self):
        # no [a-1, a+1] window fits a period below 2: the collector records 0
        g = make_grid(16, 16, 1.5)
        s = snapshot(shear_state(g, 1.0))
        assert s.sup_uhat > 0.1 and s.ul2_uhat == 0.0


def padded_reference(grid, half, fine):
    """Sample half spectra on `fine` by explicit zero padding of both axes:
    a padded Nyquist row or column is split between +-N/2."""
    h, ncols = grid.nx // 2, grid.ny // 2 + 1
    big = np.zeros(half.shape[:-2] + fine.shape("spectral"), dtype=np.complex128)
    big[..., : h + 1, :ncols] = half[..., : h + 1, :]
    big[..., -h:, :ncols] = half[..., h:, :]
    big[..., [h, -h], :] *= 0.5
    if fine.ny > grid.ny:
        big[..., ncols - 1] *= 0.5
    return _inverse(fine, big)


def reference_snapshot(state, fine):
    """Profiles and sup norms of one state by their physical-space formulas,
    on `padded_reference` samples of nine fields and the pressure."""
    g = state.grid
    w_hat = state.omega.data
    u1h, u2h = _biot_savart(g, w_hat, state.c, state.m_mean)
    d1, d2 = _derivative_multiplier(g, 1), _derivative_multiplier(g, 2)
    spectra = (u1h, u2h, w_hat, d1 * u1h, d2 * u1h, d1 * u2h, d2 * u2h, d1 * w_hat, d2 * w_hat)
    u1, u2, w, d1u1, d2u1, d1u2, d2u2, d1w, d2w = padded_reference(g, np.stack(spectra), fine)
    coarse = np.s_[:: fine.nx // g.nx, :: fine.ny // g.ny]
    p = padded_reference(g, _pressure_hat(g, u1[coarse], w[coarse]), fine)
    uh1 = u1 - u1.mean(axis=1, keepdims=True)
    uh2 = u2 - u2.mean(axis=1, keepdims=True)
    d1m = d1u2.mean(axis=1)
    e = 0.5 * (u1**2 + u2**2).mean(axis=1) + 0.5 * state.m0_norm**2
    d1e = (u1 * d1u1 + u2 * d1u2).mean(axis=1)
    h = ((p + 0.5 * (u1**2 + u2**2)) * u1).mean(axis=1)
    d1eps = (w * d1w).mean(axis=1)
    zeta = 0.5 * (w**2 * u1).mean(axis=1)
    d1uh2 = d1u2 - d1m[:, None]
    e_hat = 0.5 * (uh1**2 + uh2**2).mean(axis=1)
    d1e_hat = (uh1 * d1u1 + uh2 * d1uh2).mean(axis=1)
    h_hat = ((p + 0.5 * (uh1**2 + uh2**2)) * uh1).mean(axis=1)
    q12 = (uh1 * uh2).mean(axis=1)
    profiles = {
        "e": e,
        "h": h,
        "d": (d1u1**2 + d2u1**2 + d1u2**2 + d2u2**2).mean(axis=1),
        "f": d1e - h,
        "eps": 0.5 * (w**2).mean(axis=1),
        "zeta": zeta,
        "delta": (d1w**2 + d2w**2).mean(axis=1),
        "phi": d1eps - zeta,
        "e_hat": e_hat,
        "h_hat": h_hat,
        "d_hat": (d1u1**2 + d2u1**2 + d1uh2**2 + d2u2**2).mean(axis=1),
        "f_hat": d1e_hat - h_hat,
        "g_hat": d1m * q12,
        "q12": q12,
        "forcing": (d1u1 * uh2 + uh1 * d1uh2).mean(axis=1),
        "d1e": d1e,
        "d1eps": d1eps,
        "d1e_hat": d1e_hat,
    }
    sups = {
        "sup_u": np.sqrt(u1[coarse] ** 2 + u2[coarse] ** 2).max(),
        "sup_omega": np.abs(w[coarse]).max(),
        "sup_uhat": np.sqrt(uh1[coarse] ** 2 + uh2[coarse] ** 2).max(),
        "ul2_uhat": _ul2_from_profile(fine.dx, 2.0 * e_hat),
    }
    return profiles, sups


class TestPaddingIsExact:
    """The collector samples x2 only for its three-field means, at the ny
    points of the state's own grid, and takes the others by Parseval; every
    quantity of `add` equals the one sampled on the 2x2 padded grid, also
    where 3 divides n (48x48)."""

    KEYS = ("e", "h", "d", "f", "eps", "zeta", "delta", "phi", "e_hat", "h_hat",
            "d_hat", "f_hat", "g_hat", "q12", "forcing", "d1e", "d1eps", "d1e_hat")

    @staticmethod
    def state(n):
        g = make_grid(n, n, 16.0)
        spec = InitialDataSpec(kind="random_bandlimited", seed=3, target_romega=5.0, target_ru=8.0, band=(n - 1) // 3)
        return make_initial_data(spec, g)

    @pytest.mark.parametrize("n", [48, 64])
    def test_profiles_match_2x2_padding(self, n):
        st = self.state(n)
        assert st.m_mean != 0.0
        got = snapshot(st)
        want, sups = reference_snapshot(st, SpectralGrid(2 * n, 2 * n, st.grid.lam))
        assert sorted(got.fine) == sorted(self.KEYS)
        for key in self.KEYS:
            scale = np.abs(want[key]).max()
            assert scale > 0.0 and np.abs(got.fine[key] - want[key]).max() <= 1e-13 * scale, key
        for key, value in sups.items():
            assert getattr(got, key) == pytest.approx(value, rel=1e-13, abs=0.0), key

    def test_reads_only_the_dealiased_band(self):
        """A state may carry modes outside the dealias band; the profiles
        and sup norms of `add` are those of its band, as is the tendency."""
        st = self.state(64)
        g = st.grid
        noise = _forward(np.random.default_rng(3).standard_normal(g.shape()))
        outside = noise * ~g.dealias_mask * np.abs(st.omega.data).max() / np.abs(noise).max()
        rough = replace(st, omega=ScalarField(g, st.omega.data + outside, "spectral"))
        band = replace(st, omega=ScalarField(g, rough.omega.data * g.dealias_mask, "spectral"))
        got, want = snapshot(rough), snapshot(band)
        assert sorted(got.fine) == sorted(self.KEYS)
        for key in self.KEYS:
            assert got.fine[key].tobytes() == want.fine[key].tobytes(), key
        for key in ("sup_u", "sup_omega", "sup_uhat", "ul2_uhat", "forcing_sup"):
            assert getattr(got, key) == getattr(want, key), key


class TestBufferSet:
    """A collector makes one buffer set for its grid at the first `add` and
    fills it in place at every later one."""

    SCALARS = ("sup_u", "sup_omega", "sup_uhat", "ul2_uhat", "forcing_sup")

    @staticmethod
    def states(n):
        """Two states of one run: seed 4's vorticity with seed 3's c, m_mean
        and m0_norm, at a later time."""
        g = make_grid(n, n, 16.0)
        a, b = (
            make_initial_data(InitialDataSpec(kind="random_bandlimited", seed=s, target_romega=5.0, target_ru=8.0), g)
            for s in (3, 4)
        )
        return [a, replace(b, c=a.c, m_mean=a.m_mean, m0_norm=a.m0_norm, t=0.1)]

    @staticmethod
    def collect(states):
        """A collector fed the states at t = 0, 0.1, 0.2, ..."""
        coll = TrajectoryCollector()
        for i, st in enumerate(states):
            coll.add(replace(st, t=0.1 * i))
        return coll

    def test_reuse_matches_a_fresh_collector(self):
        a, b = self.states(48)
        coll = self.collect((a, b, a))
        fresh = snapshot(a)
        for got in (coll.snapshots[0], coll.snapshots[2]):
            assert sorted(got.fine) == sorted(fresh.fine)
            for key, want in fresh.fine.items():
                assert got.fine[key].tobytes() == want.tobytes(), key
            for key in self.SCALARS:
                assert np.float64(getattr(got, key)).tobytes() == np.float64(getattr(fresh, key)).tobytes(), key

    def test_snapshots_alias_nothing(self):
        coll = self.collect(self.states(48) * 2)
        buffers = [v for v in vars(coll._fields).values() if isinstance(v, np.ndarray)]
        kept = [(i, v) for i, s in enumerate(coll.snapshots) for v in s.fine.values()]
        for i, v in kept:
            assert not any(np.shares_memory(v, buf) for buf in buffers)
            assert not any(np.shares_memory(v, other) for j, other in kept if j != i)

    def test_second_add_allocates_little(self):
        """At 128x128 the per-call temporaries peak at 3,973 KB without
        the buffer set."""
        a, b = self.states(128)
        coll = self.collect((a,))
        tracemalloc.start()
        try:
            coll.add(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2e6

    def test_one_grid_per_collector(self):
        coll = self.collect(self.states(32)[:1])
        other = make_initial_data(InitialDataSpec(kind="shear_eigenmode"), make_grid(48, 32, 16.0))
        with pytest.raises(ValueError, match=r"nx=48, ny=32.*nx=32, ny=32"):
            coll.add(other)
        assert len(coll.snapshots) == 1


class TestOneRun:
    """The first `add` records the run (grid, c, m_mean and M); a later
    state of another run, or not strictly later in time, is refused with
    both sides named, and the trajectory is left as it was."""

    @staticmethod
    def trajectory():
        a = TestBufferSet.states(32)[0]
        return a, TestBufferSet.collect((a, a))

    def test_records_the_run(self):
        a, coll = self.trajectory()
        assert (coll.grid, coll.c, coll.m_mean, coll.M) == (a.grid, a.c, a.m_mean, a.m0_norm)
        assert a.m_mean != 0.0

    @pytest.mark.parametrize("name", ["c", "m_mean", "m0_norm"])
    def test_rejects_another_runs_constant(self, name):
        a, coll = self.trajectory()
        other = replace(a, t=0.2, **{name: getattr(a, name) + 0.5})
        got, want = re.escape(f"{name}={getattr(other, name)!r}"), re.escape(f"{name}={getattr(a, name)!r}")
        with pytest.raises(ValueError, match=f"{got}.*{want}"):
            coll.add(other)
        assert len(coll.snapshots) == 2

    @pytest.mark.parametrize("t", [0.1, 0.05, 0.0])
    def test_rejects_a_state_not_later(self, t):
        a, coll = self.trajectory()
        with pytest.raises(ValueError, match=re.escape(f"t={t!r}") + ".*t=0.1$"):
            coll.add(replace(a, t=t))
        assert [s.t for s in coll.snapshots] == [0.0, 0.1]


class TestFitDecayRate:
    def test_exact_exponential(self):
        ts = np.linspace(0.01, 1.0, 40)
        fit = fit_decay_rate(list(zip(ts, np.exp(-4 * np.pi**2 * ts))), (0.0, 1.0), "exponential")
        assert fit.exponent_or_rate == pytest.approx(4 * np.pi**2, abs=1e-6)
        assert fit.rms_log_residual < 1e-8

    def test_exact_power(self):
        ts = np.linspace(0.1, 10.0, 50)
        fit = fit_decay_rate(list(zip(ts, ts**-0.25)), (0.0, 11.0), "power")
        assert fit.exponent_or_rate == pytest.approx(-0.25, abs=1e-6)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(0)
        ts = np.linspace(0.05, 2.0, 100)
        vals = np.exp(-3.0 * ts) * (1 + 0.01 * rng.uniform(-1, 1, ts.size))
        fit = fit_decay_rate(list(zip(ts, vals)), (0.05, 2.0), "exponential")
        assert fit.exponent_or_rate == pytest.approx(3.0, rel=0.02)

    def test_errors(self):
        ts = np.linspace(0, 1, 20)
        with pytest.raises(ValueError):
            fit_decay_rate(list(zip(ts, np.exp(-ts))), (0.9, 0.95), "exponential")
        with pytest.raises(ValueError):
            fit_decay_rate([(t, -1.0) for t in ts], (0, 1), "exponential")
        with pytest.raises(ValueError):
            fit_decay_rate(list(zip(ts, np.exp(-ts))), (0, 1), "cubic")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_values(self, value):
        """One non-finite sample in the window is an error naming it, not
        a NaN or infinite rate."""
        ts = np.linspace(0.1, 2.0, 20)
        vals = np.exp(-ts)
        vals[5] = value
        with pytest.raises(ValueError, match=f"finite, strictly positive values, got {value:g} at t=0.6$"):
            fit_decay_rate(list(zip(ts, vals)), (0.0, 2.0), "exponential")
        # outside the window it is not read
        assert np.isfinite(fit_decay_rate(list(zip(ts, vals)), (0.7, 2.0), "exponential").exponent_or_rate)
        # a non-finite time lies in no window, and is an error too
        ts[5] = value
        with pytest.raises(ValueError, match=f"finite times, got {value:g}$"):
            fit_decay_rate(list(zip(ts, np.exp(-np.arange(20.0)))), (0.7, 2.0), "exponential")


class TestTheoremChecks:
    def test_estimates_equal_the_written_out_formulas(self):
        """Sections (a), (b), (d) and (e), which acceptance criteria 9-12
        read, equal to the bit the estimates written out here from the
        snapshots: C7, C6, the laminar fits and floor, and C10 with its
        partners matched by time rounded to 9 digits."""
        g = make_grid(32, 32, 8.0)
        st = make_initial_data(InitialDataSpec(kind="random_bandlimited", seed=3, target_romega=4.0), g)
        coll = TrajectoryCollector()
        run(st, 0.62, diag_times=[round(0.02 * i, 10) for i in range(32)], collector=coll)
        window, tau = (0.1, 0.5), 0.1
        rep = theorem_checks(coll, c3=1.0, t_grid=(), tau=tau, window=window)
        snaps = coll.snapshots
        M, e_star0, ru0 = st.m0_norm, float(snaps[0].fine["e"].max()), snaps[0].sup_u

        c7 = max(s.sup_u for s in snaps) / (ru0 + M + (1 + M) * e_star0)
        assert rep["velocity_bound"]["ratio"] == c7

        c6 = [s.sup_omega**2 * np.sqrt(s.t) / ((1 + M) * e_star0) for s in snaps if window[0] <= s.t <= window[1]]
        assert rep["vorticity_decay"]["samples"] == len(c6) == 21
        assert rep["vorticity_decay"]["ratio"] == max(c6)
        default = theorem_checks(coll, c3=1.0, t_grid=())["vorticity_decay"]
        assert default["window"] == (1.0, 0.1 * (8.0 / (2 * np.pi)) ** 2)
        assert default["samples"] == 0 and default["ratio"] is None

        lam = rep["laminar"]
        kappa = M / (4 * np.pi**2)
        floor = 2 * np.pi**2 * (1 - kappa)
        assert lam["kappa"] == kappa and lam["rate_floor"] == floor
        for label, key in (("ul2", "ul2_uhat"), ("uhat", "sup_uhat")):
            fit = fit_decay_rate(coll.series(key), (0.05, 0.5), "exponential")
            assert lam[f"{label}_rate"] == fit.exponent_or_rate
        assert lam["passes_floor"] is (lam["ul2_rate"] >= floor)

        by_t = {round(s.t, 9): s for s in snaps}
        c10 = [
            by_t[round(s.t + tau, 9)].sup_uhat / s.ul2_uhat
            for s in snaps
            if round(s.t + tau, 9) in by_t and s.ul2_uhat > 1e-13
        ]
        assert rep["smoothing"]["pairs"] == len(c10) == 27
        assert rep["smoothing"]["max_ratio"] == max(c10)

    def test_zero_initial_data(self, grid64):
        # every denominator is 0 and no smoothing pair exists: nothing is
        # measured, which the report says as None, not as a ratio of 0
        st = uniform_state(grid64, 0.0)
        coll = TrajectoryCollector()
        run(st, 0.2, diag_times=np.linspace(0, 0.2, 5), collector=coll)
        rep = theorem_checks(coll, c3=1.0, t_grid=(0.1, 0.2))
        assert rep["velocity_bound"]["ratio"] is None
        assert rep["vorticity_decay"]["ratio"] is None
        assert rep["smoothing"]["pairs"] == 0 and rep["smoothing"]["max_ratio"] is None
        assert rep["laminar"] == {"kappa": 0.0}

    def test_zero_initial_data_localized_rows_unmeasured(self, grid64):
        # e_*(0) = 0 makes section (c)'s rhs and scale 0: each row's 0/0 is
        # None, not a ratio of 0 that would read as a PASS
        st = uniform_state(grid64, 0.0)
        coll = TrajectoryCollector()
        run(st, 0.2, diag_times=np.linspace(0, 0.2, 5), collector=coll)
        rep = theorem_checks(coll, c3=1.0, t_grid=(0.1, 0.2))
        assert [row["T"] for row in rep["localized_energy"]] == [0.1, 0.2]
        for row in rep["localized_energy"]:
            assert row["lhs"] == row["rhs"] == 0.0
            assert row["ratio"] is None
        assert [row["T"] for row in rep["localized_enstrophy"]] == [0.1, 0.2]
        for row in rep["localized_enstrophy"]:
            assert row["lhs"] == 0.0
            assert row["value"] is None and row["ens_value"] is None

    def test_eigenmode_laminar_rate(self, grid64):
        # kappa = 0.1: the exact single-mode rate 4 pi^2 dominates and must
        # exceed the floor 2 pi^2 (1 - kappa)
        A = 4 * np.pi**2 * 0.1
        st = shear_state(grid64, A)
        coll = TrajectoryCollector()
        run(st, 0.55, diag_times=np.arange(0, 0.551, 0.025), collector=coll)
        rep = theorem_checks(coll, c3=1.0, t_grid=(0.5,), laminar_window=(0.05, 0.5))
        lam = rep["laminar"]
        assert lam["kappa"] == pytest.approx(0.1, rel=1e-10)
        assert lam["uhat_rate"] == pytest.approx(4 * np.pi**2, rel=0.01)
        assert lam["ul2_rate"] >= lam["rate_floor"]
        assert lam["passes_floor"]
        assert lam["forcing_rate"] == "exact_zero"

    def test_missing_horizon_rejected(self, grid64):
        st = shear_state(grid64, 1.0)
        coll = TrajectoryCollector()
        run(st, 0.2, diag_times=[0.0, 0.1, 0.2], collector=coll)
        with pytest.raises(ValueError):
            theorem_checks(coll, c3=1.0, t_grid=(0.15,))
