import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylflow.diagnostics import TheoremCheckConfig, TrajectoryCollector, theorem_checks
from cylflow.inequalities import (
    FIELD_FAMILIES,
    _grad_l2,
    flux_bound_constants,
    nash_check,
    nash_suite,
    poincare_check,
    sample_test_field,
)
from cylflow.solver import FlowState, InitialDataSpec, make_initial_data, run
from cylflow.spectral import ScalarField, integral, lp_norm, make_grid, spectral_derivative
from conftest import random_band_limited


class TestNashCheck:
    def test_single_mode_quadrature(self, grid64):
        f = ScalarField.from_function(grid64, lambda x1, x2: np.cos(2 * np.pi * x2))
        chk = nash_check(f)
        lam = grid64.lam
        # closed forms on the box: ||f||_2 = sqrt(lam/2), ||f||_1 = 2 lam/pi,
        # ||grad f||_2 = 2 pi sqrt(lam/2)
        assert chk.lhs == pytest.approx(np.sqrt(lam / 2), rel=1e-12)
        l1 = 2 * lam / np.pi
        gl2 = 2 * np.pi * np.sqrt(lam / 2)
        assert chk.rhs_branch1 == pytest.approx(gl2 ** (1 / 3) * l1 ** (2 / 3), rel=1e-3)
        assert chk.rhs_branch2 == pytest.approx(np.sqrt(gl2 * l1), rel=1e-3)
        assert chk.ratio == chk.lhs / max(chk.rhs_branch1, chk.rhs_branch2)

    def test_broad_family_hits_branch1(self, grid64):
        rng = np.random.default_rng(1)
        for _ in range(5):
            chk = nash_check(sample_test_field(grid64, rng, "broad"))
            assert chk.rhs_branch1 >= chk.rhs_branch2

    def test_narrow_family_hits_branch2(self, grid64):
        rng = np.random.default_rng(2)
        for _ in range(5):
            chk = nash_check(sample_test_field(grid64, rng, "narrow"))
            assert chk.rhs_branch2 >= chk.rhs_branch1

    def test_broad_ratio_stable_under_width_doubling(self):
        # wide horizontal Gaussians: the branch-1 ratio approaches a constant
        g = make_grid(512, 16, 128.0)
        vals = []
        for w in (4.0, 8.0):
            prof = np.exp(-((g.x1 - 64.0) ** 2) / (2 * w**2))
            f = ScalarField(g, np.tile(prof[:, None], (1, 16)) - prof.mean())
            vals.append(nash_check(f).ratio)
        assert abs(vals[0] - vals[1]) < 0.05 * max(vals)

    def test_zero_field_rejected(self, grid64):
        with pytest.raises(ValueError):
            nash_check(ScalarField.zeros(grid64))


class TestGradL2:
    """nash_check takes ||grad f||_2 from the coefficients by Parseval; it
    must equal the grid quadrature of the spectral derivatives."""

    @staticmethod
    def quadrature(f):
        return math.hypot(*(lp_norm(spectral_derivative(f, axis), 2) for axis in (1, 2)))

    @pytest.mark.parametrize("family", FIELD_FAMILIES)
    def test_matches_quadrature(self, family, grid64):
        rng = np.random.default_rng(11)
        for _ in range(4):
            f = sample_test_field(grid64, rng, family)
            assert _grad_l2(f) == pytest.approx(self.quadrature(f), rel=1e-12)

    def test_nyquist_row_and_column(self):
        # white noise plus pure Nyquist-row and Nyquist-column modes: the
        # inverse transform keeps only the Hermitian part of those modes, so
        # the two agree only if the multipliers zero the Nyquist mode
        g = make_grid(16, 12, 4.0)
        rng = np.random.default_rng(5)
        x1, x2 = g.meshgrid()
        data = (
            rng.standard_normal((g.nx, g.ny))
            + 3.0 * np.cos(np.pi * g.nx * x1 / g.lam) * np.sin(2 * np.pi * x2)
            + 2.0 * np.cos(np.pi * g.ny * x2) * np.cos(2 * np.pi * x1 / g.lam)
        )
        f = ScalarField(g, data)
        assert _grad_l2(f) == pytest.approx(self.quadrature(f), rel=1e-12)


class TestPsiNash:
    def test_rearrangement_identity(self, grid64):
        # the psi form is an algebraic rearrangement of the same three norms
        rng = np.random.default_rng(3)
        for fam in ("broad", "narrow", "vertical", "generic"):
            f = sample_test_field(grid64, rng, fam)
            chk = nash_check(f)
            l1 = chk.rhs_branch1**3 / chk.rhs_branch2**2
            gl2 = chk.rhs_branch2**4 / chk.rhs_branch1**3
            x = chk.lhs / l1
            expect = gl2 / (chk.lhs * min(x, x * x))
            assert nash_check(f).psi_c == pytest.approx(expect, rel=1e-10)

    def test_single_mode_closed_form(self, grid64):
        f = ScalarField.from_function(grid64, lambda x1, x2: np.cos(2 * np.pi * x2))
        lam = grid64.lam
        l2 = np.sqrt(lam / 2)
        l1 = 2 * lam / np.pi
        gl2 = 2 * np.pi * l2
        x = l2 / l1
        # the L1 quadrature of |cos| carries a kink error of ~1e-3
        assert nash_check(f).psi_c == pytest.approx(gl2 / (l2 * min(x, x * x)), rel=5e-3)

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(0.01, 100.0), seed=st.integers(0, 1000))
    def test_scaling_invariance(self, scale, seed):
        g = make_grid(32, 32, 8.0)
        f = random_band_limited(g, seed=seed, band=9)
        f2 = ScalarField(g, scale * f.data)
        assert nash_check(f2).psi_c == pytest.approx(nash_check(f).psi_c, rel=1e-9)
        assert nash_check(f2).ratio == pytest.approx(nash_check(f).ratio, rel=1e-9)

    def test_translation_invariance(self, grid64):
        f = random_band_limited(grid64, seed=17, band=5)
        rolled = ScalarField(grid64, np.roll(f.data, 13, axis=0))
        assert nash_check(rolled).ratio == pytest.approx(nash_check(f).ratio, rel=1e-10)


class TestPoincare:
    def test_first_mode_equality(self, grid64):
        f = ScalarField.from_function(grid64, lambda x1, x2: np.cos(2 * np.pi * x2))
        assert poincare_check(f) == pytest.approx(1.0, abs=1e-12)

    def test_second_mode(self, grid64):
        f = ScalarField.from_function(grid64, lambda x1, x2: np.cos(4 * np.pi * x2))
        assert poincare_check(f) == pytest.approx(0.25, abs=1e-12)

    def test_random_mean_zero_below_one(self, grid64):
        for seed in range(8):
            f = random_band_limited(grid64, seed=seed, band=8, zero_mean_column=True)
            assert poincare_check(f) <= 1.0 + 1e-10

    def test_rejects_nonzero_average(self, grid64):
        f = ScalarField(grid64, np.ones((64, 64)))
        with pytest.raises(ValueError):
            poincare_check(f)


class TestKappa:
    def test_values(self, grid64):
        # the report's laminar parameter: sup |omega0| / (4 pi^2)
        def kappa(romega):
            coll = TrajectoryCollector()
            coll.add(make_initial_data(InitialDataSpec(kind="shear_eigenmode", target_romega=romega), grid64))
            return theorem_checks(coll, TheoremCheckConfig(c3=1.0, t_grid=()))["laminar"]["kappa"]

        assert kappa(0.0) == 0.0
        assert kappa(4 * np.pi**2) == pytest.approx(1.0)
        assert kappa(2 * np.pi**2) == pytest.approx(0.5)


class TestFluxBoundConstants:
    def _trajectory(self, grid, spec, t_end=0.3):
        st = make_initial_data(spec, grid)
        coll = TrajectoryCollector()
        run(st, t_end, diag_times=np.linspace(0, t_end, 7), collector=coll)
        return coll

    def test_zero_trajectory_empty(self, grid64):
        st = FlowState(grid=grid64, omega=ScalarField.zeros(grid64, "spectral"))
        coll = TrajectoryCollector()
        run(st, 0.1, diag_times=[0.0, 0.05, 0.1], collector=coll)
        reps = flux_bound_constants(coll)
        assert reps["C3"].samples == 0 and reps["C3"].max_ratio == 0.0

    def test_shear_eigenmode_no_horizontal_flux(self, grid64):
        traj = self._trajectory(grid64, InitialDataSpec(kind="shear_eigenmode", target_romega=2.0))
        reps = flux_bound_constants(traj)
        assert reps["C3"].max_ratio < 1e-20
        assert reps["C4"].max_ratio < 1e-20
        assert reps["C8"].max_ratio < 1e-20

    def test_random_suite_stable(self, grid64):
        # short horizon keeps the fields alive; dense early sampling matters
        # because the f_hat maxima live in the initial transition window
        times = np.round(np.arange(0, 0.121, 0.01), 10)

        def estimate(seeds):
            vals = {"C3": 0.0, "C4": 0.0, "C8": 0.0}
            for s in seeds:
                for band in (4, 5):
                    st = make_initial_data(
                        InitialDataSpec(
                            kind="random_bandlimited", seed=s, target_romega=6.0, band=band
                        ),
                        grid64,
                    )
                    coll = TrajectoryCollector()
                    run(st, 0.12, diag_times=times, collector=coll)
                    reps = flux_bound_constants(coll)
                    for k in vals:
                        vals[k] = max(vals[k], reps[k].max_ratio)
            return vals

        a = estimate(range(12))
        b = estimate(range(100, 112))
        for k in ("C3", "C4", "C8"):
            assert np.isfinite(a[k]) and a[k] > 0
            assert abs(a[k] - b[k]) <= 0.25 * max(a[k], b[k])

    def test_constants_stable_across_grids(self):
        # the same continuum initial data on two resolutions
        from cylflow.spectral import to_spectral
        from conftest import mode_indexed_field

        def estimate(grid, seeds):
            vals = {"C3": 0.0, "C4": 0.0, "C8": 0.0}
            for s in seeds:
                w = mode_indexed_field(grid, seed=s, band=5)
                sup = np.abs(w.data).max()
                st = FlowState(
                    grid=grid,
                    omega=ScalarField(grid, to_spectral(w).data * (6.0 / sup), "spectral"),
                    m0_norm=6.0,
                )
                coll = TrajectoryCollector()
                run(st, 0.12, diag_times=np.linspace(0, 0.12, 7), collector=coll)
                reps = flux_bound_constants(coll)
                for k in vals:
                    vals[k] = max(vals[k], reps[k].max_ratio)
            return vals

        a = estimate(make_grid(64, 64, 16.0), range(4))
        b = estimate(make_grid(48, 48, 16.0), range(4))
        for k in ("C3", "C4", "C8"):
            assert abs(a[k] - b[k]) <= 0.25 * max(a[k], b[k])

    def test_g_ratio_bounded_by_kappa(self, grid64):
        traj = self._trajectory(
            grid64, InitialDataSpec(kind="random_bandlimited", seed=11, target_romega=3.0)
        )
        reps = flux_bound_constants(traj)
        assert reps["g_ratio"].max_ratio <= 1.0 + 1e-10


def test_nash_suite_report(grid64):
    rows, report = nash_suite(grid64, 200, seed=0)
    assert report.samples == 200
    assert np.isfinite(report.max_ratio)
    fams = {r["family"] for r in rows}
    assert fams == {"broad", "narrow", "vertical", "generic"}
    assert integral is not None  # keep the import honest
