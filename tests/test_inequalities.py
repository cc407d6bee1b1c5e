import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cylflow.inequalities
from cylflow.diagnostics import TrajectoryCollector, theorem_checks
from cylflow.inequalities import (
    FIELD_FAMILIES,
    flux_bound_constants,
    nash_check,
    nash_suite,
    poincare_check,
    sample_test_field,
)
from cylflow.solver import FlowState, InitialDataSpec, make_initial_data, run
from cylflow.spectral import (
    ScalarField,
    _as_spectral_data,
    _parseval_sq,
    integral,
    lp_norm,
    make_grid,
    spectral_derivative,
)
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
    """nash_check takes ||grad f||_2^2, and poincare_check ||d2 f||_2^2, from
    the coefficients in one weighted Parseval sum; each must equal the grid
    quadrature of the spectral derivatives."""

    @staticmethod
    def quadrature(f, axes):
        return sum(lp_norm(spectral_derivative(f, axis), 2) ** 2 for axis in axes)

    def check(self, f):
        def parseval(axes):
            return f.grid.lam * _parseval_sq(f.grid, _as_spectral_data(f), axes)

        grad = self.quadrature(f, (1, 2))
        assert parseval((1, 2)) == pytest.approx(grad, rel=1e-12)
        # d2 alone vanishes up to roundoff on the broad family; hold it to
        # roundoff of the whole gradient there
        assert parseval((2,)) == pytest.approx(self.quadrature(f, (2,)), rel=1e-12, abs=1e-14 * grad)

    @pytest.mark.parametrize("family", FIELD_FAMILIES)
    def test_matches_quadrature(self, family, grid64):
        rng = np.random.default_rng(11)
        for _ in range(4):
            self.check(sample_test_field(grid64, rng, family))

    def test_nyquist_row_and_column(self):
        # white noise plus pure Nyquist-row and Nyquist-column modes: the
        # inverse transform keeps only the Hermitian part of those modes, so
        # the two agree only if the weights zero the Nyquist mode
        g = make_grid(16, 12, 4.0)
        rng = np.random.default_rng(5)
        x1, x2 = g.meshgrid()
        data = (
            rng.standard_normal((g.nx, g.ny))
            + 3.0 * np.cos(np.pi * g.nx * x1 / g.lam) * np.sin(2 * np.pi * x2)
            + 2.0 * np.cos(np.pi * g.ny * x2) * np.cos(2 * np.pi * x1 / g.lam)
        )
        self.check(ScalarField(g, data))


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
            return theorem_checks(coll, c3=1.0, t_grid=())["laminar"]["kappa"]

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


def oracle_test_field(grid, rng, family):
    """`sample_test_field` as it was written with 2-D loops: the same draws
    in the same order, a band mask built per sample and the vertical modes
    summed on the whole grid."""
    x1 = grid.x1[:, None]
    x2 = grid.x2[None, :]
    if family == "broad":
        w = rng.uniform(1.5, grid.lam / 4.0)
        c = rng.uniform(0.0, grid.lam)
        d = np.abs(x1 - c) % grid.lam
        d = np.minimum(d, grid.lam - d)
        prof = sum(np.exp(-((d + p) ** 2) / (2.0 * w**2)) for p in (0.0, -grid.lam, grid.lam))
        vals = prof * np.ones_like(x2)
    elif family == "narrow":
        w = rng.uniform(0.05, 0.25)
        c1 = rng.uniform(0.0, grid.lam)
        c2 = rng.uniform(0.0, 1.0)
        d1 = np.abs(x1 - c1) % grid.lam
        d1 = np.minimum(d1, grid.lam - d1)
        d2 = np.abs(x2 - c2) % 1.0
        d2 = np.minimum(d2, 1.0 - d2)
        vals = np.exp(-(d1**2 + d2**2) / (2.0 * w**2))
    elif family == "vertical":
        vals = np.zeros((grid.nx, grid.ny))
        for n in range(1, 4):
            vals += rng.normal() * np.cos(2.0 * np.pi * n * x2 + rng.uniform(0, 2 * np.pi)) * np.ones_like(x1)
    else:  # generic
        band = max(2, min(grid.nx, grid.ny) // 6)
        spec = np.fft.rfft2(rng.standard_normal((grid.nx, grid.ny)))
        keep = (np.abs(grid.j1) <= band)[:, None] & (np.abs(grid.j2[: grid.ny // 2 + 1]) <= band)[None, :]
        vals = np.fft.irfft2(spec * keep, s=(grid.nx, grid.ny))
    vals = vals - vals.mean()
    return ScalarField(grid, rng.uniform(0.5, 2.0) * vals)


class TestNashSuiteOracle:
    """nash_suite against norms taken by grid quadrature (`lp_norm` of the
    field and of its `spectral_derivative`s), on fields drawn in the same
    order from the same stream."""

    N = 60

    @pytest.mark.parametrize("shape", [(64, 64), (128, 32)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_quadrature_oracle(self, shape, seed):
        g = make_grid(*shape, 16.0)
        rows, report = nash_suite(g, self.N, seed)
        rng = np.random.default_rng(seed)
        fams = list(FIELD_FAMILIES)
        want = []
        for _ in range(self.N):
            fam = fams[rng.choice(len(fams), p=np.full(len(fams), 1.0 / len(fams)))]
            f = oracle_test_field(g, rng, fam)
            l1, l2 = lp_norm(f, 1), lp_norm(f, 2)
            gl2 = math.hypot(*(lp_norm(spectral_derivative(f, axis), 2) for axis in (1, 2)))
            b1, b2 = gl2 ** (1 / 3) * l1 ** (2 / 3), math.sqrt(gl2 * l1)
            x = l2 / l1
            want.append((fam, l2, b1, b2, l2 / max(b1, b2), gl2 / (l2 * min(x, x * x))))
        assert [r["family"] for r in rows] == [w[0] for w in want]
        assert set(w[0] for w in want) == set(FIELD_FAMILIES)
        for r, w in zip(rows, want):
            got = [r[k] for k in ("lhs", "rhs_branch1", "rhs_branch2", "ratio", "psi_c")]
            assert got == pytest.approx(list(w[1:]), rel=1e-12)
        assert report.max_ratio == max(r["ratio"] for r in rows)

    def test_one_nash_check_per_sample(self, grid64, monkeypatch):
        # the benchmark counts inequalities.nash_samples as nash_check calls
        calls = []
        check = cylflow.inequalities.nash_check

        def counted(f):
            calls.append(f)
            return check(f)

        monkeypatch.setattr(cylflow.inequalities, "nash_check", counted)
        rows, _ = nash_suite(grid64, 37, seed=2)
        assert len(rows) == len(calls) == 37

    @pytest.mark.parametrize("weights", [
        {"broad": 1.0, "narrow": 2.0, "vertical": 0.0, "generic": 3.0},
        {"generic": 0.3, "narrow": 0.0, "broad": 0.0, "vertical": 5.5},
    ])
    def test_family_draw_is_rng_choice(self, grid32, weights):
        # the family stream of rng.choice, zero weights included
        rows, _ = nash_suite(grid32, 40, 3, weights)
        rng = np.random.default_rng(3)
        fams = list(weights)
        p = np.array(list(weights.values()))
        want = []
        for _ in range(40):
            want.append(fams[rng.choice(len(fams), p=p / p.sum())])
            sample_test_field(grid32, rng, want[-1])
        assert [r["family"] for r in rows] == want
        assert {f for f, w in weights.items() if w == 0.0}.isdisjoint(want)


def test_nash_suite_report(grid64):
    rows, report = nash_suite(grid64, 200, seed=0)
    assert report.samples == 200
    assert np.isfinite(report.max_ratio)
    fams = {r["family"] for r in rows}
    assert fams == {"broad", "narrow", "vertical", "generic"}
    assert integral is not None  # keep the import honest
