import numpy as np
import pytest

import cylflow.advdiff
import cylflow.solver
from cylflow.advdiff import (
    DriftSpec,
    check_gaussian_envelope,
    check_lp_lq,
    duality_residual,
    evolve,
    fundamental_solution,
    periodized_gaussian,
)
from cylflow.cli import main
from cylflow.solver import _cfl_limit, _march
from cylflow.spectral import (
    ScalarField,
    _derivative_multiplier,
    _forward,
    _inverse,
    integral,
    lp_norm,
    make_grid,
    to_physical,
    to_spectral,
)


DT = 2e-3  # linear runs; RK4 error is far below the test tolerances


@pytest.fixture(scope="module")
def grid():
    return make_grid(128, 32, 16.0)


@pytest.fixture(scope="module")
def drift_zero():
    return DriftSpec(kind="zero")


@pytest.fixture(scope="module")
def drift_shear():
    return DriftSpec(kind="steady_shear_u1", amplitude=1.0)


def blob(grid, center=(8.0, 0.5), width=0.4):
    return periodized_gaussian(grid, center, width)


def evolve_to(omega0, drift, t, **kwargs):
    return evolve(omega0, drift, [t], **kwargs)[t]


def gamma_at(drift, y, t, sigma0, grid):
    return fundamental_solution(drift, y, [t], sigma0, grid)[t]


class TestDriftSpec:
    def test_kinds_validated(self):
        with pytest.raises(ValueError):
            DriftSpec(kind="bogus")
        with pytest.raises(ValueError):
            DriftSpec(kind="steady_shear_u1", amplitude=-1.0)
        with pytest.raises(ValueError):
            DriftSpec(kind="from_snapshot")
        with pytest.raises(ValueError):
            DriftSpec(kind="steady_shear_u1", amplitude=np.inf)
        with pytest.raises(ValueError):
            DriftSpec(kind="time_periodic_shear", amplitude=1.0, period=np.nan)

    def test_amplitude_is_sup_over_time(self, grid):
        d = DriftSpec(kind="time_periodic_shear", amplitude=2.0, period=0.5)
        sin_sup = np.abs(np.sin(2 * np.pi * grid.x2)).max()
        sups = [abs(d.amplitude_at(t)) * sin_sup for t in np.linspace(0, 0.5, 21)]
        assert max(sups) == pytest.approx(2.0, abs=1e-3)


class TestAdvdiffRun:
    def test_single_mode_heat_decay(self, grid, drift_zero):
        f = ScalarField.from_function(grid, lambda x1, x2: np.cos(2 * np.pi * x2))
        out = evolve_to(f, drift_zero, 0.3, dt_acc=DT)
        expect = np.exp(-4 * np.pi**2 * 0.3) * np.cos(2 * np.pi * grid.x2)[None, :]
        assert np.abs(out.data - expect).max() / np.exp(-4 * np.pi**2 * 0.3) < 1e-10

    def test_constants_invariant(self, grid, drift_shear):
        f = ScalarField(grid, np.full((grid.nx, grid.ny), 1.0))
        out = evolve_to(f, drift_shear, 0.4, dt_acc=DT)
        assert np.abs(out.data - 1.0).max() < 1e-12

    def test_mass_and_positivity(self, grid, drift_shear):
        f = blob(grid)
        out = evolve_to(f, drift_shear, 0.5, dt_acc=DT)
        assert integral(out) == pytest.approx(integral(f), rel=1e-10)
        assert out.data.min() >= -1e-6 * out.data.max()

    def test_lp_monotone_for_all_drifts(self, grid):
        f = blob(grid)
        drifts = [
            DriftSpec(kind="zero"),
            DriftSpec(kind="steady_shear_u1", amplitude=1.0),
            DriftSpec(kind="time_periodic_shear", amplitude=1.0, period=0.3),
        ]
        for d in drifts:
            prev = f
            for t_step in (0.1, 0.2):
                out = evolve_to(prev, d, 0.1, dt_acc=DT)
                for p in (1, 2, np.inf):
                    assert lp_norm(out, p) <= lp_norm(prev, p) * (1 + 1e-8)
                prev = out


class TestFundamentalSolution:
    def test_mass_one(self, grid, drift_zero):
        gam = gamma_at(drift_zero, (8.0, 0.5), 0.5, 2 * grid.dx, grid)
        assert integral(gam) == pytest.approx(1.0, abs=1e-6)

    def test_matches_exact_spread(self, grid, drift_zero):
        # drift-free evolution of a Gaussian stays Gaussian with variance
        # sigma0^2 + 2t per direction
        sig0 = 2 * grid.dx
        t = 1.0
        gam = gamma_at(drift_zero, (8.0, 0.5), t, sig0, grid)
        exact = periodized_gaussian(grid, (8.0, 0.5), np.sqrt(sig0**2 + 2 * t))
        prof_num = gam.data.max(axis=1)
        prof_exact = exact.data.max(axis=1)
        assert np.abs(prof_num - prof_exact).max() < 0.01 * prof_exact.max()

    def test_sup_times_volume_regimes(self, grid, drift_zero):
        sig0 = 2 * grid.dx
        for t in (0.01, 4.0):
            gam = gamma_at(drift_zero, (8.0, 0.5), t, sig0, grid)
            exact = periodized_gaussian(grid, (8.0, 0.5), np.sqrt(sig0**2 + 2 * t))
            v = min(t, np.sqrt(t))
            assert gam.data.max() * v == pytest.approx(exact.data.max() * v, rel=1e-4)
        # late time: vertical mixing complete, the 1d constant emerges
        assert gam.data.max() * 2.0 == pytest.approx(1 / np.sqrt(4 * np.pi), rel=0.01)

    def test_positivity(self, grid, drift_shear):
        gam = gamma_at(drift_shear, (8.0, 0.5), 0.5, 2 * grid.dx, grid)
        assert gam.data.min() >= -1e-6 * gam.data.max()

    def test_sigma0_resolution_guard(self, grid, drift_zero):
        with pytest.raises(ValueError):
            gamma_at(drift_zero, (8.0, 0.5), 0.5, 0.4 * grid.dx, grid)

    def test_initial_time_is_the_bump(self, grid, drift_shear):
        bump = blob(grid, width=2 * grid.dx)
        fields = fundamental_solution(drift_shear, (8.0, 0.5), [0.0, 0.1], 2 * grid.dx, grid)
        assert sorted(fields) == [0.0, 0.1]
        assert np.abs(fields[0.0].data - bump.data).max() <= 1e-14 * bump.data.max()


class TestLpLq:
    def test_p_equals_q_never_grows(self, grid, drift_shear):
        f = blob(grid)
        res = check_lp_lq(f, 2, 2, evolve(f, drift_shear, [0.1, 0.4, 1.0], dt_acc=DT))
        assert (res.ratios <= 1 + 1e-8).all()

    def test_delta_like_heat_constant(self, grid, drift_zero):
        bump = blob(grid, width=2 * grid.dx)
        res = check_lp_lq(bump, 1, np.inf, evolve(bump, drift_zero, [0.5, 1.0, 2.0, 4.0], dt_acc=DT))
        # ratio approaches the 1d heat constant 1/sqrt(4 pi) and stays stable
        assert res.ratios.max() <= 1 / np.sqrt(4 * np.pi) * 1.02
        assert res.ratios[-1] == pytest.approx(1 / np.sqrt(4 * np.pi), rel=0.02)

    def test_drift_independence(self, grid, drift_zero, drift_shear):
        bump = blob(grid, width=2 * grid.dx)
        times = [0.2, 0.5, 1.0, 2.0]
        k_free = check_lp_lq(bump, 1, np.inf, evolve(bump, drift_zero, times)).k1
        k_shear = check_lp_lq(bump, 1, np.inf, evolve(bump, drift_shear, times)).k1
        assert k_shear <= 2.0 * k_free and k_free <= 2.0 * k_shear

    def test_exponent_validation(self, grid, drift_zero):
        f = blob(grid)
        with pytest.raises(ValueError, match="1 <= p <= q"):
            check_lp_lq(f, 3, 2, evolve(f, drift_zero, [0.5]))

    def test_needs_a_time(self, grid, drift_zero):
        with pytest.raises(ValueError, match="at least one time"):
            check_lp_lq(blob(grid), 1, 2, evolve(blob(grid), drift_zero, []))


class TestEnvelope:
    def test_pure_heat_slope(self, grid, drift_zero):
        gam = gamma_at(drift_zero, (8.0, 0.5), 1.0, 2 * grid.dx, grid)
        fit = check_gaussian_envelope(gam, (8.0, 0.5), 1.0, 0.0, 0.5)
        assert fit.slope == pytest.approx(-1.0, abs=0.08)
        assert fit.passed

    def test_shear_passes_configured_lambda(self, grid, drift_shear):
        gam = gamma_at(drift_shear, (8.0, 0.5), 1.0, 2 * grid.dx, grid)
        fit = check_gaussian_envelope(gam, (8.0, 0.5), 1.0, 1.0, 0.9)
        assert fit.passed and fit.slope <= -0.45
        assert np.isfinite(fit.K2_est)

    def test_lambda_near_one_fails_cleanly(self, grid, drift_zero):
        # sigma0 smearing keeps the fitted slope above -1, so lambda -> 1
        # on a coarse grid is a documented failure, not a crash
        coarse = make_grid(32, 16, 16.0)
        gam = gamma_at(drift_zero, (8.0, 0.5), 0.5, 2 * coarse.dx, coarse)
        fit = check_gaussian_envelope(gam, (8.0, 0.5), 0.5, 0.0, 0.999)
        assert not fit.passed

    def test_degenerate_fit_rejected(self, grid):
        data = np.zeros((grid.nx, grid.ny))
        data[60:64, :] = 1.0  # four usable columns only
        with pytest.raises(ValueError):
            check_gaussian_envelope(ScalarField(grid, data), (8.0, 0.5), 1.0, 0.0, 0.9)

    def test_k2_stable_under_sigma0(self, grid, drift_shear):
        vals = []
        for sig in (2 * grid.dx, 4 * grid.dx):
            gam = gamma_at(drift_shear, (8.0, 0.5), 1.0, sig, grid)
            vals.append(check_gaussian_envelope(gam, (8.0, 0.5), 1.0, 1.0, 0.9).K2_est)
        assert abs(vals[0] - vals[1]) <= 0.10 * max(vals)


def test_duality(grid, drift_shear):
    f = blob(grid)
    w0 = ScalarField.from_function(grid, lambda x1, x2: np.exp(-((x1 - 4.0) ** 2)) * np.cos(4 * np.pi * x2))
    assert duality_residual(drift_shear, f, w0, 0.5, dt_acc=DT) < 1e-8
    periodic = DriftSpec(kind="time_periodic_shear", amplitude=1.0, period=0.37)
    assert duality_residual(periodic, f, w0, 0.5, dt_acc=DT) < 1e-8


class TestSingleEvolution:
    """`cylflow advdiff` evolves the bump once per invocation, with one
    `fundamental_solution` call: every (p, q) pair's `check_lp_lq` and every
    envelope time reads the states of that one run."""

    LP_TIMES, ENV_TIMES = (0.05, 0.1, 0.15), (0.05, 0.15)

    @pytest.fixture
    def cli_run(self, tmp_path, monkeypatch):
        counts = {"steps": 0, "evolve": 0, "fundamental_solution": 0, "check_lp_lq": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(cylflow.solver, "ifrk4_step", counted(cylflow.solver.ifrk4_step, "steps"))
        for name in ("evolve", "fundamental_solution", "check_lp_lq"):
            monkeypatch.setattr(cylflow.advdiff, name, counted(getattr(cylflow.advdiff, name), name))
        out = tmp_path / "adv"
        code = main([
            "advdiff", "--drift", "steady_shear_u1", "--nx", "32", "--ny", "16", "--lambda", "8",
            "--p-list", "1,2", "--q-list", "inf,2", "--times", ",".join(map(str, self.LP_TIMES)),
            "--envelope-times", ",".join(map(str, self.ENV_TIMES)), "--out", str(out),
        ])
        assert code in (0, 1)
        cli_counts = dict(counts)
        counts.update(dict.fromkeys(counts, 0))
        g = make_grid(32, 16, 8.0)
        y, sigma0 = (g.lam / 2.0, 0.5), 2.0 * max(g.dx, g.dy)
        ctx = dict(grid=g, drift=DriftSpec(kind="steady_shear_u1", amplitude=1.0), y=y, sigma0=sigma0,
                   bump=periodized_gaussian(g, y, sigma0), counts=counts)
        return out, cli_counts, ctx

    @staticmethod
    def rows(path):
        lines = path.read_text().splitlines()
        return [line.split(",") for line in lines[1:]]

    def test_steps_of_one_run_to_the_last_time(self, cli_run):
        _, cli_counts, ctx = cli_run
        assert cli_counts["evolve"] == cli_counts["fundamental_solution"] == 1
        assert cli_counts["check_lp_lq"] == 2
        evolve(ctx["bump"], ctx["drift"], [max(self.LP_TIMES + self.ENV_TIMES)])
        assert cli_counts["steps"] == ctx["counts"]["steps"] > 0

    def test_lplq_is_check_lp_lq_to_the_bit(self, cli_run):
        out, _, ctx = cli_run
        rows = self.rows(out / "lplq.csv")
        assert len(rows) == 6
        for i, (p, q) in enumerate([(1.0, np.inf), (2.0, 2.0)]):
            res = check_lp_lq(ctx["bump"], p, q, evolve(ctx["bump"], ctx["drift"], self.LP_TIMES))
            got = rows[3 * i: 3 * i + 3]
            assert [float(r[2]) for r in got] == list(res.times)
            assert [float(r[3]) for r in got] == list(res.ratios)

    def test_envelope_matches_fundamental_solution(self, cli_run):
        out, _, ctx = cli_run
        rows = self.rows(out / "envelope.csv")
        assert [float(r[0]) for r in rows] == list(self.ENV_TIMES)
        fields = fundamental_solution(ctx["drift"], ctx["y"], self.LP_TIMES + self.ENV_TIMES, ctx["sigma0"],
                                      ctx["grid"])
        for i, t in enumerate(self.ENV_TIMES):
            fit = check_gaussian_envelope(fields[t], ctx["y"], t, 1.0, 0.9)
            got = [float(v) for v in rows[i][1:4]]
            # the same captures: to the bit
            assert got == [fit.slope, fit.K2_est, fit.lambda_eff]
            assert rows[i][4] == str(int(fit.passed))
            alone = fundamental_solution(ctx["drift"], ctx["y"], [t], ctx["sigma0"], ctx["grid"])[t]
            fit = check_gaussian_envelope(alone, ctx["y"], t, 1.0, 0.9)
            expect = [fit.slope, fit.K2_est, fit.lambda_eff]
            if i == 0:
                # the earliest capture: the same steps as a run to t alone
                assert got == expect
            else:
                # later captures follow landing steps at the earlier times
                assert got == pytest.approx(expect, rel=1e-8)


class TestWorkBlock:
    """`evolve` hands one block array to every step of an evolution."""

    DRIFTS = [
        DriftSpec(kind="zero"),
        DriftSpec(kind="steady_shear_u1", amplitude=1.5),
        DriftSpec(kind="time_periodic_shear", amplitude=2.0, period=0.3),
    ]
    TIMES = [0.0, 0.05, 0.12]

    @pytest.fixture
    def blocks(self, monkeypatch):
        """Records the block array of every step or, when told to, steps on
        a fresh one that holds only the band block of omega and its stage a
        and NaN in its five other slots."""
        seen = {"blocks": [], "fresh": False}
        step = cylflow.solver.ifrk4_step

        def recorded(grid, blocks, t, dt, tendency):
            seen["blocks"].append(blocks)
            if not seen["fresh"]:
                return step(grid, blocks, t, dt, tendency)
            fresh = np.full_like(blocks, np.nan)
            fresh[[0, 3]] = blocks[[0, 3]]
            blocks[0] = step(grid, fresh, t, dt, tendency)
            return blocks[0]

        monkeypatch.setattr(cylflow.solver, "ifrk4_step", recorded)
        return seen

    @pytest.mark.parametrize("drift", DRIFTS, ids=lambda d: d.kind)
    def test_bits_of_fresh_arrays(self, drift, blocks):
        g = make_grid(64, 16, 8.0)
        f = blob(g, center=(4.0, 0.3), width=0.5)
        shared = evolve(f, drift, self.TIMES)
        blocks["fresh"] = True
        fresh = evolve(f, drift, self.TIMES)
        assert sorted(shared) == sorted(fresh) == self.TIMES
        assert all(shared[t].data.tobytes() == fresh[t].data.tobytes() for t in self.TIMES)

    def test_one_block_that_no_field_aliases(self, blocks):
        g = make_grid(64, 16, 8.0)
        f = blob(g, center=(4.0, 0.3), width=0.5)
        fields = evolve(f, self.DRIFTS[2], self.TIMES)
        work = blocks["blocks"][0]
        assert len(blocks["blocks"]) > 10 and all(b is work for b in blocks["blocks"])
        assert work.shape == (7, 2 * g.band[0] + 1, g.band[1] + 1) == (7, 43, 6)
        # t = 0 is the input's own values; every time is a new array
        assert fields[0.0].data.tobytes() == f.data.tobytes()
        assert not any(np.shares_memory(fields[t].data, a) for t in self.TIMES for a in (work, f.data))

    def test_initial_time_in_either_representation(self):
        """t = 0 is omega0's own physical values, whichever way it is given."""
        g = make_grid(64, 16, 8.0)
        f = blob(g, center=(4.0, 0.3), width=0.5)
        spec = to_spectral(f)
        for omega0, want in ((f, f.data), (spec, to_physical(spec).data)):
            got = evolve(omega0, self.DRIFTS[1], [0.0, 0.05])[0.0]
            assert got.repr == "physical" and got.data.tobytes() == want.tobytes()


def full_width_evolve(omega0, drift, times, dt_acc=1e-3):
    """The oracle of `evolve`: the evolution as it was on the full half
    spectrum, before advdiff stepped on the band block.  Its stencil writes
    the band's columns n < nb on the dealias band's rows and reads column
    nb; every other mode of the tendency is +0.  Returns {t: physical
    omega(t)} for the positive `times`."""
    g = omega0.grid
    nb = g.band[1] + 1
    half_k1 = 0.5 * _derivative_multiplier(g, 1).imag * g.dealias_mask[:, :nb]
    neg_rows = -np.arange(g.nx) % g.nx

    def tendency(w, t, out):
        out[:, nb:] = 0.0
        band = out[:, :nb]
        band[:, 0] = np.conj(w[neg_rows, 1])
        band[:, 1:] = w[:, : nb - 1]
        band -= w[:, 1 : nb + 1]
        band *= -drift.amplitude_at(t) * half_k1
        return out

    def advance(w, t, dt, t_new):
        E = np.exp(-g.ksq * (0.5 * dt))
        E2 = E * E
        x, y, a, b, c, d = (np.empty_like(w) for _ in range(6))
        tendency(w, t, a)
        np.multiply(a, 0.5 * dt, out=x)
        x += w
        x *= E
        tendency(x, t + 0.5 * dt, b)
        np.multiply(E, w, out=x)
        np.multiply(b, 0.5 * dt, out=y)
        x += y
        tendency(x, t + 0.5 * dt, c)
        np.multiply(E, c, out=y)
        y *= dt
        np.multiply(E2, w, out=x)
        x += y
        tendency(x, t + dt, d)
        np.add(b, c, out=x)
        x *= 2.0 * E
        np.multiply(E2, a, out=y)
        y += x
        y += d
        y *= dt / 6.0
        w_new = E2 * w
        w_new += y
        return w_new

    sup_sin = np.abs(np.sin(2.0 * np.pi * g.x2)).max()

    def limit(w, t):
        return _cfl_limit(g, abs(drift.amplitude_at(t)) * sup_sin, 0.0, dt_acc)

    w0 = to_spectral(omega0).data
    return {tc: _inverse(g, w) for w, tc in _march(w0, 0.0, max(times), times, limit, advance) if tc}


class TestOneLayout:
    """advdiff steps on the band block through the Navier-Stokes step's
    `_band_step`, with the Navier-Stokes tendency's truncation rule."""

    DRIFTS = TestWorkBlock.DRIFTS

    @staticmethod
    def band_limited(g, seed=4):
        """A physical field whose coefficients outside the dealias band are
        zero: white noise cut to the band."""
        noise = np.random.default_rng(seed).standard_normal(g.shape())
        return ScalarField(g, _inverse(g, _forward(noise) * g.dealias_mask))

    @pytest.mark.parametrize("shape", [(128, 32, 16.0), (40, 50, 8.0), (48, 48, 16.0)])
    @pytest.mark.parametrize("drift", DRIFTS, ids=lambda d: d.kind)
    def test_bits_of_the_full_width_step_on_band_limited_data(self, shape, drift):
        """On band-limited data, every field of `evolve` has the bytes of the
        full-width oracle's, over several steps and a landing step."""
        g = make_grid(*shape)
        f = self.band_limited(g)
        times = [0.004, 0.0105]
        got, want = evolve(f, drift, times), full_width_evolve(f, drift, times)
        assert sorted(got) == sorted(want) == times
        for t in times:
            assert got[t].data.tobytes() == want[t].data.tobytes()

    @pytest.mark.parametrize("drift", DRIFTS, ids=lambda d: d.kind)
    def test_rough_data_follows_the_truncation_rule(self, drift, monkeypatch):
        """On white noise filling the half spectrum, each step multiplies the
        modes outside the band by exactly E2 = exp(-|k|^2 dt), and the band
        evolves as that of the band-limited part of the data, to the bit."""
        g = make_grid(48, 16, 8.0)
        w0 = _forward(np.random.default_rng(5).standard_normal(g.shape()))
        spectra = []
        monkeypatch.setattr(cylflow.advdiff, "_inverse", lambda grid, w: spectra.append(w.copy()) or _inverse(grid, w))
        times = [1e-3, 2e-3]
        evolve(ScalarField(g, w0, "spectral"), drift, times)
        evolve(ScalarField(g, w0 * g.dealias_mask, "spectral"), drift, times)
        rough, cut = spectra[:2], spectra[2:]
        mask = g.dealias_mask
        prev, t_prev = w0, 0.0
        for t, w, w_cut in zip(times, rough, cut):
            E = np.exp(-g.ksq * (0.5 * (t - t_prev)))
            assert w[~mask].tobytes() == (E * E * prev)[~mask].tobytes()
            assert w[mask].tobytes() == w_cut[mask].tobytes()
            prev, t_prev = w, t
        assert np.abs(rough[-1][~mask]).min() > 0.0
