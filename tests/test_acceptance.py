"""Acceptance suite.

Each test prints one PASS line per criterion when it completes (run with
`pytest tests/test_acceptance.py -v -s` to see them).  Expensive
trajectory suites are module-scoped fixtures shared across criteria.
"""

import numpy as np
import pytest

from cylflow.advdiff import (
    DriftSpec,
    check_gaussian_envelope,
    check_lp_lq,
    evolve,
    fundamental_solution,
    periodized_gaussian,
)
from cylflow.biotsavart import (
    curl,
    divergence_identity_residual,
    divergence_residual,
    velocity_from_vorticity,
)
from cylflow.config import EstimatedConstant, get_constant, update_constant
from cylflow.diagnostics import TrajectoryCollector, fit_decay_rate, theorem_checks
from cylflow.inequalities import flux_bound_constants, nash_suite, poincare_check
from cylflow.solver import FlowState, InitialDataSpec, make_initial_data, march, reconstruct_velocity, run
from cylflow.spectral import (
    ScalarField,
    make_grid,
    to_physical,
    to_spectral,
    vertical_average,
)
from conftest import mode_indexed_field, random_band_limited


def note(msg):
    print(f"\n[ACCEPTANCE] {msg}")


def state_from_mode_field(grid, seed, romega, band=4):
    """Grid-independent random initial state scaled to a vorticity target."""
    w = mode_indexed_field(grid, seed=seed, band=band)
    sup = np.abs(w.data).max()
    omega = ScalarField(grid, to_spectral(w).data * (romega / sup), "spectral")
    return FlowState(grid=grid, omega=omega, m0_norm=romega)


def collect(state, t_end, diag_times, **kw):
    coll = TrajectoryCollector()
    run(state, t_end, diag_times=diag_times, collector=coll, **kw)
    return coll


# ---------------------------------------------------------------- fixtures

LONG_SEEDS = (0, 1, 2)
LONG_ROMEGA = (5.0, 6.0, 7.0)
LONG_TIMES = [round(0.05 * i, 10) for i in range(21)] + [round(1.25 + 0.25 * i, 10) for i in range(60)]


@pytest.fixture(scope="module")
def long_suite():
    g = make_grid(64, 64, 16.0)
    return [
        collect(state_from_mode_field(g, seed, romega), 16.0, LONG_TIMES)
        for seed, romega in zip(LONG_SEEDS, LONG_ROMEGA)
    ]


@pytest.fixture(scope="module")
def long_twin_coarse():
    g = make_grid(48, 48, 16.0)
    return collect(state_from_mode_field(g, LONG_SEEDS[0], LONG_ROMEGA[0]), 16.0, LONG_TIMES)


@pytest.fixture(scope="module")
def ledger(long_suite, tmp_path_factory):
    """Constants ledger fed by the flux-bound estimates of the long suite."""
    path = str(tmp_path_factory.mktemp("ledger") / "constants.json")
    c3 = 0.0
    for traj in long_suite:
        c3 = max(c3, flux_bound_constants(traj)["C3"].max_ratio)
    g = long_suite[0].snapshots[0].state.grid
    update_constant(
        path,
        EstimatedConstant("C3", c3, {"nx": g.nx, "ny": g.ny, "lambda": g.lam, "seeds": list(LONG_SEEDS)}),
    )
    return path


@pytest.fixture(scope="module")
def decay_suite():
    g = make_grid(128, 64, 32.0)
    rng = np.random.default_rng(2024)
    out = []
    for seed in range(5):
        romega = rng.uniform(5.0, 8.5)
        drawn_ru = rng.uniform(5.0, 10.0)
        base = make_initial_data(
            InitialDataSpec(kind="random_bandlimited", seed=seed, target_romega=romega), g
        )
        u = reconstruct_velocity(base)
        natural = float(np.sqrt(u.u1.data**2 + u.u2.data**2).max())
        st = make_initial_data(
            InitialDataSpec(
                kind="random_bandlimited",
                seed=seed,
                target_romega=romega,
                target_ru=max(drawn_ru, natural * 1.001),  # the mean flow can only raise sup|u|
            ),
            g,
        )
        times = [round(0.1 * i, 10) for i in range(27)]
        out.append(collect(st, 2.6, times))
    return out


LAMINAR_KAPPA = 0.1
LAMINAR_TIMES = [round(0.02 * i, 10) for i in range(32)]


def _laminar_traj(grid, seed):
    st = state_from_mode_field(grid, seed, 4 * np.pi**2 * LAMINAR_KAPPA, band=3)
    return collect(st, 0.62, LAMINAR_TIMES)


@pytest.fixture(scope="module")
def laminar_suite():
    g = make_grid(64, 64, 16.0)
    return [_laminar_traj(g, seed) for seed in (10, 11, 12)]


@pytest.fixture(scope="module")
def laminar_twin_coarse():
    return _laminar_traj(make_grid(48, 48, 16.0), 10)


def estimates(traj):
    """The per-run estimates of `theorem_checks`, without the horizons of
    section (c), which need the ledger's C3."""
    return theorem_checks(traj, c3=1.0, t_grid=())


def within(values, spread):
    values = np.asarray(values, dtype=float)
    mean = values.mean()
    return np.abs(values - mean).max() <= spread * mean


# ------------------------------------------------------------ criterion 1


def test_criterion_01_exact_linear_decay():
    g = make_grid(64, 64, 16.0)
    st = make_initial_data(InitialDataSpec(kind="shear_eigenmode", target_romega=1.0), g)
    out = run(st, 0.1, dt_acc=1e-3)
    expect = np.exp(-4 * np.pi**2 * 0.1) * np.cos(2 * np.pi * g.x2)[None, :]
    err1 = np.abs(to_physical(out.omega).data - expect).max() / np.exp(-4 * np.pi**2 * 0.1)
    assert err1 <= 1e-8

    amp = 2 * np.pi / 16.0
    st2 = make_initial_data(InitialDataSpec(kind="vertical_shear", target_romega=amp), g)
    out2 = run(st2, 0.1, dt_acc=1e-3)
    expect2 = np.exp(-(amp**2) * 0.1) * amp * np.cos(2 * np.pi * g.x1 / 16.0)[:, None]
    err2 = np.abs(to_physical(out2.omega).data - expect2).max() / np.abs(expect2).max()
    assert err2 <= 1e-8
    note(f"criterion 1 PASS: shear mode err {err1:.2e}, vertical shear err {err2:.2e} (<= 1e-8)")


# ------------------------------------------------------------ criterion 2


def test_criterion_02_spectral_identities():
    g = make_grid(64, 64, 16.0)
    worst = {"div": 0.0, "avg1": 0.0, "avg2": 0.0, "curl": 0.0, "identity": 0.0}
    for seed in range(50):
        band = 3 + seed % 5
        w = to_spectral(random_band_limited(g, seed=seed, band=band, zero_mean_column=True))
        scale = np.abs(w.data).max()
        u = velocity_from_vorticity(w)
        u1p, u2p = to_physical(u.u1), to_physical(u.u2)
        sup_u = max(np.abs(u1p.data).max(), np.abs(u2p.data).max())
        worst["div"] = max(worst["div"], divergence_residual(u))
        worst["avg1"] = max(worst["avg1"], np.abs(vertical_average(u1p).values).max() / sup_u)
        worst["avg2"] = max(worst["avg2"], np.abs(vertical_average(u2p).values).max() / sup_u)
        worst["curl"] = max(worst["curl"], np.abs(curl(u).data - w.data).max() / scale)
        from cylflow.spectral import VelocityField

        worst["identity"] = max(worst["identity"], divergence_identity_residual(VelocityField(u1p, u2p)))
    for name, val in worst.items():
        assert val <= 1e-10, f"{name} residual {val:.3e}"
    note("criterion 2 PASS: 50-state suite residuals " + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


# ------------------------------------------------------------ criterion 3


def test_criterion_03_maximum_principle_and_monotonicity():
    g = make_grid(32, 32, 8.0)
    rng = np.random.default_rng(7)
    worst_step = -np.inf
    for seed in range(10):
        romega = rng.uniform(3.0, 10.0)
        st = make_initial_data(
            InitialDataSpec(kind="random_bandlimited", seed=seed, target_romega=romega), g
        )
        coll = TrajectoryCollector()
        sups = []
        for final, tc in march(st, 5.0, diag_times=np.linspace(0, 5, 21)):
            if tc is not None:
                coll.add(final)
            sups.append(np.abs(to_physical(final.omega).data).max())
        # the first state is st at t = 0, whose sup is m0_norm; every later
        # one follows a step
        assert sups[0] == st.m0_norm
        growth = np.diff(sups)
        worst_step = max(worst_step, float((growth / st.m0_norm).max()))
        assert (growth <= 1e-8 * st.m0_norm).all()
        energies = [2 * (s.fine["e"].sum() * s.state.grid.lam / s.fine["e"].shape[0]) for s in coll.snapshots]
        assert all(b <= a * (1 + 1e-10) for a, b in zip(energies, energies[1:]))
        assert final.m_mean == pytest.approx(st.m_mean, abs=1e-12)
    note(f"criterion 3 PASS: 10 trajectories, worst per-step sup growth {worst_step:.2e} (<= 1e-8)")


# ------------------------------------------------------------ criterion 4


def test_criterion_04_balance_law_refinement():
    g = make_grid(64, 64, 16.0)
    st = make_initial_data(
        InitialDataSpec(kind="random_bandlimited", seed=7, target_romega=5.0, target_ru=5.0), g
    )

    def residuals(h, dt_acc):
        a = run(st, 0.2 - h, dt_acc=dt_acc)
        b = run(a, 0.2, dt_acc=dt_acc)
        c = run(b, 0.2 + h, dt_acc=dt_acc)
        coll = TrajectoryCollector()
        for s in (a, b, c):
            coll.add(s)
        r = coll.finalize()[1]
        return r.residual_energy, r.residual_enstrophy, r.residual_oscillatory

    coarse = residuals(0.02, 1e-3)
    fine = residuals(0.01, 5e-4)
    factors = [a / b for a, b in zip(coarse, fine)]
    assert all(f >= 3.5 for f in factors)
    note(
        "criterion 4 PASS: residual reduction factors "
        + ", ".join(f"{f:.2f}" for f in factors)
        + " (>= 3.5)"
    )


# ------------------------------------------------------------ criterion 5


def test_criterion_05_pointwise_inequalities(long_suite):
    slack = 1e-8
    checked = 0
    for traj in long_suite:
        M = traj.snapshots[0].state.m0_norm
        for s in traj.snapshots:
            pr = s.fine
            kappa_t = s.sup_omega / (4 * np.pi**2)
            pairs = [
                (pr["d1e"] ** 2, 2.0 * pr["e"] * pr["d"]),
                (pr["eps"], pr["d"]),
                (pr["e_hat"], pr["d_hat"] / (8 * np.pi**2)),
                (np.abs(pr["g_hat"]), kappa_t * pr["d_hat"]),
            ]
            for lhs, rhs in pairs:
                assert (lhs <= rhs + slack * np.maximum(1.0, rhs)).all()
                checked += lhs.size
    note(f"criterion 5 PASS: {checked} pointwise samples at slack 1e-8")


# ------------------------------------------------------------ criterion 6


def test_criterion_06_localized_energy_bound(long_suite, long_twin_coarse, ledger):
    c3 = get_constant(ledger, "C3")
    worst = 0.0
    ens_values = []
    for traj in long_suite + [long_twin_coarse]:
        rep = theorem_checks(traj, c3=c3)
        for row in rep["localized_energy"]:
            worst = max(worst, row["ratio"])
            assert row["ratio"] <= 1.0, f"T={row['T']}: {row['ratio']}"
        ens_values.append(max(r["ens_value"] for r in rep["localized_enstrophy"]))
    # enstrophy shape constant: matched data on two grids within 25%
    a, b = ens_values[0], ens_values[-1]
    assert abs(a - b) <= 0.25 * max(a, b)
    note(
        f"criterion 6 PASS: energy bound worst ratio {worst:.3f} (<= 1 with C3={c3:.3g}); "
        f"enstrophy constant {a:.3g} vs {b:.3g} across grids"
    )


# ------------------------------------------------------------ criterion 7


def test_criterion_07_heat_kernel_and_lplq_shapes():
    g = make_grid(128, 32, 16.0)
    drift0 = DriftSpec(kind="zero")
    y = (8.0, 0.5)
    sig0 = 2 * g.dx
    # the grid cannot represent the delta limit, so the oracle is the exact
    # evolution of the sigma0 bump: a periodized Gaussian of variance
    # sigma0^2 + 2t per direction
    errs = []
    for t in (0.01, 4.0):
        gam = fundamental_solution(drift0, y, [t], sig0, g)[t]
        exact = periodized_gaussian(g, y, np.sqrt(sig0**2 + 2 * t))
        v = min(t, np.sqrt(t))
        errs.append(abs(gam.data.max() * v - exact.data.max() * v) / (exact.data.max() * v))
        assert errs[-1] <= 0.01
    # late time reaches the 1d regime: sup * sqrt(t) ~ 1/sqrt(4 pi)
    assert gam.data.max() * 2.0 == pytest.approx(1 / np.sqrt(4 * np.pi), rel=0.01)

    bump = periodized_gaussian(g, y, sig0)
    times = [0.2, 0.5, 1.0, 2.0, 4.0]
    k_free = check_lp_lq(bump, 1, np.inf, evolve(bump, drift0, times)).k1
    shear = DriftSpec(kind="steady_shear_u1", amplitude=1.0)
    k_shear = check_lp_lq(bump, 1, np.inf, evolve(bump, shear, times)).k1
    assert k_shear <= 2.0 * k_free and k_free <= 2.0 * k_shear
    note(
        f"criterion 7 PASS: sup*V errors {errs[0]:.1e}, {errs[1]:.1e} (<= 1%); "
        f"K1 shear/free = {k_shear / k_free:.3f} (within 2x)"
    )


# ------------------------------------------------------------ criterion 8


def test_criterion_08_gaussian_envelope():
    g = make_grid(128, 32, 16.0)
    drift = DriftSpec(kind="steady_shear_u1", amplitude=1.0)
    y = (8.0, 0.5)
    lam = 0.9
    slopes = {}
    for t in (0.5, 1.0, 2.0):
        k2 = {}
        for sig in (2 * g.dx, 4 * g.dx):
            gam = fundamental_solution(drift, y, [t], sig, g)[t]
            fit = check_gaussian_envelope(gam, y, t, 1.0, lam)
            assert fit.passed and fit.slope <= -lam / (1 + 1.0**2)
            k2[sig] = fit.K2_est
            slopes[t] = fit.slope
        vals = list(k2.values())
        assert abs(vals[0] - vals[1]) <= 0.10 * max(vals)
    note(
        "criterion 8 PASS: slopes "
        + ", ".join(f"t={t}: {s:.3f}" for t, s in slopes.items())
        + " (<= -0.45), K2 stable +-10% under sigma0 doubling"
    )


# ------------------------------------------------------------ criterion 9


def test_criterion_09_vorticity_decay_shape(decay_suite):
    c6 = []
    for traj in decay_suite:
        decay = estimates(traj)["vorticity_decay"]
        assert decay["samples"] >= 8
        c6.append(decay["ratio"])
    assert within(c6, 0.30)
    note(
        f"criterion 9 PASS: per-seed C6 in [{min(c6):.3g}, {max(c6):.3g}], "
        f"window {decay['window']}, spread within +-30% of the mean"
    )


# ------------------------------------------------------------ criterion 10


def test_criterion_10_velocity_bound_shape(decay_suite):
    c7 = []
    for traj in decay_suite:
        c7.append(estimates(traj)["velocity_bound"]["ratio"])
        early = max(s.sup_u for s in traj.snapshots if s.t <= 1.0 + 1e-12)
        late = max(s.sup_u for s in traj.snapshots if s.t >= 1.0 - 1e-12)
        assert late <= 1.05 * early
    assert np.isfinite(max(c7))
    note(f"criterion 10 PASS: suite C7 = {max(c7):.3g}; no late sup-norm growth beyond 1.05x")


# ------------------------------------------------------------ criterion 11


def test_criterion_11_laminar_regime(laminar_suite):
    rates = []
    for traj in laminar_suite:
        laminar = estimates(traj)["laminar"]
        assert laminar["kappa"] == pytest.approx(LAMINAR_KAPPA, rel=1e-12)
        # the forcing is quadratic in u_hat, so it hits the roundoff floor
        # sooner; fit it on the early window
        forcing_rate = fit_decay_rate(traj.series("forcing_sup"), (0.05, 0.25), "exponential").exponent_or_rate
        assert laminar["passes_floor"]
        assert forcing_rate >= 2 * laminar["uhat_rate"] * 0.85
        rates.append((laminar["ul2_rate"], laminar["uhat_rate"], forcing_rate))
    note(
        f"criterion 11 PASS: ul2 rates {[f'{r[0]:.1f}' for r in rates]} >= floor {laminar['rate_floor']:.1f}; "
        f"forcing rates {[f'{r[2]:.1f}' for r in rates]} ~ 2x uhat rates"
    )


# ------------------------------------------------------------ criterion 12


def test_criterion_12_smoothing_estimate(laminar_suite, laminar_twin_coarse):
    def c10_of(traj):
        smoothing = estimates(traj)["smoothing"]
        assert smoothing["pairs"] > 0
        return smoothing["max_ratio"]

    c10 = [c10_of(t) for t in laminar_suite]
    assert np.isfinite(max(c10))
    a, b = c10[0], c10_of(laminar_twin_coarse)
    assert abs(a - b) <= 0.25 * max(a, b)
    note(f"criterion 12 PASS: C10 suite max {max(c10):.3g}; grids {a:.3g} vs {b:.3g} within 25%")


# ------------------------------------------------------------ criterion 13


def test_criterion_13_nash_suite():
    g = make_grid(64, 64, 16.0)
    rows, report = nash_suite(g, 1000, seed=5)
    assert report.samples >= 1000 and np.isfinite(report.max_ratio)
    ratios = [r["ratio"] for r in rows]
    m1, m2 = max(ratios[:500]), max(ratios[500:])
    assert abs(m1 - m2) <= 0.15 * max(m1, m2)
    b1 = sum(r["rhs_branch1"] >= r["rhs_branch2"] for r in rows)
    assert 0 < b1 < len(rows)  # both scaling branches exercised

    rng = np.random.default_rng(99)
    for seed in range(20):
        f = random_band_limited(g, seed=seed, band=8, zero_mean_column=True)
        assert poincare_check(f) <= 1.0 + 1e-12
    for seed in range(5):
        a = random_band_limited(g, seed=seed, band=5).data.mean(axis=1)
        vals = a[:, None] * np.cos(2 * np.pi * g.x2)[None, :] + np.roll(a, 3)[:, None] * np.sin(
            2 * np.pi * g.x2
        )[None, :]
        assert poincare_check(ScalarField(g, vals)) == pytest.approx(1.0, abs=1e-12)
    note(
        f"criterion 13 PASS: nash max {report.max_ratio:.4f}, halves {m1:.4f}/{m2:.4f} "
        f"(within 15%), poincare <= 1 with equality on |n|=1 modes"
    )
