import numpy as np
import pytest

from cylflow.biotsavart import (
    curl,
    divergence_identity_residual,
    divergence_residual,
    grad_perp_K,
    kernel_K,
    pressure_from_state,
    velocity_by_kernel_quadrature,
    velocity_from_vorticity,
)
from cylflow.diagnostics import TrajectoryCollector
from cylflow.solver import FlowState, InitialDataSpec, make_initial_data
from cylflow.spectral import (
    ScalarField,
    VelocityField,
    lp_norm,
    make_grid,
    to_physical,
    to_spectral,
    vertical_average,
)
from conftest import random_band_limited


def oscillatory_vorticity(grid, seed, band=6):
    """Random dealiased vorticity with zero vertical average."""
    return to_spectral(random_band_limited(grid, seed, band=band, zero_mean_column=True))


class TestKernel:
    def test_antipodal_value(self):
        # direct evaluation of the closed form at (0, 1/2)
        assert kernel_K(0.0, 0.5) == pytest.approx(np.log(4.0) / (4 * np.pi), rel=1e-14)

    def test_linear_growth(self):
        for x2 in (0.0, 0.3, 0.77):
            assert abs(kernel_K(10.0, x2) - 5.0) < 1e-10

    def test_log_singularity(self):
        r = 1e-4
        assert abs(kernel_K(r, 0.0) - np.log(2 * np.pi * r) / (2 * np.pi)) < 1e-6

    def test_singular_lattice_points(self):
        for x1, x2 in ((0.0, 0.0), (0.0, 1.0), (0.0, -3.0)):
            with pytest.raises(ValueError):
                kernel_K(x1, x2)
            with pytest.raises(ValueError):
                grad_perp_K(x1, x2)

    def test_gradient_matches_finite_difference(self):
        h = 1e-6
        for x1, x2 in ((0.4, 0.2), (2.5, 0.9), (7.0, 0.51)):
            g1, g2 = grad_perp_K(x1, x2)
            d1 = (kernel_K(x1 + h, x2) - kernel_K(x1 - h, x2)) / (2 * h)
            d2 = (kernel_K(x1, x2 + h) - kernel_K(x1, x2 - h)) / (2 * h)
            assert g1 == pytest.approx(-d2, rel=1e-7, abs=1e-9)
            assert g2 == pytest.approx(d1, rel=1e-7, abs=1e-9)

    def test_vectorized(self):
        x1 = np.array([0.5, 6.0, 20.0])
        x2 = np.array([0.1, 0.2, 0.3])
        vals = kernel_K(x1, x2)
        assert vals.shape == (3,)
        assert vals[2] == pytest.approx(10.0, abs=1e-9)


class TestVelocityFromVorticity:
    def test_single_mode(self, grid64):
        w = ScalarField.from_function(grid64, lambda x1, x2: -2 * np.pi * np.cos(2 * np.pi * x2))
        u = velocity_from_vorticity(to_spectral(w))
        u1 = to_physical(u.u1).data
        assert np.abs(u1 - np.sin(2 * np.pi * grid64.x2)[None, :]).max() < 1e-12
        assert np.abs(to_physical(u.u2).data).max() < 1e-14

    def test_zero(self, grid64):
        u = velocity_from_vorticity(ScalarField.zeros(grid64, "spectral"))
        assert np.abs(u.u1.data).max() == 0.0 and np.abs(u.u2.data).max() == 0.0

    def test_random_curl_and_divergence(self, grid64):
        w = oscillatory_vorticity(grid64, seed=2)
        u = velocity_from_vorticity(w)
        scale = np.abs(w.data).max()
        assert np.abs(curl(u).data - w.data).max() < 1e-12 * scale
        assert divergence_residual(u) < 1e-12
        assert np.abs(vertical_average(to_physical(u.u1)).values).max() < 1e-12 * scale
        assert np.abs(vertical_average(to_physical(u.u2)).values).max() < 1e-12 * scale

    def test_rejects_mean_flow_vorticity(self, grid64):
        w = to_spectral(random_band_limited(grid64, seed=3))  # has n = 0 content
        with pytest.raises(ValueError):
            velocity_from_vorticity(w)

    def test_kernel_quadrature_cross_check(self):
        # trapezoid quadrature of the singular kernel limits the agreement
        g = make_grid(64, 64, 4.0)
        w = oscillatory_vorticity(g, seed=4, band=3)
        u_spec = velocity_from_vorticity(w)
        u_quad = velocity_by_kernel_quadrature(w)
        sup = max(lp_norm(to_physical(u_spec.u1), np.inf), lp_norm(to_physical(u_spec.u2), np.inf))
        e1 = np.abs(to_physical(u_spec.u1).data - u_quad.u1.data).max()
        e2 = np.abs(to_physical(u_spec.u2).data - u_quad.u2.data).max()
        assert e1 < 0.03 * sup and e2 < 0.03 * sup


class TestDecompose:
    """The split u = (c, m(x1)) + u_hat with <u_hat_i> = 0 for every x1, as
    the collector makes it: e - M^2/2 = (c^2 + m^2)/2 + e_hat pointwise."""

    @staticmethod
    def split(state):
        coll = TrajectoryCollector()
        coll.add(state)
        s = coll.snapshots[0]
        mean_part = s.fine["e"] - 0.5 * state.m0_norm**2 - s.fine["e_hat"]
        return s, mean_part, np.arange(2 * state.grid.nx) * state.grid.dx / 2

    def test_pure_vertical_shear(self, grid64):
        st = make_initial_data(InitialDataSpec(kind="vertical_shear", target_romega=2 * np.pi / 16.0), grid64)
        s, mean_part, x1 = self.split(st)
        assert st.c == 0.0
        assert np.abs(mean_part - 0.5 * np.sin(2 * np.pi * x1 / 16.0) ** 2).max() < 1e-14
        assert s.sup_uhat < 1e-14

    def test_constant_flow(self, grid64):
        st = FlowState(grid=grid64, omega=ScalarField.zeros(grid64, "spectral"), c=3.0)
        s, mean_part, _ = self.split(st)
        assert s.sup_u == pytest.approx(3.0, rel=1e-15)
        assert np.abs(mean_part - 4.5).max() < 1e-14
        assert s.sup_uhat < 1e-14

    def test_horizontal_shear(self, grid64):
        st = make_initial_data(InitialDataSpec(kind="shear_eigenmode", target_romega=2 * np.pi), grid64)
        s, mean_part, _ = self.split(st)
        assert np.abs(mean_part).max() < 1e-14
        assert s.sup_uhat == pytest.approx(s.sup_u, abs=1e-14)

    def test_reassembly_identity(self, grid64):
        w = oscillatory_vorticity(grid64, seed=8)
        # m(x1) = cos(2 pi x1 / 16) enters through its n = 0 vorticity d1 m
        d1m = ScalarField.from_function(grid64, lambda x1, x2: -np.pi / 8 * np.sin(np.pi * x1 / 8))
        st = FlowState(grid=grid64, omega=ScalarField(grid64, w.data + to_spectral(d1m).data, "spectral"), c=1.5)
        s, mean_part, x1 = self.split(st)
        scale = s.sup_u
        expect = 0.5 * (1.5**2 + np.cos(2 * np.pi * x1 / 16.0) ** 2)
        assert np.abs(mean_part - expect).max() < 1e-12 * scale**2


class TestPressure:
    def test_pure_shear_zero_pressure(self, grid64):
        u = VelocityField(
            ScalarField.from_function(grid64, lambda x1, x2: np.sin(2 * np.pi * x2) * np.ones_like(x1)),
            ScalarField.zeros(grid64),
        )
        w = curl(u)
        p = pressure_from_state(u, w)
        assert np.abs(p.data).max() < 1e-12

    def test_zero_velocity(self, grid64):
        p = pressure_from_state(
            VelocityField(ScalarField.zeros(grid64), ScalarField.zeros(grid64)),
            ScalarField.zeros(grid64),
        )
        assert np.abs(p.data).max() == 0.0

    def test_zero_mean_gauge(self, grid64):
        w = oscillatory_vorticity(grid64, seed=12)
        u = velocity_from_vorticity(w)
        up = VelocityField(to_physical(u.u1), to_physical(u.u2))
        p = pressure_from_state(up, to_physical(curl(u)))
        assert abs(p.data.mean()) < 1e-13 * np.abs(p.data).max()

    def test_sup_bound_constant_stable(self, grid64):
        # ||p||_inf <= C2 ||omega||_inf^2 with a stable ensemble maximum
        def c2_estimate(seeds):
            best = 0.0
            for s in seeds:
                w = oscillatory_vorticity(grid64, seed=s)
                u = velocity_from_vorticity(w)
                up = VelocityField(to_physical(u.u1), to_physical(u.u2))
                wp = to_physical(w)
                p = pressure_from_state(up, wp)
                best = max(best, lp_norm(p, np.inf) / lp_norm(wp, np.inf) ** 2)
            return best

        a = c2_estimate(range(0, 12))
        b = c2_estimate(range(100, 112))
        assert np.isfinite(a) and a > 0
        assert abs(a - b) <= 0.35 * max(a, b)


class TestDivergenceIdentity:
    def test_pure_shear(self):
        g = make_grid(32, 32, 8.0)
        u = VelocityField(
            ScalarField.from_function(g, lambda x1, x2: np.sin(2 * np.pi * x2) * np.ones_like(x1)),
            ScalarField.zeros(g),
        )
        assert divergence_identity_residual(u) < 1e-12

    def test_zero(self, grid64):
        u = VelocityField(ScalarField.zeros(grid64), ScalarField.zeros(grid64))
        assert divergence_identity_residual(u) == 0.0

    def test_random_dealiased(self, grid64):
        w = oscillatory_vorticity(grid64, seed=21)
        u = velocity_from_vorticity(w)
        up = VelocityField(to_physical(u.u1), to_physical(u.u2))
        assert divergence_identity_residual(up) < 1e-10


def test_biot_savart_sup_bound_stability():
    # ||u_hat||_inf <= C1 ||omega_hat||_inf; the ensemble maximum is finite
    # and stable across disjoint seed sets and across grids (within 10%)
    from conftest import mode_indexed_field

    def c1_estimate(grid, seeds):
        best = 0.0
        for s in seeds:
            w = to_spectral(mode_indexed_field(grid, seed=s, band=5, zero_mean_column=True))
            u = velocity_from_vorticity(w)
            sup_u = max(lp_norm(to_physical(u.u1), np.inf), lp_norm(to_physical(u.u2), np.inf))
            best = max(best, sup_u / lp_norm(to_physical(w), np.inf))
        return best

    g1 = make_grid(64, 64, 16.0)
    g2 = make_grid(48, 48, 16.0)
    a = c1_estimate(g1, range(0, 40))
    b = c1_estimate(g1, range(200, 240))
    c = c1_estimate(g2, range(0, 40))
    assert np.isfinite(a)
    assert abs(a - b) <= 0.10 * max(a, b)
    assert abs(a - c) <= 0.10 * max(a, c)
