"""Velocity reconstruction from vorticity on the cylinder.

The oscillating part of a divergence-free velocity field is recovered from
the vorticity through the kernel

    K(x1, x2) = log(2*cosh(2*pi*x1) - 2*cos(2*pi*x2)) / (4*pi),

the fundamental solution of the Laplacian on R x T.  The vertical mean of
the velocity cannot be recovered this way and is carried separately as the
pair (c, m).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .spectral import (
    PHYSICAL,
    SPECTRAL,
    ScalarField,
    VelocityField,
    _as_physical_data,
    _as_spectral_data,
    _band_block,
    _derivative_multiplier,
    _forward,
    _inverse,
    _parseval_sq,
    dealias,
    spectral_derivative,
    to_spectral,
)

__all__ = [
    "kernel_K",
    "grad_perp_K",
    "velocity_from_vorticity",
    "pressure_from_state",
    "divergence_identity_residual",
    "divergence_residual",
    "curl",
    "velocity_by_kernel_quadrature",
]

# switch to the exp-factored kernel form well before cosh overflows
_STABLE_X1 = 5.0


def kernel_K(x1, x2):
    """Laplace fundamental solution on the cylinder, stable for large |x1|.

    Raises ValueError at the singular lattice points (0, 0) + Z^2.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    a = 2.0 * np.pi * np.abs(x1)
    cos2 = np.cos(2.0 * np.pi * x2)
    small = a <= 2.0 * np.pi * _STABLE_X1
    # small |x1|: direct formula; large |x1|: factor out e^{2*pi*|x1|}
    arg_small = 2.0 * np.cosh(np.where(small, a, 0.0)) - 2.0 * cos2
    if np.any(small & (arg_small <= 0.0)):
        raise ValueError("kernel_K is singular at (0, 0) modulo the periodicity lattice")
    out_small = np.log(np.where(arg_small > 0.0, arg_small, 1.0)) / (4.0 * np.pi)
    out_large = np.abs(x1) / 2.0 + np.log1p(np.exp(-2.0 * a) - cos2 * np.exp(-a)) / (4.0 * np.pi)
    out = np.where(small, out_small, out_large)
    if out.ndim == 0:
        return float(out)
    return out


def grad_perp_K(x1, x2):
    """(-d2 K, d1 K), evaluated in overflow-safe form.

    Raises ValueError at the singular lattice points.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    a = 2.0 * np.pi * np.abs(x1)
    sgn = np.sign(x1)
    cos2 = np.cos(2.0 * np.pi * x2)
    sin2 = np.sin(2.0 * np.pi * x2)
    # cosh(2 pi x1) - cos(2 pi x2) = e^a * den / 2 with den below
    den = 1.0 + np.exp(-2.0 * a) - 2.0 * cos2 * np.exp(-a)
    if np.any(den <= 0.0):
        raise ValueError("grad_perp_K is singular at (0, 0) modulo the periodicity lattice")
    d1 = sgn * (1.0 - np.exp(-2.0 * a)) / (2.0 * den)
    d2 = sin2 * np.exp(-a) / den
    if d1.ndim == 0:
        return float(-d2), float(d1)
    return -d2, d1


@lru_cache(maxsize=16)
def _biot_savart_tables(grid, rows):
    """Read-only (-1/|k|^2, -i k2, i k1) for coefficients with `rows` rows:
    the half spectrum's nx, or the band block's odd 2r+1.

    Each negation sits on a table, where it is exact: -1/|k|^2 is held as
    the negated complex table, so that w * (-1/|k|^2) has the bits of
    (-w) * (1/|k|^2), signed zeros included.
    """
    tables = (
        -grid.inv_ksq.astype(np.complex128),
        -_derivative_multiplier(grid, 2),
        _derivative_multiplier(grid, 1),
    )
    if rows != grid.nx:
        tables = tuple(_band_block(grid, np.broadcast_to(t, grid.shape(SPECTRAL))) for t in tables)
    for t in tables:
        t.setflags(write=False)
    return tables


def _biot_savart(grid, w_hat, c, m_mean, out=None):
    """Spectral velocity, stacked as (u1_hat, u2_hat) in one (2, ...) array
    (`out` if given), of vorticity coefficients over the half spectrum or
    on the band block, told apart by their row count.

    u_hat = (-d2 psi, d1 psi) with lap psi = omega; the (0, 0) slots carry
    the constants c = <u1> and m_mean, which the vorticity cannot fix.
    """
    neg_inv, neg_d2, d1 = _biot_savart_tables(grid, w_hat.shape[-2])
    out = np.empty((2,) + w_hat.shape, dtype=np.complex128) if out is None else out
    psi = np.multiply(w_hat, neg_inv, out=out[1])
    np.multiply(neg_d2, psi, out=out[0])
    np.multiply(d1, psi, out=psi)
    out[0, 0, 0] = c
    out[1, 0, 0] = m_mean
    return out


def velocity_from_vorticity(omega_osc):
    """Biot-Savart inversion of omega = d1 u2 - d2 u1 on the n != 0 modes:
    u_hat(k) = i*(k2, -k1)/|k|^2 * omega_hat(k).

    The input must have zero vertical average (the n = 0 slice carries the
    mean flow, which this law cannot recover).  Returns a spectral
    divergence-free VelocityField whose curl equals the input.
    """
    g = omega_osc.grid
    w = _as_spectral_data(omega_osc)
    scale = np.abs(w).max()
    n0 = np.abs(w[:, 0]).max()
    if scale > 0.0 and n0 > 1e-10 * scale:
        raise ValueError(
            "vorticity has a nonzero vertical average; the mean flow cannot be "
            "reconstructed from the vorticity"
        )
    w = w.copy()
    w[:, 0] = 0.0
    u1, u2 = _biot_savart(g, w, 0.0, 0.0)
    return VelocityField(ScalarField(g, u1, SPECTRAL), ScalarField(g, u2, SPECTRAL))


def curl(u):
    """Vorticity d1 u2 - d2 u1 in the representation of the input."""
    a = spectral_derivative(u.u2, axis=1)
    b = spectral_derivative(u.u1, axis=2)
    return ScalarField(u.grid, a.data - b.data, u.repr)


def divergence_residual(u):
    """Relative spectral residual of div u = 0."""
    g = u.grid
    d = (
        _derivative_multiplier(g, 1) * _as_spectral_data(u.u1)
        + _derivative_multiplier(g, 2) * _as_spectral_data(u.u2)
    )
    scale = max(np.abs(_as_spectral_data(u.u1)).max(), np.abs(_as_spectral_data(u.u2)).max())
    if scale == 0.0:
        return 0.0
    return float(np.abs(d).max() / scale)


def _pressure_rhs(grid, u1, w, work=None):
    """Dealiased spectral coefficients of lap(u1^2) + 2 d2(omega u1) from
    physical u1, omega, in the first slot of `work` if given: buffers
    (2, nx, ny) for the products and (2, nx, ny//2+1) for their transform."""
    prod, q = work if work is not None else (np.empty((2,) + u1.shape), None)
    np.multiply(u1, u1, out=prod[0])
    np.multiply(w, u1, out=prod[1])
    q = np.multiply(_forward(prod, out=q), grid.dealias_mask, out=q)
    np.multiply(-grid.ksq, q[0], out=q[0])
    np.multiply(2.0 * _derivative_multiplier(grid, 2), q[1], out=q[1])
    return np.add(q[0], q[1], out=q[0])


def _pressure_hat(grid, u1, w, work=None):
    """Spectral coefficients of the zero-mean pressure from physical u1, omega (`work` of `_pressure_rhs`)."""
    p = _pressure_rhs(grid, u1, w, work)
    p *= grid.inv_ksq
    p[0, 0] = 0.0
    return p


def pressure_from_state(u, omega):
    """Solve -lap p = lap(u1^2) + 2 d2(omega u1) with zero-mean gauge.

    Products are formed on the physical grid and dealiased; the result is a
    physical ScalarField with zero domain mean.
    """
    g = u.grid
    p = _pressure_hat(g, _as_physical_data(u.u1), _as_physical_data(omega))
    return ScalarField(g, _inverse(g, p), PHYSICAL)


def divergence_identity_residual(u):
    """Scaled L2 residual of div((u.grad)u) = lap(u1^2) + 2 d2(omega u1).

    Both sides are evaluated pseudospectrally with dealiased products, so the
    residual vanishes at spectral accuracy for dealiased divergence-free
    fields.
    """
    g = u.grid
    u1 = _as_physical_data(u.u1)
    u2 = _as_physical_data(u.u2)
    sup = max(np.abs(u1).max(), np.abs(u2).max())
    if sup == 0.0:
        return 0.0

    # derivatives of the (already band-limited) velocity need no dealiasing;
    # grad[i][j] = d_(j+1) u_(i+1) on the physical grid
    grad = [[spectral_derivative(ScalarField(g, ui), axis).data for axis in (1, 2)] for ui in (u1, u2)]
    adv = [dealias(to_spectral(ScalarField(g, u1 * gi[0] + u2 * gi[1]))) for gi in grad]  # (u.grad) u
    lhs = spectral_derivative(adv[0], 1).data + spectral_derivative(adv[1], 2).data
    rhs = _pressure_rhs(g, u1, grad[1][0] - grad[0][1])

    # L2 norm via Parseval on the coefficient difference
    return np.sqrt(g.lam * _parseval_sq(g, lhs - rhs)) / sup**2


def velocity_by_kernel_quadrature(omega_osc, n_images=8):
    """Reference Biot-Savart evaluation by direct kernel quadrature.

    Periodizes grad_perp_K over the horizontal period by summing images and
    evaluates the convolution as a cyclic sum (trapezoid quadrature with the
    singular node dropped).  Validation tool for coarse grids only; accuracy
    is limited by the quadrature near the kernel singularity.
    """
    g = omega_osc.grid
    w = _as_physical_data(omega_osc)
    # kernel sampled on displacement grid, image-summed in x1
    dx1 = g.x1[:, None] + np.zeros((1, g.ny))
    dx2 = np.zeros((g.nx, 1)) + g.x2[None, :]
    K1 = np.zeros((g.nx, g.ny))
    K2 = np.zeros((g.nx, g.ny))
    for p in range(-n_images, n_images + 1):
        sx1 = dx1 + p * g.lam
        sing = (np.abs(sx1) < 1e-14) & (np.abs(dx2 - np.round(dx2)) < 1e-14)
        safe_x1 = np.where(sing, 1.0, sx1)
        a, b = grad_perp_K(safe_x1, dx2)
        K1 += np.where(sing, 0.0, a)
        K2 += np.where(sing, 0.0, b)
    # cyclic convolution via FFT equals the direct double sum
    wh = np.fft.fft2(w)
    u1 = np.fft.ifft2(np.fft.fft2(K1) * wh).real * g.cell_area
    u2 = np.fft.ifft2(np.fft.fft2(K2) * wh).real * g.cell_area
    return VelocityField(ScalarField(g, u1), ScalarField(g, u2))
