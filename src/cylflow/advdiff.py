"""Linear advection-diffusion with a prescribed divergence-free drift.

Verification companion to the nonlinear solver: the same integrating-factor
RK4 step evolves d_t omega + u.grad(omega) = lap(omega) for the shear
drifts u = (a(t) sin(2 pi x2), 0), with a(t) = 0, A or A cos(2 pi t / P).
Their tendency is a three-point stencil in the vertical mode n on the band
block of the Navier-Stokes step, with its truncation rule: modes outside
the band count as zero and only decay.  Stepping makes no transform.
`evolve` is the one evolution; `fundamental_solution` evolves narrow
Gaussian bumps with it, `check_lp_lq` reads the L^p-L^q smoothing ratios
off its fields and `check_gaussian_envelope` fits the Gaussian bound to
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solver import _band_step, _cfl_limit, _march, _step_blocks
from .spectral import (
    ScalarField,
    _as_physical_data,
    _as_spectral_data,
    _band_block,
    _derivative_multiplier,
    _inverse,
    _parseval_sq,
    circular_distance,
    lp_norm,
)

__all__ = [
    "DriftSpec",
    "EnvelopeFit",
    "LpLqCheck",
    "evolve",
    "periodized_gaussian",
    "fundamental_solution",
    "check_lp_lq",
    "check_gaussian_envelope",
    "duality_residual",
    "v_volume",
]

DRIFT_KINDS = ("zero", "steady_shear_u1", "time_periodic_shear")


@dataclass
class DriftSpec:
    """Shear drift u = (a(t) sin(2 pi x2), 0): divergence-free, with
    <u1> = 0 for every x1 and t.

    amplitude is the sup over time of |u1| (the constant M of the Gaussian
    bound).  time_periodic_shear modulates the steady shear by
    cos(2 pi t / period).
    """

    kind: str
    amplitude: float = 0.0
    period: float = 1.0

    def __post_init__(self):
        if self.kind not in DRIFT_KINDS:
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if not (0 <= self.amplitude < math.inf):
            raise ValueError(f"drift amplitude must be finite and non-negative, got {self.amplitude}")
        if self.kind == "time_periodic_shear" and not (0 < self.period < math.inf):
            raise ValueError(f"period must be finite and positive, got {self.period}")

    def amplitude_at(self, t):
        """a(t), the shear's amplitude at time t."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "steady_shear_u1":
            return self.amplitude
        return self.amplitude * math.cos(2.0 * np.pi * t / self.period)  # time_periodic_shear

    def reversed(self, t_final):
        """Adjoint drift -u(t_final - t), used by the duality check."""
        return _ReversedDrift(self, t_final)


class _ReversedDrift:
    def __init__(self, base, t_final):
        self.base = base
        self.t_final = t_final

    def amplitude_at(self, t):
        return -self.base.amplitude_at(self.t_final - t)


@dataclass
class EnvelopeFit:
    """Result of fitting log sup_{x2} Gamma against |x1-y1|^2 / (4t).

    passed is True when the fitted slope is at most -lam/(1+M^2), i.e. the
    profile decays at least as fast as the Gaussian bound with the
    configured lam.
    """

    K2_est: float
    slope: float
    lambda_eff: float
    passed: bool


@dataclass
class LpLqCheck:
    times: np.ndarray
    ratios: np.ndarray
    k1: float


def v_volume(t):
    """min(t, sqrt(t)): the volume of a ball of radius sqrt(t) on the cylinder."""
    if t <= 0:
        raise ValueError("v_volume requires t > 0")
    return min(t, math.sqrt(t))


def _shear_advection(grid, drift):
    """The dealiased tendency -u.grad(omega) = -a(t) sin(2 pi x2) d1 omega
    of the drift on the band block, as a function of (w, t, out) that
    writes into `out` and returns it; it makes no transform.

    sin(2 pi x2) shifts the vertical mode by one either way, so column n is
    -(a k1 / 2) (w[j, n-1] - w[j, n+1]).  Column 0's left neighbour is the
    column -1 that the half spectrum leaves out, conj(w[-j, 1]); the last
    column's right neighbour, column nb, lies outside the band and counts
    as zero, the truncation rule of the Navier-Stokes tendency.
    """
    m = grid.block_shape[0]
    half_k1 = 0.5 * _band_block(grid, _derivative_multiplier(grid, 1).imag)
    neg = -np.arange(m) % m  # row i holds mode j; neg[i] holds -j

    def tendency(w, t, out):
        out[:, 0] = np.conj(w[neg, 1])
        out[:, 1:] = w[:, :-1]
        out[:, :-1] -= w[:, 1:]
        out *= -drift.amplitude_at(t) * half_k1
        return out

    return tendency


def evolve(omega0, drift, times, *, dt_acc=1e-3):
    """One evolution of omega0 from t = 0 to the last of `times`, landing
    exactly on each; returns {t: physical omega(t)}, each a new array.
    t = 0 is allowed and maps to omega0's own physical values; an empty
    `times` makes no step and returns {}.  Every step is the Navier-Stokes
    step's `_band_step`, on one block array of `ifrk4_step` allocated
    here: slot 0 holds the current omega's band block, slot 3 its stage a."""
    grid = omega0.grid
    tendency = _shear_advection(grid, drift)
    sup_sin = np.abs(np.sin(2.0 * np.pi * grid.x2)).max()
    w0 = _as_spectral_data(omega0)
    blocks = _step_blocks(grid, w0)
    norm = math.sqrt(_parseval_sq(grid, w0))

    def limit(w, t):
        return _cfl_limit(grid, abs(drift.amplitude_at(t)) * sup_sin, 0.0, dt_acc)

    def advance(w, t, dt, t_new):
        nonlocal norm
        tendency(blocks[0], t, blocks[3])
        w, norm = _band_step(grid, w, blocks, t, dt, tendency, norm)
        return w

    fields = {}
    for w, tc in _march(w0, 0.0, max(times, default=0.0), times, limit, advance):
        if tc is not None:
            # t = 0 is omega0 as given, not its transform round trip
            fields[tc] = ScalarField(grid, _as_physical_data(omega0).copy() if tc == 0.0 else _inverse(grid, w))
    return fields


def periodized_gaussian(grid, y, sigma):
    """Unit-mass Gaussian bump centered at y, periodized over the box."""
    y1, y2 = y
    x1 = grid.x1[:, None]
    x2 = grid.x2[None, :]
    out = np.zeros((grid.nx, grid.ny))
    p_range = range(-2, 3) if grid.lam < 8 * sigma + 1 else range(-1, 2)
    q_max = int(np.ceil(4.0 * sigma)) + 1
    for p in p_range:
        for q in range(-q_max, q_max + 1):
            out += np.exp(-(((x1 - y1 + p * grid.lam) ** 2) + (x2 - y2 + q) ** 2) / (2.0 * sigma**2))
    out /= out.sum() * grid.cell_area
    return ScalarField(grid, out)


def fundamental_solution(drift, y, times, sigma0, grid, *, dt_acc=1e-3):
    """Approximate fundamental solution: `evolve` of a width-sigma0
    unit-mass Gaussian centered at y, {t: Gamma(t)} for each of `times`.

    sigma0 must be at least twice the largest cell size, so that the bump
    is resolved on the grid; it is checked before any step.
    """
    floor = 2.0 * max(grid.dx, grid.dy)
    if not sigma0 >= floor:
        raise ValueError(f"sigma0={sigma0} under grid resolution (need >= {floor})")
    return evolve(periodized_gaussian(grid, y, sigma0), drift, times, dt_acc=dt_acc)


def check_lp_lq(omega0, p, q, fields):
    """Empirical smoothing constant from the fields {t: omega(t)} of
    `evolve(omega0, ...)`: the ratios ||omega(t)||_q V(t)^(1/p - 1/q) /
    ||omega0||_p at their sorted times (at t = 0 without the V factor), and
    their max."""
    if not (1 <= p <= q):
        raise ValueError("need 1 <= p <= q")
    if not np.any(omega0.data):
        raise ValueError("zero initial data")
    if not fields:
        raise ValueError("check_lp_lq needs at least one time")
    times = sorted(fields)
    denom = lp_norm(omega0, p)
    pw = 1.0 / p - (0.0 if q == np.inf else 1.0 / q)
    ratios = []
    for t in times:
        nq = lp_norm(fields[t], q)
        ratios.append(nq * v_volume(t) ** pw / denom if t > 0 else nq / denom)
    ratios = np.asarray(ratios)
    return LpLqCheck(times=np.asarray(times), ratios=ratios, k1=float(ratios.max()))


def check_gaussian_envelope(gamma, y, t, M, lam):
    """Fit the horizontal log-profile of an approximate fundamental solution
    against the Gaussian-bound regressor |x1-y1|^2 / (4t).

    Points below 1e-10 of the profile maximum are excluded; fewer than 8
    usable points is an error.  K2_est is the max over usable points of
    Gamma V(t) exp(+lam |x1-y1|^2 / (4 (1+M^2) t)).
    """
    if not (0.0 < lam < 1.0):
        raise ValueError("lam must lie in (0, 1)")
    g = gamma.grid
    prof = _as_physical_data(gamma).max(axis=1)
    y1 = y[0]
    dist = circular_distance(g.x1, y1, g.lam)
    s = dist**2 / (4.0 * t)
    usable = prof > 1e-10 * prof.max()
    if usable.sum() < 8:
        raise ValueError(f"degenerate envelope fit: only {int(usable.sum())} usable points")
    slope, _ = np.polyfit(s[usable], np.log(prof[usable]), 1)
    slope = float(slope)
    k2 = float(
        (prof[usable] * v_volume(t) * np.exp(lam * s[usable] / (1.0 + M**2))).max()
    )
    lambda_eff = min(max(-slope * (1.0 + M**2), 1e-12), 1.0)
    passed = bool(np.isfinite(k2) and slope <= -lam / (1.0 + M**2))
    return EnvelopeFit(K2_est=k2, slope=slope, lambda_eff=lambda_eff, passed=passed)


def duality_residual(drift, omega0, w0, t_final, *, dt_acc=1e-3):
    """Relative mismatch of <omega(T), w0> and <omega0, w(T)> where w evolves
    under the adjoint drift -u(T - t)."""
    g = omega0.grid
    a_end = evolve(omega0, drift, [t_final], dt_acc=dt_acc)[t_final]
    b_end = evolve(w0, drift.reversed(t_final), [t_final], dt_acc=dt_acc)[t_final]
    lhs = float((a_end.data * _as_physical_data(w0)).sum() * g.cell_area)
    rhs = float((_as_physical_data(omega0) * b_end.data).sum() * g.cell_area)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale
