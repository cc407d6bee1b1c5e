"""Time integration of the vorticity equation on the periodic cylinder.

The full vorticity (oscillating part plus the n = 0 slice, which encodes
the mean vertical flow through d1 m = <omega>) is advanced with an
integrating-factor scheme: diffusion is applied exactly through
exp(-|k|^2 dt) and the dealiased advection term is advanced with classical
four-stage Runge-Kutta.  The Galilean constant c and the spatial mean of m
are conserved quantities carried alongside the spectral vorticity.

The advection term is taken in Basdevant's form: for divergence-free u,

    -u.grad(omega) = -d1 d2 (u2^2 - u1^2) - (d1^2 - d2^2) (u1 u2),

so a tendency makes one batched inverse of (u1, u2) and one batched
forward transform of the two products, both through the block pair of
`spectral`.  The tendency lives on the dealiased band, so the step runs on
its band block (`spectral._band_block`): the stage slots, the integrating
factors, Biot-Savart and the tendency's tables all have the block's shape,
and one workspace per step holds them.  The modes outside the band only
decay, by exactly the factor exp(-|k|^2 dt).  `_band_step` is that step
for any tendency on the block; advdiff's evolution runs on it as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .biotsavart import _biot_savart, pressure_from_state
from .spectral import (
    SPECTRAL,
    ScalarField,
    SpectralGrid,
    VelocityField,
    _band_block,
    _band_copy,
    _band_mask,
    _forward,
    _forward_block,
    _inverse,
    _inverse_block,
    _parseval_sq,
    _profile_inverse,
    spectral_derivative,
)

__all__ = [
    "FlowState",
    "InitialDataSpec",
    "InstabilityError",
    "make_initial_data",
    "reconstruct_velocity",
    "mean_flow_profile",
    "cfl_dt",
    "ifrk4_step",
    "step",
    "march",
    "run",
    "momentum_residual",
]

INITIAL_DATA_KINDS = ("shear_eigenmode", "vertical_shear", "random_bandlimited", "laminar_small")

DEFAULT_DT_ACC = 1e-3

# Fraction of the advective CFL limit taken per step, by `march` and advdiff.
CFL_SAFETY = 0.9


class InstabilityError(RuntimeError):
    """Raised when a norm grows by more than 10x in a single step."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


@dataclass(frozen=True)
class FlowState:
    """Immutable simulation state.

    omega holds the spectral vorticity, its n = 0 slice included; c is the
    (conserved) vertical average of u1; m_mean the (conserved) spatial mean
    of the mean vertical flow m; m0_norm records the sup norm of the
    initial vorticity, used by the diagnostics as the constant M.
    """

    grid: SpectralGrid
    omega: ScalarField
    c: float = 0.0
    m_mean: float = 0.0
    t: float = 0.0
    m0_norm: float = 0.0

    def __post_init__(self):
        if self.omega.repr != SPECTRAL:
            raise ValueError("FlowState stores vorticity in spectral representation")
        if self.omega.grid != self.grid:
            raise ValueError(f"vorticity on {self.omega.grid!r} does not match the state's {self.grid!r}")
        if self.t < 0:
            raise ValueError("time must be non-negative")

    @cached_property
    def _first_stage(self):
        """(workspace, (sup|u1|, sup|u2|)) of this state's next step, the
        workspace holding omega's band block and stage a: computed by
        `cfl_dt`, or by `step` if it did not run, and taken over by `step`."""
        work = _StepWork(self.grid, self.omega.data, self.c, self.m_mean)
        _, sup = work.tendency(work.w, self.t, work.a, speeds=True)
        return work, sup

    @cached_property
    def _norm(self):
        """Coefficient L2 norm of omega: the growth guard's pre-step norm
        for the next step, set by the `step` that made this state."""
        return math.sqrt(_parseval_sq(self.grid, self.omega.data))


@dataclass(frozen=True)
class InitialDataSpec:
    """Recipe for reproducible initial states.

    target_ru / target_romega are the dimensionless Reynolds numbers, i.e.
    the sup norms of the initial velocity and vorticity.  The vorticity
    target is matched exactly; the velocity target is met by adding a
    constant mean flow where the kind permits it (best effort within 5%).
    """

    kind: str
    seed: int = 0
    target_ru: float = 0.0
    target_romega: float = 0.0
    band: int = 4

    def __post_init__(self):
        if self.kind not in INITIAL_DATA_KINDS:
            raise ValueError(f"unknown initial data kind {self.kind!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (0 <= self.target_ru < math.inf and 0 <= self.target_romega < math.inf):
            raise ValueError(
                "Reynolds targets must be finite and non-negative, "
                f"got {self.target_ru}, {self.target_romega}"
            )
        if self.band < 1:
            raise ValueError("band must be >= 1")

    def check_band(self, grid):
        """Raise ValueError if a random kind's band exceeds the dealias band
        of `grid`; the shear kinds ignore `band`."""
        if self.kind in ("random_bandlimited", "laminar_small") and self.band > min(grid.band):
            raise ValueError(f"band {self.band} exceeds the dealiased range of {grid!r}")


def _velocity_arrays(grid, w_hat, c, m_mean):
    """Physical (u1, u2), stacked, from spectral vorticity; one batched
    inverse."""
    return _inverse(grid, _biot_savart(grid, w_hat, c, m_mean))


def reconstruct_velocity(state):
    """Full physical velocity (mean flow plus oscillating part)."""
    g = state.grid
    u1, u2 = _velocity_arrays(g, state.omega.data, state.c, state.m_mean)
    return VelocityField(ScalarField(g, u1), ScalarField(g, u2))


def mean_flow_profile(state):
    """Mean vertical speed m(x1) recovered from the n = 0 vorticity slice."""
    _, u2h = _biot_savart(state.grid, state.omega.data, state.c, state.m_mean)
    return _profile_inverse(u2h[:, 0])


@lru_cache(maxsize=16)
def _basdevant_tables(grid):
    """Read-only (k1 k2, k1^2 - k2^2) on the band block, so that
    -u.grad(omega) has the coefficients k1 k2 Q0_hat + (k1^2 - k2^2) Q1_hat
    for Q0 = u2^2 - u1^2, Q1 = u1 u2.

    Both vanish at (0, 0): the tendency has zero mean, to the bit.
    Products of two band modes alias onto no band mode, so the tendency equals
    the dealiased u.grad(omega) form on every mode, up to roundoff.
    """
    k1 = grid.k1[:, None]
    k2 = grid.k2[None, : grid.ny // 2 + 1]
    tables = tuple(_band_block(grid, t).astype(np.complex128) for t in (k1 * k2, k1**2 - k2**2))
    for t in tables:
        t.setflags(write=False)
    return tables


def _step_blocks(grid, w_hat):
    """The (7, 2r+1, nb) block array of `ifrk4_step`, w_hat's band block in slot 0."""
    blocks = np.empty((7,) + grid.block_shape, dtype=np.complex128)
    _band_copy(grid, w_hat, blocks[0])
    return blocks


class _StepWork:
    """The buffers and the tendency of one Navier-Stokes step, which runs
    on the band block of shape grid.block_shape = (2r+1, nb):

    - `blocks` (7, 2r+1, nb): the block array of `ifrk4_step`, omega's
      block `w` in slot 0 and stage a in slot 3, `a`;
    - `spec` (2, 2r+1, nb): a stage's velocity coefficients, then those of
      its two products;
    - `half` (2, nx, ny//2+1): the mixed coefficients of both transforms;
    - `phys` (3, nx, ny): the velocity samples, then the two products.

    `tendency` is `_nonlinear_ns` of the state's c and m_mean on these;
    stage a and the three later stages all run in them.
    """

    __slots__ = ("blocks", "w", "a", "spec", "half", "phys", "tendency")

    def __init__(self, grid, w_hat, c, m_mean):
        self.blocks = _step_blocks(grid, w_hat)
        self.w, self.a = self.blocks[0], self.blocks[3]
        self.spec = np.empty((2,) + self.w.shape, dtype=np.complex128)
        self.half = np.empty((2, grid.nx, grid._ncols), dtype=np.complex128)
        self.phys = np.empty((3, grid.nx, grid.ny))
        self.tendency = _nonlinear_ns(grid, c, m_mean, self)


def _nonlinear_ns(grid, c, m_mean, work):
    t0, t1 = _basdevant_tables(grid)
    spec, half, phys = work.spec, work.half, work.phys
    u, prod = phys[:2], phys[2]

    def tendency(w, t, out, speeds=False):
        """The tendency at the band block w, written into `out`; with
        speeds=True, the pair (out, (sup|u1|, sup|u2|)), read off the same
        batched inverse."""
        _inverse_block(grid, _biot_savart(grid, w, c, m_mean, out=spec), half, u)
        sup = (np.abs(u[0], out=prod).max(), np.abs(u[1], out=prod).max()) if speeds else None
        np.multiply(u[0], u[1], out=prod)
        np.multiply(u, u, out=u)
        np.subtract(u[1], u[0], out=u[1])
        q_hat = _forward_block(grid, phys[1:], half, spec)
        np.multiply(t0, q_hat[0], out=out)
        q_hat[1] *= t1
        out += q_hat[1]
        return (out, sup) if speeds else out

    return tendency


# A CFL-limited run asks for a new dt at every step; a small cache still
# serves dt_acc and the landing steps of runs that repeat them.
@lru_cache(maxsize=4)
def _exp_factors(grid, dt):
    """Read-only (E, E2, 2E) on the band block for E = exp(-|k|^2 dt/2)
    and E2 = E*E, then E2 over the half spectrum, for the modes outside
    the block."""
    E = np.exp(-grid.ksq * (0.5 * dt))
    E2 = E * E
    Eb = _band_block(grid, E)
    factors = (Eb, _band_block(grid, E2), 2.0 * Eb, E2)
    for f in factors:
        f.setflags(write=False)
    return factors


def ifrk4_step(grid, blocks, t, dt, tendency):
    """One integrating-factor RK4 step for dw/dt = tendency(w, t) - |k|^2 w
    on the band block w = blocks[0], advanced in place; returns w.

    Diffusion is integrated exactly; only decaying exponentials appear.
    `blocks`, of shape (7, 2r+1, nb) and complex, holds w, two scratch
    arrays and the four stage slots, of which slot 3 holds a = tendency(w,
    t) on entry.  The stage inputs and the final combination
    are formed in the scratch arrays, with the roundings of

        b = tendency(E (w + dt/2 a)),  c = tendency(E w + dt/2 b),
        d = tendency(E2 w + dt (E c)),
        w_new = E2 w + dt/6 (E2 a + 2E (b + c) + d)

    evaluated left to right: each operation is the formula's, up to the
    order of its two operands.  tendency(w, t, out) writes its value into
    the slot `out` and returns it; it must not keep its argument, which is
    overwritten.
    """
    E, E2, E2x2 = _exp_factors(grid, dt)[:3]
    w, x, y, a, b, c, d = blocks
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
    x *= E2x2
    np.multiply(E2, a, out=y)
    y += x
    y += d
    y *= dt / 6.0
    w *= E2
    w += y
    return w


def _cfl_limit(grid, s1, s2, dt_acc):
    """Advective CFL step for sup speeds (s1, s2), capped by dt_acc."""
    dt = dt_acc
    if s1 > 0.0:
        dt = min(dt, CFL_SAFETY * grid.dx / s1)
    if s2 > 0.0:
        dt = min(dt, CFL_SAFETY * grid.dy / s2)
    return float(dt)


def cfl_dt(state, dt_acc=DEFAULT_DT_ACC):
    """The fraction CFL_SAFETY of the advective CFL limit, capped by the
    fixed accuracy step dt_acc.

    Diffusion imposes no restriction (it is integrated exactly).  Returns
    dt_acc when the velocity vanishes.  The speeds come from stage a of the
    state's next step, which `step` then reuses.
    """
    return _cfl_limit(state.grid, *state._first_stage[1], dt_acc)


def _band_step(grid, w_hat, blocks, t, dt, tendency, pre):
    """One step of w_hat from t on its band block, which `blocks[0]` holds,
    with stage a in `blocks[3]`: `ifrk4_step` advances the block in place,
    the modes outside it are multiplied by exactly E2 = exp(-|k|^2 dt), and
    the block is copied into its place.  Returns (w_new, its coefficient L2
    norm).

    The growth guard: raises InstabilityError if that norm is not finite
    or exceeds 10x `pre`, the norm of w_hat as returned by the step that
    made it.
    """
    ifrk4_step(grid, blocks, t, dt, tendency)
    w_new = _band_copy(grid, blocks[0], _exp_factors(grid, dt)[3] * w_hat)
    post = math.sqrt(_parseval_sq(grid, w_new))
    if not np.isfinite(post) or post > 10.0 * pre + 1e-300:
        raise InstabilityError(f"norm grew {post / max(pre, 1e-300):.3g}x in one step at t={t:.6g}", t=t)
    return w_new, post


def step(state, dt):
    """Advance the state by one step of the integrating-factor RK4 scheme.

    The velocity is reconstructed from the stage vorticity at every stage;
    c and m_mean are conserved.  The step is `_band_step`, in the workspace
    of the state's stage a, computed here if `cfl_dt` did not run on the
    state and dropped from it either way.  Raises InstabilityError if the
    vorticity L2 norm grows by more than 10x; the new state carries its
    norm for the guard of its own step.
    """
    if not (0.0 < dt < math.inf):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    g = state.grid
    work = state._first_stage[0]
    del state.__dict__["_first_stage"]
    w_new, norm = _band_step(g, state.omega.data, work.blocks, state.t, dt, work.tendency, state._norm)
    new = FlowState(g, ScalarField(g, w_new, SPECTRAL), state.c, state.m_mean, state.t + dt, state.m0_norm)
    new.__dict__["_norm"] = norm
    return new


def _requested_times(times, t0, t1):
    """`times` as sorted floats without repeats; raises ValueError, naming
    the value, for one outside [t0, t1] by more than 1e-12."""
    stops = sorted(set(float(t) for t in times))
    for tc in stops:
        if not (t0 - 1e-12 <= tc <= t1 + 1e-12):
            raise ValueError(f"requested times must lie within [{t0:g}, {t1:g}], got {tc!r}")
    return stops


def _march(x, t0, t1, times, limit, advance):
    """The adaptive stepping loop shared by `march` and advdiff.

    Advances x from t0 to t1 in steps of at most limit(x, t), shortened to
    land exactly on each of `times`; advance(x, t, dt, t_new) returns the
    next x.  Yields (x, tc) once for each requested time tc equal to t0,
    then once after every step, with tc the requested time the step landed
    on, or None.  Raises ValueError, on the first `next()` and before any
    step, if t1 is not finite or lies below t0, or a requested time lies
    outside [t0, t1], and where limit returns a step that is not positive
    and finite.
    """
    if not (t0 <= t1 < math.inf):
        raise ValueError(f"end time must be finite and not below {t0:g}, got {t1}")
    stops = _requested_times(times, t0, t1)
    for tc in stops:
        if tc <= t0 + 1e-14:
            yield x, tc
    stops = [tc for tc in stops if tc > t0 + 1e-14]
    t = t0
    while t < t1 - 1e-14:
        stop = stops[0] if stops else t1
        dt_max = limit(x, t)
        if not (0.0 < dt_max < math.inf):
            raise ValueError(f"step limit must be positive and finite, got {dt_max} at t={t:.6g}")
        dt = min(dt_max, stop - t)
        landing = t + dt >= stop - 1e-14
        if landing:
            dt = stop - t
        t_new = stop if landing else t + dt
        x = advance(x, t, dt, t_new)
        t = t_new
        yield x, (stops.pop(0) if landing and stops else None)


def march(state0, t_end, diag_times=(), *, dt_acc=DEFAULT_DT_ACC):
    """The states of a run to t_end in `cfl_dt` steps that land exactly on
    diag_times: `_march`'s (state, tc), state0 itself for a tc equal to
    state0.t, then one pair after every step."""
    def advance(state, t, dt, t_new):
        state = step(state, dt)
        return state if state.t == t_new else replace(state, t=t_new)

    return _march(state0, state0.t, t_end, diag_times, lambda s, t: cfl_dt(s, dt_acc=dt_acc), advance)


def run(state0, t_end, diag_times=(), *, dt_acc=DEFAULT_DT_ACC, collector=None):
    """Integrate to t_end with adaptive steps that land exactly on diag_times;
    returns the final state (state0 itself if nothing steps).

    At each diagnostic time the state is handed to `collector.add`, if a
    collector is given; its `finalize()` builds the records once the run
    is over.  Deterministic for identical inputs.
    """
    state = state0
    for state, tc in march(state0, t_end, diag_times, dt_acc=dt_acc):
        if tc is not None and collector is not None:
            collector.add(state)
    return state


def momentum_residual(state, dt=1e-3):
    """Scaled L2 residual of the velocity-form momentum equation.

    The time derivative is a centered difference across two half-steps of
    the vorticity solver; the remaining terms are evaluated spectrally at
    the midpoint state.  Cross-checks the vorticity formulation against the
    primitive equations; the centered difference makes it O(dt^2).
    """
    g = state.grid
    u1a, u2a = _velocity_arrays(g, state.omega.data, state.c, state.m_mean)
    mid = step(state, dt / 2.0)
    s2 = step(mid, dt / 2.0)
    u1b, u2b = _velocity_arrays(g, s2.omega.data, s2.c, s2.m_mean)
    du1 = (u1b - u1a) / dt
    du2 = (u2b - u2a) / dt

    u1, u2 = _velocity_arrays(g, mid.omega.data, mid.c, mid.m_mean)
    sup = max(np.abs(u1).max(), np.abs(u2).max())
    if sup == 0.0:
        return 0.0
    uf = VelocityField(ScalarField(g, u1), ScalarField(g, u2))
    p = pressure_from_state(uf, ScalarField(g, _inverse(g, mid.omega.data)))

    resid_sq = 0.0
    for axis, ui, dt_ui in ((1, uf.u1, du1), (2, uf.u2, du2)):
        grad = [spectral_derivative(ui, a).data for a in (1, 2)]
        lap = sum(spectral_derivative(ui, a, 2).data for a in (1, 2))
        r = dt_ui + u1 * grad[0] + u2 * grad[1] - lap + spectral_derivative(p, axis).data
        resid_sq += (r**2).sum()
    resid = float(np.sqrt(resid_sq * g.cell_area))
    scale = float(np.sqrt(((u1**2 + u2**2)).sum() * g.cell_area))
    return resid / scale


def _random_band_limited_vorticity(grid, rng, band):
    """Real band-limited vorticity with zero total integral.

    Coefficients carry random phases at unit modulus across the band, so
    ensembles differ by phase only; this keeps suite statistics (sup norms,
    mean-flow fraction) comparable across seeds.
    """
    phys = rng.standard_normal((grid.nx, grid.ny))
    spec = _forward(phys)
    keep = _band_mask(grid, band, band)
    mod = np.abs(spec)
    spec = np.where(keep & (mod > 0.0), spec / np.where(mod > 0.0, mod, 1.0), 0.0)
    spec[0, 0] = 0.0
    return spec


def _sup_speed_with_mean(u, m_mean):
    """Sup speed of the velocity u = (u1, u2) plus a constant vertical flow
    m_mean: the velocity is affine in m_mean, which moves only u2_hat[0, 0]."""
    u1, u2 = u
    return float(np.sqrt(u1**2 + (u2 + m_mean) ** 2).max())


def _mean_flow_for_target(u, target):
    """The least float m at which the sup speed with a constant vertical
    flow m reaches `target` from below.  Each point's speed is convex in m,
    so the sup first reaches it at min over points of -u2 + sqrt(target^2 -
    u1^2); that form cancels to roundoff of u2, not of m (hundreds of ulps
    of m for a target 0.1% above the sup at m = 0), so a bracket around it
    is bisected down to adjacent floats."""
    u1, u2 = u
    reach = np.abs(u1) <= target
    m = float((np.sqrt(target**2 - u1[reach] ** 2) - u2[reach]).min())
    width = 8.0 * np.finfo(float).eps * (target + float(np.abs(u2).max()))
    lo, hi = max(m - width, 0.0), m + width
    while not _sup_speed_with_mean(u, lo) < target <= _sup_speed_with_mean(u, hi):
        width *= 2.0
        lo, hi = max(m - width, 0.0), m + width
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if _sup_speed_with_mean(u, mid) < target:
            lo = mid
        else:
            hi = mid
    return hi


def make_initial_data(spec, grid):
    """Build a divergence-free initial state with <u1> = 0.

    The vorticity sup norm matches target_romega exactly.  For kinds with a
    mean-flow sector (vertical_shear, random_bandlimited) the velocity sup
    norm is matched by adding a constant vertical mean flow, best effort
    within 5%; otherwise a mismatched target_ru is an error.
    """
    g = grid
    spec.check_band(g)
    x1, x2 = g.meshgrid()
    if spec.kind == "shear_eigenmode":
        w_phys = np.cos(2.0 * np.pi * x2) * np.ones_like(x1)
        w_hat = _forward(w_phys)
        mean_flow_ok = False
    elif spec.kind == "vertical_shear":
        w_phys = (2.0 * np.pi / g.lam) * np.cos(2.0 * np.pi * x1 / g.lam) * np.ones_like(x2)
        w_hat = _forward(w_phys)
        mean_flow_ok = True
    elif spec.kind == "random_bandlimited":
        rng = np.random.default_rng(spec.seed)
        w_hat = _random_band_limited_vorticity(g, rng, spec.band)
        mean_flow_ok = True
    else:  # laminar_small
        rng = np.random.default_rng(spec.seed)
        w_hat = _random_band_limited_vorticity(g, rng, spec.band)
        mean_flow_ok = False

    w_hat *= g.dealias_mask
    sup_w = np.abs(_inverse(g, w_hat)).max()
    if spec.target_romega > 0.0:
        if sup_w == 0.0:
            raise ValueError("cannot scale a vanishing vorticity to a positive target")
        w_hat *= spec.target_romega / sup_w
    else:
        w_hat *= 0.0

    m_mean = 0.0
    if spec.target_ru > 0.0:
        u = _velocity_arrays(g, w_hat, 0.0, 0.0)
        base = _sup_speed_with_mean(u, 0.0)
        if spec.target_ru >= base:
            if not mean_flow_ok:
                if abs(base - spec.target_ru) > 0.05 * spec.target_ru:
                    raise ValueError(
                        f"target_ru={spec.target_ru} unreachable for kind {spec.kind!r} "
                        f"(no mean flow; achievable sup is {base:.6g})"
                    )
            else:
                m_mean = _mean_flow_for_target(u, spec.target_ru) if spec.target_ru > base else 0.0
                achieved = _sup_speed_with_mean(u, m_mean)
                if abs(achieved - spec.target_ru) > 0.05 * spec.target_ru:
                    raise ValueError(f"velocity target missed beyond 5%: {achieved:.6g} vs {spec.target_ru:.6g}")
        elif base > 0.0 and spec.target_ru < base * 0.95:
            raise ValueError(
                f"target_ru={spec.target_ru} below the sup speed {base:.6g} induced by the vorticity"
            )

    w0 = ScalarField(g, w_hat, SPECTRAL)
    m0 = float(np.abs(_inverse(g, w_hat)).max())
    return FlowState(grid=g, omega=w0, c=0.0, m_mean=m_mean, t=0.0, m0_norm=m0)
