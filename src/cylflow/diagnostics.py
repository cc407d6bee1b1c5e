"""Energy, enstrophy and oscillatory-energy diagnostics along trajectories.

A state is read on its dealiased band, as the solver reads it: the x1
stage is the stepping core's (`spectral._x1_inverse`) on twice the rows.
All profile quantities are vertical averages of pointwise products of at
most three band fields, at the x1 points of the zero-padded grid
`spectral._padded_grid` (x1 doubled, which makes the x1-derivatives of
profiles exact).  A mean of two fields is taken by Parseval in x2 from
coefficients transformed along x1 only (row 0 of
`spectral._parseval_weights`), which is exact for any input.  Only the
three-field means sample x2, at the ny points of the state's own grid:
the band has |n| < ny/3, so a cubic product stays below |n| = ny and that
mean is already exact.  A collector holds one grid and one buffer set for
it, made at its first `add` and filled in place by every later one; no
array a snapshot keeps aliases the buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .biotsavart import _biot_savart, _pressure_hat
from .spectral import (
    Profile,
    _derivative_multiplier,
    _padded_grid,
    _parseval_weights,
    _x1_inverse,
    _x2_inverse,
    circular_distance,
    profile_derivative,
)

__all__ = [
    "DiagnosticsRecord",
    "RateFit",
    "DiagnosticsOptions",
    "TrajectoryCollector",
    "CSV_COLUMNS",
    "localized_sum",
    "fit_decay_rate",
    "theorem_checks",
]

CSV_COLUMNS = [
    "t",
    "sup_u",
    "sup_omega",
    "sup_uhat",
    "E_rho",
    "D_rho",
    "Ens_rho",
    "EnsD_rho",
    "ul2_uhat",
    "residual_energy",
    "residual_enstrophy",
    "residual_oscillatory",
]


@dataclass
class DiagnosticsRecord:
    t: float
    sup_u: float
    sup_omega: float
    sup_uhat: float
    e_rho: float
    d_rho: float
    ens_rho: float
    ensd_rho: float
    ul2_uhat: float
    residual_energy: float = 0.0
    residual_enstrophy: float = 0.0
    residual_oscillatory: float = 0.0

    def csv_values(self):
        """Values in CSV_COLUMNS order: the fields are declared in that order."""
        return [getattr(self, f.name) for f in fields(self)]


@dataclass
class RateFit:
    model: str  # "power" or "exponential"
    exponent_or_rate: float
    window: tuple
    rms_log_residual: float


@dataclass
class DiagnosticsOptions:
    """Localization weight and window policy for per-time records."""

    rho: float = 1.0
    center: object = "argmax_e"  # initial energy-density argmax, or an explicit x1

    def __post_init__(self):
        if not (0 < self.rho < math.inf):
            raise ValueError(f"rho must be finite and positive, got {self.rho}")
        if isinstance(self.center, str):
            if self.center != "argmax_e":
                raise ValueError(f"unknown center policy {self.center!r}")
        elif not math.isfinite(self.center):
            raise ValueError(f"center must be 'argmax_e' or a finite x1, got {self.center}")


@lru_cache(maxsize=8)
def _mean_weights(grid):
    """Read-only (3, 2*(ny//2+1)) weights on interleaved mixed coefficients,
    from row 0 of the `()` and `(2,)` tables of `spectral._parseval_weights`:
    the rows give the vertical mean of a product of two fields, of their
    oscillatory parts (column 0 dropped), and of their x2-derivatives."""
    w = _parseval_weights(grid, ())[0]
    osc = w.copy()
    osc[:2] = 0.0
    weights = np.stack((w, osc, _parseval_weights(grid, (2,))[0]))
    weights.setflags(write=False)
    return weights


class _FineFields:
    """The buffer set of a collector: the profile ingredients of a state on
    `grid`, on the padded x1 grid `_padded_grid(grid)`, that `fill` writes.

    One batched x1 stage of the dealiased band gives the mixed
    coefficients (x1 sampled, x2 spectral) of the velocity, the vorticity
    and their x1-derivatives, and one x2 inverse samples only u1, u2 and
    omega, for the three-field means and the sup norms.  The pressure goes
    through the x1 stage only.
    """

    def __init__(self, grid):
        self.grid, self.fine = grid, _padded_grid(grid)
        rows, ncols = 2 * grid.nx, grid._ncols
        # One allocation, which the heap keeps for the next collector (as
        # separate arrays, it was given back and faulted in again).  First
        # the mixed coefficients of u1, u2, omega, their x1-derivatives and
        # p, zeros as `_x1_inverse` wants of an `out` it has not filled, and
        # as (re, im) pairs for `_means`.  Then the x2 samples of u1, u2,
        # omega and two slots of scratch, which also hold the half spectra
        # of the first six mixed fields until `fill` samples, and at their
        # end the pressure's transform in `fill` and the products of `_means`.
        nm = 14 * rows * ncols
        block = np.zeros(nm + 5 * rows * grid.ny + 2 * rows)
        self._mixed = block[:nm].view(np.complex128).reshape(7, rows, ncols)
        self.mixed = dict(zip(("u1", "u2", "w", "d1u1", "d1u2", "d1w", "p"), self._mixed.view(np.float64)))
        flat = block[nm:]
        self._samples = flat[: 5 * rows * grid.ny].reshape(5, rows, grid.ny)
        self._spec = flat[: 12 * grid.nx * ncols].view(np.complex128).reshape(6, grid.nx, ncols)
        self._pair = flat[-2 * rows * ncols :].reshape(rows, 2 * ncols)
        self.weights = _mean_weights(grid)

    def fill(self, state):
        g, spec, samples = self.grid, self._spec, self._samples
        _biot_savart(g, state.omega.data, state.c, state.m_mean, out=spec[:2])
        spec[2] = state.omega.data
        np.multiply(_derivative_multiplier(g, 1), spec[:3], out=spec[3:])
        _x1_inverse(g, spec, 2 * g.nx, out=self._mixed[:6])
        _x2_inverse(g, self._mixed[:3], out=samples[:3])
        # the fine samples at stride 2 are the state's own grid values
        work = samples[3].reshape(2, g.nx, g.ny), self._pair.view(np.complex128).reshape(2, g.nx, -1)
        _x1_inverse(g, _pressure_hat(g, samples[0, ::2], samples[2, ::2], work), 2 * g.nx, out=self._mixed[6])
        self.M = state.m0_norm

    def _means(self, a, b):
        """Vertical means of f_a * f_b by Parseval in x2: of the full
        fields, of their oscillatory parts, and of their x2-derivatives."""
        return self.weights @ np.multiply(self.mixed[a], self.mixed[b], out=self._pair).T

    def profiles(self):
        """Exact fine-grid profiles (length-2nx arrays) and the sup norms of
        u, omega and u_hat, once per `fill`: it leaves u_hat in the samples."""
        u1, u2, w = self._samples[:3]
        m = self._means
        uu, uu_osc, uu_d2 = m("u1", "u1")
        vv, vv_osc, vv_d2 = m("u2", "u2")
        ww, _, ww_d2 = m("w", "w")
        u_d1u, u_d1u_osc, _ = m("u1", "d1u1")
        v_d1v, v_d1v_osc, _ = m("u2", "d1u2")
        d1v_d1v, d1v_d1v_osc, _ = m("d1u2", "d1u2")
        pu, pu_osc, _ = m("p", "u1")
        # the x1-derivative of the constant mean c of u1 is zero, so
        # d1u1 is oscillatory
        d1u_d1u = m("d1u1", "d1u1")[0]
        e = 0.5 * (uu + vv) + 0.5 * self.M**2
        d1e = u_d1u + v_d1v
        d = d1u_d1u + uu_d2 + d1v_d1v + vv_d2
        eps = 0.5 * ww
        d1eps = m("w", "d1w")[0]
        delta = m("d1w", "d1w")[0] + ww_d2
        e_hat = 0.5 * (uu_osc + vv_osc)
        d1e_hat = u_d1u_osc + v_d1v_osc
        d_hat = d1u_d1u + uu_d2 + d1v_d1v_osc + vv_d2
        q12 = m("u1", "u2")[1]
        # m' is column 0 of the mixed d1u2
        g_hat = self.mixed["d1u2"][:, 0] * q12
        forcing = m("d1u1", "u2")[1] + m("u1", "d1u2")[1]
        # three-field means and sups (on the state's own grid, every other
        # row; a rounded sqrt is monotone: the sqrt of the max is the max)
        s, t = self._samples[3:]
        np.add(np.square(u1, out=s), np.square(u2, out=t), out=s)
        sup_u = math.sqrt(s[::2].max())
        s *= u1
        h = pu + 0.5 * s.mean(axis=1)
        sup_w = float(np.abs(w, out=s)[::2].max())
        np.square(w, out=s)
        s *= u1
        zeta = 0.5 * s.mean(axis=1)
        # on the fine grid a vertical mean is the exact n = 0 profile
        u1 -= u1.mean(axis=1, keepdims=True)
        u2 -= u2.mean(axis=1, keepdims=True)
        np.add(np.square(u1, out=s), np.square(u2, out=t), out=s)
        sup_uhat = math.sqrt(s[::2].max())
        s *= u1
        h_hat = pu_osc + 0.5 * s.mean(axis=1)
        return {
            "e": e,
            "h": h,
            "d": d,
            "f": d1e - h,
            "eps": eps,
            "zeta": zeta,
            "delta": delta,
            "phi": d1eps - zeta,
            "e_hat": e_hat,
            "h_hat": h_hat,
            "d_hat": d_hat,
            "f_hat": d1e_hat - h_hat,
            "g_hat": g_hat,
            "q12": q12,
            "forcing": forcing,
            "d1e": d1e,
            "d1eps": d1eps,
            "d1e_hat": d1e_hat,
        }, (sup_u, sup_w, sup_uhat)


def _chi(x1, a, rho, lam):
    return np.exp(-rho * circular_distance(x1, a, lam))


def _localizer(grid, rho, a):
    """`localized_sum` of profile values on `grid`, the weights built once."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    w = _chi(grid.x1, a, rho, grid.lam)
    return lambda values: float((w * values).sum() * grid.dx)


def localized_sum(profile, rho, a):
    """Weighted integral of a profile against exp(-rho dist(x1, a))."""
    return _localizer(profile.grid, rho, a)(profile.values)


def _residual_triple(fine, pr_lo, pr_mid, pr_hi, h):
    """L2-in-x1 residuals (energy, enstrophy, oscillatory) of the three
    local dissipation laws at the middle of three snapshots h apart: the
    centered time difference against the exact spatial terms."""

    def l2(v):
        return float(np.sqrt((v**2).sum() * fine.dx))

    def d1_mid(key):
        return profile_derivative(Profile(fine, pr_mid[key])).values

    dt_e = (pr_hi["e"] - pr_lo["e"]) / (2.0 * h)
    dt_eps = (pr_hi["eps"] - pr_lo["eps"]) / (2.0 * h)
    dt_ehat = (pr_hi["e_hat"] - pr_lo["e_hat"]) / (2.0 * h)
    r_e = l2(dt_e - d1_mid("f") + pr_mid["d"])
    r_eps = l2(dt_eps - d1_mid("phi") + pr_mid["delta"])
    r_osc = l2(dt_ehat - d1_mid("f_hat") + pr_mid["d_hat"] + pr_mid["g_hat"])
    return r_e, r_eps, r_osc


def _ul2_from_profile(dx, q):
    """Uniformly local L2 norm from the profile q = <|u|^2>: the sup over
    window centers of the mass of q on [a-1, a+1], square-rooted.  The
    window length rounds to the nearest grid multiple.  The window needs a
    horizontal period of at least 2; on a narrower box the collector
    records 0."""
    masses = q[_ul2_windows(q.shape[0], max(1, int(round(1.0 / dx))))].sum(axis=1) * dx
    return float(np.sqrt(masses.max()))


@lru_cache(maxsize=8)
def _ul2_windows(n, w):
    """Read-only indices of the n periodic windows of 2w points."""
    idx = (np.arange(n)[:, None] - w + np.arange(2 * w)[None, :]) % n
    idx.setflags(write=False)
    return idx


def fit_decay_rate(series, window, model):
    """Least-squares decay fit on log(value).

    model "exponential" returns the decay rate r in value ~ A exp(-r t);
    model "power" returns the exponent p in value ~ A t^p.  Requires
    finite times and at least 8 samples inside the window, all finite and
    strictly positive.
    """
    if model not in ("power", "exponential"):
        raise ValueError(f"unknown fit model {model!r}")
    t = np.array([s[0] for s in series], dtype=np.float64)
    v = np.array([s[1] for s in series], dtype=np.float64)
    if not np.isfinite(t).all():
        raise ValueError(f"decay fits require finite times, got {t[~np.isfinite(t)][0]:g}")
    t_lo, t_hi = window
    keep = (t >= t_lo) & (t <= t_hi)
    t, v = t[keep], v[keep]
    if t.size < 8:
        raise ValueError(f"need at least 8 samples in the window, got {t.size}")
    bad = np.flatnonzero(~(np.isfinite(v) & (v > 0.0)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"decay fits require finite, strictly positive values, got {v[i]:g} at t={t[i]:g}")
    y = np.log(v)
    x = np.log(t) if model == "power" else t
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    rms = float(np.sqrt((resid**2).mean()))
    rate = float(slope) if model == "power" else float(-slope)
    return RateFit(model=model, exponent_or_rate=rate, window=(t_lo, t_hi), rms_log_residual=rms)


@dataclass
class _Snapshot:
    t: float
    state: object  # a solver.FlowState; diagnostics reads states and never imports the solver
    fine: dict
    sup_u: float
    sup_omega: float
    sup_uhat: float
    ul2_uhat: float
    forcing_sup: float


class TrajectoryCollector:
    """The trajectory of one run: per-time diagnostics of each state handed
    to `add`, from which `finalize` builds the records.

    Residual columns use centered differences, so they are filled for
    interior, equally spaced diagnostic times and left at zero on the ends.
    """

    def __init__(self, options=None):
        self.options = options or DiagnosticsOptions()
        self.snapshots = []
        self._center = None
        self._fields = None

    def add(self, state):
        ff = self._fields
        if ff is None:
            ff = self._fields = _FineFields(state.grid)
        elif state.grid != ff.grid:
            raise ValueError(f"state on {state.grid!r}, but this trajectory is on {ff.grid!r}")
        ff.fill(state)
        pr, (sup_u, sup_w, sup_uhat) = ff.profiles()
        if self._center is None:
            if self.options.center == "argmax_e":
                self._center = float(ff.fine.x1[int(np.argmax(pr["e"]))])
            else:
                self._center = float(self.options.center)
        ul2 = _ul2_from_profile(ff.fine.dx, 2.0 * pr["e_hat"]) if state.grid.lam >= 2.0 else 0.0
        forcing_sup = float(np.abs(pr["forcing"]).max())
        self.snapshots.append(
            _Snapshot(
                t=state.t,
                state=state,
                fine=pr,
                sup_u=sup_u,
                sup_omega=sup_w,
                sup_uhat=sup_uhat,
                ul2_uhat=ul2,
                forcing_sup=forcing_sup,
            )
        )

    @property
    def center(self):
        return self._center

    def finalize(self):
        opts = self.options
        recs = []
        snaps = self.snapshots
        fine = _padded_grid(snaps[0].state.grid) if snaps else None
        loc = _localizer(fine, opts.rho, self._center) if snaps else None
        for i, s in enumerate(snaps):
            e_rho = loc(s.fine["e"])
            d_rho = loc(s.fine["d"])
            ens_rho = loc(s.fine["eps"])
            ensd_rho = loc(s.fine["delta"])
            r_e = r_eps = r_osc = 0.0
            if 0 < i < len(snaps) - 1:
                h1 = snaps[i].t - snaps[i - 1].t
                h2 = snaps[i + 1].t - snaps[i].t
                if abs(h1 - h2) <= 1e-9 * max(h1, 1e-300):
                    r_e, r_eps, r_osc = _residual_triple(fine, snaps[i - 1].fine, s.fine, snaps[i + 1].fine, h1)
            recs.append(
                DiagnosticsRecord(
                    t=s.t,
                    sup_u=s.sup_u,
                    sup_omega=s.sup_omega,
                    sup_uhat=s.sup_uhat,
                    e_rho=e_rho,
                    d_rho=d_rho,
                    ens_rho=ens_rho,
                    ensd_rho=ensd_rho,
                    ul2_uhat=s.ul2_uhat,
                    residual_energy=r_e,
                    residual_enstrophy=r_eps,
                    residual_oscillatory=r_osc,
                )
            )
        return recs

    def series(self, key):
        """(t, value) series for a scalar snapshot attribute."""
        return [(s.t, getattr(s, key)) for s in self.snapshots]


def _snapshot_at(collector, t):
    for s in collector.snapshots:
        if abs(s.t - t) <= 1e-9 * max(1.0, abs(t)):
            return s
    raise ValueError(f"missing diagnostics at requested time t={t}")


def theorem_checks(collector, *, c3, t_grid=(1.0, 4.0, 16.0), tau=0.1, window=None, laminar_window=(0.05, 0.5)):
    """Quantitative report on the theorem-shaped estimates for one run.

    Sections: (a) uniform velocity bound ratio; (b) vorticity-decay shape
    over the fit `window`; (c) localized energy/enstrophy bounds at the
    horizons `t_grid` with rho = 1/sqrt(beta T), beta = c3 (1+M)^2, and c3
    the empirical flux constant of the constants ledger; (d) laminar-regime
    decay rates over `laminar_window` when kappa < 1; (e) the ul2-to-sup
    smoothing ratio at lag `tau`.  The vorticity-decay window defaults to
    [1, 0.1 (lam/2pi)^2], to precede the finite-box exponential crossover;
    for lam < 2pi sqrt(10) it is empty.  A ratio or value of (a), (b), (c)
    or (e) with a zero denominator or no sample in its window is None: not
    measured.
    """
    if not (math.isfinite(c3) and c3 > 0.0):
        raise ValueError(f"C3 must be finite and > 0, got {c3!r}")
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be finite and > 0, got {tau!r}")
    for T in t_grid:
        if not T > 0.0:
            raise ValueError(f"every t-grid time must be > 0, got {T!r}")
    for name, win in (("window", window), ("laminar_window", laminar_window)):
        if win is not None and not (math.isfinite(win[0]) and math.isfinite(win[1]) and win[0] < win[1]):
            raise ValueError(f"{name} must be finite with lo < hi, got {win[0]!r},{win[1]!r}")
    if not collector.snapshots:
        raise ValueError("empty trajectory")
    first = collector.snapshots[0]
    g = first.state.grid
    M = first.state.m0_norm
    e_star0 = float(first.fine["e"].max())
    ru0 = first.sup_u
    report = {
        "provenance": {
            "nx": g.nx,
            "ny": g.ny,
            "lambda": g.lam,
            "M": M,
            "e_star0": e_star0,
            "Ru0": ru0,
            "c3": c3,
        }
    }

    # (a) uniform velocity bound: Ru + M + (1+M) e_*(0) shape
    sup_u_all = max(s.sup_u for s in collector.snapshots)
    denom_a = ru0 + M + (1.0 + M) * e_star0
    report["velocity_bound"] = {
        "sup_u": sup_u_all,
        "denominator": denom_a,
        "ratio": sup_u_all / denom_a if denom_a > 0 else None,
    }

    # (b) vorticity decay shape over the pre-crossover window
    t_lo, t_hi = window or (1.0, 0.1 * (g.lam / (2.0 * np.pi)) ** 2)
    in_win = [s for s in collector.snapshots if t_lo <= s.t <= t_hi]
    denom_b = (1.0 + M) * e_star0
    peak_b = max((s.sup_omega**2 * math.sqrt(s.t) for s in in_win), default=None)
    report["vorticity_decay"] = {
        "window": (t_lo, t_hi),
        "samples": len(in_win),
        "ratio": peak_b / denom_b if peak_b is not None and denom_b > 0 else None,
    }

    # (c) localized energy and enstrophy bounds at the configured horizons
    beta = c3 * (1.0 + M) ** 2
    energy_rows, enstrophy_rows = [], []
    for T in t_grid:
        if T > collector.snapshots[-1].t + 1e-9:
            continue
        rho = 1.0 / math.sqrt(beta * T)
        loc = _localizer(_padded_grid(g), rho, collector.center)
        sT = _snapshot_at(collector, T)
        e_rho_T = loc(sT.fine["e"])
        upto = [s for s in collector.snapshots if s.t <= T + 1e-12]
        d_vals = [loc(s.fine["d"]) for s in upto]
        int_d = float(np.trapezoid(d_vals, [s.t for s in upto]))
        lhs = e_rho_T + 0.5 * int_d
        rhs = 4.0 * e_star0 * math.sqrt(beta * T)
        energy_rows.append({"T": T, "rho": rho, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs if rhs > 0 else None})

        ens_T = loc(sT.fine["eps"])
        late = [s for s in upto if s.t >= T / 2.0 - 1e-12]
        dd_vals = [loc(s.fine["delta"]) for s in late]
        int_dd = float(np.trapezoid(dd_vals, [s.t for s in late]))
        scale = (1.0 + M) * e_star0
        enstrophy_rows.append(
            {
                "T": T,
                "rho": rho,
                "lhs": ens_T + 0.5 * int_dd,
                "value": (ens_T + 0.5 * int_dd) * math.sqrt(T) / scale if scale > 0 else None,
                "ens_value": ens_T * math.sqrt(T) / scale if scale > 0 else None,
            }
        )
    report["localized_energy"] = energy_rows
    report["localized_enstrophy"] = enstrophy_rows

    # (d) laminar regime: exponential rates and the mean-flow forcing decay
    kappa = M / (4.0 * np.pi**2)
    laminar = {"kappa": kappa}
    if kappa < 1.0 and M > 0.0:
        laminar["rate_floor"] = 2.0 * np.pi**2 * (1.0 - kappa)
        for key, label in (("ul2_uhat", "ul2"), ("sup_uhat", "uhat"), ("forcing_sup", "forcing")):
            series = collector.series(key)
            peak = max((v for _, v in series), default=0.0)
            if peak < 1e-250:
                laminar[f"{label}_rate"] = "exact_zero"
                continue
            try:
                fit = fit_decay_rate(series, laminar_window, "exponential")
            except ValueError as exc:
                laminar[f"{label}_rate"] = f"unavailable: {exc}"
                continue
            laminar[f"{label}_rate"] = fit.exponent_or_rate
            laminar[f"{label}_rms"] = fit.rms_log_residual
        if isinstance(laminar.get("ul2_rate"), float):
            laminar["passes_floor"] = laminar["ul2_rate"] >= laminar["rate_floor"]
    report["laminar"] = laminar

    # (e) smoothing: sup |u_hat(t+tau)| against ul2(u_hat(t))
    pairs = []
    for s in collector.snapshots:
        target = s.t + tau
        try:
            s2 = _snapshot_at(collector, target)
        except ValueError:
            continue
        if s.ul2_uhat > 1e-13:
            pairs.append(s2.sup_uhat / s.ul2_uhat)
    report["smoothing"] = {
        "tau": tau,
        "pairs": len(pairs),
        "max_ratio": max(pairs, default=None),
    }
    return report
