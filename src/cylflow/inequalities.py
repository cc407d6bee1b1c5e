"""Empirical verification of the functional inequalities.

Samples band-limited test fields to estimate the constants in the
cylinder Nash inequality (and its psi form), checks the Poincare-Wirtinger
ratio for vertically mean-zero fields, and extracts the flux-bound
constants from simulation trajectories.  The true constants are infima
over all of H^1 and can only be bounded from below by sampling; reports
carry the grid / period / seed provenance for that reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .spectral import (
    ScalarField,
    _as_physical_data,
    _as_spectral_data,
    _band_mask,
    _forward,
    _inverse,
    _parseval_sq,
    circular_distance,
)

__all__ = [
    "InequalityReport",
    "NashCheck",
    "nash_check",
    "poincare_check",
    "flux_bound_constants",
    "sample_test_field",
    "nash_suite",
    "FIELD_FAMILIES",
]

FIELD_FAMILIES = ("broad", "narrow", "vertical", "generic")


@dataclass
class InequalityReport:
    name: str
    samples: int
    max_ratio: float
    quantiles: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)


@dataclass
class NashCheck:
    lhs: float  # ||f||_2
    rhs_branch1: float  # ||grad f||^(1/3) ||f||_1^(2/3)
    rhs_branch2: float  # ||grad f||^(1/2) ||f||_1^(1/2)
    ratio: float  # lhs / max(branches)
    # the psi-form constant: the largest C with ||grad f||_2 >= C ||f||_2 min(x, x^2),
    # x = ||f||_2 / ||f||_1
    psi_c: float


def nash_check(f):
    """Both branches of the cylinder Nash inequality and the psi-form
    constant for one sample field, from one evaluation of its norms:
    ||f||_1 and ||f||_2 by quadrature of the physical samples, ||grad f||_2
    by Parseval."""
    g = f.grid
    phys = _as_physical_data(f).ravel()
    l1 = float(np.abs(phys).sum() * g.cell_area)
    l2 = math.sqrt(float(phys @ phys) * g.cell_area)
    if l2 == 0.0:
        raise ValueError("the Nash checks require a nonzero field")
    gl2 = math.sqrt(g.lam * _parseval_sq(g, _as_spectral_data(f), (1, 2)))
    b1 = gl2 ** (1.0 / 3.0) * l1 ** (2.0 / 3.0)
    b2 = math.sqrt(gl2) * math.sqrt(l1)
    x = l2 / l1
    return NashCheck(
        lhs=l2, rhs_branch1=b1, rhs_branch2=b2, ratio=l2 / max(b1, b2), psi_c=gl2 / (l2 * min(x, x * x))
    )


def poincare_check(f, tol=1e-10):
    """Poincare-Wirtinger ratio int f^2 / ((1/4pi^2) int |d2 f|^2), the
    denominator by Parseval.

    Requires zero vertical average for every x1; at most 1 for band-limited
    fields, with equality exactly on the span of the |n| = 1 modes.
    """
    g = f.grid
    phys = _as_physical_data(f)
    sup = np.abs(phys).max()
    if sup == 0.0:
        raise ValueError("poincare_check requires a nonzero field")
    if np.abs(phys.mean(axis=1)).max() > tol * sup:
        raise ValueError("poincare_check requires zero vertical average per x1")
    num = float((phys**2).sum() * g.cell_area)
    den = g.lam * _parseval_sq(g, _as_spectral_data(f), (2,)) / (4.0 * np.pi**2)
    return num / den


def _quantiles(vals):
    if len(vals) == 0:
        return {}
    arr = np.asarray(vals)
    return {q: float(np.quantile(arr, q)) for q in (0.5, 0.9, 0.99)}


# Profile points whose flux-ratio denominator is at most this are skipped.
_FLUX_THRESHOLD = 1e-14


def flux_bound_constants(collector):
    """Empirical flux constants from pointwise (x1, t) profile ratios.

    Returns reports keyed "C3" (|f|^2 / ((1+M)^2 e d)), "C4"
    (|phi|^2 / ((1+M)^2 eps delta)), "C8" (|f_hat|^2 / (kappa_t^2 d_hat))
    and "g_ratio" (|g_hat| / (kappa_t d_hat), bounded by 1).  Points where
    the guarded denominator falls below _FLUX_THRESHOLD are skipped and
    counted.
    """
    if not collector.snapshots:
        raise ValueError("empty trajectory")
    M = collector.snapshots[0].state.m0_norm
    g = collector.snapshots[0].state.grid
    parts = {"C3": [], "C4": [], "C8": [], "g_ratio": []}
    skipped = {k: 0 for k in parts}
    for s in collector.snapshots:
        pr = s.fine
        kappa_t = s.sup_omega / (4.0 * np.pi**2)
        den_e = (1.0 + M) ** 2 * pr["e"] * pr["d"]
        keep = den_e > _FLUX_THRESHOLD
        skipped["C3"] += int((~keep).sum())
        parts["C3"].append(pr["f"][keep] ** 2 / den_e[keep])
        den_ens = (1.0 + M) ** 2 * pr["eps"] * pr["delta"]
        keep = den_ens > _FLUX_THRESHOLD
        skipped["C4"] += int((~keep).sum())
        parts["C4"].append(pr["phi"][keep] ** 2 / den_ens[keep])
        if kappa_t > 0.0:
            den_hat = kappa_t**2 * pr["d_hat"]
            keep = pr["d_hat"] > _FLUX_THRESHOLD
            skipped["C8"] += int((~keep).sum())
            parts["C8"].append(pr["f_hat"][keep] ** 2 / den_hat[keep])
            parts["g_ratio"].append(np.abs(pr["g_hat"][keep]) / (kappa_t * pr["d_hat"][keep]))
    cfg = {"nx": g.nx, "ny": g.ny, "lambda": g.lam, "M": M}
    out = {}
    for name, p in parts.items():
        v = np.concatenate(p) if p else np.empty(0)
        out[name] = InequalityReport(
            name=name,
            samples=v.size,
            max_ratio=float(v.max()) if v.size else 0.0,
            quantiles=_quantiles(v),
            config=dict(cfg, skipped=skipped[name]),
        )
    return out


def _periodized_bump_profile(x, center, width, period):
    d = circular_distance(x, center, period)
    out = np.exp(-(d**2) / (2.0 * width**2))
    # one pair of images is enough once width << period
    for p in (-period, period):
        out += np.exp(-((d + p) ** 2) / (2.0 * width**2))
    return out


@lru_cache(maxsize=8)
def _generic_band(grid):
    """Read-only mask of the generic family's band."""
    band = max(2, min(grid.nx, grid.ny) // 6)
    mask = _band_mask(grid, band, band)
    mask.setflags(write=False)
    return mask


def sample_test_field(grid, rng, family):
    """One random test field from the named family.

    broad: wide horizontal bumps (gradient-poor, exercises the n = 1
    branch); narrow: localized 2d bumps (gradient-rich, n = 2 branch);
    vertical: pure vertical Fourier modes; generic: band-limited noise.
    All samples have zero box mean so both sides of the inequality are
    finite and nonzero.
    """
    x1 = grid.x1[:, None]
    x2 = grid.x2[None, :]
    if family == "broad":
        w = rng.uniform(1.5, grid.lam / 4.0)
        c = rng.uniform(0.0, grid.lam)
        vals = _periodized_bump_profile(x1, c, w, grid.lam) * np.ones_like(x2)
    elif family == "narrow":
        w = rng.uniform(0.05, 0.25)
        c1 = rng.uniform(0.0, grid.lam)
        c2 = rng.uniform(0.0, 1.0)
        d1 = circular_distance(x1, c1, grid.lam)
        d2 = circular_distance(x2, c2, 1.0)
        vals = np.exp(-(d1**2 + d2**2) / (2.0 * w**2))
    elif family == "vertical":
        prof = np.zeros(grid.ny)
        for n in range(1, 4):
            prof += rng.normal() * np.cos(2.0 * np.pi * n * grid.x2 + rng.uniform(0, 2 * np.pi))
        vals = np.broadcast_to(prof, grid.shape())
    elif family == "generic":
        spec = _forward(rng.standard_normal((grid.nx, grid.ny)))
        vals = _inverse(grid, spec * _generic_band(grid))
    else:
        raise ValueError(f"unknown field family {family!r}")
    vals = vals - vals.mean()
    scale = rng.uniform(0.5, 2.0)
    return ScalarField(grid, scale * vals)


def nash_suite(grid, n_samples, seed, weights=None):
    """Sample the Nash / psi-Nash ratios over the family mixture.

    Returns (per-sample list, report) where each entry is a dict with the
    family, both branch values, the Nash ratio and the psi-admissible C.
    """
    rng = np.random.default_rng(seed)
    if weights is None:
        weights = {f: 1.0 for f in FIELD_FAMILIES}
    fams = list(weights)
    p = np.asarray([weights[f] for f in fams], dtype=np.float64)
    # rng.choice(len(fams), p=p / p.sum())'s own draw, without its per-call checks
    cdf = np.cumsum(p / p.sum())
    cdf /= cdf[-1]
    rows = []
    for _ in range(n_samples):
        fam = fams[cdf.searchsorted(rng.random(), side="right")]
        f = sample_test_field(grid, rng, fam)
        chk = nash_check(f)
        rows.append(
            {
                "family": fam,
                "lhs": chk.lhs,
                "rhs_branch1": chk.rhs_branch1,
                "rhs_branch2": chk.rhs_branch2,
                "ratio": chk.ratio,
                "psi_c": chk.psi_c,
            }
        )
    ratios = [r["ratio"] for r in rows]
    report = InequalityReport(
        name="nash",
        samples=len(rows),
        max_ratio=float(max(ratios)),
        quantiles=_quantiles(ratios),
        config={"nx": grid.nx, "ny": grid.ny, "lambda": grid.lam, "seed": seed},
    )
    return rows, report
