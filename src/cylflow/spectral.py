"""Spectral grids, fields and transforms on the periodic cylinder.

The domain is a horizontally truncated cylinder: periodic with period
``lam`` in x1 (the long, "horizontal" direction) and period 1 in x2 (the
"vertical" circle).  Fields live either on the physical grid (real64,
shape (nx, ny), x1 along axis 0) or as normalized Fourier coefficients
(complex128), so that

    f(x) = sum_{j,n} F[j, n] * exp(i*(k1[j]*x1 + k2[n]*x2)),

with k1[j] = 2*pi*j/lam and k2[n] = 2*pi*n.  Fields are real, so their
coefficients are Hermitian, F[-j, -n] = conj(F[j, n]), and the columns
n = 0..ny/2 determine them: spectral data are the normalized rfft2 half
spectrum, shape (nx, ny//2+1), and so are the 2-D wavenumber tables.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "PHYSICAL",
    "SPECTRAL",
    "SpectralGrid",
    "ScalarField",
    "VelocityField",
    "Profile",
    "make_grid",
    "to_spectral",
    "to_physical",
    "spectral_derivative",
    "dealias",
    "vertical_average",
    "integral",
    "lp_norm",
    "profile_derivative",
    "circular_distance",
]

PHYSICAL = "physical"
SPECTRAL = "spectral"


class SpectralGrid:
    """Uniform grid on the truncated cylinder with precomputed wavenumbers."""

    def __init__(self, nx, ny, lam):
        if nx < 8 or ny < 8:
            raise ValueError(f"grid sizes must be >= 8, got nx={nx}, ny={ny}")
        if nx % 2 or ny % 2:
            raise ValueError(f"grid sizes must be even, got nx={nx}, ny={ny}")
        if not (0 < lam < np.inf):
            raise ValueError(f"horizontal period lambda must be positive and finite, got {lam}")
        self.nx = int(nx)
        self.ny = int(ny)
        self.lam = float(lam)
        # grids key the lru caches of every table, looked up at each step
        self._hash = hash((self.nx, self.ny, self.lam))
        self.dx = self.lam / self.nx
        self.dy = 1.0 / self.ny
        self.cell_area = self.dx * self.dy
        self.x1 = self.dx * np.arange(self.nx)
        self.x2 = self.dy * np.arange(self.ny)
        # integer mode indices in fft ordering, and the wavenumber tables
        self.j1 = np.fft.fftfreq(self.nx, d=1.0 / self.nx).astype(np.int64)
        self.j2 = np.fft.fftfreq(self.ny, d=1.0 / self.ny).astype(np.int64)
        self.k1 = 2.0 * np.pi * self.j1 / self.lam
        self.k2 = 2.0 * np.pi * self.j2.astype(np.float64)
        # the rfft2 half spectrum holds all rows j and the columns n = 0..ny/2
        self._ncols = self.ny // 2 + 1
        # derivative tables with the Nyquist mode zeroed (odd derivatives only)
        self.k1_odd = self.k1.copy()
        self.k1_odd[self.nx // 2] = 0.0
        self.k2_odd = self.k2.copy()
        self.k2_odd[self.ny // 2] = 0.0
        self.ksq = (self.k1**2)[:, None] + (self.k2[: self._ncols] ** 2)[None, :]
        self.inv_ksq = np.zeros_like(self.ksq)
        self.inv_ksq[self.ksq > 0.0] = 1.0 / self.ksq[self.ksq > 0.0]
        # the dealias band |j| < nx/3, |n| < ny/3: three band modes sum to
        # less than a grid size, so no product of two aliases onto the band
        self.band = ((self.nx - 1) // 3, (self.ny - 1) // 3)
        self.dealias_mask = _band_mask(self, *self.band)
        self.block_shape = (2 * self.band[0] + 1, self.band[1] + 1)

    def __repr__(self):
        return f"SpectralGrid(nx={self.nx}, ny={self.ny}, lam={self.lam})"

    def __eq__(self, other):
        return other is self or (
            isinstance(other, SpectralGrid)
            and self.nx == other.nx
            and self.ny == other.ny
            and self.lam == other.lam
        )

    def __hash__(self):
        return self._hash

    def meshgrid(self):
        """Physical coordinates as broadcastable (nx,1), (1,ny) arrays."""
        return self.x1[:, None], self.x2[None, :]

    def shape(self, repr=PHYSICAL):
        """Array shape of a field: the grid, or the rfft2 half spectrum."""
        return (self.nx, self.ny) if repr == PHYSICAL else (self.nx, self._ncols)


def _band_mask(grid, band1, band2):
    """Half-spectrum mask of the modes |j| <= band1, |n| <= band2."""
    return (np.abs(grid.j1) <= band1)[:, None] & (np.abs(grid.j2[: grid._ncols]) <= band2)[None, :]


def make_grid(nx, ny, lam):
    """Build a SpectralGrid; rejects odd or undersized grids and lam outside (0, inf)."""
    return SpectralGrid(nx, ny, lam)


class ScalarField:
    """Scalar field on a grid, in physical or spectral representation."""

    def __init__(self, grid, data, repr=PHYSICAL):
        if repr not in (PHYSICAL, SPECTRAL):
            raise ValueError(f"unknown representation {repr!r}")
        data = np.asarray(data)
        if data.shape != grid.shape(repr):
            raise ValueError(f"{repr} data shape {data.shape} does not match {grid.shape(repr)} of {grid!r}")
        if repr == PHYSICAL:
            data = np.ascontiguousarray(data, dtype=np.float64)
        else:
            data = np.ascontiguousarray(data, dtype=np.complex128)
        self.grid = grid
        self.repr = repr
        self.data = data

    def __repr__(self):
        return f"ScalarField({self.grid!r}, repr={self.repr!r})"

    def copy(self):
        return ScalarField(self.grid, self.data.copy(), self.repr)

    @classmethod
    def zeros(cls, grid, repr=PHYSICAL):
        dtype = np.float64 if repr == PHYSICAL else np.complex128
        return cls(grid, np.zeros(grid.shape(repr), dtype=dtype), repr)

    @classmethod
    def from_function(cls, grid, fn):
        """Sample fn(x1, x2) on the physical grid (fn must broadcast)."""
        x1, x2 = grid.meshgrid()
        return cls(grid, np.broadcast_to(fn(x1, x2), grid.shape()).astype(np.float64))


class VelocityField:
    """Pair of scalar fields (u1, u2) on a common grid and representation."""

    def __init__(self, u1, u2):
        if u1.grid != u2.grid:
            raise ValueError("velocity components must share a grid")
        if u1.repr != u2.repr:
            raise ValueError("velocity components must share a representation")
        self.u1 = u1
        self.u2 = u2

    @property
    def grid(self):
        return self.u1.grid

    @property
    def repr(self):
        return self.u1.repr


class Profile:
    """Function of x1 alone (vertical averages and their derived profiles)."""

    def __init__(self, grid, values):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.shape != (grid.nx,):
            raise ValueError(f"profile length {values.shape} does not match nx={grid.nx}")
        self.grid = grid
        self.values = values

    def __repr__(self):
        return f"Profile({self.grid!r})"


# Every transform of the package goes through the helpers below; spectral
# data are normalized coefficients (fft / number of samples), and every
# transform is called as an attribute of np.fft.  The 2-D pair maps a real
# field to and from its half spectrum (nx, ny//2+1).


def _forward(phys, out=None):
    """Half-spectrum coefficients (into `out`) of real physical data; leading axes are a batch."""
    return np.fft.rfft2(phys, norm="forward", out=out)


def _inverse(grid, spec):
    """Physical data of half-spectrum coefficients; leading axes are a batch."""
    return np.fft.irfft2(spec, s=(grid.nx, grid.ny), norm="forward")


# The band block holds the dealiased band of half-spectrum data
# contiguously: the rows of modes 0..r, then those of -r..-1, each on the
# columns n = 0..nb-1, for (r, nb-1) = grid.band; its shape is
# grid.block_shape.  The Navier-Stokes step runs on it, through the block
# pair below, whose stages are numpy's irfft2 and rfft2 stages: on band
# data they have the bits of the 2-D pair.  The diagnostics sample through
# the same x1 stage on twice the rows.


def _band_copy(grid, src, out):
    """Copy rows 0..r and -r..-1 of the band, on the columns n < nb, from
    `src` into `out` (nothing else of it) and return `out`.  Either is a
    half spectrum, a band block or `_x1_inverse`'s padded rows, and its
    row count places the rows -r..-1; leading axes are a batch."""
    r, nb = grid.band[0], grid.band[1] + 1
    out[..., : r + 1, :nb] = src[..., : r + 1, :nb]
    out[..., out.shape[-2] - r :, :nb] = src[..., src.shape[-2] - r :, :nb]
    return out


def _band_block(grid, spec):
    """The band block (..., 2r+1, nb), a new array, of half-spectrum data
    `spec`; leading axes are a batch."""
    return _band_copy(grid, spec, np.empty(spec.shape[:-2] + grid.block_shape, dtype=spec.dtype))


def _x1_inverse(grid, spec, rows, out=None):
    """Mixed coefficients (..., rows, ny//2+1) of the dealiased band of
    half-spectrum coefficients or of a band block: x1 sampled at `rows`
    points by zero padding (`rows` >= nx), x2 still spectral, on the
    columns n < nb.  The band stops short of row nx/2, so a real field's
    samples are real and, for rows = 2nx, every other row holds its own
    grid values.  Leading axes are a batch; `spec` is left as it is.
    `out`, if given, is an earlier output or has zeros on the columns
    n >= nb that a caller reads."""
    r, nb = grid.band[0], grid.band[1] + 1
    if out is None:
        out = np.zeros(spec.shape[:-2] + (rows, grid._ncols), dtype=np.complex128)
    else:
        out[..., r + 1 : rows - r, :nb] = 0.0
    band = _band_copy(grid, spec, out)[..., :nb]
    np.fft.ifft(band, axis=-2, norm="forward", out=band)
    return out


def _x2_inverse(grid, mixed, out=None):
    """Samples along x2 of mixed coefficients from `_x1_inverse`, into
    `out`; columns beyond those of `mixed` count as zero."""
    return np.fft.irfft(mixed, n=grid.ny, axis=-1, norm="forward", out=out)


def _inverse_block(grid, block, half, out):
    """Physical data, into `out` (..., nx, ny), of a band block: the bits
    of `_inverse` of the half spectrum that is the block on the band and
    zero elsewhere.  `half` (..., nx, ny//2+1), complex, is scratch."""
    nb = grid.band[1] + 1
    _x1_inverse(grid, block, grid.nx, out=half)
    return _x2_inverse(grid, half[..., :nb], out=out)


def _forward_block(grid, phys, half, out):
    """The band block, into `out`, of the half-spectrum coefficients of
    real physical data, with the bits of `_forward`'s.  `half` (..., nx,
    ny//2+1), complex, is scratch; leading axes are a batch."""
    band = np.fft.rfft(phys, axis=-1, norm="forward", out=half)[..., : grid.band[1] + 1]
    np.fft.fft(band, axis=-2, norm="forward", out=band)
    return _band_copy(grid, band, out)


def _profile_forward(values):
    return np.fft.fft(values) / values.shape[0]


def _profile_inverse(spec):
    return np.fft.ifft(spec * spec.shape[0]).real


@lru_cache(maxsize=8)
def _padded_grid(grid):
    """The grid that `_x2_inverse` of `_x1_inverse(grid, spec, 2 * grid.nx)`
    samples on: x1 doubled.

    The diagnostics take vertical means of products of at most three
    dealiased fields over x2 samples; such a product reaches
    |n| <= 3*grid.band[1] < ny, and a mean over ny samples is exact below
    |n| = ny, so x2 needs no padding.  The profiles' x1 derivatives need
    the x1 padding.
    """
    return SpectralGrid(2 * grid.nx, grid.ny, grid.lam)


@lru_cache(maxsize=32)
def _derivative_multiplier(grid, axis, order=1):
    """(i*k_axis)**order, broadcastable over the half spectrum and
    read-only; the Nyquist mode is zeroed for odd orders."""
    if axis == 1:
        k = grid.k1_odd if order % 2 else grid.k1
        mult = ((1j * k) ** order)[:, None]
    else:
        k = grid.k2_odd if order % 2 else grid.k2
        mult = ((1j * k[: grid._ncols]) ** order)[None, :]
    mult.setflags(write=False)
    return mult


@lru_cache(maxsize=32)
def _parseval_weights(grid, axes=()):
    """Read-only weights W, shape (nx, 2*(ny//2+1)), of Parseval's sum over
    a half spectrum F viewed as float64: with v = F.view(float64),
    np.vdot(v * v, W) sums, over the full coefficient array that F stands
    for, |F|^2 times the sum over `axes` of k_axis^2 (1 for no axes), the
    symbols of `_derivative_multiplier` with their Nyquist modes zeroed.
    Times lam, that is ||f||_2^2, or the sum of ||d_axis f||_2^2.

    Columns 0 and ny/2 count once and columns 1..ny/2-1 twice, for their
    conjugates; each weight is repeated for the real and imaginary parts.
    The rows are equal unless 1 is in `axes`, so row 0 also weighs mixed
    coefficients F, G from `_x1_inverse`: (F.view(float64) *
    G.view(float64)) @ row is the vertical mean <f g>(x1), exact for any
    input.
    """
    cols = np.full(grid._ncols, 2.0)
    cols[[0, -1]] = 1.0
    ksq = np.full(grid.shape(SPECTRAL), 0.0 if axes else 1.0)
    for axis in axes:
        ksq += _derivative_multiplier(grid, axis).imag ** 2
    w = np.repeat(ksq, 2, axis=1) * np.repeat(cols, 2)
    w.setflags(write=False)
    return w


def _parseval_sq(grid, spec, axes=()):
    """The weighted sum of `_parseval_weights(grid, axes)` over the half
    spectrum `spec`: for no axes the squared L2 norm of the full
    coefficient array, which is 1/lam times the field's squared L2 norm."""
    v = spec.view(np.float64)
    return float(np.vdot(v * v, _parseval_weights(grid, axes)))


def to_spectral(f):
    """Forward transform; rejects fields already in spectral representation."""
    if f.repr != PHYSICAL:
        raise ValueError("to_spectral expects a physical-representation field")
    return ScalarField(f.grid, _forward(f.data), SPECTRAL)


def to_physical(f):
    """Inverse transform; rejects fields already in physical representation."""
    if f.repr != SPECTRAL:
        raise ValueError("to_physical expects a spectral-representation field")
    return ScalarField(f.grid, _inverse(f.grid, f.data), PHYSICAL)


def _as_spectral_data(f):
    if f.repr == SPECTRAL:
        return f.data
    return _forward(f.data)


def _as_physical_data(f):
    if f.repr == PHYSICAL:
        return f.data
    return _inverse(f.grid, f.data)


def spectral_derivative(f, axis, order=1):
    """Differentiate by multiplying with (i*k_axis)**order in spectral space.

    The Nyquist mode is zeroed for odd orders.  Returns a field in the same
    representation as the input.
    """
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    if order < 1 or order != int(order):
        raise ValueError(f"order must be a positive integer, got {order}")
    g = f.grid
    spec = _as_spectral_data(f) * _derivative_multiplier(g, axis, order)
    if f.repr == PHYSICAL:
        return ScalarField(g, _inverse(g, spec), PHYSICAL)
    return ScalarField(g, spec, SPECTRAL)


def dealias(f):
    """Keep the alias-free band `grid.band`, |j| < nx/3 and |n| < ny/3,
    and zero every mode outside it."""
    if f.repr != SPECTRAL:
        raise ValueError("dealias expects a spectral-representation field")
    return ScalarField(f.grid, f.data * f.grid.dealias_mask, SPECTRAL)


def vertical_average(f):
    """Average over the vertical circle, <f>(x1) = int_T f(x1, x2) dx2.

    Computed from the n = 0 spectral slice (exact for band-limited fields);
    in physical representation this is the plain mean over x2 samples.
    """
    g = f.grid
    if f.repr == PHYSICAL:
        return Profile(g, f.data.mean(axis=1))
    return Profile(g, _profile_inverse(f.data[:, 0]))


def integral(f):
    """Quadrature of the field over the box (exact for the trig interpolant)."""
    return _as_physical_data(f).sum() * f.grid.cell_area


def lp_norm(f, p):
    """L^p norm by grid quadrature; p = inf gives the grid max of |f|."""
    phys = _as_physical_data(f)
    if p == np.inf or p == "inf":
        return float(np.abs(phys).max())
    if p <= 0:
        raise ValueError(f"p must be positive or inf, got {p}")
    return float((np.abs(phys) ** p).sum() * f.grid.cell_area) ** (1.0 / p)


def profile_derivative(p, order=1):
    """Spectral x1-derivative of a profile (Nyquist zeroed for odd orders)."""
    mult = _derivative_multiplier(p.grid, 1, order)[:, 0]
    return Profile(p.grid, _profile_inverse(_profile_forward(p.values) * mult))


def circular_distance(x, a, period):
    """Distance on a circle of the given period."""
    d = np.abs(np.asarray(x, dtype=np.float64) - a) % period
    return np.minimum(d, period - d)
