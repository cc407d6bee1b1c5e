import ast
import importlib
import inspect
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cylflow
from cylflow.spectral import (
    Profile,
    ScalarField,
    _band_block,
    _band_scatter,
    _forward,
    _forward_block,
    _inverse,
    _inverse_block,
    _parseval_sq,
    _parseval_weights,
    _x1_inverse,
    _x2_inverse,
    dealias,
    integral,
    lp_norm,
    make_grid,
    profile_derivative,
    spectral_derivative,
    to_physical,
    to_spectral,
    vertical_average,
)
from conftest import random_band_limited, vertical_average_quadrature


class TestMakeGrid:
    def test_wavenumber_steps(self):
        g = make_grid(64, 64, 16.0)
        assert g.k1[1] == pytest.approx(2 * np.pi / 16.0, rel=1e-15)
        assert g.k2[1] == pytest.approx(2 * np.pi, rel=1e-15)
        assert g.k1[0] == 0.0 and g.k2[0] == 0.0
        assert g.dx == 16.0 / 64 and g.dy == 1.0 / 64

    def test_minimal_grid(self):
        g = make_grid(8, 8, 1.0)
        assert g.nx == g.ny == 8

    @pytest.mark.parametrize(
        "nx,ny,lam",
        [(7, 8, 1.0), (8, 7, 1.0), (6, 8, 1.0), (8, 8, 0.0), (8, 8, -2.0), (8, 8, np.inf), (8, 8, np.nan)],
    )
    def test_rejects_bad_sizes(self, nx, ny, lam):
        with pytest.raises(ValueError):
            make_grid(nx, ny, lam)

    def test_band_is_alias_free(self):
        """Three band modes sum to less than n, so no sum of two band modes
        folds onto a band mode; where 3 does not divide n the band is the
        largest |j| <= n/3."""
        for n in range(8, 201, 2):
            band = make_grid(n, n, 1.0).band
            assert band[0] == band[1] and 3 * band[0] < n <= 3 * (band[0] + 1), n
            if n % 3:
                assert band[0] == n // 3, n


class TestTransforms:
    def test_constant_field_single_coefficient(self, grid64):
        f = ScalarField(grid64, np.full((64, 64), 3.25))
        spec = to_spectral(f)
        assert spec.data[0, 0] == pytest.approx(3.25, rel=1e-14)
        rest = np.abs(spec.data).sum() - abs(spec.data[0, 0])
        assert rest < 1e-12

    def test_pure_mode(self, grid64):
        # the half spectrum holds n = 0..32; the (0, -1) partner is implied
        f = ScalarField.from_function(grid64, lambda x1, x2: np.cos(2 * np.pi * x2))
        spec = to_spectral(f).data
        assert spec.shape == (64, 33)
        nz = np.argwhere(np.abs(spec) > 1e-12)
        assert {(int(i), int(j)) for i, j in nz} == {(0, 1)}

    def test_round_trip(self, grid64):
        f = random_band_limited(grid64, seed=11, band=10)
        back = to_physical(to_spectral(f))
        scale = np.abs(f.data).max()
        assert np.abs(back.data - f.data).max() <= 1e-12 * scale

    def test_wrong_repr_rejected(self, grid64):
        f = ScalarField.zeros(grid64)
        with pytest.raises(ValueError):
            to_physical(f)
        with pytest.raises(ValueError):
            to_spectral(to_spectral(f))

    def test_hermitian_symmetry(self, grid64):
        # columns n = 0 and n = ny/2 are their own mirror, so they carry both +-j
        spec = to_spectral(random_band_limited(grid64, seed=3)).data[:, [0, 32]]
        conj = np.conj(spec[(-np.arange(64)) % 64])
        assert np.abs(spec - conj).max() < 1e-15

    def test_full_layout_rejected(self, grid64):
        with pytest.raises(ValueError, match=r"\(64, 33\)"):
            ScalarField(grid64, np.zeros((64, 64), dtype=complex), "spectral")


class TestDerivative:
    def test_vertical_sine(self, grid64):
        f = ScalarField.from_function(grid64, lambda x1, x2: np.sin(2 * np.pi * x2))
        d = spectral_derivative(f, axis=2)
        exact = 2 * np.pi * np.cos(2 * np.pi * grid64.x2)[None, :]
        assert np.abs(d.data - exact).max() < 1e-12 * 2 * np.pi

    def test_horizontal_second(self, grid64):
        f = ScalarField.from_function(grid64, lambda x1, x2: np.cos(2 * np.pi * x1 / 16.0))
        d = spectral_derivative(f, axis=1, order=2)
        exact = -((2 * np.pi / 16.0) ** 2) * np.cos(2 * np.pi * grid64.x1 / 16.0)[:, None]
        assert np.abs(d.data - exact).max() < 1e-12

    def test_constant_derivative_zero(self, grid64):
        f = ScalarField(grid64, np.full((64, 64), 5.0))
        for axis in (1, 2):
            for order in (1, 2, 3):
                assert np.abs(spectral_derivative(f, axis=axis, order=order).data).max() < 1e-12

    def test_bad_axis_and_order(self, grid64):
        f = ScalarField.zeros(grid64)
        with pytest.raises(ValueError):
            spectral_derivative(f, axis=3)
        with pytest.raises(ValueError):
            spectral_derivative(f, axis=1, order=0)


class TestDealias:
    def test_retained_band_unchanged(self, grid64):
        rng = np.random.default_rng(5)
        spec = rng.standard_normal((64, 33)) + 1j * rng.standard_normal((64, 33))
        spec *= grid64.dealias_mask  # exactly supported in the retained band
        f = ScalarField(grid64, spec, "spectral")
        assert np.array_equal(dealias(f).data, f.data)

    def test_nyquist_mode_zeroed(self, grid64):
        spec = np.zeros((64, 33), dtype=complex)
        spec[32, 0] = 1.0  # horizontal Nyquist
        f = ScalarField(grid64, spec, "spectral")
        assert np.abs(dealias(f).data).max() == 0.0

    def test_idempotent(self, grid64):
        f = to_spectral(random_band_limited(grid64, seed=6, band=30))
        once = dealias(f)
        twice = dealias(once)
        assert np.array_equal(once.data, twice.data)

    def test_exact_band(self, grid64):
        f = to_spectral(random_band_limited(grid64, seed=7, band=31))
        out = dealias(f).data
        inside = (np.abs(grid64.j1)[:, None] < 64 / 3) & (np.arange(33)[None, :] < 64 / 3)
        assert np.array_equal(out[inside], f.data[inside])
        assert np.abs(out[~inside]).max() == 0.0

    def test_requires_spectral(self, grid64):
        with pytest.raises(ValueError):
            dealias(ScalarField.zeros(grid64))


class TestVerticalAverage:
    def test_mean_zero_mode(self, grid64):
        f = ScalarField.from_function(grid64, lambda x1, x2: np.cos(2 * np.pi * x2))
        assert np.abs(vertical_average(f).values).max() < 1e-14

    def test_identity_on_x2_constants(self, grid64):
        f = ScalarField.from_function(grid64, lambda x1, x2: np.sin(2 * np.pi * x1 / 16.0) * np.ones_like(x2))
        prof = vertical_average(f)
        assert np.abs(prof.values - np.sin(2 * np.pi * grid64.x1 / 16.0)).max() < 1e-14

    def test_mixed_field_quadrature_oracle(self, grid64):
        fn = lambda x1, x2: np.tanh(np.cos(2 * np.pi * x1 / 16.0)) + np.cos(2 * np.pi * x2) * np.sin(
            4 * np.pi * x1 / 16.0
        )
        f = ScalarField.from_function(grid64, fn)
        oracle = vertical_average_quadrature(fn, grid64.x1)
        assert np.abs(vertical_average(f).values - oracle).max() < 1e-12

    def test_spectral_input_matches_physical(self, grid64):
        f = random_band_limited(grid64, seed=9)
        a = vertical_average(f).values
        b = vertical_average(to_spectral(f)).values
        assert np.abs(a - b).max() < 1e-13


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_parseval(seed):
    g = make_grid(32, 32, 8.0)
    f = random_band_limited(g, seed=seed, band=9)
    quad = integral(ScalarField(g, f.data**2))
    parseval = g.lam * _parseval_sq(g, to_spectral(f).data)
    assert quad == pytest.approx(parseval, rel=1e-12, abs=1e-300)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_derivative_commutes_with_vertical_average(seed):
    g = make_grid(32, 32, 8.0)
    f = random_band_limited(g, seed=seed, band=9)
    a = vertical_average(spectral_derivative(f, axis=1)).values
    b = profile_derivative(vertical_average(f)).values
    scale = max(np.abs(a).max(), 1e-30)
    assert np.abs(a - b).max() < 1e-12 * scale


def test_lp_norms(grid32):
    f = ScalarField.from_function(grid32, lambda x1, x2: np.sin(2 * np.pi * x2) * np.ones_like(x1))
    assert lp_norm(f, np.inf) == pytest.approx(1.0, abs=1e-3)
    # int |sin|^2 over the 8x1 box = 4
    assert lp_norm(f, 2) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        lp_norm(f, -1)


def test_profile_shape_guard(grid32):
    with pytest.raises(ValueError):
        Profile(grid32, np.zeros(7))


class TestInversePadded:
    """The padded sampler of the diagnostics, `_x1_inverse` on 2nx rows and
    then `_x2_inverse`: x1 doubled, x2 left at ny, whether 3 divides ny
    (16x12) or not (16x16)."""

    @staticmethod
    def interpolant(spec, lam, shape, band):
        """Explicit sum over the band modes |j| <= band[0], |n| <= band[1]
        at the fine points; a mode n < 0 is the conjugate of the stored
        mode (-j, -n)."""
        x1 = np.arange(shape[0])[:, None] * (lam / shape[0])
        x2 = np.arange(shape[1])[None, :] / shape[1]
        want = np.zeros(shape)
        for j in range(-band[0], band[0] + 1):
            for n in range(-band[1], band[1] + 1):
                phase = 2 * np.pi * (j * x1 / lam + n * x2)
                coef = spec[j, n] if n >= 0 else np.conj(spec[-j, -n])
                want += (coef * np.exp(1j * phase)).real
        return want

    @staticmethod
    def sample(g, spec):
        return _x2_inverse(g, _x1_inverse(g, spec, 2 * g.nx))

    def check_interpolant(self, shape):
        g = make_grid(*shape, 3.0)
        rng = np.random.default_rng(1)
        specs = _forward(rng.standard_normal((2,) + shape)) * g.dealias_mask
        fine = self.sample(g, specs)
        assert fine.shape == (2, 32, shape[1])
        for spec, got in zip(specs, fine):
            want = self.interpolant(spec, g.lam, (32, shape[1]), g.band)
            assert np.abs(got - want).max() < 1e-13 * np.abs(want).max()

    def check_reads_only_the_band(self, shape):
        """A rough field's samples are those of its band, its input is
        left as it is, and every other row holds the band field's own
        grid values."""
        g = make_grid(*shape, 3.0)
        rough = _forward(np.random.default_rng(4).standard_normal((3,) + shape))
        assert np.abs(rough[..., ~g.dealias_mask]).min() > 0.0
        kept = rough.copy()
        band = rough * g.dealias_mask
        fine = self.sample(g, rough)
        assert rough.tobytes() == kept.tobytes()
        assert fine.dtype == np.float64 and fine.shape == (3, 32, shape[1])
        assert fine.tobytes() == self.sample(g, band).tobytes()
        assert np.abs(fine[:, ::2, :] - _inverse(g, band)).max() < 1e-13

    def test_matches_trigonometric_interpolant(self):
        self.check_interpolant((16, 12))

    def test_rough_field_is_real_and_interpolates(self):
        self.check_reads_only_the_band((16, 12))

    def test_x2_unpadded_when_3_does_not_divide_ny(self):
        self.check_interpolant((16, 16))
        self.check_reads_only_the_band((16, 16))


@pytest.mark.parametrize("shape", [(16, 16), (12, 12)])
def test_x2_mean_weights_match_padded_samples(shape):
    """Parseval in x2 on mixed coefficients gives the vertical mean of a
    product of two band fields sampled by `_x2_inverse` of `_x1_inverse`."""
    g = make_grid(*shape, 3.0)
    half = _forward(np.random.default_rng(6).standard_normal((2,) + shape)) * g.dealias_mask
    fa, fb = _x1_inverse(g, half, 2 * g.nx)
    got = (fa.view(np.float64) * fb.view(np.float64)) @ _parseval_weights(g)[0]
    want = np.prod(_x2_inverse(g, _x1_inverse(g, half, 2 * g.nx)), axis=0).mean(axis=1)
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-13 * scale
    # the mixed coefficients are zero beyond the band's last column
    assert not fa[:, g.band[1] + 1 :].any() and np.abs(fa[:, g.band[1]]).min() > 0.0


@pytest.mark.parametrize("shape", [(48, 48), (128, 32), (12, 12), (16, 24)])
def test_parseval_weights_keep_the_bits_of_the_recipes_they_replace(shape):
    """Each table has the bits of the recipe that built it before there was
    one table: the column weights 1, 2, ..., 2, 1 (each repeated for re and
    im), the Nash and Poincare tables from the Nyquist-zeroed wavenumbers,
    and the diagnostics' x2-derivative row."""
    g = make_grid(*shape, 5.0)
    cols = np.full(g.ny // 2 + 1, 2.0)
    cols[[0, -1]] = 1.0
    cols = np.repeat(cols, 2)
    k1sq = g.k1_odd[:, None] ** 2
    k2sq = g.k2_odd[None, : g.ny // 2 + 1] ** 2
    recipes = {
        (): np.broadcast_to(cols, (g.nx, cols.size)),
        (1,): np.repeat(np.broadcast_to(k1sq, g.shape("spectral")), 2, axis=1) * cols,
        (2,): np.repeat(np.broadcast_to(k2sq, g.shape("spectral")), 2, axis=1) * cols,
        (1, 2): np.repeat(k1sq + k2sq, 2, axis=1) * cols,
    }
    for axes, want in recipes.items():
        got = _parseval_weights(g, axes)
        assert not got.flags.writeable
        assert got.tobytes() == np.ascontiguousarray(want).tobytes(), axes
    assert _parseval_weights(g, (2,))[0].tobytes() == (cols * np.repeat(k2sq[0], 2)).tobytes()


@pytest.mark.parametrize("axes", [(), (1,), (2,), (1, 2)])
def test_parseval_sq_is_the_full_spectrum_sum(axes):
    """On white noise, whose Nyquist row and column are not zero, the half
    spectrum's weighted sum equals the full fft2 sum of |F|^2 times the sum
    over `axes` of |i k|^2 (1 for no axes), and lam times it equals the
    quadrature of `spectral_derivative`."""
    g = make_grid(16, 12, 4.0)
    f = ScalarField(g, np.random.default_rng(4).standard_normal(g.shape()))
    full = np.fft.fft2(f.data, norm="forward")
    symbols = {1: g.k1_odd[:, None], 2: g.k2_odd[None, :]}
    ksq = sum((symbols[a] ** 2 for a in axes), np.zeros((1, 1))) if axes else 1.0
    got = _parseval_sq(g, to_spectral(f).data, axes)
    assert got == pytest.approx((np.abs(full) ** 2 * ksq).sum(), rel=1e-12)
    quad = sum(lp_norm(spectral_derivative(f, a), 2) ** 2 for a in axes) if axes else lp_norm(f, 2) ** 2
    assert g.lam * got == pytest.approx(quad, rel=1e-12)


def test_only_spectral_reads_the_nyquist_zeroed_wavenumbers():
    """`grid.k1_odd` and `grid.k2_odd` are read in spectral alone; every other
    module takes the derivative symbol from `_derivative_multiplier` and its
    Parseval weights from `_parseval_weights`."""
    readers = []
    for path in sorted(pathlib.Path(cylflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(isinstance(node, ast.Attribute) and node.attr in ("k1_odd", "k2_odd") for node in ast.walk(tree)):
            readers.append(path.name)
    assert readers == ["spectral.py"]


@pytest.mark.parametrize("shape", [(64, 64), (48, 30), (40, 50)])
def test_banded_pair_has_the_bits_of_the_full_pair(shape):
    """The band block of any coefficients is that of their dealiased band,
    and scattering it back gives the band.  On a block the block inverse
    has the bits of `_inverse` of the band; the block forward has the bits
    of `_forward` on the block.  Neither changes its input, and the scratch
    they share may hold anything beforehand."""
    g = make_grid(*shape, 8.0)
    r, nb = g.band[0], g.band[1] + 1
    rng = np.random.default_rng(8)
    rough = _forward(rng.standard_normal((2,) + shape))
    assert np.abs(rough[..., ~g.dealias_mask]).min() > 0.0
    band = np.where(g.dealias_mask, rough, 0.0)
    kept = rough.copy()
    block = _band_block(g, rough)
    assert block.shape == (2, 2 * r + 1, nb)
    assert rough.tobytes() == kept.tobytes()
    assert block.tobytes() == _band_block(g, band).tobytes()
    assert _band_scatter(g, block, np.zeros_like(band)).tobytes() == band.tobytes()
    half = np.full((2,) + g.shape("spectral"), np.nan + 1j * np.nan)
    got = _inverse_block(g, block, half, np.empty((2,) + shape))
    assert got.tobytes() == _inverse(g, band).tobytes()
    assert block.tobytes() == _band_block(g, band).tobytes()
    phys = rng.standard_normal((2,) + shape)
    kept = phys.copy()
    half[...] = np.nan
    got = _forward_block(g, phys, half, np.empty_like(block))
    assert got.tobytes() == _band_block(g, _forward(phys)).tobytes()
    assert phys.tobytes() == kept.tobytes()


def test_only_spectral_module_calls_numpy_fft():
    """Transforms and their normalization live in cylflow.spectral alone,
    spectral itself uses no complex 2-D transform, and it calls every
    transform as an attribute of np.fft.

    The direct kernel quadrature in biotsavart is exempt: it is the
    independent reference the Biot-Savart tests compare against.
    """
    spectral_src = (pathlib.Path(cylflow.__file__).parent / "spectral.py").read_text(encoding="utf-8")
    spectral_tree = ast.parse(spectral_src)
    complex_2d = {"fft2", "ifft2", "fftn", "ifftn"}
    assert not [
        node.lineno
        for node in ast.walk(spectral_tree)
        if isinstance(node, ast.Attribute) and node.attr in complex_2d
    ]
    # spectral calls each transform as np.fft.<name>(...), looked up at the
    # call: a transform imported or bound by name would escape whatever
    # wraps the np.fft attributes, such as the benchmark's tracer
    callees = {id(node.func) for node in ast.walk(spectral_tree) if isinstance(node, ast.Call)}
    parent = {id(child): node for node in ast.walk(spectral_tree) for child in ast.iter_child_nodes(node)}
    bound = []
    for node in ast.walk(spectral_tree):
        if isinstance(node, ast.ImportFrom) and (
            (node.module or "").startswith("numpy.fft") or any(a.name == "fft" for a in node.names)
        ):
            bound.append(node.lineno)
        elif isinstance(node, ast.Import) and any(a.name.startswith("numpy.fft") for a in node.names):
            bound.append(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "fft"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            user = parent[id(node)]
            if not (isinstance(user, ast.Attribute) and id(user) in callees):
                bound.append(node.lineno)
    assert bound == []
    exempt = {("biotsavart.py", "velocity_by_kernel_quadrature")}
    offenders = []
    for path in sorted(pathlib.Path(cylflow.__file__).parent.glob("*.py")):
        if path.name == "spectral.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skipped = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) in exempt:
                skipped.update(id(n) for n in ast.walk(node))
        for node in ast.walk(tree):
            if id(node) in skipped:
                continue
            uses_fft = (
                isinstance(node, ast.Attribute)
                and node.attr == "fft"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            )
            if isinstance(node, ast.ImportFrom):
                uses_fft = node.module == "numpy.fft" or (
                    node.module == "numpy" and any(a.name == "fft" for a in node.names)
                )
            elif isinstance(node, ast.Import):
                uses_fft = any(a.name == "numpy.fft" for a in node.names)
            if uses_fft:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


@pytest.mark.parametrize(
    "module", ["spectral", "solver", "biotsavart", "diagnostics", "inequalities", "advdiff", "io", "config", "cli"]
)
def test_all_lists_the_public_names(module):
    """`__all__` names only what exists, and every public function or class
    the module defines."""
    mod = importlib.import_module(f"cylflow.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    defined = [
        name
        for name, obj in vars(mod).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
    ]
    assert [name for name in defined if name not in mod.__all__] == []
