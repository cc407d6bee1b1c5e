"""The symmetry group of the vorticity equation on the cylinder, as a contract.

The equation commutes with the translations in x1 and x2 and with the two
reflections: x1 -> -x1 maps (omega, c) to (-omega∘R, -c) and the
localization centre a to -a (mod lam), and x2 -> -x2 maps (omega, m_mean)
to (-omega∘S, -m_mean).  So the run from the image of a state, mapped back,
is the run from the state: its final field, every diagnostics record and
every `theorem_checks` number agree to roundoff.  The test needs no oracle
of the step, so it holds across changes of the step itself.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cylflow.diagnostics import TrajectoryCollector, theorem_checks
from cylflow.solver import InitialDataSpec, make_initial_data, run
from cylflow.spectral import ScalarField, dealias, make_grid, to_physical, to_spectral

SYMMETRIES = ("x1_shift", "x2_shift", "x1_reflection", "x2_reflection")
LAM, T_END, DIAG_TIMES, DT_ACC = 8.0, 0.05, (0.0, 0.025, 0.05), 2e-3
# Worst relative errors of the four maps on 32x32, 32x16 and 16x32 grids
# (R_omega 8, R_u 10, c 0.3): 1.1e-15 on the final field, 5.2e-14 on a record
# (residual_energy) and 2.4e-15 on a report number.  The bounds leave a
# margin of about 10x.
FIELD_TOL = 1e-14
RECORD_TOL = 1e-12


def act(symmetry, shift, grid, w, c, m_mean, a):
    """The image of a physical vorticity w, the constants c and m_mean and
    the localization centre a; a shift moves by `shift` grid cells.  Each
    map's inverse is the same map with -shift."""
    if symmetry == "x1_shift":
        return np.roll(w, shift, axis=0), c, m_mean, (a + shift * grid.dx) % grid.lam
    if symmetry == "x2_shift":
        return np.roll(w, shift, axis=1), c, m_mean, a
    if symmetry == "x1_reflection":  # grid row i goes to row -i
        return -np.roll(w[::-1], 1, axis=0), -c, m_mean, -a % grid.lam
    return -np.roll(w[:, ::-1], 1, axis=1), c, -m_mean, a


def trajectory(state, center):
    collector = TrajectoryCollector(center=center)
    final = run(state, T_END, DIAG_TIMES, dt_acc=DT_ACC, collector=collector)
    report = theorem_checks(
        collector, c3=1.0, t_grid=(0.025, 0.05), tau=0.025, window=(0.01, 0.05), laminar_window=(0.0, 0.05)
    )
    return final, [r.csv_values() for r in collector.finalize()], report


def leaves(obj, path=""):
    """(path, value) of every leaf of a report."""
    if isinstance(obj, dict):
        return [leaf for k, v in obj.items() for leaf in leaves(v, f"{path}.{k}")]
    if isinstance(obj, (list, tuple)):
        return [leaf for i, v in enumerate(obj) for leaf in leaves(v, f"{path}[{i}]")]
    return [(path, obj)]


def rel_err(x, y):
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    size=st.sampled_from([(32, 32), (32, 16), (16, 32)]),
    band=st.integers(1, 4),
    seed=st.integers(0, 1000),
    shift=st.integers(1, 15),
    symmetry=st.sampled_from(SYMMETRIES),
)
def test_a_mapped_run_is_the_mapped_run(size, band, seed, shift, symmetry):
    grid = make_grid(*size, LAM)
    spec = InitialDataSpec("random_bandlimited", seed=seed, target_ru=10.0, target_romega=8.0, band=band)
    # a nonzero c, so that the x1 reflection's c -> -c is exercised
    base = replace(make_initial_data(spec, grid), c=0.3)
    a = 5 * grid.dx
    w, c, m_mean, image_a = act(symmetry, shift, grid, to_physical(base.omega).data, base.c, base.m_mean, a)
    image = replace(base, omega=dealias(to_spectral(ScalarField(grid, w))), c=c, m_mean=m_mean)

    final, records, report = trajectory(base, a)
    image_final, image_records, image_report = trajectory(image, image_a)

    back, c, m_mean, back_a = act(
        symmetry, -shift, grid, to_physical(image_final.omega).data, image_final.c, image_final.m_mean, image_a
    )
    assert (c, m_mean, image_final.t) == (final.c, final.m_mean, final.t)
    assert abs(back_a - a) <= 1e-12 * LAM
    ref = to_physical(final.omega).data
    assert np.abs(back - ref).max() <= FIELD_TOL * np.abs(ref).max()

    assert len(image_records) == len(records) == len(DIAG_TIMES)
    for got, want in zip(image_records, records):
        assert max(map(rel_err, got, want)) <= RECORD_TOL, (got, want)

    got, want = leaves(image_report), leaves(report)
    assert [p for p, _ in got] == [p for p, _ in want]
    for (path, x), (_, y) in zip(got, want):
        if isinstance(x, float):
            assert rel_err(x, y) <= RECORD_TOL, (path, x, y)
        else:
            assert x == y, (path, x, y)
