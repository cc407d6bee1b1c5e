"""CSV diagnostics and raw binary snapshots.

Diagnostics rows use a fixed column order and 17 significant digits, so
float64 values round-trip exactly and identical runs produce bitwise
identical files.  A snapshot is one spectral field: the nx*(ny/2+1)
complex coefficients of its rfft2 half spectrum, row-major with x1
outermost, as interleaved little-endian (re, im) float64 pairs.  Each
snapshot has a plain-text key=value sidecar at <path>.meta.
"""

from __future__ import annotations

import numpy as np

from .diagnostics import CSV_COLUMNS, DiagnosticsRecord
from .solver import FlowState
from .spectral import SPECTRAL, ScalarField, SpectralGrid

__all__ = [
    "write_csv_records",
    "read_csv_records",
    "write_field",
    "read_field",
    "write_state",
    "read_state",
]


def _fmt(x):
    return format(float(x), ".17g")


def write_csv_records(records, path):
    """Write diagnostics records in the fixed schema (header always)."""
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(",".join(_fmt(v) for v in r.csv_values()))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv_records(path):
    """Read a diagnostics CSV; raises on the first mismatched column name,
    and names the file, line and column of a value that is not a number."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(i, ln) for i, ln in enumerate(fh.read().splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError(f"no header row in {path}")
    header = lines[0][1].split(",")
    for i, (got, want) in enumerate(zip(header, CSV_COLUMNS)):
        if got != want:
            raise ValueError(f"column {i} is {got!r}, expected {want!r} in {path}")
    if len(header) != len(CSV_COLUMNS):
        raise ValueError(f"expected {len(CSV_COLUMNS)} columns, got {len(header)} in {path}")
    records = []
    for line_no, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"row with {len(cells)} values, expected {len(CSV_COLUMNS)} in {path}")
        values = []
        for col, s in zip(CSV_COLUMNS, cells):
            try:
                values.append(float(s))
            except ValueError:
                raise ValueError(f"{path}, line {line_no}, column {col}: not a number: {s!r}") from None
        records.append(DiagnosticsRecord(*values))
    return records


def _write_sidecar(path, meta):
    with open(path + ".meta", "w", encoding="utf-8", newline="\n") as fh:
        for k, v in meta.items():
            fh.write(f"{k}={_fmt(v) if isinstance(v, float) else v}\n")


def _read_sidecar(path):
    meta = {}
    with open(path + ".meta", "r", encoding="utf-8") as fh:
        for ln in fh.read().splitlines():
            if ln.strip():
                k, _, v = ln.partition("=")
                meta[k.strip()] = v.strip()
    return meta


def write_field(f, path, time=0.0, extra=None):
    """Raw snapshot of one spectral field plus its sidecar."""
    if f.repr != SPECTRAL:
        raise ValueError(f"a snapshot holds a spectral field, got a {f.repr} one")
    with open(path, "wb") as fh:
        fh.write(np.ascontiguousarray(f.data, dtype="<c16").tobytes())
    meta = {
        "nx": f.grid.nx,
        "ny": f.grid.ny,
        "lambda": float(f.grid.lam),
        "repr": SPECTRAL,
        "time": float(time),
    }
    if extra:
        meta.update(extra)
    _write_sidecar(path, meta)


_REQUIRED_META = ("nx", "ny", "lambda", "repr", "time")


def read_field(path):
    """Read a field snapshot; returns (spectral ScalarField, meta dict).

    A sidecar without the required keys or with a repr other than
    spectral, or a byte count that does not match the grid, raises
    ValueError naming the file; a missing file raises OSError.
    """
    meta = _read_sidecar(path)
    missing = [k for k in _REQUIRED_META if k not in meta]
    if missing:
        raise ValueError(f"snapshot sidecar {path}.meta lacks {', '.join(missing)}")
    if meta["repr"] != SPECTRAL:
        raise ValueError(f"snapshot sidecar {path}.meta: repr must be {SPECTRAL}, got {meta['repr']!r}")
    try:
        grid = SpectralGrid(int(meta["nx"]), int(meta["ny"]), float(meta["lambda"]))
    except ValueError as exc:
        raise ValueError(f"snapshot sidecar {path}.meta: {exc}") from exc
    with open(path, "rb") as fh:
        raw = fh.read()
    shape = grid.shape(SPECTRAL)
    expected = shape[0] * shape[1] * 16
    if len(raw) != expected:
        raise ValueError(f"snapshot {path} holds {len(raw)} bytes, expected {expected}")
    data = np.frombuffer(raw, dtype="<c16").reshape(shape).copy()
    return ScalarField(grid, data, SPECTRAL), meta


def write_state(state, path):
    """Snapshot a FlowState (spectral vorticity plus conserved scalars)."""
    write_field(
        state.omega,
        path,
        time=state.t,
        extra={
            "c": _fmt(state.c),
            "m_mean": _fmt(state.m_mean),
            "m0_norm": _fmt(state.m0_norm),
        },
    )


def _finite_meta(path, meta, key):
    """The value of a sidecar key, which must be a finite number."""
    text = meta.get(key)
    try:
        value = float(text)
    except (TypeError, ValueError):
        value = np.nan
    if not np.isfinite(value):
        raise ValueError(f"snapshot sidecar {path}.meta: {key} must be a finite number, got {text!r}")
    return value


def read_state(path):
    """Inverse of write_state; bitwise round trip.  A bad sidecar value
    raises ValueError naming the file and the key, and a non-finite
    coefficient one naming the file."""
    fld, meta = read_field(path)
    if not np.isfinite(fld.data.view(np.float64)).all():
        raise ValueError(f"snapshot {path} holds a non-finite coefficient")
    c, m_mean, t, m0_norm = (_finite_meta(path, meta, k) for k in ("c", "m_mean", "time", "m0_norm"))
    try:
        return FlowState(grid=fld.grid, omega=fld, c=c, m_mean=m_mean, t=t, m0_norm=m0_norm)
    except ValueError as exc:
        raise ValueError(f"snapshot sidecar {path}.meta: {exc}") from exc
