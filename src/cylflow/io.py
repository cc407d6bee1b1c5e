"""The package's one write path, and its readers.

`write_file` writes every output whole to a temporary file beside it and
renames that over the target, so a failed write leaves the old file (or
none), never a half-written one.  One encoder per format:

- CSV (`write_csv`, `csv_row`): diagnostics.csv, lplq.csv, envelope.csv,
  nash_samples.csv and the kernel table.  `_fmt` encodes a cell: a str as
  it is, a bool as true/false, an int in decimal, and anything else as a
  float with 17 significant digits, so float64 values round-trip exactly
  and identical runs produce bitwise identical files.
- JSON (`write_json`, indent 2): run.json, summary.json, report.json and
  the constants ledger.
- Flat key = value text (`flat_text`, `parse_flat`): config.txt and the
  snapshot sidecars; a value is encoded as a CSV cell.
- Snapshots: one spectral field, the nx*(ny/2+1) complex coefficients of
  its rfft2 half spectrum, row-major with x1 outermost, as interleaved
  little-endian (re, im) float64 pairs, with a flat sidecar at <path>.meta.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

from .diagnostics import CSV_COLUMNS, DiagnosticsRecord
from .solver import FlowState
from .spectral import SPECTRAL, ScalarField, SpectralGrid

__all__ = [
    "check_output_dir",
    "check_output_file",
    "write_file",
    "csv_row",
    "write_csv",
    "write_json",
    "flat_text",
    "parse_flat",
    "write_csv_records",
    "read_csv_records",
    "write_field",
    "read_field",
    "write_state",
    "read_state",
]


def write_file(path, data):
    """Write text (as UTF-8) or bytes to a temporary file beside `path`, then
    rename it over `path`; on any failure the temporary file goes and `path`
    is left as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def check_output_dir(path):
    """`path`, if a directory can be made there (it is not empty, and the nearest of it
    and its parents that exists is a directory); else a ValueError naming it."""
    if not path:
        raise ValueError("output directory '' is an empty path")
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ValueError(f"output directory {path!r}: {probe} is not a directory")
    return path


def check_output_file(path):
    """`path`, if a file can be written there (it is not empty or a directory, and its
    directory exists, an empty dirname meaning the current one); else a ValueError naming it."""
    folder = os.path.dirname(path) or "."
    if not path:
        raise ValueError("output file '' is an empty path")
    if os.path.isdir(path):
        raise ValueError(f"output file {path!r} is a directory")
    if not os.path.isdir(folder):
        raise ValueError(f"output file {path!r}: directory {folder} does not exist")
    return path


def _fmt(v):
    """One CSV cell or flat value."""
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v) if isinstance(v, int) else format(float(v), ".17g")


def csv_row(cells):
    """One CSV line, newline included."""
    return ",".join(map(_fmt, cells)) + "\n"


def write_csv(path, header, rows):
    """The header line, then one line per row of cells."""
    write_file(path, "".join(map(csv_row, (header, *rows))))


def write_json(path, obj, *, sort_keys=False):
    """Indent 2 and a trailing newline; a value JSON does not know is written as a float."""
    write_file(path, json.dumps(obj, indent=2, sort_keys=sort_keys, default=float) + "\n")


def flat_text(items, sep=" = "):
    """The flat document of (key, value) pairs, one `key<sep>value` line each."""
    return "".join(f"{k}{sep}{_fmt(v)}\n" for k, v in items)


def parse_flat(text, source=""):
    """{key: (line number, value)} of a flat key = value document, in line
    order; `#` starts a comment.  A line without `=` or a repeated key raises
    a ValueError naming `source` (when given) and the line."""
    where = f"{source}, " if source else ""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{where}line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in values:
            raise ValueError(f"{where}line {lineno}: duplicate key {key!r}")
        values[key] = (lineno, val.strip())
    return values


def write_csv_records(records, path):
    """Write diagnostics records in the fixed schema (header always)."""
    write_csv(path, CSV_COLUMNS, (r.csv_values() for r in records))


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


def write_field(f, path, time=0.0, extra=None):
    """Raw snapshot of one spectral field plus its sidecar."""
    if f.repr != SPECTRAL:
        raise ValueError(f"a snapshot holds a spectral field, got a {f.repr} one")
    write_file(path, np.ascontiguousarray(f.data, dtype="<c16").tobytes())
    meta = {"nx": f.grid.nx, "ny": f.grid.ny, "lambda": float(f.grid.lam), "repr": SPECTRAL, "time": float(time)}
    write_file(path + ".meta", flat_text({**meta, **(extra or {})}.items(), sep="="))


_REQUIRED_META = ("nx", "ny", "lambda", "repr", "time")


def read_field(path):
    """Read a field snapshot; returns (spectral ScalarField, meta dict).

    A sidecar line without `=` or a repeated key, a sidecar without the
    required keys or with a repr other than spectral, or a byte count that
    does not match the grid, raises ValueError naming the file; a missing
    file raises OSError.
    """
    with open(path + ".meta", "r", encoding="utf-8") as fh:
        meta = {k: v for k, (_, v) in parse_flat(fh.read(), f"snapshot sidecar {path}.meta").items()}
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
    extra = {"c": state.c, "m_mean": state.m_mean, "m0_norm": state.m0_norm}
    write_field(state.omega, path, time=state.t, extra=extra)


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
