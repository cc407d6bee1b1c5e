"""Flat key=value run configuration and the constants ledger.

The config format is deliberately flat (one key per line) so experiment
sweeps diff cleanly.  Unknown and duplicate keys are errors.  Empirical
constants estimated by verification runs are kept in a single JSON ledger
and consumed by the theorem-level report.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .diagnostics import DiagnosticsOptions
from .io import check_output_dir, check_output_file, flat_text, parse_flat, write_json
from .solver import InitialDataSpec, _requested_times
from .spectral import make_grid

__all__ = [
    "RunConfig",
    "EstimatedConstant",
    "parse_config",
    "serialize_config",
    "load_constants",
    "update_constant",
    "get_constant",
]


@dataclass
class RunConfig:
    nx: int = 64
    ny: int = 64
    lam: float = 16.0
    t_end: float = 1.0
    dt_acc: float = 1e-3
    diag_step: float = 0.05
    diag_times: str = ""  # explicit comma list; overrides diag_step when set
    kind: str = "random_bandlimited"
    seed: int = 0
    target_ru: float = 0.0
    target_romega: float = 1.0
    band: int = 4
    rho: float = 1.0
    center: str = "argmax_e"
    out_dir: str = "out"
    snapshots: bool = True

    def validate(self):
        """Check every value by building the grid, the initial-data spec and
        the diagnostics options, and that out_dir can be made; returns
        self."""
        grid = self.grid()
        for name in ("t_end", "dt_acc", "diag_step"):
            value = getattr(self, name)
            if not (0 < value < math.inf):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        self.initial_data_spec().check_band(grid)
        self.diagnostics_options()
        sched = self.diag_schedule()
        if not all(math.isfinite(t) for t in sched):
            raise ValueError(f"diagnostic times must be finite, got {self.diag_times}")
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise ValueError("diagnostic schedule must be strictly increasing")
        _requested_times(sched, 0.0, self.t_end)
        check_output_dir(self.out_dir)
        return self

    def grid(self):
        return make_grid(self.nx, self.ny, self.lam)

    def initial_data_spec(self):
        return InitialDataSpec(
            kind=self.kind, seed=self.seed, target_ru=self.target_ru, target_romega=self.target_romega, band=self.band
        )

    def diagnostics_options(self):
        """The options, with a numeric center as a float."""
        center = self.center
        with contextlib.suppress(ValueError):
            center = float(center)
        return DiagnosticsOptions(rho=self.rho, center=center)

    def diag_schedule(self):
        """Diagnostic times: the explicit list, or multiples of diag_step."""
        if self.diag_times.strip():
            try:
                return [float(s) for s in self.diag_times.split(",") if s.strip()]
            except ValueError:
                raise ValueError(f"diag_times must be a comma list of numbers, got {self.diag_times!r}") from None
        n = int(round(self.t_end / self.diag_step))
        ts = [i * self.diag_step for i in range(n + 1)]
        if ts[-1] < self.t_end - 1e-12:
            ts.append(self.t_end)
        ts[-1] = self.t_end
        return ts


_BOOL_STRINGS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}
_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number"}

# config file key -> dataclass field (the file spells the period "lambda")
_KEY_TO_FIELD = {("lambda" if f.name == "lam" else f.name): f.name for f in fields(RunConfig)}


def parse_config(text):
    """Parse a flat key=value document into a validated RunConfig.

    Unknown keys, duplicate keys and malformed values are errors; missing
    keys fall back to documented defaults.
    """
    kwargs = {}
    for key, (lineno, raw) in parse_flat(text).items():
        if key not in _KEY_TO_FIELD:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        name = _KEY_TO_FIELD[key]
        typ = type(getattr(RunConfig, name))
        try:
            kwargs[name] = _BOOL_STRINGS[raw.lower()] if typ is bool else typ(raw)
        except (KeyError, ValueError):
            raise ValueError(f"line {lineno}: key {key!r} expects {_TYPE_NAMES[typ]}, got {raw!r}") from None
    return RunConfig(**kwargs).validate()


def serialize_config(cfg):
    """Emit the flat key=value form; parse(serialize(cfg)) equals cfg."""
    return flat_text((key, getattr(cfg, name)) for key, name in _KEY_TO_FIELD.items())


@dataclass
class EstimatedConstant:
    """One empirically estimated constant with its provenance."""

    name: str
    value: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError(f"estimated constant {self.name} is not finite")


def load_constants(path):
    """Read the constants ledger; returns {} when the file does not exist.

    A ledger that is not a JSON object of {"value": finite number, ...}
    entries, or a path where it could never be written
    (`io.check_output_file`), raises a ValueError that names the path and
    the entry.
    """
    check_output_file(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        return {}
    except json.JSONDecodeError as exc:
        raise ValueError(f"constants ledger {path} is not JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"constants ledger {path} is not a JSON object")
    entries = {}
    for name, entry in raw.items():
        value = entry.get("value") if isinstance(entry, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"constants ledger {path}: entry {name!r} has no finite number 'value': {entry!r}")
        entries[name] = EstimatedConstant(name=name, value=value, provenance=entry.get("provenance", {}))
    return entries


def update_constant(path, est):
    """Insert or overwrite one ledger entry (read-modify-write).

    The new ledger is written to a temporary file in the same directory and
    renamed over the old one, so a failed update leaves the old ledger intact.
    """
    entries = load_constants(path)
    entries[est.name] = est
    payload = {name: {"value": e.value, "provenance": e.provenance} for name, e in entries.items()}
    write_json(path, payload, sort_keys=True)


def get_constant(path, name):
    """Fetch one constant value; raises KeyError with the ledger path."""
    entries = load_constants(path)
    if name not in entries:
        raise KeyError(f"constant {name!r} not found in ledger {path}")
    return entries[name].value
