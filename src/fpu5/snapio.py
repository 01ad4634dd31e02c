"""Snapshot files, run manifests, and key-value run configuration parsing.

Snapshot format: a `# t=<t> N=<N> L=<L>` header line followed by N rows of
`x<TAB>u`, both printed with 17 significant digits so reading a file back
reproduces the doubles bit for bit.
"""
from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .experiments import IC_PARAMS, InitialCondition, SimulationConfig, Snapshot
from .params import EquationKind, ModelParams
from .spectral import Grid

FLOAT_FMT = "%.16e"


@dataclass
class RunManifest:
    config: dict
    version: str
    wall_time: float
    files: list[str] = field(default_factory=list)
    checks: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {"config": self.config, "version": self.version,
             "wall_time_seconds": self.wall_time, "files": self.files,
             "checks": self.checks}, indent=2, sort_keys=True)


def write_snapshot(path, snapshot: Snapshot, grid: Grid) -> None:
    _check_times([path], [snapshot])
    _write_snapshot(path, snapshot, grid, _body_format(grid))


def _body_format(grid: Grid) -> str:
    """The rows of a snapshot file with each x already printed, leaving one
    %-slot per u value; printing x dominates the cost of a file, and it is
    the same for every file of a series."""
    return "".join(f"{FLOAT_FMT % x}\t{FLOAT_FMT}\n" for x in grid.x.tolist())


def _check_times(paths, snapshots) -> None:
    for path, snapshot in zip(paths, snapshots):
        if not math.isfinite(snapshot.t):
            raise DomainError(f"{path}: snapshot time must be finite, not "
                              f"t = {snapshot.t}")


def _write_snapshot(path, snapshot: Snapshot, grid: Grid, body: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"# t={FLOAT_FMT % snapshot.t} N={grid.n} L={FLOAT_FMT % grid.length}\n")
        fh.write(body % tuple(np.asarray(snapshot.u).tolist()))


def read_snapshot(path):
    """Return (Snapshot, (n, length)) parsed from a snapshot file.

    Only the u column is parsed; x is implied by N and L.  The header needs
    N >= 1, a finite t and a finite L > 0.  Exactly N data rows must follow
    it, each with a finite u; blank lines after them are allowed.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# "):
            raise ConfigError(f"{path}: missing snapshot header")
        rows = fh.read().splitlines()
    try:
        fields = dict(item.split("=", 1) for item in header[2:].split())
        t = float(fields["t"])
        n = int(fields["N"])
        length = float(fields["L"])
    except (KeyError, ValueError):
        raise ConfigError(f"{path}: bad snapshot header {header!r}") from None
    if not (n >= 1 and math.isfinite(t) and math.isfinite(length)
            and length > 0):
        raise ConfigError(f"{path}: bad snapshot header {header!r}: need N >= 1, "
                          "a finite t and a finite L > 0")
    if len(rows) < n:
        raise ConfigError(f"{path}: truncated after {len(rows)} rows")
    for i, row in enumerate(rows[n:], start=n):
        if row.strip():
            raise ConfigError(f"{path}: extra row {i + 1} (line {i + 2}), "
                              f"header gives N={n}: {row!r}")
    us = np.empty(n)
    try:
        for i, row in enumerate(rows[:n]):
            _, su = row.split("\t")
            us[i] = float(su)
    except ValueError:
        raise ConfigError(
            f"{path}: malformed row {i + 1} (line {i + 2}): {row!r}") from None
    bad = np.flatnonzero(~np.isfinite(us))
    if bad.size:
        i = int(bad[0])
        raise ConfigError(f"{path}: non-finite u in row {i + 1} (line {i + 2}): "
                          f"{rows[i]!r}")
    return Snapshot(t=t, u=us), (n, length)


def snapshot_paths(snapshots, path_prefix) -> list[str]:
    """The files ``write_snapshots`` writes for a series, checked before any
    is made: DomainError for an empty series or a non-finite time."""
    if not snapshots:
        raise DomainError("no snapshots to write")
    paths = [f"{path_prefix}_{i:04d}.dat" for i in range(len(snapshots))]
    _check_times(paths, snapshots)
    return paths


def write_snapshots(snapshots, grid: Grid, path_prefix) -> RunManifest:
    """Write one file per snapshot; the returned manifest lists them.  A
    series that ``snapshot_paths`` refuses leaves no file behind."""
    from . import __version__
    paths = snapshot_paths(snapshots, path_prefix)
    body = _body_format(grid)
    for path, snap in zip(paths, snapshots):
        _write_snapshot(path, snap, grid, body)
    return RunManifest(config={}, version=__version__, wall_time=0.0,
                       files=paths)


# ------------------------------------------------------------ run config

_IC_FIELD_TYPES = typing.get_type_hints(InitialCondition)

_CONFIG_KEYS = {
    "kind": str,
    "delta": float,
    "mu": float,
    "L": float,
    "N": int,
    "t_end": float,
    "dt": float,
    "snapshot_interval": float,
    "initial_condition": str,
    # ic_<field> for each field an initial condition takes, parsed as the
    # field's annotation says: float | None -> float
    **{f"ic_{attr}": typing.get_args(_IC_FIELD_TYPES[attr])[0]
       for attr in IC_PARAMS.values() if attr is not None},
}
_REQUIRED = ("kind", "delta", "mu", "L", "N", "t_end")


def parse_config(text: str) -> SimulationConfig:
    """Parse `key = value` lines (# comments) into a validated run config."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError("expected `key = value`", line=lineno)
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", line=lineno)
        raw[key] = value
    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")

    values: dict[str, object] = {}
    for key, text_value in raw.items():
        try:
            values[key] = _CONFIG_KEYS[key](text_value)
        except ValueError:
            raise ConfigError(f"bad value for {key!r}: {text_value!r}") from None

    kind = _choice(EquationKind, "kind", values["kind"])

    n = values["N"]
    if n < 8 or n & (n - 1):
        raise ConfigError("N must be a power of two and at least 8")
    grid = Grid(values["L"], n)
    params = ModelParams(delta=values["delta"], mu=values["mu"])

    ic_name = values.get("initial_condition", "cosine")
    ic_kwargs = {}
    for name, attr in IC_PARAMS.items():
        key = f"ic_{attr}"
        if attr is not None and key in values:
            if ic_name != name:
                raise ConfigError(f"{key} only applies to initial_condition = {name}")
            ic_kwargs[attr] = values[key]
    ic = InitialCondition(ic_name, **ic_kwargs)

    return SimulationConfig(
        kind=kind, params=params, grid=grid, t_end=values["t_end"],
        dt=values.get("dt"), snapshot_interval=values.get("snapshot_interval"),
        initial_condition=ic)


def _choice(enum, key: str, value: str):
    """The member of enum named by value; ConfigError listing the choices."""
    try:
        return enum(value)
    except ValueError:
        names = ", ".join(member.value for member in enum)
        raise ConfigError(f"{key} must be one of: {names}") from None


def config_to_dict(config: SimulationConfig) -> dict:
    """Manifest echo of a run configuration."""
    ic = config.initial_condition
    out = {
        "kind": config.kind.value,
        "delta": config.params.delta,
        "mu": config.params.mu,
        "L": config.grid.length,
        "N": config.grid.n,
        "t_end": config.t_end,
        "dt": config.dt,
        "snapshot_interval": config.snapshot_interval,
        "initial_condition": ic.name,
    }
    attr = IC_PARAMS[ic.name]
    if attr is not None:
        out[f"ic_{attr}"] = getattr(ic, attr)
    return out
