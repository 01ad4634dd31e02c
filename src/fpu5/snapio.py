"""Snapshot files, run manifests, and key-value run configuration parsing.

Snapshot format: a `# t=<t> N=<N> L=<L>` header line followed by N rows of
`x<TAB>u`, both printed with 17 significant digits so reading a file back
reproduces the doubles bit for bit.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .experiments import InitialCondition, SimulationConfig, Snapshot
from .params import EquationKind, ModelParams
from .spectral import Grid

FLOAT_FMT = "%.16e"
_ROW_FMT = f"{FLOAT_FMT}\t{FLOAT_FMT}\n"


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
    rows = np.column_stack([grid.x, snapshot.u]).ravel().tolist()
    with open(path, "w") as fh:
        fh.write(f"# t={FLOAT_FMT % snapshot.t} N={grid.n} L={FLOAT_FMT % grid.length}\n")
        fh.write(_ROW_FMT * grid.n % tuple(rows))


def read_snapshot(path):
    """Return (Snapshot, (n, length)) parsed from a snapshot file.

    Only the u column is parsed; x is implied by N and L.
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
    if len(rows) < n:
        raise ConfigError(f"{path}: truncated after {len(rows)} rows")
    us = np.empty(n)
    try:
        for i, row in enumerate(rows[:n]):
            _, su = row.split("\t")
            us[i] = float(su)
    except ValueError:
        raise ConfigError(
            f"{path}: malformed row {i + 1} (line {i + 2}): {row!r}") from None
    return Snapshot(t=t, u=us), (n, length)


def write_snapshots(snapshots, grid: Grid, path_prefix) -> RunManifest:
    """Write one file per snapshot; the returned manifest lists them."""
    from . import __version__
    if not snapshots:
        raise DomainError("no snapshots to write")
    paths = []
    for i, snap in enumerate(snapshots):
        path = f"{path_prefix}_{i:04d}.dat"
        write_snapshot(path, snap, grid)
        paths.append(path)
    return RunManifest(config={}, version=__version__, wall_time=0.0,
                       files=paths)


# ------------------------------------------------------------ run config

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
    "ic_k": float,
    "ic_c0": float,
    "ic_path": str,
}
_REQUIRED = ("kind", "delta", "mu", "L", "N", "t_end")
_IC_PARAM_KEYS = {"kdv5_soliton": "ic_k", "gardner_soliton": "ic_c0",
                  "from_file": "ic_path"}


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

    try:
        kind = EquationKind(values["kind"])
    except ValueError:
        names = ", ".join(k.value for k in EquationKind)
        raise ConfigError(f"kind must be one of: {names}") from None

    n = values["N"]
    if n < 8 or n & (n - 1):
        raise ConfigError("N must be a power of two and at least 8")
    grid = Grid(values["L"], n)
    params = ModelParams(delta=values["delta"], mu=values["mu"])

    ic_name = values.get("initial_condition", "cosine")
    ic_kwargs = {}
    for name, key in _IC_PARAM_KEYS.items():
        if key in values:
            if ic_name != name:
                raise ConfigError(f"{key} only applies to initial_condition = {name}")
            attr = key[3:]
            ic_kwargs[attr] = values[key]
    ic = InitialCondition(ic_name, **ic_kwargs)

    return SimulationConfig(
        kind=kind, params=params, grid=grid, t_end=values["t_end"],
        dt=values.get("dt"), snapshot_interval=values.get("snapshot_interval"),
        initial_condition=ic)


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
    for attr in ("k", "c0", "path"):
        if getattr(ic, attr) is not None:
            out[f"ic_{attr}"] = getattr(ic, attr)
    return out
