"""Every file format the package writes or reads, and run config parsing.

`write_result` fills an output directory: tables (a `# <header>` line, then
tab-separated rows), snapshot files (made by `write_snapshots`, the one
snapshot writer), and manifest.json listing exactly those files;
`read_series` reads a manifest's snapshots back.  Snapshot format: a
`# t=<t> N=<N> L=<L>` header line followed by N rows of `x<TAB>u`, both
printed with 17 significant digits so a read reproduces the doubles bit for
bit.
"""
from __future__ import annotations

import json
import math
import time
import typing
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError
from .experiments import (IC_PARAMS, InitialCondition, SimulationConfig,
                          Snapshot, StudyResult)
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


def _body_format(grid: Grid) -> str:
    """The rows of a snapshot file with each x already printed, leaving one
    %-slot per u value; printing x dominates the cost of a file, and it is
    the same for every file of a series."""
    return "".join(f"{FLOAT_FMT % x}\t{FLOAT_FMT}\n" for x in grid.x.tolist())


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


def _snapshot_paths(snapshots, grid: Grid, path_prefix) -> list[str]:
    """The files ``write_snapshots`` writes for a series on grid, checked
    before any is made: DomainError for an empty series or a non-finite
    time, ValueError for a u that is not a real field on grid (its values
    may be non-finite)."""
    if not snapshots:
        raise DomainError("no snapshots to write")
    paths = [f"{path_prefix}_{i:04d}.dat" for i in range(len(snapshots))]
    for path, snapshot in zip(paths, snapshots):
        if not math.isfinite(snapshot.t):
            raise DomainError(f"{path}: snapshot time must be finite, not "
                              f"t = {snapshot.t}")
        try:
            grid.check_field(snapshot.u)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return paths


def write_snapshots(snapshots, grid: Grid, path_prefix) -> RunManifest:
    """Write one file per snapshot, the only code that makes a snapshot
    file; the returned manifest lists them.  A series that
    ``_snapshot_paths`` refuses leaves no file behind."""
    from . import __version__
    paths = _snapshot_paths(snapshots, grid, path_prefix)
    body = _body_format(grid)
    for path, snap in zip(paths, snapshots):
        with open(path, "w") as fh:
            fh.write(f"# t={FLOAT_FMT % snap.t} N={grid.n} "
                     f"L={FLOAT_FMT % grid.length}\n")
            fh.write(body % tuple(np.asarray(snap.u).tolist()))
    return RunManifest(config={}, version=__version__, wall_time=0.0,
                       files=paths)


def write_result(out, started: float, config: dict, result: StudyResult,
                 grid: Grid | None = None) -> list[str]:
    """Write result's tables and snapshot series (on grid) under out, then
    manifest.json listing exactly those files and the time since started, a
    time.monotonic() reading; returns the listed paths.  A series
    write_snapshots would refuse is refused before out exists."""
    from . import __version__
    out = Path(out)
    for prefix, snapshots in result.snapshots.items():
        _snapshot_paths(snapshots, grid, str(out / prefix))
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for name, (header, rows) in result.tables.items():
        files.append(str(out / name))
        with open(files[-1], "w") as fh:
            fh.write(f"# {header}\n")
            for row in rows:
                fh.write("\t".join(FLOAT_FMT % v for v in row) + "\n")
    for prefix, snapshots in result.snapshots.items():
        files += write_snapshots(snapshots, grid, str(out / prefix)).files
    files.sort()
    manifest = RunManifest(config=config, version=__version__,
                           wall_time=time.monotonic() - started,
                           files=files, checks=result.checks)
    (out / "manifest.json").write_text(manifest.to_json() + "\n")
    return files


def read_series(manifest_path) -> tuple[list[Snapshot], tuple[int, float]]:
    """The snapshot series a manifest lists, sorted by t, and its (N, L).

    Each file is opened by name from the manifest's own directory.  Raises
    ConfigError unless the files are one series: every file a snapshot file
    (its first line starts ``# t=``, checked before any row is parsed), one
    grid, distinct times.
    """
    manifest = json.loads(Path(manifest_path).read_text())
    files = manifest.get("files") if isinstance(manifest, dict) else None
    if not (isinstance(files, list) and files
            and all(isinstance(f, str) for f in files)):
        raise ConfigError(f'{manifest_path}: no "files" list of snapshot paths')
    paths = [Path(manifest_path).parent / Path(f).name for f in files]
    for listed, path in zip(files, paths):
        with open(path) as fh:
            if not fh.readline().startswith("# t="):
                raise ConfigError(f"{manifest_path}: not one snapshot series; "
                                  f"{listed} is not a snapshot file")
    read = [read_snapshot(path) for path in paths]
    grids = sorted({geometry for _, geometry in read})
    if len(grids) > 1:
        raise ConfigError(
            f"{manifest_path}: not one snapshot series; (N, L) = {grids}")
    snapshots = sorted((snap for snap, _ in read), key=lambda s: s.t)
    for a, b in zip(snapshots, snapshots[1:]):
        if a.t == b.t:
            raise ConfigError(f"{manifest_path}: not one snapshot series; "
                              f"two snapshots at t = {a.t}")
    return snapshots, grids[0]


# ------------------------------------------------------------ run config

_IC_FIELD_TYPES = typing.get_type_hints(InitialCondition)

# key -> (the type its text parses to, its attribute path in SimulationConfig)
_CONFIG_KEYS = {
    "kind": (str, "kind.value"),
    "delta": (float, "params.delta"),
    "mu": (float, "params.mu"),
    "L": (float, "grid.length"),
    "N": (int, "grid.n"),
    "t_end": (float, "t_end"),
    "dt": (float, "dt"),
    "snapshot_interval": (float, "snapshot_interval"),
    "initial_condition": (str, "initial_condition.name"),
    # ic_<field> for each field an initial condition takes, parsed as the
    # field's annotation says: float | None -> float
    **{f"ic_{attr}": (typing.get_args(_IC_FIELD_TYPES[attr])[0],
                      f"initial_condition.{attr}")
       for attr in IC_PARAMS.values() if attr is not None},
}
_REQUIRED = ("kind", "delta", "mu", "L", "N", "t_end", "dt")


def parse_config(text: str) -> SimulationConfig:
    """Parse `key = value` lines (# comments) into a validated run config.
    Text faults raise ConfigError; a value fault raises the DomainError of
    the type that takes the value."""
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
            values[key] = _CONFIG_KEYS[key][0](text_value)
        except ValueError:
            raise ConfigError(f"bad value for {key!r}: {text_value!r}") from None

    try:
        kind = EquationKind(values["kind"])
    except ValueError:
        names = ", ".join(member.value for member in EquationKind)
        raise ConfigError(f"kind must be one of: {names}") from None
    grid = Grid(values["L"], values["N"])
    params = ModelParams(delta=values["delta"], mu=values["mu"])
    ic = InitialCondition(values.get("initial_condition", "cosine"),
                          **{key[3:]: value for key, value in values.items()
                             if key.startswith("ic_")})

    return SimulationConfig(
        kind=kind, params=params, grid=grid, t_end=values["t_end"],
        dt=values["dt"], snapshot_interval=values.get("snapshot_interval"),
        initial_condition=ic)


def config_to_dict(config: SimulationConfig) -> dict:
    """Manifest echo of a run configuration, with its own ic_ key only."""
    own = f"ic_{IC_PARAMS[config.initial_condition.name]}"
    return {key: attrgetter(path)(config)
            for key, (_, path) in _CONFIG_KEYS.items()
            if not key.startswith("ic_") or key == own}
