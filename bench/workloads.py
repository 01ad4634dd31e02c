"""The benchmark's four workloads: inputs, one iteration each, and checks.

Every call into the package goes through ``fpu5.experiments`` or
``fpu5.snapio`` module attributes, never through names bound at import,
so the tracer in ``tracing.py`` sees it.  The stepping workloads keep the
frozen ``EXPERIMENTS`` grid, dt, parameters and snapshot interval and cut
only ``t_end``; the seed drives the synthetic recurrence series alone.
"""
from __future__ import annotations

import os
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "fpu5" / "__init__.py").is_file():
    raise ImportError(f"fpu5 sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import fpu5  # noqa: E402
from fpu5 import experiments as ex  # noqa: E402
from fpu5 import snapio  # noqa: E402

if Path(fpu5.__file__).resolve().parent != SRC / "fpu5":
    raise ImportError(f"imported fpu5 from {fpu5.__file__}, not from {SRC}")

from fpu5 import (EXPERIMENTS, EquationKind, Grid, InitialCondition,  # noqa: E402
                  KdV5Soliton, ModelParams, SimulationConfig)

# criterion 08 of the acceptance suite holds every study to this mass drift
MASS_DRIFT_BOUND = 1e-10
WORK_DIR = ROOT / ".bench_build" / "bench-work"


@dataclass
class Check:
    value: float | None
    bound: float | None = None   # None: reported, not gated
    ok: bool = True


@dataclass
class Outcome:
    snapshots: int               # snapshots produced (or written) and analysed
    checks: dict[str, Check] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks.values())

    def gate_below(self, name, value, bound):
        self.checks[name] = Check(float(value), bound, bool(value < bound))

    def gate_true(self, name, ok):
        self.checks[name] = Check(float(ok), None, bool(ok))


def l2_drift(snapshots) -> float:
    """Relative drift of the discrete integral of u^2 over a run."""
    sq = np.array([float(np.dot(s.u, s.u)) for s in snapshots])
    return float(np.max(np.abs(sq - sq[0])) / sq[0])


def _stepping_checks(out: Outcome, tag: str, snapshots):
    out.gate_below(f"{tag}mass_drift", ex.mass_drift(snapshots), MASS_DRIFT_BOUND)
    out.checks[f"{tag}l2_drift"] = Check(l2_drift(snapshots))


# ------------------------------------------------------ stepping workloads

class SteppingWorkload:
    """Set-up shared by the stepping workloads: the grid, linear symbol,
    nonlinear operator and initial field of each row.  ``run`` builds its
    own; these are built so that ``setup_s`` times what a run pays before
    its first step."""

    def __init__(self, configs):
        self.configs = configs
        self.operators = []
        for c in configs:
            symbol = fpu5.linear_symbol(c.kind, c.params, c.grid)
            op = fpu5.make_nonlinear_operator(c.kind, c.params, c.grid)
            u0 = ex.build_initial_condition(c)
            self.operators.append((symbol, op, u0))


class PerturbationPair(SteppingWorkload):
    """Frozen soliton-perturbation study: FPU5 at mu = 0 and mu = 0.05."""

    def __init__(self, t_end=0.5):
        fx = EXPERIMENTS["soliton-perturbation"]
        self.fx = fx
        self.grid = Grid(fx["length"], fx["n"])
        self.t_end = t_end
        self.interval = min(fx["snapshot_interval"], t_end)
        super().__init__([SimulationConfig(
            kind=EquationKind.FPU5, params=ModelParams(fx["delta"], mu),
            grid=self.grid, t_end=t_end, dt=fx["dt"],
            snapshot_interval=self.interval,
            initial_condition=InitialCondition("kdv5_soliton", k=fx["k"]))
            for mu in fx["mus"]])

    def iterate(self) -> Outcome:
        fx = self.fx
        res = ex.soliton_perturbation(
            delta=fx["delta"], k=fx["k"], mus=fx["mus"], grid=self.grid,
            dt=fx["dt"], t_end=self.t_end, snapshot_interval=self.interval)
        out = Outcome(sum(len(r["snapshots"]) for r in res.values()))
        mu0 = fx["mus"][0]
        out.gate_below("mu0_max_shape_score", res[mu0]["scores"].max(),
                       fx["invariance_bound"])
        for mu, r in res.items():
            _stepping_checks(out, f"mu{mu:g}_", r["snapshots"])
        return out


class KinkValidation(SteppingWorkload):
    """Frozen kink study: one FPU5 row at N=512 against the exact kink."""

    def __init__(self, t_end=0.5):
        fx = EXPERIMENTS["kink-validation"]
        self.fx = fx
        self.grid = Grid(fx["length"], fx["n"])
        self.params = ModelParams(fx["delta"], fx["mu"])
        self.t_end = t_end
        self.interval = min(fx["snapshot_interval"], t_end)
        super().__init__([SimulationConfig(
            kind=EquationKind.FPU5, params=self.params, grid=self.grid,
            t_end=t_end, dt=fx["dt"], snapshot_interval=self.interval,
            initial_condition=InitialCondition("kink_pair"))])

    def iterate(self) -> Outcome:
        report = ex.kink_validation(self.params, self.grid, self.fx["dt"],
                                    self.t_end, self.interval,
                                    keep_snapshots=True)
        out = Outcome(len(report.snapshots))
        out.gate_below("max_err", report.max_err, self.fx["err_bound"])
        _stepping_checks(out, "", report.snapshots)
        return out


class KdvZk(SteppingWorkload):
    """KdV arm of the Zabusky-Kruskal study, scored by correlation mismatch."""

    def __init__(self, t_end=2.0):
        fx = EXPERIMENTS["zabusky-kruskal"]
        super().__init__([SimulationConfig(
            kind=EquationKind.KDV, params=ModelParams(fx["delta"], fx["mu"]),
            grid=Grid(fx["length"], fx["n"]), t_end=t_end, dt=fx["dt_kdv"],
            snapshot_interval=min(fx["snapshot_interval"], t_end),
            initial_condition=InitialCondition("cosine"))])

    def iterate(self) -> Outcome:
        snapshots = ex.run(self.configs[0])
        u0 = snapshots[0].u
        scores = np.array([ex.xcorr_mismatch(u0, s.u) for s in snapshots])
        out = Outcome(len(snapshots))
        out.gate_true("scores_finite", np.isfinite(scores).all())
        _stepping_checks(out, "", snapshots)
        return out


# --------------------------------------------------- recurrence analysis

class RecurrenceAnalysis:
    """Snapshot I/O and recurrence analysis on a seeded synthetic series.

    Each snapshot holds two closed-form kdv5 solitons of different speed on
    a ring of length L, so the field recurs, up to a translation, with the
    known period T = L / |c1 - c2|.  The seed sets the soliton positions and
    the added noise; sizes are fixed so every seed does the same work.
    """

    LENGTH = 64.0
    DELTA = 1.0
    KS = (1.0, 1.5)          # soliton wavenumbers, so two different speeds
    NOISE = 1e-3
    PER_PERIOD = 36          # snapshots per recurrence period
    SCORE_EVERY = 2          # shape scores on every other snapshot

    def __init__(self, seed, n=1024, n_snap=90):
        rng = np.random.default_rng(seed)
        length = self.LENGTH
        self.grid = Grid(length, n)
        solitons = [KdV5Soliton(k=k, delta=self.DELTA) for k in self.KS]
        self.period = length / abs(solitons[0].speed - solitons[1].speed)
        self.interval = self.period / self.PER_PERIOD
        self.t_fix = 4 * self.interval
        self.skip = 0.5 * self.period
        positions = rng.uniform(0.0, length, size=len(solitons))
        x = self.grid.x
        self.snapshots = []
        for i in range(n_snap):
            t = i * self.interval
            u = rng.normal(0.0, self.NOISE, size=n)
            for s, x0 in zip(solitons, positions):
                z = np.mod(x - x0 + s.speed * t + 0.5 * length, length) - 0.5 * length
                u += ex.kdv5_soliton(s, z)
            self.snapshots.append(fpu5.Snapshot(t, u))

    def iterate(self) -> Outcome:
        work = WORK_DIR / f"pid{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            manifest = snapio.write_snapshots(self.snapshots, self.grid,
                                              str(work / "snap"))
            back = [snapio.read_snapshot(p)[0] for p in manifest.files]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        out = Outcome(len(back))
        identical = len(back) == len(self.snapshots) and all(
            a.t == b.t and np.array_equal(a.u, b.u)
            for a, b in zip(self.snapshots, back))
        out.gate_true("readback_identical", identical)
        back.sort(key=lambda s: s.t)
        report = ex.recurrence_scan(back, t_fix=self.t_fix, skip=self.skip)
        ex.recurrence_table(back, [self.t_fix, self.t_fix + self.interval],
                            skip=self.skip)
        scores = ex.shape_score_series(back[::self.SCORE_EVERY], self.grid)
        out.gate_true("scores_finite", np.isfinite(scores).all())
        out.checks["scan_period"] = Check(report.period)
        t_deep = float(report.times[int(np.argmin(report.differences))])
        out.checks["recurrence_offset"] = self.recurrence_check(t_deep)
        return out

    def recurrence_check(self, t_deep) -> Check:
        """Distance from the deepest scan minimum to the nearest t_fix + m T,
        m >= 1; it must be within one snapshot interval."""
        m = max(1, round((t_deep - self.t_fix) / self.period))
        offset = abs(t_deep - (self.t_fix + m * self.period))
        bound = self.interval * (1 + 1e-9)
        return Check(offset, bound, bool(offset <= bound))


WORKLOADS = {
    "perturbation-pair": lambda seed: PerturbationPair(),
    "kink-validation": lambda seed: KinkValidation(),
    "kdv-zk": lambda seed: KdvZk(),
    "recurrence-analysis": lambda seed: RecurrenceAnalysis(seed),
}


def setup(name: str, seed: int):
    """Build a workload's inputs: the part of a run timed as setup_s."""
    return WORKLOADS[name](seed)
