"""Simulation runner, error metrics, the canned studies, and recurrence scan."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import spectral
from .equations import linear_symbol, make_if_rk4, make_nonlinear_operator
from .errors import BlowUpError, DomainError
from .params import EquationKind, ModelParams
from .solutions import (GardnerSoliton, KdV5Soliton, KinkSolution,
                        gardner_soliton, kdv5_soliton, kink_eval)
from .spectral import ETDRK4, Grid, IntegratingFactorRK4

# each initial condition -> the InitialCondition field it takes, if any
IC_PARAMS = {"kink_pair": None, "kdv5_soliton": "k", "gardner_soliton": "c0",
             "cosine": None, "from_file": "path"}

# domain length shared by the soliton-perturbation and recurrence studies;
# chosen so the surviving solitary wave laps the ring in the observed
# recurrence period
RECURRENCE_LENGTH = 46.75

# kink validation scores the grid points where the initial pair agrees with
# the exact kink to this fraction of max|u0|, i.e. away from the mirror seam
KINK_MASK_TOL = 1e-9

# shifts compared per pass of the exact shift search: a (64, N) buffer stays
# cache-sized at the grids used here and amortizes the per-call overhead
_SHIFT_BLOCK = 64

_MINIMUM_WINDOW = 5  # snapshots in recurrence_scan's local-minimum window


@dataclass(frozen=True)
class InitialCondition:
    """Tagged choice of starting profile; only the matching field is used."""

    name: str
    k: float | None = None      # kdv5_soliton wavenumber
    c0: float | None = None     # gardner_soliton speed
    path: str | None = None     # from_file snapshot path

    def __post_init__(self):
        if self.name not in IC_PARAMS:
            raise DomainError(f"unknown initial condition {self.name!r}")
        wanted = {IC_PARAMS[self.name]} - {None}
        given = {attr for attr in IC_PARAMS.values()
                 if attr is not None and getattr(self, attr) is not None}
        if given != wanted:  # a stray field first, in field order
            stray = [attr for attr in IC_PARAMS.values() if attr in given - wanted]
            raise DomainError(
                f"field {stray[0]} does not apply to {self.name}" if stray
                else f"initial condition {self.name} needs {IC_PARAMS[self.name]}")


@dataclass
class SimulationConfig:
    kind: EquationKind
    params: ModelParams
    grid: Grid
    t_end: float
    initial_condition: InitialCondition
    dt: float
    snapshot_interval: float | None = None
    scheme: type = IntegratingFactorRK4   # or ETDRK4: the stepper class

    def __post_init__(self):
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise DomainError("t_end must be finite and nonnegative")
        if self.dt is None:
            raise DomainError("dt is required: every run names its time step")
        for name in ("dt", "snapshot_interval"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be finite and positive")
        if self.snapshot_interval is not None and self.snapshot_interval < self.dt:
            raise DomainError("snapshot_interval must be at least dt")


@dataclass
class Snapshot:
    t: float
    u: np.ndarray


@dataclass
class ValidationReport:
    times: np.ndarray
    errs: np.ndarray
    max_err: float
    snapshots: list | None = None

    def error_table(self) -> dict[str, tuple[str, list]]:
        """The error history as StudyResult.tables: err_vs_t.dat."""
        return {"err_vs_t.dat": ("t\terr", list(zip(self.times, self.errs)))}


@dataclass
class RecurrenceReport:
    t_fix: float
    times: np.ndarray
    differences: np.ndarray          # shift-minimized circular difference
    plain_differences: np.ndarray    # no realignment
    minima_times: list[float]
    period: float | None             # None when fewer than two minima

    def difference_table(self) -> dict[str, tuple[str, list]]:
        """The scan as StudyResult.tables: difference_vs_t.dat."""
        return {"difference_vs_t.dat": ("t\td_min_shift\td_plain", list(zip(
            self.times, self.differences, self.plain_differences)))}


@dataclass
class StudyResult:
    """What a canned study or CLI command returns: its runs, its scalar
    results and the files to write."""

    arms: object                   # the raw output behind the checks
    checks: dict                   # manifest checks; a study's verdict is "pass"
    # file name -> (header, rows), and file prefix -> snapshot series
    tables: dict[str, tuple[str, list]] = field(default_factory=dict)
    snapshots: dict[str, list[Snapshot]] = field(default_factory=dict)


def kink_pair_profile(params: ModelParams, grid: Grid) -> np.ndarray:
    """Smooth periodic field: plus-branch kink at L/4, minus branch at 3L/4.

    Both branches travel at the same speed, so the pair is an exact solution
    away from the exponentially small seams.
    """
    plus = KinkSolution(params, branch=1, z0=0.25 * grid.length)
    minus = KinkSolution(params, branch=-1, z0=0.75 * grid.length)
    return kink_eval(plus, grid.x) + kink_eval(minus, grid.x) \
        - (plus.center_level + plus.amplitude)


def build_initial_condition(config: SimulationConfig) -> np.ndarray:
    ic = config.initial_condition
    grid = config.grid
    if ic.name == "kink_pair":
        return kink_pair_profile(config.params, grid)
    if ic.name == "kdv5_soliton":
        s = KdV5Soliton(k=ic.k, delta=config.params.delta)
        return kdv5_soliton(s, grid.x - 0.5 * grid.length)
    if ic.name == "gardner_soliton":
        s = GardnerSoliton(params=config.params, c0=ic.c0)
        return gardner_soliton(s, grid.x - 0.5 * grid.length)
    if ic.name == "cosine":
        half = 0.5 * grid.length  # cos(pi x) has period 2
        if abs(half - round(half)) > 1e-9 * half:
            raise DomainError("initial condition cosine, cos(pi x), needs an "
                              f"even integer L, not L = {grid.length}")
        return np.cos(np.pi * grid.x)
    # from_file, the one name left in IC_PARAMS
    from .snapio import read_snapshot
    snap, (n, length) = read_snapshot(ic.path)
    if n != grid.n or abs(length - grid.length) > 1e-12 * grid.length:
        raise DomainError("snapshot geometry does not match the run grid")
    return snap.u


def _schedule(config: SimulationConfig) -> tuple[int, list[float]]:
    """(steps per snapshot, stored times) of a run, known before any step.

    The times are i * snap_dt, snap_dt = t_end / n_snap, for i = 0..n_snap:
    only 0 when t_end is 0, at least one interval for any positive t_end.
    The steps per snapshot are the fewest whose step does not exceed the
    requested dt; a ratio within 1e-9 (relative) of a whole number keeps
    that number.  _step_group stamps Snapshot.t from these times.
    """
    if not config.t_end > 0:
        return 1, [0.0]
    snap_dt = config.snapshot_interval or max(config.t_end / 50.0, config.dt)
    n_snap = max(1, int(np.ceil(config.t_end / snap_dt - 1e-9)))
    snap_dt = config.t_end / n_snap
    steps_per = max(1, int(np.ceil(snap_dt / config.dt * (1.0 - 1e-9))))
    return steps_per, [i * snap_dt for i in range(n_snap + 1)]


def _time_tol(t: float) -> float:
    """A stored time this close to t is t, so a sum such as t_fix + interval
    that rounds an ulp away still finds its snapshot."""
    return 1e-9 * max(1.0, abs(t))


def _span(times, lo: float, hi: float) -> range:
    """Indices of the ascending stored times in [lo, hi], each end widened
    by _time_tol: the one rule by which a study time names snapshots."""
    return range(int(np.searchsorted(times, lo - _time_tol(lo), "left")),
                 int(np.searchsorted(times, hi + _time_tol(hi), "right")))


def run(config: SimulationConfig) -> list[Snapshot]:
    """Integrate and return snapshots at 0, dt_snap, ..., t_end.

    On loss of finiteness raises BlowUpError with the failing step index and
    the last finite snapshot attached.
    """
    return run_batch([config])[0]


def run_batch(configs: list[SimulationConfig]) -> list[list[Snapshot]]:
    """Integrate several configurations; one snapshot list per config.

    Rows that share equation kind, stepper class, grid (L and N) and
    schedule (steps per snapshot and stored times, hence dt) step together
    as one (B, N//2 + 1) half-spectrum state, with delta and mu set per row;
    _step_group steps each group on the schedule of its key.  Other rows
    run as groups of their own through the same loop.  Each row's snapshots
    are bit-identical to those of ``run`` on its config alone.

    When a row loses finiteness, raises BlowUpError naming that row (its
    index in ``configs``) with the failing step, its time and the row's last
    finite snapshot.
    """
    results: list[list[Snapshot]] = []
    groups: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        results.append([Snapshot(0.0, build_initial_condition(config))])
        steps_per, times = _schedule(config)
        if len(times) > 1:
            key = (config.kind, config.scheme, config.grid.length,
                   config.grid.n, steps_per, tuple(times))
            groups.setdefault(key, []).append(i)
    for (*_, steps_per, times), rows in groups.items():
        _step_group([configs[i] for i in rows], [results[i] for i in rows],
                    rows, steps_per, times)
    return results


def _step_group(configs, snapshots, rows, steps_per, times):
    """Step the rows of one group together, steps_per steps to each stored
    time, appending to their snapshots: the one stepping loop of a run.

    An IF-RK4 group steps each interval in one call of the compiled loop
    (``make_if_rk4``), an ETDRK4 group step by step.  Finiteness is checked
    once per interval.  An interval that ends non-finite is replayed from
    its start state one step a call, checking every step, and BlowUpError
    names the first non-finite step and row; ``advance`` never writes into
    its input, so the start is intact and the replay deterministic, and the
    end state, already known to be non-finite, is not recomputed.
    """
    kind, grid = configs[0].kind, configs[0].grid
    params = [config.params for config in configs]
    dt = times[1] / steps_per
    if configs[0].scheme is IntegratingFactorRK4:
        advance = make_if_rk4(kind, params, grid, dt)
    else:
        stepper = configs[0].scheme(linear_symbol(kind, params, grid),
                                    make_nonlinear_operator(kind, params, grid),
                                    dt)

        def advance(u_hat, steps):
            for _ in range(steps):
                u_hat = stepper.step(u_hat)
            return u_hat

    u_hat = spectral.rfft(np.stack([s[0].u for s in snapshots], dtype=float))
    # overflow is diagnosed through the explicit finiteness check, so the
    # intermediate numpy warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for i_snap in range(1, len(times)):
            start = u_hat
            u_hat = advance(u_hat, steps_per)
            # a non-finite entry stays non-finite (under either scheme each
            # step adds to u_hat times a unit-modulus factor), so one check
            # covers the interval
            if not np.all(np.isfinite(u_hat)):
                state, first = start, (i_snap - 1) * steps_per
                for j in range(1, steps_per + 1):
                    state = u_hat if j == steps_per else advance(state, 1)
                    finite = np.isfinite(state).all(axis=-1)
                    if not finite.all():
                        bad, step = int(np.argmin(finite)), first + j
                        raise BlowUpError(
                            f"row {rows[bad]} lost finiteness at step {step}",
                            step=step, t=step * dt,
                            last_snapshot=snapshots[bad][-1], row=rows[bad])
            for s, u in zip(snapshots, spectral.irfft(u_hat)):
                s.append(Snapshot(times[i_snap], u))


def mass_drift(snapshots: list[Snapshot]) -> float:
    """Relative drift of the spatial mean over a run.

    Scaled by max(|initial mean|, max|u0|) so zero-mean data is handled.
    No snapshots raise ValueError.
    """
    if not snapshots:
        raise ValueError("mass_drift was given no snapshots")
    means = np.array([s.u.mean() for s in snapshots])
    scale = max(abs(means[0]), float(np.max(np.abs(snapshots[0].u))), 1e-300)
    return float(np.max(np.abs(means - means[0]))) / scale


def _field_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Two real, finite, one-dimensional, non-empty fields of one shape as
    float64 arrays, or ValueError."""
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        raise ValueError("a field is real, not complex")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"fields must share a grid: shapes {a.shape} "
                         f"and {b.shape}")
    if a.ndim != 1:
        raise ValueError(f"a field is one-dimensional, not of shape {a.shape}")
    if a.size == 0:
        raise ValueError("a field needs at least one sample")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("a field has a non-finite sample")
    return a, b


def err_metric(u_analytic: np.ndarray, u_calc: np.ndarray, mask=None) -> float:
    """max|u_analytic - u_calc| / max|u_calc| over the masked points."""
    u_analytic, u_calc = _field_pair(u_analytic, u_calc)
    if mask is not None:
        u_analytic = u_analytic[mask]
        u_calc = u_calc[mask]
        if u_calc.size == 0:
            raise ValueError("empty mask")
    denom = float(np.max(np.abs(u_calc)))
    if denom == 0.0:
        raise ValueError("err metric undefined for an all-zero reference")
    return float(np.max(np.abs(u_analytic - u_calc))) / denom


def xcorr_mismatch(reference: np.ndarray, u: np.ndarray) -> float:
    """1 minus the best normalized circular cross-correlation.

    Zero for a pure circular shift of the reference; near one for unrelated
    profiles.  Unlike the max-norm metric this does not saturate on narrow
    spiky fields, so it is the score used for the soliton-train comparisons.
    """
    reference, u = _field_pair(reference, u)
    corr = spectral.irfft(spectral.rfft(u) * np.conj(spectral.rfft(reference)))
    norm = np.sqrt(np.sum(reference**2) * np.sum(u**2))
    if norm == 0.0:
        raise ValueError("correlation undefined for an all-zero field")
    return float(1.0 - corr.max() / norm)


def min_shift_difference(reference: np.ndarray,
                         u: np.ndarray) -> tuple[float, int]:
    """Smallest err_metric over every integer circular shift of reference,
    found exactly; returns (difference, shift).

    Shift s compares u with reference rolled by s cells, which is window
    n - s of the doubled reference.  The windows are walked _SHIFT_BLOCK at
    a time through one (block, n) buffer, so memory stays O(n); ties go to
    the lowest shift.

    Whole blocks of shifts that cannot hold the answer are skipped.  For
    shift s, the larger of |rolled_s[p] - u[p]| at p = argmax u and at
    p = argmin u, over max|u|, is made of terms that shift's difference
    maxes, so it is an exact lower bound with no rounding margin.  The block
    holding the smallest bound is walked first, then the others in order; a
    block is skipped when its smallest bound exceeds the best difference so
    far.  Both sides of that comparison are divided by max|u|, because
    distinct raw maxima can round to one quotient.  A skipped shift thus
    differs strictly more than the answer, and (difference, shift) equals
    the full walk's for finite fields.  On a field unlike every shift of
    the reference, such as noise, nothing is skipped and the cost is the
    full walk's plus the O(n) bound.
    """
    reference, u = _field_pair(reference, u)
    denom = float(np.max(np.abs(u)))
    if denom == 0.0:
        raise ValueError("difference undefined for an all-zero field")
    n = reference.size
    # zero-copy (n, n) view whose row s is reference rolled by s cells
    rolled = sliding_window_view(np.concatenate([reference, reference]), n)[n:0:-1]
    p, q = int(np.argmax(u)), int(np.argmin(u))
    bound = np.maximum(np.abs(rolled[:, p] - u[p]),
                       np.abs(rolled[:, q] - u[q])) / denom
    floors = np.minimum.reduceat(bound, range(0, n, _SHIFT_BLOCK)).tolist()
    first = int(np.argmin(bound)) // _SHIFT_BLOCK
    best = np.inf
    errs = np.full(n, np.inf)
    buf = np.empty((min(_SHIFT_BLOCK, n), n))
    for b in (first, *range(first), *range(first + 1, len(floors))):
        if floors[b] > best:
            continue
        start = b * _SHIFT_BLOCK
        block = rolled[start:start + _SHIFT_BLOCK]
        diff = buf[:len(block)]
        np.subtract(block, u, out=diff)
        np.abs(diff, out=diff)
        found = errs[start:start + len(block)]
        diff.max(axis=1, out=found)
        best = min(best, found.min() / denom)
    errs /= denom
    shift = int(np.argmin(errs))
    return float(errs[shift]), shift


def shape_score(reference: np.ndarray, u: np.ndarray, grid: Grid) -> float:
    """Shape deviation of u from reference modulo continuous translation.

    Integer-shift search first, then a bounded scalar refinement of the
    fractional offset, so a cleanly translating profile scores near zero
    regardless of how it sits on the grid.
    """
    from scipy.optimize import minimize_scalar

    reference, u = grid.check_field(reference), grid.check_field(u)
    coarse, s0 = min_shift_difference(reference, u)
    ref_hat = spectral.rfft(reference)
    denom = float(np.max(np.abs(u)))

    def objective(shift):
        shifted = spectral.irfft(ref_hat * np.exp(-1j * grid.k * shift))
        return float(np.max(np.abs(shifted - u))) / denom

    x0 = s0 * grid.dx
    res = minimize_scalar(objective, bounds=(x0 - grid.dx, x0 + grid.dx),
                          method="bounded", options={"xatol": 1e-10 * grid.dx})
    return float(min(coarse, res.fun))


def shape_score_series(snapshots: list[Snapshot], grid: Grid) -> np.ndarray:
    """shape_score of each snapshot against the first one, u(0)."""
    return np.array([shape_score(snapshots[0].u, s.u, grid) for s in snapshots])


# ------------------------------------------------------------ experiments

def _rows(runs, ic: InitialCondition, grid: Grid, delta: float,
          t_end: float, snapshot_interval: float | None,
          scheme: type = IntegratingFactorRK4) -> list[SimulationConfig]:
    """The row rule of every study: one run per (kind, mu, dt) of runs,
    each from ic on one grid, delta, horizon and snapshot interval."""
    return [SimulationConfig(
        kind=kind, params=ModelParams(delta, mu), grid=grid, t_end=t_end,
        dt=dt, snapshot_interval=snapshot_interval, scheme=scheme,
        initial_condition=ic) for kind, mu, dt in runs]


def _step_study(rows: list[SimulationConfig], resolve=None, tags=()):
    """(resolve(times), arms, checks, tables): the one stepper of the studies.

    The rows of a study share t_end and snapshot_interval, so the times
    _schedule gives the first row are the times every row stores.  resolve
    names the study's snapshots on them or raises DomainError; only then
    do the rows step, in one run_batch.  Each row's arm holds its snapshots,
    their times and its mass drift.  The first len(tags) arms are also
    shape-scored against their u(0): each gets its "scores", and its score
    table, peak score and mass drift go under its tag in tables and checks.
    """
    resolved = resolve(np.array(_schedule(rows[0])[1])) if resolve else None
    arms = [{"snapshots": s, "times": np.array([x.t for x in s]),
             "mass_drift": mass_drift(s)} for s in run_batch(rows)]
    checks, tables = {}, {}
    for tag, arm in zip(tags, arms):
        arm["scores"] = shape_score_series(arm["snapshots"], rows[0].grid)
        tables[f"score_vs_t_{tag}.dat"] = (
            "t\tscore", list(zip(arm["times"], arm["scores"])))
        checks[f"{tag}_max_score"] = float(arm["scores"].max())
        checks[f"{tag}_mass_drift"] = arm["mass_drift"]
    return resolved, arms, checks, tables


def kink_validation(params: ModelParams, grid: Grid, dt: float,
                    t_end: float, snapshot_interval: float | None = None,
                    keep_snapshots: bool = False) -> ValidationReport:
    """Integrate the kink pair and compare with the travelling exact kink.

    The error is measured only on grid points where the initial profile
    agrees with the exact kink to KINK_MASK_TOL, i.e. away from the mirror
    seam.  The run steps ETDRK4, as the frozen study does; IF-RK4 blows up
    at the study's dt.  The kink pair refuses mu = 0 before any step.
    """
    snapshots = run(*_rows([(EquationKind.FPU5, params.mu, dt)],
                           InitialCondition("kink_pair"), grid, params.delta,
                           t_end, snapshot_interval, ETDRK4))
    kink = KinkSolution(params, branch=1, z0=0.25 * grid.length)
    u0 = snapshots[0].u
    exact0 = kink_eval(kink, grid.x)
    mask = np.abs(u0 - exact0) <= KINK_MASK_TOL * float(np.max(np.abs(u0)))
    speed = kink.speed
    times = np.array([s.t for s in snapshots])
    errs = np.array([
        err_metric(kink_eval(kink, grid.x - speed * s.t), s.u, mask)
        for s in snapshots])
    return ValidationReport(times=times, errs=errs, max_err=float(errs.max()),
                            snapshots=snapshots if keep_snapshots else None)


def soliton_perturbation(*, delta: float, k: float, mus, grid: Grid,
                         dt: float, t_end: float,
                         snapshot_interval: float) -> dict:
    """Run the mu = 0 soliton under the fifth-order equation at several mu.

    The mu rows share grid and delta; given a common dt they also share the
    schedule and step as one batch.
    Returns per-mu snapshot lists and shape-invariance scores against the
    initial profile.
    """
    rows = _rows([(EquationKind.FPU5, mu, dt) for mu in mus],
                 InitialCondition("kdv5_soliton", k=k), grid, delta, t_end,
                 snapshot_interval)
    return dict(zip(mus, _step_study(rows, tags=mus)[1]))


def _snapshot_index(times: np.ndarray, t_fix: float, skip: float,
                    later: bool = False) -> tuple[int, range]:
    """Index of the snapshot at t_fix, and of its candidates: the snapshots
    at or after t_fix + skip (``later``, for recurrence_table: after the
    t_fix snapshot, counted from its stored time), both through _span.
    DomainError for times that do not increase strictly, a non-finite
    t_fix, a negative or non-finite skip, no such stored time, or no
    candidate.  The one check of a recurrence request; it reads only the
    times, so a study makes it on the times of _schedule before any step."""
    if not np.all(np.diff(times) > 0):
        raise DomainError("snapshot times must increase strictly")
    if not math.isfinite(t_fix):
        raise DomainError(f"t_fix must be finite, got {t_fix:g}")
    if not (math.isfinite(skip) and skip >= 0):
        raise DomainError(f"skip must be finite and nonnegative, got {skip:g}")
    fix = _span(times, t_fix, t_fix)
    if not fix:
        raise DomainError("t_fix must be one of the snapshot times")
    start, base = (fix[0] + 1, times[fix[0]]) if later else (0, t_fix)
    sel = range(max(start, _span(times, base + skip, np.inf).start), len(times))
    if not sel:
        raise DomainError(f"t_fix {t_fix:g} has no {'later ' * later}snapshot "
                          f"at or after t_fix + skip (skip {skip:g})")
    return fix[0], sel


def recurrence_scan(snapshots: list[Snapshot], t_fix: float,
                    skip: float = 0.0) -> RecurrenceReport:
    """Minimal circular difference of each later snapshot from the t_fix one.

    d(t) = min over all integer circular shifts of err_metric(shift(u_fix),
    u(t)).  Local minima (smallest d in a centered window) mark
    near-recurrences; the period is the mean gap between consecutive
    minima, or None when fewer than two are found.  Raises DomainError
    unless the snapshot times increase strictly, for a t_fix off them, a
    non-finite t_fix, a negative or non-finite skip, or when no snapshot
    lies at or after t_fix + skip.
    """
    times = np.array([s.t for s in snapshots])
    i_fix, sel = _snapshot_index(times, t_fix, skip)
    u_fix = snapshots[i_fix].u
    scan_times = times[sel]
    d = np.array([min_shift_difference(u_fix, snapshots[i].u)[0]
                  for i in sel])
    plain = np.array([err_metric(u_fix, snapshots[i].u) for i in sel])
    half = _MINIMUM_WINDOW // 2
    minima = []
    for i in range(half, len(d) - half):
        segment = d[i - half:i + half + 1]
        if d[i] == segment.min() and d[i] < segment.max():
            minima.append(float(scan_times[i]))
    period = None
    if len(minima) >= 2:
        period = float(np.mean(np.diff(minima)))
    return RecurrenceReport(t_fix=t_fix, times=scan_times, differences=d,
                            plain_differences=plain, minima_times=minima,
                            period=period)


# Frozen study configurations.  dt values are verified stable for their
# grids and schemes.  The kink study steps ETDRK4 (kink_validation always
# does); every other study steps IF-RK4.  README "Numerical notes" gives
# the rule a frozen dt is re-picked by, the measurements behind the kink
# study's dt, and why the other studies keep IF-RK4.  The delta=2 runs use
# N=128: at N=256 the integrating factor turns the top retained modes by
# tens of radians per step and IF-RK4 itself goes unstable; the
# perturbation pair blows up at t = 0.017, 0.069 and 0.28 for dt = 1e-4,
# 5e-5 and 2.5e-5, and padding the products to 3N/2 points does not
# prevent it.  Score thresholds were frozen from reference runs of these
# exact configurations.
EXPERIMENTS: dict[str, dict] = {
    "kink-validation": dict(
        delta=0.6, mu=2.0, length=64.0, n=512, dt=1e-3,
        t_end=10.0, snapshot_interval=0.5, err_bound=6e-3),
    "soliton-perturbation": dict(
        delta=2.0, k=1.0, mus=(0.0, 0.05), length=RECURRENCE_LENGTH, n=128,
        dt=1e-4, t_end=20.0, snapshot_interval=0.5,
        invariance_bound=1e-2, destruction_threshold=1e-1, destruction_by=17.0),
    "gardner": dict(
        delta=1.0, mu=0.1, c0=1.0, length=40.0, n=128,
        t_end=20.0, snapshot_interval=0.25,
        dt_gardner=5e-3, dt_fpu5=2.5e-4,
        hold_bound=1e-2, deform_threshold=1e-1, deform_by=8.75),
    "zabusky-kruskal": dict(
        delta=0.022, mu=1.0, length=2.0, n=256,
        t_end=11.5, snapshot_interval=0.02,
        dt_kdv=2e-4, dt_fpu5=2e-5,
        figure_times=(1.14, 10.6), recurrence_window=(8.0, 11.5),
        kdv_recurrence_bound=0.15, contrast_factor=3.0),
    "recurrence": dict(
        delta=2.0, mu=0.05, k=1.0, length=RECURRENCE_LENGTH, n=128,
        dt=1e-4, t_end=52.0, snapshot_interval=0.25,
        t_fix=5.0, table_skip=10.0, scan_skip=2.0,
        expected_first_minimum=27.25, expected_period=22.25, tolerance=0.5),
}


def recurrence_table(snapshots: list[Snapshot], t_fixes, skip: float):
    """Fixed-time recurrence rows: for each t_fix, the time of the smallest
    plain circular difference after the skip, the gap, and the difference.

    The snapshot times must increase strictly, each t_fix must be one of
    them and skip finite and nonnegative, as for recurrence_scan
    (DomainError otherwise); the candidates of a t_fix are the later
    snapshots at or after t_fix + skip, so even skip = 0 never matches the
    t_fix snapshot with itself.  A t_fix with no candidate
    raises DomainError, so every t_fix gives a row; the recurrence period
    estimate is the mean gap.
    Returns (rows, period) with rows of (t_fix, t_match, gap, difference).
    """
    times = np.array([s.t for s in snapshots])
    rows = []
    for t_fix in t_fixes:
        i_fix, sel = _snapshot_index(times, t_fix, skip, later=True)
        u_fix = snapshots[i_fix].u
        diffs = np.array([err_metric(u_fix, snapshots[i].u) for i in sel])
        j = int(np.argmin(diffs))
        t_match = float(times[sel][j])
        rows.append((float(times[i_fix]), t_match,
                     t_match - float(times[i_fix]), float(diffs[j])))
    period = float(np.mean([r[2] for r in rows])) if rows else None
    return rows, period


# ---------------------------------------------------------------- studies

def _study_index(times: list[float], t: float) -> int:
    """Index of the last stored time at or before the study time t, through
    _span on the times of _schedule before any step.  DomainError for a
    non-finite t, and for t before the first or beyond the last stored time,
    where the first or the last snapshot would stand in."""
    if not math.isfinite(t):
        raise DomainError(f"study time {t:g} must be finite")
    upto = _span(times, -np.inf, t)
    if not upto:
        raise DomainError(f"study time {t:g} lies before the run, which "
                          "starts at t = 0")
    if not _span(times, t, np.inf):
        raise DomainError(f"study time {t:g} lies beyond the last snapshot "
                          f"of the run to t_end = {times[-1]:g}")
    return upto[-1]


def _kink_validation_study(fx: dict) -> StudyResult:
    report = kink_validation(
        ModelParams(fx["delta"], fx["mu"]), Grid(fx["length"], fx["n"]),
        fx["dt"], fx["t_end"], fx["snapshot_interval"], keep_snapshots=True)
    checks = {"max_err": report.max_err,
              "mass_drift": mass_drift(report.snapshots),
              "err_bound": fx["err_bound"],
              "pass": report.max_err < fx["err_bound"]}
    return StudyResult(report, checks, report.error_table())


def _soliton_perturbation_study(fx: dict) -> StudyResult:
    mus = fx["mus"]
    rows = _rows([(EquationKind.FPU5, mu, fx["dt"]) for mu in mus],
                 InitialCondition("kdv5_soliton", k=fx["k"]),
                 Grid(fx["length"], fx["n"]), fx["delta"], fx["t_end"],
                 fx["snapshot_interval"])
    i_late, arms, checks, tables = _step_study(
        rows, lambda times: _study_index(times, fx["destruction_by"]),
        [f"mu_{mu:g}" for mu in mus])
    checks["pass"] = bool(
        arms[0]["scores"].max() < fx["invariance_bound"]
        and arms[1]["scores"][i_late] > fx["destruction_threshold"])
    return StudyResult(dict(zip(mus, arms)), checks, tables, {
        f"snap_mu_{mu:g}": arm["snapshots"][::4] for mu, arm in zip(mus, arms)})


def _gardner_study(fx: dict) -> StudyResult:
    """The Gardner soliton under both equations: exact under the
    third-order one, so it must keep its shape, while under the fifth-order
    one it must deform."""
    kinds = (EquationKind.GARDNER, EquationKind.FPU5)
    rows = _rows([(kind, fx["mu"], fx[f"dt_{kind.value}"]) for kind in kinds],
                 InitialCondition("gardner_soliton", c0=fx["c0"]),
                 Grid(fx["length"], fx["n"]), fx["delta"], fx["t_end"],
                 fx["snapshot_interval"])
    # refuses a deform_by the fifth-order run cannot decide, before any step
    i_by, arms, checks, tables = _step_study(
        rows, lambda times: _study_index(times, fx["deform_by"]),
        [kind.value for kind in kinds])
    # the fifth-order run must first cross the threshold by deform_by
    fifth = arms[1]
    crossed = np.flatnonzero(fifth["scores"] > fx["deform_threshold"])
    checks["fpu5_deform_time"] = float(fifth["times"][crossed[0]]) if crossed.size else None
    checks["pass"] = bool(
        checks["gardner_max_score"] < fx["hold_bound"]
        and crossed.size > 0 and crossed[0] <= i_by)
    return StudyResult(dict(zip(kinds, arms)), checks, tables)


def _zabusky_kruskal_study(fx: dict) -> StudyResult:
    """Cosine initial data on [0, 2): KdV recurs toward the cosine, while
    the fifth-order equation scatters energy out of its modes and does not.
    Per arm, xcorr_mismatch gives ``recurrence_score``, the best match with
    u(0) inside recurrence_window, and ``figure_pair_score``, the mismatch
    between the snapshots at or before the two figure_times, all resolved
    through _span from the times of _schedule before any step.  DomainError
    refuses a window that holds t = 0 (u(0) matches itself: a zero KdV score
    and divisor), a window that holds no snapshot and a figure time beyond
    the run."""
    lo, hi = fx["recurrence_window"]
    kinds = (EquationKind.KDV, EquationKind.FPU5)
    rows = _rows([(kind, fx["mu"], fx[f"dt_{kind.value}"]) for kind in kinds],
                 InitialCondition("cosine"), Grid(fx["length"], fx["n"]),
                 fx["delta"], fx["t_end"], fx["snapshot_interval"])

    def resolve(times):
        in_window = _span(times, lo, hi)
        if not in_window:
            raise DomainError(f"recurrence_window ({lo:g}, {hi:g}) holds no "
                              f"snapshot of the run to t_end = {fx['t_end']:g}")
        if in_window[0] == 0:
            raise DomainError(f"recurrence_window ({lo:g}, {hi:g}) holds t = 0, "
                              "where u(0) matches itself")
        return in_window, *[_study_index(times, t) for t in fx["figure_times"]]

    (in_window, i_early, i_late), arms, checks, _ = _step_study(rows, resolve)
    snapshots = {}
    for kind, arm in zip(kinds, arms):
        run_snaps, times = arm["snapshots"], arm["times"]
        window_scores = [xcorr_mismatch(run_snaps[0].u, run_snaps[i].u)
                         for i in in_window]
        j = int(np.argmin(window_scores))
        arm.update(
            recurrence_score=window_scores[j],
            recurrence_time=float(times[in_window[j]]),
            figure_pair_score=xcorr_mismatch(run_snaps[i_early].u,
                                             run_snaps[i_late].u),
            figure_pair_times=(float(times[i_early]), float(times[i_late])))
        for key in ("recurrence_score", "figure_pair_score", "mass_drift"):
            checks[f"{kind.value}_{key}"] = arm[key]
        snapshots[f"snap_{kind.value}"] = [run_snaps[i_early], run_snaps[i_late]]
    kdv, fpu = checks["kdv_recurrence_score"], checks["fpu5_recurrence_score"]
    checks["contrast"] = fpu / kdv
    checks["pass"] = bool(kdv < fx["kdv_recurrence_bound"]
                          and fpu >= fx["contrast_factor"] * kdv)
    return StudyResult(dict(zip(kinds, arms)), checks, snapshots=snapshots)


def _recurrence_study(fx: dict) -> StudyResult:
    (config,) = _rows([(EquationKind.FPU5, fx["mu"], fx["dt"])],
                      InitialCondition("kdv5_soliton", k=fx["k"]),
                      Grid(fx["length"], fx["n"]), fx["delta"], fx["t_end"],
                      fx["snapshot_interval"])
    # the scan's and the table's refusals, before any step
    _, (arm,), _, _ = _step_study([config], lambda times: (
        _snapshot_index(times, fx["t_fix"], fx["scan_skip"]),
        _snapshot_index(times, fx["t_fix"], fx["table_skip"], later=True)))
    snapshots = arm["snapshots"]
    scan = recurrence_scan(snapshots, t_fix=fx["t_fix"], skip=fx["scan_skip"])
    rows, period = recurrence_table(snapshots, [fx["t_fix"]],
                                    skip=fx["table_skip"])
    tol = fx["tolerance"]
    checks = {"mass_drift": arm["mass_drift"], "scan_period": scan.period,
              "fixed_time_rows": rows, "fixed_time_period": period,
              "expected_first_minimum": fx["expected_first_minimum"],
              "expected_period": fx["expected_period"], "pass": bool(
                  abs(rows[0][1] - fx["expected_first_minimum"]) <= tol
                  and abs(period - fx["expected_period"]) <= tol)}
    return StudyResult(snapshots, checks, scan.difference_table())


# the one definition of each canned study: its EXPERIMENTS entry -> result
STUDIES = {
    "kink-validation": _kink_validation_study,
    "soliton-perturbation": _soliton_perturbation_study,
    "gardner": _gardner_study,
    "zabusky-kruskal": _zabusky_kruskal_study,
    "recurrence": _recurrence_study,
}
