"""In-memory tracer that the benchmark wraps around the package's layers.

Two kinds of boundary are recorded:

* spans, for calls made a few times per workload iteration (``run``,
  ``recurrence_scan``, ``write_snapshots`` ...): each keeps its name, start,
  end, parent span and iteration number, and stays in memory until the
  benchmark writes them out;
* counters, for calls made once or more per time step (the FFTs, the
  tendency, ``IntegratingFactorRK4.step``): only call counts and busy time.

Both share one call stack, so every boundary also gets its self time, its
duration minus the time its traced children took.  Wrapping happens from
outside the package, by replacing module attributes that the package looks
up at call time, and is undone when ``instrument`` exits.
"""
from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    iteration: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.iteration = 0
        self.stats: dict[str, list[int]] = {}  # name -> [calls, busy_ns, self_ns]
        self.counts = defaultdict(int)         # bytes, rows, files ...
        self._stack: list[list] = []           # frames of [child_ns, span_id]
        self._next_id = 0
        self._origin = time.perf_counter_ns()

    def reset(self):
        """Zero the per-iteration aggregates; spans are kept."""
        for stat in self.stats.values():
            stat[:] = [0, 0, 0]
        self.counts.clear()

    def stat(self, name) -> list[int]:
        return self.stats.setdefault(name, [0, 0, 0])

    def wrap(self, name, fn, span=False, count=None):
        """Return fn wrapped as a traced boundary called ``name``.

        ``count(counts, args, kwargs, result)`` adds to ``self.counts``
        after each call, outside the timed interval.
        """
        stack = self._stack
        stat = self.stat(name)
        counts = self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = parent = None
            if span:
                span_id = self._next_id
                self._next_id += 1
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
            frame = [0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if span:
                    self.spans.append(Span(span_id, name, start - self._origin,
                                           end - self._origin, parent,
                                           self.iteration))
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
            fh.write("\n")


# ------------------------------------------------------------- layer map

def _fft_bytes(counts, args, kwargs, result):
    counts["fft_bytes"] += args[0].nbytes + result.nbytes


def _run_snapshots(counts, args, kwargs, result):
    counts["run_snapshots"] += len(result)


def _rolls_from_grid(counts, args, kwargs, result):
    # shape_score_series(snapshots, grid, ...) builds one N x N roll matrix
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    counts["rolls_bytes"] += grid.n * grid.n * 8


def _rolls_from_snapshots(counts, args, kwargs, result):
    # recurrence_scan(snapshots, ...) builds one from the t_fix snapshot
    snapshots = args[0] if args else kwargs["snapshots"]
    n = snapshots[0].u.size
    counts["rolls_bytes"] += n * n * 8


def _written(counts, args, kwargs, manifest):
    counts["snapio_files"] += len(manifest.files)
    counts["snapio_bytes"] += sum(os.path.getsize(p) for p in manifest.files)


def _read(counts, args, kwargs, result):
    counts["snapio_files"] += 1
    counts["snapio_bytes"] += os.path.getsize(args[0])


def _tendency_rows(counts, args, kwargs, result):
    u_hat = args[0]
    counts["tendency_rows"] += 1 if u_hat.ndim == 1 else u_hat.shape[0]


def _tendency_factory(tracer, make_operator):
    """Wrap make_nonlinear_operator so each operator it builds is traced
    under its equation kind, with the rows it was fed counted."""
    def factory(kind, params, grid):
        op = make_operator(kind, params, grid)
        return tracer.wrap(f"equations.tendency.{kind.value}", op,
                           count=_tendency_rows)
    return factory


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer boundary the benchmark reports on, then restore.

    The nonlinear operator binds the numpy.fft functions when it is built,
    so the FFT wrappers are installed before any run starts.
    """
    import numpy.fft as npfft

    from fpu5 import experiments, snapio, spectral

    points = [(npfft, name, dict(name="spectral.fft", count=_fft_bytes))
              for name in ("fft", "ifft", "rfft", "irfft")]
    points += [
        (spectral.IntegratingFactorRK4, "step", dict(name="spectral.step")),
        (experiments, "run", dict(name="experiments.run", span=True,
                                  count=_run_snapshots)),
        (experiments, "recurrence_scan",
         dict(name="experiments.recurrence_scan", span=True,
              count=_rolls_from_snapshots)),
        (experiments, "recurrence_table",
         dict(name="experiments.recurrence_table", span=True)),
        (experiments, "shape_score_series",
         dict(name="experiments.shape_score_series", span=True,
              count=_rolls_from_grid)),
        (experiments, "shape_score", dict(name="experiments.shape_score", span=True)),
        (experiments, "xcorr_mismatch",
         dict(name="experiments.xcorr_mismatch", span=True)),
        (experiments, "kink_eval", dict(name="solutions.eval", span=True)),
        (experiments, "kdv5_soliton", dict(name="solutions.eval", span=True)),
        (snapio, "write_snapshots", dict(name="snapio.write_snapshots", span=True,
                                         count=_written)),
        (snapio, "read_snapshot", dict(name="snapio.read_snapshot", span=True,
                                       count=_read)),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in points]
    saved.append((experiments, "make_nonlinear_operator",
                  experiments.make_nonlinear_operator))
    try:
        for obj, attr, opts in points:
            opts = dict(opts)
            setattr(obj, attr, tracer.wrap(opts.pop("name"), getattr(obj, attr), **opts))
        experiments.make_nonlinear_operator = _tendency_factory(
            tracer, experiments.make_nonlinear_operator)
        yield tracer
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)
