"""The benchmark's own tests, on tiny versions of its workloads.

    python3 -m pytest bench/tests -q
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny(name):
    """Each workload cut to a handful of steps or a small series."""
    if name == "perturbation-pair":
        return workloads.PerturbationPair(t_end=5e-4)
    if name == "kink-validation":
        return workloads.KinkValidation(t_end=1.5e-3)
    if name == "kdv-zk":
        return workloads.KdvZk(t_end=2e-3)
    return workloads.RecurrenceAnalysis(seed=7, n=256, n_snap=45)


def test_spec_lists_the_metrics_the_runner_reports():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_reported_with_its_unit(name, trace):
    m = run.measure(tiny(name), seconds=0, trace=trace, min_iterations=1,
                    probe=lambda: 0.5)
    assert m["failed"] == 0, m["checks"]
    metrics = run.summarize(m, trace)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(metrics) == [s["name"] for s in spec]
    for s in spec:
        assert metrics[s["name"]]["unit"] == s["unit"]
        assert np.isfinite(metrics[s["name"]]["value"])
    if not trace:
        assert all(metrics[s["name"]]["value"] > 0 for s in spec)


def test_corrupted_readback_counts_as_failure(monkeypatch):
    read = workloads.snapio.read_snapshot

    def corrupted(path):
        snap, geometry = read(path)
        snap.u[3] = np.nextafter(snap.u[3], np.inf)
        return snap, geometry

    monkeypatch.setattr(workloads.snapio, "read_snapshot", corrupted)
    m = run.measure(tiny("recurrence-analysis"), seconds=0, trace=False,
                    min_iterations=1)
    assert (m["attempted"], m["failed"]) == (1, 1)
    assert not m["checks"]["readback_identical"]["ok"]


def test_wrong_expected_period_counts_as_failure():
    wl = tiny("recurrence-analysis")
    assert run.measure(wl, seconds=0, trace=False, min_iterations=1)["failed"] == 0
    wl.period *= 1.25
    m = run.measure(wl, seconds=0, trace=False, min_iterations=1)
    assert (m["attempted"], m["failed"]) == (1, 1)
    assert not m["checks"]["recurrence_offset"]["ok"]
