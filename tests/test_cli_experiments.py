"""Canned-study plumbing on scaled-down configurations, and the output
layout every CLI command shares.

The physical thresholds are exercised by the acceptance suite on the frozen
fixtures; here each study is driven end to end through the CLI on a cheap
variant to check the reporting and file layout.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from fpu5 import (EXPERIMENTS, STUDIES, DomainError, EquationKind, Grid,
                  InitialCondition, ModelParams, SimulationConfig, Snapshot,
                  kink_validation, run, run_batch)
from fpu5.cli import main

SMALL = {
    "kink-validation": dict(
        delta=0.6, mu=2.0, length=32.0, n=128, dt=5e-4,
        t_end=0.5, snapshot_interval=0.25, err_bound=6e-3),
    "soliton-perturbation": dict(
        delta=2.0, k=1.0, mus=(0.0, 0.05), length=46.75, n=64,
        dt=5e-4, t_end=1.0, snapshot_interval=0.5,
        invariance_bound=1e-2, destruction_threshold=1e-1, destruction_by=1.0),
    "gardner": dict(
        delta=1.0, mu=0.1, c0=1.0, length=40.0, n=64,
        t_end=1.0, snapshot_interval=0.5,
        dt_gardner=5e-3, dt_fpu5=1e-3,
        hold_bound=1e-2, deform_threshold=1e-1, deform_by=1.0),
    # stays before the cosine wave breaks; the delta=0.022 soliton scale is
    # not resolvable at this smoke-test grid
    "zabusky-kruskal": dict(
        delta=0.022, mu=1.0, length=2.0, n=64,
        t_end=0.25, snapshot_interval=0.05,
        dt_kdv=2e-4, dt_fpu5=1e-4,
        figure_times=(0.05, 0.2), recurrence_window=(0.1, 0.25),
        kdv_recurrence_bound=0.15, contrast_factor=3.0),
    "recurrence": dict(
        delta=2.0, mu=0.05, k=1.0, length=46.75, n=64,
        dt=5e-4, t_end=4.0, snapshot_interval=0.25,
        t_fix=0.5, table_skip=1.0, scan_skip=0.5,
        expected_first_minimum=27.25, expected_period=22.25, tolerance=0.5),
}


# per study: the files `fpu5 experiment` writes besides manifest.json, and
# the checks in the order the study reports them
LAYOUT = {
    "kink-validation": (
        ["err_vs_t.dat"],
        ["max_err", "err_bound", "pass"]),
    "soliton-perturbation": (
        ["score_vs_t_mu_0.05.dat", "score_vs_t_mu_0.dat",
         "snap_mu_0.05_0000.dat", "snap_mu_0_0000.dat"],
        ["mu_0_max_score", "mu_0_mass_drift", "mu_0.05_max_score",
         "mu_0.05_mass_drift", "pass"]),
    "gardner": (
        ["score_vs_t_fpu5.dat", "score_vs_t_gardner.dat"],
        ["gardner_max_score", "gardner_mass_drift", "fpu5_max_score",
         "fpu5_mass_drift", "fpu5_deform_time", "pass"]),
    "zabusky-kruskal": (
        ["snap_fpu5_0000.dat", "snap_fpu5_0001.dat",
         "snap_kdv_0000.dat", "snap_kdv_0001.dat"],
        ["kdv_recurrence_score", "kdv_figure_pair_score", "kdv_mass_drift",
         "fpu5_recurrence_score", "fpu5_figure_pair_score", "fpu5_mass_drift",
         "contrast", "pass"]),
    "recurrence": (
        ["difference_vs_t.dat"],
        ["mass_drift", "scan_period", "fixed_time_rows", "fixed_time_period",
         "expected_first_minimum", "expected_period", "pass"]),
}


def test_one_study_per_experiment():
    assert STUDIES.keys() == EXPERIMENTS.keys()
    assert SMALL.keys() == LAYOUT.keys() == EXPERIMENTS.keys()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_runner_reports_and_files(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(EXPERIMENTS, name, SMALL[name])
    out = tmp_path / name
    assert main(["experiment", name, "--out", str(out)]) == 0
    files, checks = LAYOUT[name]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == {"experiment": name, **json.loads(
        json.dumps(SMALL[name]))}
    assert manifest["files"] == [str(out / f) for f in files]
    assert sorted(p.name for p in out.iterdir()) == sorted(files + ["manifest.json"])
    # the manifest sorts its keys; the printed report keeps the study's order
    assert list(manifest["checks"]) == sorted(checks)
    printed = [line.split(": ", 1)[0]
               for line in capsys.readouterr().out.splitlines()]
    assert printed == checks
    assert isinstance(manifest["checks"]["pass"], bool)


KINK_CONFIG = (
    "kind = fpu5\ndelta = 0.6\nmu = 2.0\nL = 32\nN = 128\n"
    "t_end = 0.5\ndt = 5e-4\nsnapshot_interval = 0.25\n"
    "initial_condition = kink_pair\n")


def test_validate_cli(tmp_path):
    cfg = tmp_path / "v.cfg"
    cfg.write_text(KINK_CONFIG)
    out = tmp_path / "val"
    assert main(["validate", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checks"]["max_err"] < 1e-3
    errs = np.loadtxt(out / "err_vs_t.dat")[:, 1]
    assert manifest["checks"]["max_err"] == errs.max()
    # validate is kink_validation on the file's grid and schedule
    expected = kink_validation(ModelParams(0.6, 2.0), Grid(32.0, 128), 5e-4,
                               0.5, 0.25)
    assert manifest["checks"]["max_err"] == expected.max_err


@pytest.mark.parametrize("old, new, message", [
    ("kind = fpu5", "kind = kdv", "not kind = kdv with kink_pair"),
    ("initial_condition = kink_pair", "initial_condition = cosine",
     "not kind = fpu5 with cosine"),
])
def test_validate_rejects_other_runs(old, new, message, tmp_path, capsys):
    # validate always runs the FPU5 kink pair, so any other run is an error
    # rather than a report on something the config did not ask for
    cfg = tmp_path / "v.cfg"
    cfg.write_text(KINK_CONFIG.replace(old, new))
    out = tmp_path / "val"
    assert main(["validate", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fpu5_scores, deform_time, passes", [
    # crosses at t = 0.5 and dips back below the threshold at deform_by
    ([0.0, 0.02, 0.15, 0.12, 0.05], 0.5, True),
    # first crosses after deform_by
    ([0.0, 0.02, 0.05, 0.08, 0.09, 0.2], 1.25, False),
    ([0.0, 0.02, 0.05, 0.08, 0.09], None, False),
])
def test_gardner_passes_when_the_score_first_crosses_by_deform_by(
        fpu5_scores, deform_time, passes, monkeypatch):
    # the rule of acceptance criterion 07, not the score nearest deform_by;
    # each fake snapshot carries its preset score
    import fpu5.experiments as exps
    scores = {EquationKind.GARDNER: [0.0, 1e-3, 2e-3],
              EquationKind.FPU5: fpu5_scores}

    def fake_run_batch(configs):
        return [[Snapshot(0.25 * i, np.full(4, score))
                 for i, score in enumerate(scores[c.kind])] for c in configs]

    monkeypatch.setattr(exps, "run_batch", fake_run_batch)
    monkeypatch.setattr(exps, "shape_score_series",
                        lambda snapshots, grid: np.array([s.u[0] for s in snapshots]))
    checks = STUDIES["gardner"](SMALL["gardner"]).checks
    assert checks["fpu5_deform_time"] == deform_time
    assert checks["pass"] is passes


@pytest.mark.parametrize("name, ic, kinds", [
    ("gardner", InitialCondition("gardner_soliton", c0=1.0),
     [EquationKind.GARDNER, EquationKind.FPU5]),
    ("zabusky-kruskal", InitialCondition("cosine"),
     [EquationKind.KDV, EquationKind.FPU5]),
])
def test_contrast_study_steps_its_arms_in_one_batch_as_single_runs(
        name, ic, kinds, monkeypatch):
    import fpu5.experiments as exps
    fx = SMALL[name]
    batches = []

    def counted(configs):
        batches.append([c.kind for c in configs])
        return run_batch(configs)

    monkeypatch.setattr(exps, "run_batch", counted)
    arms = STUDIES[name](fx).arms
    assert batches == [kinds]
    assert list(arms) == kinds
    for kind, arm in arms.items():
        alone = run(SimulationConfig(
            kind=kind, params=ModelParams(fx["delta"], fx["mu"]),
            grid=Grid(fx["length"], fx["n"]), t_end=fx["t_end"],
            dt=fx[f"dt_{kind.value}"],
            snapshot_interval=fx["snapshot_interval"], initial_condition=ic))
        assert [s.t for s in arm["snapshots"]] == [s.t for s in alone]
        assert all(a.u.tobytes() == b.u.tobytes()
                   for a, b in zip(arm["snapshots"], alone))


def refuse_to_step(monkeypatch):
    """Make any run_batch call fail: a refusal must come before stepping."""
    import fpu5.experiments as exps

    def refuse(configs):
        raise AssertionError("run_batch called")

    monkeypatch.setattr(exps, "run_batch", refuse)


def test_zabusky_kruskal_rejects_an_empty_recurrence_window(monkeypatch):
    # window (0.1, 0.25) lies past a run cut to t_end = 0.05
    refuse_to_step(monkeypatch)
    fx = {**SMALL["zabusky-kruskal"], "t_end": 0.05}
    with pytest.raises(DomainError, match=r"\(0.1, 0.25\).*t_end = 0.05"):
        STUDIES["zabusky-kruskal"](fx)


# requests the run's schedule cannot answer, each refused before any step
@pytest.mark.parametrize("name, cut, match", [
    # both figure times would map to the last snapshot and score it
    # against itself
    ("zabusky-kruskal", {"t_end": 0.2, "recurrence_window": (0.1, 0.2)},
     r"study time 1.14 .* t_end = 0.2"),
    # the t = 1 score would stand in for the verdict at destruction_by = 17
    ("soliton-perturbation", {"t_end": 1.0}, r"study time 17 .* t_end = 1$"),
    # inside the run, but between the snapshots at 0 and 0.02
    ("zabusky-kruskal", {"t_end": 0.1, "figure_times": (0.02, 0.1),
                         "recurrence_window": (0.001, 0.002)},
     r"^recurrence_window \(0.001, 0.002\) holds no snapshot of the run to "
     r"t_end = 0.1$"),
    # interval 0.25: 0.3 is no snapshot time
    ("recurrence", {"t_end": 1.0, "t_fix": 0.3},
     r"^t_fix must be one of the snapshot times$"),
    # the frozen t_fix = 5 lies past the run
    ("recurrence", {"t_end": 1.0},
     r"^t_fix must be one of the snapshot times$"),
    # the scan would start at 2.5, past the run
    ("recurrence", {"t_end": 1.0, "t_fix": 0.5},
     r"^t_fix 0.5 has no snapshot at or after t_fix \+ skip \(skip 2\)$"),
    # the scan fits; the fixed-time table would start at 10.5
    ("recurrence", {"t_end": 1.0, "t_fix": 0.5, "scan_skip": 0.25},
     r"^t_fix 0.5 has no later snapshot at or after t_fix \+ skip "
     r"\(skip 10\)$"),
], ids=["zabusky-kruskal", "soliton-perturbation",
        "zabusky-kruskal-window-between-snapshots",
        "recurrence-t_fix-off-schedule", "recurrence-t_fix-beyond-run",
        "recurrence-scan_skip-past-run", "recurrence-table_skip-past-run"])
def test_a_study_time_beyond_the_run_is_refused(name, cut, match,
                                                 monkeypatch):
    refuse_to_step(monkeypatch)
    with pytest.raises(DomainError, match=match):
        STUDIES[name]({**EXPERIMENTS[name], **cut})


# each study cut to a few cheap snapshots; every t_end but kink-validation's
# is no whole number of intervals, so the schedule shortens the interval.
# On each horizon i * (t_end / n) and i * t_end / n differ for some i, so a
# second copy of the time rule that rounds otherwise would show here
SHORT = {
    "kink-validation": {"t_end": 0.3, "snapshot_interval": 0.05},
    "soliton-perturbation": {"t_end": 0.05, "snapshot_interval": 0.02,
                             "destruction_by": 0.03},
    "gardner": {"t_end": 0.13, "snapshot_interval": 0.03, "deform_by": 0.13},
    "zabusky-kruskal": {"t_end": 0.011, "snapshot_interval": 0.004,
                        "figure_times": (0.004, 0.011),
                        "recurrence_window": (0.005, 0.011)},
    "recurrence": {"t_end": 0.19, "snapshot_interval": 0.04, "t_fix": 0.038,
                   "scan_skip": 0.03, "table_skip": 0.03},
}


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_study_times_resolve_against_the_times_the_run_stores(name,
                                                              monkeypatch):
    # the times each study resolves against before stepping, the times
    # _snapshot_times gives for each run it steps and that run's snapshot
    # times are equal byte for byte
    import fpu5.experiments as exps
    resolved, stored, stepping = [], {}, []
    real_times, real_run_batch = exps._snapshot_times, exps.run_batch

    def recorded_times(config):
        times = real_times(config)
        if not stepping:
            resolved.append((repr(config), np.array(times)))
        return times

    def recorded_run_batch(configs):
        stepping.append(True)
        results = real_run_batch(configs)
        for config, snapshots in zip(configs, results):
            stored[repr(config)] = np.array([s.t for s in snapshots])
            assert stored[repr(config)].tobytes() == np.array(
                real_times(config)).tobytes()
        return results

    monkeypatch.setattr(exps, "_snapshot_times", recorded_times)
    monkeypatch.setattr(exps, "run_batch", recorded_run_batch)
    fx = {**EXPERIMENTS[name], **SHORT[name]}
    STUDIES[name](fx)
    # kink-validation and gardner resolve no study time
    assert bool(resolved) is (name not in ("kink-validation", "gardner"))
    for config, times in resolved:
        assert times.tobytes() == stored[config].tobytes()
    for times in stored.values():
        assert len(times) > 2 and times[-1] == pytest.approx(fx["t_end"])


def test_experiment_cli_refuses_an_off_schedule_t_fix_before_any_step(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(EXPERIMENTS, "recurrence",
                        {**SMALL["recurrence"], "t_fix": 0.3})
    refuse_to_step(monkeypatch)
    out = tmp_path / "rec"
    assert main(["experiment", "recurrence", "--out", str(out)]) == 2
    assert "t_fix must be one of the snapshot times" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("window", [(0.0, 0.2), (-0.1, 0.05), (-0.0, 0.0)])
def test_zabusky_kruskal_rejects_a_recurrence_window_holding_t_0(window):
    # u(0) would match itself: a zero KdV score and a zero divisor
    fx = {**EXPERIMENTS["zabusky-kruskal"], "t_end": 0.2,
          "recurrence_window": window}
    with pytest.raises(DomainError, match=r"holds t = 0"):
        STUDIES["zabusky-kruskal"](fx)


# every subcommand, with "{cfg}" a KINK_CONFIG file and "{sim}" the manifest
# of a simulate run of it; --out is appended
COMMANDS = {
    "simulate": ["simulate", "{cfg}"],
    "exact": ["exact", "kink", "--mu", "2", "--delta", "0.6", "--length", "32",
              "--n", "64", "--z0", "16"],
    "validate": ["validate", "{cfg}"],
    "recurrence": ["recurrence", "{sim}", "--t-fix", "0.0"],
    "painleve": ["painleve", "--mu", "1", "--delta", "1"],
    "velocity-curve": ["velocity-curve", "--mu-min", "0.2", "--mu-max", "0.35",
                       "-n", "5"],
    "experiment": ["experiment", "kink-validation"],
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_one_manifest_lists_what_the_command_wrote(command, tmp_path,
                                                    monkeypatch):
    monkeypatch.setitem(EXPERIMENTS, "kink-validation", SMALL["kink-validation"])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(KINK_CONFIG)
    sim = tmp_path / "sim"
    assert main(["simulate", str(cfg), "--out", str(sim)]) == 0
    out = tmp_path / "out"
    out.mkdir()
    stray = out / "stray_0000.dat"  # left in --out by an earlier run
    stray.write_text("# t=0 N=8 L=1\n")
    argv = [arg.format(cfg=cfg, sim=sim / "manifest.json")
            for arg in COMMANDS[command]]
    assert main(argv + ["--out", str(out)]) == 0
    assert [p.name for p in out.glob("*.json")] == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert np.isfinite(manifest["wall_time_seconds"])
    assert manifest["wall_time_seconds"] >= 0
    assert not {"func", "started"} & set(manifest["config"])
    files = manifest["files"]
    assert all(Path(f).is_file() for f in files)
    assert files == sorted(str(p) for p in out.iterdir()
                           if p not in (out / "manifest.json", stray))


def test_recurrence_rejects_an_experiment_with_two_series(tmp_path, monkeypatch,
                                                          capsys):
    # zabusky-kruskal stores a kdv and an fpu5 snapshot at each figure time
    monkeypatch.setitem(EXPERIMENTS, "zabusky-kruskal", SMALL["zabusky-kruskal"])
    out = tmp_path / "zk"
    assert main(["experiment", "zabusky-kruskal", "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = out / "manifest.json"
    assert main(["recurrence", str(manifest), "--t-fix", "0.05",
                 "--out", str(tmp_path / "rec")]) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and "two snapshots at t =" in err
    assert not (tmp_path / "rec").exists()
