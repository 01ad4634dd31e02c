import ast
import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from fpu5 import (EXPERIMENTS, ConfigError, DomainError, EquationKind,
                  GardnerSoliton, Grid, InitialCondition, IntegratingFactorRK4,
                  KdV5Soliton, ModelParams, SimulationConfig, Snapshot,
                  gardner_soliton, kdv5_soliton, parse_config, read_snapshot)
from fpu5 import cli
from fpu5.cli import main
from fpu5.experiments import IC_PARAMS, StudyResult
from fpu5.snapio import read_series, write_result, write_snapshots

MINIMAL = """\
kind = gardner
delta = 1.0
mu = 0.1
L = 40
N = 64
t_end = 1.0
dt = 0.005
"""

SOLITON_RUN = MINIMAL + """\
snapshot_interval = 0.5
initial_condition = gardner_soliton
ic_c0 = 1.0
"""

# every value rule a config file reaches, with a call of the type that owns it
VALUE_RULES = [
    pytest.param(MINIMAL.replace("N = 64", "N = 12"),
                 lambda: Grid(40.0, 12), id="N-12"),
    pytest.param(MINIMAL.replace("N = 64", "N = 4"),
                 lambda: Grid(40.0, 4), id="N-4"),
    pytest.param(MINIMAL + "initial_condition = cosine\nic_k = 1\n",
                 lambda: InitialCondition("cosine", k=1.0), id="ic_k-cosine"),
    pytest.param(MINIMAL + "initial_condition = kdv5_soliton\nic_c0 = 1\n",
                 lambda: InitialCondition("kdv5_soliton", c0=1.0),
                 id="ic_c0-kdv5_soliton"),
    pytest.param(MINIMAL + "initial_condition = gardner_soliton\n"
                 "ic_path = start.dat\n",
                 lambda: InitialCondition("gardner_soliton", path="start.dat"),
                 id="ic_path-gardner_soliton"),
    pytest.param(MINIMAL.replace("delta = 1.0", "delta = -1"),
                 lambda: ModelParams(-1.0, 0.1), id="delta"),
    pytest.param(MINIMAL.replace("mu = 0.1", "mu = -1"),
                 lambda: ModelParams(1.0, -1.0), id="mu"),
    pytest.param(MINIMAL.replace("L = 40", "L = 0"),
                 lambda: Grid(0.0, 64), id="L"),
    pytest.param(MINIMAL.replace("dt = 0.005", "dt = 0"),
                 lambda: dataclasses.replace(parse_config(MINIMAL), dt=0.0),
                 id="dt"),
    pytest.param(MINIMAL + "snapshot_interval = 0.001\n",
                 lambda: dataclasses.replace(parse_config(MINIMAL),
                                             snapshot_interval=0.001),
                 id="snapshot_interval"),
    pytest.param(MINIMAL + "initial_condition = elliptic\n",
                 lambda: InitialCondition("elliptic"), id="unknown-ic"),
]


class TestParseConfig:
    def test_minimal_defaults(self):
        config = parse_config(MINIMAL)
        assert config.dt == 0.005
        assert config.snapshot_interval is None
        assert config.initial_condition.name == "cosine"
        assert config.grid.n == 64

    def test_comments_and_blank_lines(self):
        config = parse_config("# leading comment\n\n" + SOLITON_RUN
                              + "\n# trailing\n")
        assert config.initial_condition.c0 == 1.0

    def test_non_power_of_two_rejected(self):
        # Grid owns the rule; parse_config passes N on
        bad = MINIMAL.replace("N = 64", "N = 500")
        with pytest.raises(DomainError,
                           match="^N must be a power of two and at least 8$"):
            parse_config(bad)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(MINIMAL + "delta = 2.0\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL + "viscosity = 1\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required"):
            parse_config("kind = kdv\ndelta = 1\nmu = 0\nL = 2\nN = 64\n")

    def test_missing_dt_is_refused(self):
        # every run names its time step; there is no default to fall back on
        with pytest.raises(ConfigError, match="missing required key 'dt'"):
            parse_config(MINIMAL.replace("dt = 0.005\n", ""))

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config(MINIMAL.replace("t_end = 1.0", "t_end = soon"))

    def test_bad_kind(self):
        with pytest.raises(ConfigError, match="kind must be one of"):
            parse_config(MINIMAL.replace("gardner", "burgers"))

    def test_mismatched_ic_parameter(self):
        # InitialCondition owns the rule; parse_config passes ic_k on
        with pytest.raises(DomainError,
                           match="^field k does not apply to cosine$"):
            parse_config(MINIMAL + "initial_condition = cosine\nic_k = 1\n")

    def test_elliptic_initial_condition_rejected(self):
        # the elliptic profile has real poles, so it is no initial condition
        # and ic_g3 is no key; `fpu5 exact elliptic` still tabulates it
        with pytest.raises(ConfigError, match="unknown key 'ic_g3'"):
            parse_config(MINIMAL + "ic_g3 = 0.15\n")
        with pytest.raises(DomainError, match="unknown initial condition"):
            parse_config(MINIMAL + "initial_condition = elliptic\n")

    @pytest.mark.parametrize("ic, attr", [(ic, attr) for ic, attr in IC_PARAMS.items()
                                          if attr is not None])
    def test_each_ic_field_is_a_key_of_its_own_condition_only(self, ic, attr):
        key = f"ic_{attr}"
        config = parse_config(MINIMAL + f"initial_condition = {ic}\n{key} = 0.5\n")
        assert str(getattr(config.initial_condition, attr)) == "0.5"
        value = getattr(config.initial_condition, attr)
        for other in IC_PARAMS:
            if other != ic:
                with pytest.raises(DomainError) as owner:
                    InitialCondition(other, **{attr: value})
                with pytest.raises(DomainError) as err:
                    parse_config(MINIMAL + f"initial_condition = {other}\n"
                                 f"{key} = 0.5\n")
                assert str(err.value) == str(owner.value)

    @pytest.mark.parametrize("line, message", [
        ("delta 2.0", "expected `key = value`"),
        ("initial_condition =", "empty value for 'initial_condition'")])
    def test_line_without_a_value_rejected(self, line, message):
        with pytest.raises(ConfigError, match=message) as err:
            parse_config(MINIMAL + line + "\n")
        assert err.value.line == MINIMAL.count("\n") + 1

    @pytest.mark.parametrize("text, owner", VALUE_RULES)
    def test_value_rules_raise_the_owners_error(self, text, owner):
        with pytest.raises(DomainError) as expected:
            owner()
        with pytest.raises(DomainError) as err:
            parse_config(text)
        assert str(err.value) == str(expected.value)

    def test_line_numbers_in_errors(self):
        try:
            parse_config("kind = kdv\nbogus = 1\n")
        except ConfigError as exc:
            assert exc.line == 2
        else:
            raise AssertionError("expected ConfigError")


class TestSnapshotIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = Grid(17.3, 64)
        snap = Snapshot(t=0.625, u=rng.standard_normal(grid.n) * 1e3)
        (path,) = write_snapshots([snap], grid, str(tmp_path / "snap")).files
        back, (n, length) = read_snapshot(path)
        assert n == grid.n
        assert length == grid.length
        assert back.t == snap.t
        assert np.array_equal(back.u, snap.u)
        # blank lines after the N rows are not data
        with open(path, "a") as fh:
            fh.write("\n \n")
        assert np.array_equal(read_snapshot(path)[0].u, snap.u)

    def test_manifest_lists_files_and_times(self, tmp_path):
        grid = Grid(10.0, 16)
        snaps = [Snapshot(t=float(i), u=np.zeros(grid.n)) for i in range(3)]
        manifest = write_snapshots(snaps, grid, str(tmp_path / "s"))
        assert manifest.files == [str(tmp_path / f"s_{i:04d}.dat")
                                  for i in range(3)]
        assert [read_snapshot(p)[0].t for p in manifest.files] == [0.0, 1.0, 2.0]
        # the files are all it writes: the CLI writes the one manifest.json
        assert sorted(map(str, tmp_path.iterdir())) == manifest.files

    def test_series_writer_refuses_an_empty_series(self, tmp_path):
        with pytest.raises(DomainError, match="^no snapshots to write$"):
            write_snapshots([], Grid(10.0, 16), str(tmp_path / "s"))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("bad", [
        np.zeros(5), np.zeros(20), np.zeros(16, dtype=complex),
        np.zeros((2, 16))])
    def test_series_writer_refuses_a_field_off_the_grid(self, tmp_path, bad):
        # every u is checked against the grid before the first file is made
        snaps = [Snapshot(t=0.0, u=np.zeros(16)), Snapshot(t=1.0, u=bad)]
        with pytest.raises(ValueError, match=r"s_0001\.dat: "):
            write_snapshots(snaps, Grid(10.0, 16), str(tmp_path / "s"))
        assert not list(tmp_path.iterdir())

    def test_writer_matches_per_row_format(self, tmp_path):
        rng = np.random.default_rng(4)
        grid = Grid(46.75, 128)
        snaps = [Snapshot(t=i / 3.0, u=rng.standard_normal(grid.n)
                          * 10.0 ** rng.integers(-300, 300, grid.n))
                 for i in range(3)]
        manifest = write_snapshots(snaps, grid, str(tmp_path / "s"))
        for snap, path in zip(snaps, manifest.files):
            expected = f"# t={snap.t:.16e} N={grid.n} L={grid.length:.16e}\n" + "".join(
                f"{x:.16e}\t{u:.16e}\n" for x, u in zip(grid.x, snap.u))
            assert Path(path).read_bytes() == expected.encode()

    @pytest.mark.parametrize("body, message", [
        ("", "truncated after 0 rows"),
        ("0.0\t1.0\n", "truncated after 1 rows"),
        ("0.0\t1.0\n\n0.0\t1.0\n", "malformed row 2"),
        ("0.0\t1.0\n0.0 1.0\n0.0\t1.0\n", "malformed row 2"),
        ("0.0\t1.0\t2.0\n0.0\t1.0\n0.0\t1.0\n", "malformed row 1"),
        ("0.0\t1.0\n0.0\t1.0\n0.0\tnan-ish\n", "malformed row 3"),
        ("0.0\t1.0\n" * 5, r"extra row 4 \(line 5\), header gives N=3"),
        ("0.0\t1.0\n" * 3 + "\n0.0\t1.0\n",
         r"extra row 5 \(line 6\), header gives N=3"),
    ])
    def test_bad_body_raises_config_error(self, tmp_path, body, message):
        path = tmp_path / "bad.dat"
        path.write_text("# t=0.0 N=3 L=1.0\n" + body)
        with pytest.raises(ConfigError, match=message) as err:
            read_snapshot(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("header", [
        "t=0.0 N=3 L=1.0", "# t=0.0 L=1.0", "# t=zero N=3 L=1.0", "# t",
        "# t=0.0 N=-2 L=1.0", "# t=0.0 N=0 L=1.0", "# t=nan N=3 L=1.0",
        "# t=0.0 N=3 L=-1.0", "# t=0.0 N=3 L=inf"])
    def test_bad_header_raises_config_error(self, tmp_path, header):
        path = tmp_path / "bad.dat"
        path.write_text(header + "\n" + "0.0\t1.0\n" * 3)
        with pytest.raises(ConfigError, match="snapshot header") as err:
            read_snapshot(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_raises_config_error(self, tmp_path, value):
        rows = ["0.0\t1.0"] * 8
        rows[3] = f"3.0\t{value}"
        path = tmp_path / "bad.dat"
        path.write_text("# t=0.0 N=8 L=8.0\n" + "\n".join(rows) + "\n")
        with pytest.raises(ConfigError, match=r"non-finite u in row 4 \(line 5\)") \
                as err:
            read_snapshot(path)
        assert str(path) in str(err.value)

    def test_result_round_trips_through_its_manifest(self, tmp_path):
        rng = np.random.default_rng(6)
        grid = Grid(46.75, 64)
        snaps = [Snapshot(t=0.25 * i, u=rng.standard_normal(grid.n))
                 for i in range(3)]
        out = tmp_path / "out"
        files = write_result(out, time.monotonic(), {"N": 64},
                             StudyResult(snaps, {"answer": 1.5},
                                         snapshots={"s": snaps[::-1]}), grid)
        assert files == [str(out / f"s_{i:04d}.dat") for i in range(3)]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == files
        assert manifest["config"] == {"N": 64}
        assert manifest["checks"] == {"answer": 1.5}
        back, geometry = read_series(out / "manifest.json")
        assert geometry == (grid.n, grid.length)
        assert [s.t for s in back] == [s.t for s in snaps]
        assert all(b.u.tobytes() == s.u.tobytes() for b, s in zip(back, snaps))

    def test_refused_series_leaves_no_directory(self, tmp_path):
        grid = Grid(10.0, 16)
        snaps = [Snapshot(t=0.0, u=np.zeros(grid.n)),
                 Snapshot(t=float("inf"), u=np.zeros(grid.n))]
        out = tmp_path / "out"
        with pytest.raises(DomainError, match="snapshot time must be finite"):
            write_result(out, time.monotonic(), {}, StudyResult(
                snaps, {}, {"t.dat": ("t", [(0.0,)])}, {"s": snaps}), grid)
        assert not out.exists()

    @pytest.mark.parametrize("bad", [
        np.zeros(5), np.zeros(20), np.zeros(16, dtype=complex),
        np.zeros((2, 16))])
    def test_series_off_the_grid_leaves_no_directory(self, tmp_path, bad):
        grid = Grid(10.0, 16)
        snaps = [Snapshot(t=0.0, u=np.zeros(grid.n)), Snapshot(t=1.0, u=bad)]
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=r"s_0001\.dat: "):
            write_result(out, time.monotonic(), {}, StudyResult(
                snaps, {}, {"t.dat": ("t", [(0.0,)])}, {"s": snaps}), grid)
        assert not out.exists()

    def test_series_writer_keeps_non_finite_values(self, tmp_path):
        # the exact elliptic solutions write nan at masked poles on purpose
        grid = Grid(10.0, 16)
        u = np.zeros(grid.n)
        u[3], u[4] = np.nan, np.inf
        (path,) = write_snapshots([Snapshot(t=0.0, u=u)], grid,
                                  str(tmp_path / "s")).files
        lines = Path(path).read_text().splitlines()
        assert lines[4].endswith("\tnan") and lines[5].endswith("\tinf")

    def test_zero_snapshot_format(self, tmp_path):
        grid = Grid(10.0, 16)
        (path,) = write_snapshots([Snapshot(t=0.0, u=np.zeros(grid.n))], grid,
                                  str(tmp_path / "z")).files
        lines = Path(path).read_text().splitlines()
        assert lines[0].startswith("# t=")
        assert len(lines) == 1 + grid.n
        assert "0.0000000000000000e+00" in lines[1]


class TestCli:
    def write_config(self, tmp_path, text=SOLITON_RUN):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        return cfg

    def test_simulate_writes_snapshots_and_manifest(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["checks"]["mass_drift"] < 1e-10
        for path in manifest["files"]:
            assert Path(path).exists()

    def test_simulate_deterministic(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", str(cfg), "--out", str(out1)])
        main(["simulate", str(cfg), "--out", str(out2)])
        for name in ("snap_0000.dat", "snap_0001.dat", "snap_0002.dat"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_simulate_zero_horizon_single_file(self, tmp_path):
        cfg = self.write_config(
            tmp_path, SOLITON_RUN.replace("t_end = 1.0", "t_end = 0.0"))
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        snaps = sorted(out.glob("snap_*.dat"))
        assert len(snaps) == 1

    def test_simulate_horizon_far_below_the_interval(self, tmp_path):
        cfg = self.write_config(tmp_path, MINIMAL.replace("gardner", "kdv")
                                .replace("t_end = 1.0", "t_end = 1e-12")
                                + "snapshot_interval = 1\n")
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        assert len(sorted(out.glob("snap_*.dat"))) == 2

    def test_painleve_output(self, tmp_path, capsys):
        out = tmp_path / "pl"
        assert main(["painleve", "--mu", "1", "--delta", "1",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "does not pass" in text
        assert "2.5+1.32288i" in text
        assert "-1" in text
        checks = json.loads((out / "manifest.json").read_text())["checks"]
        assert checks["passes"] is False
        assert checks["reason"] == "complex Fuchs indices"

    def test_velocity_curve_crosses_zero(self, tmp_path, capsys):
        out = tmp_path / "vc"
        assert main(["velocity-curve", "--mu-min", "0.2", "--mu-max", "0.35",
                     "-n", "31", "--out", str(out)]) == 0
        rows = np.loadtxt(out / "velocity_curve.dat")
        signs = np.sign(rows[:, 1])
        assert signs[0] > 0 and signs[-1] < 0

    def test_exact_kink_tabulation(self, tmp_path):
        out = tmp_path / "exact"
        assert main(["exact", "kink", "--mu", "2", "--delta", "0.6",
                     "--length", "32", "--n", "64", "--z0", "16",
                     "--out", str(out)]) == 0
        snap, (n, length) = read_snapshot(out / "exact_kink_0000.dat")
        assert n == 64 and length == 32.0
        assert snap.u[32] == pytest.approx(0.25, rel=1e-12)  # 1/(2 mu) at z0

    @pytest.mark.parametrize("family", ["gardner", "kdv5"])
    def test_exact_soliton_tabulation(self, tmp_path, family):
        # each soliton is centred at L/2 at t = 0
        params = ModelParams(delta=1.3, mu=0.1)
        if family == "gardner":
            s = GardnerSoliton(params, c0=1.0)
            profile, option, checks = gardner_soliton, ["--c0", "1"], {
                "speed": 1.0}
        else:
            s = KdV5Soliton(k=0.8, delta=1.3)
            profile, option, checks = kdv5_soliton, ["--k", "0.8"], {
                "speed": -s.speed, "crest": s.crest}
        out = tmp_path / family
        assert main(["exact", family, *option, "--mu", "0.1", "--delta",
                     "1.3", "--t", "0.75", "--length", "30", "--n", "64",
                     "--out", str(out)]) == 0
        snap, _ = read_snapshot(out / f"exact_{family}_0000.dat")
        expected = profile(s, Grid(30.0, 64).x - 15.0, 0.75)
        assert snap.t == 0.75 and snap.u.tobytes() == expected.tobytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["checks"] == {**checks, "snapshot_times": [0.75]}

    def test_exact_elliptic_via_speed(self, tmp_path):
        out = tmp_path / "ell"
        assert main(["exact", "elliptic", "--mu", "0.5", "--delta", "1",
                     "--c0", "5", "--length", "10", "--n", "64",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["checks"]["speed"] == pytest.approx(5.0)

    def test_recurrence_subcommand(self, tmp_path):
        cfg = self.write_config(tmp_path, SOLITON_RUN.replace(
            "t_end = 1.0", "t_end = 3.0"))
        out = tmp_path / "sim"
        main(["simulate", str(cfg), "--out", str(out)])
        rec_out = tmp_path / "rec"
        assert main(["recurrence", str(out / "manifest.json"), "--t-fix",
                     "0.0", "--skip", "0", "--out", str(rec_out)]) == 0
        checks = json.loads((rec_out / "manifest.json").read_text())["checks"]
        assert checks["t_fix"] == 0.0
        assert checks["grid"] == {"N": 64, "L": 40.0}
        # even with no skip the fixed-time row matches a later snapshot
        t_fix, t_match, gap, _ = checks["fixed_time_rows"][0]
        assert t_fix == 0.0 and t_match > t_fix and gap > 0.0
        table = np.loadtxt(rec_out / "difference_vs_t.dat")
        assert table.shape[1] == 3

    def test_recurrence_rejects_a_t_fix_without_a_later_snapshot(
            self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)  # snapshots at t = 0, 0.5, 1
        out = tmp_path / "sim"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        assert main(["recurrence", str(out / "manifest.json"), "--t-fix",
                     "0.5", "--skip", "0.75",
                     "--out", str(tmp_path / "rec")]) == 2
        err = capsys.readouterr().err
        assert "t_fix 0.5 " in err and "skip 0.75" in err
        assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize("option, value", [
        ("--t-fix", "-inf"), ("--t-fix", "inf"), ("--t-fix", "nan"),
        ("--skip", "-1"), ("--skip", "inf"), ("--skip", "nan")])
    def test_recurrence_rejects_a_bad_t_fix_or_skip(self, tmp_path, capsys,
                                                    option, value):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "sim"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        args = {"--t-fix": "0.0", "--skip": "0.0", option: value}
        assert main(["recurrence", str(out / "manifest.json"),
                     *(f"{k}={v}" for k, v in args.items()),
                     "--out", str(tmp_path / "rec")]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "rec").exists()

    def test_recurrence_reads_files_beside_the_manifest(self, tmp_path,
                                                        monkeypatch):
        cfg = self.write_config(tmp_path)
        (tmp_path / "other").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", str(cfg), "--out", "rel/sim"]) == 0
        monkeypatch.chdir(tmp_path / "other")
        assert main(["recurrence", "../rel/sim/manifest.json", "--t-fix", "0.0",
                     "--out", "rec"]) == 0
        assert (tmp_path / "other" / "rec" / "difference_vs_t.dat").exists()

    def test_recurrence_rejects_snapshots_on_two_grids(self, tmp_path, capsys):
        files = []
        for i, n in enumerate((16, 32)):
            files += write_snapshots([Snapshot(t=float(i), u=np.zeros(n))],
                                     Grid(10.0, n), str(tmp_path / f"s{i}")).files
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"files": files}))
        assert main(["recurrence", str(manifest), "--t-fix", "0.0",
                     "--out", str(tmp_path / "rec")]) == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and "not one snapshot series" in err
        assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize("body", ['{"checks": {}}', '["snap_0000.dat"]',
                                      '{"files": []}'])
    def test_recurrence_rejects_a_manifest_without_files(self, tmp_path,
                                                         capsys, body):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(body)
        assert main(["recurrence", str(manifest), "--t-fix", "0.0",
                     "--out", str(tmp_path / "rec")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(manifest) in err

    @pytest.mark.parametrize("key, value", [
        ("t_end", "nan"), ("t_end", "inf"), ("dt", "inf"),
        ("snapshot_interval", "inf"), ("mu", "nan"), ("mu", "inf"),
        ("delta", "inf"), ("L", "inf")])
    def test_non_finite_run_input_exits_2(self, tmp_path, capsys, key, value):
        lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
                 for line in SOLITON_RUN.splitlines()]
        cfg = self.write_config(tmp_path, "\n".join(lines) + "\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "{cfg}"],  # initial_condition = kdv5_soliton, ic_k = inf
        ["exact", "kdv5", "--k", "inf", "--n", "16"],
        ["exact", "kink", "--z0", "nan", "--n", "16"],
        ["exact", "elliptic", "--g3", "inf", "--n", "16"],
        ["exact", "kink", "--t", "inf", "--n", "16"],
    ], ids=["ic_k", "kdv5-k", "kink-z0", "elliptic-g3", "kink-t"])
    def test_non_finite_closed_form_input_exits_2(self, tmp_path, capsys, argv):
        cfg = self.write_config(tmp_path, MINIMAL + "initial_condition = "
                                "kdv5_soliton\nic_k = inf\n")
        out = tmp_path / "out"
        assert main([arg.format(cfg=cfg) for arg in argv]
                    + ["--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.dat"))

    @pytest.mark.parametrize("argv, fault", [
        (["painleve", "--mu", "5e-324", "--delta", "1"], "OverflowError"),
        (["painleve", "--mu", "1", "--delta", "1e300"], "OverflowError"),
        (["exact", "kdv5", "--k", "1e200", "--n", "16"], "OverflowError"),
        (["exact", "kink", "--mu", "5e-324", "--n", "16"], "ZeroDivisionError"),
        (["simulate", "{cfg}"], "OverflowError"),  # kind = kdv, delta = 1e200
    ], ids=["painleve-mu", "painleve-delta", "kdv5-k", "kink-mu", "simulate"])
    def test_arithmetic_fault_on_finite_input_exits_2(self, tmp_path, capsys,
                                                      argv, fault):
        cfg = self.write_config(tmp_path, MINIMAL.replace("gardner", "kdv")
                                .replace("delta = 1.0", "delta = 1e200"))
        out = tmp_path / "out"
        assert main([arg.format(cfg=cfg) for arg in argv]
                    + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {fault}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("option", [["--g3", "1e200"], ["--c0", "1e300"]])
    def test_elliptic_invariants_past_a_double_exit_2(self, tmp_path, capsys,
                                                      option):
        out = tmp_path / "out"
        assert main(["exact", "elliptic", *option, "--n", "16",
                     "--out", str(out)]) == 2
        assert "not a finite double" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["exact", "kink", "--mu", "1e300", "--n", "16"],
         "kink steepness is not a finite double at mu = 1e+300, delta = 1"),
        (["exact", "kink", "--delta", "5e-324", "--n", "16"],
         "kink steepness is not a finite double at mu = 1, delta = 4.94066e-324"),
        (["exact", "gardner", "--c0", "0.1", "--delta", "1e-160", "--n", "16"],
         "soliton width sqrt(C0)/delta is not a finite double at C0 = 0.1, "
         "delta = 1e-160"),
        (["velocity-curve", "--mu-min", "1e-320", "--mu-max", "1e-310",
          "-n", "3"], "kink speed is not a finite double at mu = "),
        # the kink pair of a run at mu = 1e300: a domain fault, not a blow-up
        (["validate", "{cfg}"],
         "kink steepness is not a finite double at mu = 1e+300, delta = 1"),
    ], ids=["kink-mu", "kink-delta", "gardner-delta", "velocity-curve",
            "validate"])
    def test_a_derived_constant_past_a_double_exits_2(self, tmp_path, capsys,
                                                      argv, message):
        cfg = self.write_config(tmp_path, MINIMAL.replace("gardner", "fpu5")
                                .replace("mu = 0.1", "mu = 1e300")
                                + "initial_condition = kink_pair\n")
        out = tmp_path / "out"
        assert main([arg.format(cfg=cfg) for arg in argv]
                    + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    def test_elliptic_without_g3_or_c0_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["exact", "elliptic", "--mu", "1", "--delta", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: elliptic needs --g3 or --c0\n"
        assert not out.exists()

    def test_initial_file_with_a_nan_exits_2_naming_the_row(self, tmp_path,
                                                             capsys):
        grid = Grid(40.0, 64)
        u = np.zeros(grid.n)
        u[7] = np.nan
        (path,) = write_snapshots([Snapshot(t=0.0, u=u)], grid,
                                  str(tmp_path / "start")).files
        cfg = self.write_config(tmp_path, MINIMAL + "initial_condition = "
                                f"from_file\nic_path = {path}\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: non-finite u in row 8 (line 9)" in err

    def test_refused_snapshot_write_makes_no_out_directory(self, tmp_path,
                                                           capsys):
        out = tmp_path / "ek"
        assert main(["exact", "kink", "--t", "inf", "--n", "16",
                     "--out", str(out)]) == 2
        assert "snapshot time must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, owner", VALUE_RULES)
    def test_value_fault_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                    text, owner):
        with pytest.raises(DomainError) as expected:
            owner()
        cfg = self.write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {expected.value}\n"
        assert not out.exists()

    def test_unknown_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code != 0

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_config_without_dt_exits_2_and_writes_nothing(self, tmp_path,
                                                          capsys, command):
        cfg = self.write_config(tmp_path, MINIMAL.replace("dt = 0.005\n", ""))
        out = tmp_path / "out"
        assert main([command, str(cfg), "--out", str(out)]) == 2
        assert "missing required key 'dt'" in capsys.readouterr().err
        assert not out.exists()

    def test_zabusky_kruskal_kdv_config_without_dt_takes_no_step(
            self, tmp_path, capsys, monkeypatch):
        # a step picked from max|u0| (1.82e-3) blows this arm up at t = 3.94,
        # so a run that names no dt must be refused before its first step
        def refuse(self, u_hat):
            raise AssertionError("stepped")

        monkeypatch.setattr(IntegratingFactorRK4, "step", refuse)
        fx = EXPERIMENTS["zabusky-kruskal"]
        cfg = self.write_config(tmp_path, (
            f"kind = kdv\ndelta = {fx['delta']}\nmu = {fx['mu']}\n"
            f"L = {fx['length']}\nN = {fx['n']}\nt_end = {fx['t_end']}\n"
            f"snapshot_interval = {fx['snapshot_interval']}\n"))
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 2
        assert "missing required key 'dt'" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(DomainError, match="dt is required"):
            SimulationConfig(
                kind=EquationKind.KDV, params=ModelParams(fx["delta"], fx["mu"]),
                grid=Grid(fx["length"], fx["n"]), t_end=fx["t_end"], dt=None,
                snapshot_interval=fx["snapshot_interval"],
                initial_condition=InitialCondition("cosine"))

    def test_bad_config_exits_nonzero(self, tmp_path):
        cfg = self.write_config(tmp_path, MINIMAL.replace("N = 64", "N = 77"))
        assert main(["simulate", str(cfg)]) != 0

    def test_missing_file_exits_nonzero(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.cfg")]) != 0

    def test_exact_requires_parameters(self, tmp_path):
        assert main(["exact", "gardner", "--out", str(tmp_path / "g")]) != 0


# calls that make, move or publish a file or a directory (shutil.copy is
# left out: its name is also ndarray.copy)
FILE_MAKING = {"mkdir", "makedirs", "mkdtemp", "mkstemp", "NamedTemporaryFile",
               "TemporaryDirectory", "TemporaryFile", "touch", "replace",
               "rename", "renames", "link", "symlink", "copyfile", "copy2",
               "copytree", "move"}
# The one allowance: the kernel loader caches the compiled tendency.  That
# library is a build artifact, not a data format, so _native may make its
# cache directory and a unique temporary file for the compiler to write,
# and publish that file with os.replace.  It opens, writes and parses nothing
# itself, and it is the only module that runs the compiler or uses ctypes.
BUILD_CACHE = {"_native.py": {"makedirs", "mkstemp", "replace"}}


@pytest.mark.parametrize("module", sorted(
    path.name for path in Path(cli.__file__).parent.glob("*.py")
    if path.name != "snapio.py"))
def test_only_snapio_writes_files_or_parses_json(module):
    # snapio owns every file format: no other module parses JSON or opens,
    # writes or makes a file (the CLI only reads a config's text)
    tree = ast.parse((Path(cli.__file__).parent / module).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    called = {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
              for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, (ast.Name, ast.Attribute))}
    allowed = BUILD_CACHE.get(module, set())
    assert "json" not in imported
    assert not ({"open", "write_text", "write_bytes"} | FILE_MAKING - allowed) & called
    if module not in BUILD_CACHE:
        assert not {"ctypes", "subprocess"} & imported
        assert not {"CDLL", "system", "popen"} & called
