import dataclasses
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpu5 import (ETDRK4, EXPERIMENTS, BlowUpError, DomainError, EquationKind,
                  Grid, InitialCondition, IntegratingFactorRK4, ModelParams,
                  SimulationConfig, err_metric, kink_validation,
                  linear_symbol, make_nonlinear_operator, mass_drift,
                  recurrence_scan, recurrence_table, run, run_batch,
                  shape_score, write_snapshot, xcorr_mismatch)
from fpu5.experiments import (Snapshot, _schedule, _snapshot_times,
                              build_initial_condition, min_shift_difference)
from fpu5.spectral import derivative_multiplier


def small_config(**overrides):
    base = dict(
        kind=EquationKind.GARDNER,
        params=ModelParams(delta=1.0, mu=0.1),
        grid=Grid(40.0, 64),
        t_end=1.0,
        dt=0.005,
        snapshot_interval=0.5,
        initial_condition=InitialCondition("gardner_soliton", c0=1.0))
    base.update(overrides)
    return SimulationConfig(**base)


class TestConfigValidation:
    def test_unknown_initial_condition(self):
        with pytest.raises(DomainError):
            InitialCondition("wedge")

    def test_missing_ic_parameter(self):
        with pytest.raises(DomainError):
            InitialCondition("kdv5_soliton")

    def test_extraneous_ic_parameter(self):
        with pytest.raises(DomainError):
            InitialCondition("cosine", k=1.0)

    def test_negative_t_end(self):
        with pytest.raises(DomainError):
            small_config(t_end=-1.0)

    def test_dt_is_required(self):
        with pytest.raises(DomainError, match="dt is required"):
            small_config(dt=None)
        with pytest.raises(DomainError, match="dt is required"):
            kink_validation(ModelParams(0.6, 2.0), Grid(64.0, 256), None, 1.0)

    def test_snapshot_interval_below_dt(self):
        with pytest.raises(DomainError):
            small_config(dt=0.1, snapshot_interval=0.05)

    def test_cosine_needs_an_even_integer_length(self):
        # cos(pi x) is periodic on [0, L) only for an even integer L; at
        # L = 46.75 its periodic extension jumps by 1.7 at the seam
        for length in (46.75, 3.0, 2.5):
            config = small_config(grid=Grid(length, 64), t_end=0.0,
                                  initial_condition=InitialCondition("cosine"))
            with pytest.raises(DomainError, match=f"L = {length}"):
                run(config)
        for length in (2.0, 40.0, 0.1 * 3 * 20):  # the last is 6 + 1 ulp
            config = small_config(grid=Grid(length, 64), t_end=0.0,
                                  initial_condition=InitialCondition("cosine"))
            assert np.array_equal(run(config)[0].u, np.cos(np.pi * config.grid.x))


class TestRun:
    def test_zero_horizon_returns_initial_state(self):
        config = small_config(t_end=0.0)
        snaps = run(config)
        assert len(snaps) == 1
        assert snaps[0].t == 0.0
        expected = build_initial_condition(config)
        assert np.array_equal(snaps[0].u, expected)

    def test_snapshot_times(self):
        snaps = run(small_config())
        assert [s.t for s in snaps] == pytest.approx([0.0, 0.5, 1.0])

    def test_horizon_far_below_the_interval_takes_one_interval(self):
        # t_end / interval = 1e-12 rounds to no interval at all; the run
        # still takes one, of length t_end, in one step
        config = small_config(kind=EquationKind.KDV, t_end=1e-12, dt=1e-3,
                              snapshot_interval=1.0)
        assert _schedule(config) == (1e-12, 1, 1)
        snaps = run(config)
        assert [s.t for s in snaps] == [0.0, 1e-12]
        assert np.all(np.isfinite(snaps[1].u))

    def test_zero_field_is_fixed_point(self, tmp_path):
        from fpu5 import write_snapshot
        grid = Grid(40.0, 64)
        path = tmp_path / "zero.dat"
        write_snapshot(path, Snapshot(t=0.0, u=np.zeros(grid.n)), grid)
        config = small_config(
            kind=EquationKind.FPU5,
            initial_condition=InitialCondition("from_file", path=str(path)))
        snaps = run(config)
        assert max(np.max(np.abs(s.u)) for s in snaps) == 0.0

    def test_mass_conserved(self):
        snaps = run(small_config(kind=EquationKind.FPU5, dt=1e-3))
        assert mass_drift(snaps) < 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_reported_with_step_and_last_snapshot(self):
        config = small_config(
            kind=EquationKind.FPU5,
            params=ModelParams(delta=2.0, mu=0.0),
            grid=Grid(40.0, 128),
            initial_condition=InitialCondition("kdv5_soliton", k=1.0),
            dt=0.05, t_end=5.0, snapshot_interval=0.5)
        with pytest.raises(BlowUpError) as err:
            run(config)
        assert err.value.step is not None and err.value.step > 0
        assert err.value.last_snapshot is not None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scheme, dt, t_end",
                             [(IntegratingFactorRK4, 0.008, 2.0),
                              (ETDRK4, 0.02, 4.0)])
    def test_blow_up_found_by_replay_matches_per_step_check(self, scheme, dt,
                                                            t_end):
        # run() checks finiteness once per snapshot and replays a bad
        # interval; a loop that checks after every step must agree on the
        # step, the time and the last finite snapshot
        config = small_config(
            kind=EquationKind.FPU5, params=ModelParams(delta=2.0, mu=0.0),
            grid=Grid(40.0, 64),
            initial_condition=InitialCondition("kdv5_soliton", k=1.0),
            dt=dt, t_end=t_end, snapshot_interval=10 * dt, scheme=scheme)
        step, t, last, steps_per = per_step_blow_up(config)
        assert steps_per >= 10
        assert step > steps_per and step % steps_per != 0
        with pytest.raises(BlowUpError) as err:
            run(config)
        assert (err.value.step, err.value.t) == (step, t)
        assert same_snapshots([err.value.last_snapshot], [last])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", [EquationKind.KDV, EquationKind.GARDNER])
    def test_mu_zero_blow_up_matches_the_general_formula(self, kind):
        # the operator shortens (mu u) u - u to mu - u when mu = 0; a loop
        # stepped by the general formula, built here, must fail at the same
        # step, at the same time and after the same last snapshot
        config = small_config(
            kind=kind, params=ModelParams(delta=2.0, mu=0.0),
            initial_condition=InitialCondition("kdv5_soliton", k=1.0),
            dt=0.3, t_end=20.0, snapshot_interval=3.0)
        grid = config.grid
        mult = np.stack([np.ones(grid.n // 2 + 1, dtype=complex),
                         derivative_multiplier(grid, 1)])

        def general(u_hat):
            u, ux = np.fft.irfft(u_hat[None, :] * mult, grid.n)
            out = np.fft.rfft((0.0 * u * u - u) * ux)
            out *= grid.dealias
            out[0] = 0.0
            return out

        step, t, last, steps_per = per_step_blow_up(config, general)
        assert step > steps_per and step % steps_per != 0
        with pytest.raises(BlowUpError) as err:
            run(config)
        assert (err.value.step, err.value.t) == (step, t)
        assert same_snapshots([err.value.last_snapshot], [last])

    def test_elliptic_is_not_an_initial_condition(self):
        # its poles lie on the real line for every parameter choice, so it
        # could never start a run; `fpu5 exact elliptic` still tabulates it
        with pytest.raises(DomainError):
            InitialCondition("elliptic")
        with pytest.raises(TypeError):
            InitialCondition("cosine", g3=0.15)


class TestSchedule:
    # (snapshot interval, requested dt, steps per snapshot): the fewest
    # steps whose size does not exceed dt; whole ratios keep their counts
    # when interval / dt rounds above them (0.07 / 0.01 = 7.000000000000001)
    @pytest.mark.parametrize("interval, dt, steps", [
        (1.4, 1.0, 2), (1.0, 1.0, 1), (0.5, 0.3, 2), (0.5, 1.5e-4, 3334),
        (0.5, 1e-4, 5000), (0.25, 1e-4, 2500), (0.25, 2.5e-4, 1000),
        (0.25, 5e-3, 50), (0.02, 2e-4, 100), (0.02, 2e-5, 1000),
        (0.1, 0.1 / 3, 3), (0.07, 0.01, 7), (0.28, 0.02, 14)])
    def test_step_never_exceeds_requested_dt(self, interval, dt, steps):
        config = small_config(dt=dt, snapshot_interval=interval, t_end=interval)
        snap_dt, steps_per, n_snap = _schedule(config)
        assert (snap_dt, n_snap) == (interval, 1)
        assert steps_per == steps
        assert snap_dt / steps_per <= dt * (1 + 1e-9)
        if steps_per > 1:
            assert snap_dt / (steps_per - 1) > dt

    # 0.7 is 1.4 intervals, so the run takes two of 0.35
    @pytest.mark.parametrize("t_end", [0.0, 1e-12, 0.7, 1.0])
    def test_snapshot_times_are_the_stored_times(self, t_end):
        config = small_config(t_end=t_end)
        stored = [s.t for s in run(config)]
        assert np.array(_snapshot_times(config)).tobytes() == \
            np.array(stored).tobytes()


def l2_drift(snapshots):
    """Largest relative change of sum(u^2) from the first snapshot."""
    sq = np.array([np.dot(s.u, s.u) for s in snapshots])
    return np.max(np.abs(sq - sq[0])) / sq[0]


class TestL2Conservation:
    # every term of the four equations is skew in L2, so on a resolved
    # field sum(u^2) drifts through the time error; bounds are ten times
    # the drift measured at dt on a k = 0.6 soliton, N = 64, L = 40,
    # delta = 1, mu = 0.1, to t = 2 (FPU5 5.0e-10, KDV5 5.3e-10, GARDNER
    # 9.2e-10, KDV 9.0e-10)
    @pytest.mark.parametrize("kind, dt, bound", [
        (EquationKind.FPU5, 0.05, 5e-9),
        (EquationKind.KDV5, 0.05, 5e-9),
        (EquationKind.GARDNER, 0.2, 1e-8),
        (EquationKind.KDV, 0.2, 1e-8),
    ])
    def test_drift_bounded_and_fourth_order_in_dt(self, kind, dt, bound):
        def drift(step):
            return l2_drift(run(small_config(
                kind=kind, t_end=2.0, dt=step, snapshot_interval=0.4,
                initial_condition=InitialCondition("kdv5_soliton", k=0.6))))

        coarse, fine = drift(dt), drift(0.5 * dt)
        # well above roundoff, so the ratio measures the time error
        assert 1e-11 < coarse < bound
        # fourth order gives 16x
        assert coarse / fine >= 8.0


def per_step_blow_up(config, nonlinear=None):
    """(step, t, last snapshot, steps per snapshot) of the first non-finite
    step, from a plain loop that checks finiteness after every step; the
    package's operator steps it unless another is given."""
    u0 = build_initial_condition(config)
    n_snap = int(np.ceil(config.t_end / config.snapshot_interval - 1e-9))
    snap_dt = config.t_end / n_snap
    steps_per = max(1, int(np.ceil(snap_dt / config.dt * (1.0 - 1e-9))))
    dt = snap_dt / steps_per
    if nonlinear is None:
        nonlinear = make_nonlinear_operator(config.kind, config.params,
                                            config.grid)
    stepper = config.scheme(
        linear_symbol(config.kind, config.params, config.grid), nonlinear, dt)
    u_hat = np.fft.rfft(u0)
    last = Snapshot(0.0, u0)
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i_snap in range(1, n_snap + 1):
            for _ in range(steps_per):
                u_hat = stepper.step(u_hat)
                step += 1
                if not np.all(np.isfinite(u_hat)):
                    return step, step * dt, last, steps_per
            last = Snapshot(i_snap * snap_dt, np.fft.irfft(u_hat, config.grid.n))
    raise AssertionError("the run stayed finite")


def same_snapshots(a, b):
    return len(a) == len(b) and all(
        x.t == y.t and np.array_equal(x.u, y.u) for x, y in zip(a, b))


# one row: delta, mu, soliton wavenumber, dt, scheme; two dt values and two
# schemes so that some rows of a batch share a group and some do not
batch_rows = st.lists(
    st.tuples(st.floats(0.3, 1.0), st.floats(0.0, 0.5), st.floats(0.3, 1.0),
              st.sampled_from([2e-3, 1e-3]),
              st.sampled_from([IntegratingFactorRK4, ETDRK4])),
    min_size=1, max_size=4)


class TestRunBatch:
    @pytest.mark.parametrize("kind", list(EquationKind))
    @settings(max_examples=12, deadline=None)
    @given(n=st.sampled_from([32, 64, 128]), rows=batch_rows)
    def test_rows_match_single_runs(self, kind, n, rows):
        grid = Grid(40.0, n)
        configs = [SimulationConfig(
            kind=kind, params=ModelParams(delta, mu), grid=grid, t_end=0.02,
            dt=dt, snapshot_interval=0.01, scheme=scheme,
            initial_condition=InitialCondition("kdv5_soliton", k=k))
            for delta, mu, k, dt, scheme in rows]
        batched = run_batch(configs)
        assert len(batched) == len(configs)
        for config, snaps in zip(configs, batched):
            assert same_snapshots(snaps, run(config))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_names_the_row(self):
        def config(params, k):
            return small_config(
                kind=EquationKind.FPU5, params=params, grid=Grid(40.0, 128),
                initial_condition=InitialCondition("kdv5_soliton", k=k),
                dt=0.05, t_end=5.0, snapshot_interval=0.05)

        good = config(ModelParams(delta=0.5, mu=0.0), 0.5)
        bad = config(ModelParams(delta=2.0, mu=0.0), 1.0)
        with pytest.raises(BlowUpError) as alone:
            run(bad)
        with pytest.raises(BlowUpError) as err:
            run_batch([good, bad, good])
        assert err.value.row == 1
        assert (err.value.step, err.value.t) == (alone.value.step, alone.value.t)
        assert err.value.last_snapshot.t > 0.0
        assert same_snapshots([err.value.last_snapshot],
                              [alone.value.last_snapshot])


class TestTranslationEquivariance:
    # every term of the four equations commutes with translation, and so do
    # the transforms up to rounding: over 400 random cases like these the
    # rolled run and the roll of the plain run differed by at most 6.4e-16
    # of max|u| (every kind, one to three rows, N 32..128, up to 20 steps)
    BOUND = 1e-14

    @pytest.mark.parametrize("kind", list(EquationKind))
    @settings(max_examples=8, deadline=None)
    @given(n=st.sampled_from([32, 64, 128]), data=st.data(), rows=batch_rows)
    def test_rolled_start_gives_rolled_run(self, kind, n, data, rows):
        shift = data.draw(st.integers(1, n - 1))
        grid = Grid(40.0, n)
        plain = [SimulationConfig(
            kind=kind, params=ModelParams(delta, mu), grid=grid, t_end=0.02,
            dt=dt, snapshot_interval=0.01, scheme=scheme,
            initial_condition=InitialCondition("kdv5_soliton", k=k))
            for delta, mu, k, dt, scheme in rows]
        with tempfile.TemporaryDirectory() as tmp:
            rolled = []
            for i, config in enumerate(plain):
                path = f"{tmp}/rolled{i}.dat"
                u0 = np.roll(build_initial_condition(config), shift)
                write_snapshot(path, Snapshot(0.0, u0), grid)
                rolled.append(dataclasses.replace(
                    config,
                    initial_condition=InitialCondition("from_file", path=path)))
            runs = [(run_batch(plain), run_batch(rolled)),
                    ([run(plain[0])], [run(rolled[0])])]
        for expected_rows, got_rows in runs:
            for expected, got in zip(expected_rows, got_rows):
                assert [s.t for s in got] == [s.t for s in expected]
                for e, g in zip(expected, got):
                    err = np.max(np.abs(g.u - np.roll(e.u, shift)))
                    assert err <= self.BOUND * np.max(np.abs(e.u))


class TestErrMetric:
    def test_identical_fields(self):
        u = np.linspace(-1, 1, 16)
        assert err_metric(u, u) == 0.0

    def test_constant_offset(self):
        u_calc = np.linspace(-2.0, 2.0, 41)  # max |u| = 2
        u_analytic = u_calc + 0.01
        assert err_metric(u_analytic, u_calc) == pytest.approx(0.005, rel=1e-12)

    def test_empty_mask(self):
        u = np.ones(8)
        with pytest.raises(ValueError):
            err_metric(u, u, mask=np.zeros(8, dtype=bool))

    def test_zero_reference(self):
        with pytest.raises(ValueError):
            err_metric(np.ones(8), np.zeros(8))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            err_metric(np.ones(8), np.ones(9))


def dense_min_shift(reference, u):
    """The shift search over the full N x N matrix of circular rolls."""
    n = reference.size
    rolls = reference[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]
    errs = np.max(np.abs(rolls - u[None, :]), axis=1) / float(np.max(np.abs(u)))
    best = int(np.argmin(errs))
    return float(errs[best]), best


class TestShiftMachinery:
    def test_integer_roll_detected_exactly(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(64)
        d, shift = min_shift_difference(u, np.roll(u, 5))
        assert d == 0.0
        assert shift == 5

    def test_fractional_shift_scores_near_zero(self):
        grid = Grid(20.0, 128)
        u = np.exp(-((grid.x - 10.0) ** 2))
        shift = 0.37 * grid.dx + 3 * grid.dx
        moved = np.exp(-((grid.x - 10.0 - shift) ** 2))
        assert shape_score(u, moved, grid) < 1e-8

    def test_xcorr_mismatch_zero_for_rolls(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(64)
        assert xcorr_mismatch(u, np.roll(u, 17)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           field=st.sampled_from(["random", "tiled", "rounded", "soliton"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_roll_matrix(self, data, field, seed):
        rng = np.random.default_rng(seed)
        if field == "soliton":
            # a rolled bump: the lower bound rules out most blocks of shifts
            n = data.draw(st.integers(1, 1024))
            width = data.draw(st.floats(2.0, 20.0))
            reference = np.cosh((np.arange(n) - n / 2) / width) ** -2.0
            u = np.roll(reference, data.draw(st.integers(0, n - 1)))
            u = u + data.draw(st.sampled_from([0.0, 1e-3])) * rng.standard_normal(n)
        elif field == "tiled":
            # a period dividing n makes every multiple of it an exact tie
            period = data.draw(st.integers(1, 20))
            n = period * data.draw(st.integers(1, 300 // period))
            reference = np.tile(rng.standard_normal(period), n // period)
            u = np.roll(reference, data.draw(st.integers(0, n - 1)))
            u = u + data.draw(st.sampled_from([0.0, 1e-3])) * rng.standard_normal(n)
        else:
            n = data.draw(st.integers(1, 300))
            reference = rng.standard_normal(n)
            u = rng.standard_normal(n)
            if field == "rounded":
                reference, u = np.round(2 * reference), np.round(2 * u)
        if not u.any():
            with pytest.raises(ValueError):
                min_shift_difference(reference, u)
            return
        assert min_shift_difference(reference, u) == dense_min_shift(reference, u)

    @pytest.mark.parametrize("height, bump, u_bump", [
        (1.0, 0.5, 0.0),                 # the raw differences tie exactly
        (2.0**1000, 2.0**-80, 2.0**-81),  # both quotients underflow to 0
    ], ids=["exact", "underflow"])
    def test_tie_in_a_later_walked_block(self, height, bump, u_bump):
        # shifts 5 and 69 both align the two peaks and tie after the division
        # by max|u|, so 5 must win.  Shift 5's bound is its difference
        # (reference[123] lands on u's argmin, column 0) and shift 69 has the
        # smallest raw bound, so a walk that skips a block whose smallest
        # bound equals the best so far, or that compares raw maxima, gives 69
        reference, u = np.zeros(128), np.zeros(128)
        reference[[0, 64]] = height
        reference[123] = bump
        u[[5, 69]] = height
        u[64] = u_bump
        expected = dense_min_shift(reference, u)
        assert expected[1] == 5
        assert min_shift_difference(reference, u) == expected

    def test_all_zero_field_rejected(self):
        with pytest.raises(ValueError):
            min_shift_difference(np.ones(70), np.zeros(70))

    def test_memory_stays_linear_in_n(self):
        # one 4096 x 4096 float matrix of rolls alone would be 134 MB
        rng = np.random.default_rng(3)
        reference, u = rng.standard_normal((2, 4096))
        tracemalloc.start()
        try:
            min_shift_difference(reference, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestRecurrenceScan:
    def make_translating_snapshots(self, n=64, m=21, k_cells=3, n_snaps=96):
        # shift rate (k_cells + 1/m) cells per snapshot; the profile realigns
        # with the grid every m snapshots, and n = m*k_cells + 1 makes that
        # exactly one lap of the ring
        assert n == m * k_cells + 1
        length = float(n)
        x = np.arange(n)
        speed_cells = k_cells + 1.0 / m

        def profile(pos):
            d = np.minimum((x - pos) % n, (pos - x) % n)
            return np.exp(-0.5 * (d / 3.0) ** 2)

        return [Snapshot(t=float(i), u=profile(speed_cells * i))
                for i in range(n_snaps)], length, speed_cells

    def test_translating_profile_period(self):
        snaps, length, speed_cells = self.make_translating_snapshots()
        report = recurrence_scan(snaps, t_fix=0.0, skip=0.0)
        assert report.differences[0] == 0.0  # d at t_fix itself
        expected = length / speed_cells  # 21 snapshots
        assert report.period == pytest.approx(expected, abs=1.0)

    def test_shift_consistency(self):
        snaps, _, _ = self.make_translating_snapshots()
        rolled = [Snapshot(t=s.t, u=np.roll(s.u, 9)) for s in snaps]
        a = recurrence_scan(snaps, t_fix=0.0)
        b = recurrence_scan(rolled, t_fix=0.0)
        assert np.max(np.abs(a.differences - b.differences)) < 1e-12
        assert a.period == pytest.approx(b.period, abs=1e-12)
        assert a.minima_times == b.minima_times

    def test_t_fix_must_be_snapshot_time(self):
        snaps, _, _ = self.make_translating_snapshots()
        with pytest.raises(DomainError):
            recurrence_scan(snaps, t_fix=0.25)

    def test_negative_skip_rejected(self):
        snaps, _, _ = self.make_translating_snapshots()
        with pytest.raises(DomainError):
            recurrence_scan(snaps, t_fix=0.0, skip=-1.0)

    @pytest.mark.parametrize("t_fix, skip, message", [
        (np.inf, 0.0, "t_fix must be finite"),
        (-np.inf, 0.0, "t_fix must be finite"),
        (np.nan, 0.0, "t_fix must be finite"),
        (0.0, -1.0, "skip must be finite and nonnegative"),
        (0.0, np.inf, "skip must be finite and nonnegative"),
        (0.0, np.nan, "skip must be finite and nonnegative")])
    def test_bad_t_fix_or_skip_rejected_by_scan_and_table(self, t_fix, skip,
                                                          message):
        # an infinite t_fix once made the time tolerance infinite, so it
        # matched the first snapshot
        snaps, _, _ = self.make_translating_snapshots()
        with pytest.raises(DomainError, match=message):
            recurrence_scan(snaps, t_fix=t_fix, skip=skip)
        with pytest.raises(DomainError, match=message):
            recurrence_table(snaps, [t_fix], skip=skip)

    def test_scan_rejects_t_fix_without_candidates(self):
        # an empty report would read as a scan that found no recurrence
        snaps = [Snapshot(t=float(i), u=np.full(8, float(i))) for i in range(10)]
        with pytest.raises(DomainError, match="t_fix 9 .*skip 1"):
            recurrence_scan(snaps, 9.0, skip=1.0)
        with pytest.raises(DomainError, match="t_fix 7 .*skip 2.5"):
            recurrence_scan(snaps, 7.0, skip=2.5)
        assert recurrence_scan(snaps, 7.0, skip=2.0).times.tolist() == [9.0]

    def test_too_few_minima_gives_no_period(self):
        snaps, _, _ = self.make_translating_snapshots(n_snaps=25)
        report = recurrence_scan(snaps, t_fix=0.0)
        assert report.period is None

    def test_fixed_time_table_on_translation(self):
        snaps, length, speed_cells = self.make_translating_snapshots()
        rows, period = recurrence_table(snaps, [0.0, 5.0], skip=5.0)
        assert len(rows) == 2
        assert period == pytest.approx(length / speed_cells, abs=1.0)

    def test_fixed_time_table_keeps_snapshot_at_skip(self):
        # times[6] + 0.3 rounds above times[9] = 0.9; the snapshot there,
        # a copy of the t_fix one, must still be a candidate
        rng = np.random.default_rng(5)
        snaps = [Snapshot(t=i * 0.1, u=rng.standard_normal(16)) for i in range(60)]
        snaps[9].u = snaps[6].u.copy()
        rows, _ = recurrence_table(snaps, [snaps[6].t], skip=0.3)
        assert rows == [(snaps[6].t, 0.9, 0.9 - snaps[6].t, 0.0)]
        assert recurrence_scan(snaps, snaps[6].t, skip=0.3).times[0] == 0.9

    def test_fixed_time_table_rejects_t_fix_off_the_snapshots(self):
        snaps = [Snapshot(t=float(i), u=np.full(8, float(i))) for i in range(10)]
        for t_fixes in ([3.4, 42.0], [3.4], [42.0], [3.0, 42.0]):
            with pytest.raises(DomainError):
                recurrence_table(snaps, t_fixes, skip=2.0)

    def test_fixed_time_table_accepts_t_fix_an_ulp_off(self):
        # 5 * 0.1 + 0.1 is an ulp above 6 * 0.1, the stored time
        rng = np.random.default_rng(3)
        snaps = [Snapshot(t=i * 0.1, u=rng.standard_normal(16)) for i in range(30)]
        t_fix = snaps[5].t + 0.1
        assert t_fix != snaps[6].t
        rows, _ = recurrence_table(snaps, [t_fix], skip=0.5)
        assert [r[0] for r in rows] == [snaps[6].t]

    def test_fixed_time_table_zero_skip_never_matches_t_fix(self):
        snaps, _, _ = self.make_translating_snapshots()
        rows, period = recurrence_table(snaps, [0.0, 3.0], skip=0.0)
        assert [r[0] for r in rows] == [0.0, 3.0]
        assert all(r[1] > r[0] and r[2] > 0.0 for r in rows)
        assert period > 0.0
        # the last snapshot has nothing after it
        with pytest.raises(DomainError):
            recurrence_table(snaps, [snaps[-1].t], skip=0.0)

    def test_fixed_time_table_rejects_t_fix_without_candidates(self):
        # a missing row would leave the period averaging fewer gaps than asked
        snaps = [Snapshot(t=float(i), u=np.full(8, float(i))) for i in range(10)]
        with pytest.raises(DomainError, match="t_fix 9 .*skip 0"):
            recurrence_table(snaps, [3.0, 9.0], skip=0.0)
        with pytest.raises(DomainError, match="t_fix 7 .*skip 2.5"):
            recurrence_table(snaps, [7.0], skip=2.5)


class TestKinkValidation:
    def test_zero_horizon_error_is_seam_limited(self):
        params = ModelParams(delta=0.6, mu=2.0)
        grid = Grid(64.0, 256)
        report = kink_validation(params, grid, t_end=0.0,
                                 dt=EXPERIMENTS["kink-validation"]["dt"])
        assert report.max_err < 1e-6

    def test_short_run_small_error(self):
        params = ModelParams(delta=0.6, mu=2.0)
        grid = Grid(64.0, 256)
        report = kink_validation(params, grid, dt=2e-4, t_end=1.0,
                                 snapshot_interval=0.5)
        assert report.max_err < 1e-5
        assert np.all(report.errs >= 0)

    def test_requires_positive_mu(self):
        with pytest.raises(DomainError):
            kink_validation(ModelParams(0.6, 0.0), Grid(64.0, 256), 1e-3, 1.0)
