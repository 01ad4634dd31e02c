"""The compiled pass of ``_tendency.c`` in both its consumers against
steps written wholly in numpy: the IF-RK4 loop (``equations.make_if_rk4``)
against ``IntegratingFactorRK4.step`` with the numpy operator of the tests,
the same bytes for every kind, on random batches, on special values and on
a blow-up inside an interval; and ETDRK4 with ``make_nonlinear_operator``
against ETDRK4 with that numpy operator."""
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpu5 import (ETDRK4, BlowUpError, EquationKind, Grid, InitialCondition,
                  IntegratingFactorRK4, ModelParams, SimulationConfig,
                  experiments, linear_symbol, make_nonlinear_operator,
                  run_batch, spectral)
from fpu5.equations import make_if_rk4

from test_equations import SPECIAL, numpy_operator
from test_experiments import per_step_blow_up, same_snapshots


def stepped(scheme, operator, kind, params, grid, dt, u_hat, steps):
    stepper = scheme(linear_symbol(kind, params, grid), operator, dt)
    for _ in range(steps):
        u_hat = stepper.step(u_hat)
    return u_hat


def reference(kind, params, grid, dt, u_hat, steps):
    """IF-RK4 written wholly in numpy: the step and its operator."""
    return stepped(IntegratingFactorRK4, numpy_operator(kind, params, grid),
                   kind, params, grid, dt, u_hat, steps)


rows = st.lists(st.tuples(st.floats(0.3, 1.5), st.floats(0.0, 0.5)),
                min_size=1, max_size=4)


# a drawn field may overflow within a few steps, in C and in the numpy
# reference alike
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", list(EquationKind))
@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([32, 64, 128, 256, 512]), rows=rows,
       dt=st.floats(1e-5, 1e-3), steps=st.sampled_from([1, 2, 7]),
       seed=st.integers(0, 2**32 - 1), mean=st.sampled_from([0.0, 1.0]))
def test_steps_have_the_bytes_of_the_numpy_step(kind, n, rows, dt, steps,
                                                seed, mean):
    # a smooth random field a row, each row with its own delta and mu; a
    # zero mean leaves mode 0 free to show a nonzero tendency there
    grid = Grid(40.0, n)
    params = [ModelParams(delta, mu) for delta, mu in rows]
    rng = np.random.default_rng(seed)
    u_hat = np.zeros((len(rows), n // 2 + 1), dtype=complex)
    u_hat[:, :6] = n * (rng.standard_normal((len(rows), 6))
                        + 1j * rng.standard_normal((len(rows), 6))) / 4
    u_hat[:, 0] = mean * u_hat[:, 0].real
    before = u_hat.copy()
    got = make_if_rk4(kind, params, grid, dt)(u_hat, steps)
    assert np.array_equal(u_hat, before)
    assert got.tobytes() == reference(kind, params, grid, dt, u_hat,
                                      steps).tobytes()


@pytest.mark.parametrize("kind", list(EquationKind))
def test_one_parameter_set_steps_a_single_row(kind):
    grid, params = Grid(30.0, 64), ModelParams(0.8, 0.2)
    u_hat = np.fft.rfft(np.cos(2 * np.pi * grid.x / grid.length))
    advance = make_if_rk4(kind, params, grid, 1e-3)
    got = advance(u_hat, 3)
    assert got.shape == u_hat.shape
    assert got.tobytes() == reference(kind, params, grid, 1e-3, u_hat,
                                      3).tobytes()
    # a fresh array each call: the loop's own state is not handed out
    assert advance(u_hat, 3) is not got


def special_states(h):
    """Every pair of SPECIAL values as (re, im) of one mode, filling rows of
    h modes, and rows of zeros and subnormals of either sign in which mode
    0 takes each pair of zero signs."""
    re, im = np.meshgrid(SPECIAL, SPECIAL, indexing="ij")
    pairs = (re + 1j * im).ravel()
    every = np.concatenate([pairs, np.zeros(-len(pairs) % h)]).reshape(-1, h)
    tiny = np.array([s * v for v in (0.0, 5e-324, 1e-310) for s in (1.0, -1.0)])
    rng = np.random.default_rng(11)
    small = (rng.choice(tiny, (4, h)) + 1j * rng.choice(tiny, (4, h)))
    small[:, 0] = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
    return every, small


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", list(EquationKind))
def test_special_values_through_one_step(kind):
    # +-0, subnormals, huge values, inf and nan go through one whole step
    # with the numpy step's bytes, the zero signs of mode 0 included
    grid = Grid(20.0, 32)
    for state in special_states(grid.n // 2 + 1):
        params = [ModelParams(0.7, 0.3)] * len(state)
        got = make_if_rk4(kind, params, grid, 0.01)(state, 1)
        expected = reference(kind, params, grid, 0.01, state, 1)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", list(EquationKind))
def test_etdrk4_steps_with_the_compiled_pass_have_the_numpy_bytes(kind):
    # ETDRK4 steps through the operator, so the operator's compiled pass
    # gives it the bytes of its numpy reference, one row and a batch; noise
    # in every mode leaves an aliasing residue in mode 0 for the pass to zero
    grid = Grid(40.0, 128)
    u_hat = spectral.rfft(np.random.default_rng(7).normal(0.5, 0.5,
                                                          (3, grid.n)))
    batch = [ModelParams(0.6, 0.3), ModelParams(1.1, -0.0),
             ModelParams(0.9, 0.1)]
    for params, state in ((batch[0], u_hat[0]), (batch, u_hat)):
        got = stepped(ETDRK4, make_nonlinear_operator(kind, params, grid),
                      kind, params, grid, 1e-3, state, 5)
        expected = stepped(ETDRK4, numpy_operator(kind, params, grid),
                           kind, params, grid, 1e-3, state, 5)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blow_up_mid_interval_in_a_batch_matches_per_step_check():
    # the batch's second row blows up inside an interval: the replay, one
    # compiled step a call, names the row, the step, its time and the last
    # finite snapshot that a loop checking every numpy step finds
    def config(delta, k):
        return SimulationConfig(
            kind=EquationKind.FPU5, params=ModelParams(delta=delta, mu=0.0),
            grid=Grid(40.0, 64), t_end=2.0, dt=0.008,
            snapshot_interval=0.08,
            initial_condition=InitialCondition("kdv5_soliton", k=k))

    good, bad = config(0.5, 0.5), config(2.0, 1.0)
    step, t, last, steps_per = per_step_blow_up(bad)
    assert step > steps_per and step % steps_per != 0
    with pytest.raises(BlowUpError) as err:
        run_batch([good, bad])
    assert (err.value.row, err.value.step, err.value.t) == (1, step, t)
    assert same_snapshots([err.value.last_snapshot], [last])


def test_runs_read_nothing_from_the_operator_factory(monkeypatch):
    # IF-RK4 runs step through the compiled loop alone, so a factory that
    # a tracer has replaced, here by one that refuses, is never asked
    def refuse(*args):
        raise AssertionError("an IF-RK4 run built a nonlinear operator")

    monkeypatch.setattr(experiments, "make_nonlinear_operator", refuse)
    (snapshots,) = run_batch([SimulationConfig(
        kind=EquationKind.KDV, params=ModelParams(1.0, 0.0),
        grid=Grid(40.0, 64), t_end=0.02, dt=1e-3,
        initial_condition=InitialCondition("kdv5_soliton", k=0.5))])
    assert len(snapshots) > 1


def test_a_loop_holds_every_array_and_call_it_reads():
    # C reads through addresses only: a loop whose block, arrays or
    # argument tuples were freed would read what is allocated there next,
    # here the arrays of other loops built after a collection
    grid = Grid(20.0, 64)
    params = [ModelParams(0.8, 0.4), ModelParams(1.2, 0.1)]
    u_hat = np.fft.rfft(np.random.default_rng(3).standard_normal((2, grid.n)))
    for kind in EquationKind:
        advance = make_if_rk4(kind, params, grid, 1e-3)
        gc.collect()
        others = [make_if_rk4(kind, [ModelParams(2.0, 0.05)] * 2, grid, 2e-3)
                  for _ in range(20)]
        fresh = make_if_rk4(kind, params, grid, 1e-3)
        assert advance(u_hat, 2).tobytes() == fresh(u_hat, 2).tobytes()
        del others  # alive until advance has run


def test_refuses_a_state_of_another_shape():
    advance = make_if_rk4(EquationKind.FPU5, [ModelParams(1.0, 0.1)] * 2,
                          Grid(20.0, 32), 1e-3)
    with pytest.raises(ValueError, match="built for shape"):
        advance(np.zeros(17, dtype=complex), 1)
