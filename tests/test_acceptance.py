"""Acceptance suite: one test per criterion, one printed verdict line each.

The heavy simulations run once per session through module-scoped fixtures
and are shared between the criteria that inspect them.
"""
import time
from fractions import Fraction

import numpy as np
import pytest

from fpu5 import (EXPERIMENTS, STUDIES, EllipticSolution, EquationKind,
                  Grid, IntegratingFactorRK4, KinkSolution, ModelParams,
                  WeierstrassP, degenerate_p, elliptic_derivatives,
                  fuchs_indices, kink_derivatives, leading_balance,
                  linear_symbol, make_nonlinear_operator,
                  mass_drift, recurrence_scan, recurrence_table,
                  residual_first_integral, residual_second_integral)
from fpu5.experiments import Snapshot


def verdict(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# --------------------------------------------------------------- fixtures

def study(name):
    """Run one canned study on its frozen configuration, timed."""
    start = time.monotonic()
    result = STUDIES[name](EXPERIMENTS[name])
    return result, time.monotonic() - start


@pytest.fixture(scope="module")
def kink_run():
    return study("kink-validation")


@pytest.fixture(scope="module")
def gardner_run():
    return study("gardner")


@pytest.fixture(scope="module")
def perturbation_run():
    return study("soliton-perturbation")[0]


@pytest.fixture(scope="module")
def zk_run():
    return study("zabusky-kruskal")


@pytest.fixture(scope="module")
def recurrence_run():
    return study("recurrence")


# --------------------------------------------------------------- criteria

def test_criterion_01_kink_integral_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10):
        params = ModelParams(delta=rng.uniform(0.05, 2.0),
                             mu=rng.uniform(0.2, 3.0))
        s = KinkSolution(params, branch=1, z0=rng.uniform(-1.0, 1.0))
        z = s.z0 + rng.uniform(-10.0, 10.0, 1000) / s.steepness
        v, v1, v2, v3, v4 = kink_derivatives(s, z)
        c0, c1, c2 = s.constants
        worst = max(worst,
                    residual_first_integral(v, v1, v2, v4, c0, c1, params),
                    residual_second_integral(v, v1, v2, v3, c0, c1, c2, params))
    elapsed = time.monotonic() - start
    verdict(1, worst < 1e-9 and elapsed < 1.0,
            f"kink integral residuals max {worst:.2e} in {elapsed:.2f}s")


def test_criterion_02_kink_solver_validation(kink_run):
    result, elapsed = kink_run
    report = result.arms
    assert result.checks["pass"] == (report.max_err < 6e-3)
    verdict(2, report.max_err < 6e-3 and elapsed < 60.0,
            f"kink validation err {report.max_err:.2e} (bound 6e-3) "
            f"in {elapsed:.1f}s at N=512")


def test_criterion_03_fuchs_indices():
    start = time.monotonic()
    rng = np.random.default_rng(103)
    expected_poly = (Fraction(1), Fraction(-4), Fraction(3), Fraction(8))
    ok = True
    for _ in range(5):
        params = ModelParams(delta=rng.uniform(0.05, 5.0),
                             mu=rng.uniform(0.05, 5.0))
        result = fuchs_indices(params)
        ok &= result.indicial_coefficients == expected_poly
        roots = sorted(result.indices, key=lambda r: (r.real, r.imag))
        ok &= abs(roots[0] - (-1.0)) < 1e-12
        ok &= abs(roots[1] - (2.5 - 1j * np.sqrt(7) / 2)) < 1e-12
        ok &= abs(roots[2] - (2.5 + 1j * np.sqrt(7) / 2)) < 1e-12
        ok &= result.passes is False
    elapsed = time.monotonic() - start
    verdict(3, ok and elapsed < 1.0,
            f"indices {{-1, (5+-i sqrt(7))/2}}, polynomial (j+1)(j^2-5j+8) "
            f"exact, verdict 'does not pass' in {elapsed:.2f}s")


def test_criterion_04_leading_balance():
    start = time.monotonic()
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(25):
        delta = rng.uniform(0.05, 4.0)
        mu = rng.uniform(0.05, 4.0)
        a0 = leading_balance(ModelParams(delta, mu)).coefficients[0]
        expected = 4.0 * np.sqrt(5.0) * delta / (5.0 * np.sqrt(mu))
        worst = max(worst, abs(a0 - expected) / expected)
    elapsed = time.monotonic() - start
    verdict(4, worst < 1e-12 and elapsed < 1.0,
            f"a0 matches 4 sqrt(5) delta / (5 sqrt(mu)) to {worst:.2e}")


def test_criterion_05_weierstrass():
    start = time.monotonic()
    rng = np.random.default_rng(105)
    worst_ode = 0.0
    for _ in range(20):
        g2 = rng.uniform(-4.0, 6.0)
        g3 = rng.uniform(-2.0, 2.0)
        w = WeierstrassP(g2, g3)
        period = w.period if np.isfinite(w.period) else 6.0
        z = np.linspace(0.08 * period, 0.92 * period, 80)
        z = z[w.pole_distance(z) > 0.05 * min(period, 1.0)]
        p, pp = w(z)
        res = np.abs(pp**2 - (4 * p**3 - g2 * p - g3)) / (1 + np.abs(p) ** 3)
        worst_ode = max(worst_ode, float(res.max()))
    worst_deg = 0.0
    for g3 in (0.2, 0.9, 1.6, 3.1):
        g2 = 3.0 * g3 ** (2.0 / 3.0)
        w = WeierstrassP(g2, g3)
        z = np.linspace(0.08, 0.92, 60) * w.period
        p, _ = w(z)
        closed = degenerate_p(z, g3)
        rel = np.abs(closed - p) / (1 + np.abs(p))
        worst_deg = max(worst_deg, float(rel.max()))
    elapsed = time.monotonic() - start
    verdict(5, worst_ode < 1e-9 and worst_deg < 1e-9 and elapsed < 5.0,
            f"ODE residual {worst_ode:.2e}, degenerate closed form "
            f"{worst_deg:.2e} in {elapsed:.2f}s")


def test_criterion_06_elliptic_solution():
    start = time.monotonic()
    rng = np.random.default_rng(106)
    worst = 0.0
    done = 0
    while done < 5:
        params = ModelParams(delta=rng.uniform(0.5, 1.5),
                             mu=rng.uniform(0.2, 2.0))
        sol = EllipticSolution(params, rng.uniform(-0.5, 0.5))
        w = WeierstrassP(sol.g2, sol.g3)
        period = w.period if np.isfinite(w.period) else 4.0
        z = np.linspace(0.05 * period, 0.95 * period, 600)
        v, v1, v2, v3 = elliptic_derivatives(sol, z)
        keep = np.abs(v - sol.h_level) <= 5.0  # non-pole sample points
        if keep.sum() < 100:
            continue
        res = residual_second_integral(v[keep], v1[keep], v2[keep], v3[keep],
                                       sol.c0, sol.c1, sol.c2, params)
        worst = max(worst, res)
        done += 1
    elapsed = time.monotonic() - start
    verdict(6, worst < 1e-7 and elapsed < 5.0,
            f"second-integral residual {worst:.2e} over 5 parameter draws "
            f"in {elapsed:.2f}s")


def test_criterion_07_gardner_soliton_contrast(gardner_run):
    result, elapsed = gardner_run
    out = result.arms
    fx = EXPERIMENTS["gardner"]
    hold = float(out[EquationKind.GARDNER]["scores"].max())
    times = out[EquationKind.FPU5]["times"]
    scores = out[EquationKind.FPU5]["scores"]
    crossed = scores > fx["deform_threshold"]
    cross_time = float(times[np.argmax(crossed)]) if crossed.any() else np.inf
    physics_ok = hold < fx["hold_bound"] and cross_time <= fx["deform_by"]
    assert result.checks["pass"] == physics_ok
    ok = physics_ok and elapsed < 120.0
    verdict(7, ok,
            f"cubic-equation run holds shape to {hold:.1e}; fifth-order run "
            f"deforms past {fx['deform_threshold']} at t={cross_time} "
            f"(by {fx['deform_by']}) in {elapsed:.0f}s")


def test_criterion_08_mass_conservation(kink_run, gardner_run,
                                        perturbation_run, zk_run,
                                        recurrence_run):
    report = kink_run[0].arms
    drifts = {"kink-validation": mass_drift(report.snapshots)}
    for kind, res in gardner_run[0].arms.items():
        drifts[f"gardner/{kind.value}"] = res["mass_drift"]
    for mu, res in perturbation_run.arms.items():
        drifts[f"perturbation/mu={mu:g}"] = res["mass_drift"]
    for kind, res in zk_run[0].arms.items():
        drifts[f"zabusky-kruskal/{kind.value}"] = res["mass_drift"]
    drifts["recurrence"] = mass_drift(recurrence_run[0].arms)
    worst = max(drifts.values())
    verdict(8, worst < 1e-10,
            f"mass drift below 1e-10 in every experiment (worst {worst:.1e})")


def test_soliton_perturbation_behavior(perturbation_run):
    # supporting contract for the perturbation study shared with criterion 8:
    # the mu=0 soliton propagates shape-invariantly, the mu=0.05 run is
    # destroyed by the late times
    fx = EXPERIMENTS["soliton-perturbation"]
    clean = perturbation_run.arms[fx["mus"][0]]
    perturbed = perturbation_run.arms[fx["mus"][1]]
    assert float(clean["scores"].max()) < fx["invariance_bound"]
    i_late = int(np.argmin(np.abs(perturbed["times"] - fx["destruction_by"])))
    assert perturbed["scores"][i_late] > fx["destruction_threshold"]
    assert perturbation_run.checks["pass"]
    print(f"SUPPORT: perturbation study holds {clean['scores'].max():.1e} "
          f"at mu=0, destroyed ({perturbed['scores'][i_late]:.2f}) "
          f"by t={fx['destruction_by']} at mu={fx['mus'][1]}")


def test_criterion_09_temporal_order():
    start = time.monotonic()
    g = Grid(2.0 * np.pi, 16)
    params = ModelParams(delta=0.6, mu=0.5)
    u0 = 0.5 * np.sin(g.x) + 0.3 * np.cos(2 * g.x)
    symbol = linear_symbol(EquationKind.FPU5, params, g)
    nonlin = make_nonlinear_operator(EquationKind.FPU5, params, g)

    def integrate(dt, t_end=2.0):
        n = int(round(t_end / dt))
        stepper = IntegratingFactorRK4(symbol, nonlin, t_end / n)
        u_hat = np.fft.rfft(u0)
        for _ in range(n):
            u_hat = stepper.step(u_hat)
        return np.fft.irfft(u_hat, g.n)

    ref = integrate(1e-2 / 16)
    e1 = np.max(np.abs(integrate(1e-2) - ref))
    e2 = np.max(np.abs(integrate(5e-3) - ref))
    ratio = e1 / e2
    elapsed = time.monotonic() - start
    verdict(9, 12.0 < ratio < 20.0 and elapsed < 30.0,
            f"step-halving error ratio {ratio:.2f} (16 +- 25%) in {elapsed:.1f}s")


def test_criterion_10_recurrence(recurrence_run):
    # synthetic hard gate: an exactly translating profile whose shift rate is
    # incommensurate with the grid except after one full lap
    n, m, k_cells = 64, 21, 3
    assert n == m * k_cells + 1
    x = np.arange(n)
    speed_cells = k_cells + 1.0 / m

    def profile(pos):
        d = np.minimum((x - pos) % n, (pos - x) % n)
        return np.exp(-0.5 * (d / 3.0) ** 2)

    snaps = [Snapshot(t=float(i), u=profile(speed_cells * i))
             for i in range(96)]
    report = recurrence_scan(snaps, t_fix=0.0)
    expected = n / speed_cells  # one lap of the ring
    hard_ok = report.period is not None and \
        abs(report.period - expected) <= 1.0  # one snapshot interval

    # best-effort reconstruction of the published table (soft gate)
    result, elapsed = recurrence_run
    snapshots = result.arms
    fx = EXPERIMENTS["recurrence"]
    rows, period = recurrence_table(snapshots, [fx["t_fix"]],
                                    skip=fx["table_skip"])
    t_first = rows[0][1]
    soft_ok = abs(t_first - fx["expected_first_minimum"]) <= fx["tolerance"] \
        and abs(period - fx["expected_period"]) <= fx["tolerance"]
    assert result.checks["pass"] == soft_ok
    if not soft_ok:
        print(f"ACCEPTANCE 10 FLAG: reconstruction drifted "
              f"(first minimum {t_first}, period {period})")
    scan = recurrence_scan(snapshots, t_fix=fx["t_fix"], skip=fx["scan_skip"])
    assert np.all(scan.differences >= 0)
    verdict(10, hard_ok and soft_ok and elapsed < 600.0,
            f"synthetic period {report.period:.2f} = L/c {expected:.2f}; "
            f"reconstruction minimum at t={t_first} gap {period} "
            f"(published 27.25 / 22.25) in {elapsed:.0f}s")


def test_criterion_11_zabusky_kruskal_contrast(zk_run):
    result, elapsed = zk_run
    out = result.arms
    fx = EXPERIMENTS["zabusky-kruskal"]
    kdv = out[EquationKind.KDV]
    fpu = out[EquationKind.FPU5]
    contrast = fpu["recurrence_score"] / kdv["recurrence_score"]
    physics_ok = kdv["recurrence_score"] < fx["kdv_recurrence_bound"] \
        and contrast >= fx["contrast_factor"]
    assert result.checks["pass"] == physics_ok
    ok = physics_ok and elapsed < 300.0
    verdict(11, ok,
            f"KdV returns toward its start (mismatch "
            f"{kdv['recurrence_score']:.3f} < {fx['kdv_recurrence_bound']}); "
            f"fifth-order run stays scattered ({fpu['recurrence_score']:.3f}, "
            f"contrast {contrast:.1f}x >= {fx['contrast_factor']}x) "
            f"in {elapsed:.0f}s; figure-pair mismatches "
            f"kdv {kdv['figure_pair_score']:.3f} / fpu5 {fpu['figure_pair_score']:.3f}")
