"""Command-line surface: simulate, exact, validate, recurrence, painleve,
velocity-curve, and the canned experiments.

Every command builds a StudyResult and hands it to `snapio.write_result`,
which puts it under --out: its tables, its snapshot files, and one
manifest.json that lists exactly those files and holds every scalar result
under "checks".  This module parses arguments and reads a config's text;
snapio owns every file format.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import BlowUpError, DomainError
from .experiments import (EXPERIMENTS, STUDIES, Snapshot, StudyResult,
                          kink_validation, mass_drift, recurrence_scan,
                          recurrence_table, run)
from .params import EquationKind, ModelParams, velocity_curve
from .painleve import fuchs_indices, leading_balance
from .snapio import config_to_dict, parse_config, read_series, write_result
from .solutions import (EllipticSolution, GardnerSoliton, KdV5Soliton,
                        KinkSolution, elliptic_eval, elliptic_g3_for_speed,
                        gardner_soliton, kdv5_soliton, kink_eval)
from .spectral import Grid


def _cmd_simulate(args) -> None:
    config = parse_config(Path(args.config).read_text())
    snapshots = run(config)
    checks = {"mass_drift": mass_drift(snapshots),
              "snapshot_times": [float(s.t) for s in snapshots]}
    files = write_result(
        args.out, args.started, config_to_dict(config),
        StudyResult(snapshots, checks, snapshots={"snap": snapshots}),
        config.grid)
    print(f"wrote {len(files)} snapshots to {Path(args.out)} "
          f"(mass drift {checks['mass_drift']:.3e})")


def _exact_profile(args, grid: Grid):
    params = ModelParams(delta=args.delta, mu=args.mu)
    x = grid.x
    if args.family == "kink":
        s = KinkSolution(params, branch=args.branch, z0=args.z0)
        return kink_eval(s, x - args.t * s.speed), {"speed": s.speed}
    if args.family == "elliptic":
        g3 = args.g3
        if g3 is None:
            if args.c0 is None:
                raise DomainError("elliptic needs --g3 or --c0")
            g3 = elliptic_g3_for_speed(params, args.c0)
        s = EllipticSolution(params, g3=g3, z0=args.z0)
        u = elliptic_eval(s, x - args.t * s.c0, on_pole="nan")
        return np.asarray(u), {"g3": g3, "speed": s.c0,
                               "poles_masked": int(np.sum(~np.isfinite(u)))}
    if args.family == "gardner":
        if args.c0 is None:
            raise DomainError("gardner needs --c0")
        s = GardnerSoliton(params, c0=args.c0)
        return gardner_soliton(s, x - 0.5 * grid.length, args.t), {"speed": s.c0}
    # kdv5, the one family left among argparse's choices
    s = KdV5Soliton(k=args.k, delta=args.delta)
    return kdv5_soliton(s, x - 0.5 * grid.length, args.t), \
        {"speed": -s.speed, "crest": s.crest}


def _cmd_exact(args) -> None:
    grid = Grid(args.length, args.n)
    u, info = _exact_profile(args, grid)
    snap = Snapshot(t=args.t, u=np.asarray(u, dtype=float))
    echo = {k: v for k, v in vars(args).items()
            if k not in ("func", "started", "command", "out")}
    checks = {**info, "snapshot_times": [float(snap.t)]}
    files = write_result(args.out, args.started, echo, StudyResult(
        snap, checks, snapshots={f"exact_{args.family}": [snap]}), grid)
    print(f"wrote {files[0]}")


def _cmd_validate(args) -> None:
    config = parse_config(Path(args.config).read_text())
    ic = config.initial_condition.name
    if config.kind is not EquationKind.FPU5 or ic != "kink_pair":
        raise DomainError("validate runs kind = fpu5 with initial_condition = "
                          f"kink_pair, not kind = {config.kind.value} with {ic}")
    report = kink_validation(config.params, config.grid, config.dt,
                             config.t_end, config.snapshot_interval,
                             keep_snapshots=True)
    checks = {"max_err": report.max_err,
              "mass_drift": mass_drift(report.snapshots)}
    write_result(args.out, args.started, config_to_dict(config),
                 StudyResult(report, checks, report.error_table()))
    print(f"max err {report.max_err:.3e}")
    print(f"mass drift {checks['mass_drift']:.3e}")


def _cmd_recurrence(args) -> None:
    snapshots, (n, length) = read_series(args.manifest)
    report = recurrence_scan(snapshots, t_fix=args.t_fix, skip=args.skip)
    rows, period_rows = recurrence_table(snapshots, [args.t_fix], skip=args.skip)
    checks = {"t_fix": report.t_fix, "minima_times": report.minima_times,
              "period": report.period, "fixed_time_rows": rows,
              "fixed_time_period": period_rows, "grid": {"N": n, "L": length}}
    write_result(args.out, args.started, {"manifest": args.manifest,
                                          "t_fix": args.t_fix, "skip": args.skip},
                 StudyResult(report, checks, report.difference_table()))
    print(f"scan minima: {report.minima_times}")
    print(f"mean-gap period: {report.period}")
    print(f"fixed-time rows: {rows} -> period {period_rows}")


def _cmd_painleve(args) -> None:
    params = ModelParams(delta=args.delta, mu=args.mu)
    balance = leading_balance(params)
    result = fuchs_indices(params)
    coeffs = [str(c) for c in result.indicial_coefficients]
    print(f"pole order p = {balance.pole_order}")
    print(f"branch coefficients a0 = {balance.coefficients[0]:.6f}, "
          f"{balance.coefficients[1]:.6f}")
    print(f"indicial polynomial (monic, j^3..1): {', '.join(coeffs)}")
    roots = ", ".join(f"{r.real:g}{r.imag:+g}i" if r.imag else f"{r.real:g}"
                      for r in result.indices)
    print(f"fuchs indices: {roots}")
    verdict = "passes" if result.passes else "does not pass"
    print(f"verdict: {verdict} ({result.reason})")
    checks = {"pole_order": balance.pole_order,
              "branch_coefficients": list(balance.coefficients),
              "indicial_polynomial": coeffs,
              "indices": [[r.real, r.imag] for r in result.indices],
              "passes": result.passes, "reason": result.reason}
    write_result(args.out, args.started, {"mu": args.mu, "delta": args.delta},
                 StudyResult((balance, result), checks))


def _cmd_velocity_curve(args) -> None:
    table = velocity_curve(args.mu_min, args.mu_max, args.n)
    for mu, speed in table:
        print(f"{mu:.6f}\t{speed:.6f}")
    write_result(args.out, args.started,
                 {"mu_min": args.mu_min, "mu_max": args.mu_max, "n": args.n},
                 StudyResult(table, {"rows": len(table)},
                             {"velocity_curve.dat": ("mu\tC0", table)}))


def _cmd_experiment(args) -> None:
    fx = EXPERIMENTS[args.name]
    result = STUDIES[args.name](fx)
    write_result(args.out, args.started, {"experiment": args.name, **fx},
                 result, Grid(fx["length"], fx["n"]))
    for key, value in result.checks.items():
        print(f"{key}: {value}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpu5",
        description="Spectral laboratory for the fifth-order continuum "
                    "equations of the alpha+beta FPU chain")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a run configuration")
    p.add_argument("config")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("exact", help="tabulate a closed-form solution")
    p.add_argument("family", choices=["kink", "elliptic", "gardner", "kdv5"])
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--g3", type=float, default=None)
    p.add_argument("--c0", type=float, default=None)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--branch", type=int, choices=[1, -1], default=1)
    p.add_argument("--z0", type=float, default=0.0)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--length", type=float, default=40.0)
    p.add_argument("--n", type=int, default=512)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("validate", help="kink validation for a configuration")
    p.add_argument("config")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("recurrence", help="recurrence scan over stored snapshots")
    p.add_argument("manifest")
    p.add_argument("--t-fix", type=float, required=True, dest="t_fix")
    p.add_argument("--skip", type=float, default=0.0)
    p.set_defaults(func=_cmd_recurrence)

    p = sub.add_parser("painleve", help="pole balance and Fuchs indices")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=_cmd_painleve)

    p = sub.add_parser("velocity-curve", help="kink speed as a function of mu")
    p.add_argument("--mu-min", type=float, required=True, dest="mu_min")
    p.add_argument("--mu-max", type=float, required=True, dest="mu_max")
    p.add_argument("-n", type=int, default=50)
    p.set_defaults(func=_cmd_velocity_curve)

    p = sub.add_parser("experiment", help="run a canned study")
    p.add_argument("name", choices=sorted(EXPERIMENTS))
    p.set_defaults(func=_cmd_experiment)

    for p in sub.choices.values():
        p.add_argument("--out", default="out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.started = time.monotonic()
    try:
        args.func(args)
    except ValueError as exc:  # ConfigError, DomainError and PoleError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # an overflow or 1/0 from finite input
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (BlowUpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
