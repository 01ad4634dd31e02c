"""Model parameters, the chain-to-model mapping, and the equation registry."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError


class EquationKind(Enum):
    """Which right-hand side a run integrates.

    FPU5 is the full fifth-order equation; KDV5 is FPU5 with the cubic
    nonlinearity switched off (mu treated as 0); GARDNER and KDV drop the
    fifth-order terms.  GARDNER and FPU5 stay distinct even at equal
    parameters so the two can be compared on the same initial data.
    """

    FPU5 = "fpu5"
    GARDNER = "gardner"
    KDV = "kdv"
    KDV5 = "kdv5"


@dataclass(frozen=True)
class PhysicalChainParams:
    """Parameters of the mass chain with quadratic plus cubic coupling.

    Every field must be finite; ``beta`` may be zero (quadratic-only chain),
    everything else must be strictly positive.
    """

    mass: float
    alpha: float
    beta: float
    gamma: float
    spacing: float

    def __post_init__(self):
        for name in ("mass", "alpha", "beta", "gamma", "spacing"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        for name in ("mass", "alpha", "gamma", "spacing"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive")
        if self.beta < 0:
            raise DomainError("beta must be nonnegative")


@dataclass(frozen=True)
class ModelParams:
    """Continuum parameters: dispersion strength delta and cubic weight mu."""

    delta: float
    mu: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise DomainError("delta must be finite and positive")
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise DomainError("mu must be finite and nonnegative")


# the kinds whose linear symbol and tendency carry the fifth-order block
FIFTH_ORDER = (EquationKind.FPU5, EquationKind.KDV5)


def effective_mu(kind: EquationKind, params: ModelParams) -> float:
    """KDV5 forces mu to zero and KDV ignores it entirely."""
    if kind in (EquationKind.KDV, EquationKind.KDV5):
        return 0.0
    return params.mu


def physical_to_model(p: PhysicalChainParams) -> ModelParams:
    """Map chain constants to (delta, mu).

    delta = m c^2 / (12 gamma) with c^2 = gamma h^2 / m, which collapses to
    h^2 / 12 and is computed in that form, so no c^2 is formed to overflow.
    """
    mu = 3.0 * p.beta * p.gamma / (4.0 * p.alpha**2)
    return ModelParams(delta=p.spacing**2 / 12.0, mu=mu)


def kink_speed(mu: float) -> float:
    """Propagation speed of the kink solution, (15 - 56 mu) / (180 mu).

    Has a pole at mu = 0, a single root at mu = 15/56, and is strictly
    decreasing; the sign of the result selects left or right travel.
    DomainError for a mu near the pole whose speed overflows a double.
    """
    if not mu > 0:
        raise DomainError("kink speed requires mu > 0")
    with np.errstate(over="ignore"):
        speed = (15.0 - 56.0 * mu) / (180.0 * mu)
    if not math.isfinite(speed):
        raise DomainError(f"kink speed is not a finite double at mu = {mu:g}")
    return speed


def velocity_curve(mu_min: float, mu_max: float, n: int) -> np.ndarray:
    """Tabulate kink_speed on n uniform samples of [mu_min, mu_max].

    Returns an (n, 2) array of (mu, speed) rows.  n may be any integral
    number, as Grid's N may: 2.0 gives two rows.  A single sample is
    allowed only when the interval is a point.
    """
    if not (0 < mu_min <= mu_max < math.inf):
        raise DomainError("need 0 < mu_min <= mu_max, both finite")
    if not (math.isfinite(n) and int(n) == n):
        raise DomainError(f"n must be an integer, not {n!r}")
    n = int(n)
    if n < 1 or (n == 1 and mu_min != mu_max):
        raise DomainError("need n >= 2 samples on a nondegenerate interval")
    mus = np.linspace(mu_min, mu_max, n)
    speeds = np.array([kink_speed(m) for m in mus])
    return np.column_stack([mus, speeds])
