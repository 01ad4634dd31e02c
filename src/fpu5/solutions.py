"""Closed-form travelling-wave solutions and residual verifiers.

The residual verifiers take derivative samples instead of computing them, so
closed-form and spectral derivative sources can be checked with the same
code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .equations import flux
from .errors import DomainError, PoleError
from .params import ModelParams, kink_speed
from .weierstrass import WeierstrassP, POLE_THRESHOLD


# ----------------------------------------------------------------- kink

def kink_integration_constants(mu: float) -> tuple[float, float, float]:
    """(C0, C1, C2) that the kink satisfies in both travelling-wave integrals."""
    if not mu > 0:
        raise DomainError("kink constants require mu > 0")
    c0 = kink_speed(mu)
    c1 = -(15.0 + 56.0 * mu) / (360.0 * mu * mu)
    c2 = -(3136.0 * mu**2 + 1680.0 * mu + 225.0) / (43200.0 * mu**3)
    return c0, c1, c2


@dataclass(frozen=True)
class KinkSolution:
    """Monotone tanh front between the two constant states 1/(2 mu) -+ amplitude."""

    params: ModelParams
    branch: int = 1
    z0: float = 0.0

    def __post_init__(self):
        if not self.params.mu > 0:
            raise DomainError("kink requires mu > 0")
        if self.branch not in (1, -1):
            raise DomainError("branch must be +1 or -1")
        if not math.isfinite(self.z0):
            raise DomainError("kink z0 must be finite")

    @property
    def steepness(self) -> float:
        mu, delta = self.params.mu, self.params.delta
        return np.sqrt(6.0 * mu * (28.0 * mu + 15.0)) / (12.0 * mu * delta)

    @property
    def amplitude(self) -> float:
        mu = self.params.mu
        return np.sqrt((28.0 * mu + 15.0) / (30.0 * mu * mu))

    @property
    def center_level(self) -> float:
        return 1.0 / (2.0 * self.params.mu)

    @property
    def speed(self) -> float:
        return kink_speed(self.params.mu)

    @property
    def constants(self) -> tuple[float, float, float]:
        return kink_integration_constants(self.params.mu)


def kink_eval(s: KinkSolution, z):
    """v(z) = branch * amplitude * tanh(k (z - z0) / 2) + 1/(2 mu)."""
    z = np.asarray(z, dtype=float)
    return s.branch * s.amplitude * np.tanh(0.5 * s.steepness * (z - s.z0)) \
        + s.center_level


def kink_pole_variant(s: KinkSolution, z):
    """Logistic-function form of the kink, singular on the real line at z0.

    v = branch * 2A * (theta - 1/2) + 1/(2 mu) with
    theta = 1 / (1 - exp(-k (z - z0))).  Shifting z0 by i*pi/k turns this
    into the pole-free tanh kink; complex z is accepted so that relation can
    be checked directly.
    """
    z = np.asarray(z)
    den = 1.0 - np.exp(-s.steepness * (z - s.z0))
    dmin = float(np.min(np.abs(den)))
    if dmin < s.steepness * POLE_THRESHOLD:
        raise PoleError("kink pole variant evaluated at its real pole",
                        distance=dmin / s.steepness)
    theta = 1.0 / den
    return s.branch * 2.0 * s.amplitude * (theta - 0.5) + s.center_level


def kink_derivatives(s: KinkSolution, z):
    """(v, v', v'', v''', v'''') of the kink, closed form."""
    z = np.asarray(z, dtype=float)
    half_k = 0.5 * s.steepness
    a = s.branch * s.amplitude
    th = np.tanh(half_k * (z - s.z0))
    sech2 = 1.0 - th * th
    v = a * th + s.center_level
    v1 = a * sech2 * half_k
    v2 = -2.0 * a * th * sech2 * half_k**2
    v3 = -2.0 * a * sech2 * (sech2 - 2.0 * th * th) * half_k**3
    v4 = 8.0 * a * th * sech2 * (2.0 * sech2 - th * th) * half_k**4
    return v, v1, v2, v3, v4


# ------------------------------------------------------------- elliptic

@dataclass(frozen=True)
class EllipticSolution:
    """Periodic solution v = H + B p'(z - z0) / (C + p(z - z0)).

    g3 is the free invariant; everything else is pinned by (mu, delta, g3).
    The poles of p stay on the real line, so the profile is singular there.
    """

    params: ModelParams
    g3: float
    z0: float = 0.0
    h_level: float = field(init=False)
    a_coef: float = field(init=False)  # pinned to 0 by the balance
    b_coef: float = field(init=False)
    c_coef: float = field(init=False)
    c0: float = field(init=False)
    c1: float = field(init=False)
    c2: float = field(init=False)
    g2: float = field(init=False)

    def __post_init__(self):
        mu, delta = self.params.mu, self.params.delta
        if not mu > 0:
            raise DomainError("elliptic solution requires mu > 0")
        if not (math.isfinite(self.g3) and math.isfinite(self.z0)):
            raise DomainError("elliptic g3 and z0 must be finite")
        g3 = self.g3
        den = 15.0 + 28.0 * mu
        d6 = delta**6
        object.__setattr__(self, "h_level", 1.0 / (2.0 * mu))
        object.__setattr__(self, "a_coef", 0.0)
        object.__setattr__(self, "b_coef", 2.0 * delta / np.sqrt(5.0 * mu))
        object.__setattr__(self, "c_coef", -den / (288.0 * mu * delta**2))
        c0 = -(2985984.0 * d6 * g3 * mu**3 + 78400.0 * mu**3 + 50400.0 * mu**2
               + 10800.0 * mu + 3375.0) / (6480.0 * mu**2 * den)
        c1 = -(2985984.0 * d6 * g3 * mu**3 + 78400.0 * mu**3 + 80640.0 * mu**2
               + 27000.0 * mu + 3375.0) / (12960.0 * mu**3 * den)
        # constant part of C2, then the g3 part (coefficient 15552/25, not
        # 1552/25: the smaller value fails the second integral identically,
        # the corrected one is the unique consistent choice)
        c2 = (-343.0 / (150.0 * den) - 833.0 / (180.0 * mu * den)
              - 7.0 / (2.0 * mu**2 * den) - 75.0 / (64.0 * mu**3 * den)
              - 75.0 / (512.0 * mu**4 * den)
              + 3577.0 / (48600.0 * mu) + 721.0 / (4320.0 * mu**2)
              + 103.0 / (1152.0 * mu**3) + 65.0 / (4608.0 * mu**4))
        c2 += g3 * (-336.0 * d6 / (25.0 * mu) + 15552.0 * d6 / (25.0 * den)
                    + 1296.0 * d6 / (5.0 * mu * den))
        g2 = -(5971968.0 * d6 * g3 * mu**3 - 21952.0 * mu**3 - 35280.0 * mu**2
               - 18900.0 * mu - 3375.0) / (20736.0 * delta**4 * mu**2 * den)
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "g2", g2)


def elliptic_coeffs(params: ModelParams, g3: float, z0: float = 0.0) -> EllipticSolution:
    """Fill every derived constant of the elliptic solution."""
    return EllipticSolution(params=params, g3=float(g3), z0=float(z0))


def elliptic_g3_for_speed(params: ModelParams, c0: float) -> float:
    """Invert the (linear) speed relation: the g3 giving wave speed c0."""
    mu, delta = params.mu, params.delta
    if not mu > 0:
        raise DomainError("requires mu > 0")
    den = 15.0 + 28.0 * mu
    poly = 78400.0 * mu**3 + 50400.0 * mu**2 + 10800.0 * mu + 3375.0
    return -(6480.0 * mu**2 * den * c0 + poly) / (2985984.0 * delta**6 * mu**3)


def elliptic_eval(s: EllipticSolution, z, on_pole: str = "raise"):
    """Evaluate the elliptic profile.

    ``on_pole="nan"`` fills NaN at points too close to a singularity (used
    for tabulation); the default raises PoleError.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float)) - s.z0
    w = WeierstrassP(s.g2, s.g3)
    distance = w.pole_distance(z)
    bad = distance < POLE_THRESHOLD
    if bad.any() and on_pole == "raise":
        raise PoleError("elliptic profile evaluated at a pole of p",
                        distance=float(np.min(distance)))
    out = np.full(z.shape, np.nan)
    good = ~bad
    if good.any():
        p, pp = w(z[good])
        den = s.c_coef + p
        near_zero = np.abs(den) < POLE_THRESHOLD * (1.0 + np.abs(p))
        if near_zero.any() and on_pole == "raise":
            raise PoleError("elliptic profile evaluated at a zero of C + p")
        out[good] = np.where(near_zero, np.nan,
                             s.h_level + s.b_coef * pp / np.where(near_zero, 1.0, den))
    return out if out.size > 1 else float(out[0])


def elliptic_derivatives(s: EllipticSolution, z):
    """(v, v', v'', v''') of the elliptic solution, closed form.

    On the curve q^2 = 4p^3 - g2 p - g3 the derivatives are rational in
    (p, q) with polynomial numerators:
        v'   = B n1(p) / (C + p)^2
        v''  = B q m(p) / (C + p)^3
        v''' = B [q' m (C+p) + q^2 m' (C+p) - 3 q^2 m] / (C + p)^4
    """
    z = np.asarray(z, dtype=float) - s.z0
    w = WeierstrassP(s.g2, s.g3)
    p, q = w(z)
    g2, g3 = s.g2, s.g3
    b, c = s.b_coef, s.c_coef
    den = c + p
    if float(np.min(np.abs(den))) < POLE_THRESHOLD * (1.0 + float(np.max(np.abs(p)))):
        raise PoleError("derivative evaluation at a zero of C + p")
    n1 = 2.0 * p**3 + 6.0 * c * p**2 + 0.5 * g2 * p + (g3 - 0.5 * g2 * c)
    m = 2.0 * p**3 + 6.0 * c * p**2 + (12.0 * c * c - 0.5 * g2) * p \
        + (1.5 * g2 * c - 2.0 * g3)
    m_p = 6.0 * p**2 + 12.0 * c * p + (12.0 * c * c - 0.5 * g2)
    q_sq = 4.0 * p**3 - g2 * p - g3
    q_prime = 6.0 * p**2 - 0.5 * g2
    v = s.h_level + b * q / den
    v1 = b * n1 / den**2
    v2 = b * q * m / den**3
    v3 = b * (q_prime * m * den + q_sq * m_p * den - 3.0 * q_sq * m) / den**4
    return v, v1, v2, v3


# -------------------------------------------------------------- solitons

@dataclass(frozen=True)
class GardnerSoliton:
    """Bell-shaped solitary wave of the third-order cubic equation."""

    params: ModelParams
    c0: float

    def __post_init__(self):
        if not self.c0 > 0:
            raise DomainError("soliton speed must be positive")
        if not 1.0 - 6.0 * self.c0 * self.params.mu > 0:
            raise DomainError("need 1 - 6 C0 mu > 0 for a real profile")


def gardner_soliton(s: GardnerSoliton, x, t: float = 0.0):
    """u = 6 C0 / (cosh(sqrt(C0/delta^2) (x - C0 t)) sqrt(1 - 6 C0 mu) + 1)."""
    z = np.asarray(x, dtype=float) - s.c0 * t
    width = np.sqrt(s.c0 / s.params.delta**2)
    root = np.sqrt(1.0 - 6.0 * s.c0 * s.params.mu)
    return 6.0 * s.c0 / (np.cosh(width * z) * root + 1.0)


@dataclass(frozen=True)
class KdV5Soliton:
    """Depression soliton of the fifth-order equation at mu = 0.

    Crest value delta^2 k^2 - 1/2 over the constant background
    -delta^2 k^2 / 2 - 1/2; travels to the left with speed
    delta^4 k^4 / 10 + 1/2.
    """

    k: float
    delta: float

    def __post_init__(self):
        if not (0 < self.k < math.inf and self.delta > 0):
            raise DomainError("soliton needs a finite k > 0 and delta > 0")

    @property
    def speed(self) -> float:
        return self.delta**4 * self.k**4 / 10.0 + 0.5

    @property
    def crest(self) -> float:
        return self.delta**2 * self.k**2 - 0.5

    @property
    def background(self) -> float:
        return -0.5 * self.delta**2 * self.k**2 - 0.5


def kdv5_soliton(s: KdV5Soliton, x, t: float = 0.0):
    """w(z) = d^2 k^2 - 1/2 - (3 d^2 k^2 / 2) tanh(k z / 2)^2, z = x + speed*t."""
    z = np.asarray(x, dtype=float) + s.speed * t
    dk2 = s.delta**2 * s.k**2
    return dk2 - 0.5 - 1.5 * dk2 * np.tanh(0.5 * s.k * z) ** 2


# ----------------------------------------------------- residual verifiers

def residual_first_integral(v, v1, v2, v4, c0, c1, params: ModelParams) -> float:
    """Max |C1 - C0 v + F| over the samples, F the equation's ``flux``."""
    v, v1, v2, v4 = (np.asarray(a, dtype=float) for a in (v, v1, v2, v4))
    return float(np.max(np.abs(c1 - c0 * v + flux(params, v, v1, v2, v4))))


def residual_second_integral(v, v1, v2, v3, c0, c1, c2, params: ModelParams) -> float:
    """Max |C2 + C1 v - C0 v^2/2 + v^3/6 - mu v^4/12 + d^2 v'^2/2
    + d^2 v v'^2/2 - mu d^2 v^2 v'^2/2 + (2/5) d^4 v' v''' - (1/5) d^4 v''^2|."""
    mu = params.mu
    d2 = params.delta**2
    v, v1, v2, v3 = (np.asarray(a, dtype=float) for a in (v, v1, v2, v3))
    expr = (c2 + c1 * v - 0.5 * c0 * v * v + v**3 / 6.0 - mu * v**4 / 12.0
            + 0.5 * d2 * v1 * v1 + 0.5 * d2 * v * v1 * v1
            - 0.5 * mu * d2 * v * v * v1 * v1
            + 0.4 * d2 * d2 * v1 * v3 - 0.2 * d2 * d2 * v2 * v2)
    return float(np.max(np.abs(expr)))
