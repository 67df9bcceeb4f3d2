"""Closed-form quadratic value function for the scalar LQ problem.

The concave quadratic Q(x, a) = k0 x^2/2 + k1 x + k2 a^2/2 + k3 a + k4 x a + k5
solves the stationary dynamic-programming equation of the discounted problem.
Matching coefficients yields six polynomial equations.  Expressing k0 and k2
through the cross coefficient k4 turns the xa equation into
g(k4) + k4 sqrt(rad(k4)) = 0 with g and rad quadratics in k4; squaring it
gives one quartic, whose real roots are the candidates for k4.  The remaining
coefficients follow by back-substitution, and the roots that squaring added
(those of g = +k4 sqrt(rad)) fail the residual check.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .lq import LqParams, lq_reward
from .policy import grad_a_q, q_theta, score_params_from_q

RESIDUAL_TOL = 1e-10
CONCAVITY_TOL = 1e-10


class SolveError(RuntimeError):
    """No concave quadratic solution was found for the given parameters."""


class KCoefficients(NamedTuple):
    """Coefficients of Q(x, a) = k0 x^2/2 + k1 x + k2 a^2/2 + k3 a + k4 x a + k5.

    For a valid value function k2 < 0 always, and away from degenerate reward
    configurations Q is strictly concave: k0 < 0 and k0 k2 - k4^2 > 0.  As a
    tuple of six floats it is a theta of :mod:`policy`'s value model.
    """

    k0: float
    k1: float
    k2: float
    k3: float
    k4: float
    k5: float

    def as_array(self) -> np.ndarray:
        return np.array(self)


def coefficient_residuals(k: KCoefficients, p: LqParams) -> np.ndarray:
    """Left-hand sides of the six coefficient-matching equations.

    Order: x^2, x, a^2, a, xa, constant.  All six vanish at a true solution.
    """
    lam, beta = p.lam, p.beta
    # squares by multiplication: float ** raises OverflowError where * gives inf
    r_x2 = (0.5 * beta * k.k0 - p.A * k.k0 - k.k4 * k.k4 / (2 * lam) - 0.5 * p.C * p.C * k.k0
            + 0.5 * p.M)
    r_x = beta * k.k1 - p.A * k.k1 - k.k3 * k.k4 / lam + p.P
    r_a2 = (0.5 * beta * k.k2 - k.k4 * p.B - k.k2 * k.k2 / (2 * lam) - 0.5 * k.k0 * (p.D * p.D)
            + 0.5 * p.N)
    r_a = beta * k.k3 - p.B * k.k1 - k.k2 * k.k3 / lam + p.Pp
    r_xa = beta * k.k4 - k.k0 * p.B - k.k4 * p.A - k.k2 * k.k4 / lam - k.k0 * p.C * p.D + p.R
    r_cons = beta * k.k5 - k.k2 - k.k3 * k.k3 / (2 * lam)
    return np.array([r_x2, r_x, r_a2, r_a, r_xa, r_cons])


def q_star(k: KCoefficients, x, a):
    """Evaluate the quadratic value function: :func:`policy.q_theta` at theta = k."""
    return q_theta(k, x, a)


def optimal_score(k: KCoefficients, lam: float, x, a):
    """Optimal action drift: the action gradient of Q scaled by 1/lam."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    return grad_a_q(k, x, a) / lam


def hjb_residual(k: KCoefficients, p: LqParams, x, a):
    """Pointwise residual of the stationary dynamic-programming equation.

    beta Q - Q_x (A x + B a) - Q_a^2 / (2 lam) - (C x + D a)^2 Q_xx / 2
    - sigma_a^2 Q_aa / 2 - r(x, a) with sigma_a^2 = 2; zero everywhere at a
    true solution.
    """
    q_x = k.k0 * x + k.k1 + k.k4 * a
    q_a = grad_a_q(k, x, a)
    sigma_x = p.C * x + p.D * a
    return (p.beta * q_theta(k, x, a)
            - q_x * (p.A * x + p.B * a)
            - q_a * q_a / (2 * p.lam)
            - 0.5 * sigma_x * sigma_x * k.k0
            - k.k2
            - lq_reward(p, x, a))


def k_to_optimal_params(k: KCoefficients, lam: float):
    """Map analytic coefficients to the learnable parameterizations.

    Returns (theta, v) with theta_i = k_i and v the score parameters
    (log(-k2/lam), k4/lam, k3/lam).  Requires k2 < 0.
    """
    theta = k.as_array()
    return theta, score_params_from_q(theta, lam)


# -- the k4 quartic ---------------------------------------------------------

def _k0_of(k4: float, p: LqParams) -> float:
    return (k4 * k4 / p.lam - p.M) / (p.beta - 2 * p.A - p.C * p.C)


def _radicand(k4: float, p: LqParams) -> float:
    # source term of the a^2 equation once k0 is eliminated
    shift = p.B * k4 + 0.5 * p.D * p.D * _k0_of(k4, p)
    return 0.25 * p.beta * p.beta + (p.N - 2 * shift) / p.lam


def _k4_quartic(p: LqParams) -> np.ndarray:
    """Coefficients, highest power first, of g(k4)^2 - k4^2 rad(k4).

    g(k4) + k4 sqrt(rad(k4)) is the xa equation once k0 = _k0_of(k4) and
    k2 = beta lam / 2 - lam sqrt(rad(k4)) are substituted; rad = _radicand.
    """
    den = p.beta - 2 * p.A - p.C * p.C
    k0 = np.array([1 / (p.lam * den), 0.0, -p.M / den])
    g = np.polyadd(-(p.B + p.C * p.D) * k0, [0.5 * p.beta - p.A, p.R])
    rad = np.polyadd(-p.D * p.D / p.lam * k0,
                     [-2 * p.B / p.lam, 0.25 * p.beta * p.beta + p.N / p.lam])
    return np.polysub(np.polymul(g, g), np.polymul([1.0, 0.0, 0.0], rad))


def _back_substitute(k4: float, p: LqParams):
    rad = _radicand(k4, p)
    if rad < 0:
        return None
    k0 = _k0_of(k4, p)
    k2 = 0.5 * p.beta * p.lam - p.lam * math.sqrt(rad)
    bma = p.beta - p.A
    den = bma * (p.beta - p.B * k4 / (p.lam * bma) - k2 / p.lam)
    if abs(den) < 1e-12:
        return None
    k3 = -(p.B * p.P + p.Pp * bma) / den
    k1 = k3 * k4 / (p.lam * bma) - p.P / bma
    k5 = (2 * p.lam * k2 + k3 * k3) / (2 * p.lam * p.beta)
    return KCoefficients(k0, k1, k2, k3, k4, k5)


def _concavity_ok(k: KCoefficients) -> bool:
    # the boundary case k0 = k4 = 0 (pure noise cost, no state coupling in the
    # reward) is admitted; interior solutions are strictly concave
    return (k.k2 < 0
            and k.k0 <= CONCAVITY_TOL
            and k.k0 * k.k2 - k.k4 * k.k4 >= -CONCAVITY_TOL)


def solve_lq(p: LqParams) -> KCoefficients:
    """Solve the coefficient system and return the concave quadratic solution.

    Takes the real part of every root of the k4 quartic, back-substitutes the
    other coefficients, and keeps candidates whose full residual vector is
    < 1e-10 and whose Hessian is (semi)negative definite.  Convex companion
    roots and the roots added by squaring are discarded; if several concave
    candidates remain the most concave one is returned and a multiplicity
    warning is emitted.
    """
    quartic = _k4_quartic(p)
    # k0 <= 0 bounds every admissible root by k4^2 <= lam M; leading terms
    # below rounding of the largest only add roots far outside that bound,
    # and left in place they swamp or overflow the companion matrix
    big = np.abs(quartic) > np.finfo(float).eps * np.max(np.abs(quartic))
    finite = np.all(np.isfinite(quartic))
    roots = np.roots(quartic[np.argmax(big):]).real.tolist() if finite else []

    candidates: list[KCoefficients] = []
    for k4 in roots:
        if any(abs(k4 - c.k4) < 1e-9 for c in candidates):
            continue
        k = _back_substitute(k4, p)
        if k is None:
            continue
        if np.max(np.abs(coefficient_residuals(k, p))) >= RESIDUAL_TOL:
            continue
        if not _concavity_ok(k):
            continue
        candidates.append(k)

    if not candidates:
        raise SolveError(
            "no concave quadratic solution found; "
            "the parameters may not admit a well-posed value function"
        )
    if len(candidates) > 1:
        warnings.warn(
            f"{len(candidates)} concave solutions found; returning the most concave",
            stacklevel=2,
        )
    return max(candidates, key=lambda k: k.k0 * k.k2 - k.k4 * k.k4)
