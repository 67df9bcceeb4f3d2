"""Scalar linear-quadratic control environment: the linear dynamics of
:class:`sde.DynamicsSpec` and a quadratic reward."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .sde import DynamicsSpec, NoiseSource, SimulationError


@dataclass(frozen=True)
class LqParams:
    """The eleven scalars defining one LQ problem instance.

    A, B, C, D are the dynamics coefficients; M, N, R, P, Pp the reward
    coefficients (Pp multiplies the action's linear term); beta the discount
    rate and lam the score regularization weight.  The defaults are the
    reference instance, the one ``configs/reference.cfg`` states.
    Construction enforces finite fields, N > 0, M >= 0, beta > 0, lam > 0 and
    beta > 2A + C^2 (a discount rate large enough to keep the discounted
    quadratic objective finite).
    """

    A: float = -1.0
    B: float = 0.0
    C: float = 0.0
    D: float = 1.0
    M: float = 2.0
    N: float = 2.0
    R: float = 1.0
    P: float = 1.0
    Pp: float = 2.0
    beta: float = 1.0
    lam: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not self.N > 0:
            raise ValueError("N must be positive")
        if self.M < 0:
            raise ValueError("M must be nonnegative")
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if not self.beta > 2 * self.A + self.C ** 2:
            raise ValueError(
                "discount rate too small: beta must exceed 2*A + C^2 "
                f"(beta={self.beta}, 2*A + C^2={2 * self.A + self.C ** 2})"
            )


def lq_reward(p: LqParams, x, a):
    """Instantaneous reward rate -(M/2 x^2 + R x a + N/2 a^2 + P x + Pp a)."""
    return -(0.5 * p.M * x * x + p.R * x * a + 0.5 * p.N * a * a + p.P * x + p.Pp * a)


def euler_step(p: LqParams, dt: float, noise: NoiseSource):
    """The state step of one run, bound once: ``step(x, a)`` advances the
    state one Euler-Maruyama step and returns (x', reward rate).

    x' = x + (A x + B a) dt + (C x + D a) sqrt(dt) z with z standard normal
    from ``noise``.  The returned reward is the instantaneous rate (the
    caller multiplies by dt where a per-step contribution is needed).  dt is
    checked, and sqrt(dt) taken, here rather than at every step.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    A, B, C, D, root = p.A, p.B, p.C, p.D, math.sqrt(dt)

    def step(x: float, a: float):
        z = noise.normal()
        x_next = x + (A * x + B * a) * dt + (C * x + D * a) * root * z
        if not math.isfinite(x_next):
            raise SimulationError(f"environment fault: non-finite state from x={x}, a={a}")
        return x_next, lq_reward(p, x, a)

    return step


def env_step(p: LqParams, x: float, a: float, dt: float, noise: NoiseSource):
    """One step of :func:`euler_step`: (x', reward rate) from (x, a)."""
    return euler_step(p, dt, noise)(x, a)


def lq_dynamics(p: LqParams, score) -> DynamicsSpec:
    """The joint state-action SDE of this instance under a given score: its
    coefficients A, B, C, D packed with the score, which must broadcast over
    arrays so the same dynamics drive scalar and batched simulation."""
    return DynamicsSpec(p.A, p.B, p.C, p.D, score)


def lq_reward_fn(p: LqParams):
    """Reward closure for use with the simulators."""
    return lambda x, a: lq_reward(p, x, a)
