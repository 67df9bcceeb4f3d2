"""Action samplers for a frozen state.

Two ways to draw an action from the Boltzmann-like law induced by a score:
an (unadjusted) Langevin chain  da = score(x, a) dt + sqrt(2) dB  run at fixed
x, and a denoising reverse chain driven by the same score under a discrete
noise schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .sde import BLOCK, TAPE, NoiseSource, SimulationError

DDPM_EPS = 1e-12  # floor for 1 - alpha_bar in the reverse-chain divisor


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step variances of a denoising chain and their derived products.

    alphas[t] = 1 - betas[t]; alpha_bars[t] is the running product of alphas,
    strictly decreasing with every entry in (0, 1].
    """

    betas: np.ndarray
    alphas: np.ndarray = field(init=False)
    alpha_bars: np.ndarray = field(init=False)

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=float)
        if betas.ndim != 1 or len(betas) < 1:
            raise ValueError("betas must be a non-empty 1-d array")
        # array methods: every AlgoConfig builds a schedule, and np.any costs more
        if (betas <= 0).any() or (betas >= 1).any():
            raise ValueError("betas must lie strictly inside (0, 1)")
        alphas = 1.0 - betas
        alpha_bars = alphas.cumprod()
        # a long schedule's running product can underflow to 0
        if (alpha_bars[1:] >= alpha_bars[:-1]).any():
            raise ValueError("alpha_bars must be strictly decreasing")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "alpha_bars", alpha_bars)

    @property
    def n_steps(self) -> int:
        return len(self.betas)

    @cached_property
    def reverse_steps(self) -> tuple:
        """(t, coef, sqrt(alpha_t), sqrt(beta_t)) as Python floats for t = T-1..0.

        coef = (1 - alpha_t) / sqrt(max(1 - alpha_bar_t, DDPM_EPS)); computed
        once per schedule for :func:`ddpm_sample`.
        """
        rows = zip(range(self.n_steps), self.alphas.tolist(), self.alpha_bars.tolist(),
                   self.betas.tolist())
        return tuple((t, (1.0 - alpha) / math.sqrt(max(1.0 - alpha_bar, DDPM_EPS)),
                      math.sqrt(alpha), math.sqrt(beta))
                     for t, alpha, alpha_bar, beta in rows)[::-1]


def make_linear_schedule(t_steps: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Linearly interpolated schedule of ``t_steps`` variances."""
    if t_steps < 1:
        raise ValueError("t_steps must be at least 1")
    if not (0 < beta_start <= beta_end < 1):
        raise ValueError("need 0 < beta_start <= beta_end < 1")
    return NoiseSchedule(np.linspace(beta_start, beta_end, t_steps))


def ddpm_sample(score, x: float, schedule: NoiseSchedule, noise: NoiseSource) -> float:
    """Draw one action by running the reverse denoising chain at fixed x.

    Starts from a ~ N(0, 1) and iterates, for t = T..1,

        a <- (a + (1 - alpha_t) / sqrt(1 - alpha_bar_t) * score(x, a)) / sqrt(alpha_t)
             + sqrt(beta_t) * z

    with fresh z ~ N(0, 1) each step and the divisor floored at 1e-12.  The
    environment state stays frozen while the chain runs.  The chain runs
    under one ``np.errstate`` that silences overflow, so a score that returns
    numpy scalars ends a non-finite chain in the SimulationError, never in a
    numpy warning.  A score from :func:`policy.score_fn`, which carries its
    ``coefficients``, enters none: it computes on Python floats, which
    overflow to inf silently.
    """
    if hasattr(score, "coefficients"):
        return _ddpm_run(score, x, schedule, noise)
    with np.errstate(over="ignore", invalid="ignore"):
        return _ddpm_run(score, x, schedule, noise)


def _ddpm_run(score, x: float, schedule: NoiseSchedule, noise: NoiseSource) -> float:
    """The reverse chain of :func:`ddpm_sample`, from a fresh N(0, 1) draw."""
    a = float(noise.normal())
    for t, coef, sqrt_alpha, sqrt_beta in schedule.reverse_steps:
        a = (a + coef * score(x, a)) / sqrt_alpha + sqrt_beta * noise.normal()
        if not math.isfinite(a):
            raise SimulationError(f"sampler fault: non-finite action at reverse step {t}")
    return a


def ddpm_law(schedule: NoiseSchedule, c1: float, c0: float) -> tuple[float, float]:
    """Exact output law (mean, variance) of :func:`ddpm_sample` for the affine
    score c1 a + c0.

    Each reverse step maps a to g a + coef c0 / sqrt(alpha_t) + sqrt(beta_t) z
    with gain g = (1 + coef c1) / sqrt(alpha_t), so the N(0, 1) start stays
    Gaussian: mean <- g mean + coef c0 / sqrt(alpha_t), var <- g^2 var + beta_t.
    """
    mean, var = 0.0, 1.0
    betas = schedule.betas.tolist()
    for t, coef, sqrt_alpha, _ in schedule.reverse_steps:
        gain = (1.0 + coef * c1) / sqrt_alpha
        mean = gain * mean + coef * c0 / sqrt_alpha
        var = gain * gain * var + betas[t]
    return mean, var


def langevin_sample(score, x: float, a0, dt: float, n_steps: int, noise: NoiseSource):
    """Final iterate of a Langevin chain da = score(x, a) dt + sqrt(2) dB.

    For a concave quadratic value function the chain's stationary law is the
    Gaussian with mode at the value maximizer.  A step size of 0.01 with a
    burn-in of about 2000 steps and thinning 10 keeps successive retained
    samples weakly correlated: those are ``AlgoConfig``'s ``langevin_dt`` and
    ``langevin_steps`` defaults and the thinning of ``cqsm sample-actions``.

    One kernel for every score and start; an array ``a0`` runs one chain per
    entry in lockstep, calling the score on the whole array, and returns the
    array of final iterates.  The chain runs in stretches whose variates are
    drawn in one call, ``noise.normals(steps)`` for a float and
    ``noise.normal((steps,) + a0.shape)`` for an array, as per-step draws
    would draw them: ``TAPE`` steps for a float, at most ``BLOCK // a0.size``
    (at least one) for an array, so a draw holds at most max(a0.size,
    ``BLOCK``) values.  A score from :func:`policy.score_fn` carries its
    ``coefficients`` (slope, v1, v2); each stretch then runs on them with v1 x
    taken once, in the closure's operation order, so bitwise equal to calling
    it, and finiteness is checked once, after the stretch: a non-finite
    iterate stays non-finite, because every step adds to it.  Any other
    score, and the replay of a stretch that ended non-finite, is called at
    every step with a check per step, which names the first non-finite step.
    An array chain runs under one ``np.errstate`` that silences overflow, and
    so does each stretch of that per-step loop, so a fault ends in that
    SimulationError, never a numpy warning, even where a float chain's score
    returns numpy scalars.  A float chain's coefficient stretch enters none,
    because Python floats overflow to inf silently.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if not isinstance(a0, np.ndarray):
        return _langevin_run(score, x, float(a0), dt, n_steps, TAPE, noise.normals,
                             math.isfinite)
    a = np.asarray(a0, dtype=float)
    draw = lambda steps: noise.normal((steps,) + a.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        return _langevin_run(score, x, a, dt, n_steps, max(1, min(TAPE, BLOCK // max(1, a.size))),
                             draw, lambda values: np.isfinite(values).all())


def _langevin_run(score, x: float, a, dt: float, n_steps: int, stretch: int, draw, finite):
    """The chain of :func:`langevin_sample` from ``a``, in stretches of at
    most ``stretch`` steps whose variates ``draw(steps)`` returns, with
    ``finite(a)`` as the fault check."""
    root = math.sqrt(2.0 * dt)
    coefficients = getattr(score, "coefficients", None)
    for first in range(0, n_steps, stretch):
        draws = draw(min(stretch, n_steps - first))
        if coefficients is not None:
            start = a
            slope, v1, v2 = coefficients
            c = v1 * x
            for z in draws:
                a = a + (slope * a + c + v2) * dt + root * z
            if finite(a):
                continue
            a = start
        with np.errstate(over="ignore", invalid="ignore"):
            for k, z in enumerate(draws, first):
                a = a + score(x, a) * dt + root * z
                if not finite(a):
                    raise SimulationError(f"sampler fault: non-finite action at step {k}")
    return a


def langevin_law(dt: float, n_steps, a0: float, c1: float, c0: float) -> tuple[float, float]:
    """Exact law (mean, variance) of :func:`langevin_sample`'s final iterate
    from a0 for the affine score c1 a + c0, stable for -2 < c1 dt < 0.

    A step maps a to rho a + c0 dt + sqrt(2 dt) z with rho = 1 + c1 dt, so after
    K steps the mean is rho^K a0 + c0 dt (1 - rho^K) / (1 - rho) and the
    variance 2 dt (1 - rho^2K) / (1 - rho^2).  K = ``math.inf`` gives the
    stationary law, which for dt > 0 is not the Boltzmann law.
    """
    if not n_steps >= 1:
        raise ValueError("n_steps must be at least 1")
    if not -2.0 < c1 * dt < 0.0:
        raise ValueError(f"the chain needs -2 < c1 * dt < 0, got {c1 * dt}")
    rho = 1.0 + c1 * dt
    decay = rho ** n_steps
    return (decay * a0 + c0 * dt * (1.0 - decay) / (1.0 - rho),
            2.0 * dt * (1.0 - decay * decay) / (1.0 - rho * rho))

