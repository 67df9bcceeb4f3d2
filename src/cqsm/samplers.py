"""Action samplers for a frozen state.

Two ways to draw an action from the Boltzmann-like law induced by a score:
an (unadjusted) Langevin chain  da = score(x, a) dt + sqrt(2) dB  run at fixed
x, and a denoising reverse chain driven by the same score under a discrete
noise schedule.  Each chain draws its variates in blocks from the noise
source's stream, in the order per-step draws would take them.  A Langevin
chain of an affine score whose step is stable is taken in closed form, one
block of draws at a time, so it differs from stepping only in rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .sde import BLOCK, TAPE, NoiseSource, SimulationError

DDPM_EPS = 1e-12  # floor for 1 - alpha_bar in the reverse-chain divisor
POWERS = np.arange(TAPE - 1, -1, -1.0)  # exponents of a Langevin stretch's noise weights


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
    """The reverse chain of :func:`ddpm_sample`, from a fresh N(0, 1) draw;
    the start's and the T steps' variates are drawn in one call."""
    draws = iter(noise.normals(schedule.n_steps + 1))
    a = float(next(draws))
    for (t, coef, sqrt_alpha, sqrt_beta), z in zip(schedule.reverse_steps, draws):
        a = (a + coef * score(x, a)) / sqrt_alpha + sqrt_beta * z
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
    Gaussian with mode at the value maximizer.  A step size of 0.01 with
    about 2000 steps from the start reaches that law, to six digits for the
    reference score: those are ``AlgoConfig``'s ``langevin_dt`` and
    ``langevin_steps`` defaults.

    One kernel for every score and start; an array ``a0`` runs one chain per
    entry in lockstep, calling the score on the whole array, and returns the
    array of final iterates.  The chain runs in stretches whose variates are
    drawn in one call, ``noise.normal((steps,) + np.shape(a0))``, as per-step
    draws would draw them: ``TAPE`` steps for a float, at most ``BLOCK //
    a0.size`` (at least one) for an array, so a draw holds at most
    max(a0.size, ``BLOCK``) values.  A score from :func:`policy.score_fn`
    carries its ``coefficients`` (slope, v1, v2); where the step's gain
    rho = 1 + slope dt lies in (-1, 1], each stretch of n steps is taken in
    closed form, the mean map of :func:`langevin_law` plus the stretch's
    draws weighted by sqrt(2 dt) (rho^(n-1), ..., rho, 1) in one dot
    product, and finiteness is checked once, on its end.  A float chain of
    such a score is :func:`langevin_draw`'s.  Any other score, an unstable
    gain, and the replay of a stretch whose closed form is not finite are
    called at every step with a check per step, which names the first
    non-finite step.  An array chain runs under one ``np.errstate`` that
    silences overflow, and so does each stretch of that per-step loop, so a
    fault ends in that SimulationError, never a numpy warning, even where a
    float chain's score returns numpy scalars.  A float chain's closed-form
    stretch enters none: its weights are bounded by 1, and its sum is a
    Python float, which overflows to inf silently.
    """
    _check_chain(dt, n_steps)
    if not isinstance(a0, np.ndarray):
        coefficients = getattr(score, "coefficients", None)
        if coefficients is not None:
            return langevin_draw(dt, n_steps, a0)(*coefficients, x, noise)
        return _langevin_run(score, x, float(a0), dt, n_steps, TAPE, noise, math.isfinite)
    a = np.asarray(a0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return _langevin_run(score, x, a, dt, n_steps, max(1, min(TAPE, BLOCK // max(1, a.size))),
                             noise, lambda values: np.isfinite(values).all())


def _check_chain(dt: float, n_steps: int):
    """ValueError unless dt > 0 and n_steps >= 1."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")


def langevin_draw(dt: float, n_steps: int, a0: float):
    """The float chain of :func:`langevin_sample` from a0 for an affine score,
    bound once: ``draw(slope, v1, v2, x, noise)`` is ``langevin_sample(
    policy.score_fn(slope, v1, v2), x, a0, dt, n_steps, noise)``, bit for bit.

    The checks of dt and n_steps, sqrt(2 dt), the stretch lengths and their
    slices of ``POWERS`` are fixed here, once.  A stable stretch of n steps
    ends at :func:`_affine_mean` plus sqrt(2 dt) times the dot product of
    its weights (rho^(n-1), ..., rho, 1) with its draws.  The draw keeps the
    weights of the last stable rho it met, a one-entry cache: a weight is
    rho ** POWERS[k], a function of rho alone, so a draw whose rho equals
    the previous draw's, as every draw at a fixed score has, takes no
    power.  An unstable rho takes no weights and leaves the cache as it
    is.  The per-step replay evaluates the score's formula inline, on the
    same floats as the closure.  The stretch loop is a ``while`` and its
    length a conditional expression: ``range`` and ``min`` would add about
    0.2 us to a 50-step chain of about 3 us.
    """
    _check_chain(dt, n_steps)
    a0, root = float(a0), math.sqrt(2.0 * dt)
    full = min(n_steps, TAPE)  # the length of every stretch but the last
    last = (n_steps - 1) % TAPE + 1  # the length of the last stretch
    full_powers, last_powers = POWERS[TAPE - full:], POWERS[TAPE - last:]
    cache = (math.nan, None, None)  # (rho, weights of a full stretch, of the last)

    def draw(slope, v1, v2, x, noise):
        nonlocal cache
        rho, shift = 1.0 + slope * dt, (v1 * x + v2) * dt
        stable = -1.0 < rho <= 1.0
        if stable:
            key, full_weights, last_weights = cache
            if rho != key:
                full_weights = rho ** full_powers
                last_weights = full_weights if last == full else rho ** last_powers
                cache = rho, full_weights, last_weights
        a, first = a0, 0
        while first < n_steps:
            n = n_steps - first if n_steps - first < TAPE else TAPE
            draws = noise.normal((n,))
            if stable:
                weights = last_weights if n == last else full_weights
                end = _affine_mean(rho, n, a, shift) + root * float(weights.dot(draws))
                if math.isfinite(end):
                    a = end
                    first += n
                    continue
            with np.errstate(over="ignore", invalid="ignore"):
                for k, z in enumerate(draws.tolist(), first):
                    a = a + (slope * a + v1 * x + v2) * dt + root * z
                    if not math.isfinite(a):
                        raise SimulationError(f"sampler fault: non-finite action at step {k}")
            first += n
        return a

    return draw


def _langevin_run(score, x: float, a, dt: float, n_steps: int, stretch: int,
                  noise: NoiseSource, finite):
    """The chain of :func:`langevin_sample` from ``a``, an array, or a float
    whose score carries no coefficients, in stretches of at most ``stretch``
    steps, with ``finite(a)`` as the fault check.

    A stable affine stretch of n steps ends at :func:`_affine_mean` plus
    sqrt(2 dt) times the dot product of its weights (rho^(n-1), ..., rho, 1)
    with its draws along their first axis.
    """
    root = math.sqrt(2.0 * dt)
    shape = getattr(a, "shape", ())  # () for a float
    rho = shift = math.nan  # a score without coefficients runs per step
    coefficients = getattr(score, "coefficients", None)
    if coefficients is not None:
        slope, v1, v2 = coefficients
        rho, shift = 1.0 + slope * dt, (v1 * x + v2) * dt
    first = 0
    while first < n_steps:
        n = n_steps - first if n_steps - first < stretch else stretch
        draws = noise.normal((n,) + shape)
        if -1.0 < rho <= 1.0:
            weights = rho ** POWERS[TAPE - n:]
            end = (_affine_mean(rho, n, a, shift)
                   + root * weights.dot(draws.reshape(n, -1)).reshape(shape))
            if finite(end):
                a = end
                first += n
                continue
        with np.errstate(over="ignore", invalid="ignore"):
            for k, z in enumerate(draws if shape else draws.tolist(), first):
                a = a + score(x, a) * dt + root * z
                if not finite(a):
                    raise SimulationError(f"sampler fault: non-finite action at step {k}")
        first += n
    return a


def _affine_mean(rho: float, n, a, shift: float):
    """a after n steps a <- rho a + shift: rho^n a + shift (1 - rho^n) / (1 - rho),
    which is a + n shift at rho = 1."""
    decay = rho ** n
    return decay * a + (shift * n if rho == 1.0 else shift * (1.0 - decay) / (1.0 - rho))


def langevin_law(dt: float, n_steps, a0: float, c1: float, c0: float) -> tuple[float, float]:
    """Exact law (mean, variance) of :func:`langevin_sample`'s final iterate
    from a0 for the affine score c1 a + c0, stable for -2 < c1 dt < 0.

    A step maps a to rho a + c0 dt + sqrt(2 dt) z with rho = 1 + c1 dt, so after
    K steps the mean is rho^K a0 + c0 dt (1 - rho^K) / (1 - rho) and the
    variance 2 dt (1 - rho^2K) / (1 - rho^2), both :func:`_affine_mean`
    maps, which take their limits a0 + K c0 dt and 2 dt K where c1 dt is
    too small to move rho (or rho^2) off 1.  K = ``math.inf`` gives the
    stationary law, which for dt > 0 is not the Boltzmann law.
    """
    if not n_steps >= 1:
        raise ValueError("n_steps must be at least 1")
    if not -2.0 < c1 * dt < 0.0:
        raise ValueError(f"the chain needs -2 < c1 * dt < 0, got {c1 * dt}")
    rho = 1.0 + c1 * dt
    return (_affine_mean(rho, n_steps, a0, c0 * dt),
            _affine_mean(rho * rho, n_steps, 0.0, 2.0 * dt))

