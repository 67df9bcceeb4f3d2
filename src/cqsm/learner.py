"""The learner core below the online and offline drivers.

Both learn the quadratic value model and the affine score Psi under one
:class:`AlgoConfig` and return a :class:`LearningRecord`; both take the
score closure of v from :func:`score_at` and draw actions through the one
sampler dispatch, :func:`next_action`, whose law :func:`action_law` states.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .lq import LqParams
from .policy import score_fn
from .samplers import ddpm_law, ddpm_sample, langevin_law, langevin_sample, make_linear_schedule
from .sde import NoiseSource, SimulationError

SAMPLERS = ("direct_sde", "langevin", "ddpm")
EXP_LIMIT = math.log(sys.float_info.max)  # largest v0 whose exp(v0) is finite


class DivergenceError(SimulationError):
    """Learned parameters left the finite range during an update."""


@dataclass(frozen=True)
class AlgoConfig:
    """Hyperparameters of one learning run.

    ``sampler`` selects how actions are drawn: "direct_sde" evolves the
    action by its own SDE alongside the state, "langevin" re-equilibrates a
    Langevin chain at each new state (restarted from a0), "ddpm" denoises a
    fresh Gaussian draw each step.
    ``record_every`` thins the recorded time series.

    The fields are the ``algo.*`` config keys (``lam`` spelled ``lambda``)
    and their defaults are the defaults of those keys.  The sampler defaults
    to "direct_sde": it is the paper's joint action SDE, and the only sampler
    whose critic fixed point tends to the optimum as dt -> 0 (the restarted
    Langevin chain's action coefficients shrink in proportion to dt).
    ``langevin_steps`` 2000 suits one-shot sampling at ``langevin_dt`` 0.01.
    The reference experiment, ``configs/reference.cfg``, sets langevin with
    50 inner steps and ``record_every`` 1000; it is an experiment, not a
    default.  Construction, ``dataclasses.replace`` included, checks the
    fields and sets ``ddpm_schedule``, the linear DDPM noise schedule of
    ``ddpm_steps``, ``ddpm_beta_start`` and ``ddpm_beta_end``; values that
    form no schedule are refused under every sampler.
    """

    dt: float = 0.1
    n_steps: int = 100_000
    alpha_theta: float = 0.01
    alpha_v: float = 0.01
    beta: float = LqParams.beta
    lam: float = LqParams.lam
    seed: int = 0
    sampler: str = "direct_sde"
    record_every: int = 100
    x0: float = 0.0
    a0: float = 0.0
    langevin_dt: float = 0.01
    langevin_steps: int = 2000
    ddpm_steps: int = 20
    ddpm_beta_start: float = 1e-3
    ddpm_beta_end: float = 0.19

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")
        if self.alpha_theta < 0 or self.alpha_v < 0:
            raise ValueError("learning rates must be nonnegative")
        if self.beta <= 0 or self.lam <= 0:
            raise ValueError("beta and lam must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}; choose from {SAMPLERS}")
        if self.langevin_dt <= 0 or self.langevin_steps < 1:
            raise ValueError("langevin_dt must be positive and langevin_steps >= 1")
        try:
            schedule = make_linear_schedule(self.ddpm_steps, self.ddpm_beta_start,
                                            self.ddpm_beta_end)
        except (ValueError, MemoryError) as exc:  # an absurd ddpm_steps cannot be allocated
            raise ValueError(f"ddpm_steps = {self.ddpm_steps}, ddpm_beta_start = "
                             f"{self.ddpm_beta_start}, ddpm_beta_end = {self.ddpm_beta_end} "
                             f"form no noise schedule: {exc}") from exc
        # a plain attribute, not a field: no config key, and no lazy read to slow later loads
        object.__setattr__(self, "ddpm_schedule", schedule)


@dataclass(frozen=True)
class LearningRecord:
    """Thinned time series of one learning run.

    ``reward_rates[i]`` is the rate of the transition completed at the
    recorded step (the rate at the initial pair for step 0);
    ``running_avg[i]`` is the cumulative time average of reward over all
    completed transitions (0 at step 0).
    """

    steps: np.ndarray
    times: np.ndarray
    thetas: np.ndarray
    vs: np.ndarray
    reward_rates: np.ndarray
    running_avg: np.ndarray
    seed: int

    @property
    def final_theta(self) -> np.ndarray:
        return self.thetas[-1]

    @property
    def final_v(self) -> np.ndarray:
        return self.vs[-1]

    @property
    def final_running_avg(self) -> float:
        return float(self.running_avg[-1])


def lr_schedule(t: float) -> float:
    """Learning-rate decay 1 / max(1, sqrt(log t)), clamped to 1 for t <= e.

    The logarithm is floored at zero so the schedule extends continuously
    to t < 1.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t <= 1.0:
        return 1.0
    return 1.0 / max(1.0, math.sqrt(math.log(t)))


def score_at(v0: float, v1: float, v2: float, step: int | None = None):
    """The score slope -exp(v0) and the score closure of v = (v0, v1, v2).

    Raises DivergenceError, before any sampling, when exp(v0) overflows; the
    message names ``step`` when one is given.
    """
    if v0 > EXP_LIMIT:
        at = "" if step is None else f" at step {step}"
        raise DivergenceError(f"score slope -exp(v0) overflows{at} (v0 = {v0:.6g})")
    slope = float(-np.exp(v0))
    return slope, score_fn(slope, v1, v2)


def score_of(v):
    """:func:`score_at` of v, an array or sequence of three numbers, outside any step."""
    return score_at(*np.asarray(v, dtype=float).tolist())


def next_action(cfg: AlgoConfig, score, x: float, a: float, x_next: float,
                noise: NoiseSource) -> float:
    """The sampler's next action once the pair (x, a) has moved the state to x_next.

    "direct_sde" steps the action SDE by Euler-Maruyama at (x, a).  A Langevin
    chain restarts from cfg.a0 at x_next, which bounds how far one environment
    step can carry the action while the score is poorly fitted; DDPM denoises
    a fresh draw there.
    """
    if cfg.sampler == "direct_sde":
        return a + score(x, a) * cfg.dt + math.sqrt(2.0 * cfg.dt) * noise.normal()
    if cfg.sampler == "ddpm":
        return ddpm_sample(score, x_next, cfg.ddpm_schedule, noise)
    return langevin_sample(score, x_next, cfg.a0, cfg.langevin_dt, cfg.langevin_steps, noise)


def action_law(cfg: AlgoConfig, score, x: float, a: float,
               x_next: float) -> tuple[float, float, float]:
    """(gain, shift, var) such that :func:`next_action` draws from
    N(gain a + shift, var), exactly, for a :func:`policy.score_fn` closure.

    The Euler step keeps gain 1 + slope dt of a; the restarted chains forget a
    (gain 0) and draw from :func:`samplers.langevin_law` and
    :func:`samplers.ddpm_law` of the score at x_next.
    """
    slope, v1, v2 = score.coefficients
    if cfg.sampler == "direct_sde":
        return 1.0 + slope * cfg.dt, (v1 * x + v2) * cfg.dt, 2.0 * cfg.dt
    c0 = v1 * x_next + v2
    if cfg.sampler == "ddpm":
        return (0.0, *ddpm_law(cfg.ddpm_schedule, slope, c0))
    return (0.0, *langevin_law(cfg.langevin_dt, cfg.langevin_steps, cfg.a0, slope, c0))


def initial_action(cfg: AlgoConfig, v, x: float, noise: NoiseSource) -> float:
    """The first action at state x: cfg.a0 for "direct_sde", which has no
    fresh draw, and otherwise the sampler's draw at x."""
    if cfg.sampler == "direct_sde":
        return cfg.a0
    return next_action(cfg, score_of(v)[1], x, cfg.a0, x, noise)


def checked_params(theta0, v0) -> tuple[np.ndarray, np.ndarray]:
    """Fresh float copies of theta0 and v0; ValueError naming a wrong shape or
    a non-finite entry."""
    arrays = []
    for name, value, size in (("theta0", theta0, 6), ("v0", v0, 3)):
        arr = np.array(value, dtype=float, copy=True)
        if arr.shape != (size,):
            raise ValueError(f"{name} must have {size} entries, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite, got {arr.tolist()}")
        arrays.append(arr)
    return arrays[0], arrays[1]


def learning_record(rows, time_per_step: float, seed: int) -> LearningRecord:
    """The LearningRecord of the recorded rows; times are steps * time_per_step.

    Each row is a tuple (step, theta, v, reward rate, running average).
    """
    steps, thetas, vs, rates, avgs = zip(*rows)
    steps_arr = np.asarray(steps, dtype=int)
    return LearningRecord(
        steps=steps_arr,
        times=steps_arr * time_per_step,
        thetas=np.asarray(thetas),
        vs=np.asarray(vs),
        reward_rates=np.asarray(rates),
        running_avg=np.asarray(avgs),
        seed=seed,
    )
