"""Online actor-critic Q-score matching.

Each iteration observes one environment transition, forms the one-step
temporal difference of the discounted value model, updates the critic along
the model's parameter gradient, and nudges the score toward the critic's
scaled action gradient.  The learner core's one dispatch,
:func:`learner.action_draw`, binds the run's draw of the next action from
the configured sampler: a denoising chain, a Langevin chain, or an
Euler-Maruyama step of the action's own SDE ("direct_sde").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .learner import (AlgoConfig, DivergenceError, LearningRecord, action_draw, checked_params,
                      initial_action, learning_record, lr_schedule, score_of, score_slope)
from .lq import LqParams, euler_step, lq_reward
from .policy import grad_a_q, psi_features, q_features, q_theta
from .sde import NoiseSource, SimulationError

DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class LearnState:
    """Loop state of one online run after ``step`` completed iterations."""

    theta: np.ndarray
    v: np.ndarray
    x: float
    a: float
    step: int
    cumulative_reward: float


def td_delta(theta, v, x, a, x_next, a_next, r, dt, beta, lam) -> float:
    """One-step temporal difference of the discounted value model.

    delta = Q(x', a') - Q(x, a) + r dt - (lam/2) Psi(x, a)^2 dt - beta Q(x, a) dt

    Psi is the step's score closure: an overflowing exp(v0) raises DivergenceError.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    return _td(q_theta(theta, x, a), q_theta(theta, x_next, a_next), score_of(v)[1](x, a),
               r, dt, beta, lam)


def _td(q_here, q_next, psi, r, dt, beta, lam):
    """The formula of :func:`td_delta` from Q(x, a), Q(x', a') and Psi(x, a)."""
    return q_next - q_here + r * dt - 0.5 * lam * psi * psi * dt - beta * q_here * dt


def _step(theta: list, v: list, x: float, a: float, step: int, cfg: AlgoConfig, env, draw,
          noise: NoiseSource):
    """The step formula on Python floats: (theta', v', x', a', r) after ``step`` steps.

    theta and v are lists of 6 and 3 floats; the returned ones are new lists.
    ``draw`` is cfg's :func:`learner.action_draw`.  exp(v0) is taken once,
    and the score's coefficients (slope, v1, v2) give Psi(x, a), by the
    formula of :func:`policy.score_fn`, and drive the draw.  Each update
    is written per coordinate, as ``p + rate * (g * err)`` over the unpacked
    parameters and features, because a comprehension would run in a frame
    of its own.
    """
    w0, w1, w2 = v
    slope = score_slope(w0, step)
    psi = slope * a + w1 * x + w2
    x_next, r = env(x, a)
    a_next = draw(slope, w1, w2, x, a, x_next, noise)

    delta = _td(q_theta(theta, x, a), q_theta(theta, x_next, a_next), psi,
                r, cfg.dt, cfg.beta, cfg.lam)
    lr = lr_schedule(step * cfg.dt)
    rate_theta = lr * cfg.alpha_theta
    t0, t1, t2, t3, t4, t5 = theta
    g0, g1, g2, g3, g4, g5 = q_features(x, a)
    theta_next = [t0 + rate_theta * (g0 * delta), t1 + rate_theta * (g1 * delta),
                  t2 + rate_theta * (g2 * delta), t3 + rate_theta * (g3 * delta),
                  t4 + rate_theta * (g4 * delta), t5 + rate_theta * (g5 * delta)]
    mismatch = grad_a_q(theta, x, a) / cfg.lam - psi
    rate_v = lr * cfg.alpha_v
    h0, h1, h2 = psi_features(slope, x, a)
    v_next = [w0 + rate_v * (mismatch * h0), w1 + rate_v * (mismatch * h1),
              w2 + rate_v * (mismatch * h2)]

    for p in theta_next + v_next:
        if not abs(p) <= DIVERGENCE_LIMIT:  # NaN and inf both fail the comparison
            raise DivergenceError(f"parameters diverged at step {step} (last delta {delta:.6g})")
    return theta_next, v_next, x_next, a_next, r


def cqsm_step(state: LearnState, cfg: AlgoConfig, env, noise: NoiseSource) -> LearnState:
    """One loop iteration: transition, TD, critic and actor updates.

    ``env`` maps (x, a) to (x', reward rate).  The new action at x' is drawn
    by the configured sampler (the state noise is drawn first inside ``env``,
    then the action noise).  The transition pair (x', a') becomes the next
    iterate's (x, a), so each action is sampled once and reused.

    A wrapper of the float step that :func:`run_cqsm` runs: it binds cfg's
    draw, unpacks the state's arrays and packs the result into a new
    ``LearnState``.
    """
    theta, v, x, a, r = _step(state.theta.tolist(), state.v.tolist(), state.x, state.a,
                              state.step, cfg, env, action_draw(cfg), noise)
    return LearnState(np.array(theta), np.array(v), x, a, state.step + 1,
                      state.cumulative_reward + r * cfg.dt)


def run_cqsm(cfg: AlgoConfig, p: LqParams, theta0, v0) -> LearningRecord:
    """Run the online loop for cfg.n_steps iterations and record thinned series.

    The run is a pure function of (cfg, p, theta0, v0); equal seeds reproduce
    identical records.  Records are kept at step 0, every cfg.record_every-th
    step, and the final step.  The loop is float-resident: theta, v, the pair
    (x, a) and the cumulative reward stay Python values from the first step
    to the last, and arrays are built only for the record.
    """
    theta, v = (arr.tolist() for arr in checked_params(theta0, v0))

    noise = NoiseSource(cfg.seed)
    env, draw = euler_step(p, cfg.dt, noise), action_draw(cfg)
    try:
        x, a = cfg.x0, float(initial_action(cfg, v, cfg.x0, noise))
        cum = 0.0
        rows = [(0, theta, v, float(lq_reward(p, x, a)), 0.0)]

        for done in range(1, cfg.n_steps + 1):
            theta, v, x, a, r = _step(theta, v, x, a, done - 1, cfg, env, draw, noise)
            prev_cum, cum = cum, cum + r * cfg.dt
            if done % cfg.record_every == 0 or done == cfg.n_steps:
                rows.append((done, theta, v, (cum - prev_cum) / cfg.dt, cum / (done * cfg.dt)))
    except SimulationError as exc:
        raise type(exc)(f"run with seed {cfg.seed}: {exc}") from exc
    return learning_record(rows, cfg.dt, cfg.seed)
