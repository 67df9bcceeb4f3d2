"""Episodic offline Q-score matching on whole rollouts.

One episode is a truncated rollout under the current score.  For every grid
point the discounted return-to-go gap G_k, which :mod:`martingale` states
together with the discount weights w_k = exp(-beta t_k), measures how far the
value model is from the realized discounted net reward.  One training step
per episode moves theta along sum_k (dQ/dtheta)_k G_k dt, then moves v along
the discounted score-gradient integral
sum_k w_k (dQ/da - lam Psi)_k (dPsi/dv)_k dt at the new theta, whose
stationary point is the exact fit of the critic's scaled action gradient.

With G_k = w_k (R_k - Q_k), R_k the discounted net return-to-go seen from
t_k, the critic step is a discount-weighted regression of Q on the realized
returns, descent on 1/2 sum_k w_k (R_k - Q_k)^2 dt.  It is not descent on
the squared-gap loss :func:`martingale.martingale_loss`, whose gradient
weights each term by w_k once more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .learner import (AlgoConfig, DivergenceError, LearningRecord, checked_params,
                      initial_action, learning_record, lr_schedule, score_of, score_slope)
from .lq import LqParams, lq_dynamics, lq_reward_fn
from .martingale import discount_weights, return_gaps
from .policy import grad_a_q, psi_features, q_features, q_theta
from .sde import NoiseSource, SimulationError, Trajectory, simulate_from


@dataclass(frozen=True)
class Episode:
    """One truncated rollout plus its discount weights exp(-beta t) on its grid."""

    trajectory: Trajectory
    discount_weights: np.ndarray


def rollout_episode(p: LqParams, v, cfg: AlgoConfig, noise: NoiseSource) -> Episode:
    """Simulate one on-policy episode of cfg.n_steps transitions.

    The initial action at cfg.x0 comes from the configured sampler; within the
    episode the action evolves continuously through its own SDE.
    """
    a0 = initial_action(cfg, v, cfg.x0, noise)
    _, score = score_of(v)
    traj = simulate_from(lq_dynamics(p, score), lq_reward_fn(p), cfg.x0, a0, cfg.dt,
                         cfg.n_steps, noise)
    return Episode(traj, discount_weights(traj.states.shape, traj.dt, cfg.beta))


def offline_update(ep: Episode, theta, v, cfg: AlgoConfig, episode_index: int):
    """One training step on one episode; returns new arrays (theta', v').

    The critic steps along sum_k (dQ/dtheta)(x_k, a_k) G_k dt; the score then
    steps along :func:`score_gradient_residual` at the new theta.  The score
    does not follow its own gap-weighted sensitivities, because that rule
    drifts away from the critic's action-gradient fit when started far from
    it.  ``episode_index`` is the 1-based episode counter feeding the
    learning-rate schedule.  Psi is evaluated once, over the episode's K + 1
    points, and the score step reuses its first K values.
    """
    theta = np.asarray(theta, dtype=float)
    v = np.asarray(v, dtype=float)
    traj = ep.trajectory
    _, score = score_of(v)
    psi = score(traj.states, traj.actions)
    gaps = return_gaps(ep.discount_weights, traj.reward_rates,
                       q_theta(theta, traj.states, traj.actions), psi, traj.dt, cfg.lam)
    grads = _feature_matrix(q_features(traj.states[:-1], traj.actions[:-1]), len(gaps))
    lr = lr_schedule(float(episode_index))
    theta_next = theta + lr * cfg.alpha_theta * (traj.dt * grads.T @ gaps)
    if not np.isfinite(theta_next).all():
        raise DivergenceError(f"offline update diverged at episode {episode_index}")
    v_next = v + lr * cfg.alpha_v * score_gradient_residual(theta_next, v, cfg.lam, ep,
                                                            psi[:-1])
    if not np.isfinite(v_next).all():
        raise DivergenceError(f"offline score update diverged at episode {episode_index}")
    return theta_next, v_next


def score_gradient_residual(theta, v, lam: float, ep: Episode, psi=None) -> np.ndarray:
    """Discounted integral of (grad_a Q - lam Psi) dPsi/dv along the episode.

    Vanishes identically when the score reproduces the value model's scaled
    action gradient; otherwise its sign points back toward that fit.  ``psi``
    is Psi of v at the episode's first K points, where the caller has it;
    without it the score closure of v evaluates it.

    The three sensitivities dPsi/dv are the contiguous rows of a (3, K)
    array, and each component's sum runs left to right over the episode,
    from +0.0, along its row.  That is the order in which ``sum(axis=0)``
    reduces a C-ordered (K, 3) matrix of the same products, row after row,
    so the bits are those of that sum; the ``+ 0.0`` is its +0.0 start,
    which turns a row of -0.0 products into +0.0.
    """
    traj = ep.trajectory
    xs = traj.states[:-1]
    as_ = traj.actions[:-1]
    w = ep.discount_weights[:-1]
    if psi is None:
        slope, score = score_of(v)
        psi = score(xs, as_)
    else:
        slope = score_slope(float(v[0]))
    gap = grad_a_q(theta, xs, as_) - lam * psi
    sens = np.empty((3, len(xs)))
    sens[0], sens[1], sens[2] = psi_features(slope, xs, as_)
    return traj.dt * (np.add.accumulate((w * gap) * sens, axis=1)[:, -1] + 0.0)


def _feature_matrix(features, n: int) -> np.ndarray:
    """The C-ordered (n, len(features)) matrix whose column j is features[j],
    an array of n values or a scalar broadcast down the column."""
    out = np.empty((n, len(features)))
    for j, column in enumerate(features):
        out[:, j] = column
    return out


def run_offline(cfg: AlgoConfig, p: LqParams, theta0, v0, n_episodes: int) -> LearningRecord:
    """Train over ``n_episodes`` episodes of cfg.n_steps transitions each.

    Each episode is rolled out under the current score and then takes one
    :func:`offline_update` step.

    Episode seeds derive deterministically from cfg.seed.  The returned record
    uses the episode index as the step column; the reward-rate column holds
    each recorded episode's mean reward rate and the running average is the
    time average over all completed episodes.
    """
    if n_episodes < 0:
        raise ValueError("n_episodes must be nonnegative")
    if cfg.n_steps < 1:
        raise ValueError(f"n_steps must be at least 1 for offline episodes, got {cfg.n_steps}")
    # offline_update returns fresh arrays, so the recorded ones are never aliased
    theta, v = checked_params(theta0, v0)
    master = np.random.default_rng(cfg.seed)
    episode_time = cfg.n_steps * cfg.dt

    rows = [(0, theta, v, 0.0, 0.0)]
    total_reward = 0.0

    for j in range(1, n_episodes + 1):
        noise = NoiseSource(int(master.integers(2 ** 63)))
        try:
            ep = rollout_episode(p, v, cfg, noise)
            theta, v = offline_update(ep, theta, v, cfg, j)
        except SimulationError as exc:
            raise type(exc)(f"run with seed {cfg.seed}: episode {j}: {exc}") from exc
        total_reward += float(ep.trajectory.reward_rates.sum()) * cfg.dt
        if j % cfg.record_every == 0 or j == n_episodes:
            rows.append((j, theta, v, float(ep.trajectory.reward_rates.mean()),
                         total_reward / (j * episode_time)))

    return learning_record(rows, episode_time, cfg.seed)
