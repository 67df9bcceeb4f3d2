"""Statistical checks of the martingale characterization of value functions.

For the true value function Q of a given score, the discounted process
e^{-beta t} Q(X_t, a_t) plus the accumulated discounted net reward is a
martingale, so its increments are orthogonal to every adapted test process:
E sum_k xi_k dM_k = 0.  The estimators here form that sum along simulated
trajectories and z-score it across independent replications; a wrong Q (for
example a constant offset, which the discounting term detects) produces a
significant mean.  Every estimate here, the discounted return of a score
included, runs on one vectorised batch of trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lq import LqParams, lq_dynamics, lq_reward_fn
from .offline import net_reward_flow, return_gaps
from .online import AlgoConfig
from .policy import q_features
from .sde import Trajectory, simulate_batch

# A test process maps (times, states, actions) to per-step weights xi with one
# entry per transition; xi[k] may depend on the path only up to index k.
TestProcess = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ResidualReport:
    """Monte Carlo summary of the orthogonality integral across trajectories."""

    estimate: float
    std_error: float
    n_trajectories: int
    z_score: float


def constant_test(value: float = 1.0) -> TestProcess:
    """xi identically equal to ``value``."""

    def xi(times, states, actions):
        return np.full((len(times) - 1,) + states.shape[1:], value)

    return xi


def q_gradient_test(component: int) -> TestProcess:
    """One component of the value model's parameter gradient at the current pair."""
    if not 0 <= component < 6:
        raise ValueError("component must be in 0..5")

    def xi(times, states, actions):
        x = states[:-1]
        return np.broadcast_to(q_features(x, actions[:-1])[component], x.shape)

    return xi


def lagged_state_test(lag: int = 1, power: int = 2) -> TestProcess:
    """xi_k = x_{k-lag}^power (zero while the lag window is unfilled)."""
    if lag < 0:
        raise ValueError("lag must be nonnegative")

    def xi(times, states, actions):
        x = states[:-1]
        out = np.zeros_like(x)
        if lag == 0:
            out[:] = x ** power
        else:
            out[lag:] = x[:-lag] ** power
        return out

    return xi


def orthogonality_statistics(batch: Trajectory, qfun, score, test_fn: TestProcess,
                             beta: float, lam: float) -> np.ndarray:
    """Per-trajectory orthogonality sums over a simulated batch.

    S = sum_k xi_k [ w_{k+1} q_{k+1} - w_k q_k + w_k (r_k - lam/2 Psi_k^2) dt ]
    with w = exp(-beta t).
    """
    dt = batch.dt
    w = np.exp(-beta * batch.times)
    shape = (-1,) + (1,) * (batch.states.ndim - 1)
    w = w.reshape(shape)
    q_vals = qfun(batch.states, batch.actions)
    psi = score(batch.states[:-1], batch.actions[:-1])
    inc = (w[1:] * q_vals[1:] - w[:-1] * q_vals[:-1]
           + net_reward_flow(w[:-1], batch.reward_rates, psi, dt, lam))
    xi = test_fn(batch.times, batch.states, batch.actions)
    return np.atleast_1d((xi * inc).sum(axis=0))


def _jackknife_se(values: np.ndarray) -> float:
    n = len(values)
    loo = (values.sum() - values) / (n - 1)
    return math.sqrt((n - 1) / n * float(((loo - loo.mean()) ** 2).sum()))


def _simulate(p: LqParams, score, cfg: AlgoConfig, n_traj: int) -> Trajectory:
    """``n_traj`` trajectories of the joint dynamics of ``p`` under ``score``
    from (cfg.x0, cfg.a0), cfg.n_steps steps of cfg.dt, noise seeded by cfg.seed."""
    return simulate_batch(lq_dynamics(p, score), lq_reward_fn(p), cfg.x0, cfg.a0,
                          cfg.dt, cfg.n_steps, n_traj, cfg.seed)


def orthogonality_residual(qfun, score, test_fn: TestProcess, p: LqParams,
                           cfg: AlgoConfig, n_traj: int) -> ResidualReport:
    """Estimate E sum xi dM over ``n_traj`` trajectories with a jackknife SE.

    Trajectories follow the joint dynamics of ``p`` under ``score`` from
    (cfg.x0, cfg.a0) with step cfg.dt for cfg.n_steps steps; the discount and
    regularization weights come from ``p``.
    """
    if n_traj < 2:
        raise ValueError("n_traj must be at least 2")
    batch = _simulate(p, score, cfg, n_traj)
    stats = orthogonality_statistics(batch, qfun, score, test_fn, p.beta, p.lam)
    estimate = float(stats.mean())
    se = _jackknife_se(stats)
    if se > 0:
        z = estimate / se
    else:
        z = 0.0 if estimate == 0 else math.copysign(math.inf, estimate)
    return ResidualReport(estimate, se, n_traj, z)


def trajectory_gaps(batch: Trajectory, qfun, score, beta: float,
                    lam: float) -> np.ndarray:
    """Return-to-go gaps G_k for every trajectory in a batch, shape (K, m)."""
    w = np.exp(-beta * batch.times)
    q_vals = qfun(batch.states, batch.actions)
    psi = score(batch.states, batch.actions)
    return return_gaps(w, batch.reward_rates, q_vals, psi, batch.dt, lam)


def martingale_loss(qfun, score, p: LqParams, cfg: AlgoConfig, n_traj: int) -> float:
    """Half the mean of G_k^2 dt over grid points and trajectories.

    Nonnegative; minimized by the true value function of the score.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    batch = _simulate(p, score, cfg, n_traj)
    gaps = trajectory_gaps(batch, qfun, score, p.beta, p.lam)
    return 0.5 * float(np.mean(gaps * gaps)) * batch.dt


def estimate_discounted_return(p: LqParams, score, cfg: AlgoConfig, n_traj: int):
    """Monte Carlo discounted net return from (cfg.x0, cfg.a0) under a score.

    Left-endpoint sum of e^{-beta t} (r - lam/2 Psi^2) dt over cfg.n_steps
    steps, averaged over n_traj trajectories.  Returns (estimate, std error).
    Equal cfg.seed values reuse the same noise, enabling common-random-number
    comparisons between scores.
    """
    batch = _simulate(p, score, cfg, n_traj)
    w = np.exp(-p.beta * batch.times[:-1])[:, None]
    psi = score(batch.states[:-1], batch.actions[:-1])
    returns = net_reward_flow(w, batch.reward_rates, psi, batch.dt, p.lam).sum(axis=0)
    return float(returns.mean()), float(returns.std(ddof=1) / np.sqrt(n_traj))
