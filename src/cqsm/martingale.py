"""Statistical checks of the martingale characterization of value functions.

For the true value function Q of a given score, the discounted process
e^{-beta t} Q(X_t, a_t) plus the accumulated discounted net reward is a
martingale, so its increments are orthogonal to every adapted test process:
E sum_k xi_k dM_k = 0.  The estimators here form that sum along simulated
trajectories and z-score it across independent replications; a wrong Q (for
example a constant offset, which the discounting term detects) produces a
significant mean.  Every estimate here, the discounted return of a score
included, runs on one vectorised batch of trajectories.  The value function,
the score, the test process and the sums along each trajectory are evaluated
on row blocks of the batch's grid (:func:`sde.row_blocks`), so a batch holds
its three grid arrays plus a block's temporaries.

This module also states the pieces of that condition that the offline learner
fits: the discount weights e^{-beta t} (:func:`discount_weights`), the
discounted net-reward flow, and the return-to-go gaps

    G_k = -w_k Q(x_k, a_k) + sum_{i>=k} w_i (r_i - lam/2 Psi_i^2) dt,

whose increments are the martingale increments with their sign reversed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lq import LqParams, lq_dynamics, lq_reward_fn
from .online import AlgoConfig
from .policy import q_features
from .sde import Trajectory, row_blocks, simulate_batch

# A test process maps (states, actions, rows) to the per-transition weights
# xi[rows], shaped as states[rows], for a block ``rows = slice(start, stop)``
# of transition indices; xi[k] may depend on the path only up to index k.
TestProcess = Callable[[np.ndarray, np.ndarray, slice], np.ndarray]


@dataclass(frozen=True)
class ResidualReport:
    """Monte Carlo summary of the orthogonality integral across trajectories."""

    estimate: float
    std_error: float
    n_trajectories: int
    z_score: float


def constant_test(value: float = 1.0) -> TestProcess:
    """xi identically equal to ``value``, as a read-only broadcast view."""
    return lambda states, actions, rows: np.broadcast_to(value, states[rows].shape)


def q_gradient_test(component: int) -> TestProcess:
    """One component of the value model's parameter gradient at the current pair."""
    if not 0 <= component < 6:
        raise ValueError("component must be in 0..5")

    def xi(states, actions, rows):
        x = states[rows]
        return np.broadcast_to(q_features(x, actions[rows])[component], x.shape)

    return xi


def lagged_state_test(lag: int = 1, power: int = 2) -> TestProcess:
    """xi_k = x_{k-lag}^power (zero while the lag window is unfilled)."""
    if lag < 0:
        raise ValueError("lag must be nonnegative")

    def xi(states, actions, rows):
        out = np.zeros_like(states[rows])
        first = min(max(rows.start, lag), rows.stop)
        out[first - rows.start:] = states[first - lag:rows.stop - lag] ** power
        return out

    return xi


def discount_weights(traj: Trajectory, beta: float) -> np.ndarray:
    """exp(-beta * traj.times): 1-d for one rollout, a column against a batch."""
    w = np.exp(-beta * traj.times)
    return w if traj.states.ndim == 1 else w[:, None]


def net_reward_flow(discount, reward_rates, psi_values, dt: float, lam: float):
    """Discounted net-reward flow w_k (r_k - lam/2 Psi_k^2) dt, elementwise.

    ``discount`` and ``psi_values`` are taken at the transitions' left end
    points and broadcast against ``reward_rates``.
    """
    return discount * (reward_rates - 0.5 * lam * psi_values ** 2) * dt


def return_gaps(discount, reward_rates, q_values, psi_values, dt: float,
                lam: float) -> np.ndarray:
    """Return-to-go gaps G_k for k = 0..K-1 given precomputed value/score arrays.

    ``discount`` (shaped as by :func:`discount_weights`), ``q_values`` and
    ``psi_values`` cover all K+1 grid points; ``reward_rates`` the K
    transitions.  Works on single trajectories (1-d) and batches (2-d, one
    column per trajectory); the inner suffix sums are accumulated in O(K).
    """
    flow = net_reward_flow(discount[:-1], reward_rates, np.asarray(psi_values)[:-1], dt, lam)
    suffix = np.flip(np.cumsum(np.flip(flow, axis=0), axis=0), axis=0)
    return suffix - discount[:-1] * np.asarray(q_values)[:-1]


def _column_sums(terms, shape) -> np.ndarray:
    """Column sums of a grid of ``shape`` built one :func:`sde.row_blocks`
    block at a time: ``terms(rows)`` returns the grid's rows ``rows`` as a
    fresh array.

    Each block's first row takes the running total before the block is
    summed.  numpy sums a C-contiguous grid at least two columns wide row
    after row, so the result is bitwise that of summing the whole grid.
    """
    total = None
    for rows in row_blocks(shape):
        block = terms(rows)
        if total is not None:
            block[0] += total
        total = block.sum(axis=0)
    return total


def orthogonality_statistics(batch: Trajectory, qfun, score, test_fn: TestProcess,
                             beta: float, lam: float) -> np.ndarray:
    """Per-trajectory orthogonality sums over a simulated batch.

    S = sum_k xi_k [ w_{k+1} q_{k+1} - w_k q_k + w_k (r_k - lam/2 Psi_k^2) dt ]
    with w = exp(-beta t) from :func:`discount_weights`.  ``qfun``,
    ``score`` and ``test_fn`` are evaluated on row blocks of the grid, the
    test process once per block.
    """
    dt = batch.dt
    w = discount_weights(batch, beta)
    states, actions, rates = batch.states, batch.actions, batch.reward_rates

    def terms(rows):
        ends = slice(rows.start, rows.stop + 1)
        wq = w[ends] * qfun(states[ends], actions[ends])
        psi = score(states[rows], actions[rows])
        inc = wq[1:] - wq[:-1] + net_reward_flow(w[rows], rates[rows], psi, dt, lam)
        return test_fn(states, actions, rows) * inc

    return np.atleast_1d(_column_sums(terms, rates.shape))


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
    q_vals = qfun(batch.states, batch.actions)
    psi = score(batch.states, batch.actions)
    return return_gaps(discount_weights(batch, beta), batch.reward_rates, q_vals, psi,
                       batch.dt, lam)


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
    comparisons between scores.  n_traj must be at least 2 for the standard
    error.
    """
    if n_traj < 2:
        raise ValueError("n_traj must be at least 2")
    batch = _simulate(p, score, cfg, n_traj)
    w = discount_weights(batch, p.beta)

    def flow(rows):
        psi = score(batch.states[rows], batch.actions[rows])
        return net_reward_flow(w[rows], batch.reward_rates[rows], psi, batch.dt, p.lam)

    returns = _column_sums(flow, batch.reward_rates.shape)
    return float(returns.mean()), float(returns.std(ddof=1) / np.sqrt(n_traj))
