"""Statistical checks of the martingale characterization of value functions.

For the true value function Q of a given score, the discounted process
e^{-beta t} Q(X_t, a_t) plus the accumulated discounted net reward is a
martingale, so its increments are orthogonal to every adapted test process:
E sum_k xi_k dM_k = 0.  The estimators here form that sum along simulated
trajectories and z-score it across independent replications; a wrong Q (for
example a constant offset, which the discounting term detects) produces a
significant mean.  Each per-trajectory sum, the discounted return of a score
included, is a running column total of a term evaluated on the batch's row
blocks (:func:`sde.row_blocks`) with the discount weights of their own rows.
One driver reads the blocks from the simulator's stream
(:func:`sde.simulate_blocks`), holding one block, never the grid, and returns
the mean of the sums and their classical standard error std(ddof=1) /
sqrt(n); a sum, mean or standard error that is not finite raises
SimulationError.  :func:`orthogonality_statistics` reads the blocks as views
of a finished :class:`sde.Trajectory`.  The squared-gap loss keeps the whole
batch: its suffix sums run backward in time.

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
from .policy import q_features
from .sde import (NoiseSource, SimulationError, Trajectory, row_blocks, simulate_batch,
                  simulate_blocks)

# A test process maps a row block (states, actions, rows) to the block's
# per-transition weights xi[rows], shaped as states[:-1]: ``states`` and
# ``actions`` hold the path's grid rows rows.start..rows.stop, end point
# included.  It is called once per block, in order from row 0, and xi[k] may
# depend on the path only up to index k.
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
    return lambda states, actions, rows: np.broadcast_to(value, states[:-1].shape)


def q_gradient_test(component: int) -> TestProcess:
    """One component of the value model's parameter gradient at the current pair."""
    if not 0 <= component < 6:
        raise ValueError("component must be in 0..5")

    def xi(states, actions, rows):
        x = states[:-1]
        return np.broadcast_to(q_features(x, actions[:-1])[component], x.shape)

    return xi


def lagged_state_test(lag: int = 1, power: int = 2) -> TestProcess:
    """xi_k = x_{k-lag}^power (zero while the lag window is unfilled).

    The process keeps the last ``lag`` states of the blocks it has seen and
    forgets them when a new path starts (a block at row 0).
    """
    if lag < 0:
        raise ValueError("lag must be nonnegative")
    seen = None  # the last ``lag`` states before the current block

    def xi(states, actions, rows):
        nonlocal seen
        x = states[:-1]
        seen = x if rows.start == 0 else np.concatenate((seen, x))  # up to row rows.stop - 1
        out = np.zeros_like(x)
        n = max(0, len(seen) - lag)  # rows k >= lag: the last n of the block
        out[len(x) - n:] = seen[:n] ** power
        seen = seen[max(0, len(seen) - lag):].copy()  # not a view that keeps the block
        return out

    return xi


def discount_weights(shape, dt: float, beta: float, start: int = 0) -> np.ndarray:
    """exp(-beta t) at the times t_k = k dt of rows k = start, start + 1, ... of
    a grid of ``shape``: 1-d for one rollout, a column against a batch."""
    w = np.exp(-beta * (np.arange(start, start + shape[0]) * dt))
    return w if len(shape) == 1 else w[:, None]


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
    suffix = flow[::-1].cumsum(axis=0)[::-1]
    return suffix - discount[:-1] * np.asarray(q_values)[:-1]


def _column_sums(blocks, term) -> np.ndarray:
    """Column sums of the grid whose row blocks are ``term(rows, states,
    actions, rates)``, a fresh array each, for the row blocks of a rollout
    shaped as :func:`sde.simulate_blocks` yields them, in order.

    Each block's first row takes the running total before the block is
    summed.  numpy sums a C-contiguous grid at least two columns wide row
    after row (pinned by ``tests/test_martingale.py::
    test_numpy_sums_a_c_ordered_matrix_down_its_columns_row_after_row``), so
    the result is bitwise that of summing the whole grid.  A sum that is not
    finite raises SimulationError, never a numpy warning.
    """
    total = None
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            part = term(*block)
            if total is not None:
                part[0] += total
            total = part.sum(axis=0)
            del block, part  # neither is held while the next block is simulated
    faults = np.flatnonzero(~np.isfinite(total))
    if faults.size:
        raise SimulationError(f"estimator fault: non-finite sum over trajectory {faults[0]}")
    return total


def _blocks_of(batch: Trajectory):
    """The row blocks of a finished batch as views, shaped as
    :func:`sde.simulate_blocks` yields them."""
    for rows in row_blocks(batch.reward_rates.shape):
        ends = slice(rows.start, rows.stop + 1)
        yield rows, batch.states[ends], batch.actions[ends], batch.reward_rates[rows]


def _increments(qfun, score, test_fn: TestProcess, dt: float, beta: float, lam: float):
    def term(rows, states, actions, rates):
        w = discount_weights(states.shape, dt, beta, rows.start)
        wq = w * qfun(states, actions)
        psi = score(states[:-1], actions[:-1])
        inc = wq[1:] - wq[:-1] + net_reward_flow(w[:-1], rates, psi, dt, lam)
        return test_fn(states, actions, rows) * inc

    return term


def orthogonality_statistics(batch: Trajectory, qfun, score, test_fn: TestProcess,
                             beta: float, lam: float) -> np.ndarray:
    """Per-trajectory orthogonality sums over a simulated batch.

    S = sum_k xi_k [ w_{k+1} q_{k+1} - w_k q_k + w_k (r_k - lam/2 Psi_k^2) dt ]
    with w = exp(-beta t) from :func:`discount_weights`.  ``qfun``,
    ``score`` and ``test_fn`` are evaluated on row blocks of the grid, the
    test process once per block.  A sum that is not finite raises.
    """
    term = _increments(qfun, score, test_fn, batch.dt, beta, lam)
    return np.atleast_1d(_column_sums(_blocks_of(batch), term))


def _mean_and_se(term, p: LqParams, score, cfg, n_traj: int) -> tuple[float, float]:
    """Mean and std(ddof=1) / sqrt(n_traj) of the column sums of ``term`` over
    the row blocks of :func:`sde.simulate_batch`'s batch, streamed: ``n_traj``
    paths of ``p`` under ``score`` from (cfg.x0, cfg.a0), cfg.n_steps steps of
    cfg.dt, noise seeded by cfg.seed.  Either one not finite raises."""
    if n_traj < 2:
        raise ValueError("n_traj must be at least 2")
    blocks = simulate_blocks(lq_dynamics(p, score), lq_reward_fn(p),
                             np.full(n_traj, float(cfg.x0)), np.full(n_traj, float(cfg.a0)),
                             cfg.dt, cfg.n_steps, NoiseSource(cfg.seed))
    sums = _column_sums(blocks, term)
    with np.errstate(over="ignore", invalid="ignore"):
        mean, se = float(sums.mean()), float(sums.std(ddof=1) / np.sqrt(n_traj))
    for name, value in (("mean", mean), ("standard error", se)):
        if not math.isfinite(value):
            raise SimulationError(f"estimator fault: non-finite {name} over {n_traj} trajectories")
    return mean, se


def orthogonality_residual(qfun, score, test_fn: TestProcess, p: LqParams, cfg,
                           n_traj: int) -> ResidualReport:
    """Estimate E sum xi dM over ``n_traj`` trajectories with its classical SE.

    Trajectories follow the joint dynamics of ``p`` under ``score`` from
    (cfg.x0, cfg.a0), cfg.n_steps steps of cfg.dt, noise seeded by cfg.seed;
    the discount and regularization weights come from ``p``.  The sums are
    those of :func:`orthogonality_statistics` on that batch, taken from the
    simulator's row blocks as they are made.
    """
    estimate, se = _mean_and_se(_increments(qfun, score, test_fn, cfg.dt, p.beta, p.lam),
                                p, score, cfg, n_traj)
    z = (estimate / se if se > 0
         else 0.0 if estimate == 0 else math.copysign(math.inf, estimate))
    return ResidualReport(estimate, se, n_traj, z)


def trajectory_gaps(batch: Trajectory, qfun, score, beta: float,
                    lam: float) -> np.ndarray:
    """Return-to-go gaps G_k for every trajectory in a batch, shape (K, m)."""
    q_vals = qfun(batch.states, batch.actions)
    psi = score(batch.states, batch.actions)
    return return_gaps(discount_weights(batch.states.shape, batch.dt, beta), batch.reward_rates,
                       q_vals, psi, batch.dt, lam)


def martingale_loss(qfun, score, p: LqParams, cfg, n_traj: int) -> float:
    """Half the mean of G_k^2 dt over the grid points and trajectories from
    (cfg.x0, cfg.a0), cfg.n_steps steps of cfg.dt, noise seeded by cfg.seed.

    Nonnegative; minimized by the true value function of the score.
    """
    batch = simulate_batch(lq_dynamics(p, score), lq_reward_fn(p), cfg.x0, cfg.a0, cfg.dt,
                           cfg.n_steps, n_traj, cfg.seed)
    gaps = trajectory_gaps(batch, qfun, score, p.beta, p.lam)
    return 0.5 * float(np.mean(gaps * gaps)) * batch.dt


def estimate_discounted_return(p: LqParams, score, cfg, n_traj: int):
    """Monte Carlo discounted net return from (cfg.x0, cfg.a0) under a score.

    Left-endpoint sum of e^{-beta t} (r - lam/2 Psi^2) dt over cfg.n_steps
    steps of cfg.dt, averaged over n_traj trajectories.  Returns (estimate,
    std error).  Equal cfg.seed values reuse the same noise, enabling
    common-random-number comparisons between scores.  n_traj must be at least
    2 for the standard error.
    """
    def flow(rows, states, actions, rates):
        w = discount_weights(rates.shape, cfg.dt, p.beta, rows.start)
        return net_reward_flow(w, rates, score(states[:-1], actions[:-1]), cfg.dt, p.lam)

    return _mean_and_se(flow, p, score, cfg, n_traj)
