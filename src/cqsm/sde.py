"""Seeded Euler-Maruyama simulation of joint state-action diffusions.

The joint process is

    dx = state_drift(x, a) dt + state_diffusion(x, a) dB_x
    da = action_score(x, a) dt + action_diffusion(x, a) dB_a

with two independent Brownian motions and scalar (or diagonal) diffusion
amplitudes.  Everything is deterministic given a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TAPE = 1024  # scalar variates pre-drawn per refill of a NoiseSource tape


class SimulationError(RuntimeError):
    """A drift, diffusion, score, or reward evaluation produced a non-finite value."""


class NoiseSource:
    """Seeded stream of independent standard normal variates.

    Equal seeds produce bit-identical sequences.  A source is stateful and must
    not be shared between simulations that are meant to be independent.

    Scalar draws are served from a tape of ``TAPE`` variates pre-drawn as one
    block; a block draw first uses up what is left on the tape and then draws
    from the generator.  The generator yields the same stream whether its
    variates are drawn one at a time or in blocks, so every caller receives
    the values it would receive from the generator directly, in the same order.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self._tape = []  # unread pre-drawn variates, the next one last

    def normal(self, size=None):
        """Standard normal draw; a Python float when ``size`` is None."""
        tape = self._tape
        if size is None:
            if not tape:
                tape.extend(reversed(self._rng.standard_normal(TAPE).tolist()))
            return tape.pop()
        if not tape:
            return self._rng.standard_normal(size)
        out = np.empty(size)
        flat = out.reshape(-1)
        cut = max(0, len(tape) - flat.size)
        head = tape[cut:][::-1]
        del tape[cut:]
        flat[:len(head)] = head
        flat[len(head):] = self._rng.standard_normal(flat.size - len(head))
        return out

    def __repr__(self):
        return f"NoiseSource(seed={self.seed})"


@dataclass(frozen=True)
class DynamicsSpec:
    """Coefficient functions of the joint state-action SDE.

    Each field maps (x, a) to a value broadcastable against x (state fields)
    or a (action fields).  Evaluations must stay finite on finite inputs;
    a non-finite value aborts the step with a diagnostic naming the field.
    """

    state_drift: Callable
    state_diffusion: Callable
    action_score: Callable
    action_diffusion: Callable


@dataclass(frozen=True)
class Trajectory:
    """One simulated rollout on a uniform time grid.

    ``states`` and ``actions`` have one row per grid point; ``reward_rates``
    has one entry per transition and is evaluated at the pre-step pair,
    reward_rates[k] = reward(states[k], actions[k]).
    """

    times: np.ndarray
    states: np.ndarray
    actions: np.ndarray
    reward_rates: np.ndarray
    seed: int

    def __post_init__(self):
        n = len(self.times)
        if len(self.states) != n or len(self.actions) != n:
            raise ValueError("states and actions must have one row per time point")
        if len(self.reward_rates) != n - 1:
            raise ValueError("reward_rates must have one entry per transition")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


@dataclass(frozen=True)
class TrajectoryBatch:
    """Many independent rollouts sharing one time grid (one column each)."""

    times: np.ndarray
    states: np.ndarray
    actions: np.ndarray
    reward_rates: np.ndarray
    seed: int

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_trajectories(self) -> int:
        return self.states.shape[1]


def _checked(name, fn, x, a):
    value = fn(x, a)
    if isinstance(value, float):
        ok = math.isfinite(value)
    else:
        ok = bool(np.all(np.isfinite(value)))
    if not ok:
        raise SimulationError(f"{name} evaluated to a non-finite value at x={x!r}, a={a!r}")
    return value


def em_step(x, a, dyn: DynamicsSpec, dt: float, zx, za):
    """One Euler-Maruyama step of the joint dynamics.

    x' = x + state_drift(x, a) dt + state_diffusion(x, a) sqrt(dt) zx
    a' = a + action_score(x, a) dt + action_diffusion(x, a) sqrt(dt) za

    Inputs are never mutated.  Raises SimulationError naming the field that
    produced a non-finite value.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    drift_x = _checked("state_drift", dyn.state_drift, x, a)
    diff_x = _checked("state_diffusion", dyn.state_diffusion, x, a)
    score = _checked("action_score", dyn.action_score, x, a)
    diff_a = _checked("action_diffusion", dyn.action_diffusion, x, a)
    root = math.sqrt(dt)
    return x + drift_x * dt + diff_x * root * zx, a + score * dt + diff_a * root * za


def simulate(dyn: DynamicsSpec, reward, x0, a0, dt: float, n_steps: int, seed: int) -> Trajectory:
    """Roll out ``n_steps`` Euler-Maruyama steps from (x0, a0) with a fresh seed."""
    return simulate_from(dyn, reward, x0, a0, dt, n_steps, NoiseSource(seed))


def simulate_from(dyn: DynamicsSpec, reward, x0, a0, dt: float, n_steps: int,
                  noise: NoiseSource) -> Trajectory:
    """Like :func:`simulate` but drawing from an existing noise source.

    States and actions may be scalars or 1-d vectors.  Per step the draw order
    is: one state noise block, then one action noise block.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    x_arr = np.asarray(x0, dtype=float)
    a_arr = np.asarray(a0, dtype=float)
    if x_arr.ndim > 1 or a_arr.ndim > 1:
        raise ValueError("states and actions must be scalars or 1-d vectors")
    scalar = x_arr.ndim == 0 and a_arr.ndim == 0

    if scalar:
        x, a = float(x_arr), float(a_arr)
        states = np.empty(n_steps + 1)
        actions = np.empty(n_steps + 1)
        zx_size = za_size = None
    else:
        x, a = np.atleast_1d(x_arr).copy(), np.atleast_1d(a_arr).copy()
        states = np.empty((n_steps + 1, x.size))
        actions = np.empty((n_steps + 1, a.size))
        zx_size, za_size = x.size, a.size

    rates = np.empty(n_steps)
    states[0] = x
    actions[0] = a
    for k in range(n_steps):
        r = reward(x, a)
        if not np.all(np.isfinite(r)):
            raise SimulationError(f"step {k}: reward evaluated to a non-finite value")
        rates[k] = r
        zx = noise.normal(zx_size)
        za = noise.normal(za_size)
        try:
            x, a = em_step(x, a, dyn, dt, zx, za)
        except SimulationError as exc:
            raise SimulationError(f"step {k}: {exc}") from exc
        states[k + 1] = x
        actions[k + 1] = a
    times = np.arange(n_steps + 1) * dt
    return Trajectory(times, states, actions, rates, noise.seed)


def simulate_batch(dyn: DynamicsSpec, reward, x0: float, a0: float, dt: float,
                   n_steps: int, n_traj: int, seed: int) -> TrajectoryBatch:
    """Simulate many scalar trajectories at once (vectorized across columns).

    All trajectories start from the same (x0, a0) and draw from a single seeded
    stream, one state block and one action block per step.  Dynamics and reward
    callables must accept numpy arrays elementwise.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 1 or n_traj < 1:
        raise ValueError("n_steps and n_traj must be at least 1")
    noise = NoiseSource(seed)
    x = np.full(n_traj, float(x0))
    a = np.full(n_traj, float(a0))
    states = np.empty((n_steps + 1, n_traj))
    actions = np.empty((n_steps + 1, n_traj))
    rates = np.empty((n_steps, n_traj))
    states[0] = x
    actions[0] = a
    root = math.sqrt(dt)
    for k in range(n_steps):
        rates[k] = reward(x, a)
        drift_x = dyn.state_drift(x, a)
        diff_x = dyn.state_diffusion(x, a)
        score = dyn.action_score(x, a)
        diff_a = dyn.action_diffusion(x, a)
        x = x + drift_x * dt + diff_x * root * noise.normal(n_traj)
        a = a + score * dt + diff_a * root * noise.normal(n_traj)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(a))):
            raise SimulationError(f"step {k}: non-finite state or action in batch")
        states[k + 1] = x
        actions[k + 1] = a
    if not np.all(np.isfinite(rates)):
        raise SimulationError("non-finite reward in batch")
    times = np.arange(n_steps + 1) * dt
    return TrajectoryBatch(times, states, actions, rates, seed)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write a scalar trajectory as CSV with columns t,x,a,r.

    One row per grid point, decimal values with 9 significant digits, LF line
    endings.  The reward column is empty on the last row (no transition).
    """
    if traj.states.ndim != 1:
        raise ValueError("CSV export is defined for scalar trajectories only")
    lines = ["t,x,a,r"]
    n = len(traj.times)
    for k in range(n):
        t, x, a = traj.times[k], traj.states[k], traj.actions[k]
        r = "%.9g" % traj.reward_rates[k] if k < n - 1 else ""
        lines.append("%.9g,%.9g,%.9g,%s" % (t, x, a, r))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
