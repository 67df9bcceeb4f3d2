"""Seeded Euler-Maruyama simulation of the joint state-action SDE of an LQ
problem, :class:`DynamicsSpec`.  Everything is deterministic given a seed.

One Euler-Maruyama loop, the generator :func:`simulate_blocks`, runs a single
scalar trajectory on Python floats and a batch of scalar trajectories on numpy
arrays, and yields the rollout one row block of about ``BLOCK`` values at a
time (:func:`row_blocks`; a scalar rollout is one block), with the block's
reward rates.  :func:`simulate_from` writes the blocks into one grid, a
:class:`Trajectory`; :func:`simulate` and :func:`simulate_batch` only choose
its start and noise source.  A consumer that only sums forward in time reads
the stream itself and never holds the grid.  The loop draws each row block's
variates in one call and checks nothing per step: one finiteness check per
row block finds a fault and names the step and whether the reward, the score
or the step itself caused it.  Each block is made and checked under one
``np.errstate`` that silences overflow, so a scalar rollout and a batch end
on the same fault in the same SimulationError and never in a numpy warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

TAPE = 1024  # scalar variates pre-drawn per refill of a NoiseSource tape
BLOCK = 2 ** 15  # grid values per row block of a rollout and of its pointwise arithmetic
SQRT2 = math.sqrt(2.0)  # action noise: the score's Boltzmann law is stationary


class SimulationError(RuntimeError):
    """A simulation, sampler or score evaluation produced a non-finite value."""


class NoiseSource:
    """Seeded stream of independent standard normal variates.

    Equal seeds produce bit-identical sequences.  A source is stateful and must
    not be shared between simulations that are meant to be independent.

    Scalar draws are served from a tape: a refill of ``TAPE`` variates
    pre-drawn as one block, kept as a list in the order drawn and read
    forward by an iterator, whose index is the read position.  :meth:`normal`
    takes the iterator's next value; :meth:`normals` hands out k scalar draws
    as one slice of the tape, moves the read position past them and refills
    in ``TAPE`` blocks as k calls of :meth:`normal` would; a block draw takes
    what the tape still holds, never refilling it, and the rest straight from
    the generator.  The generator yields the same stream whether its variates
    are drawn one at a time or in blocks, so every caller receives the values
    it would receive from the generator directly, in the same order.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self._tape = []  # pre-drawn variates in the order drawn
        self._read = iter(self._tape)  # the read position in the tape

    def normal(self, size=None):
        """Standard normal draw; a Python float when ``size`` is None."""
        if size is None:
            try:
                return next(self._read)
            except StopIteration:
                self._tape = self._rng.standard_normal(TAPE).tolist()
                self._read = iter(self._tape)
                return next(self._read)
        left = self._read.__length_hint__()  # variates left in the tape
        if not left:
            return self._rng.standard_normal(size)
        n = int(np.prod(size))
        head = self.normals(min(n, left))
        return np.reshape(np.concatenate((head, self._rng.standard_normal(n - len(head)))), size)

    def normals(self, k: int) -> list:
        """k standard normal draws as a list of Python floats.

        Equal to k calls of :meth:`normal` and leaves the tape as they would.
        """
        tape, read = self._tape, self._read
        start = len(tape) - read.__length_hint__()
        end = start + k
        if end <= len(tape):
            read.__setstate__(end)  # a list iterator's pickle hook: move it to index end
            return tape[start:end]
        out = tape[start:]
        need = end - len(tape)
        fresh = self._rng.standard_normal(-(-need // TAPE) * TAPE).tolist()
        out += fresh[:need]
        self._tape = fresh[need:]
        self._read = iter(self._tape)
        return out

    def __repr__(self):
        return f"NoiseSource(seed={self.seed})"


class DynamicsSpec(NamedTuple):
    """The joint state-action SDE of one LQ instance under a score,

        dx = (A x + B a) dt + (C x + D a) dB_x
        da = score(x, a) dt + SQRT2 dB_a

    with two independent Brownian motions.  The score maps (x, a) to a value
    broadcastable against a and is evaluated once per step.
    """

    A: float
    B: float
    C: float
    D: float
    score: Callable


@dataclass(frozen=True)
class Trajectory:
    """Simulated rollouts on the uniform time grid t_k = k dt.

    ``states`` and ``actions`` have one row per grid point; ``reward_rates``
    has one row per transition and is evaluated at the pre-step pair,
    reward_rates[k] = reward(states[k], actions[k]).  A single scalar rollout
    has 1-d arrays; a batch of scalar rollouts keeps one column per trajectory
    in all three arrays.  A trajectory has at least one transition.
    """

    dt: float
    states: np.ndarray
    actions: np.ndarray
    reward_rates: np.ndarray

    def __post_init__(self):
        n = len(self.states)
        if n < 2:
            raise ValueError(f"a trajectory needs at least one transition, got {n} time points")
        if len(self.actions) != n:
            raise ValueError("states and actions must have one row per time point")
        if len(self.reward_rates) != n - 1:
            raise ValueError("reward_rates must have one entry per transition")


def row_blocks(shape):
    """Row slices that cover a grid of ``shape`` in blocks of about ``BLOCK``
    values, at least one row each, made one at a time.

    A grid less than two values wide (1-d, or one column) is a single block:
    numpy sums such a column pairwise, so splitting it would change its sum.
    """
    n_rows, width = shape[0], math.prod(shape[1:])
    rows = max(1, n_rows if width < 2 else BLOCK // width)
    return (slice(lo, min(lo + rows, n_rows)) for lo in range(0, n_rows, rows))


def simulate(dyn: DynamicsSpec, reward, x0, a0, dt: float, n_steps: int, seed: int) -> Trajectory:
    """Roll out ``n_steps`` Euler-Maruyama steps from (x0, a0) with a fresh seed."""
    return simulate_from(dyn, reward, x0, a0, dt, n_steps, NoiseSource(seed))


def simulate_from(dyn: DynamicsSpec, reward, x0, a0, dt: float, n_steps: int,
                  noise: NoiseSource) -> Trajectory:
    """Like :func:`simulate` but drawing from an existing noise source: the
    row blocks of :func:`simulate_blocks` written into one grid.  A rollout
    that is one row block is returned as that block, uncopied."""
    grid = None
    for rows, states, actions, rates in simulate_blocks(dyn, reward, x0, a0, dt, n_steps, noise):
        if grid is None:
            if rows.stop == n_steps:
                return Trajectory(float(dt), states, actions, rates)
            width = states.shape[1:]
            grid = (np.empty((n_steps + 1,) + width), np.empty((n_steps + 1,) + width),
                    np.empty((n_steps,) + width))
        ends = slice(rows.start, rows.stop + 1)
        grid[0][ends], grid[1][ends], grid[2][rows] = states, actions, rates
        del states, actions, rates  # free the block before the next one is made
    return Trajectory(float(dt), *grid)


def simulate_blocks(dyn: DynamicsSpec, reward, x0, a0, dt: float, n_steps: int,
                    noise: NoiseSource):
    """Roll out ``n_steps`` Euler-Maruyama steps from (x0, a0), one row block
    at a time.

    (x0, a0) must be two arrays of equal ndim <= 1 and equal size, and
    ``reward`` must return one value of their shape: 0-d starts run on Python
    floats, 1-d starts are a batch of scalar trajectories, one per entry.  Any
    other start or reward shape raises ValueError before the first draw (at
    the first ``next``).

    Yields ``(rows, states, actions, rates)`` for the :func:`row_blocks` of
    the (n_steps, width) transition grid, in order: ``states`` and
    ``actions`` are fresh arrays of grid rows rows.start..rows.stop, end point
    included, and rates = reward(states[:-1], actions[:-1]).  A scalar
    rollout is one block of 1-d arrays, its steps appended to two lists of
    Python floats that become arrays once; a batch writes each step's row
    into two preallocated arrays.  Both run one step statement.  Each row
    block's variates are drawn in one call, noise.normals(2 * steps) from a
    scalar start and noise.normal((steps, 2, width)) for a batch, and are
    consumed step by step: the state's variates, then the action's.  A batch
    holds its step constants as 0-d float64 arrays, because a ufunc converts
    a Python-float operand on every call, and reads its draws through two
    column views of the block, which make two views a step where unpacking
    each (2, width) row makes three.

    Each block is simulated, given its rates and checked under one
    ``np.errstate(over="ignore", invalid="ignore")``, as is the start's shape
    check; the consumer runs between blocks under its own numpy state.  A
    non-finite value in a block raises SimulationError, before the block is
    yielded, naming the first faulty step and the reward or the score that
    produced it (:func:`_first_fault`).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    x, a = np.asarray(x0, dtype=float), np.asarray(a0, dtype=float)
    if not (x.ndim == a.ndim <= 1 and x.size == a.size):
        raise ValueError("x0 and a0 must be two scalars or two 1-d arrays of equal length, "
                         f"got shapes {x.shape} and {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        if np.shape(reward(x, a)) != x.shape:
            raise ValueError("reward must return one value per trajectory")
    size = x.size if x.ndim else None
    if size is None:
        x, a = float(x), float(a)

    A, B, C, D, score = dyn
    root = math.sqrt(dt)
    noise_a = SQRT2 * root
    if size is not None:
        A, B, C, D, dt, root, noise_a = [np.array(c, dtype=float)
                                         for c in (A, B, C, D, dt, root, noise_a)]
    for rows in row_blocks((n_steps, size or 1)):
        n = rows.stop - rows.start + 1
        with np.errstate(over="ignore", invalid="ignore"):
            if size is None:
                states, actions = [x], [a]
                put_x, put_a = states.append, actions.append
                z = iter(noise.normals(2 * (n - 1)))
                draws = zip(z, z)
            else:
                states, actions = np.empty((n, size)), np.empty((n, size))
                states[0], actions[0] = x, a
                put_x, put_a = _row_writer(states), _row_writer(actions)
                block = noise.normal((n - 1, 2, size))
                draws = zip(block[:, 0], block[:, 1])
            for zx, za in draws:
                x, a = (x + (A * x + B * a) * dt + (C * x + D * a) * root * zx,
                        a + score(x, a) * dt + noise_a * za)
                put_x(x)
                put_a(a)
            if size is None:
                states, actions = np.fromiter(states, float, n), np.fromiter(actions, float, n)
            rates = np.empty_like(states[1:])
            rates[...] = reward(states[:-1], actions[:-1])  # broadcasts a constant
            if not (np.isfinite(rates).all() and np.isfinite(states).all()
                    and np.isfinite(actions).all()):
                raise SimulationError(_first_fault(dyn, states, actions, rates, rows.start))
        yield rows, states, actions, rates


def _row_writer(grid: np.ndarray):
    """A function that writes its argument into grid rows 1, 2, ... in turn:
    the ``send`` of a started generator, which costs less per call than a
    Python function."""
    def rows():
        for row in grid[1:]:
            row[...] = yield
        yield  # the last send returns, not raises StopIteration

    writer = rows()
    next(writer)
    return writer.send


def _first_fault(dyn: DynamicsSpec, states, actions, rates, start: int) -> str:
    """Diagnose the first transition of a row block whose reward or end point
    is non-finite; the block starts at step ``start``.

    The reward is read from the block's ``rates``; only the score is evaluated
    again, on the faulty row the block holds.  A 1-d block is one rollout; in a
    2-d block (one column per trajectory) the first faulty trajectory of that
    transition is named, with its own state and action.
    """
    points = np.isfinite(states) & np.isfinite(actions)
    bad = ~(np.isfinite(rates) & points[:-1] & points[1:])
    k, j = divmod(int(np.argmax(bad)), bad.size // len(bad))  # first faulty row, then column
    x, a = states[k], actions[k]  # a float64 of one rollout, or the batch's row
    pick = lambda value: np.broadcast_to(value, np.shape(x)).flat[j]
    at = f"step {start + k}" + (f", trajectory {j}" if bad.ndim == 2 else "")
    point = f"x={float(pick(x))!r}, a={float(pick(a))!r}"
    if not np.isfinite(pick(rates[k])):
        name = "reward"
    elif not np.isfinite(pick(dyn.score(x, a))):
        name = "score"
    else:
        return f"{at}: the step from {point} overflowed to a non-finite state or action"
    return f"{at}: {name} evaluated to a non-finite value at {point}"


def simulate_batch(dyn: DynamicsSpec, reward, x0: float, a0: float, dt: float,
                   n_steps: int, n_traj: int, seed: int) -> Trajectory:
    """Simulate ``n_traj`` scalar trajectories at once, one column each.

    All trajectories start from the same (x0, a0) and draw from a single seeded
    stream in the order of :func:`simulate_from`.  The score must accept
    numpy arrays elementwise and return one value per trajectory; the reward
    is evaluated pointwise on each row block of the (n_steps, n_traj) grid.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    return simulate_from(dyn, reward, np.full(n_traj, float(x0)), np.full(n_traj, float(a0)),
                         dt, n_steps, NoiseSource(seed))

