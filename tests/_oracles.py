"""Independent oracles and stubs shared by the test modules.

Everything here is computed by a route independent of the code under test:
finite differences for gradients, direct linear solves for policy evaluation,
affine-map composition for the sampler chains' output laws, and plain
two-pass statistics.  The ``reference_*`` functions keep earlier versions of
the simulator, sampler and learner steps (a reward call and two draws per
simulator step, numpy scalars, a draw and a check per Langevin step, column
sums of a (K, 3) matrix for the offline score step), against which the
current ones are checked bit for bit.
"""

import math

import numpy as np

from cqsm.learner import DivergenceError, lr_schedule, score_of
from cqsm.lq import LqParams
from cqsm.offline import _feature_matrix
from cqsm.online import DIVERGENCE_LIMIT, LearnState
from cqsm.policy import grad_a_q, psi_features
from cqsm.samplers import make_linear_schedule
from cqsm.sde import SimulationError


def central_diff(f, x: float, h: float = 1e-5) -> float:
    return (f(x + h) - f(x - h)) / (2 * h)


def central_diff_vec(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    out = np.empty(len(x))
    for i in range(len(x)):
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (f(up) - f(dn)) / (2 * h)
    return out


def ddpm_affine_law(schedule, c1: float, c0: float):
    """Exact output law (mean, variance) of the reverse chain for an affine
    score psi(a) = c1 a + c0, starting from a ~ N(0, 1)."""
    mean, var = 0.0, 1.0
    for t in range(schedule.n_steps - 1, -1, -1):
        alpha = schedule.alphas[t]
        coef = (1.0 - alpha) / np.sqrt(max(1.0 - schedule.alpha_bars[t], 1e-12))
        gain = (1.0 + coef * c1) / np.sqrt(alpha)
        shift = coef * c0 / np.sqrt(alpha)
        mean = gain * mean + shift
        var = gain * gain * var + schedule.betas[t]
    return mean, var


def langevin_affine_law(dt: float, n_steps, a0: float, c1: float, c0: float):
    """Exact output law (mean, variance) of the Langevin chain for an affine
    score psi(a) = c1 a + c0 from a0, by iterating the one-step moment map
    n_steps times; with n_steps None, until the moments stop changing."""
    gain = 1.0 + c1 * dt
    mean, var = float(a0), 0.0
    for _ in range(10 ** 6 if n_steps is None else n_steps):
        step = (mean + (c1 * mean + c0) * dt, gain * gain * var + 2.0 * dt)
        if step == (mean, var):
            break
        mean, var = step
    return mean, var


def evaluate_affine_score_q(p: LqParams, s_a: float, s_x: float, s_c: float) -> np.ndarray:
    """Policy evaluation oracle: quadratic value coefficients of a FIXED
    affine score psi(x, a) = s_a a + s_x x + s_c, by solving the linear
    coefficient-matching system directly."""
    lam, beta = p.lam, p.beta
    # unknowns q = (q0, q1, q2, q3, q4, q5); rows: x^2, x, a^2, a, xa, const
    mat = np.zeros((6, 6))
    rhs = np.zeros(6)
    mat[0] = [0.5 * beta - p.A - 0.5 * p.C ** 2, 0, 0, 0, -s_x, 0]
    rhs[0] = -(0.5 * p.M + 0.5 * lam * s_x ** 2)
    mat[1] = [0, beta - p.A, 0, -s_x, -s_c, 0]
    rhs[1] = -(p.P + lam * s_x * s_c)
    mat[2] = [-0.5 * p.D ** 2, 0, 0.5 * beta - s_a, 0, -p.B, 0]
    rhs[2] = -(0.5 * p.N + 0.5 * lam * s_a ** 2)
    mat[3] = [0, -p.B, -s_c, beta - s_a, 0, 0]
    rhs[3] = -(p.Pp + lam * s_a * s_c)
    mat[4] = [-p.B - p.C * p.D, 0, -s_x, 0, beta - p.A - s_a, 0]
    rhs[4] = -(p.R + lam * s_a * s_x)
    mat[5] = [0, 0, -1.0, -s_c, 0, beta]
    rhs[5] = -0.5 * lam * s_c ** 2
    return np.linalg.solve(mat, rhs)


def two_pass_mean_std(stack: np.ndarray):
    """Reference cross-seed statistics: explicit two-pass mean and sample std."""
    n = stack.shape[0]
    mean = np.zeros(stack.shape[1:])
    for row in stack:
        mean += row
    mean /= n
    if n < 2:
        return mean, np.zeros_like(mean)
    acc = np.zeros(stack.shape[1:])
    for row in stack:
        acc += (row - mean) ** 2
    return mean, np.sqrt(acc / (n - 1))


class SequenceNoise:
    """Noise stub yielding a fixed sequence of scalars, then zeros."""

    def __init__(self, values):
        self._values = list(values)

    def normal(self, size=None):
        if size is not None:
            raise ValueError("SequenceNoise only supports scalar draws")
        return self._values.pop(0) if self._values else 0.0

    def normals(self, k):
        return [self.normal() for _ in range(k)]


def random_admissible_params(rng, force_d_zero: bool = False) -> LqParams:
    """Draw one instance from the randomized admissible family."""
    A = rng.uniform(-2.0, -0.5)
    B = rng.uniform(-0.5, 0.5)
    C = rng.uniform(-0.5, 0.5)
    D = 0.0 if force_d_zero else rng.uniform(0.5, 1.5)
    lo = max(0.05, 2 * A + C * C + 0.1)
    return LqParams(
        A=A, B=B, C=C, D=D,
        M=rng.uniform(0.5, 3.0), N=rng.uniform(0.5, 3.0),
        R=rng.uniform(-2.0, 2.0), P=rng.uniform(-2.0, 2.0), Pp=rng.uniform(-2.0, 2.0),
        beta=rng.uniform(lo, lo + 2.0), lam=rng.uniform(0.05, 1.0),
    )


def reference_simulate(dyn, reward, x0, a0, dt: float, n_steps: int, noise):
    """The Euler-Maruyama loop with one reward call and two draws per step.

    Returns (states, actions, reward_rates) for a scalar start (x0, a0) or a
    batch start of two 1-d arrays, one column per trajectory.
    """
    x, a = np.asarray(x0, dtype=float), np.asarray(a0, dtype=float)
    size = None if x.ndim == 0 else x.size
    if size is None:
        x, a = float(x), float(a)
    states = np.empty((n_steps + 1,) + np.shape(x))
    actions = np.empty_like(states)
    rates = np.empty((n_steps,) + np.shape(x))
    states[0], actions[0] = x, a
    root = math.sqrt(dt)
    for k in range(n_steps):
        rates[k] = reward(x, a)
        zx = noise.normal(size)
        za = noise.normal(size)
        x, a = (x + (dyn.A * x + dyn.B * a) * dt + (dyn.C * x + dyn.D * a) * root * zx,
                a + dyn.score(x, a) * dt + math.sqrt(2.0) * root * za)
        states[k + 1], actions[k + 1] = x, a
    return states, actions, rates


def reference_ddpm_sample(score, x: float, schedule, noise) -> float:
    """The reverse denoising chain on numpy scalars, the schedule re-read per step."""
    a = float(noise.normal())
    for t in range(schedule.n_steps - 1, -1, -1):
        alpha = schedule.alphas[t]
        coef = (1.0 - alpha) / math.sqrt(max(1.0 - schedule.alpha_bars[t], 1e-12))
        a = (a + coef * score(x, a)) / math.sqrt(alpha) + math.sqrt(schedule.betas[t]) * noise.normal()
        if not math.isfinite(a):
            raise SimulationError(f"sampler fault: non-finite action at reverse step {t}")
    return a


def reference_langevin_sample(score, x: float, a0: float, dt: float, n_steps: int,
                              noise) -> float:
    """The Langevin chain with one scalar draw and one finiteness check per step."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    a = float(a0)
    root = math.sqrt(2.0 * dt)
    for k in range(n_steps):
        a = a + score(x, a) * dt + root * noise.normal()
        if not math.isfinite(a):
            raise SimulationError(f"sampler fault: non-finite action at step {k}")
    return a


def reference_langevin_batch(score, x: float, a0, dt: float, n_steps: int, noise):
    """Chains in lockstep: one array draw and one finiteness check per step."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    a = np.array(a0, dtype=float, copy=True)
    root = math.sqrt(2.0 * dt)
    for k in range(n_steps):
        a = a + score(x, a) * dt + root * noise.normal(a.shape)
        if not np.all(np.isfinite(a)):
            raise SimulationError(f"sampler fault: non-finite action at step {k}")
    return a


def _ref_q(theta, x, a):
    return (0.5 * theta[0] * x * x + theta[1] * x + 0.5 * theta[2] * a * a
            + theta[3] * a + theta[4] * x * a + theta[5])


def _ref_psi(v, x, a):
    return -np.exp(v[0]) * a + v[1] * x + v[2]


def reference_sample_action(cfg, v, x, noise) -> float:
    """A fresh action at x from the configured langevin or ddpm sampler."""
    slope, v1, v2 = float(-np.exp(v[0])), float(v[1]), float(v[2])
    score = lambda x, a: slope * a + v1 * x + v2
    if cfg.sampler == "ddpm":
        schedule = make_linear_schedule(cfg.ddpm_steps, cfg.ddpm_beta_start, cfg.ddpm_beta_end)
        return reference_ddpm_sample(score, x, schedule, noise)
    return reference_langevin_sample(score, x, cfg.a0, cfg.langevin_dt, cfg.langevin_steps,
                                     noise)


def reference_cqsm_step(state, cfg, env, noise):
    """One online learner iteration on numpy scalars and 6- and 3-wide arrays."""
    theta, v, x, a = state.theta, state.v, state.x, state.a
    x_next, r = env(x, a)
    if cfg.sampler == "direct_sde":
        a_next = a + _ref_psi(v, x, a) * cfg.dt + math.sqrt(2.0 * cfg.dt) * noise.normal()
    else:
        a_next = reference_sample_action(cfg, v, x_next, noise)

    q_here = _ref_q(theta, x, a)
    psi = _ref_psi(v, x, a)
    delta = (_ref_q(theta, x_next, a_next) - q_here + r * cfg.dt
             - 0.5 * cfg.lam * psi * psi * cfg.dt - cfg.beta * q_here * cfg.dt)
    lr = lr_schedule(state.step * cfg.dt)
    d_theta = np.array([0.5 * x * x, x, 0.5 * a * a, a, x * a, 1.0]) * delta
    grad_a = theta[2] * a + theta[3] + theta[4] * x
    d_v = (grad_a / cfg.lam - _ref_psi(v, x, a)) * np.array([-np.exp(v[0]) * a, x, 1.0])
    theta_next = theta + lr * cfg.alpha_theta * d_theta
    v_next = v + lr * cfg.alpha_v * d_v
    if not np.abs(np.concatenate((theta_next, v_next))).max() <= DIVERGENCE_LIMIT:
        raise DivergenceError(
            f"parameters diverged at step {state.step} (last delta {delta:.6g})"
        )
    return LearnState(theta_next, v_next, x_next, a_next, state.step + 1,
                      state.cumulative_reward + r * cfg.dt)


def reference_score_gradient_residual(theta, v, lam: float, ep):
    """The offline score step's residual as ``sum(axis=0)`` of the C-ordered
    (K, 3) matrix of gap-weighted sensitivities, one row per grid point."""
    slope, score = score_of(v)
    traj = ep.trajectory
    xs = traj.states[:-1]
    as_ = traj.actions[:-1]
    w = ep.discount_weights[:-1]
    gap = grad_a_q(theta, xs, as_) - lam * score(xs, as_)
    sens = _feature_matrix(psi_features(slope, xs, as_), len(xs))
    return traj.dt * ((w * gap)[:, None] * sens).sum(axis=0)
