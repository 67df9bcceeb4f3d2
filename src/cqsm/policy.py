"""Learnable value and score parameterizations with exact analytic gradients.

The value model is the quadratic
    Q(x, a) = t0 x^2/2 + t1 x + t2 a^2/2 + t3 a + t4 x a + t5
over theta = (t0..t5); the score model is
    Psi(x, a) = -exp(v0) a + v1 x + v2
over v = (v0, v1, v2), whose a-coefficient is negative by construction.
All functions broadcast over numpy arrays in x and a.
"""

from __future__ import annotations

import numpy as np


def q_theta(theta, x, a):
    """Quadratic value model."""
    return (0.5 * theta[0] * x * x + theta[1] * x + 0.5 * theta[2] * a * a
            + theta[3] * a + theta[4] * x * a + theta[5])


def q_features(x, a):
    """Gradient of q_theta in theta as a tuple: (x^2/2, x, a^2/2, a, xa, 1), theta-free."""
    return 0.5 * x * x, x, 0.5 * a * a, a, x * a, 1.0


def psi_features(slope, x, a):
    """Gradient of psi_v in v as a tuple: (slope a, x, 1), where slope = -exp(v0)."""
    return slope * a, x, 1.0


def grad_theta_q(theta, x, a) -> np.ndarray:
    """Gradient of q_theta in theta as an array (see :func:`q_features`)."""
    return np.array(q_features(x, a))


def grad_a_q(theta, x, a):
    """Action derivative of q_theta: t2 a + t3 + t4 x."""
    return theta[2] * a + theta[3] + theta[4] * x


def psi_v(v, x, a):
    """Score model -exp(v0) a + v1 x + v2."""
    return -np.exp(v[0]) * a + v[1] * x + v[2]


def score_fn(slope: float, v1: float, v2: float):
    """The score slope * a + v1 x + v2 as a closure of (x, a).

    The closure carries ``coefficients = (slope, v1, v2)``, from which
    :func:`samplers.langevin_sample` runs the affine chain without calling
    it.  It stays a plain function: a class with ``__call__`` costs about
    twice as much per call.
    """
    score = lambda x, a: slope * a + v1 * x + v2
    score.coefficients = (slope, v1, v2)
    return score


def score_params_from_q(theta, lam: float) -> np.ndarray:
    """Score parameters that reproduce the value model's action gradient.

    Solves psi_v = grad_a_q / lam exactly: v = (log(-t2/lam), t4/lam, t3/lam).
    Requires t2 < 0 (otherwise the log has a non-positive argument).
    """
    if not theta[2] < 0:
        raise ValueError(f"score fit needs a negative a^2 coefficient, got {theta[2]}")
    return np.array([np.log(-theta[2] / lam), theta[4] / lam, theta[3] / lam])
