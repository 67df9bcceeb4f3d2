import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqsm.lq_analytic import k_to_optimal_params, optimal_score, q_star
from cqsm.learner import EXP_LIMIT, DivergenceError, score_at
from cqsm.policy import grad_a_q, grad_theta_q, psi_features, psi_v, q_theta, score_params_from_q
from conftest import REF_THETA, REF_V
from _oracles import central_diff_vec

finite = st.floats(-3, 3, allow_nan=False)


def test_q_theta_reference_constant():
    assert q_theta(REF_THETA, 0.0, 0.0) == pytest.approx(0.17312350, abs=1e-8)


def test_q_theta_zero_parameters():
    assert q_theta(np.zeros(6), 1.7, -2.3) == 0.0


def test_q_theta_matches_analytic_form(k_ref, lq_ref):
    theta, _ = k_to_optimal_params(k_ref, lq_ref.lam)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x, a = rng.uniform(-3, 3, 2)
        assert q_theta(theta, x, a) == pytest.approx(q_star(k_ref, x, a), rel=1e-12)


def test_grad_theta_q_examples():
    np.testing.assert_array_equal(grad_theta_q(REF_THETA, 0.0, 0.0),
                                  np.array([0, 0, 0, 0, 0, 1.0]))
    np.testing.assert_array_equal(grad_theta_q(REF_THETA, 1.0, 1.0),
                                  np.array([0.5, 1, 0.5, 1, 1, 1.0]))


def test_grad_a_q_examples():
    assert grad_a_q(REF_THETA, 0.0, 0.0) == pytest.approx(-0.35624157, abs=1e-8)
    assert grad_a_q(np.zeros(6), 0.4, -1.2) == 0.0


def test_scaled_action_gradient_is_optimal_score(k_ref, lq_ref):
    theta, _ = k_to_optimal_params(k_ref, lq_ref.lam)
    rng = np.random.default_rng(1)
    for _ in range(100):
        x, a = rng.uniform(-3, 3, 2)
        assert grad_a_q(theta, x, a) / lq_ref.lam == pytest.approx(
            optimal_score(k_ref, lq_ref.lam, x, a), rel=1e-12)


def test_psi_v_examples():
    assert psi_v(REF_V, 0.0, 0.0) == pytest.approx(-3.5624157, abs=1e-7)
    assert psi_v(np.zeros(3), 0.0, 1.0) == -1.0


def test_psi_v_reproduces_optimal_score(k_ref, lq_ref):
    _, v = k_to_optimal_params(k_ref, lq_ref.lam)
    rng = np.random.default_rng(2)
    for _ in range(100):
        x, a = rng.uniform(-3, 3, 2)
        assert psi_v(v, x, a) == pytest.approx(
            optimal_score(k_ref, lq_ref.lam, x, a), rel=1e-10)


def test_grad_v_psi_examples():
    np.testing.assert_array_equal(psi_features(-np.exp(0.3), 0.0, 0.0), [0.0, 0.0, 1.0])
    assert psi_features(-np.exp(0.0), 0.7, 1.0)[0] == -1.0


@given(theta=st.tuples(*[finite] * 6), x=finite, a=finite)
@settings(max_examples=100, deadline=None)
def test_grad_theta_q_matches_finite_differences(theta, x, a):
    theta = np.asarray(theta)
    fd = central_diff_vec(lambda t: q_theta(t, x, a), theta)
    np.testing.assert_allclose(grad_theta_q(theta, x, a), fd, rtol=1e-7, atol=1e-8)


@given(v=st.tuples(*[finite] * 3), x=finite, a=finite)
@settings(max_examples=100, deadline=None)
def test_grad_v_psi_matches_finite_differences(v, x, a):
    v = np.asarray(v)
    fd = central_diff_vec(lambda u: psi_v(u, x, a), v)
    np.testing.assert_allclose(psi_features(-np.exp(v[0]), x, a), fd, rtol=1e-6, atol=1e-7)


@given(theta=st.tuples(*[finite] * 6), x=finite, a=finite)
@settings(max_examples=100, deadline=None)
def test_grad_a_q_matches_finite_differences(theta, x, a):
    theta = np.asarray(theta)
    fd = (q_theta(theta, x, a + 1e-5) - q_theta(theta, x, a - 1e-5)) / 2e-5
    assert grad_a_q(theta, x, a) == pytest.approx(fd, rel=1e-7, abs=1e-8)


def test_optimal_pair_is_exactly_representable(k_ref, lq_ref):
    theta, v = k_to_optimal_params(k_ref, lq_ref.lam)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, a = rng.uniform(-4, 4, 2)
        assert q_theta(theta, x, a) == pytest.approx(q_star(k_ref, x, a), rel=1e-12)
        assert psi_v(v, x, a) == pytest.approx(
            grad_a_q(theta, x, a) / lq_ref.lam, rel=1e-10, abs=1e-12)


def test_score_params_from_q_requires_concavity_in_a():
    theta = np.array([-1.0, 0.0, 0.5, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        score_params_from_q(theta, 0.1)


def _bits(values):
    """Bit patterns of float64 values, every NaN mapped to one canonical NaN."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isnan(values), np.nan, values).view(np.uint64)


@given(v=st.tuples(st.floats(-50, 800), finite, finite), x=finite, a=finite)
@settings(max_examples=200, deadline=None)
def test_score_closure_is_bitwise_psi_v(v, x, a):
    # v0 above EXP_LIMIT overflows exp: the closure is refused instead of
    # returning the infinite or NaN values psi_v gives there
    if v[0] > EXP_LIMIT:
        with pytest.raises(DivergenceError, match="overflows at step 3"):
            score_at(*v, 3)
        return
    v = np.asarray(v)
    xs = np.array([x, -x, 0.0, 1e3 * x])
    as_ = np.array([a, 0.0, -a, a / 3])
    slope, score = score_at(*v.tolist(), 0)
    assert _bits(slope) == _bits(-np.exp(v[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(_bits(score(x, a)), _bits(psi_v(v, x, a)))
        assert np.array_equal(_bits(score(xs, as_)), _bits(psi_v(v, xs, as_)))
