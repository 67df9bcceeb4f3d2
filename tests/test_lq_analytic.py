import math
import warnings

import numpy as np
import pytest

from cqsm.lq import LqParams
from cqsm.lq_analytic import (KCoefficients, SolveError, coefficient_residuals, hjb_residual,
                              k_to_optimal_params, optimal_score, q_star, solve_lq)
from conftest import REF_THETA, REF_V
from _oracles import central_diff, evaluate_affine_score_q, random_admissible_params


def test_solver_reproduces_reference_optimum(k_ref, lq_ref):
    theta, v = k_to_optimal_params(k_ref, lq_ref.lam)
    np.testing.assert_allclose(theta, REF_THETA, atol=1e-6)
    np.testing.assert_allclose(v, REF_V, atol=1e-6)


def test_solver_residuals_tiny(k_ref, lq_ref):
    assert np.max(np.abs(coefficient_residuals(k_ref, lq_ref))) < 1e-10


def test_zero_coefficients_residuals(lq_ref):
    zero = KCoefficients(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    np.testing.assert_array_equal(
        coefficient_residuals(zero, lq_ref),
        np.array([1.0, 1.0, 1.0, 2.0, 1.0, 0.0]),
    )


def test_cross_residual_is_linear_in_k4(k_ref, lq_ref):
    # with B = 0 and C*D = 0 the xa equation is linear in k4 at fixed k2
    delta = 0.37
    bumped = KCoefficients(k_ref.k0, k_ref.k1, k_ref.k2, k_ref.k3,
                           k_ref.k4 + delta, k_ref.k5)
    change = (coefficient_residuals(bumped, lq_ref)[4]
              - coefficient_residuals(k_ref, lq_ref)[4])
    expected = delta * (lq_ref.beta - lq_ref.A - k_ref.k2 / lq_ref.lam)
    assert change == pytest.approx(expected, rel=1e-12)


def test_deterministic_variant_matches_hand_solution():
    p = LqParams(A=-1.0, B=0.0, C=0.0, D=0.0, M=2.0, N=2.0, R=1.0, P=1.0,
                 Pp=2.0, beta=1.0, lam=0.1)
    k = solve_lq(p)
    # a^2 equation decouples: k2^2 - beta lam k2 - N lam = 0 -> k2 = -0.4,
    # then k4 = -R/(beta - A - k2/lam) = -1/6 and the rest follow
    expected = np.array([-0.5740740740740741, -1 / 6, -0.4, -0.4, -1 / 6, 0.4])
    np.testing.assert_allclose(k.as_array(), expected, atol=1e-9)


def test_pure_noise_cost_solution():
    p = LqParams(A=-1.0, B=0.3, C=0.2, D=1.0, M=0.0, N=2.0, R=0.0, P=0.0,
                 Pp=0.0, beta=1.0, lam=0.1)
    k = solve_lq(p)
    k2 = 0.5 * p.beta * p.lam - p.lam * math.sqrt(0.25 * p.beta ** 2 + p.N / p.lam)
    assert k.k0 == pytest.approx(0.0, abs=1e-9)
    assert k.k1 == pytest.approx(0.0, abs=1e-9)
    assert k.k3 == pytest.approx(0.0, abs=1e-9)
    assert k.k4 == pytest.approx(0.0, abs=1e-9)
    assert k.k2 == pytest.approx(k2, abs=1e-9)
    assert k.k5 == pytest.approx(k2 / p.beta, abs=1e-9)


def _oracle_gap(k, p):
    """Distance from k to the policy evaluation of k's own optimal score."""
    q = evaluate_affine_score_q(p, k.k2 / p.lam, k.k4 / p.lam, k.k3 / p.lam)
    return np.max(np.abs(q - k.as_array()))


# Instances a scan of k4 over a grid misses (two roots in one grid cell; a
# root beside the edge of the sqrt domain) and instances whose quartic has a
# leading coefficient below rounding of the largest.
@pytest.mark.parametrize("p, k4", [
    (LqParams(A=-1.4894376724387794, B=-1.935194436484178, C=0.7373996912383398,
              D=0.7643918942466845, M=2.8433735473747324, N=2.360199727249492,
              R=2.6685640295015407, P=2.3000513645613685, Pp=0.8905643069097007,
              beta=0.34534069323224004, lam=0.7035556685734398), -0.53306),
    (LqParams(A=-1.8800387579528213, B=1.0984445482894412, C=-0.965939967014573,
              D=1.183132314427323, M=0.3568508219641675, N=0.4510735986529378,
              R=-0.018151008373696875, P=-4.715145024402415, Pp=2.5826078638350856,
              beta=4.467268324396194, lam=0.03015205090020611), 0.0023068),
    (LqParams(D=1e-22), -1 / 6),
    (LqParams(B=1e-155, D=0.0), -1 / 6),
], ids=["two-roots-in-a-cell", "root-by-domain-edge", "D-1e-22", "B-1e-155"])
def test_solver_finds_hard_optima(p, k4):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = solve_lq(p)
    assert k.k4 == pytest.approx(k4, rel=1e-4)
    assert np.max(np.abs(coefficient_residuals(k, p))) < 1e-10
    assert k.k0 < 0 and k.k2 < 0 and k.k0 * k.k2 - k.k4 ** 2 > 0
    assert _oracle_gap(k, p) < 1e-9


def test_two_concave_candidates_return_the_most_concave():
    # Characterises today's rule, not a verified optimum: two concave fixed
    # points pass the residual test here, and solve_lq warns and returns the
    # one of larger k0*k2 - k4^2 (k4 -0.0993, k5 15.0; the other has k4 -0.2007,
    # k5 34751).  Choosing by finite discounted second moments instead is
    # ROADMAP direction 7, which is expected to change this test on purpose.
    p = LqParams(A=-2.243888442192879, B=-2.7417311470185783, C=-1.3003561375931607, D=0.0,
                 M=3.540318499605773, N=1.5094897601930133, R=3.152645771710249,
                 P=4.485744830528116, Pp=-0.05809336604828452, beta=0.9448345697680294,
                 lam=0.053882410790880526)
    with pytest.warns(UserWarning, match="^2 concave solutions found; returning the most concave$"):
        k = solve_lq(p)
    assert k.k4 == pytest.approx(-0.0992977121, rel=1e-8)
    assert k.k5 == pytest.approx(14.9927343821, rel=1e-8)
    assert np.max(np.abs(coefficient_residuals(k, p))) < 1e-10


def test_overflowing_quartic_raises_solve_error():
    # B^2 overflows the quartic's coefficients to +-inf
    with pytest.raises(SolveError, match="no concave quadratic solution"):
        solve_lq(LqParams(B=1e200))


def test_randomized_family_residuals_and_concavity():
    rng = np.random.default_rng(2024)
    successes = 0
    for i in range(50):
        p = random_admissible_params(rng, force_d_zero=(i % 4 == 0))
        try:
            k = solve_lq(p)
        except SolveError:
            continue
        successes += 1
        assert np.max(np.abs(coefficient_residuals(k, p))) < 1e-8
        assert k.k2 < 0
        assert k.k0 < 0
        assert k.k0 * k.k2 - k.k4 ** 2 > 0
        assert _oracle_gap(k, p) < 1e-9
    assert successes >= 25


def test_hjb_residual_vanishes_on_grid(k_ref, lq_ref):
    grid = np.linspace(-2.0, 2.0, 5)
    worst = max(abs(hjb_residual(k_ref, lq_ref, x, a)) for x in grid for a in grid)
    assert worst < 1e-8


def test_d_to_zero_continuity():
    base = dict(A=-1.0, B=0.0, C=0.0, M=2.0, N=2.0, R=1.0, P=1.0, Pp=2.0,
                beta=1.0, lam=0.1)
    k_eps = solve_lq(LqParams(D=1e-3, **base))
    k_zero = solve_lq(LqParams(D=0.0, **base))
    assert np.max(np.abs(k_eps.as_array() - k_zero.as_array())) < 1e-2


def test_q_star_reference_values(k_ref):
    assert q_star(k_ref, 0.0, 0.0) == pytest.approx(0.1731235, abs=1e-6)
    expected = 0.5 * k_ref.k0 + k_ref.k1 + k_ref.k5
    assert q_star(k_ref, 1.0, 0.0) == pytest.approx(expected, abs=1e-12)
    assert q_star(k_ref, 1.0, 0.0) == pytest.approx(-0.352810, abs=1e-5)


def test_q_star_sign_flip_symmetry(k_ref):
    even = KCoefficients(k_ref.k0, 0.0, k_ref.k2, 0.0, k_ref.k4, k_ref.k5)
    pts = [(0.7, -1.1), (2.0, 0.3)]
    for x, a in pts:
        assert q_star(even, x, a) == pytest.approx(q_star(even, -x, -a), rel=1e-12)
        assert q_star(k_ref, x, a) != pytest.approx(q_star(k_ref, -x, -a), rel=1e-6)


def test_optimal_score_reference_values(k_ref, lq_ref):
    assert optimal_score(k_ref, lq_ref.lam, 0.0, 0.0) == pytest.approx(-3.5624157, abs=1e-6)
    assert optimal_score(k_ref, lq_ref.lam, 1.0, 0.0) == pytest.approx(-5.074322, abs=1e-5)


def test_optimal_score_is_scaled_action_derivative(k_ref, lq_ref):
    rng = np.random.default_rng(11)
    for _ in range(20):
        x, a = rng.uniform(-2, 2, 2)
        fd = central_diff(lambda u: q_star(k_ref, x, u), a)
        assert optimal_score(k_ref, lq_ref.lam, x, a) == pytest.approx(
            fd / lq_ref.lam, rel=1e-6)


def test_k_to_optimal_params_requires_negative_k2(lq_ref):
    bad = KCoefficients(-1.0, 0.0, 0.5, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        k_to_optimal_params(bad, lq_ref.lam)


def test_k2_at_minus_lam_gives_zero_log_entry(lq_ref):
    k = KCoefficients(-1.0, 0.0, -lq_ref.lam, 0.2, 0.1, 0.0)
    _, v = k_to_optimal_params(k, lq_ref.lam)
    assert v[0] == 0.0


def test_solver_agrees_with_policy_evaluation_oracle(k_ref, lq_ref):
    # evaluating the optimal score as a fixed policy must return the same Q
    s_a = k_ref.k2 / lq_ref.lam
    s_x = k_ref.k4 / lq_ref.lam
    s_c = k_ref.k3 / lq_ref.lam
    q = evaluate_affine_score_q(lq_ref, s_a, s_x, s_c)
    np.testing.assert_allclose(q, k_ref.as_array(), atol=1e-9)


def test_invalid_discount_rejected_at_construction():
    with pytest.raises(ValueError, match="discount"):
        LqParams(A=0.0, B=0.0, C=1.0, D=1.0, M=2.0, N=2.0, R=1.0, P=1.0,
                 Pp=2.0, beta=0.5, lam=0.1)
