import math
import re
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqsm.learner import AlgoConfig, DivergenceError, lr_schedule
from cqsm.lq import lq_dynamics, lq_reward_fn
from cqsm.lq_analytic import k_to_optimal_params, optimal_score
from cqsm.martingale import discount_weights, net_reward_flow, return_gaps
from cqsm.offline import (Episode, offline_update, rollout_episode, run_offline,
                          score_gradient_residual)
from cqsm.policy import psi_features, psi_v, q_features, q_theta
from cqsm.sde import NoiseSource, SimulationError, Trajectory, simulate_batch
import cqsm.offline as offline
from _oracles import reference_score_gradient_residual


def _episode_from_arrays(dt, xs, as_, rs, beta):
    traj = Trajectory(dt, np.asarray(xs, float), np.asarray(as_, float), np.asarray(rs, float))
    return Episode(traj, discount_weights(traj.states.shape, dt, beta))


def _episode_gaps(ep, theta, v, lam):
    """The return-to-go gaps of an episode, through return_gaps."""
    traj = ep.trajectory
    return return_gaps(ep.discount_weights, traj.reward_rates,
                       q_theta(theta, traj.states, traj.actions),
                       psi_v(v, traj.states, traj.actions), traj.dt, lam)


def test_return_to_go_all_zero_case():
    ep = _episode_from_arrays(1.0, [0.0, 0.3], [0.0, 0.1], [0.0], beta=1.0)
    assert _episode_gaps(ep, np.zeros(6), np.zeros(3), 0.1).tolist() == [0.0]


def test_return_to_go_undiscounted_hand_sum():
    # beta = 0, dt = 1, zero value model, zero score at the visited actions
    ep = _episode_from_arrays(1.0, [1.0, 2.0, 0.5], [0.0, 0.0, 0.0], [-2.0, -6.0], beta=0.0)
    g0, g1 = _episode_gaps(ep, np.zeros(6), np.zeros(3), 0.1)
    assert g0 == pytest.approx(-8.0, abs=1e-12)
    assert g1 == pytest.approx(-6.0, abs=1e-12)


def test_gap_and_residual_refuse_an_overflowing_score_slope():
    ep = _episode_from_arrays(1.0, [0.0, 0.3], [0.0, 0.1], [0.0], beta=1.0)
    v = np.array([800.0, 0.0, 0.0])
    message = re.escape("score slope -exp(v0) overflows (v0 = 800)")
    with pytest.raises(DivergenceError, match=message):
        offline_update(ep, np.zeros(6), v, AlgoConfig(dt=1.0, lam=0.1), 1)
    with pytest.raises(DivergenceError, match=message):
        score_gradient_residual(np.zeros(6), v, 0.1, ep)


def _gap_head_at_optimum(k_ref, lq_ref, theta, v, seed, n_episodes=1000):
    batch = simulate_batch(
        lq_dynamics(lq_ref, lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)),
        lq_reward_fn(lq_ref), 0.0, 0.0, 0.0125, 4000, n_episodes, seed=seed)
    q_vals = q_theta(theta, batch.states, batch.actions)
    psi = psi_v(v, batch.states, batch.actions)
    gaps = return_gaps(discount_weights(batch.states.shape, batch.dt, lq_ref.beta),
                       batch.reward_rates, q_vals, psi, batch.dt, lq_ref.lam)
    return batch, gaps


def test_mean_gap_vanishes_at_optimum(k_ref, lq_ref, opt_params):
    theta, v = opt_params
    g0 = np.concatenate([
        _gap_head_at_optimum(k_ref, lq_ref, theta, v, seed)[1][0]
        for seed in (42, 43)])
    se = g0.std(ddof=1) / math.sqrt(len(g0))
    assert abs(g0.mean()) < 3 * se


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_telescoping_identity(seed):
    rng = np.random.default_rng(seed)
    K = 7
    times = np.arange(K + 1) * 0.3
    xs = rng.normal(size=K + 1)
    as_ = rng.normal(size=K + 1)
    rs = rng.normal(size=K)
    theta = rng.normal(size=6)
    v = rng.normal(size=3)
    beta, lam, dt = 0.7, 0.25, 0.3
    w = np.exp(-beta * times)
    q_vals = q_theta(theta, xs, as_)
    psi = psi_v(v, xs, as_)
    gaps = return_gaps(w, rs, q_vals, psi, dt, lam)
    for k in range(K - 1):
        lhs = gaps[k] - gaps[k + 1]
        rhs = (-w[k] * q_vals[k] + w[k + 1] * q_vals[k + 1]
               + w[k] * (rs[k] - 0.5 * lam * psi[k] ** 2) * dt)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def _rollout(lq_ref, seed=5):
    cfg = AlgoConfig(dt=0.1, n_steps=200, alpha_theta=0.02, alpha_v=0.3,
                     sampler="direct_sde")
    v = np.array([0.4, 0.2, -0.3])
    return cfg, v, rollout_episode(lq_ref, v, cfg, NoiseSource(seed))


@pytest.mark.parametrize("width", [None, 3])
def test_return_gaps_equal_the_flipped_suffix_sums_bitwise(width):
    shape = (500,) if width is None else (500, width)
    rng = np.random.default_rng(3)
    w = discount_weights((501,) + shape[1:], 0.1, 0.7)
    rs = rng.normal(size=shape)
    q_vals, psi = rng.normal(size=(2, 501) + shape[1:])
    flow = net_reward_flow(w[:-1], rs, psi[:-1], 0.1, 0.25)
    want = np.flip(np.cumsum(np.flip(flow, axis=0), axis=0), axis=0) - w[:-1] * q_vals[:-1]
    assert return_gaps(w, rs, q_vals, psi, 0.1, 0.25).tobytes() == want.tobytes()


@pytest.mark.parametrize("features", [q_features, lambda x, a: psi_features(-1.7, x, a)],
                         ids=["q", "psi"])
def test_feature_matrix_equals_the_stacked_broadcast_bitwise(features):
    # the critic step and the residual oracle multiply it as laid out: C order,
    # one row per point
    xs, as_ = np.random.default_rng(4).normal(size=(2, 500))
    want = np.stack(np.broadcast_arrays(*features(xs, as_)), axis=1)
    got = offline._feature_matrix(features(xs, as_), len(xs))
    assert got.flags.c_contiguous and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _spread_episode(n_steps, seed):
    """An episode of n_steps transitions whose states and actions take either
    sign and magnitudes from 1e-100 to 1e100."""
    rng = np.random.default_rng(seed)
    xs, as_ = rng.normal(size=(2, n_steps + 1)) * 10.0 ** rng.uniform(-100, 100,
                                                                      (2, n_steps + 1))
    return _episode_from_arrays(0.1, xs, as_, rng.normal(size=n_steps), beta=0.7)


def _residual_bits(theta, v, lam, ep):
    got = score_gradient_residual(theta, v, lam, ep)
    want = reference_score_gradient_residual(theta, v, lam, ep)
    assert got.shape == want.shape == (3,)
    assert got.tobytes() == want.tobytes()
    return got


@pytest.mark.parametrize("n_steps", [1, 2, 500, 100_000])
def test_score_gradient_residual_equals_the_column_sum_oracle_bitwise(n_steps):
    rng = np.random.default_rng(n_steps)
    _residual_bits(rng.normal(size=6), rng.normal(size=3), 0.25,
                   _spread_episode(n_steps, n_steps + 1))


def test_score_gradient_residual_sums_a_column_of_negative_zeros_to_positive_zero():
    # every action is 0, so every slope * a is -0.0; with t4 = v1 = 0 the gap
    # is t3 - lam v2 > 0 at every point, so every product in that column is -0.0
    ep = _spread_episode(500, 9)
    ep.trajectory.actions[:] = 0.0
    theta = np.array([0.3, -0.2, -1.0, 0.8, 0.0, 0.1])
    v = np.array([0.2, 0.0, -0.5])
    res = _residual_bits(theta, v, 0.25, ep)
    assert res[0] == 0.0 and not np.signbit(res[0])


def test_score_gradient_residual_equals_the_oracle_bitwise_through_inf_and_nan():
    ep = _spread_episode(500, 10)
    ep.trajectory.states[[3, 40, 41]] = np.inf, -np.inf, np.nan
    ep.trajectory.actions[[7, 40, 200]] = -np.inf, np.inf, np.nan
    rng = np.random.default_rng(10)
    with np.errstate(over="ignore", invalid="ignore"):
        res = _residual_bits(rng.normal(size=6), rng.normal(size=3), 0.25, ep)
    assert np.isnan(res).all()


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_offline_update_score_step_is_residual_at_new_theta(lq_ref, seed):
    cfg, v, ep = _rollout(lq_ref, seed)
    theta0 = np.linspace(-0.5, 0.4, 6)
    theta, v_next = offline_update(ep, theta0, v, cfg, episode_index=4)
    critic_only, _ = offline_update(ep, theta0, v, AlgoConfig(
        dt=0.1, n_steps=200, alpha_theta=0.02, alpha_v=0.0), episode_index=4)
    assert np.array_equal(theta, critic_only)
    expected = v + lr_schedule(4.0) * cfg.alpha_v * score_gradient_residual(
        theta, v, cfg.lam, ep)
    assert np.array_equal(v_next, expected)
    assert not np.array_equal(v_next, v)


@pytest.mark.parametrize("alphas,message", [
    ((1e308, 0.3), "offline update diverged at episode 3"),
    ((0.02, 1e308), "offline score update diverged at episode 3"),
])
def test_offline_update_divergence_messages(lq_ref, alphas, message):
    _, v, ep = _rollout(lq_ref)
    cfg = AlgoConfig(dt=0.1, n_steps=200, alpha_theta=alphas[0], alpha_v=alphas[1])
    theta0 = np.linspace(-50.0, 40.0, 6)  # far from any fit, so the steps are large
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError, match=f"^{message}$"):
        offline_update(ep, theta0, v, cfg, episode_index=3)


def test_offline_update_returns_fresh_arrays(lq_ref):
    _, v, ep = _rollout(lq_ref)
    cfg = AlgoConfig(dt=0.1, alpha_theta=0.0, alpha_v=0.0)
    theta0 = np.linspace(-0.5, 0.4, 6)
    theta, v_next = offline_update(ep, theta0, v, cfg, episode_index=1)
    assert not np.shares_memory(theta, theta0)
    assert not np.shares_memory(v_next, v)
    np.testing.assert_array_equal(theta, theta0)
    np.testing.assert_array_equal(v_next, v)


def test_offline_update_single_step_hand_value(lq_ref):
    dt = 1.0
    ep = _episode_from_arrays(dt, [1.0, 0.5], [2.0, 0.0], [-3.0], beta=1.0)
    theta0 = np.zeros(6)
    v0 = np.zeros(3)
    cfg = AlgoConfig(dt=dt, alpha_theta=0.1, alpha_v=0.0, beta=1.0, lam=0.1)
    (g0,) = _episode_gaps(ep, theta0, v0, cfg.lam)
    theta, _ = offline_update(ep, theta0, v0, cfg, episode_index=1)
    xi = np.array([0.5, 1.0, 2.0, 2.0, 2.0, 1.0])  # gradient at (x, a) = (1, 2)
    np.testing.assert_allclose(theta, 0.1 * xi * g0 * dt, rtol=1e-12)


def test_offline_critic_update_unbiased_at_optimum(k_ref, lq_ref, opt_params):
    theta, v = opt_params
    per_episode = []
    for seed in (7, 8):
        batch, gaps = _gap_head_at_optimum(k_ref, lq_ref, theta, v, seed)
        xs, as_ = batch.states[:-1], batch.actions[:-1]
        feats = np.stack([0.5 * xs ** 2, xs, 0.5 * as_ ** 2, as_, xs * as_,
                          np.ones_like(xs)])
        per_episode.append((feats * gaps).sum(axis=1) * batch.dt)
    updates = np.concatenate(per_episode, axis=1)  # per-episode d_theta
    for comp in updates:
        se = comp.std(ddof=1) / math.sqrt(len(comp))
        assert abs(comp.mean()) < 3 * se


def test_score_gradient_residual_vanishes_at_exact_fit(k_ref, lq_ref, opt_params):
    theta, v = opt_params
    batch = simulate_batch(
        lq_dynamics(lq_ref, lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)),
        lq_reward_fn(lq_ref), 0.0, 0.0, 0.1, 100, 1, seed=3)
    traj = Trajectory(batch.dt, batch.states[:, 0], batch.actions[:, 0],
                      batch.reward_rates[:, 0])
    ep = Episode(traj, discount_weights(traj.states.shape, traj.dt, lq_ref.beta))
    res = score_gradient_residual(theta, v, lq_ref.lam, ep)
    assert np.max(np.abs(res)) < 1e-10


def test_score_gradient_residual_points_back_after_perturbation(k_ref, lq_ref, opt_params):
    theta, v_star = opt_params
    score = lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)
    shift = 0.1
    for seed in range(20):
        batch = simulate_batch(lq_dynamics(lq_ref, score), lq_reward_fn(lq_ref),
                               0.0, 0.0, 0.1, 200, 1, seed=seed)
        traj = Trajectory(batch.dt, batch.states[:, 0], batch.actions[:, 0],
                          batch.reward_rates[:, 0])
        ep = Episode(traj, discount_weights(traj.states.shape, traj.dt, lq_ref.beta))
        v = v_star.copy()
        v[2] += shift
        res = score_gradient_residual(theta, v, lq_ref.lam, ep)
        assert res[2] < 0
        # the constant component is exactly -shift * lam * sum(w dt)
        expected = -shift * lq_ref.lam * ep.discount_weights[:-1].sum() * traj.dt
        assert res[2] == pytest.approx(expected, rel=1e-9)


def _train_reference(lq_ref, seed):
    """Final theta of one seed of the offline acceptance run."""
    cfg = AlgoConfig(dt=0.1, n_steps=500, alpha_theta=0.02, alpha_v=0.3,
                     seed=seed, sampler="direct_sde", record_every=500)
    v0 = np.random.default_rng((seed, 1)).uniform(0.0, 1.0, 3)
    return run_offline(cfg, lq_ref, np.zeros(6), v0, n_episodes=2000).final_theta


def test_offline_training_reaches_reference_optimum(lq_ref, opt_params):
    # the five seeds are independent, so two worker processes run them
    theta_star, _ = opt_params
    with ProcessPoolExecutor(max_workers=2) as pool:
        finals = list(pool.map(_train_reference, [lq_ref] * 5, range(5)))
    passing = sum(bool(np.all(np.abs(final - theta_star)[[0, 1, 4, 5]] < 0.2))
                  for final in finals)
    assert passing >= 4


def test_run_offline_zero_episodes(lq_ref):
    cfg = AlgoConfig(dt=0.1, n_steps=10, seed=0)
    rec = run_offline(cfg, lq_ref, np.zeros(6), np.zeros(3), n_episodes=0)
    assert len(rec.steps) == 1
    np.testing.assert_array_equal(rec.vs[0], np.zeros(3))


@pytest.mark.parametrize("theta0, v0, message", [
    (np.zeros(5), np.zeros(3), "theta0 must have 6 entries, got shape (5,)"),
    (np.zeros(6), np.zeros(4), "v0 must have 3 entries, got shape (4,)"),
    (np.array([0, 0, 0, 0, 0, -math.inf]), np.zeros(3),
     "theta0 must be finite, got [0.0, 0.0, 0.0, 0.0, 0.0, -inf]"),
    (np.zeros(6), np.array([math.nan, 0.0, 0.0]), "v0 must be finite, got [nan, 0.0, 0.0]"),
], ids=["theta0-short", "v0-long", "theta0-inf", "v0-nan"])
@pytest.mark.parametrize("n_episodes", [0, 3])
def test_run_offline_refuses_bad_initial_parameters_before_any_draw(
        lq_ref, monkeypatch, theta0, v0, message, n_episodes):
    def no_draws(seed):
        raise AssertionError("a NoiseSource was made before the parameters were checked")

    monkeypatch.setattr(offline, "NoiseSource", no_draws)
    cfg = AlgoConfig(dt=0.1, n_steps=10, seed=0)
    with pytest.raises(ValueError, match=re.escape(message)):
        run_offline(cfg, lq_ref, theta0, v0, n_episodes=n_episodes)


@pytest.mark.parametrize("n_episodes", [0, 3])
def test_run_offline_refuses_episodes_without_transitions_before_any_draw(
        lq_ref, monkeypatch, n_episodes):
    def no_draws(seed):
        raise AssertionError("a NoiseSource was made before n_steps was checked")

    monkeypatch.setattr(offline, "NoiseSource", no_draws)
    message = "^n_steps must be at least 1 for offline episodes, got 0$"
    with pytest.raises(ValueError, match=message):
        run_offline(AlgoConfig(dt=0.1, n_steps=0, seed=0), lq_ref, np.zeros(6), np.zeros(3),
                    n_episodes=n_episodes)


@pytest.mark.parametrize("seed, v0, n_steps, error, message", [
    (2, np.array([800.0, 0.0, 0.0]), 10, DivergenceError,
     "run with seed 2: episode 1: score slope -exp(v0) overflows (v0 = 800)"),
    # the offline-episodes benchmark's diverging seed: its second actor step
    # makes the Euler action step unstable
    (123, np.random.default_rng((123, 1)).uniform(0.0, 1.0, 3), 500, SimulationError,
     "run with seed 123: episode 2: step 107: reward evaluated to a non-finite value"),
], ids=["overflowing-slope", "unstable-episode"])
def test_run_offline_failure_names_seed_and_episode(lq_ref, seed, v0, n_steps, error, message):
    cfg = AlgoConfig(dt=0.1, n_steps=n_steps, alpha_theta=0.02, alpha_v=0.3, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        with pytest.raises(error) as info:
            run_offline(cfg, lq_ref, np.zeros(6), v0, n_episodes=5)
    assert type(info.value) is error
    assert str(info.value).startswith(message)


def test_run_offline_deterministic(lq_ref):
    cfg = AlgoConfig(dt=0.1, n_steps=50, alpha_theta=0.01, alpha_v=0.1, seed=4,
                     record_every=10)
    r1 = run_offline(cfg, lq_ref, np.zeros(6), np.full(3, 0.3), n_episodes=30)
    r2 = run_offline(cfg, lq_ref, np.zeros(6), np.full(3, 0.3), n_episodes=30)
    assert np.array_equal(r1.thetas, r2.thetas)
    assert np.array_equal(r1.vs, r2.vs)


def test_episode_weights_match_times(lq_ref):
    cfg, _, ep = _rollout(lq_ref)
    times = np.arange(cfg.n_steps + 1) * cfg.dt
    np.testing.assert_allclose(ep.discount_weights, np.exp(-cfg.beta * times))
    assert len(ep.trajectory.reward_rates) == cfg.n_steps
