import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqsm.experiment import parse_config, run_experiment
from cqsm.learner import (EXP_LIMIT, SAMPLERS, AlgoConfig, DivergenceError, initial_action,
                          lr_schedule)
from cqsm.lq import env_step, lq_dynamics, lq_reward, lq_reward_fn
from cqsm.lq_analytic import k_to_optimal_params, optimal_score, q_star
from cqsm.online import DIVERGENCE_LIMIT, LearnState, cqsm_step, run_cqsm, td_delta
from cqsm.policy import grad_a_q, psi_features, psi_v, q_theta
from cqsm.samplers import make_linear_schedule
from cqsm.sde import NoiseSource, SimulationError, simulate
import cqsm.experiment as experiment
import cqsm.online as online
from _oracles import SequenceNoise, reference_cqsm_step, reference_sample_action


def test_lr_schedule_values():
    assert lr_schedule(1.0) == 1.0
    assert lr_schedule(math.e ** 4) == pytest.approx(0.5, rel=1e-12)
    assert lr_schedule(0.5) == 1.0
    assert lr_schedule(0.0) == 1.0
    assert lr_schedule(math.e) == 1.0


def test_lr_schedule_decreasing_beyond_e():
    ts = np.exp(np.linspace(1.1, 10, 40))
    vals = [lr_schedule(t) for t in ts]
    assert all(v1 >= v2 for v1, v2 in zip(vals, vals[1:]))


def test_td_delta_hand_example():
    delta = td_delta(np.zeros(6), np.zeros(3), 1.0, 0.0, 0.9, 0.0,
                     r=-2.0, dt=0.1, beta=1.0, lam=0.1)
    assert delta == pytest.approx(-0.2, abs=1e-15)


def test_td_delta_takes_psi_bitwise_from_the_score_model():
    rng = np.random.default_rng(23)
    for theta, v, (x, a, x2, a2, r) in zip(rng.uniform(-2, 2, (200, 6)),
                                           rng.uniform(-2, 2, (200, 3)),
                                           rng.uniform(-2, 2, (200, 5))):
        q_here, psi = q_theta(theta, x, a), psi_v(v, x, a)
        want = (q_theta(theta, x2, a2) - q_here + r * 0.1 - 0.5 * 0.2 * psi * psi * 0.1
                - 1.5 * q_here * 0.1)
        assert td_delta(theta, v, x, a, x2, a2, r, 0.1, 1.5, 0.2) == want


def test_td_delta_names_an_overflowing_score_slope():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        with pytest.raises(DivergenceError, match=re.escape("(v0 = 800)")):
            td_delta(np.zeros(6), np.array([800.0, 0.0, 0.0]), 0.0, 1.0, 0.0, 1.0,
                     r=0.0, dt=0.1, beta=1.0, lam=0.1)


def test_td_delta_small_dt_limit(k_ref, lq_ref):
    theta, v = k_to_optimal_params(k_ref, lq_ref.lam)
    x, a, x2, a2 = 0.4, -0.9, 0.6, -0.5
    delta = td_delta(theta, v, x, a, x2, a2, r=1.0, dt=1e-12,
                     beta=lq_ref.beta, lam=lq_ref.lam)
    assert delta == pytest.approx(q_theta(theta, x2, a2) - q_theta(theta, x, a),
                                  abs=1e-9)


def test_td_delta_static_transition_equals_negated_generator_terms(k_ref, lq_ref):
    # with x' = x, a' = a the step terms reduce to (r - lam/2 psi^2 - beta Q) dt,
    # which by the stationary equation equals minus the generator part of Q
    theta, v = k_to_optimal_params(k_ref, lq_ref.lam)
    rng = np.random.default_rng(8)
    for _ in range(20):
        x, a = rng.uniform(-2, 2, 2)
        r = lq_reward(lq_ref, x, a)
        dt = 0.1
        delta = td_delta(theta, v, x, a, x, a, r, dt, lq_ref.beta, lq_ref.lam)
        q_x = k_ref.k0 * x + k_ref.k1 + k_ref.k4 * a
        q_a = k_ref.k2 * a + k_ref.k3 + k_ref.k4 * x
        sigma_x = lq_ref.C * x + lq_ref.D * a
        generator = (q_x * (lq_ref.A * x + lq_ref.B * a)
                     + q_a * q_a / lq_ref.lam
                     + 0.5 * sigma_x ** 2 * k_ref.k0 + k_ref.k2)
        assert delta == pytest.approx(-dt * generator, rel=1e-9, abs=1e-12)


def test_actor_update_vanishes_at_optimum(k_ref, lq_ref):
    theta, v = k_to_optimal_params(k_ref, lq_ref.lam)
    rng = np.random.default_rng(12)
    for _ in range(25):
        x, a = rng.uniform(-3, 3, 2)
        mismatch = grad_a_q(theta, x, a) / lq_ref.lam - psi_v(v, x, a)
        update = mismatch * np.array(psi_features(-np.exp(v[0]), x, a))
        assert np.max(np.abs(update)) < 1e-12


def test_cqsm_step_hand_example(lq_ref):
    cfg = AlgoConfig(dt=0.1, n_steps=1, alpha_theta=0.01, alpha_v=0.01,
                     beta=1.0, lam=0.1, sampler="direct_sde")
    state = LearnState(np.zeros(6), np.zeros(3), 1.0, 0.0, 0, 0.0)
    env = lambda x, a: (0.9, lq_reward(lq_ref, x, a))
    new = cqsm_step(state, cfg, env, SequenceNoise([]))
    # delta = -0.2; xi = (1/2, 1, 0, 0, 0, 1); schedule value 1 at t = 0
    np.testing.assert_allclose(
        new.theta, 0.01 * (-0.2) * np.array([0.5, 1, 0, 0, 0, 1.0]), atol=1e-15)
    np.testing.assert_array_equal(new.v, np.zeros(3))  # psi and grad_a_q vanish
    assert new.x == 0.9 and new.a == 0.0
    assert new.step == 1
    assert new.cumulative_reward == pytest.approx(-0.2)


def test_delta_mean_vanishes_under_optimal_pair(k_ref, lq_ref):
    # along an on-policy trajectory at small dt, the per-step TD scaled by
    # 1/dt has mean within Monte Carlo error of zero
    theta, v = k_to_optimal_params(k_ref, lq_ref.lam)
    dt = 0.01
    dyn = lq_dynamics(lq_ref, lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a))
    traj = simulate(dyn, lq_reward_fn(lq_ref), 0.0, 0.0, dt, 100_000, seed=99)
    xs, as_ = traj.states, traj.actions
    q = q_theta(theta, xs, as_)
    psi = psi_v(v, xs[:-1], as_[:-1])
    deltas = (q[1:] - q[:-1] + (traj.reward_rates - 0.5 * lq_ref.lam * psi ** 2
                                - lq_ref.beta * q[:-1]) * dt) / dt
    se = deltas.std(ddof=1) / math.sqrt(len(deltas))
    assert abs(deltas.mean()) < 3 * se

    # critic update direction: every gradient-weighted mean is also ~0
    feats = np.stack([0.5 * xs[:-1] ** 2, xs[:-1], 0.5 * as_[:-1] ** 2,
                      as_[:-1], xs[:-1] * as_[:-1], np.ones(len(deltas))])
    weighted = feats * deltas
    for comp in weighted:
        assert abs(comp.mean()) < 4 * comp.std(ddof=1) / math.sqrt(len(comp))


def test_run_cqsm_zero_steps_records_initial_state(lq_ref):
    cfg = AlgoConfig(dt=0.1, n_steps=0, seed=1)
    rec = run_cqsm(cfg, lq_ref, np.zeros(6), np.zeros(3))
    assert len(rec.steps) == 1
    np.testing.assert_array_equal(rec.thetas[0], np.zeros(6))
    assert rec.running_avg[0] == 0.0


def test_run_cqsm_deterministic(lq_ref):
    cfg = AlgoConfig(dt=0.1, n_steps=500, seed=3, record_every=50)
    r1 = run_cqsm(cfg, lq_ref, np.zeros(6), np.array([0.5, 0.5, 0.5]))
    r2 = run_cqsm(cfg, lq_ref, np.zeros(6), np.array([0.5, 0.5, 0.5]))
    assert np.array_equal(r1.thetas, r2.thetas)
    assert np.array_equal(r1.vs, r2.vs)
    assert np.array_equal(r1.running_avg, r2.running_avg)


def test_run_cqsm_divergence_guard(lq_ref):
    cfg = AlgoConfig(dt=0.1, n_steps=5000, alpha_theta=1e7, alpha_v=1e7, seed=0)
    with pytest.raises(DivergenceError):
        run_cqsm(cfg, lq_ref, np.zeros(6), np.array([0.5, 0.5, 0.5]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2e6])
def test_cqsm_step_divergence_guard_rejects_nonfinite_and_large(lq_ref, bad):
    cfg = AlgoConfig(dt=0.1, n_steps=1, sampler="direct_sde")
    env = lambda x, a: (0.9, lq_reward(lq_ref, x, a))
    for theta, v in ((np.full(6, bad), np.zeros(3)), (np.zeros(6), np.array([0.0, bad, 0.0]))):
        state = LearnState(theta, v, 1.0, 0.0, 0, 0.0)
        with np.errstate(invalid="ignore"), \
                pytest.raises(DivergenceError, match="parameters diverged at step 0"):
            cqsm_step(state, cfg, env, SequenceNoise([0.0]))
    # at the limit itself the step goes through
    state = LearnState(np.zeros(6), np.array([0.0, DIVERGENCE_LIMIT, 0.0]), 0.0, 0.0, 0, 0.0)
    cqsm_step(state, cfg, lambda x, a: (0.0, 0.0), SequenceNoise([0.0]))


def test_divergence_guard_finds_a_nan_after_finite_parameters(monkeypatch):
    # theta' is all zeros and v' = (0, NaN, 0): NaN is no maximum, so only a
    # check of every parameter finds it behind the six finite theta entries
    monkeypatch.setattr(online, "psi_features", lambda slope, x, a: (0.0, math.nan, 0.0))
    state = LearnState(np.zeros(6), np.zeros(3), 1.0, 0.0, 0, 0.0)
    with pytest.raises(DivergenceError) as info:
        cqsm_step(state, AlgoConfig(dt=0.1, n_steps=1, sampler="direct_sde"),
                  lambda x, a: (0.0, 0.0), SequenceNoise([0.0]))
    assert str(info.value) == "parameters diverged at step 0 (last delta 0)"


def test_run_cqsm_rejects_bad_shapes(lq_ref):
    cfg = AlgoConfig(n_steps=1)
    with pytest.raises(ValueError):
        run_cqsm(cfg, lq_ref, np.zeros(5), np.zeros(3))


def test_algo_config_validation():
    with pytest.raises(ValueError):
        AlgoConfig(dt=0.0)
    with pytest.raises(ValueError):
        AlgoConfig(sampler="metropolis")
    with pytest.raises(ValueError):
        AlgoConfig(record_every=0)
    AlgoConfig(alpha_theta=0.0, alpha_v=0.0)  # frozen runs allowed


def test_ddpm_schedule_is_built_once_from_the_config():
    cfg = AlgoConfig()
    assert np.array_equal(cfg.ddpm_schedule.betas, make_linear_schedule(20, 1e-3, 0.19).betas)
    assert cfg.ddpm_schedule is cfg.ddpm_schedule
    assert replace(cfg, ddpm_steps=5).ddpm_schedule.n_steps == 5


def test_record_running_average_consistency(lq_ref):
    cfg = AlgoConfig(dt=0.1, n_steps=300, seed=6, record_every=100)
    rec = run_cqsm(cfg, lq_ref, np.zeros(6), np.array([0.2, 0.2, 0.2]))
    assert rec.steps[-1] == 300
    assert len(rec.steps) == 4  # 0, 100, 200, 300
    assert rec.final_running_avg == pytest.approx(rec.running_avg[-1])


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _step_outcome(step, state, cfg, p, seed):
    """The state after one step from a fresh NoiseSource(seed), or the error raised."""
    noise = NoiseSource(seed)
    env = lambda x, a: env_step(p, x, a, cfg.dt, noise)
    try:
        with np.errstate(all="ignore"):
            return step(state, cfg, env, noise)
    except SimulationError as exc:
        return type(exc), str(exc)


_ENTRY = st.one_of(st.floats(-40.0, 40.0), st.floats(-1e4, 1e4),
                   st.sampled_from([math.nan, math.inf, -math.inf, 2e6, -2e6, 0.0]))


@given(sampler=st.sampled_from(SAMPLERS), seed=st.integers(0, 2 ** 32 - 1),
       theta=st.lists(_ENTRY, min_size=6, max_size=6),
       v=st.lists(_ENTRY, min_size=3, max_size=3),
       x=_ENTRY, a=_ENTRY, step=st.integers(0, 10 ** 6))
@settings(max_examples=300, deadline=None)
def test_cqsm_step_bitwise_equals_numpy_reference(lq_ref, sampler, seed, theta, v, x, a, step):
    cfg = AlgoConfig(dt=0.1, sampler=sampler, langevin_steps=20, ddpm_steps=10,
                     alpha_theta=0.05, alpha_v=0.05)
    state = LearnState(np.array(theta), np.array(v), x, a, step, 0.25)
    got = _step_outcome(cqsm_step, state, cfg, lq_ref, seed)
    if v[0] > EXP_LIMIT:
        assert got == (DivergenceError,
                       f"score slope -exp(v0) overflows at step {step} (v0 = {v[0]:.6g})")
        return
    want = _step_outcome(reference_cqsm_step, state, cfg, lq_ref, seed)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, LearnState)
    for field in ("theta", "v", "x", "a", "cumulative_reward"):
        assert _bits(getattr(got, field)) == _bits(getattr(want, field)), field
    assert got.step == want.step == step + 1
    assert got.theta.shape == (6,) and got.v.shape == (3,)


def _reference_states(cfg, p, theta0, v0):
    """The LearnState after each step of a loop over the numpy reference step."""
    noise = NoiseSource(cfg.seed)
    env = lambda x, a: env_step(p, x, a, cfg.dt, noise)
    a_start = (cfg.a0 if cfg.sampler == "direct_sde"
               else reference_sample_action(cfg, v0, cfg.x0, noise))
    state = LearnState(theta0, v0, cfg.x0, float(a_start), 0, 0.0)
    for _ in range(cfg.n_steps):
        state = reference_cqsm_step(state, cfg, env, noise)
        yield state


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_run_cqsm_bitwise_equals_reference_loop(lq_ref, sampler):
    cfg = AlgoConfig(dt=0.1, n_steps=300, seed=12, sampler=sampler, record_every=1,
                     langevin_steps=50, x0=0.3, a0=-0.2)
    theta0, v0 = np.zeros(6), np.array([0.4, 0.7, 0.1])
    rec = run_cqsm(cfg, lq_ref, theta0, v0)

    thetas, vs, cums = [theta0], [v0], [0.0]
    for state in _reference_states(cfg, lq_ref, theta0, v0):
        thetas.append(state.theta)
        vs.append(state.v)
        cums.append(state.cumulative_reward)
    assert _bits(rec.thetas) == _bits(thetas)
    assert _bits(rec.vs) == _bits(vs)
    assert _bits(rec.running_avg[1:]) == _bits(np.array(cums[1:]) / (rec.steps[1:] * cfg.dt))


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_run_cqsm_divergence_message_equals_reference_loop(lq_ref, sampler):
    # alpha 1 at seed 7 diverges a few steps in, where an off-by-one in the
    # loop's step counter would show in the message
    cfg = AlgoConfig(dt=0.1, n_steps=2000, alpha_theta=1.0, alpha_v=1.0, seed=7,
                     sampler=sampler, langevin_steps=50)
    theta0, v0 = np.zeros(6), np.array([0.5, 0.5, 0.5])
    with pytest.raises(DivergenceError) as got:
        run_cqsm(cfg, lq_ref, theta0, v0)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as want:
        for _ in _reference_states(cfg, lq_ref, theta0, v0):
            pass
    assert str(got.value) == f"run with seed 7: {want.value}"
    assert 2 <= int(re.search(r"at step (\d+) ", str(want.value))[1]) < cfg.n_steps


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_run_cqsm_records_equal_a_loop_over_the_public_step(lq_ref, sampler):
    cfg = AlgoConfig(dt=0.1, n_steps=300, seed=9, sampler=sampler, record_every=7,
                     langevin_steps=50, x0=0.3, a0=-0.2)
    theta0, v0 = np.zeros(6), np.array([0.4, 0.7, 0.1])
    rec = run_cqsm(cfg, lq_ref, theta0, v0)

    noise = NoiseSource(cfg.seed)
    env = lambda x, a: env_step(lq_ref, x, a, cfg.dt, noise)
    state = LearnState(theta0, v0, cfg.x0, float(initial_action(cfg, v0, cfg.x0, noise)), 0, 0.0)
    steps, thetas, vs = [0], [theta0], [v0]
    rates, avgs = [lq_reward(lq_ref, state.x, state.a)], [0.0]
    for _ in range(cfg.n_steps):
        prev_cum = state.cumulative_reward
        state = cqsm_step(state, cfg, env, noise)
        if state.step % cfg.record_every == 0 or state.step == cfg.n_steps:
            steps.append(state.step)
            thetas.append(state.theta)
            vs.append(state.v)
            rates.append((state.cumulative_reward - prev_cum) / cfg.dt)
            avgs.append(state.cumulative_reward / (state.step * cfg.dt))
    assert steps == list(range(0, 295, 7)) + [300]  # the last step is recorded too
    assert rec.steps.tolist() == steps
    assert _bits(rec.thetas) == _bits(thetas)
    assert _bits(rec.vs) == _bits(vs)
    assert _bits(rec.reward_rates) == _bits(rates)
    assert _bits(rec.running_avg) == _bits(avgs)


@pytest.mark.parametrize("theta0, v0, message", [
    (np.zeros(5), np.zeros(3), "theta0 must have 6 entries, got shape (5,)"),
    (np.zeros((6, 1)), np.zeros(3), "theta0 must have 6 entries, got shape (6, 1)"),
    (np.zeros(6), np.zeros(4), "v0 must have 3 entries, got shape (4,)"),
    (np.array([0, 0, math.nan, 0, 0, 0]), np.zeros(3),
     "theta0 must be finite, got [0.0, 0.0, nan, 0.0, 0.0, 0.0]"),
    (np.zeros(6), np.array([0.0, math.inf, 0.0]), "v0 must be finite, got [0.0, inf, 0.0]"),
], ids=["theta0-short", "theta0-2d", "v0-long", "theta0-nan", "v0-inf"])
@pytest.mark.parametrize("n_steps", [0, 5])
def test_run_cqsm_refuses_bad_initial_parameters_before_any_draw(
        lq_ref, monkeypatch, theta0, v0, message, n_steps):
    def no_draws(seed):
        raise AssertionError("a NoiseSource was made before the parameters were checked")

    monkeypatch.setattr(online, "NoiseSource", no_draws)
    with pytest.raises(ValueError, match=re.escape(message)):
        run_cqsm(AlgoConfig(n_steps=n_steps, sampler="langevin"), lq_ref, theta0, v0)


def test_score_slope_limit_is_the_largest_finite_exponent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(np.exp(EXP_LIMIT))
    with np.errstate(over="ignore"):
        assert np.exp(np.nextafter(EXP_LIMIT, math.inf)) == math.inf


# direct_sde's first action is a0, so its first step meets the slope; a
# langevin run meets it already in the first action's draw, before any step
@pytest.mark.parametrize("sampler, message", [
    ("direct_sde", "score slope -exp(v0) overflows at step 0 (v0 = 800)"),
    ("langevin", "score slope -exp(v0) overflows (v0 = 800)"),
], ids=["direct_sde", "langevin"])
def test_overflowing_score_slope_fails_its_seed_by_name(tmp_path, monkeypatch, lq_ref, sampler,
                                                        message):
    cfg = AlgoConfig(dt=0.1, n_steps=5, sampler=sampler, langevin_steps=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        with pytest.raises(DivergenceError) as info:
            run_cqsm(cfg, lq_ref, np.zeros(6), np.array([800.0, 0.0, 0.0]))
    assert str(info.value) == "run with seed 0: " + message

    # seed 0 starts from a sane score, so the run completes and names seed 1's fault
    real_run = experiment.run_cqsm
    monkeypatch.setattr(experiment, "run_cqsm", lambda algo, p, theta0, v0: real_run(
        algo, p, theta0, np.array([0.5, 0.5, 0.5]) if algo.seed == 0 else v0))
    config = parse_config(f"algo.sampler = {sampler}\nalgo.n_steps = 20\n"
                          "algo.langevin_steps = 50\nrun.n_seeds = 2\n"
                          "run.v0_mode = explicit\nrun.v0 = 800,0,0\n"
                          f"run.output_dir = {tmp_path}\n")
    summary = run_experiment(config)
    assert summary.failed_seeds == (1,)
    assert summary.failure_reasons == ("run with seed 1: " + message,)
