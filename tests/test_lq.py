import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqsm.lq import LqParams, env_step, lq_dynamics, lq_reward, lq_reward_fn
from cqsm.lq_analytic import optimal_score
from cqsm.sde import NoiseSource, simulate


def test_lq_params_defaults_are_the_reference_instance(lq_ref):
    assert LqParams() == lq_ref


def test_reward_vanishes_at_origin(lq_ref):
    assert lq_reward(lq_ref, 0.0, 0.0) == 0.0


def test_reward_hand_values(lq_ref):
    assert lq_reward(lq_ref, 1.0, 1.0) == -(1 + 1 + 1 + 1 + 2)
    assert lq_reward(lq_ref, 2.0, 0.0) == -(4 + 2)


def test_env_step_drift_only(lq_ref):
    # sigma_x = C x + D a = 0 at a = 0, so the step is noise-independent
    x2, r = env_step(lq_ref, 1.0, 0.0, 0.1, NoiseSource(0))
    assert x2 == pytest.approx(0.9, abs=1e-15)
    assert r == -2.0


def test_env_step_deterministic_when_diffusion_off():
    p = LqParams(A=-1.0, B=0.0, C=0.0, D=0.0, M=2.0, N=2.0, R=1.0, P=1.0,
                 Pp=2.0, beta=1.0, lam=0.1)
    results = {env_step(p, 0.7, -0.4, 0.1, NoiseSource(seed))[0] for seed in range(5)}
    assert len(results) == 1


def test_env_step_origin_is_fixed_point(lq_ref):
    x2, r = env_step(lq_ref, 0.0, 0.0, 0.5, NoiseSource(1))
    assert x2 == 0.0 and r == 0.0


def test_env_step_rejects_nonpositive_dt(lq_ref):
    with pytest.raises(ValueError):
        env_step(lq_ref, 0.0, 0.0, -0.1, NoiseSource(0))


@given(x=st.floats(-5, 5), a=st.floats(-5, 5), seed=st.integers(0, 2 ** 20))
@settings(max_examples=60, deadline=None)
def test_env_step_reward_equals_lq_reward(x, a, seed):
    p = LqParams(A=-1.0, B=0.2, C=0.1, D=1.0, M=2.0, N=2.0, R=1.0, P=1.0,
                 Pp=2.0, beta=1.0, lam=0.1)
    _, r = env_step(p, x, a, 0.1, NoiseSource(seed))
    assert r == lq_reward(p, x, a)


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(N=0.0), "N"),
    (dict(M=-1.0), "M"),
    (dict(beta=0.0), "beta"),
    (dict(lam=0.0), "lam"),
    (dict(beta=0.5, A=0.3), "discount"),
])
def test_params_validation(kwargs, fragment):
    base = dict(A=-1.0, B=0.0, C=0.0, D=1.0, M=2.0, N=2.0, R=1.0, P=1.0,
                Pp=2.0, beta=1.0, lam=0.1)
    base.update(kwargs)
    with pytest.raises(ValueError, match=fragment):
        LqParams(**base)


def test_optimal_policy_state_second_moment_is_stationary(lq_ref, k_ref):
    dyn = lq_dynamics(lq_ref, lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a))
    traj = simulate(dyn, lq_reward_fn(lq_ref), 0.0, 0.0, 0.1, 20_000, seed=21)
    second_moment = float(np.mean(traj.states[10_000:] ** 2))
    assert np.isfinite(second_moment)
    assert second_moment < 5.0

