import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqsm import (
    NoiseSchedule,
    NoiseSource,
    ddpm_sample,
    langevin_batch,
    langevin_chain,
    langevin_sample,
    make_linear_schedule,
    optimal_score,
)
from cqsm.sde import SimulationError
from _oracles import SequenceNoise, ddpm_affine_law, reference_ddpm_sample


def test_single_step_schedule():
    sched = make_linear_schedule(1, 0.07, 0.2)
    np.testing.assert_array_equal(sched.betas, [0.07])


def test_two_step_constant_schedule_products():
    sched = make_linear_schedule(2, 0.1, 0.1)
    np.testing.assert_allclose(sched.alpha_bars, [0.9, 0.81], rtol=1e-15)


@given(start=st.floats(1e-6, 0.5), spread=st.floats(0.0, 0.4),
       n=st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_alpha_bars_strictly_decreasing(start, spread, n):
    sched = make_linear_schedule(n, start, min(start + spread, 0.99))
    assert np.all(np.diff(sched.alpha_bars) < 0)


def test_schedule_bounds_validation():
    with pytest.raises(ValueError):
        make_linear_schedule(3, 0.0, 0.1)
    with pytest.raises(ValueError):
        make_linear_schedule(3, 0.2, 0.1)
    with pytest.raises(ValueError):
        make_linear_schedule(0, 0.1, 0.2)


def test_noise_schedule_consistency_enforced():
    betas = np.array([0.1, 0.2])
    with pytest.raises(ValueError):
        NoiseSchedule(betas, 1.0 - betas, np.array([0.9, 0.9]))


def test_ddpm_one_step_hand_value():
    sched = make_linear_schedule(1, 0.19, 0.19)
    c = 1.3
    out = ddpm_sample(lambda x, a: c, 0.0, sched, SequenceNoise([0.0, 0.0]))
    assert out == pytest.approx(math.sqrt(0.19) / 0.9 * c, rel=1e-12)


def test_ddpm_degenerate_schedule_is_identity():
    sched = make_linear_schedule(1, 1e-9, 1e-9)
    start = 0.8
    out = ddpm_sample(lambda x, a: 0.0, 0.0, sched, SequenceNoise([start, 0.0]))
    assert out == pytest.approx(start, abs=1e-6)


def test_ddpm_matches_affine_gaussian_oracle(k_ref, lq_ref):
    sched = make_linear_schedule(20, 1e-3, 0.19)
    c1 = k_ref.k2 / lq_ref.lam
    c0 = k_ref.k3 / lq_ref.lam
    mean_ref, var_ref = ddpm_affine_law(sched, c1, c0)
    noise = NoiseSource(77)
    score = lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)
    n = 10_000
    samples = np.array([ddpm_sample(score, 0.0, sched, noise) for _ in range(n)])
    se_mean = math.sqrt(var_ref / n)
    se_var = var_ref * math.sqrt(2.0 / (n - 1))
    assert abs(samples.mean() - mean_ref) < 3 * se_mean
    assert abs(samples.var(ddof=1) - var_ref) < 3 * se_var


def test_ddpm_deterministic_given_seed(k_ref, lq_ref):
    sched = make_linear_schedule(20, 1e-3, 0.19)
    score = lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)
    a1 = ddpm_sample(score, 0.3, sched, NoiseSource(5))
    a2 = ddpm_sample(score, 0.3, sched, NoiseSource(5))
    assert a1 == a2


@pytest.mark.parametrize("steps, beta_start, beta_end", [
    (20, 1e-3, 0.19), (1, 0.07, 0.07), (7, 0.01, 0.5), (50, 1e-4, 0.02)])
@pytest.mark.parametrize("seed", [0, 3, 41])
def test_ddpm_sample_bitwise_equals_numpy_scalar_chain(k_ref, lq_ref, steps, beta_start,
                                                       beta_end, seed):
    sched = make_linear_schedule(steps, beta_start, beta_end)
    scores = (lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a),
              lambda x, a: math.sin(3.0 * a) - x)
    for score in scores:
        got_noise, want_noise = NoiseSource(seed), NoiseSource(seed)
        for x in np.linspace(-2.0, 2.0, 25).tolist():
            got = ddpm_sample(score, x, sched, got_noise)
            want = reference_ddpm_sample(score, x, sched, want_noise)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_ddpm_fault_names_the_reverse_step():
    sched = make_linear_schedule(5, 0.01, 0.2)
    blow_up = lambda x, a: math.inf if a > 1e3 else 1e300 * (1.0 + abs(a))
    with pytest.raises(SimulationError, match="non-finite action at reverse step 4"):
        ddpm_sample(lambda x, a: math.nan, 0.0, sched, NoiseSource(0))
    with pytest.raises(SimulationError, match="non-finite action at reverse step 3"):
        ddpm_sample(blow_up, 0.0, sched, SequenceNoise([0.0]))


def test_langevin_ou_moments():
    # score -a has stationary law N(0, 1) under action noise sqrt(2)
    samples = langevin_chain(lambda x, a: -a, 0.0, 0.0, 0.01, 2000, 100_000,
                             10, NoiseSource(3))
    assert abs(samples.mean()) < 0.02
    assert abs(samples.var(ddof=1) - 1.0) < 0.05


def test_langevin_zero_noise_converges_to_value_maximizer(k_ref, lq_ref):
    x = 0.7
    score = lambda xx, aa: optimal_score(k_ref, lq_ref.lam, xx, aa)
    out = langevin_sample(score, x, 0.0, 0.01, 2000, SequenceNoise([]))
    assert out == pytest.approx(-(k_ref.k3 + k_ref.k4 * x) / k_ref.k2, abs=1e-9)


def test_langevin_deterministic_given_seed(k_ref, lq_ref):
    score = lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)
    a1 = langevin_sample(score, 0.0, 0.0, 0.01, 500, NoiseSource(9))
    a2 = langevin_sample(score, 0.0, 0.0, 0.01, 500, NoiseSource(9))
    assert a1 == a2


def test_langevin_boltzmann_moments_parallel_chains(k_ref, lq_ref):
    # stationary law of the optimal score at x = 0 is the Boltzmann Gaussian
    target_mean = -k_ref.k3 / k_ref.k2
    target_var = -lq_ref.lam / k_ref.k2
    score = lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)
    n_chains, n_keep, dt = 400, 50, 5e-4
    thin = int(round(0.1 / dt))
    noise = NoiseSource(31)
    a = langevin_batch(score, 0.0, np.zeros(n_chains), dt, int(4.0 / dt), noise)
    kept = np.empty((n_keep, n_chains))
    for i in range(n_keep):
        a = langevin_batch(score, 0.0, a, dt, thin, noise)
        kept[i] = a
    chain_means = kept.mean(axis=0)
    se_mean = chain_means.std(ddof=1) / math.sqrt(n_chains)
    assert abs(kept.mean() - target_mean) < 3 * se_mean
    # pooled second moment, chain-averaged (per-chain sample variances are
    # biased low under within-chain autocorrelation)
    chain_m2 = ((kept - kept.mean()) ** 2).mean(axis=0)
    se_var = chain_m2.std(ddof=1) / math.sqrt(n_chains)
    assert abs(chain_m2.mean() - target_var) < 3 * se_var


def test_langevin_validates_arguments():
    with pytest.raises(ValueError):
        langevin_sample(lambda x, a: -a, 0.0, 0.0, 0.0, 10, NoiseSource(0))
    with pytest.raises(ValueError):
        langevin_sample(lambda x, a: -a, 0.0, 0.0, 0.01, 0, NoiseSource(0))
    with pytest.raises(ValueError):
        langevin_chain(lambda x, a: -a, 0.0, 0.0, 0.01, -1, 10, 1, NoiseSource(0))
