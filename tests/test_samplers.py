import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqsm.learner import EXP_LIMIT
from cqsm.lq_analytic import optimal_score
from cqsm.policy import score_fn
from cqsm.samplers import (NoiseSchedule, ddpm_law, ddpm_sample, langevin_law,
                           langevin_sample, make_linear_schedule)
from cqsm.sde import BLOCK, TAPE, NoiseSource, SimulationError
from _oracles import (SequenceNoise, ddpm_affine_law, langevin_affine_law, reference_ddpm_sample,
                      reference_langevin_batch, reference_langevin_sample)

SLOPE_LIMIT = -math.exp(EXP_LIMIT)  # the steepest slope learner.score_at lets through


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


def test_noise_schedule_derives_alphas_and_their_products():
    sched = NoiseSchedule([0.1, 0.2])
    np.testing.assert_array_equal(sched.betas, [0.1, 0.2])
    np.testing.assert_array_equal(sched.alphas, 1.0 - np.array([0.1, 0.2]))
    np.testing.assert_array_equal(sched.alpha_bars, np.cumprod(1.0 - np.array([0.1, 0.2])))
    with pytest.raises(TypeError):
        NoiseSchedule([0.1, 0.2], [0.9, 0.8], [0.9, 0.72])


@pytest.mark.parametrize("betas, message", [
    ([], "betas must be a non-empty 1-d array"),
    ([[0.1, 0.2]], "betas must be a non-empty 1-d array"),
    ([0.1, 0.0], "betas must lie strictly inside (0, 1)"),
    ([0.1, 1.0], "betas must lie strictly inside (0, 1)"),
    ([0.99] * 200, "alpha_bars must be strictly decreasing"),
])
def test_noise_schedule_rejects_bad_betas(betas, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        NoiseSchedule(betas)


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


def test_ddpm_law_matches_the_oracle_at_the_reference_schedule(k_ref, lq_ref):
    sched = make_linear_schedule(20, 1e-3, 0.19)
    c1, c0 = k_ref.k2 / lq_ref.lam, k_ref.k3 / lq_ref.lam
    mean, var = ddpm_law(sched, c1, c0)
    np.testing.assert_allclose([mean, var], ddpm_affine_law(sched, c1, c0), rtol=1e-12)
    assert (round(mean, 5), round(var, 7)) == (-0.78555, 0.0153781)


@given(steps=st.integers(1, 60), start=st.floats(1e-5, 0.3), spread=st.floats(0.0, 0.5),
       c1=st.floats(-20.0, 0.0), c0=st.floats(-5.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_ddpm_law_matches_the_oracle_on_random_schedules(steps, start, spread, c1, c0):
    sched = make_linear_schedule(steps, start, min(start + spread, 0.99))
    np.testing.assert_allclose(ddpm_law(sched, c1, c0), ddpm_affine_law(sched, c1, c0),
                               rtol=1e-12, atol=0.0)


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
    score, noise = lambda x, a: -a, NoiseSource(3)
    a, samples = langevin_sample(score, 0.0, 0.0, 0.01, 2000, noise), np.empty(100_000)
    for i in range(len(samples)):
        a = samples[i] = langevin_sample(score, 0.0, a, 0.01, 10, noise)
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
    a = langevin_sample(score, 0.0, np.zeros(n_chains), dt, int(4.0 / dt), noise)
    kept = np.empty((n_keep, n_chains))
    for i in range(n_keep):
        a = langevin_sample(score, 0.0, a, dt, thin, noise)
        kept[i] = a
    chain_means = kept.mean(axis=0)
    se_mean = chain_means.std(ddof=1) / math.sqrt(n_chains)
    assert abs(kept.mean() - target_mean) < 3 * se_mean
    # pooled second moment, chain-averaged (per-chain sample variances are
    # biased low under within-chain autocorrelation)
    chain_m2 = ((kept - kept.mean()) ** 2).mean(axis=0)
    se_var = chain_m2.std(ddof=1) / math.sqrt(n_chains)
    assert abs(chain_m2.mean() - target_var) < 3 * se_var


# the reference optimal score at x = 0.3 and step 0.01; a slow chain; a chain
# whose gain 1 + c1 dt is negative
@pytest.mark.parametrize("dt, a0, c1, c0", [
    (0.01, 0.5, None, None), (0.001, -2.0, -0.4, 1.3), (0.05, 3.0, -38.0, -2.5)],
    ids=["reference", "slow", "negative-gain"])
@pytest.mark.parametrize("n_steps", [1, 50, 2000, math.inf])
def test_langevin_law_matches_the_moment_recursion(k_ref, lq_ref, dt, a0, c1, c0, n_steps):
    if c1 is None:
        c1, c0 = k_ref.k2 / lq_ref.lam, (k_ref.k3 + k_ref.k4 * 0.3) / lq_ref.lam
    want = langevin_affine_law(dt, None if n_steps == math.inf else n_steps, a0, c1, c0)
    np.testing.assert_allclose(langevin_law(dt, n_steps, a0, c1, c0), want, rtol=1e-12, atol=0.0)


def test_langevin_law_is_the_law_of_parallel_chains(k_ref, lq_ref):
    # 20000 chains of 50 steps at x = 0.3 through the array path, within 4 SE
    c1, c0 = k_ref.k2 / lq_ref.lam, (k_ref.k3 + k_ref.k4 * 0.3) / lq_ref.lam
    a = langevin_sample(score_fn(c1, k_ref.k4 / lq_ref.lam, k_ref.k3 / lq_ref.lam), 0.3,
                        np.full(20_000, 0.5), 0.01, 50, NoiseSource(8))
    mean, var = langevin_law(0.01, 50, 0.5, c1, c0)
    assert abs(a.mean() - mean) < 4 * math.sqrt(var / a.size)
    assert abs(a.var(ddof=1) - var) < 4 * var * math.sqrt(2 / (a.size - 1))


@pytest.mark.parametrize("dt, n_steps, c1", [(0.01, 10, 0.0), (0.01, 10, 5.0), (0.1, 10, -20.0),
                                             (0.01, 0, -1.0), (0.01, 10, math.nan)])
def test_langevin_law_refuses_unstable_chains_and_no_steps(dt, n_steps, c1):
    with pytest.raises(ValueError):
        langevin_law(dt, n_steps, 0.0, c1, 1.0)


def test_langevin_validates_arguments():
    with pytest.raises(ValueError):
        langevin_sample(lambda x, a: -a, 0.0, 0.0, 0.0, 10, NoiseSource(0))
    with pytest.raises(ValueError):
        langevin_sample(lambda x, a: -a, 0.0, 0.0, 0.01, 0, NoiseSource(0))


def _outcome(fn, *args):
    """The result of fn(*args) as its bytes, or the class and message it raised."""
    try:
        return np.float64(fn(*args)).tobytes()
    except (SimulationError, ValueError) as exc:
        return type(exc), str(exc)


def _scores(kind, slope, v1, v2):
    if kind == "score_fn":
        return score_fn(slope, v1, v2)
    if kind == "lambda":
        return lambda x, a: slope * a + v1 * x + v2

    def strict(x, a):  # a generic score that rejects a non-finite action
        if not math.isfinite(a):
            raise ValueError("score evaluated at a non-finite action")
        return slope * a + v1 * x + v2
    return strict


@given(kind=st.sampled_from(["score_fn", "lambda", "strict"]),
       slope=st.one_of(st.floats(-50.0, -1e-3), st.floats(SLOPE_LIMIT, 0.999 * SLOPE_LIMIT),
                       st.floats(allow_nan=True, allow_infinity=True)),
       v1=st.one_of(st.floats(-5.0, 5.0), st.floats(-1e300, 1e300)),
       v2=st.floats(-1e6, 1e6),
       x=st.one_of(st.floats(-3.0, 3.0), st.floats(-1e300, 1e300),
                   st.sampled_from([math.nan, math.inf, -math.inf])),
       a0=st.one_of(st.floats(-3.0, 3.0), st.floats(allow_nan=True, allow_infinity=True)),
       dt=st.one_of(st.sampled_from([1e-4, 0.01, 0.1]), st.floats(-1.0, 2.0)),
       n_steps=st.sampled_from([0, 1, 50, 2000]),
       used=st.integers(0, TAPE + 5), seed=st.integers(0, 2 ** 32))
@example(kind="score_fn", slope=SLOPE_LIMIT, v1=-1.5, v2=-3.6, x=0.3, a0=0.5, dt=0.01,
         n_steps=50, used=0, seed=0)
@example(kind="score_fn", slope=-4.6, v1=1e300, v2=0.0, x=1e300, a0=0.0, dt=0.01,
         n_steps=2000, used=TAPE - 3, seed=1)
@example(kind="score_fn", slope=-100.0, v1=0.0, v2=0.0, x=0.0, a0=1e300, dt=0.1,
         n_steps=50, used=0, seed=3)
@example(kind="score_fn", slope=60.0, v1=0.0, v2=0.0, x=0.0, a0=1.0, dt=0.01,
         n_steps=2000, used=5, seed=5)  # a fault in the second stretch of TAPE steps
@example(kind="lambda", slope=60.0, v1=0.0, v2=0.0, x=0.0, a0=1.0, dt=0.01,
         n_steps=2000, used=5, seed=5)
@example(kind="strict", slope=-1e305, v1=0.0, v2=0.0, x=0.0, a0=1.0, dt=0.1,
         n_steps=50, used=7, seed=2)
@example(kind="strict", slope=-1.0, v1=0.0, v2=0.0, x=0.0, a0=math.inf, dt=1e-4,
         n_steps=1, used=0, seed=0)  # the score itself raises, at step 0
@settings(max_examples=300, deadline=None)
def test_langevin_sample_bitwise_equals_per_step_reference(kind, slope, v1, v2, x, a0, dt,
                                                           n_steps, used, seed):
    score = _scores(kind, slope, v1, v2)
    got_noise, want_noise = NoiseSource(seed), NoiseSource(seed)
    for noise in (got_noise, want_noise):
        noise.normal(used)  # start from a partly drained tape (or a fresh one)
    got = _outcome(langevin_sample, score, x, a0, dt, n_steps, got_noise)
    want = _outcome(reference_langevin_sample, score, x, a0, dt, n_steps, want_noise)
    assert got == want
    if isinstance(want, bytes) or dt <= 0 or n_steps < 1:
        assert got_noise.normal() == want_noise.normal()
        assert np.array_equal(got_noise.normal(TAPE + 2), want_noise.normal(TAPE + 2))
    else:
        # after a fault at step k the kernel has used the draws through the end of
        # k's stretch of TAPE steps; the reference stopped at the fault.  A score
        # that raises does so at step 0: it sees a non-finite action only as a0,
        # because the chain stops at its first non-finite iterate
        k = int(want[1].rsplit(" ", 1)[1]) if want[0] is SimulationError else 0
        drawn = min(n_steps, (k // TAPE + 1) * TAPE)
        stream = np.random.default_rng(seed).standard_normal(used + drawn + 1)
        assert got_noise.normal() == stream[-1]


@pytest.mark.parametrize("n_steps", [1, 50, 2000])
def test_langevin_affine_path_runs_on_the_coefficients(n_steps):
    score = score_fn(-4.6, -1.5, -3.6)
    assert score.coefficients == (-4.6, -1.5, -3.6)

    def uncallable(x, a):
        raise AssertionError("the affine path must not call the score")
    uncallable.coefficients = score.coefficients
    for seed in range(3):
        got = langevin_sample(uncallable, 0.7, 0.0, 0.01, n_steps, NoiseSource(seed))
        want = reference_langevin_sample(score, 0.7, 0.0, 0.01, n_steps, NoiseSource(seed))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class _CountingNoise(NoiseSource):
    """A NoiseSource that records the size of every normals(k) request and
    the shape of every block draw normal(size)."""

    def __init__(self, seed):
        super().__init__(seed)
        self.requests, self.shapes = [], []

    def normals(self, k):
        self.requests.append(k)
        return super().normals(k)

    def normal(self, size=None):
        if size is not None:
            self.shapes.append(size)
        return super().normal(size)


@pytest.mark.parametrize("kind", ["score_fn", "lambda"])
def test_langevin_long_chain_draws_one_stretch_at_a_time(kind):
    score = _scores(kind, -4.6, -1.5, -3.6)
    n_steps = 2 * TAPE + 7
    noise = _CountingNoise(4)
    got = langevin_sample(score, 0.2, 0.0, 0.01, n_steps, noise)
    assert noise.requests == [TAPE, TAPE, 7]
    want = reference_langevin_sample(score, 0.2, 0.0, 0.01, n_steps, NoiseSource(4))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("kind", ["score_fn", "lambda"])
@pytest.mark.parametrize("slope, a0, dt, n_steps", [
    (-4.6, np.zeros(7), 0.01, 50),
    (-4.6, np.linspace(-2.0, 2.0, 6).reshape(2, 3), 0.1, 1),
    (-1.0, np.array([0.3, np.nan, 1.0]), 0.01, 3),  # fault in one chain, named at step 0
    (60.0, np.ones(4), 0.1, 2000),  # every chain overflows, in the first stretch
    (-4.6, np.zeros(3), 0.0, 5),
    (-4.6, np.zeros(3), 0.01, 0),
    (60.0, np.ones(10 ** 4), 0.1, 2000),  # stretches of 3 steps: the fault is in a later one
])
def test_langevin_sample_array_a0_bitwise_equals_lockstep_reference(kind, slope, a0, dt,
                                                                    n_steps):
    score = _scores(kind, slope, -1.5, -3.6)
    got_noise, want_noise = NoiseSource(8), NoiseSource(8)
    # only the reference runs under errstate: the suite turns a RuntimeWarning
    # from the kernel into a failure (pyproject.toml's filterwarnings)
    try:
        got = langevin_sample(score, 0.4, a0, dt, n_steps, got_noise).tobytes()
    except (SimulationError, ValueError) as exc:
        got = type(exc), str(exc)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_langevin_batch(score, 0.4, a0, dt, n_steps, want_noise).tobytes()
    except (SimulationError, ValueError) as exc:
        want = type(exc), str(exc)
    assert got == want
    if want[0] is not SimulationError:
        assert got_noise.normal() == want_noise.normal()
    else:
        # after a fault at step k the kernel has used the draws through the end
        # of k's stretch of BLOCK // a0.size steps; the reference stopped at the fault
        k = int(want[1].rsplit(" ", 1)[1])
        stretch = min(TAPE, BLOCK // a0.size)
        drawn = min(n_steps, (k // stretch + 1) * stretch) * a0.size
        assert got_noise.normal() == np.random.default_rng(8).standard_normal(drawn + 1)[-1]


def test_float_coefficient_stretches_enter_no_errstate(monkeypatch):
    # Python floats overflow to inf silently: the online learner's chains pay
    # for no guard, and only the replay of a Langevin stretch that ended
    # non-finite enters one
    entered, errstate = [], np.errstate

    def counting(**kwargs):
        entered.append(kwargs)
        return errstate(**kwargs)

    # built first: the first NoiseSource imports numpy.random, which enters an errstate
    noises = [NoiseSource(8) for _ in range(4)]
    schedule = make_linear_schedule(20, 1e-3, 0.19)
    monkeypatch.setattr(np, "errstate", counting)
    a = langevin_sample(score_fn(-4.6, -1.5, -3.6), 0.4, 1.0, 0.01, 2000, noises[0])
    b = ddpm_sample(score_fn(-4.6, -1.5, -3.6), 0.4, schedule, noises[1])
    assert math.isfinite(a) and math.isfinite(b) and entered == []
    with pytest.raises(SimulationError, match="non-finite action at reverse step"):
        ddpm_sample(score_fn(1e300, -1.5, -3.6), 0.4, schedule, noises[2])
    assert entered == []
    with pytest.raises(SimulationError, match="non-finite action at step"):
        langevin_sample(score_fn(60.0, -1.5, -3.6), 0.4, 1.0, 0.1, 2000, noises[3])
    assert entered == [{"over": "ignore", "invalid": "ignore"}]


@pytest.mark.parametrize("sample, step", [
    (lambda: langevin_sample(lambda x, a: np.float64(60.0) * a, 0.4, 1.0, 0.1, 2000,
                             NoiseSource(8)), "step"),
    (lambda: ddpm_sample(lambda x, a: np.float64(1e300) * a, 0.4,
                         make_linear_schedule(20, 1e-4, 0.02), NoiseSource(8)), "reverse step"),
], ids=["langevin", "ddpm"])
def test_float_chain_of_a_numpy_scalar_score_ends_in_a_sampler_fault(sample, step):
    # numpy scalars warn on overflow where Python floats do not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationError, match=f"non-finite action at {step} \\d+$"):
            sample()


@pytest.mark.parametrize("kind", ["score_fn", "lambda"])
@pytest.mark.parametrize("width, n_steps, shapes", [
    (7, 2 * TAPE + 3, [(TAPE, 7), (TAPE, 7), (3, 7)]),
    (1000, 67, [(32, 1000), (32, 1000), (3, 1000)]),  # BLOCK // 1000 = 32 steps
    (20000, 3, [(1, 20000)] * 3),  # wider than BLOCK: one step per draw
])
def test_langevin_array_chains_draw_one_stretch_at_a_time(kind, width, n_steps, shapes):
    score = _scores(kind, -4.6, -1.5, -3.6)
    a0 = np.linspace(-1.0, 1.0, width)
    noise = _CountingNoise(9)
    got = langevin_sample(score, 0.4, a0, 0.01, n_steps, noise)
    assert noise.shapes == shapes
    assert max(math.prod(shape) for shape in noise.shapes) <= max(width, BLOCK)
    want = reference_langevin_batch(score, 0.4, a0, 0.01, n_steps, NoiseSource(9))
    assert got.tobytes() == want.tobytes()
    assert noise.normal() == NoiseSource(9).normal(width * n_steps + 1)[-1]
