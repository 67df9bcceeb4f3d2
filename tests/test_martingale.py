import tracemalloc
import warnings

import numpy as np
import pytest

from cqsm import martingale, sde
from cqsm.learner import AlgoConfig
from cqsm.lq import LqParams, lq_dynamics, lq_reward_fn
from cqsm.lq_analytic import optimal_score, q_star
from cqsm.martingale import (ResidualReport, constant_test, estimate_discounted_return,
                             lagged_state_test, martingale_loss, orthogonality_residual,
                             orthogonality_statistics, q_gradient_test, trajectory_gaps)
from cqsm.sde import SimulationError, simulate_batch
from _oracles import evaluate_affine_score_q


def _diag_cfg(dt=0.01, horizon=50.0, seed=0):
    return AlgoConfig(dt=dt, n_steps=int(round(horizon / dt)), seed=seed)


def test_zero_everything_gives_exact_zero():
    # zero reward, zero score, zero value model: the integrand is identically
    # zero regardless of the visited states
    rng = np.random.default_rng(0)
    from cqsm.sde import Trajectory

    batch = Trajectory(dt=0.1,
                       states=rng.normal(size=(21, 30)),
                       actions=rng.normal(size=(21, 30)),
                       reward_rates=np.zeros((20, 30)))
    stats = orthogonality_statistics(batch, lambda x, a: 0.0 * x,
                                     lambda x, a: 0.0 * a, constant_test(),
                                     beta=1.0, lam=0.1)
    assert np.all(stats == 0.0)


def test_true_value_function_passes_z_test(k_ref, lq_ref):
    report = orthogonality_residual(
        lambda x, a: q_star(k_ref, x, a),
        lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a),
        constant_test(), lq_ref, _diag_cfg(seed=1), n_traj=500)
    assert abs(report.z_score) < 3


def test_constant_offset_is_detected(k_ref, lq_ref):
    report = orthogonality_residual(
        lambda x, a: q_star(k_ref, x, a) + 0.5,
        lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a),
        constant_test(), lq_ref, _diag_cfg(seed=1), n_traj=500)
    assert abs(report.z_score) > 3
    # the discounted increment of the constant integrates to about -0.5
    assert report.estimate == pytest.approx(-0.5, abs=0.1)


def test_suboptimal_score_with_its_true_value_function_passes(lq_ref):
    # evaluation direction: any fixed affine score paired with ITS value
    # function satisfies the orthogonality condition
    s_a, s_x, s_c = -1.0, 0.0, 0.0
    q = evaluate_affine_score_q(lq_ref, s_a, s_x, s_c)
    qfun = lambda x, a: (0.5 * q[0] * x * x + q[1] * x + 0.5 * q[2] * a * a
                         + q[3] * a + q[4] * x * a + q[5])
    score = lambda x, a: s_a * a + s_x * x + s_c
    report = orthogonality_residual(qfun, score, constant_test(), lq_ref,
                                    _diag_cfg(seed=4), n_traj=400)
    assert abs(report.z_score) < 3


def test_z_scores_are_calibrated_across_repetitions(k_ref, lq_ref):
    qfun = lambda x, a: q_star(k_ref, x, a)
    score = lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)
    inside = 0
    n_reps = 50
    for rep in range(n_reps):
        report = orthogonality_residual(
            qfun, score, constant_test(), lq_ref,
            _diag_cfg(dt=0.01, horizon=20.0, seed=1000 + rep), n_traj=150)
        inside += abs(report.z_score) < 2
    assert 0.90 <= inside / n_reps <= 0.99


def test_residual_shrinks_with_dt(k_ref, lq_ref):
    qfun = lambda x, a: q_star(k_ref, x, a)
    score = lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)
    estimates = []
    for dt in (0.2, 0.1, 0.05):
        report = orthogonality_residual(qfun, score, constant_test(), lq_ref,
                                        _diag_cfg(dt=dt, seed=77), n_traj=400)
        estimates.append(abs(report.estimate))
    assert estimates[0] > estimates[1] > estimates[2]


def test_gradient_and_lagged_test_processes(k_ref, lq_ref):
    batch = simulate_batch(
        lq_dynamics(lq_ref, lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)),
        lq_reward_fn(lq_ref), 0.0, 0.0, 0.1, 40, 6, seed=2)
    for i in range(6):
        xi = q_gradient_test(i)(batch.states, batch.actions, slice(0, 40))
        assert xi.shape == (40, 6)
    lagged = lagged_state_test(lag=3, power=2)(batch.states, batch.actions, slice(0, 40))
    assert np.all(lagged[:3] == 0)
    np.testing.assert_allclose(lagged[3:], batch.states[:-4] ** 2)
    with pytest.raises(ValueError):
        q_gradient_test(6)
    with pytest.raises(ValueError):
        lagged_state_test(lag=-1)


def test_statistics_with_gradient_test_process(k_ref, lq_ref):
    # the constant-gradient component reproduces the plain orthogonality sum
    batch = simulate_batch(
        lq_dynamics(lq_ref, lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)),
        lq_reward_fn(lq_ref), 0.0, 0.0, 0.05, 100, 8, seed=5)
    qfun = lambda x, a: q_star(k_ref, x, a)
    score = lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)
    s_const = orthogonality_statistics(batch, qfun, score, constant_test(),
                                       lq_ref.beta, lq_ref.lam)
    s_grad5 = orthogonality_statistics(batch, qfun, score, q_gradient_test(5),
                                       lq_ref.beta, lq_ref.lam)
    np.testing.assert_allclose(s_const, s_grad5, rtol=1e-12)


def test_martingale_loss_zero_case():
    from cqsm.sde import Trajectory

    rng = np.random.default_rng(1)
    batch = Trajectory(dt=0.1,
                       states=rng.normal(size=(11, 5)),
                       actions=rng.normal(size=(11, 5)),
                       reward_rates=np.zeros((10, 5)))
    gaps = trajectory_gaps(batch, lambda x, a: 0.0 * x, lambda x, a: 0.0 * a,
                           beta=1.0, lam=0.1)
    assert 0.5 * float(np.mean(gaps ** 2)) * batch.dt == 0.0


def test_martingale_loss_prefers_true_value_function(k_ref, lq_ref):
    cfg = _diag_cfg(dt=0.05, horizon=30.0, seed=6)
    score = lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)
    loss_true = martingale_loss(lambda x, a: q_star(k_ref, x, a), score,
                                lq_ref, cfg, n_traj=200)
    loss_off = martingale_loss(lambda x, a: q_star(k_ref, x, a) + 0.5, score,
                               lq_ref, cfg, n_traj=200)
    assert loss_true < loss_off
    assert loss_true >= 0.0


def test_loss_invariant_under_trajectory_relabeling(k_ref, lq_ref):
    batch = simulate_batch(
        lq_dynamics(lq_ref, lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)),
        lq_reward_fn(lq_ref), 0.0, 0.0, 0.05, 200, 16, seed=9)
    qfun = lambda x, a: q_star(k_ref, x, a)
    score = lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)
    gaps = trajectory_gaps(batch, qfun, score, lq_ref.beta, lq_ref.lam)
    perm = np.random.default_rng(0).permutation(batch.states.shape[1])
    assert np.mean(gaps ** 2) == pytest.approx(np.mean(gaps[:, perm] ** 2),
                                               rel=1e-14)


def test_residual_reports_the_classical_standard_error_bitwise(k_ref, lq_ref):
    n = 100
    report = orthogonality_residual(
        lambda x, a: q_star(k_ref, x, a),
        lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a),
        constant_test(), lq_ref, _diag_cfg(dt=0.05, horizon=10.0, seed=3),
        n_traj=n)
    batch = simulate_batch(
        lq_dynamics(lq_ref, lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)),
        lq_reward_fn(lq_ref), 0.0, 0.0, 0.05, 200, n, seed=3)
    stats = orthogonality_statistics(
        batch, lambda x, a: q_star(k_ref, x, a),
        lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a), constant_test(),
        lq_ref.beta, lq_ref.lam)
    assert report.estimate == float(stats.mean())
    assert report.std_error == float(stats.std(ddof=1) / np.sqrt(n))
    assert report.z_score == report.estimate / report.std_error


def test_orthogonality_requires_two_trajectories(k_ref, lq_ref):
    with pytest.raises(ValueError):
        orthogonality_residual(lambda x, a: q_star(k_ref, x, a),
                               lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a),
                               constant_test(), lq_ref, _diag_cfg(), n_traj=1)


def test_non_finite_return_is_an_estimator_fault_without_warnings():
    # Psi^2 = 1e400 overflows, so every trajectory's return is -inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationError) as error:
            estimate_discounted_return(LqParams(), lambda x, a: 1e200 + 0.0 * a,
                                       AlgoConfig(dt=1e-300, n_steps=3), 2)
    assert str(error.value) == "estimator fault: non-finite sum over trajectory 0"


def _first_row(values):
    """A row-block term whose column sums are ``values``: the grid's first row."""
    def term(rows, states, actions, rates):
        out = np.zeros_like(rates)
        if rows.start == 0:
            out[0] = values
        return out

    return term


@pytest.mark.parametrize("values, message", [
    ([1.0, 2.0, np.inf, np.nan], "non-finite sum over trajectory 2"),
    ([1e308, 1e308, 1e308, 1e308], "non-finite mean over 4 trajectories"),
    ([1e308, -1e308, 1e308, -1e308], "non-finite standard error over 4 trajectories"),
])
def test_estimator_names_its_first_non_finite_statistic_without_warnings(lq_ref, values,
                                                                         message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationError) as error:
            martingale._mean_and_se(_first_row(values), lq_ref, lambda x, a: -a,
                                    AlgoConfig(dt=0.1, n_steps=3), len(values))
    assert str(error.value) == "estimator fault: " + message


def test_report_fields():
    report = ResidualReport(1.0, 0.5, 10, 2.0)
    assert report.z_score == report.estimate / report.std_error


# Row blocks, under the small_blocks fixture (conftest.py): every grid below
# ends on a short block.
BLOCK_STEPS = 1003


class _BlockCounter:
    """Wraps a function of (x, a) and counts its calls on 2-d row blocks."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, x, a):
        self.calls += np.ndim(x) == 2
        return self.fn(x, a)


def _bits(values):
    values = np.asarray(values)
    return values.shape, values.tobytes()


def _assert_blocks_ran(counter, width):
    if width == 1:
        assert counter.calls == 1  # a single column is summed pairwise, never split
    else:
        assert counter.calls > 1


@pytest.mark.parametrize("width", [2, 3, 200])
@pytest.mark.parametrize("rows", [1, 163, 4096])
def test_numpy_sums_a_c_ordered_matrix_down_its_columns_row_after_row(rows, width):
    # martingale._column_sums and offline.score_gradient_residual rely on this
    # order: column j's sum is +0.0 + M[0, j] + M[1, j] + ..., left to right
    rng = np.random.default_rng((rows, width))
    m = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-320, 300, (rows, width))
    special = rng.random((rows, width)) < 0.05
    m[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310],
                            size=special.sum())
    m[:, 0] = -0.0  # an all -0.0 column sums to +0.0
    m[:, 1] = rng.normal(size=rows) * 1e-310  # subnormals only
    with np.errstate(over="ignore", invalid="ignore"):
        in_rows = np.add.accumulate(m.T.copy(), axis=1)[:, -1] + 0.0
        want = m.sum(axis=0)
    assert m.flags.c_contiguous
    assert _bits(want) == _bits(in_rows)
    assert not np.signbit(want[0])


@pytest.mark.parametrize("width", [1, 2, 200])
def test_blocked_reward_rates_equal_the_one_shot_reward_bitwise(small_blocks, k_ref, lq_ref,
                                                                width):
    score = lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)
    reward = _BlockCounter(lq_reward_fn(lq_ref))
    batch = simulate_batch(lq_dynamics(lq_ref, score), reward, 0.3, -0.2, 0.01, BLOCK_STEPS,
                           width, seed=13)
    want = lq_reward_fn(lq_ref)(batch.states[:-1], batch.actions[:-1])
    assert _bits(batch.reward_rates) == _bits(want)
    _assert_blocks_ran(reward, width)


def _lagged_xi(lag, power):
    """xi_k = x_{k-lag}^power, 0 for k < lag, one transition row at a time."""
    def xi(states, actions):
        zero = np.zeros_like(states[0])
        return np.array([states[k - lag] ** power if k >= lag else zero
                         for k in range(len(states) - 1)])

    return xi


# (test process, its xi over the whole path written out); the lags are 0, one
# under and one over a 5-row block, and past the end of the path (xi all zero)
XI_CASES = {
    "constant": (constant_test(0.5), lambda s, a: np.full((len(s) - 1,) + s.shape[1:], 0.5)),
    "lagged-0": (lagged_state_test(lag=0, power=3), _lagged_xi(0, 3)),
    "lagged-3": (lagged_state_test(lag=3, power=2), _lagged_xi(3, 2)),
    "lagged-7": (lagged_state_test(lag=7, power=2), _lagged_xi(7, 2)),
    "lagged-past-end": (lagged_state_test(lag=BLOCK_STEPS + 2), _lagged_xi(BLOCK_STEPS + 2, 2)),
    "q-gradient": (q_gradient_test(4), lambda s, a: s[:-1] * a[:-1]),
}
BLOCKS_AT_WIDTH = {1: 1, 2: 3, 200: 201}  # one column is one block, else ceil(1003 / rows)


@pytest.mark.parametrize("width", [1, 2, 200])
@pytest.mark.parametrize("case", list(XI_CASES))
def test_blocked_orthogonality_sums_equal_the_one_shot_formula_bitwise(small_blocks, k_ref,
                                                                       lq_ref, width, case):
    process, xi_formula = XI_CASES[case]
    plain_q = lambda x, a: q_star(k_ref, x, a)
    score = lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)
    batch = simulate_batch(lq_dynamics(lq_ref, score), lq_reward_fn(lq_ref), 0.3, -0.2, 0.01,
                           BLOCK_STEPS, width, seed=11)
    qfun = _BlockCounter(plain_q)
    seen = []

    def test_fn(states, actions, rows):
        seen.append(rows)
        return process(states, actions, rows)

    got = orthogonality_statistics(batch, qfun, score, test_fn, lq_ref.beta, lq_ref.lam)

    w = np.exp(-lq_ref.beta * (np.arange(BLOCK_STEPS + 1) * batch.dt))[:, None]
    q = plain_q(batch.states, batch.actions)
    psi = score(batch.states[:-1], batch.actions[:-1])
    inc = (w[1:] * q[1:] - w[:-1] * q[:-1]
           + w[:-1] * (batch.reward_rates - 0.5 * lq_ref.lam * psi ** 2) * batch.dt)
    want = (xi_formula(batch.states, batch.actions) * inc).sum(axis=0)
    assert _bits(got) == _bits(want)
    _assert_blocks_ran(qfun, width)
    # the test process ran once per block, on consecutive blocks covering the path
    assert len(seen) == BLOCKS_AT_WIDTH[width]
    assert [r.start for r in seen] == [0] + [r.stop for r in seen[:-1]]
    assert seen[-1].stop == BLOCK_STEPS


@pytest.mark.parametrize("width", [2, 200])
def test_blocked_discounted_return_equals_the_one_shot_formula_bitwise(small_blocks, k_ref,
                                                                       lq_ref, width):
    plain_score = lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)
    score = _BlockCounter(plain_score)
    cfg = AlgoConfig(dt=0.01, n_steps=BLOCK_STEPS, seed=12, x0=0.3, a0=-0.2)
    got = estimate_discounted_return(lq_ref, score, cfg, width)

    batch = simulate_batch(lq_dynamics(lq_ref, plain_score), lq_reward_fn(lq_ref), cfg.x0,
                           cfg.a0, cfg.dt, cfg.n_steps, width, cfg.seed)
    w = np.exp(-lq_ref.beta * (np.arange(BLOCK_STEPS) * batch.dt))[:, None]
    psi = plain_score(batch.states[:-1], batch.actions[:-1])
    returns = (w * (batch.reward_rates - 0.5 * lq_ref.lam * psi ** 2) * batch.dt).sum(axis=0)
    assert got == (float(returns.mean()), float(returns.std(ddof=1) / np.sqrt(width)))
    _assert_blocks_ran(score, width)


@pytest.fixture
def residual_sums(monkeypatch):
    """The per-trajectory sums behind each report, in call order (recorded
    where the estimators take their column sums, orthogonality_statistics
    included)."""
    sums = []
    column_sums = martingale._column_sums
    monkeypatch.setattr(martingale, "_column_sums",
                        lambda blocks, term: sums.append(column_sums(blocks, term)) or sums[-1])
    return sums


# orthogonality_residual refuses a single trajectory, so the streamed tests
# run at widths 2 and 200 (a single column is one block in any case)
@pytest.mark.parametrize("width", [2, 200])
@pytest.mark.parametrize("case", list(XI_CASES))
def test_streamed_residual_equals_the_statistics_of_the_batch_bitwise(
        small_blocks, residual_sums, k_ref, lq_ref, width, case):
    process = XI_CASES[case][0]
    qfun = lambda x, a: q_star(k_ref, x, a)
    score = lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)
    cfg = AlgoConfig(dt=0.01, n_steps=BLOCK_STEPS, seed=11, x0=0.3, a0=-0.2)
    report = orthogonality_residual(qfun, score, process, lq_ref, cfg, width)
    got = [_bits(sums) for sums in residual_sums]

    batch = simulate_batch(lq_dynamics(lq_ref, score), lq_reward_fn(lq_ref), cfg.x0, cfg.a0,
                           cfg.dt, cfg.n_steps, width, cfg.seed)
    want = orthogonality_statistics(batch, qfun, score, process, lq_ref.beta, lq_ref.lam)
    assert got == [_bits(want)]
    assert report.estimate == float(want.mean())


# the state doubles every step without noise (1 + A dt = 2, C = D = 0), so
# x_k = 2^k: x^2 overflows the reward at step 512, and the score below turns
# NaN at step 600, both past the first block of 500 (width 2) or 5 (width 200) rows
FAULTS = {
    "reward": (LqParams(A=100.0, C=0.0, D=0.0, beta=300.0), lambda x, a: -a,
               "step 512, trajectory 0: reward evaluated to a non-finite value at x=1.34"),
    "score": (LqParams(A=100.0, C=0.0, D=0.0, M=0.0, R=0.0, P=0.0, beta=300.0),
              lambda x, a: np.where(x >= 2.0 ** 600, np.nan, -a),
              "step 600, trajectory 0: score evaluated to a non-finite value at x=4.14"),
}


@pytest.mark.parametrize("width", [2, 200])
@pytest.mark.parametrize("fault", list(FAULTS))
def test_streamed_residual_raises_the_batch_fault_of_a_later_block(small_blocks, width, fault):
    p, score, head = FAULTS[fault]
    cfg = AlgoConfig(dt=0.01, n_steps=BLOCK_STEPS, seed=3, x0=1.0, a0=0.0)
    with pytest.raises(SimulationError) as batch_error:
        simulate_batch(lq_dynamics(p, score), lq_reward_fn(p), cfg.x0, cfg.a0, cfg.dt,
                       cfg.n_steps, width, cfg.seed)
    with pytest.raises(SimulationError) as stream_error:
        orthogonality_residual(lambda x, a: 0.0 * x, score, constant_test(), p, cfg, width)
    assert str(stream_error.value) == str(batch_error.value)
    assert str(batch_error.value).startswith(head)


@pytest.mark.parametrize("width", [2, 200])
def test_one_lagged_process_serves_consecutive_batches(small_blocks, residual_sums, k_ref,
                                                       lq_ref, width):
    # the process forgets one path's last rows when the next starts at row 0
    qfun = lambda x, a: q_star(k_ref, x, a)
    score = lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)
    cfgs = [AlgoConfig(dt=0.01, n_steps=BLOCK_STEPS, seed=11, x0=0.3, a0=-0.2),
            AlgoConfig(dt=0.01, n_steps=BLOCK_STEPS - 2, seed=12, x0=0.3, a0=-0.2)]
    shared = lagged_state_test(lag=7)
    for make in (lambda: shared, lambda: lagged_state_test(lag=7)):
        for cfg in cfgs:
            orthogonality_residual(qfun, score, make(), lq_ref, cfg, width)
    got, want = residual_sums[:2], residual_sums[2:]
    assert [_bits(sums) for sums in got] == [_bits(sums) for sums in want]


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _streamed_peaks(case, k_ref, lq_ref, n_traj, horizons):
    """Traced peaks of orthogonality_residual under a test process, or of
    estimate_discounted_return, at ``n_traj`` trajectories and each horizon."""
    processes = {"constant": constant_test, "lagged": lagged_state_test,
                 "q-gradient": lambda: q_gradient_test(4)}
    qfun = lambda x, a: q_star(k_ref, x, a)
    score = lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)

    def run(n_traj, n_steps):
        cfg = AlgoConfig(dt=0.01, n_steps=n_steps, seed=0)
        if case == "discounted-return":
            estimate_discounted_return(lq_ref, score, cfg, n_traj)
        else:
            orthogonality_residual(qfun, score, processes[case](), lq_ref, cfg, n_traj)

    run(2, 2)  # the first call imports the parts of numpy it uses
    return [_traced_peak(lambda: run(n_traj, n_steps)) for n_steps in horizons]


STREAMED_CASES = ["constant", "lagged", "q-gradient", "discounted-return"]


@pytest.mark.parametrize("case", STREAMED_CASES)
def test_streamed_estimates_peak_does_not_grow_with_the_horizon(k_ref, lq_ref, case):
    # orthogonality_residual and estimate_discounted_return read the rollout
    # one row block at a time, with the discount weights of the block's rows:
    # a horizon four times longer adds less than a block to the traced peak,
    # which stays far below the three float64 arrays of the grid
    n_traj, short, long = 200, 2000, 8000
    peaks = _streamed_peaks(case, k_ref, lq_ref, n_traj, (short, long))
    assert abs(peaks[1] - peaks[0]) < 8 * sde.BLOCK
    assert peaks[1] < 3 * 8 * n_traj * (long + 1) / 4


@pytest.mark.parametrize("case", STREAMED_CASES)
def test_narrow_streamed_estimates_peak_does_not_grow_with_the_horizon(small_blocks, k_ref,
                                                                       lq_ref, case):
    # two trajectories in blocks of 500 rows: a grid-long column of 16 bytes
    # per step would add 96 KB to the peak between the two horizons
    peaks = _streamed_peaks(case, k_ref, lq_ref, 2, (2000, 8000))
    assert abs(peaks[1] - peaks[0]) < 8 * sde.BLOCK


def test_wide_streamed_residual_peak_is_within_check_martingales_memory_rule(k_ref, lq_ref):
    # wider than a row block, each block is one row; the traced peak of the
    # check that check-martingale runs stays within what its memory rule
    # counts: 20 float64 values per trajectory
    qfun = lambda x, a: q_star(k_ref, x, a)
    score = lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)
    run = lambda n_traj, cfg: orthogonality_residual(qfun, score, constant_test(), lq_ref, cfg,
                                                     n_traj)
    run(2, AlgoConfig(dt=0.01, n_steps=2, seed=0))  # the first call imports what it uses
    n_traj, cfg = 10 ** 5, AlgoConfig(dt=0.01, n_steps=4, seed=0)
    assert n_traj > sde.BLOCK
    assert _traced_peak(lambda: run(n_traj, cfg)) <= 20 * 8 * n_traj
