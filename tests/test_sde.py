import copy
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqsm.sde as sde
from cqsm.lq import lq_dynamics, lq_reward_fn
from cqsm.lq_analytic import SolveError, optimal_score, solve_lq
from cqsm.policy import grad_a_q, score_fn
from cqsm.sde import (SQRT2, TAPE, DynamicsSpec, NoiseSource, SimulationError, Trajectory,
                      row_blocks, simulate, simulate_batch, simulate_blocks, simulate_from)

from _oracles import SequenceNoise, random_admissible_params, reference_simulate

# no state dynamics and a zero score: only the action noise moves anything
ZERO_DYN = DynamicsSpec(0.0, 0.0, 0.0, 0.0, lambda x, a: 0.0 * a)


class _ZeroNoise:
    """A NoiseSource stand-in whose every variate is 0.0."""

    def __init__(self, seed=-1):
        pass

    def normal(self, size=None):
        return 0.0 if size is None else np.zeros(size)

    def normals(self, k):
        return [0.0] * k


@pytest.fixture
def no_noise(monkeypatch):
    """simulate and simulate_batch with every variate 0.0, so the action noise,
    fixed at SQRT2 by the joint SDE, drops out and a rollout is forward Euler."""
    monkeypatch.setattr(sde, "NoiseSource", _ZeroNoise)


def one_step(dyn, x, a, dt, zx, za, reward=lambda x, a: 0.0):
    """One Euler-Maruyama step: a one-step simulate_from on the draws (zx, za)."""
    traj = simulate_from(dyn, reward, x, a, dt, 1, SequenceNoise([zx, za]))
    return traj.states[1], traj.actions[1]


def test_em_step_zero_dynamics_fixed_point():
    # the state stays at the origin whatever its draw; the action takes its noise alone
    x, a = one_step(ZERO_DYN, 0.0, 0.0, 0.1, 1.7, -2.3)
    assert x == 0.0
    assert a == SQRT2 * math.sqrt(0.1) * -2.3


def test_em_step_lq_optimal_score_hand_values(lq_ref, k_ref):
    # drift-only step from (1, 0): x' = 1 - 1*0.1, a' = psi*(1,0) * 0.1
    dyn = lq_dynamics(lq_ref, lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a))
    x2, a2 = one_step(dyn, 1.0, 0.0, 0.1, 0.0, 0.0)
    assert x2 == pytest.approx(0.9, abs=1e-15)
    psi_10 = (k_ref.k3 + k_ref.k4) / lq_ref.lam
    assert a2 == pytest.approx(0.1 * psi_10, abs=1e-12)
    assert a2 == pytest.approx(-0.5074, abs=1e-4)


def test_em_step_noise_enters_linearly():
    # at (0, 1) the state noise amplitude C x + D a is D
    s = 0.37
    dyn = DynamicsSpec(0.0, 0.0, 0.0, s, lambda x, a: 0.0)
    x2, a2 = one_step(dyn, 0.0, 1.0, 0.25, 1.0, 1.0)
    assert x2 == s * math.sqrt(0.25)
    assert a2 == 1.0 + SQRT2 * math.sqrt(0.25)


def test_em_step_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        one_step(ZERO_DYN, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_em_step_reports_diverging_field():
    bad = DynamicsSpec(-1.0, 0.0, 0.0, 1.0, lambda x, a: float("nan"))
    with pytest.raises(SimulationError, match="^step 0: score evaluated to a non-finite value "
                                              "at x=1.0, a=1.0$"):
        one_step(bad, 1.0, 1.0, 0.1, 0.0, 0.0)


def test_simulate_single_step_is_one_em_step():
    dyn = DynamicsSpec(-1.0, 1.0, 0.25, 0.5, lambda x, a: -a)
    reward = lambda x, a: x - a
    traj = simulate(dyn, reward, 1.0, 2.0, 0.1, 1, seed=42)
    noise = NoiseSource(42)
    zx, za = noise.normal(), noise.normal()
    x2, a2 = one_step(dyn, 1.0, 2.0, 0.1, zx, za, reward)
    assert len(traj.states) == 2 and traj.dt == 0.1
    assert traj.states[1] == x2 and traj.actions[1] == a2
    assert x2 == (1.0 + (-1.0 * 1.0 + 1.0 * 2.0) * 0.1
                  + (0.25 * 1.0 + 0.5 * 2.0) * math.sqrt(0.1) * zx)
    assert a2 == 2.0 + -2.0 * 0.1 + SQRT2 * math.sqrt(0.1) * za
    assert traj.reward_rates[0] == reward(1.0, 2.0)


def test_simulate_equal_seeds_bit_identical(lq_ref, k_ref):
    dyn = lq_dynamics(lq_ref, lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a))
    r = lq_reward_fn(lq_ref)
    t1 = simulate(dyn, r, 0.0, 0.0, 0.1, 400, seed=7)
    t2 = simulate(dyn, r, 0.0, 0.0, 0.1, 400, seed=7)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.actions, t2.actions)
    assert np.array_equal(t1.reward_rates, t2.reward_rates)


def test_simulate_optimal_policy_second_moment_stays_bounded(lq_ref, k_ref):
    dyn = lq_dynamics(lq_ref, lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a))
    traj = simulate(dyn, lq_reward_fn(lq_ref), 0.0, 0.0, 0.1, 100_000, seed=5)
    norms = traj.states ** 2 + traj.actions ** 2
    running = np.cumsum(norms) / np.arange(1, len(norms) + 1)
    assert np.all(np.isfinite(norms))
    assert running[-1] < 10.0
    # second half of the run should not drift upward
    assert running[-1] < 2.0 * running[len(running) // 2]


def test_zero_noise_simulation_matches_forward_euler(no_noise):
    dyn = DynamicsSpec(-0.7, 0.9, 0.4, -0.3, lambda x, a: -a + 0.3 * x)
    traj = simulate(dyn, lambda x, a: 0.0, 0.3, -0.2, 0.05, 200, seed=0)
    x, a = 0.3, -0.2
    for _ in range(200):
        x_new = x + (-0.7 * x + 0.9 * a) * 0.05
        a_new = a + (-a + 0.3 * x) * 0.05
        x, a = x_new, a_new
    assert traj.states[-1] == x
    assert traj.actions[-1] == a


def test_strong_convergence_under_refinement(lq_ref, k_ref):
    # refine dt with matched Brownian increments; endpoint RMS error vs the
    # finest level must shrink as dt decreases
    score = lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)
    dyn = lq_dynamics(lq_ref, score)
    rng = np.random.default_rng(314)
    n_traj, t_end = 300, 4.0
    dt_fine = 0.0125
    n_fine = int(t_end / dt_fine)
    rms = {}
    z_x = rng.standard_normal((n_traj, n_fine))
    z_a = rng.standard_normal((n_traj, n_fine))
    endpoints = {}
    for level, factor in ((0, 1), (1, 2), (2, 4), (3, 8)):
        dt = dt_fine * factor
        ends = np.empty((n_traj, 2))
        for i in range(n_traj):
            draws = []
            for k in range(n_fine // factor):
                draws.append(z_x[i, k * factor:(k + 1) * factor].sum() / math.sqrt(factor))
                draws.append(z_a[i, k * factor:(k + 1) * factor].sum() / math.sqrt(factor))
            traj = simulate_from(dyn, lambda x, a: 0.0, 1.0, 0.0, dt, n_fine // factor,
                                 SequenceNoise(draws))
            ends[i] = (traj.states[-1], traj.actions[-1])
        endpoints[level] = ends
    for level in (1, 2, 3):
        diff = endpoints[level] - endpoints[0]
        rms[level] = math.sqrt(float(np.mean(diff ** 2)))
    assert rms[3] > rms[2] > rms[1]


def test_noise_source_is_standard_gaussian():
    draws = NoiseSource(123).normal(1_000_000)
    assert abs(draws.mean()) < 4 / math.sqrt(len(draws))
    assert abs(draws.var() - 1.0) < 0.01


def test_noise_source_determinism():
    a = NoiseSource(99).normal(1000)
    b = NoiseSource(99).normal(1000)
    assert np.array_equal(a, b)


def _draw_all(noise, sizes):
    """Flatten the draws of ``sizes`` in stream order: None for a scalar,
    ``[k]`` for ``noise.normals(k)``, anything else a block size."""
    out = []
    for size in sizes:
        if isinstance(size, list):
            value = noise.normals(size[0])
            assert type(value) is list and len(value) == size[0]
            assert all(type(z) is float for z in value)
            out.extend(value)
            continue
        value = noise.normal(size)
        if size is None:
            assert type(value) is float
            out.append(value)
        else:
            assert value.shape == np.empty(size).shape
            out.extend(np.ravel(value))
    return np.array(out)


def test_noise_source_tape_matches_raw_generator():
    # scalars that start and refill the tape, blocks that straddle a refill
    # or fit inside what is left, a tuple size, and size 0
    sizes = ([None] * (TAPE - 10) + [25] + [None] * 5 + [(3, 4)] + [0]
             + [None] * (TAPE + 3) + [TAPE] + [None] + [(0, 2)] + [7, ()])
    got = _draw_all(NoiseSource(11), sizes)
    want = np.random.default_rng(11).standard_normal(got.size)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@given(sizes=st.lists(st.one_of(
    st.none(), st.integers(0, 3 * TAPE),
    st.tuples(st.integers(0, 40), st.integers(0, 40)),
    st.lists(st.integers(0, 3 * TAPE), min_size=1, max_size=1)), max_size=40),
       seed=st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_noise_source_stream_is_independent_of_draw_shapes(sizes, seed):
    sizes = [None] * 3 + sizes  # start from a partly used tape
    got = _draw_all(NoiseSource(seed), sizes)
    want = np.random.default_rng(seed).standard_normal(got.size)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("k", [0, 1, 50, TAPE, TAPE + 1, 2500])
@pytest.mark.parametrize("used", [0, 3, TAPE - 10])
def test_noise_source_normals_equal_k_scalar_draws(k, used):
    # from a fresh or partly drained tape, between scalar and block draws
    sizes = [None] * used + [[k], None, [k], 25, [k], (3, 4), None]
    got = _draw_all(NoiseSource(12), sizes)
    want = np.random.default_rng(12).standard_normal(got.size)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    lists, scalars = NoiseSource(5), NoiseSource(5)
    for _ in range(used):
        lists.normal(), scalars.normal()
    assert lists.normals(k) == [scalars.normal() for _ in range(k)]
    # the two go on alike: a block across the end of what is left, then a later block
    for size in (TAPE + 2, 5):
        assert lists.normal(size).tobytes() == scalars.normal(size).tobytes()


@pytest.mark.parametrize("extra", [-7, -1, 0, 1, 3 * TAPE])
def test_block_draw_drains_the_tape_and_reads_the_rest_from_the_generator(extra):
    # a block smaller than, equal to or larger than what the tape holds takes
    # the tape's variates first; one at least that long leaves the tape empty,
    # so later blocks come straight from the generator
    noise = NoiseSource(13)
    noise.normals(5)
    left = TAPE - 5
    got = [noise.normal()]
    left -= 1
    got += noise.normals(20)
    left -= 20
    block = noise.normal((left + extra,))
    # what it draws next is what a fresh source draws after one block of as many
    ahead, twin = copy.deepcopy(noise), NoiseSource(13)
    twin.normal(TAPE + extra)
    for size in (TAPE + 2, 5):
        assert ahead.normal(size).tobytes() == twin.normal(size).tobytes()
    got += block.tolist() + [noise.normal()] + noise.normal(TAPE // 2).tolist()
    got += noise.normals(3)
    want = np.random.default_rng(13).standard_normal(5 + len(got))[5:]
    assert np.array_equal(np.array(got).view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("x0, a0, reward, message", [
    (np.zeros(2), np.zeros(1), lambda x, a: 0.0 * x, "two scalars or two 1-d arrays"),
    (0.0, np.zeros(2), lambda x, a: 0.0 * a, "two scalars or two 1-d arrays"),
    (np.zeros((2, 1)), np.zeros((2, 1)), lambda x, a: 0.0 * x, "two scalars or two 1-d arrays"),
    (np.zeros(2), np.zeros(2), lambda x, a: 0.0, "one value per trajectory"),
], ids=["unequal-lengths", "scalar-and-array", "2-d", "one-reward-for-a-batch"])
def test_simulate_from_refuses_other_starts_before_any_draw(x0, a0, reward, message):
    noise = NoiseSource(7)
    with pytest.raises(ValueError, match=message):
        simulate_from(ZERO_DYN, reward, x0, a0, 0.1, 5, noise)
    assert noise.normal() == NoiseSource(7).normal()


def test_simulate_batch_deterministic_and_shaped(lq_ref, k_ref):
    dyn = lq_dynamics(lq_ref, lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a))
    b1 = simulate_batch(dyn, lq_reward_fn(lq_ref), 0.0, 0.0, 0.1, 50, 20, seed=8)
    b2 = simulate_batch(dyn, lq_reward_fn(lq_ref), 0.0, 0.0, 0.1, 50, 20, seed=8)
    assert b1.states.shape == (51, 20)
    assert b1.reward_rates.shape == (50, 20)
    assert np.array_equal(b1.states, b2.states)
    with pytest.raises(ValueError, match="one value per trajectory"):
        simulate_batch(dyn, lambda x, a: 0.0, 0.0, 0.0, 0.1, 50, 20, seed=8)


# Without noise, on a grid of dt 1, a score of 1 gives a_k = k and dx = a dt
# gives x_k = k (k - 1) / 2, so the score turns NaN exactly at step 3.  In a
# batch only the middle column (trajectory 1 of 3) runs at that pace and turns
# NaN, the others move at half of it.  The score is evaluated on one row of the
# batch per step, so it may tell the columns apart; the reward is evaluated
# once over the whole grid and must be pointwise in (x, a).
def _middle(a):
    return np.arange(np.size(a)).reshape(np.shape(a)) == np.size(a) // 2


NAN_AT_3 = DynamicsSpec(
    0.0, 1.0, 0.0, 0.0,
    lambda x, a: np.where(_middle(a), np.where(a >= 3.0, np.nan, 1.0), 0.5),
)


# The later-block case runs 400 trajectories under small_blocks: row blocks of
# 2 steps, so the faults at steps 2 and 3 of trajectory 200 fall in the second.
@pytest.mark.parametrize("run, where, blocks, reward_calls", [
    (lambda dyn, reward: simulate(dyn, reward, 0.0, 0.0, 1.0, 6, seed=0), "", None,
     [(), (6,)]),
    (lambda dyn, reward: simulate_batch(dyn, reward, 0.0, 0.0, 1.0, 6, 3, seed=0),
     ", trajectory 1", None, [(3,), (6, 3)]),
    (lambda dyn, reward: simulate_batch(dyn, reward, 0.0, 0.0, 1.0, 6, 400, seed=0),
     ", trajectory 200", "small_blocks", [(400,), (2, 400), (2, 400)]),
], ids=["simulate", "simulate_batch", "simulate_batch-later-block"])
def test_non_finite_field_names_step_and_field(no_noise, request, run, where, blocks,
                                               reward_calls):
    if blocks:
        request.getfixturevalue(blocks)
    with pytest.raises(SimulationError) as info:
        run(NAN_AT_3, lambda x, a: 0.0 * x)
    assert str(info.value) == (f"step 3{where}: score evaluated to a non-finite value "
                               "at x=3.0, a=3.0")
    # the diagnosis reads the reward from the block: the reward is called for
    # the start's shape check and once per row block, never at the fault
    calls = []

    def nan_reward(x, a):
        calls.append(np.shape(x))
        return np.where(a >= 2.0, np.nan, 0.0 * x)

    with pytest.raises(SimulationError) as info:
        run(NAN_AT_3, nan_reward)
    assert str(info.value) == (f"step 2{where}: reward evaluated to a non-finite value "
                               "at x=1.0, a=2.0")
    assert calls == reward_calls


def test_batch_of_one_matches_single_trajectory_bitwise(lq_ref, k_ref):
    dyn = lq_dynamics(lq_ref, lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a))
    reward = lq_reward_fn(lq_ref)
    for seed in (0, 5, 17):
        single = simulate(dyn, reward, 0.4, -0.2, 0.1, 3 * TAPE, seed=seed)
        batch = simulate_batch(dyn, reward, 0.4, -0.2, 0.1, 3 * TAPE, 1, seed=seed)
        for got, want in ((batch.states, single.states), (batch.actions, single.actions),
                          (batch.reward_rates, single.reward_rates)):
            assert np.array_equal(got[:, 0].view(np.uint64), want.view(np.uint64))
        assert batch.states.shape == single.states.shape + (1,)


def _random_instances_and_scores():
    """Two random admissible instances, with B and C nonzero, each under its
    optimal score as a ``score_fn`` closure and as a plain lambda."""
    rng = np.random.default_rng(12)
    cases = []
    while len(cases) < 4:
        p = random_admissible_params(rng)
        try:
            k = solve_lq(p)
        except SolveError:
            continue
        assert p.B != 0.0 and p.C != 0.0
        cases.append((p, score_fn(k.k2 / p.lam, k.k4 / p.lam, k.k3 / p.lam)))
        cases.append((p, lambda x, a, k=k, lam=p.lam: grad_a_q(k, x, a) / lam))
    return cases


@pytest.mark.parametrize("width", [None, 1, 3, 200, TAPE], ids=lambda w: f"width-{w}")
@pytest.mark.parametrize("used", [0, 5], ids=lambda u: f"used-{u}")
def test_simulate_from_bitwise_equals_per_step_reference(lq_ref, k_ref, width, used):
    # one draw and one reward pass per row block give the per-step loop's bits,
    # and leave the noise stream where it leaves it; the tape is fresh (used 0)
    # or partly drained by scalar draws.  The reference instance has B = C = 0, so
    # random instances check the B a and C x terms, from a scalar start and a batch.
    # Its coefficients and dt also come as Python ints where integral and as
    # numpy float64 scalars, which a batch holds as 0-d float64 arrays.
    ref = lq_dynamics(lq_ref, lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a))
    reward = lq_reward_fn(lq_ref)
    cases = [(ref, reward, 0.1)]
    if width in (None, 1, 3):
        integral = lambda c: int(c) if float(c).is_integer() else c
        cases += [(DynamicsSpec(*map(kind, ref[:4]), ref.score), reward, kind(0.1))
                  for kind in (integral, np.float64)]
    if width in (None, 3):
        cases += [(lq_dynamics(p, score), lq_reward_fn(p), 0.1)
                  for p, score in _random_instances_and_scores()]
    if width is None:
        x0, a0 = 0.4, -0.2
    else:
        x0, a0 = np.linspace(-1.0, 1.0, width), np.linspace(0.5, -0.5, width)
    rows = min(3 * TAPE, sde.BLOCK // (width or 1))  # rows per row block, capped
    for dyn, reward, dt in cases:
        for n_steps in sorted({1, max(1, rows - 1), rows, rows + 1, 3 * TAPE}):
            got_noise, want_noise = NoiseSource(31), NoiseSource(31)
            for _ in range(used):
                got_noise.normal(), want_noise.normal()
            got = simulate_from(dyn, reward, x0, a0, dt, n_steps, got_noise)
            want = reference_simulate(DynamicsSpec(*map(float, dyn[:4]), dyn.score), reward,
                                      x0, a0, float(dt), n_steps, want_noise)
            for g, w in zip((got.states, got.actions, got.reward_rates), want):
                assert g.shape == w.shape
                assert np.array_equal(g.view(np.uint64), w.view(np.uint64)), (dyn, n_steps)
            assert got_noise.normal() == want_noise.normal()


def _same_bits(got, want) -> bool:
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("width", [None, 1, 2, 200, 1001], ids=lambda w: f"width-{w}")
@pytest.mark.parametrize("used", [0, 5], ids=lambda u: f"used-{u}")
def test_row_blocks_of_a_rollout_equal_the_per_step_reference_bitwise(small_blocks, lq_ref,
                                                                      k_ref, width, used):
    # 1003 steps end on a short row block.  Each block of the stream, with its
    # end point, and the grid simulate_from writes them into hold the per-step
    # loop's bits, and the noise stream is left where the loop leaves it; a
    # scalar rollout and a single column are one block, and a row wider than
    # a block makes one-step blocks
    dyn = lq_dynamics(lq_ref, lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a))
    reward = lq_reward_fn(lq_ref)
    n_steps = 1003
    if width is None:
        x0, a0 = 0.4, -0.2
    else:
        x0, a0 = np.linspace(-1.0, 1.0, width), np.linspace(0.5, -0.5, width)
    sources = [NoiseSource(31) for _ in range(3)]
    for noise in sources:
        for _ in range(used):
            noise.normal()
    states, actions, rates = reference_simulate(dyn, reward, x0, a0, 0.01, n_steps, sources[0])
    blocks = list(simulate_blocks(dyn, reward, x0, a0, 0.01, n_steps, sources[1]))
    grid = simulate_from(dyn, reward, x0, a0, 0.01, n_steps, sources[2])

    assert [block[0] for block in blocks] == list(row_blocks(rates.shape))
    assert len(blocks) == {None: 1, 1: 1, 2: 3, 200: 201, 1001: 1003}[width]
    for rows, *got in blocks:
        ends = slice(rows.start, rows.stop + 1)
        for g, w in zip(got, (states[ends], actions[ends], rates[rows])):
            assert _same_bits(g, w), rows
    for g, w in zip((grid.states, grid.actions, grid.reward_rates), (states, actions, rates)):
        assert _same_bits(g, w)
    assert sources[0].normal() == sources[1].normal() == sources[2].normal()


def test_simulate_batch_holds_its_grid_and_a_few_blocks(lq_ref, k_ref):
    # simulate_from writes each row block into the grid as it is made, so its
    # traced peak is the grid's three arrays plus a few blocks, not two grids
    dyn = lq_dynamics(lq_ref, lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a))
    run = lambda n_steps, n_traj: simulate_batch(dyn, lq_reward_fn(lq_ref), 0.0, 0.0, 0.01,
                                                 n_steps, n_traj, seed=0)
    run(2, 2)  # the first call imports the parts of numpy it uses
    n_steps, n_traj = 2000, 200
    tracemalloc.start()
    try:
        run(n_steps, n_traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n_traj * (n_steps + 1) + 4 * 2 ** 20  # 4 MiB for the blocks


class _CountingNoise:
    """A NoiseSource stand-in that records every draw request."""

    def __init__(self, seed):
        self._source = NoiseSource(seed)
        self.requests = []

    def normal(self, size=None):
        self.requests.append(size)
        return self._source.normal(size)

    def normals(self, k):
        self.requests.append([k])
        return self._source.normals(k)


@pytest.mark.parametrize("width", [None, 3, 200], ids=lambda w: f"width-{w}")
@pytest.mark.parametrize("used", [0, 5], ids=lambda u: f"used-{u}")
def test_one_rollout_calls_reward_and_draws_once_per_row_block(small_blocks, lq_ref, k_ref,
                                                               width, used):
    # 1003 steps: one block from a scalar start, else 4 blocks of up to 333
    # rows at width 3 and 201 of up to 5 at width 200, the last one short
    dyn = lq_dynamics(lq_ref, lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a))
    calls = []

    def reward(x, a):
        calls.append(np.shape(x))
        return lq_reward_fn(lq_ref)(x, a)

    n_steps = 1003
    start = 0.0 if width is None else np.zeros(width)
    noise = _CountingNoise(6)
    for _ in range(used):
        noise._source.normal()
    simulate_from(dyn, reward, start, start, 0.1, n_steps, noise)
    steps = [r.stop - r.start for r in row_blocks((n_steps, width or 1))]
    assert len(steps) == {None: 1, 3: 4, 200: 201}[width]
    # the shape check at the start, then one pass over each row block
    assert calls == [np.shape(start)] + [(k,) + np.shape(start) for k in steps]
    if width is None:
        assert noise.requests == [[2 * n_steps]]
    else:
        assert noise.requests == [(k, 2, width) for k in steps]


# without noise, from (0, 1) on a grid of dt 1, a drift of B a = 1e200 takes the
# state to 1e200 in one step while the score -a takes the action to 0; the state
# then stays finite, while the reward x*x (or x**2, which overflows Python floats
# with an OverflowError) overflows from step 1 on.  From (0, 1e200) the drift
# itself overflows in step 0; from (1e200, 0) the reward overflows at the start.
FAR = DynamicsSpec(0.0, 1e200, 0.0, 0.0, lambda x, a: -a)
SQUARE = lambda x, a: x * x - x * a
POWER = lambda x, a: x ** 2 - x * a


@pytest.mark.parametrize("reward, x0, a0, step, message", [
    (SQUARE, 0.0, 1.0, 1, "reward evaluated to a non-finite value at x=1e+200, a=0.0"),
    (POWER, 0.0, 1.0, 1, "reward evaluated to a non-finite value at x=1e+200, a=0.0"),
    (SQUARE, 0.0, 1e200, 0,
     "the step from x=0.0, a=1e+200 overflowed to a non-finite state or action"),
    (POWER, 1e200, 0.0, 0, "reward evaluated to a non-finite value at x=1e+200, a=0.0"),
], ids=["square", "power", "step", "power-at-start"])
@pytest.mark.parametrize("run, where", [
    (lambda reward, x0, a0: simulate(FAR, reward, x0, a0, 1.0, 6, seed=0), ""),
    (lambda reward, x0, a0: simulate_batch(FAR, reward, x0, a0, 1.0, 6, 3, seed=0),
     ", trajectory 0"),
], ids=["simulate", "simulate_batch"])
def test_overflowing_reward_raises_without_runtime_warnings(no_noise, run, where, reward, x0,
                                                            a0, step, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationError) as info:
            run(reward, x0, a0)
    assert str(info.value) == f"step {step}{where}: {message}"


def test_trajectory_validation():
    with pytest.raises(ValueError, match="one entry per transition"):
        Trajectory(0.1, np.zeros(3), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="one row per time point"):
        Trajectory(0.1, np.zeros(3), np.zeros(2), np.zeros(2))
    for n in (0, 1):
        with pytest.raises(ValueError, match=f"at least one transition, got {n} time points"):
            Trajectory(0.1, np.zeros(n), np.zeros(n), np.empty(0))


def test_simulate_from_continues_a_stream():
    # the second rollout draws the ten variates after the first one's ten
    reward = lambda x, a: 0.0
    noise = NoiseSource(4)
    first = simulate_from(ZERO_DYN, reward, 0.0, 0.0, 0.1, 5, noise)
    again = simulate_from(ZERO_DYN, reward, 0.0, 0.0, 0.1, 5, noise)
    skipped = NoiseSource(4)
    skipped.normals(10)
    want = simulate_from(ZERO_DYN, reward, 0.0, 0.0, 0.1, 5, skipped)
    assert np.array_equal(first.actions, simulate(ZERO_DYN, reward, 0.0, 0.0, 0.1, 5, 4).actions)
    assert np.array_equal(again.actions, want.actions)
    assert not np.array_equal(first.actions, again.actions)
    assert np.array_equal(first.states, again.states)  # no state dynamics: all zero
