"""Isolated per-call costs of each layer at fixed inputs on the reference LQ.

Every row times a loop of calls into one public function, repeats the loop
and reports the median time per call (or per unit of work the row names),
rescaled to the reference speed as in calibration.py.
Inputs are fixed: the optimum (theta*, v*) of the reference instance, state
0.5, action 0.3, seed 0.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace

import numpy as np

from calibration import bracketed
from cqsm import experiment, lq, lq_analytic, martingale, offline, online, policy, samplers, sde

REPEATS = 5
X, A = 0.5, 0.3
EPISODE_STEPS = 500
BATCH_TRAJ = 200
MARTINGALE_STEPS = 5000
RECORD_ROWS = 101


def _per_call_s(fn, number: int, kernel: str = "scalar") -> float:
    """Median over REPEATS loops of the time of one call to ``fn``, at the
    reference speed of the named calibration kernel."""
    def loop():
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        return (time.perf_counter() - t0) / number

    samples = []
    for _ in range(REPEATS):
        seconds, factor = bracketed(loop, kernel)
        samples.append(seconds * factor)
    return statistics.median(samples)


def _record(rng) -> online.LearningRecord:
    steps = np.arange(RECORD_ROWS) * 1000
    return online.LearningRecord(
        steps=steps, times=steps * 0.1, thetas=rng.standard_normal((RECORD_ROWS, 6)),
        vs=rng.standard_normal((RECORD_ROWS, 3)), reward_rates=rng.standard_normal(RECORD_ROWS),
        running_avg=rng.standard_normal(RECORD_ROWS), seed=0)


def _summary(rec: online.LearningRecord) -> experiment.RunSummary:
    n = RECORD_ROWS
    return experiment.RunSummary(
        seeds=(0,), failed_seeds=(), record_steps=rec.steps, record_times=rec.times,
        theta_mean=rec.thetas, theta_std=np.abs(rec.thetas), v_mean=rec.vs,
        v_std=np.abs(rec.vs), reward_mean=rec.reward_rates, reward_std=np.ones(n),
        avg_reward_mean=rec.running_avg, avg_reward_std=np.ones(n),
        final_thetas=rec.thetas[-1:], final_vs=rec.vs[-1:], final_avg_rewards=rec.running_avg[-1:])


def measure(s, out, scale: float = 1.0) -> dict:
    """Every isolated row as {name: (value, unit)}; ``scale`` shrinks the loops."""
    def n(count):
        return max(1, int(count * scale))

    p, theta, v = s.cfg.lq, s.theta_star, s.v_star
    score = lambda x, a: policy.psi_v(v, x, a)
    noise = sde.NoiseSource(0)
    rows = {}

    rows["sde.normal_scalar_ns"] = (_per_call_s(noise.normal, n(20000)) * 1e9, "ns")
    block = _per_call_s(lambda: noise.normal(BATCH_TRAJ), n(5000), "mixed")
    rows["sde.normal_block_ns_per_variate"] = (block / BATCH_TRAJ * 1e9, "ns")

    dyn, reward = lq.lq_dynamics(p, score), lq.lq_reward_fn(p)
    per = _per_call_s(lambda: sde.simulate(dyn, reward, X, A, 0.1, EPISODE_STEPS, 0), n(10),
                      "stepping")
    rows["sde.simulate_us_per_step"] = (per / EPISODE_STEPS * 1e6, "us")
    run_batch = lambda: sde.simulate_batch(dyn, reward, X, A, 0.1, EPISODE_STEPS, BATCH_TRAJ, 0)
    per = _per_call_s(run_batch, n(4), "mixed")
    cells = EPISODE_STEPS * BATCH_TRAJ
    rows["sde.simulate_batch_ns_per_step_traj"] = (per / cells * 1e9, "ns")
    batch = run_batch()
    # output arrays plus the two noise blocks drawn per step, per step-trajectory
    computed = (batch.states.nbytes + batch.actions.nbytes + batch.reward_rates.nbytes
                + 2 * cells * 8) / cells
    rows["sde.simulate_batch_bytes_per_step_traj_computed"] = (computed, "bytes")

    rows["lq.env_step_us"] = (_per_call_s(lambda: lq.env_step(p, X, A, 0.1, noise), n(20000)) * 1e6, "us")
    rows["policy.psi_v_ns"] = (_per_call_s(lambda: policy.psi_v(v, X, A), n(50000)) * 1e9, "ns")
    rows["policy.grad_theta_q_ns"] = (
        _per_call_s(lambda: policy.grad_theta_q(theta, X, A), n(50000)) * 1e9, "ns")

    rows["samplers.langevin_sample_us"] = (_per_call_s(
        lambda: samplers.langevin_sample(score, X, A, 0.01, 50, noise), n(300)) * 1e6, "us")
    schedule = samplers.make_linear_schedule(20, 1e-3, 0.19)
    rows["samplers.ddpm_sample_us"] = (_per_call_s(
        lambda: samplers.ddpm_sample(score, X, schedule, noise), n(500)) * 1e6, "us")

    # frozen rates keep (theta*, v*) fixed; the update arithmetic runs all the same
    base = online.AlgoConfig(dt=0.1, alpha_theta=0.0, alpha_v=0.0, langevin_dt=0.01,
                             langevin_steps=50, ddpm_steps=20)
    env = lambda x, a: lq.env_step(p, x, a, base.dt, noise)
    for sampler, count in (("langevin", 300), ("ddpm", 400), ("direct_sde", 1000)):
        cfg = replace(base, sampler=sampler)
        state = [online.LearnState(theta.copy(), v.copy(), X, A, 0, 0.0)]

        def step():
            state[0] = online.cqsm_step(state[0], cfg, env, noise)

        rows[f"online.cqsm_step_us.{sampler}"] = (_per_call_s(step, n(count)) * 1e6, "us")

    ep_cfg = online.AlgoConfig(dt=0.1, n_steps=EPISODE_STEPS, alpha_theta=0.02, alpha_v=0.3,
                               sampler="direct_sde")
    rows["offline.rollout_episode_ms"] = (_per_call_s(
        lambda: offline.rollout_episode(p, v, ep_cfg, noise), n(10), "stepping") * 1e3, "ms")
    ep = offline.rollout_episode(p, v, ep_cfg, sde.NoiseSource(0))
    rows["offline.offline_update_ms"] = (_per_call_s(
        lambda: offline.offline_update(ep, theta, v, ep_cfg, 1), n(200)) * 1e3, "ms")
    rows["offline.score_gradient_residual_ms"] = (_per_call_s(
        lambda: offline.score_gradient_residual(theta, v, p.lam, ep), n(500)) * 1e3, "ms")

    k = s.k
    opt = lambda x, a: lq_analytic.optimal_score(k, p.lam, x, a)
    mart_batch = sde.simulate_batch(lq.lq_dynamics(p, opt), lq.lq_reward_fn(p), 0.0, 0.0,
                                    0.01, MARTINGALE_STEPS, BATCH_TRAJ, 0)
    qfun = lambda x, a: lq_analytic.q_star(k, x, a)
    test = martingale.constant_test()
    rows["martingale.orthogonality_statistics_ms"] = (_per_call_s(
        lambda: martingale.orthogonality_statistics(mart_batch, qfun, opt, test, p.beta, p.lam),
        n(5), "mixed") * 1e3, "ms")

    rows["lq_analytic.solve_lq_ms"] = (_per_call_s(lambda: lq_analytic.solve_lq(p), n(100)) * 1e3, "ms")

    rec = _record(np.random.default_rng(0))
    summary = _summary(rec)
    rows["experiment.write_record_csv_ms"] = (_per_call_s(
        lambda: experiment.write_record_csv(rec, out / "layer_record.csv"), n(50)) * 1e3, "ms")
    rows["experiment.write_summary_csv_ms"] = (_per_call_s(
        lambda: experiment.write_summary_csv(summary, out / "layer_summary.csv"), n(30)) * 1e3, "ms")
    return rows
