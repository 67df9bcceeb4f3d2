"""End-to-end acceptance checks at the tolerances the project commits to.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
even when everything is green).  The learning-run comparison against the
frozen optimal policy is known not to meet its stated tolerance at this
horizon; see the test docstring.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

import cqsm.experiment as experiment
from cqsm.experiment import config_hash, parse_config, run_experiment
from cqsm.learner import AlgoConfig
from cqsm.lq_analytic import (SolveError, coefficient_residuals, hjb_residual,
                              k_to_optimal_params, optimal_score, q_star, solve_lq)
from cqsm.martingale import constant_test, estimate_discounted_return, orthogonality_residual
from cqsm.online import run_cqsm
from cqsm.policy import grad_a_q, grad_theta_q, psi_features, psi_v, q_theta, score_params_from_q
from cqsm.samplers import ddpm_sample, langevin_sample, make_linear_schedule
from cqsm.sde import NoiseSource
from conftest import REF_THETA, REF_V
from _oracles import central_diff_vec, ddpm_affine_law, random_admissible_params


def _report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" -- {detail}" if detail else ""))


def test_01_analytic_reproduction(lq_ref):
    k = solve_lq(lq_ref)
    theta, v = k_to_optimal_params(k, lq_ref.lam)
    err_theta = float(np.max(np.abs(theta - REF_THETA)))
    err_v = float(np.max(np.abs(v - REF_V)))
    ok = err_theta < 1e-5 and err_v < 1e-5
    _report("criterion 1: analytic reproduction",
            ok, f"max errors theta {err_theta:.2e}, v {err_v:.2e}")
    assert ok


def test_02_coefficient_residuals_randomized(lq_ref):
    worst = float(np.max(np.abs(coefficient_residuals(solve_lq(lq_ref), lq_ref))))
    rng = np.random.default_rng(20260810)
    successes = 0
    for i in range(200):
        p = random_admissible_params(rng, force_d_zero=(i % 4 == 0))
        try:
            k = solve_lq(p)
        except SolveError:
            continue
        successes += 1
        worst = max(worst, float(np.max(np.abs(coefficient_residuals(k, p)))))
        assert k.k0 < 0 and k.k2 < 0 and k.k0 * k.k2 - k.k4 ** 2 > 0
    ok = worst < 1e-8 and successes >= 100
    _report("criterion 2: coefficient residuals on randomized family",
            ok, f"worst residual {worst:.2e} over {successes} solved instances")
    assert ok


def test_03_hjb_pointwise(lq_ref, k_ref):
    grid = np.linspace(-2.0, 2.0, 5)
    worst = max(abs(hjb_residual(k_ref, lq_ref, x, a)) for x in grid for a in grid)
    ok = worst < 1e-8
    _report("criterion 3: pointwise dynamic-programming residual",
            ok, f"max |residual| {worst:.2e}")
    assert ok


def test_04_martingale_diagnostics(lq_ref, k_ref):
    cfg = AlgoConfig(dt=0.01, n_steps=5000, seed=1)
    score = lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)
    true_report = orthogonality_residual(
        lambda x, a: q_star(k_ref, x, a), score, constant_test(),
        lq_ref, cfg, n_traj=500)
    off_report = orthogonality_residual(
        lambda x, a: q_star(k_ref, x, a) + 0.5, score, constant_test(),
        lq_ref, cfg, n_traj=500)
    ok = abs(true_report.z_score) < 3 and abs(off_report.z_score) > 3
    _report("criterion 4: martingale orthogonality z-tests", ok,
            f"true Q z = {true_report.z_score:.2f}, offset Q z = {off_report.z_score:.1f}")
    assert ok


def test_05_gradient_checks(lq_ref):
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(-2, 2, 6)
        v = rng.uniform(-1.5, 1.5, 3)
        x, a = rng.uniform(-2, 2, 2)
        fd_theta = central_diff_vec(lambda t: q_theta(t, x, a), theta)
        fd_v = central_diff_vec(lambda u: psi_v(u, x, a), v)
        fd_a = (q_theta(theta, x, a + 1e-5) - q_theta(theta, x, a - 1e-5)) / 2e-5
        for got, ref in ((grad_theta_q(theta, x, a), fd_theta),
                         (np.array(psi_features(-np.exp(v[0]), x, a)), fd_v),
                         (np.atleast_1d(grad_a_q(theta, x, a)), np.atleast_1d(fd_a))):
            scale = np.maximum(np.abs(ref), 1e-2)
            worst = max(worst, float(np.max(np.abs(got - ref) / scale)))
    ok = worst < 1e-7
    _report("criterion 5: analytic gradients vs central differences",
            ok, f"worst relative error {worst:.2e}")
    assert ok


def test_06_sampler_correctness(lq_ref, k_ref):
    # Langevin chains against the Boltzmann Gaussian at x = 0
    target_mean = -k_ref.k3 / k_ref.k2
    target_var = -lq_ref.lam / k_ref.k2
    assert target_mean == pytest.approx(-0.772059, abs=1e-5)
    assert target_var == pytest.approx(0.216723, abs=1e-5)
    score = lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)
    n_chains, n_keep, dt = 1000, 100, 2e-4
    thin = int(round(0.1 / dt))
    noise = NoiseSource(606)
    a = langevin_sample(score, 0.0, np.zeros(n_chains), dt, int(4.0 / dt), noise)
    kept = np.empty((n_keep, n_chains))
    for i in range(n_keep):
        a = langevin_sample(score, 0.0, a, dt, thin, noise)
        kept[i] = a
    chain_means = kept.mean(axis=0)
    se_mean = chain_means.std(ddof=1) / math.sqrt(n_chains)
    mean_ok = abs(kept.mean() - target_mean) < 3 * se_mean
    # second moment about the pooled mean, chain-averaged so the spread over
    # independent chains yields an honest standard error (per-chain sample
    # variances would be biased low by the within-chain autocorrelation)
    chain_m2 = ((kept - kept.mean()) ** 2).mean(axis=0)
    se_var = chain_m2.std(ddof=1) / math.sqrt(n_chains)
    var_ok = abs(chain_m2.mean() - target_var) < 3 * se_var
    ks = scipy.stats.kstest(kept.ravel(), "norm",
                            args=(target_mean, math.sqrt(target_var))).statistic
    ks_ok = ks < 0.01

    # reverse denoising chain against its exact affine-Gaussian law
    sched = make_linear_schedule(20, 1e-3, 0.19)
    m_ref, v_ref = ddpm_affine_law(sched, k_ref.k2 / lq_ref.lam, k_ref.k3 / lq_ref.lam)
    dnoise = NoiseSource(607)
    n = 10_000
    samples = np.array([ddpm_sample(score, 0.0, sched, dnoise) for _ in range(n)])
    ddpm_mean_ok = abs(samples.mean() - m_ref) < 3 * math.sqrt(v_ref / n)
    ddpm_var_ok = abs(samples.var(ddof=1) - v_ref) < 3 * v_ref * math.sqrt(2 / (n - 1))

    ok = mean_ok and var_ok and ks_ok and ddpm_mean_ok and ddpm_var_ok
    _report("criterion 6: sampler correctness", ok,
            f"langevin mean/var ok {mean_ok}/{var_ok}, KS {ks:.4f}, "
            f"ddpm mean/var ok {ddpm_mean_ok}/{ddpm_var_ok}")
    assert ok


LEARNING_CONFIG = """
algo.dt = 0.1
algo.n_steps = 100000
algo.alpha_theta = 0.01
algo.alpha_v = 0.01
algo.sampler = langevin
algo.langevin_dt = 0.01
algo.langevin_steps = 50
algo.record_every = 1000
run.n_seeds = 5
run.base_seed = 0
run.theta0_mode = zeros
run.v0_mode = uniform01
"""


@pytest.fixture(scope="module")
def learning_summary(tmp_path_factory):
    out = tmp_path_factory.mktemp("learning")
    cfg = parse_config(LEARNING_CONFIG + f"run.output_dir = {out}\n")
    return run_experiment(cfg, parallel=2)


@pytest.fixture(scope="module")
def optimal_baseline(tmp_path_factory, opt_params):
    """The frozen optimal pair pushed through the identical pipeline: the
    learning config with zero learning rates, started at (theta*, v*)."""
    theta_star, v_star = opt_params
    out = tmp_path_factory.mktemp("baseline")
    cfg = parse_config(LEARNING_CONFIG + f"run.output_dir = {out}\n")
    frozen = replace(cfg, algo=replace(cfg.algo, alpha_theta=0.0, alpha_v=0.0),
                     theta0_mode="explicit", v0_mode="explicit",
                     theta0=tuple(theta_star.tolist()), v0=tuple(v_star.tolist()))
    return run_experiment(frozen, parallel=2).final_avg_rewards


def test_07a_learning_parameter_recovery(learning_summary, opt_params):
    theta_star, _ = opt_params
    errors = np.abs(learning_summary.final_thetas - theta_star)
    per_seed_ok = np.all(errors[:, [0, 1, 4, 5]] < 0.15, axis=1)
    n_ok = int(per_seed_ok.sum())
    ok = n_ok >= 4 and len(learning_summary.failed_seeds) == 0
    detail = ", ".join(
        f"seed {s}: max err {errors[i, [0, 1, 4, 5]].max():.3f}"
        for i, s in enumerate(learning_summary.seeds))
    _report("criterion 7a: learned coefficients 0,1,4,5 within 0.15",
            ok, f"{n_ok}/5 seeds pass ({detail})")
    assert ok


def test_07b_learning_reward_vs_optimal_baseline(learning_summary, optimal_baseline):
    """Final running average reward within 10% of the frozen optimal policy.

    This clause does not hold at this horizon: the coordinates that set the
    action spread (the a^2 and a coefficients and the score's log-width) sit
    at an O(dt)-displaced fixed point at dt = 0.1 -- the same coordinates the
    reference experiments report as not reaching their optima -- and the raw
    reward rate is sensitive to that spread.  The learner's converged rate is
    about 25-30% below the frozen optimum, and the early-training drag at
    horizon 10^4 adds several more points.  The check is asserted as stated
    rather than loosened; see the decisions log for the full analysis.
    """
    learner = float(np.mean(learning_summary.final_avg_rewards))
    baseline = float(np.mean(optimal_baseline))
    gap = abs(learner - baseline) / abs(baseline)
    ok = gap <= 0.10
    _report("criterion 7b: final running average reward within 10% of baseline",
            ok, f"learner {learner:.4f} vs baseline {baseline:.4f} (gap {gap:.1%})")
    assert ok


def test_08_score_improvement(lq_ref, opt_params):
    # converge the critic under the frozen score psi(x, a) = -a, one
    # improvement step, then compare discounted returns with common noise
    v0 = np.zeros(3)
    critic_cfg = AlgoConfig(dt=0.1, n_steps=200_000, alpha_theta=0.01,
                            alpha_v=0.0, seed=808, sampler="direct_sde",
                            record_every=10_000)
    theta_hat = run_cqsm(critic_cfg, lq_ref, np.zeros(6), v0).final_theta
    v_improved = score_params_from_q(theta_hat, lq_ref.lam)

    mc_cfg = AlgoConfig(dt=0.02, n_steps=2500, seed=909)
    base_score = lambda x, a: psi_v(v0, x, a)
    improved_score = lambda x, a: psi_v(v_improved, x, a)
    j_base, se_base = estimate_discounted_return(lq_ref, base_score, mc_cfg, 2000)
    j_imp, se_imp = estimate_discounted_return(lq_ref, improved_score, mc_cfg, 2000)
    pooled = math.sqrt(se_base ** 2 + se_imp ** 2)
    ok = j_imp >= j_base - 2 * pooled
    _report("criterion 8: one score-improvement step does not degrade the return",
            ok, f"baseline {j_base:.4f} (se {se_base:.4f}) -> improved {j_imp:.4f} "
                f"(se {se_imp:.4f})")
    assert ok


DETERMINISM_CONFIG = """
algo.dt = 0.1
algo.n_steps = 2000
algo.record_every = 200
algo.sampler = direct_sde
run.n_seeds = 2
run.base_seed = 3
"""


def test_09_determinism_byte_identical(tmp_path):
    cfg_a = parse_config(DETERMINISM_CONFIG + f"run.output_dir = {tmp_path / 'a'}\n")
    cfg_b = parse_config(DETERMINISM_CONFIG + f"run.output_dir = {tmp_path / 'b'}\n")
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    names = ("seed_3.csv", "seed_4.csv", "summary.csv")
    same = all((tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
               for n in names)

    manifest = (tmp_path / "a" / "manifest.txt").read_text()
    cfg_c = replace(parse_config(manifest), output_dir=str(tmp_path / "c"))
    assert config_hash(cfg_c) == config_hash(cfg_a)
    run_experiment(cfg_c)
    same_manifest = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "c" / n).read_bytes()
        for n in names)
    ok = same and same_manifest
    _report("criterion 9: byte-identical reruns from config and manifest", ok)
    assert ok
