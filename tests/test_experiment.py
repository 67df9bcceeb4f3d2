import functools
import os
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cqsm.cli as cli
import cqsm.experiment as experiment
import cqsm.online as online
from cqsm.cli import main as cli_main, parallel_workers
from cqsm.experiment import (ConfigError, ExperimentConfig, config_hash, format_config,
                             parse_config, run_experiment)
from cqsm.lq import LqParams
from cqsm.lq_analytic import k_to_optimal_params, optimal_score
from cqsm.martingale import ResidualReport, estimate_discounted_return
from cqsm.online import AlgoConfig, DivergenceError, run_cqsm
from cqsm.policy import psi_v
from cqsm.sde import SimulationError
from _oracles import two_pass_mean_std

REFERENCE = (Path(__file__).resolve().parent.parent / "configs" / "reference.cfg").read_text()

SMALL_CONFIG = """
# comment lines and blanks are ignored
lq.A = -1.0

algo.dt = 0.1
algo.n_steps = 400
algo.record_every = 100
algo.sampler = direct_sde
run.n_seeds = 2
run.base_seed = 0
run.output_dir = {out}
"""


def test_parse_config_defaults_match_reference(lq_ref):
    cfg = parse_config("")
    assert cfg.lq == lq_ref
    assert cfg.algo.dt == 0.1
    assert cfg.algo.beta == lq_ref.beta
    assert cfg.algo.lam == lq_ref.lam


def test_parse_config_overrides_and_mirroring():
    cfg = parse_config("lq.beta = 2.0\nlq.lambda = 0.5\n")
    assert cfg.lq.beta == 2.0
    assert cfg.algo.beta == 2.0  # mirrors the environment unless overridden
    assert cfg.algo.lam == 0.5
    cfg2 = parse_config("lq.beta = 2.0\nalgo.beta = 3.0\n")
    assert cfg2.algo.beta == 3.0


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("lq.Z = 1.0\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("foo.bar = 1\n")
    with pytest.raises(ConfigError, match="section prefix"):
        parse_config("dt = 0.1\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("algo.dt = fast\n")
    with pytest.raises(ConfigError):
        parse_config("algo.dt 0.1\n")


def test_parse_config_explicit_vectors():
    text = ("run.theta0_mode = explicit\n"
            "run.theta0 = 0,0,0,0,0,0.5\n"
            "run.v0_mode = explicit\n"
            "run.v0 = 1.5,-1.5,-3.5\n")
    cfg = parse_config(text)
    assert cfg.theta0 == (0, 0, 0, 0, 0, 0.5)
    assert cfg.v0 == (1.5, -1.5, -3.5)
    with pytest.raises(ConfigError, match="theta0"):
        parse_config("run.theta0_mode = explicit\n")


def test_configs_check_themselves_when_built():
    with pytest.raises(ValueError, match="^dt must be positive$"):
        AlgoConfig(dt=0.0)
    cfg = parse_config("")
    with pytest.raises(ConfigError, match="^run.n_seeds must be at least 1$"):
        replace(cfg, n_seeds=0)
    with pytest.raises(ValueError, match="^record_every must be at least 1$"):
        replace(cfg.algo, record_every=0)


def test_configs_hold_no_cached_property():
    # a cached_property's first read slows every later attribute load on the
    # instance, so the DDPM schedule is set when the config is built
    for cls in (LqParams, AlgoConfig, ExperimentConfig):
        cached = [name for name, value in vars(cls).items()
                  if isinstance(value, functools.cached_property)]
        assert cached == [], cls.__name__
    assert "ddpm_schedule" in vars(AlgoConfig())


def test_config_with_several_faults_names_the_algo_fault_first():
    # the algo.* section is checked as it is built, before the run.* fields
    with pytest.raises(ConfigError, match="^dt must be positive$"):
        parse_config("algo.dt = 0\nrun.n_seeds = 0\n")


@pytest.mark.parametrize("text, message", [
    ("run.theta0 = 1,2,3,4,5,6\n",
     "run.theta0 is read only when run.theta0_mode = explicit, got run.theta0_mode = zeros"),
    ("run.v0 = 1,2,3\n",
     "run.v0 is read only when run.v0_mode = explicit, got run.v0_mode = uniform01"),
    ("run.theta0_mode = zeros\nrun.theta0 = 0,0,0,0,0,0.5\nrun.v0_mode = explicit\nrun.v0 = 1,2,3\n",
     "run.theta0 is read only when run.theta0_mode = explicit, got run.theta0_mode = zeros"),
], ids=["theta0", "v0", "theta0-beside-explicit-v0"])
def test_parse_config_refuses_a_start_vector_its_mode_ignores(text, message):
    with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
        parse_config(text)


def test_empty_output_dir_is_refused(tmp_path, monkeypatch, capsys):
    message = "run.output_dir must name a directory, got ''"
    with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
        parse_config("run.output_dir =\n")
    monkeypatch.chdir(tmp_path)
    path = _write_config(tmp_path)
    before = sorted(os.listdir(tmp_path))
    assert cli_main(["run", "--config", str(path), "--out", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"
    assert sorted(os.listdir(tmp_path)) == before


def test_format_parse_round_trip():
    cfg = parse_config("lq.A = -1.5\nalgo.dt = 0.05\nrun.n_seeds = 3\n")
    text = format_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert format_config(again) == text


def test_config_hash_ignores_output_dir():
    a = parse_config("run.output_dir = here\n")
    b = parse_config("run.output_dir = there\n")
    assert config_hash(a) == config_hash(b)
    c = parse_config("algo.dt = 0.2\n")
    assert config_hash(a) != config_hash(c)


_LQ_TEXT = ("lq.A = -1.0\nlq.B = 0.0\nlq.C = 0.0\nlq.D = 1.0\nlq.M = 2.0\nlq.N = 2.0\n"
            "lq.P = 1.0\nlq.Pp = 2.0\nlq.R = 1.0\nlq.beta = 1.0\nlq.lambda = 0.1\n")
_ALGO_TEXT = ("algo.a0 = 0.0\nalgo.alpha_theta = 0.01\nalgo.alpha_v = 0.01\nalgo.beta = 1.0\n"
              "algo.ddpm_beta_end = 0.19\nalgo.ddpm_beta_start = 0.001\nalgo.ddpm_steps = 20\n"
              "algo.dt = 0.1\nalgo.lambda = 0.1\nalgo.langevin_dt = 0.01\n"
              "algo.langevin_steps = {langevin_steps}\nalgo.n_steps = 100000\n"
              "algo.record_every = {record_every}\nalgo.sampler = {sampler}\nalgo.seed = 0\n"
              "algo.x0 = 0.0\n")
_RUN_TEXT = ("run.base_seed = 0\nrun.n_seeds = 5\nrun.output_dir = {output_dir}\n"
             "run.theta0_mode = zeros\nrun.v0_mode = uniform01\n")

# The canonical text and hash of the reference config and of the empty config
# (every key at its default).  The manifest and config_sha256 of every run are
# made of these bytes.
CANONICAL = {
    "reference": (
        _LQ_TEXT
        + _ALGO_TEXT.format(langevin_steps=50, record_every=1000, sampler="langevin")
        + _RUN_TEXT.format(output_dir="runs/reference"),
        "a026aeef469a032fee07691fffff7059f083ef23257d507b896969db142b0365"),
    "empty": (
        _LQ_TEXT
        + _ALGO_TEXT.format(langevin_steps=2000, record_every=100, sampler="direct_sde")
        + _RUN_TEXT.format(output_dir="runs"),
        "89ef98a3769da8cfad9aa40fee06b3bd9d7ff5289b550cc125a8f8d9a891621a"),
}


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_format_config_and_hash_are_pinned(name):
    text = REFERENCE if name == "reference" else ""
    cfg = parse_config(text)
    want_text, want_hash = CANONICAL[name]
    assert format_config(cfg) == want_text
    assert config_hash(cfg) == want_hash


def test_format_config_writes_vectors_and_overrides():
    cfg = parse_config("algo.lambda = 0.25\nrun.theta0_mode = explicit\n"
                       "run.theta0 = 0,0,0,0,0,0.5\nrun.v0_mode = explicit\nrun.v0 = 1.5,-1.5,-3.5\n")
    lines = format_config(cfg).splitlines()
    assert len(lines) == 34  # 11 lq, 16 algo and 7 run keys
    assert "lq.lambda = 0.1" in lines
    assert "algo.lambda = 0.25" in lines
    assert lines[-4:] == ["run.theta0 = 0.0,0.0,0.0,0.0,0.0,0.5", "run.theta0_mode = explicit",
                          "run.v0 = 1.5,-1.5,-3.5", "run.v0_mode = explicit"]


def test_run_experiment_single_seed(tmp_path, lq_ref):
    cfg = parse_config(SMALL_CONFIG.format(out=tmp_path / "run") + "run.n_seeds = 1\n")
    summary = run_experiment(cfg)
    assert (tmp_path / "run" / "seed_0.csv").exists()
    assert (tmp_path / "run" / "summary.csv").exists()
    assert (tmp_path / "run" / "manifest.txt").exists()
    # with one seed the summary bands collapse onto the record
    rec = run_cqsm(AlgoConfig(dt=0.1, n_steps=400, record_every=100, seed=0),
                   lq_ref, np.zeros(6),
                   np.random.default_rng((0, 1)).uniform(0, 1, 3))
    np.testing.assert_allclose(summary.theta_mean, rec.thetas, rtol=1e-12)
    assert np.all(summary.theta_std == 0.0)


def test_run_experiment_byte_identical_and_manifest_rerun(tmp_path):
    cfg_a = parse_config(SMALL_CONFIG.format(out=tmp_path / "a"))
    cfg_b = parse_config(SMALL_CONFIG.format(out=tmp_path / "b"))
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    for name in ("seed_0.csv", "seed_1.csv", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    # the manifest parses as a config and reproduces the same outputs
    manifest = (tmp_path / "a" / "manifest.txt").read_text()
    cfg_c = parse_config(manifest)
    cfg_c = experiment.replace(cfg_c, output_dir=str(tmp_path / "c"))
    run_experiment(cfg_c)
    for name in ("seed_0.csv", "seed_1.csv", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()


def test_record_csv_schema(tmp_path):
    cfg = parse_config(SMALL_CONFIG.format(out=tmp_path / "run"))
    run_experiment(cfg)
    lines = (tmp_path / "run" / "seed_0.csv").read_text().splitlines()
    assert lines[0] == ("step,t,theta0,theta1,theta2,theta3,theta4,theta5,"
                        "v0,v1,v2,reward_rate,running_avg_reward")
    assert len(lines) == 1 + 5  # records at steps 0, 100, 200, 300, 400
    summary_header = (tmp_path / "run" / "summary.csv").read_text().splitlines()[0]
    assert summary_header.startswith("step,t,theta0_mean,theta0_lo,theta0_hi")
    assert summary_header.endswith(
        "running_avg_reward_mean,running_avg_reward_lo,running_avg_reward_hi")


def test_summary_statistics_match_two_pass_reference(tmp_path, lq_ref):
    cfg = parse_config(SMALL_CONFIG.format(out=tmp_path / "run") + "run.n_seeds = 4\n")
    summary = run_experiment(cfg)
    records = []
    for seed in range(4):
        algo = AlgoConfig(dt=0.1, n_steps=400, record_every=100, seed=seed)
        v0 = np.random.default_rng((seed, 1)).uniform(0, 1, 3)
        records.append(run_cqsm(algo, lq_ref, np.zeros(6), v0))
    stack = np.stack([r.thetas for r in records])
    mean_ref, std_ref = two_pass_mean_std(stack)
    np.testing.assert_allclose(summary.theta_mean, mean_ref, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(summary.theta_std, std_ref, rtol=1e-12, atol=1e-14)


def test_divergent_seed_recorded_not_fatal(tmp_path, monkeypatch, lq_ref):
    real_run = experiment.run_cqsm

    def flaky(algo, p, theta0, v0):
        if algo.seed == 1:
            raise DivergenceError("boom")
        return real_run(algo, p, theta0, v0)

    monkeypatch.setattr(experiment, "run_cqsm", flaky)
    cfg = parse_config(SMALL_CONFIG.format(out=tmp_path / "run"))
    summary = run_experiment(cfg)
    assert summary.failed_seeds == (1,)
    assert not (tmp_path / "run" / "seed_1.csv").exists()
    manifest = (tmp_path / "run" / "manifest.txt").read_text()
    assert "# failed_seeds: 1" in manifest


def test_rerun_with_a_failed_seed_leaves_no_stale_seed_csv(tmp_path, monkeypatch):
    cfg = parse_config(SMALL_CONFIG.format(out=tmp_path / "run"))
    run_experiment(cfg)
    assert (tmp_path / "run" / "seed_1.csv").exists()

    real_run = experiment.run_cqsm

    def flaky(algo, p, theta0, v0):
        if algo.seed == 1:
            raise DivergenceError("boom")
        return real_run(algo, p, theta0, v0)

    monkeypatch.setattr(experiment, "run_cqsm", flaky)
    assert run_experiment(cfg).failed_seeds == (1,)
    assert (tmp_path / "run" / "seed_0.csv").exists()
    assert not (tmp_path / "run" / "seed_1.csv").exists()
    assert "# failed_seeds: 1\n" in (tmp_path / "run" / "manifest.txt").read_text()


def test_rerun_whose_seeds_all_fail_leaves_no_stale_artifact(tmp_path, monkeypatch):
    cfg = parse_config(SMALL_CONFIG.format(out=tmp_path / "run"))
    run_experiment(cfg)
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "manifest.txt", "seed_0.csv", "seed_1.csv", "summary.csv"]

    def failing(algo, p, theta0, v0):
        raise DivergenceError("boom")

    monkeypatch.setattr(experiment, "run_cqsm", failing)
    with pytest.raises(DivergenceError, match="every seed failed"):
        run_experiment(cfg)
    assert list((tmp_path / "run").iterdir()) == []


def test_sampler_fault_stays_inside_its_seed(tmp_path, monkeypatch, capsys):
    real_run = experiment.run_cqsm

    def faulty(algo, p, theta0, v0):
        if algo.seed == 1:
            raise SimulationError("sampler fault: non-finite action at step 47")
        return real_run(algo, p, theta0, v0)

    monkeypatch.setattr(experiment, "run_cqsm", faulty)
    path = tmp_path / "config.cfg"
    path.write_text(SMALL_CONFIG.format(out=tmp_path / "run").replace(
        "run.n_seeds = 2", "run.n_seeds = 3"))
    summary = run_experiment(parse_config(path.read_text()))
    assert summary.failed_seeds == (1,)
    assert summary.failure_reasons == ("sampler fault: non-finite action at step 47",)
    assert (tmp_path / "run" / "seed_0.csv").exists()
    assert (tmp_path / "run" / "seed_2.csv").exists()
    assert not (tmp_path / "run" / "seed_1.csv").exists()
    assert "# failed_seeds: 1\n" in (tmp_path / "run" / "manifest.txt").read_text()
    # the CLI names the reason under the failed seed
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "cli")]) == 0
    out = capsys.readouterr().out
    assert "failed seeds: 1\n  seed 1: sampler fault: non-finite action at step 47\n" in out


def test_initial_sampler_fault_names_the_seed(tmp_path, capsys):
    # v0 = 20 makes the initial Langevin chain blow up before the first step
    path = tmp_path / "config.cfg"
    path.write_text(SMALL_CONFIG.format(out=tmp_path / "run")
                    + "algo.sampler = langevin\nalgo.langevin_steps = 50\n"
                    + "run.v0_mode = explicit\nrun.v0 = 20,0,0\n")
    assert cli_main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "every seed failed" in err
    assert "run with seed 0: sampler fault" in err
    assert "run with seed 1: sampler fault" in err


def test_all_seeds_divergent_raises(tmp_path, monkeypatch):
    def always_fail(algo, p, theta0, v0):
        raise DivergenceError("boom")

    monkeypatch.setattr(experiment, "run_cqsm", always_fail)
    cfg = parse_config(SMALL_CONFIG.format(out=tmp_path / "run"))
    with pytest.raises(DivergenceError):
        run_experiment(cfg)


def test_parallel_matches_serial(tmp_path):
    cfg_a = parse_config(SMALL_CONFIG.format(out=tmp_path / "serial"))
    cfg_b = parse_config(SMALL_CONFIG.format(out=tmp_path / "parallel"))
    run_experiment(cfg_a, parallel=1)
    run_experiment(cfg_b, parallel=2)
    for name in ("seed_0.csv", "seed_1.csv", "summary.csv"):
        assert ((tmp_path / "serial" / name).read_bytes()
                == (tmp_path / "parallel" / name).read_bytes())


def test_discounted_return_common_random_numbers(k_ref, lq_ref, opt_params):
    _, v_star = opt_params
    cfg = AlgoConfig(dt=0.05, n_steps=200, seed=5)
    opt = lambda x, a: optimal_score(k_ref, lq_ref.lam, x, a)
    weak = lambda x, a: psi_v(np.zeros(3), x, a)
    est_opt1, se1 = estimate_discounted_return(lq_ref, opt, cfg, 500)
    est_opt2, _ = estimate_discounted_return(lq_ref, opt, cfg, 500)
    assert est_opt1 == est_opt2  # identical seeds reuse identical noise
    est_weak, se2 = estimate_discounted_return(lq_ref, weak, cfg, 500)
    assert est_opt1 > est_weak  # the optimal score dominates


@pytest.mark.parametrize("n_traj", [0, 1])
def test_discounted_return_refuses_fewer_than_two_trajectories(lq_ref, n_traj):
    score = lambda x, a: psi_v(np.zeros(3), x, a)
    with pytest.raises(ValueError, match="^n_traj must be at least 2$"):
        estimate_discounted_return(lq_ref, score, AlgoConfig(dt=0.05, n_steps=20), n_traj)


# -- command line ------------------------------------------------------------

def _write_config(tmp_path, extra=""):
    path = tmp_path / "config.cfg"
    path.write_text("algo.n_steps = 300\nalgo.record_every = 100\n"
                    "run.n_seeds = 1\nrun.output_dir = "
                    + str(tmp_path / "out") + "\n" + extra)
    return path


def _assert_refused_before_the_run(tmp_path, capsys, extra, message):
    """Config lines ``extra`` fail ``parse_config`` and ``cqsm run`` with
    ``message``, and the run creates no output directory."""
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(extra)
    path = _write_config(tmp_path, extra)
    assert cli_main(["run", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


# A schedule is built and checked with every config, so ddpm_* values that
# form none are refused under any sampler, before the output directory exists.
@pytest.mark.parametrize("extra, message", [
    ("algo.sampler = ddpm\nalgo.ddpm_steps = 8000\n",
     "ddpm_steps = 8000, ddpm_beta_start = 0.001, ddpm_beta_end = 0.19 form no noise schedule: "
     "alpha_bars must be strictly decreasing"),
    ("algo.ddpm_steps = 8000\n",
     "ddpm_steps = 8000, ddpm_beta_start = 0.001, ddpm_beta_end = 0.19 form no noise schedule: "
     "alpha_bars must be strictly decreasing"),
    ("algo.ddpm_steps = 0\n",
     "ddpm_steps = 0, ddpm_beta_start = 0.001, ddpm_beta_end = 0.19 form no noise schedule: "
     "t_steps must be at least 1"),
    ("algo.ddpm_beta_start = 0.3\nalgo.ddpm_beta_end = 0.2\n",
     "ddpm_steps = 20, ddpm_beta_start = 0.3, ddpm_beta_end = 0.2 form no noise schedule: "
     "need 0 < beta_start <= beta_end < 1"),
], ids=["ddpm-8000", "default-sampler-8000", "zero-steps", "start-above-end"])
def test_config_that_forms_no_ddpm_schedule_is_refused(tmp_path, capsys, extra, message):
    _assert_refused_before_the_run(tmp_path, capsys, extra, message)


def test_config_whose_ddpm_schedule_cannot_be_allocated_is_refused(monkeypatch):
    # stands in for algo.ddpm_steps = 10**12, whose 8 TB schedule numpy refuses
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 7.28 TiB")
    monkeypatch.setattr(online, "make_linear_schedule", out_of_memory)
    message = ("ddpm_steps = 20, ddpm_beta_start = 0.001, ddpm_beta_end = 0.19 form no noise "
               "schedule: Unable to allocate 7.28 TiB")
    with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
        parse_config("")


def test_cli_solve_lq_prints_reference_values(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert cli_main(["solve-lq", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "theta_star = -0.59047134" in out
    assert "v_star     = 1.52913" in out
    assert "k0,-0.59047134" in out


def test_cli_solve_lq_overflow_is_a_numerical_failure(tmp_path, capsys):
    # squaring these coefficients overflows; the residuals are inf, not a traceback
    path = tmp_path / "huge.cfg"
    path.write_text("lq.M = 1e300\nlq.lambda = 1e10\n")
    assert cli_main(["solve-lq", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical failure: no concave quadratic solution found; "
                            "the parameters may not admit a well-posed value function\n")


def test_cli_rejects_invalid_discount(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("lq.A = 1.0\nlq.beta = 0.5\n")
    assert cli_main(["solve-lq", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "beta" in err and "2*A + C^2" in err


@pytest.mark.parametrize("line, message", [
    ("lq.B = nan", "B must be finite, got nan"),
    ("lq.R = inf", "R must be finite, got inf"),
    ("lq.lambda = -inf", "lam must be finite, got -inf"),
    ("algo.dt = nan", "dt must be finite, got nan"),
    ("algo.x0 = nan", "x0 must be finite, got nan"),
    ("algo.ddpm_beta_end = inf", "ddpm_beta_end must be finite, got inf"),
    ("algo.seed = -1", "seed must be nonnegative, got -1"),
    ("run.base_seed = -3", "run.base_seed must be nonnegative, got -3"),
    ("run.theta0 = 0,0,0,0,0,nan", "run.theta0 must be finite, got (0.0, 0.0, 0.0, 0.0, 0.0, nan)"),
    ("run.v0 = inf,0,0", "run.v0 must be finite, got (inf, 0.0, 0.0)"),
])
def test_config_refuses_non_finite_values_and_negative_seeds(tmp_path, capsys, line, message):
    _assert_refused_before_the_run(tmp_path, capsys, line + "\n", message)


@pytest.mark.parametrize("argv, message", [
    (["check-martingale", "--seed", "-1"], "--seed must be nonnegative, got -1"),
    (["check-martingale", "--offset", "nan"], "--offset must be finite, got nan"),
    (["check-martingale", "--offset", "inf"], "--offset must be finite, got inf"),
    (["sample-actions", "--seed", "-2"], "--seed must be nonnegative, got -2"),
    (["sample-actions", "--x", "nan"], "--x must be finite, got nan"),
    (["sample-actions", "--x=-inf"], "--x must be finite, got -inf"),
], ids=["martingale-seed", "offset-nan", "offset-inf", "sample-seed", "x-nan", "x-inf"])
def test_cli_refuses_negative_seeds_and_non_finite_points(tmp_path, capsys, argv, message):
    path = _write_config(tmp_path)
    assert cli_main(argv + ["--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


def test_cli_missing_config_file(tmp_path, capsys):
    assert cli_main(["solve-lq", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_cli_run_and_overrides(tmp_path, capsys):
    path = _write_config(tmp_path)
    code = cli_main(["run", "--config", str(path), "--seeds", "2",
                     "--out", str(tmp_path / "cli_out")])
    assert code == 0
    assert (tmp_path / "cli_out" / "seed_1.csv").exists()
    out = capsys.readouterr().out
    assert "final mean running avg reward" in out


@pytest.mark.parametrize("value", ["0", "-3"])
def test_cli_run_rejects_parallel_below_one(tmp_path, capsys, value):
    path = _write_config(tmp_path)
    assert cli_main(["run", "--config", str(path), "--parallel", value]) == 1
    assert f"--parallel must be at least 1, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_parallel_workers_clamped_to_seeds_and_cpus(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert parallel_workers(1, 5) == 1
    assert parallel_workers(3, 5) == 3
    assert parallel_workers(64, 5) == 4
    assert parallel_workers(64, 2) == 2
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert parallel_workers(8, 5) == 1
    with pytest.raises(ValueError):
        parallel_workers(0, 5)


def test_cli_check_martingale(tmp_path, capsys):
    path = _write_config(tmp_path)
    code = cli_main(["check-martingale", "--config", str(path),
                     "--traj", "60", "--dt", "0.02", "--horizon", "10"])
    assert code == 0
    out = capsys.readouterr().out
    assert "z_score" in out
    assert "estimate,std_error,n_trajectories,z_score" in out


@pytest.mark.parametrize("flag, value", [
    ("--dt", "0"), ("--dt", "-0.01"), ("--dt", "nan"), ("--dt", "inf"),
    ("--horizon", "0"), ("--horizon", "-5"), ("--horizon", "nan"), ("--horizon", "inf")])
def test_cli_check_martingale_rejects_bad_grid(tmp_path, capsys, flag, value):
    path = _write_config(tmp_path)
    code = cli_main(["check-martingale", "--config", str(path), "--traj", "5", flag, value])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: {flag} must be positive and finite, "
                            f"got {float(value)}\n")


@pytest.mark.parametrize("horizon", ["0.4", "0.5"])
def test_cli_check_martingale_rejects_a_grid_of_no_steps(tmp_path, capsys, horizon):
    path = _write_config(tmp_path)
    code = cli_main(["check-martingale", "--config", str(path), "--traj", "5",
                     "--dt", "1", "--horizon", horizon])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: --horizon {float(horizon)} / --dt 1.0 rounds to "
                            "0 steps, need at least 1\n")


@pytest.mark.parametrize("traj", ["1", "0", "-3"])
def test_cli_check_martingale_rejects_fewer_than_two_trajectories(tmp_path, capsys, traj):
    path = _write_config(tmp_path)
    code = cli_main(["check-martingale", "--config", str(path), "--traj", traj])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: --traj must be at least 2 for a standard error, "
                            f"got {traj}\n")


# Refused before anything is simulated: past 2**53 steps a grid index is not
# exact in float64, and an infinite step count cannot be rounded.
@pytest.mark.parametrize("dt, horizon, steps", [
    ("1e-300", "1", "1e+300"), ("1e-300", "1e300", "inf"), ("1", str(2 ** 53), "9.0072e+15")],
    ids=["tiny-dt", "inf-steps", "2**53-steps"])
def test_cli_check_martingale_rejects_a_step_count_beyond_float64(tmp_path, capsys, dt,
                                                                  horizon, steps):
    path = _write_config(tmp_path)
    code = cli_main(["check-martingale", "--config", str(path), "--traj", "5",
                     "--dt", dt, "--horizon", horizon])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: --horizon {float(horizon)} / --dt {float(dt)} = "
                            f"{steps} steps, need fewer than 2**53\n")


# Each batch is refused before anything is simulated or allocated.
@pytest.mark.parametrize("traj, dt, horizon", [
    (str(10 ** 12), "0.01", "50"), (str(10 ** 400), "0.1", "1")], ids=["1e12-traj", "1e400-traj"])
def test_cli_check_martingale_rejects_a_grid_beyond_memory(tmp_path, capsys, traj, dt, horizon):
    path = _write_config(tmp_path)
    code = cli_main(["check-martingale", "--config", str(path), "--traj", traj,
                     "--dt", dt, "--horizon", horizon])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: --traj {traj} trajectories of "
                                   "--horizon / --dt = ")
    assert "bytes of physical memory" in captured.err
    assert captured.err.endswith("(20 float64 values per trajectory for a row block)\n")


# 2e7 and 2e11 steps: the rule counts 2000 trajectories' row block, not three
# grids of 320 GB or 3.2 PB; the stub keeps anything from being simulated
@pytest.mark.parametrize("horizon, n_steps", [("2e5", 20_000_000), ("2e9", 200_000_000_000)])
def test_cli_check_martingale_passes_a_long_grid_it_streams(tmp_path, capsys, monkeypatch,
                                                            horizon, n_steps):
    calls = []

    def residual(qfun, score, test_fn, p, cfg, n_traj):
        calls.append((cfg.n_steps, cfg.dt, n_traj))
        return ResidualReport(0.0, 1.0, n_traj, 0.0)

    monkeypatch.setattr(cli, "orthogonality_residual", residual)
    path = _write_config(tmp_path)
    assert cli_main(["check-martingale", "--config", str(path), "--traj", "2000",
                     "--horizon", horizon, "--dt", "0.01"]) == 0
    assert calls == [(n_steps, 0.01, 2000)]
    assert capsys.readouterr().out.splitlines()[-1] == "0,1,2000,0"


def test_cli_check_martingale_overflow_is_a_numerical_failure_without_warnings(capsys):
    # dt 100 drives the reference rollouts past float64 at step 58; the fault
    # reaches the user as one line and exit code 2, not a numpy RuntimeWarning
    path = Path(__file__).resolve().parent.parent / "configs" / "reference.cfg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_main(["check-martingale", "--config", str(path), "--traj", "4",
                         "--dt", "100", "--horizon", "1e5"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("numerical failure: step 58, trajectory 0: reward evaluated "
                                   "to a non-finite value")


def test_cli_check_martingale_overflowing_mean_is_a_numerical_failure_without_warnings(capsys):
    # each of the four orthogonality sums is finite (about -6.3e307); their mean is not
    path = Path(__file__).resolve().parent.parent / "configs" / "reference.cfg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_main(["check-martingale", "--config", str(path), "--offset", "1e308",
                         "--traj", "4", "--horizon", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: estimator fault: non-finite mean over 4 trajectories\n"


def _martingale_estimate(capsys, path):
    assert cli_main(["check-martingale", "--config", str(path), "--traj", "20",
                     "--dt", "0.05", "--horizon", "2"]) == 0
    return float(capsys.readouterr().out.splitlines()[-1].split(",")[0])


def test_cli_check_martingale_starts_at_the_config_x0(tmp_path, capsys):
    at_zero = _martingale_estimate(capsys, _write_config(tmp_path))
    assert at_zero == _martingale_estimate(capsys, _write_config(tmp_path, "algo.x0 = 0.0\n"))
    assert at_zero != _martingale_estimate(capsys, _write_config(tmp_path, "algo.x0 = 2.0\n"))


@pytest.mark.parametrize("n", ["1", "0", "-4"])
def test_cli_sample_actions_rejects_fewer_than_two(tmp_path, capsys, n):
    path = _write_config(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_main(["sample-actions", "--config", str(path), "--n", n])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: --n must be at least 2 for a sample variance, got {n}\n"


# Refused before any draw; at --n 10**12 the sample array alone would need 8 TB.
@pytest.mark.parametrize("n", [str(10 ** 12), str(10 ** 400)], ids=["1e12", "1e400"])
def test_cli_sample_actions_rejects_samples_beyond_memory(tmp_path, capsys, n):
    path = _write_config(tmp_path)
    assert cli_main(["sample-actions", "--config", str(path), "--n", n]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: --n {n} samples do not fit in the ")
    assert captured.err.endswith(" bytes of physical memory (one float64 array of n values)\n")


def test_cli_sample_actions_ddpm_target_is_the_chain_law(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert cli_main(["sample-actions", "--config", str(path), "--sampler", "ddpm",
                     "--n", "200"]) == 0
    out = capsys.readouterr().out
    assert "(target -0.785552)" in out.splitlines()[2]
    assert out.splitlines()[3].endswith("(target 0.0153781)")


def test_cli_sample_actions_langevin_target_is_the_chain_law(tmp_path, capsys):
    # the unadjusted chain at step 0.01 is stationary at variance 0.221842, not
    # at the Boltzmann variance 0.216724
    path = _write_config(tmp_path)
    assert cli_main(["sample-actions", "--config", str(path), "--sampler", "langevin",
                     "--n", "200"]) == 0
    out = capsys.readouterr().out
    assert "(target -0.77206)" in out.splitlines()[2]
    assert out.splitlines()[3].endswith("(target 0.221842)")


def test_cli_sample_actions(tmp_path, capsys):
    path = _write_config(tmp_path, extra="algo.langevin_steps = 200\n")
    code = cli_main(["sample-actions", "--config", str(path),
                     "--sampler", "langevin", "--n", "500",
                     "--out", str(tmp_path / "samples.csv")])
    assert code == 0
    out = capsys.readouterr().out
    assert "empirical mean" in out
    assert (tmp_path / "samples.csv").read_text().startswith("a\n")
