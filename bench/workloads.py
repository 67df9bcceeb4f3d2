"""The benchmark's three workloads, each one closed-loop caller run serially.

A workload turns the benchmark seed into a config text, which is all the
program receives.  ``setup`` is the work a fresh process does before its first
timed call; ``rep`` runs the workload once through cqsm's public API, times
only the calls into the package, checks every output and fingerprints it.

Calls go through module attributes (``experiment.run_experiment``, not a
name imported from it) so that the traced run sees them.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from cqsm import experiment, lq_analytic, martingale, offline, online
from cqsm.sde import SimulationError

# The reference LQ instance (configs/reference.cfg), copied so that the
# benchmark's inputs do not move when that file does.
REFERENCE_LQ = """\
lq.A = -1.0
lq.B = 0.0
lq.C = 0.0
lq.D = 1.0
lq.M = 2.0
lq.N = 2.0
lq.R = 1.0
lq.P = 1.0
lq.Pp = 2.0
lq.beta = 1.0
lq.lambda = 0.1
"""
# The optimum of that instance as published in the README.
PUBLISHED_THETA = np.array([-0.59047134, -0.23069812, -0.46141679,
                            -0.35624157, -0.15119060, 0.17312350])
PUBLISHED_V = np.array([1.52913155, -1.5119060, -3.5624157])
STABLE_COORDS = [0, 1, 4, 5]
N_SEEDS = 5

# Horizons per size; the shapes (samplers, step sizes, rates, seed counts)
# are those of the reference experiment, the offline acceptance test and
# the check-martingale defaults.
SIZES = {
    "full": {"online_steps": 200, "offline_episodes": 5, "martingale_steps": 5000},
    "smoke": {"online_steps": 100, "offline_episodes": 2, "martingale_steps": 500},
}


@dataclass
class Setup:
    """What a fresh process holds before its first timed call."""

    cfg: experiment.ExperimentConfig
    k: lq_analytic.KCoefficients
    theta_star: np.ndarray
    v_star: np.ndarray


def setup(config_path) -> Setup:
    cfg = experiment.load_config(config_path)
    k = lq_analytic.solve_lq(cfg.lq)
    theta_star, v_star = lq_analytic.k_to_optimal_params(k, cfg.lq.lam)
    return Setup(cfg, k, theta_star, v_star)


def setup_failures(s: Setup) -> list:
    """Checks of the closed-form solution every workload starts from."""
    failures = []
    residual = float(np.max(np.abs(lq_analytic.coefficient_residuals(s.k, s.cfg.lq))))
    if not residual < 1e-8:
        failures.append(f"solve_lq coefficient residual {residual:.3g} >= 1e-8")
    err = max(float(np.max(np.abs(s.theta_star - PUBLISHED_THETA))),
              float(np.max(np.abs(s.v_star - PUBLISHED_V))))
    if not err < 1e-5:
        failures.append(f"theta*/v* differ from the published optimum by {err:.3g}")
    return failures


@dataclass
class Rep:
    """One repetition: its timed wall, work done, failures and output digests.

    ``errors`` are units the program itself gave up on (divergence or a
    SimulationError); ``failures`` are outputs that failed a check.
    """

    elapsed_s: float = 0.0
    transitions: int = 0
    attempted: int = 0
    errors: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def _theta_err(final_thetas, theta_star) -> float:
    errors = np.abs(np.asarray(final_thetas) - theta_star)[:, STABLE_COORDS]
    return float(errors.max())


class Workload:
    name = ""
    quality_names = ()
    kernel = "scalar"  # calibration kernel whose instruction mix matches the hot loop

    def __init__(self, seed: int, size: str, out: Path):
        self.seed = seed
        self.sizes = SIZES[size]
        self.out = out
        self.config_path = out / "config.cfg"

    def config_text(self) -> str:
        raise NotImplementedError

    def write_config(self):
        self.out.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(self.config_text(), encoding="utf-8")

    def rep(self, s: Setup) -> Rep:
        raise NotImplementedError


class OnlineLangevin(Workload):
    name = "online-langevin"
    quality_names = ("theta_err_stable", "reward_gap")

    def config_text(self) -> str:
        n_steps = self.sizes["online_steps"]
        return REFERENCE_LQ + f"""\
algo.dt = 0.1
algo.n_steps = {n_steps}
algo.alpha_theta = 0.01
algo.alpha_v = 0.01
algo.sampler = langevin
algo.langevin_dt = 0.01
algo.langevin_steps = 50
algo.record_every = {max(1, n_steps // 100)}
run.n_seeds = {N_SEEDS}
run.base_seed = {N_SEEDS * self.seed}
run.theta0_mode = zeros
run.v0_mode = uniform01
run.output_dir = {self.out / 'run'}
"""

    def rep(self, s: Setup) -> Rep:
        cfg = s.cfg
        out = Path(cfg.output_dir)
        shutil.rmtree(out, ignore_errors=True)
        seeds = list(range(cfg.base_seed, cfg.base_seed + cfg.n_seeds))
        r = Rep(attempted=2 * len(seeds))
        baseline = {}
        t0 = time.perf_counter()
        try:
            summary = experiment.run_experiment(cfg)
        except SimulationError as exc:
            # today any sampler or environment fault aborts every seed
            summary = None
            r.errors += [f"learner seed {seed}: experiment aborted: {exc}" for seed in seeds]
        for seed in seeds:
            frozen = replace(cfg.algo, seed=seed, alpha_theta=0.0, alpha_v=0.0)
            try:
                baseline[seed] = online.run_cqsm(frozen, cfg.lq, s.theta_star, s.v_star)
            except SimulationError as exc:
                r.errors.append(f"baseline seed {seed}: {exc}")
        r.elapsed_s = time.perf_counter() - t0

        n_steps = cfg.algo.n_steps
        if summary is not None:
            r.errors += [f"learner seed {seed}: diverged" for seed in summary.failed_seeds]
            ok_seeds = [seed for seed in seeds if seed not in summary.failed_seeds]
            r.transitions += len(ok_seeds) * n_steps
            for i, seed in enumerate(ok_seeds):
                if not _finite(summary.final_thetas[i], summary.final_vs[i],
                               summary.final_avg_rewards[i]):
                    r.failures.append(f"learner seed {seed}: non-finite theta, v or reward")
            if ok_seeds:
                r.quality["theta_err_stable"] = _theta_err(summary.final_thetas, s.theta_star)
        for seed, rec in baseline.items():
            r.transitions += n_steps
            if not _finite(rec.final_theta, rec.final_v, rec.running_avg):
                r.failures.append(f"baseline seed {seed}: non-finite theta, v or reward")
        if summary is not None and summary.final_avg_rewards.size and baseline:
            learner = float(np.mean(summary.final_avg_rewards))
            frozen_avg = float(np.mean([rec.final_running_avg for rec in baseline.values()]))
            r.quality["reward_gap"] = abs(learner - frozen_avg) / abs(frozen_avg)

        for path in sorted(out.iterdir()) if out.is_dir() else ():
            r.digests[path.name] = _digest(path.read_bytes())
        r.digests["baseline"] = _digest(b"".join(
            np.concatenate([rec.final_theta, rec.final_v, [rec.final_running_avg]]).tobytes()
            for _, rec in sorted(baseline.items())))
        return r


class OfflineEpisodes(Workload):
    name = "offline-episodes"
    quality_names = ("theta_err_stable",)
    kernel = "stepping"

    def config_text(self) -> str:
        episodes = self.sizes["offline_episodes"]
        return REFERENCE_LQ + f"""\
algo.dt = 0.1
algo.n_steps = 500
algo.alpha_theta = 0.02
algo.alpha_v = 0.3
algo.sampler = direct_sde
algo.record_every = {episodes}
run.n_seeds = {N_SEEDS}
run.base_seed = {N_SEEDS * self.seed}
"""

    def rep(self, s: Setup) -> Rep:
        cfg = s.cfg
        episodes = self.sizes["offline_episodes"]
        seeds = list(range(cfg.base_seed, cfg.base_seed + cfg.n_seeds))
        r = Rep(attempted=len(seeds))
        records = {}
        t0 = time.perf_counter()
        for seed in seeds:
            algo = replace(cfg.algo, seed=seed)
            v0 = np.random.default_rng((seed, 1)).uniform(0.0, 1.0, 3)
            try:
                records[seed] = offline.run_offline(algo, cfg.lq, np.zeros(6), v0, episodes)
            except SimulationError as exc:
                r.errors.append(f"seed {seed}: {exc}")
        r.elapsed_s = time.perf_counter() - t0

        for seed, rec in sorted(records.items()):
            r.transitions += episodes * cfg.algo.n_steps
            if not _finite(rec.thetas, rec.vs, rec.reward_rates, rec.running_avg):
                r.failures.append(f"seed {seed}: non-finite theta, v or reward")
            r.digests[f"seed_{seed}"] = _digest(rec.final_theta.tobytes() + rec.final_v.tobytes())
        if records:
            r.quality["theta_err_stable"] = _theta_err(
                [rec.final_theta for rec in records.values()], s.theta_star)
        return r


class MartingaleBatch(Workload):
    name = "martingale-batch"
    quality_names = ()
    kernel = "mixed"
    N_TRAJ = 200
    # As in the acceptance test; the shift is about 20 standard errors at
    # 200 trajectories, so the offset critic is flagged on every seed.
    OFFSET = 0.5
    Z_LIMIT = 4.0

    def config_text(self) -> str:
        return REFERENCE_LQ + f"""\
algo.dt = 0.01
algo.n_steps = {self.sizes['martingale_steps']}
algo.seed = {self.seed}
"""

    def rep(self, s: Setup) -> Rep:
        p, k, algo = s.cfg.lq, s.k, s.cfg.algo
        score = lambda x, a: lq_analytic.optimal_score(k, p.lam, x, a)
        critics = {
            "q_star": lambda x, a: lq_analytic.q_star(k, x, a),
            "q_star_offset": lambda x, a: lq_analytic.q_star(k, x, a) + self.OFFSET,
        }
        r = Rep(attempted=len(critics))
        reports = {}
        t0 = time.perf_counter()
        for name, qfun in critics.items():
            try:
                reports[name] = martingale.orthogonality_residual(
                    qfun, score, martingale.constant_test(), p, algo, self.N_TRAJ)
            except SimulationError as exc:
                r.errors.append(f"{name}: {exc}")
        r.elapsed_s = time.perf_counter() - t0

        for name, report in reports.items():
            r.transitions += self.N_TRAJ * algo.n_steps
            z = report.z_score
            if name == "q_star_offset":
                ok = math.isfinite(z) and abs(z) > self.Z_LIMIT
            else:
                ok = abs(z) < self.Z_LIMIT
            if not ok:
                r.failures.append(f"{name}: z = {z:.4g} on the wrong side of {self.Z_LIMIT}")
            r.digests[name] = _digest(np.array(
                [report.estimate, report.std_error, report.z_score]).tobytes())
        return r


WORKLOADS = {w.name: w for w in (OnlineLangevin, OfflineEpisodes, MartingaleBatch)}
