"""Command-line entry point.

Subcommands: ``run`` (multi-seed experiment), ``solve-lq`` (closed-form
coefficients and optimal parameters), ``check-martingale`` (orthogonality
diagnostic of the analytic optimum), ``sample-actions`` (moments of learner
draws at a fixed state, ``learner.next_action``, the Langevin one continued as
a thinned chain, against the law of the chain the sampler runs: the Langevin
chain's stationary law, the reverse chain's output law; an unstable chain is
refused before any draw).  Both diagnostics run on one ``policy.score_fn``
closure of the optimal score, whose coefficients the laws read and the chains
run on.  Exit codes: 0 success, 1 config error (usage errors included),
2 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .experiment import load_config, run_experiment
from .learner import action_law, next_action
from .lq_analytic import coefficient_residuals, k_to_optimal_params, solve_lq
from .martingale import constant_test, orthogonality_residual
from .policy import q_theta, score_fn
from .samplers import langevin_law, langevin_sample
from .sde import NoiseSource, SimulationError


class _Parser(argparse.ArgumentParser):
    """An argument parser, its subcommands' included, whose usage errors exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cqsm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a multi-seed learning experiment")
    run.add_argument("--config", required=True, help="config or manifest file")
    run.add_argument("--seeds", type=int, default=None, help="override run.n_seeds")
    run.add_argument("--out", default=None, help="override run.output_dir")
    run.add_argument("--parallel", type=int, default=1, help="seeds run concurrently")

    solve = sub.add_parser("solve-lq", help="print the closed-form solution")
    solve.add_argument("--config", required=True)

    mart = sub.add_parser("check-martingale", help="orthogonality z-test of the analytic optimum")
    mart.add_argument("--config", required=True)
    mart.add_argument("--traj", type=int, default=200)
    mart.add_argument("--dt", type=float, default=0.01)
    mart.add_argument("--horizon", type=float, default=50.0)
    mart.add_argument("--seed", type=int, default=0)
    mart.add_argument("--offset", type=float, default=0.0,
                      help="constant added to the tested value function")

    samp = sub.add_parser("sample-actions", help="draw actions at a fixed state")
    samp.add_argument("--config", required=True)
    samp.add_argument("--sampler", choices=["langevin", "ddpm"], default="langevin")
    samp.add_argument("--n", type=int, default=20000)
    samp.add_argument("--x", type=float, default=0.0)
    samp.add_argument("--seed", type=int, default=0)
    samp.add_argument("--out", default=None, help="optional CSV of the samples")
    return parser


def parallel_workers(requested: int, n_seeds: int) -> int:
    """Worker processes for ``run --parallel``: the request, capped at one per
    seed and one per CPU.  A request below 1 is a config error."""
    if requested < 1:
        raise ValueError(f"--parallel must be at least 1, got {requested}")
    return min(requested, n_seeds, os.cpu_count() or 1)


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seeds is not None:
        cfg = replace(cfg, n_seeds=args.seeds)
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    summary = run_experiment(cfg, parallel=parallel_workers(args.parallel, cfg.n_seeds))
    print(f"seeds: {' '.join(str(s) for s in summary.seeds)}")
    if summary.failed_seeds:
        print(f"failed seeds: {' '.join(str(s) for s in summary.failed_seeds)}")
        for seed, reason in zip(summary.failed_seeds, summary.failure_reasons):
            print(f"  seed {seed}: {reason}")
    print("final mean theta: " + " ".join("%.6g" % t for t in summary.theta_mean[-1]))
    print("final mean v:     " + " ".join("%.6g" % t for t in summary.v_mean[-1]))
    print("final mean running avg reward: %.6g" % summary.avg_reward_mean[-1])
    print(f"wrote {cfg.output_dir}/summary.csv and per-seed CSVs")
    return 0


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    k = solve_lq(cfg.lq)
    theta, v = k_to_optimal_params(k, cfg.lq.lam)
    residuals = coefficient_residuals(k, cfg.lq)
    names = ["k0", "k1", "k2", "k3", "k4", "k5"]
    for name, value in zip(names, k.as_array()):
        print(f"{name} = {value:.8g}")
    print("theta_star = " + " ".join("%.8g" % t for t in theta))
    print("v_star     = " + " ".join("%.8g" % t for t in v))
    print("max |residual| = %.3g" % np.max(np.abs(residuals)))
    print("csv:")
    print("name,value")
    for name, value in zip(names, k.as_array()):
        print("%s,%.8g" % (name, value))
    for i, value in enumerate(theta):
        print("theta%d,%.8g" % (i, value))
    for i, value in enumerate(v):
        print("v%d,%.8g" % (i, value))
    return 0


def _check_seed_and_finite(args, flag: str, value: float) -> None:
    """Refuse a negative ``--seed`` and a non-finite ``flag`` value."""
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    if not math.isfinite(value):
        raise ValueError(f"{flag} must be finite, got {value}")


def _check_fits_in_memory(count, bytes_each: float, what: str, layout: str) -> None:
    """Refuse ``count`` items of ``bytes_each`` bytes that physical memory
    cannot hold; ``what`` names them and ``layout`` says how they are stored."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if count > memory / bytes_each:
        raise ValueError(f"{what} do not fit in the {memory} bytes of physical memory "
                         f"({layout})")


def _optimum(path: str):
    """The config at ``path``, its closed-form k and grad_a Q* / lambda as one score_fn closure."""
    cfg = load_config(path)
    k, lam = solve_lq(cfg.lq), cfg.lq.lam
    return cfg, k, score_fn(k.k2 / lam, k.k4 / lam, k.k3 / lam)


def _cmd_martingale(args) -> int:
    _check_seed_and_finite(args, "--offset", args.offset)
    for flag, value in (("--dt", args.dt), ("--horizon", args.horizon)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{flag} must be positive and finite, got {value}")
    if args.traj < 2:
        raise ValueError(f"--traj must be at least 2 for a standard error, got {args.traj}")
    steps = args.horizon / args.dt  # may overflow to inf
    if steps <= 0.5:
        raise ValueError(f"--horizon {args.horizon} / --dt {args.dt} rounds to 0 steps, "
                         "need at least 1")
    if not steps < 2 ** 53:  # float64 holds every grid index k, so its time k dt, exactly
        raise ValueError(f"--horizon {args.horizon} / --dt {args.dt} = {steps:.6g} steps, "
                         "need fewer than 2**53")
    what = f"--traj {args.traj} trajectories of --horizon / --dt = {steps:.6g} steps"
    # the streamed check holds one row block, whose traced peak at 10**5 and
    # 2 * 10**5 trajectories is 18.0 float64 values per trajectory; 20 leaves room
    _check_fits_in_memory(args.traj, 20 * 8, what,
                          "20 float64 values per trajectory for a row block")
    cfg, k, score = _optimum(args.config)
    offset = args.offset
    qfun = lambda x, a: q_theta(k, x, a) + offset
    diag_cfg = replace(cfg.algo, dt=args.dt, n_steps=round(steps), seed=args.seed)
    report = orthogonality_residual(qfun, score, constant_test(), cfg.lq, diag_cfg, args.traj)
    print(f"estimate      = {report.estimate:.6g}")
    print(f"std_error     = {report.std_error:.6g}")
    print(f"trajectories  = {report.n_trajectories}")
    print(f"z_score       = {report.z_score:.4g}")
    print("csv:")
    print("estimate,std_error,n_trajectories,z_score")
    print("%.9g,%.9g,%d,%.9g" % (report.estimate, report.std_error,
                                 report.n_trajectories, report.z_score))
    return 0


def _cmd_sample(args) -> int:
    _check_seed_and_finite(args, "--x", args.x)
    if args.n < 2:
        raise ValueError(f"--n must be at least 2 for a sample variance, got {args.n}")
    _check_fits_in_memory(args.n, 8, f"--n {args.n} samples", "one float64 array of n values")
    cfg, _, score = _optimum(args.config)
    algo, noise = replace(cfg.algo, sampler=args.sampler), NoiseSource(args.seed)
    # laws of the score at x before any draw, so an unstable chain is a config error: a
    # learner draw's from a0, the DDPM target, and the Langevin chain's stationary law at
    # action_law's c0 = v1 x + v2; neither target is the Boltzmann law
    (c1, v1, v2), x = score.coefficients, args.x
    _, draw_mean, draw_var = action_law(algo, score, x, algo.a0, x)
    target_mean, target_var = (langevin_law(algo.langevin_dt, math.inf, algo.a0, c1, v1 * x + v2)
                               if args.sampler == "langevin" else (draw_mean, draw_var))
    # one learner draw burns the Langevin chain in, which then keeps every 10th iterate
    draw = lambda: next_action(algo, score, x, algo.a0, x, noise)
    if args.sampler == "langevin":
        a, samples = draw(), np.empty(args.n)
        for i in range(args.n):
            a = samples[i] = langevin_sample(score, x, a, algo.langevin_dt, 10, noise)
    else:
        samples = np.fromiter((draw() for _ in range(args.n)), float, count=args.n)
    with np.errstate(over="ignore", invalid="ignore"):
        mean, var = float(samples.mean()), float(samples.var(ddof=1))
    for name, value in (("mean", mean), ("variance", var)):
        if not math.isfinite(value):
            raise SimulationError(f"estimator fault: non-finite sample {name} over {args.n} "
                                  "samples")
    # where floats are coarser than the law's spread, the samples round to a
    # few values and their variance says nothing about the chain
    spacing, target_sd = math.ulp(mean), math.sqrt(target_var)
    if not spacing < target_sd:
        raise SimulationError(f"estimator fault: float spacing {spacing:.6g} at the sample "
                              f"mean {mean:.6g} is not below the target standard deviation "
                              f"{target_sd:.6g}")
    if args.sampler == "langevin":
        # a fixed burn-in from a0 far from the target leaves the samples in transit
        gap = abs(draw_mean - target_mean) / target_sd
        if not gap < 1.0:
            raise SimulationError(f"burn-in fault: after algo.langevin_steps = "
                                  f"{algo.langevin_steps} steps from algo.a0 = {algo.a0:.6g} "
                                  f"the chain's mean {draw_mean:.6g} is {gap:.3g} target "
                                  f"standard deviations from the target mean {target_mean:.6g}")
    print(f"sampler        = {args.sampler}")
    print(f"samples        = {args.n}")
    print(f"empirical mean = {mean:.6g}   (target {target_mean:.6g})")
    print(f"empirical var  = {var:.6g}   (target {target_var:.6g})")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            np.savetxt(fh, samples, fmt="%.9g", header="a", comments="")
        print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "solve-lq": _cmd_solve,
        "check-martingale": _cmd_martingale,
        "sample-actions": _cmd_sample,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
