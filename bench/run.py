"""cqsm benchmark: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the repository root it sits in, importing cqsm from
that root's ``src``, in this single process pinned to one CPU (no
``--parallel``).  All times are rescaled to a reference machine speed by the
calibration kernels of calibration.py; the report also prints them unscaled.

--trace 0 measures the end-to-end metrics: ``setup_s`` (median over fresh
processes, see setup_probe.py), ``steps_per_s`` (median over repetitions run
until --seconds have passed, at least two) and ``peak_rss_mb``.  It also
prints the quality metrics ``failed_frac``, ``theta_err_stable`` and
``reward_gap``, "absent" where a metric does not apply.

--trace 1 measures the per-layer metrics: the isolated per-call rows of
layers.py, then untraced and traced repetitions in turn (tracer.py) for the
per-module self time, call and variate counts and the tracing overhead.

Every output is checked (see workloads.py) and fingerprinted with SHA-256;
repetitions of one config, traced or not, must give equal digests.  Units
are the workload's seeds or batches plus one for the closed-form set-up
check.  A unit fails when the program gives up on it (divergence or a
SimulationError, reported on stderr as UNIT FAILED) or when its output
fails a check (CHECK FAILED).  The last line of standard output is one JSON
object: correct (no check failed), attempted, failed (units), metrics.  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; set-up probes inherit them.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
from collections import Counter  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import bracketed, rescaled_starts  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = {"full": 11, "smoke": 2}
LAYER_SCALE = {"full": 1.0, "smoke": 0.02}
QUALITY_UNITS = {"failed_frac": "ratio", "theta_err_stable": "abs", "reward_gap": "ratio"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["online-langevin", "offline-episodes", "martingale-batch"])
    parser.add_argument("--seed", type=int, required=True, help="workload seed, >= 0")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full",
                        help="smoke shrinks every horizon for the benchmark's own test")
    parser.add_argument("--out", default=None,
                        help="scratch directory (default .bench_out/<workload>)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def _import_program():
    """Import cqsm from this checkout's src, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "cqsm" / "__init__.py").is_file():
        sys.exit(f"bench: no cqsm package under {src}")
    sys.path.insert(0, str(src))
    import cqsm
    if Path(cqsm.__file__).resolve().parent != (src / "cqsm").resolve():
        sys.exit(f"bench: imported cqsm from {cqsm.__file__}, not from {src}")


def _environment():
    import numpy
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _setup_seconds(config_path, repeats: int):
    """Median time from spawning a fresh process to its first timed call:
    rescaled to the reference speed, and unscaled."""
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT), str(config_path)]
    scaled, raw = rescaled_starts(probe, repeats)
    return statistics.median(scaled), statistics.median(raw)


def _digest_mismatches(reps) -> list:
    first = reps[0].digests
    return [f"repetition {i}: output digests differ from repetition 0"
            for i, rep in enumerate(reps[1:], start=1) if rep.digests != first]


def _end_to_end(wl, s, args, out):
    setup_s, setup_raw = _setup_seconds(wl.config_path, SETUP_REPEATS[args.size])
    reps, rates, raw_rates = [], [], []
    t_start = time.perf_counter()
    while len(reps) < 2 or time.perf_counter() - t_start < args.seconds:
        rep, factor = bracketed(lambda: wl.rep(s), wl.kernel)
        reps.append(rep)
        raw_rates.append(rep.transitions / rep.elapsed_s)
        rates.append(raw_rates[-1] / factor)
    metrics = {
        "setup_s": (setup_s, "s"),
        "steps_per_s": (statistics.median(rates), "transitions/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    quality = {name: reps[0].quality.get(name) for name in ("theta_err_stable", "reward_gap")}
    notes = {"repetitions": len(reps), "digests": reps[0].digests,
             "steps_per_s_quartiles": statistics.quantiles(rates, n=4),
             "unscaled": {"setup_s": setup_raw, "steps_per_s": statistics.median(raw_rates)},
             "setup_repeats": SETUP_REPEATS[args.size]}
    absent = {name: "does not apply to this workload"
              for name in quality if name not in wl.quality_names}
    return metrics, reps, quality, absent, notes


def _per_layer(wl, s, args, out):
    import layers
    import workloads
    from tracer import Tracer

    rows = layers.measure(s, out, LAYER_SCALE[args.size])
    # untraced and traced repetitions alternate, each side going first in turn,
    # until --seconds have passed; every figure below is per repetition
    tracer = Tracer()
    plain, traced, traced_raw, reps = [], [], [], []

    def timed_rep():
        t0 = time.perf_counter()
        rep = wl.rep(workloads.setup(wl.config_path))
        return rep, time.perf_counter() - t0

    t_start = time.perf_counter()
    while not traced or time.perf_counter() - t_start < args.seconds:
        for use_tracer in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if use_tracer:
                tracer.install()
            try:
                (rep, seconds), factor = bracketed(timed_rep, wl.kernel)
            finally:
                tracer.uninstall()
            reps.append(rep)
            (traced if use_tracer else plain).append(seconds * factor)
            if use_tracer:
                traced_raw.append(seconds)
    tracer.write_spans(out / "spans.csv")

    n = len(traced)
    # spans are raw wall time; rescale self time by the traced repetitions' speed
    factor = sum(traced) / sum(traced_raw)
    metrics = dict(rows)
    for layer, (self_s, calls) in tracer.layer_totals().items():
        metrics[f"trace.{layer}.self_s"] = (self_s * factor / n, "s")
        metrics[f"trace.{layer}.self_frac"] = (self_s / sum(traced_raw), "ratio")
        metrics[f"trace.{layer}.calls"] = (calls / n, "count")
    metrics["count.sde.variates"] = (tracer.variates / n, "count")
    metrics["count.samplers.inner_steps"] = (tracer.inner_steps / n, "count")
    metrics["count.experiment.csv_bytes"] = (tracer.csv_bytes / n, "bytes")
    metrics["ratio.sde.variates_per_transition"] = (
        tracer.variates / (n * max(1, reps[0].transitions)), "1/transition")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")

    absent = {f"trace.{name}": "boundary not found" for name in sorted(tracer.absent)}
    absent["trace.policy.*"] = "policy calls are not spanned; see the isolated policy rows"
    absent["trace.*.wait_s"] = "one serial process: no layer waits on another"
    notes = {"pairs": n, "untraced_s": plain, "traced_s": traced, "spans": len(tracer.spans),
             "normal_calls": tracer.normal_calls / n, "digests": reps[0].digests}
    return metrics, reps, {}, absent, notes


def _fmt(value) -> str:
    return "%.6g" % value if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = _parse_args(argv)
    # one CPU for this process and its set-up probes, so that the calibration
    # kernel and the timed work always share a core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.chdir(ROOT)
    _import_program()
    import workloads

    out = Path(args.out) if args.out else Path(".bench_out") / args.workload
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, out)
    wl.write_config()
    s = workloads.setup(wl.config_path)
    setup_failures = workloads.setup_failures(s)

    measure = _per_layer if args.trace else _end_to_end
    metrics, reps, quality, absent, notes = measure(wl, s, args, out)
    errors = Counter(e for rep in reps for e in rep.errors)
    failures = (setup_failures + [f for rep in reps for f in rep.failures]
                + _digest_mismatches(reps))
    attempted = 1 + sum(r.attempted for r in reps)
    failed = min(attempted, sum(errors.values()) + len(failures))
    quality["failed_frac"] = failed / attempted
    correct = not failures

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  size {args.size}")
    print("environment " + json.dumps(_environment(), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {_fmt(value):>14} {unit}")
    for name, value in quality.items():
        if value is not None:
            print(f"  {name:<48} {_fmt(value):>14} {QUALITY_UNITS[name]}")
    for name, why in absent.items():
        print(f"  {name:<48} {'absent':>14} ({why})")
    print("notes " + json.dumps(notes, sort_keys=True))
    for error, count in errors.items():
        print(f"UNIT FAILED ({count}x): {error}", file=sys.stderr)
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(f"checks: {'all passed' if correct else f'{len(failures)} failed'}; "
          f"{attempted - failed} of {attempted} units ok")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
