"""Batch experiment runner: config files, multi-seed orchestration, CSV output.

Configs are flat key-value text with dotted section prefixes::

    lq.A = -1.0
    algo.dt = 0.1
    run.n_seeds = 5

Each section is the fields of one dataclass, which alone states each key,
its type and its default: ``lq.*`` is :class:`LqParams` (whose defaults are
the reference instance), ``algo.*`` is :class:`AlgoConfig` and ``run.*`` is
:class:`ExperimentConfig` less its ``lq`` and ``algo`` fields.  The field
``lam`` is spelled ``lambda``; ``run.theta0`` and ``run.v0`` are
comma-separated vectors.  Omitted keys take their field's default, except
that ``algo.beta`` and ``algo.lambda`` mirror ``lq.beta`` and ``lq.lambda``
unless set.  Unknown keys are errors.  Every run writes per-seed learning
records, a cross-seed summary, and a manifest that reproduces the run
byte-identically when fed back through ``--config``.
"""

from __future__ import annotations

import hashlib
import math
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .learner import AlgoConfig, LearningRecord
from .lq import LqParams
from .online import run_cqsm
from .sde import SimulationError


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One multi-seed experiment: environment, algorithm, and run-level knobs.

    The fields after ``lq`` and ``algo`` are the ``run.*`` config keys.
    Construction, ``dataclasses.replace`` included, checks the run fields.
    """

    lq: LqParams
    algo: AlgoConfig
    n_seeds: int = 5
    base_seed: int = 0
    theta0_mode: str = "zeros"
    v0_mode: str = "uniform01"
    theta0: tuple | None = None
    v0: tuple | None = None
    output_dir: str = "runs"

    def __post_init__(self):
        if self.n_seeds < 1:
            raise ConfigError("run.n_seeds must be at least 1")
        if self.base_seed < 0:
            raise ConfigError(f"run.base_seed must be nonnegative, got {self.base_seed}")
        for key, vector in (("run.theta0", self.theta0), ("run.v0", self.v0)):
            if vector is not None and not all(map(math.isfinite, vector)):
                raise ConfigError(f"{key} must be finite, got {vector}")
        if self.theta0_mode not in ("zeros", "explicit"):
            raise ConfigError("run.theta0_mode must be 'zeros' or 'explicit'")
        if self.v0_mode not in ("uniform01", "explicit"):
            raise ConfigError("run.v0_mode must be 'uniform01' or 'explicit'")
        if self.theta0_mode == "explicit" and (self.theta0 is None or len(self.theta0) != 6):
            raise ConfigError("explicit theta0 needs run.theta0 with 6 comma-separated values")
        if self.v0_mode == "explicit" and (self.v0 is None or len(self.v0) != 3):
            raise ConfigError("explicit v0 needs run.v0 with 3 comma-separated values")
        for key, vector, mode in (("theta0", self.theta0, self.theta0_mode),
                                  ("v0", self.v0, self.v0_mode)):
            if vector is not None and mode != "explicit":
                raise ConfigError(f"run.{key} is read only when run.{key}_mode = explicit, "
                                  f"got run.{key}_mode = {mode}")
        if not self.output_dir:
            raise ConfigError(f"run.output_dir must name a directory, got {self.output_dir!r}")
        if self.output_dir.splitlines() != [self.output_dir]:  # the manifest holds one line
            raise ConfigError(f"run.output_dir must be one line, got {self.output_dir!r}")
        if self.output_dir != self.output_dir.strip():  # the manifest's value is stripped
            raise ConfigError("run.output_dir must not begin or end with whitespace, "
                              f"got {self.output_dir!r}")


def _vector(raw: str) -> tuple:
    return tuple(float(part) for part in raw.split(","))


def _schema(cls, skip=()) -> dict:
    """{config key: (field name, parser)} for the fields of a config dataclass.

    A float, int or str field is parsed by its type, a ``tuple | None``
    field as a comma-separated vector.
    """
    hints = typing.get_type_hints(cls)
    return {("lambda" if f.name == "lam" else f.name):
            (f.name, hints[f.name] if hints[f.name] in (float, int, str) else _vector)
            for f in fields(cls) if f.name not in skip}


_SECTIONS = {"lq": _schema(LqParams), "algo": _schema(AlgoConfig),
             "run": _schema(ExperimentConfig, skip=("lq", "algo"))}


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat key-value config text; '#' lines and blanks are ignored.

    Lines end at a line feed alone, so any other character that
    ``str.splitlines`` breaks at stays inside its value, where the value's own
    check refuses it; a carriage return before the line feed is stripped.
    """
    values = {section: {} for section in _SECTIONS}
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if "." not in key:
            raise ConfigError(f"line {lineno}: key {key!r} lacks a section prefix")
        section, _, name = key.partition(".")
        if section not in _SECTIONS:
            raise ConfigError(f"line {lineno}: unknown section {section!r}")
        if name not in _SECTIONS[section]:
            raise ConfigError(f"line {lineno}: unknown key {key}")
        attr, parse = _SECTIONS[section][name]
        try:
            values[section][attr] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc

    try:
        lq = LqParams(**values["lq"])
        # the learner's discount and regularization mirror the environment
        # unless explicitly overridden
        algo = AlgoConfig(**{"beta": lq.beta, "lam": lq.lam, **values["algo"]})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(lq=lq, algo=algo, **values["run"])


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def format_config(cfg: ExperimentConfig) -> str:
    """Canonical text form of a config (stable ordering, round-trippable)."""
    lines = []
    for section, obj in (("lq", cfg.lq), ("algo", cfg.algo), ("run", cfg)):
        for key, (attr, parse) in sorted(_SECTIONS[section].items()):
            value = getattr(obj, attr)
            if value is None:
                continue
            if parse is _vector:
                value = ",".join(repr(part) for part in value)
            elif not isinstance(value, str):
                value = repr(value)
            lines.append(f"{section}.{key} = {value}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """SHA-256 of the canonical config text, excluding the output directory."""
    basis = "\n".join(line for line in format_config(cfg).splitlines()
                      if not line.startswith("run.output_dir"))
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunSummary:
    """Cross-seed aggregates of one experiment.

    Standard deviations are sample standard deviations across successful
    seeds (zero when fewer than two succeeded); the CSV emits mean and
    mean +/- 2 std bands.  ``failure_reasons`` holds the error message of
    each entry of ``failed_seeds``, in the same order.
    """

    seeds: tuple
    failed_seeds: tuple
    record_steps: np.ndarray
    record_times: np.ndarray
    theta_mean: np.ndarray
    theta_std: np.ndarray
    v_mean: np.ndarray
    v_std: np.ndarray
    reward_mean: np.ndarray
    reward_std: np.ndarray
    avg_reward_mean: np.ndarray
    avg_reward_std: np.ndarray
    final_thetas: np.ndarray
    final_vs: np.ndarray
    final_avg_rewards: np.ndarray
    failure_reasons: tuple = ()


def _initial_params(cfg: ExperimentConfig, seed: int):
    if cfg.theta0_mode == "zeros":
        theta0 = np.zeros(6)
    else:
        theta0 = np.asarray(cfg.theta0, dtype=float)
    if cfg.v0_mode == "uniform01":
        v0 = np.random.default_rng((seed, 1)).uniform(0.0, 1.0, 3)
    else:
        v0 = np.asarray(cfg.v0, dtype=float)
    return theta0, v0


def _run_seed(args):
    cfg, seed = args
    algo = replace(cfg.algo, seed=seed)
    theta0, v0 = _initial_params(cfg, seed)
    try:
        return seed, run_cqsm(algo, cfg.lq, theta0, v0), None
    except SimulationError as exc:
        return seed, None, exc


def _write_table(path, header: str, steps, times, *columns) -> None:
    """One CSV of an integer step column, then ``%.9g`` times and columns.

    Steps pass through float64 in the stacked table, exact below 2**53.  The
    rows are formatted as ``numpy.savetxt`` formats them, by one ``%`` of the
    row format repeated once per row over the table's Python floats, and the
    file is one write.
    """
    table = np.column_stack([steps, times, *columns])
    row = ",".join(["%d"] + ["%.9g"] * (table.shape[1] - 1)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n" + (row * len(table)) % tuple(table.ravel().tolist()))


def write_record_csv(record: LearningRecord, path) -> None:
    """Per-seed learning record CSV (schema shared by online and offline runs)."""
    header = ("step,t," + ",".join(f"theta{i}" for i in range(6)) + ","
              + ",".join(f"v{i}" for i in range(3)) + ",reward_rate,running_avg_reward")
    _write_table(path, header, record.steps, record.times, record.thetas, record.vs,
                 record.reward_rates, record.running_avg)


def write_summary_csv(summary: RunSummary, path) -> None:
    """Cross-seed summary with mean and mean +/- 2 std per column."""
    names = [f"theta{i}" for i in range(6)] + [f"v{i}" for i in range(3)]
    names += ["reward_rate", "running_avg_reward"]
    header = "step,t," + ",".join(f"{n}_mean,{n}_lo,{n}_hi" for n in names)
    m = np.column_stack([summary.theta_mean, summary.v_mean,
                         summary.reward_mean, summary.avg_reward_mean])
    s = np.column_stack([summary.theta_std, summary.v_std,
                         summary.reward_std, summary.avg_reward_std])
    bands = np.stack([m, m - 2 * s, m + 2 * s], axis=2).reshape(len(m), -1)
    _write_table(path, header, summary.record_steps, summary.record_times, bands)


def run_experiment(cfg: ExperimentConfig, parallel: int = 1) -> RunSummary:
    """Run n_seeds independent learning runs and write CSVs plus a manifest.

    Seeds are base_seed..base_seed + n_seeds - 1.  A seed whose run raises a
    SimulationError (a divergence, or a sampler or environment fault) is
    recorded as failed rather than aborting the experiment; when every seed
    fails, the first seed's error class is raised and the directory keeps no
    CSV or manifest of an earlier run.  Output is deterministic:
    rerunning the same config (or its manifest) reproduces every CSV byte for
    byte.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = list(range(cfg.base_seed, cfg.base_seed + cfg.n_seeds))
    jobs = [(cfg, seed) for seed in seeds]

    if parallel > 1:
        # imported here: the pool's modules cost every other process start-up time and memory
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(_run_seed, jobs))
    else:
        results = [_run_seed(job) for job in jobs]

    records = {}
    failures = {}
    for seed, record, error in results:
        if record is None:
            failures[seed] = error
            # a rerun into the same directory must not keep a stale CSV of this seed
            (out / f"seed_{seed}.csv").unlink(missing_ok=True)
        else:
            records[seed] = record
            write_record_csv(record, out / f"seed_{seed}.csv")

    if not records:
        # a rerun that writes no summary must not keep an earlier run's summary or manifest
        (out / "summary.csv").unlink(missing_ok=True)
        (out / "manifest.txt").unlink(missing_ok=True)
        errors = list(failures.values())
        raise type(errors[0])("every seed failed: " + "; ".join(map(str, errors)))

    ok_seeds = sorted(records)
    first = records[ok_seeds[0]]
    # (seeds, rows, 11): theta0..5, v0..2, reward rate, running average
    table = np.stack([np.column_stack([r.thetas, r.vs, r.reward_rates, r.running_avg])
                      for r in map(records.get, ok_seeds)])
    mean = table.mean(axis=0)
    std = table.std(axis=0, ddof=1) if len(ok_seeds) > 1 else np.zeros(mean.shape)
    summary = RunSummary(
        seeds=tuple(seeds),
        failed_seeds=tuple(sorted(failures)),
        record_steps=first.steps,
        record_times=first.times,
        theta_mean=mean[:, :6],
        theta_std=std[:, :6],
        v_mean=mean[:, 6:9],
        v_std=std[:, 6:9],
        reward_mean=mean[:, 9],
        reward_std=std[:, 9],
        avg_reward_mean=mean[:, 10],
        avg_reward_std=std[:, 10],
        final_thetas=table[:, -1, :6],
        final_vs=table[:, -1, 6:9],
        final_avg_rewards=table[:, -1, 10],
        failure_reasons=tuple(str(failures[s]) for s in sorted(failures)),
    )
    write_summary_csv(summary, out / "summary.csv")

    manifest = [
        "# cqsm run manifest",
        f"# version: {__version__}",
        f"# config_sha256: {config_hash(cfg)}",
        "# seeds: " + " ".join(str(s) for s in seeds),
        "# failed_seeds: " + " ".join(str(s) for s in sorted(failures)),
        format_config(cfg).rstrip("\n"),
    ]
    with open(out / "manifest.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(manifest) + "\n")
    return summary
