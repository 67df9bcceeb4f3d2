"""The law of each sampler's draw: :func:`learner.action_law` against the
draws of :func:`learner.next_action`, the ``_oracles`` laws and the numbers
that README's sampler section quotes."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cqsm.experiment import load_config
from cqsm.learner import SAMPLERS, action_law, next_action, score_of
from cqsm.sde import NoiseSource
from _oracles import SequenceNoise, ddpm_affine_law, langevin_affine_law

REFERENCE = load_config(Path(__file__).resolve().parent.parent / "configs" / "reference.cfg")
X, A, X_NEXT = 0.4, 0.3, -0.7  # a pre-step pair and the state it moved to
A0 = 0.25  # a restart point that differs from A, so a law that reads A shows


@pytest.fixture
def score(opt_params):
    return score_of(opt_params[1])[1]


def laws(score, x, a, x_next, **changes):
    """{sampler: action_law} at the reference config with ``changes``."""
    return {sampler: action_law(replace(REFERENCE.algo, sampler=sampler, **changes), score,
                                x, a, x_next) for sampler in SAMPLERS}


def test_each_sampler_has_its_own_row(score):
    # a sampler without a row would take another's, the Langevin one
    rows = laws(score, X, A, X_NEXT, a0=A0)
    assert len(set(rows.values())) == len(SAMPLERS)
    assert all(np.isfinite(row).all() and row[2] > 0 for row in rows.values())


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_zero_draws_land_on_the_law_mean(score, sampler):
    cfg = replace(REFERENCE.algo, sampler=sampler, a0=A0)
    gain, shift, _ = action_law(cfg, score, X, A, X_NEXT)
    drawn = next_action(cfg, score, X, A, X_NEXT, SequenceNoise([]))
    assert drawn == pytest.approx(gain * A + shift, rel=1e-12)


def test_one_unit_draw_adds_one_sd_to_the_euler_step(score):
    cfg = replace(REFERENCE.algo, sampler="direct_sde")
    gain, shift, var = action_law(cfg, score, X, A, X_NEXT)
    drawn = next_action(cfg, score, X, A, X_NEXT, SequenceNoise([1.0]))
    assert drawn == pytest.approx(gain * A + shift + math.sqrt(var), rel=1e-12)


def test_the_restarted_rows_are_the_oracle_laws(score):
    slope, v1, v2 = score.coefficients
    c0 = v1 * X_NEXT + v2
    algo = REFERENCE.algo
    rows = laws(score, X, A, X_NEXT, a0=A0)
    expected = {"langevin": langevin_affine_law(algo.langevin_dt, algo.langevin_steps, A0,
                                                slope, c0),
                "ddpm": ddpm_affine_law(algo.ddpm_schedule, slope, c0)}
    for sampler, (mean, var) in expected.items():
        assert rows[sampler][0] == 0.0
        assert rows[sampler][1:] == pytest.approx((mean, var), rel=1e-12)


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_draws_match_the_law_by_monte_carlo(score, sampler):
    n, x = 20000, 0.4
    cfg = replace(REFERENCE.algo, sampler=sampler)
    gain, shift, var = action_law(cfg, score, x, A, x)
    noise = NoiseSource(7)
    draws = np.array([next_action(cfg, score, x, A, x, noise) for _ in range(n)])
    assert abs(draws.mean() - (gain * A + shift)) < 3 * math.sqrt(var / n)
    assert abs(draws.var(ddof=1) - var) < 3 * var * math.sqrt(2 / (n - 1))


def test_readme_quotes_the_laws_at_the_reference_optimum(score):
    # README's sampler section, at x = 0 and the reference config's a0 = 0
    slope, _, v2 = score.coefficients
    rows = laws(score, 0.0, 0.0, 0.0)
    rounded = {sampler: tuple(round(value, 4) for value in row) for sampler, row in rows.items()}
    assert rounded["langevin"] == (0.0, -0.6993, 0.2199)
    assert rounded["ddpm"] == (0.0, -0.7856, 0.0154)
    assert rounded["direct_sde"] == (0.5386, -0.3562, 0.2)
    # the policy exp(Q / lambda) that the Langevin row falls 9.4% short of
    assert (round(v2 / -slope, 4), round(1.0 / -slope, 4)) == (-0.7721, 0.2167)
    assert round((rows["langevin"][1] - v2 / -slope) / (v2 / -slope), 3) == -0.094
