"""Golden SHA-256 digests of short reference-shaped experiments.

A change that leaves the arithmetic and the draw order alone must leave
every byte of the seed and summary CSVs alone too; these digests pin them,
the record CSVs of short offline runs, the batch Monte Carlo estimates of
the martingale and return checks, the CSV lines of ``check-martingale``, the
martingale loss, the bytes of the return-to-go gaps and orthogonality sums on
one batch, the one-row CSVs of a run of no steps, and the ``sample-actions
--out`` file of both samplers.
``manifest.txt`` is not pinned because its bytes include ``output_dir``.

The values assume the numpy (2.4.6) and libm of the machine they were
recorded on (CPython 3.11.7, x86-64); another platform may round
``exp``/``sqrt`` differently and fail here without any change in the code.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from cqsm.cli import main as cli_main
from cqsm.experiment import parse_config, run_experiment, write_record_csv
from cqsm.lq import LqParams, lq_dynamics, lq_reward_fn
from cqsm.lq_analytic import optimal_score, q_star, solve_lq
from cqsm.martingale import (constant_test, estimate_discounted_return, lagged_state_test,
                             martingale_loss, orthogonality_residual, orthogonality_statistics,
                             q_gradient_test, trajectory_gaps)
from cqsm.offline import run_offline
from cqsm.online import AlgoConfig
from cqsm.policy import psi_v
from cqsm.sde import simulate_batch

REFERENCE_PATH = Path(__file__).resolve().parent.parent / "configs" / "reference.cfg"
REFERENCE = REFERENCE_PATH.read_text()

CASES = {
    "langevin": ("algo.n_steps = 2000\nalgo.record_every = 100\n", {
        "summary.csv": "4ed8e84d2abf07257c4d9ee8465993c1f70b7955fe6f62d1a381212890555450",
        "seed_0.csv": "87c54a5a57580f41e9b73ff0bc0cccb5e96577f540ce62e813edcb1a77208ea2",
        "seed_1.csv": "042e1d9aa65aacb365f9396175adf8d0cf7f3493151ff5df6b5f90883a5a0fd6",
        "seed_2.csv": "87eeb5c284af8cc6965ca8d916177a041d526dfed02449a8ba86a4b3eae5b350",
        "seed_3.csv": "49b0518b630cb12f6ef3a92674c1673aa5bcebd9cd451b175292ee57ab99fa28",
        "seed_4.csv": "2cfde8b5a15aec1563aec9041f7e8e3a96b48bd6e096086ba08b6dcf90f26696",
    }),
    "ddpm": ("algo.n_steps = 2000\nalgo.record_every = 100\nalgo.sampler = ddpm\n"
             "run.n_seeds = 1\n", {
        "summary.csv": "2ac89773634c31062f6e9573b09ee518f2758c844bc7db8e5c09bf8d841c90fe",
        "seed_0.csv": "5c9f4cf29a25f731bcb46fb5f0aa13ecd8e37fee0f5d36dd2e68bcefc12e710b",
    }),
    "direct_sde": ("algo.n_steps = 2000\nalgo.record_every = 100\nalgo.sampler = direct_sde\n"
                   "run.n_seeds = 1\n", {
        "summary.csv": "cdcb391a75cfbc45bd4160d83e17a92db2191a1211d3b45c5f8cff5e2326aafa",
        "seed_0.csv": "0a4227adf4cc60756970f2d1694fefe3626419ad24dc4dd20deaf2a3a03135b4",
    }),
    # a run of no steps: every CSV is its header and one row
    "no_steps": ("algo.n_steps = 0\nrun.n_seeds = 2\n", {
        "summary.csv": "0b290d75f4a1b5d606c208a373f7629a759c85b132baf8417b5617ad715c44fb",
        "seed_0.csv": "50dc2a1026218865869eb331439a98c31a2f72785f3b1f8700c53042e38e817e",
        "seed_1.csv": "394a365463dc380d1d2c178f9984eb3235a788385d2fdeb66e51e80560069365",
    }),
}


@pytest.mark.parametrize("sampler", sorted(CASES))
def test_reference_shaped_run_matches_golden_digests(tmp_path, sampler):
    overrides, golden = CASES[sampler]
    cfg = parse_config(REFERENCE + overrides + f"run.output_dir = {tmp_path}\n")
    summary = run_experiment(cfg)
    assert summary.failed_seeds == ()
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in golden}
    assert digests == golden


# Shape of test_offline_training_reaches_reference_optimum, cut to 50 episodes.
OFFLINE_CASES = {
    ("direct_sde", 0): "b7cec3c3cb3995ab4153a485cf5eea7aa5998d4fa7cf4fd880709fa3d61c31e2",
    ("direct_sde", 1): "dc45bc3797a19b5711dc00a8284da305a6ac2957c7be73ef3b01aafc2b6684e0",
    ("langevin", 0): "a42f6ba0716f45436f789029b1c2542639d94a9468f8fcbf5b6f46a5ec70b96f",
}


@pytest.mark.parametrize("sampler,seed", sorted(OFFLINE_CASES))
def test_offline_run_matches_golden_digest(tmp_path, lq_ref, sampler, seed):
    cfg = AlgoConfig(dt=0.1, n_steps=500, alpha_theta=0.02, alpha_v=0.3, seed=seed,
                     sampler=sampler, langevin_steps=50, record_every=5)
    v0 = np.random.default_rng((seed, 1)).uniform(0.0, 1.0, 3)
    rec = run_offline(cfg, lq_ref, np.zeros(6), v0, n_episodes=50)
    write_record_csv(rec, tmp_path / "record.csv")
    digest = hashlib.sha256((tmp_path / "record.csv").read_bytes()).hexdigest()
    assert digest == OFFLINE_CASES[sampler, seed]



def _float_digest(*values) -> str:
    return hashlib.sha256(np.array(values).tobytes()).hexdigest()


# (estimate, std_error, z_score) for Q* and Q* + 0.5 at the check-martingale
# defaults: 200 trajectories, dt 0.01, horizon 50, seed 0
MARTINGALE_CASES = {
    0.0: "8e83d86f9dda1f08c0432cd199dfd9fce82859f50096a18ba19be22dfc4db274",
    0.5: "a86dd2010a9deaa2595a4d6186b70f84dc5003aa7f817f6e5053915df160042c",
}


@pytest.mark.parametrize("offset", sorted(MARTINGALE_CASES))
def test_orthogonality_residual_matches_golden_digest(offset):
    p = LqParams()
    k = solve_lq(p)
    report = orthogonality_residual(lambda x, a: q_star(k, x, a) + offset,
                                    lambda x, a: optimal_score(k, p.lam, x, a),
                                    constant_test(), p, AlgoConfig(dt=0.01, n_steps=5000), 200)
    assert _float_digest(report.estimate, report.std_error,
                         report.z_score) == MARTINGALE_CASES[offset]


# the lines after "csv:" that ``cqsm check-martingale`` prints at the reference
# config and its defaults, for Q* and Q* + 0.5: the CLI's own Q* and score
CLI_MARTINGALE_CASES = {
    "0": "b4d6bc38f4e2a7426ce59fb3cc409f84e8debc2f267d87641157fb6351fd5492",
    "0.5": "00fb92c3d80169a647d0c3917effc2c51b1d2ba386dcf22b5612b2fc19b4d096",
}


@pytest.mark.parametrize("offset", sorted(CLI_MARTINGALE_CASES))
def test_check_martingale_csv_matches_golden_digest(capsys, offset):
    assert cli_main(["check-martingale", "--config", str(REFERENCE_PATH),
                     "--offset", offset]) == 0
    csv = capsys.readouterr().out.split("csv:\n", 1)[1]
    assert hashlib.sha256(csv.encode()).hexdigest() == CLI_MARTINGALE_CASES[offset]


# martingale_loss for Q* and Q* + 0.5 at the same defaults
LOSS_CASES = {
    0.0: "c43f026b3d5db69afabb5304029c67c519ecd0cb7d2353c3e9cbb69d2684fc32",
    0.5: "574b461891393060bbcca42653a134127e7e12feb26bbcc5978f93267892dd94",
}


@pytest.mark.parametrize("offset", sorted(LOSS_CASES))
def test_martingale_loss_matches_golden_digest(offset):
    p = LqParams()
    k = solve_lq(p)
    loss = martingale_loss(lambda x, a: q_star(k, x, a) + offset,
                           lambda x, a: optimal_score(k, p.lam, x, a),
                           p, AlgoConfig(dt=0.01, n_steps=5000), 200)
    assert _float_digest(loss) == LOSS_CASES[offset]


@pytest.fixture(scope="module")
def default_batch():
    """The check-martingale default batch under the optimal score, with Q* and that score."""
    p = LqParams()
    k = solve_lq(p)
    score = lambda x, a: optimal_score(k, p.lam, x, a)
    batch = simulate_batch(lq_dynamics(p, score), lq_reward_fn(p), 0.0, 0.0, 0.01, 5000, 200,
                           seed=0)
    return p, batch, lambda x, a: q_star(k, x, a), score


GAPS_DIGEST = "4845742118e172afc6c1e9ae85c30f372f7dc38dbe51659b5a120b2806ff23bb"


def test_trajectory_gaps_match_golden_digest(default_batch):
    p, batch, qfun, score = default_batch
    gaps = trajectory_gaps(batch, qfun, score, p.beta, p.lam)
    assert gaps.shape == (5000, 200)
    assert hashlib.sha256(gaps.tobytes()).hexdigest() == GAPS_DIGEST


# per-trajectory orthogonality sums on that batch for the tests that the
# residual pins above do not run
STATISTICS_CASES = {
    "lagged_state": "df565f97d138ae3c8e429c872cc0b2b44ed8b293e7d10ff9a76a62f262bf8a25",
    "q_gradient_2": "61e28dd40833e158b827d9b067b027ce4cfc89bc6e58b6e53b4d3f703e451df5",
}
TEST_PROCESSES = {"lagged_state": lagged_state_test, "q_gradient_2": lambda: q_gradient_test(2)}


@pytest.mark.parametrize("name", sorted(STATISTICS_CASES))
def test_orthogonality_statistics_match_golden_digest(default_batch, name):
    p, batch, qfun, score = default_batch
    stats = orthogonality_statistics(batch, qfun, score, TEST_PROCESSES[name](), p.beta, p.lam)
    assert hashlib.sha256(stats.tobytes()).hexdigest() == STATISTICS_CASES[name]


# (estimate, std error) at criterion 8's Monte Carlo config, for its baseline
# score psi_v(0) and for the optimal score
RETURN_CASES = {
    "baseline": "ce6161dbf4b7f193928a2acf99daf7bbb2339714804f19ef32c885c7ae96c041",
    "optimal": "bf868a117c201b2f188bba161f990031d681e81eef1c34577087ca45844d84b6",
}


@pytest.mark.parametrize("score_name", sorted(RETURN_CASES))
def test_estimate_discounted_return_matches_golden_digest(score_name):
    p = LqParams()
    k = solve_lq(p)
    score = {"baseline": lambda x, a: psi_v(np.zeros(3), x, a),
             "optimal": lambda x, a: optimal_score(k, p.lam, x, a)}[score_name]
    estimate = estimate_discounted_return(p, score, AlgoConfig(dt=0.02, n_steps=2500, seed=909),
                                          2000)
    assert _float_digest(*estimate) == RETURN_CASES[score_name]


# the file ``sample-actions --out`` writes at the reference config with --n 500
SAMPLE_CASES = {
    "langevin": "7e43e8bb6e781d8ad3f1f43519f6cc1902c1c6cf892550a60cb3a39675697d6f",
    "ddpm": "d5defb20be7446d3a15168f746f385be4f0b4ac71fa8a12510d069482021e22e",
}


@pytest.mark.parametrize("sampler", sorted(SAMPLE_CASES))
def test_sample_actions_file_matches_golden_digest(tmp_path, capsys, sampler):
    out = tmp_path / "samples.csv"
    assert cli_main(["sample-actions", "--config", str(REFERENCE_PATH), "--sampler", sampler,
                     "--n", "500", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SAMPLE_CASES[sampler]
