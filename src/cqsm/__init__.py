"""Continuous-time reinforcement learning with score-driven action diffusions.

The package couples a learned quadratic value function to the score (drift) of
an action SDE: the critic is fitted through the martingale property of the
discounted value process, the actor by matching the score to the critic's
scaled action gradient.  A scalar linear-quadratic environment with a
closed-form solution supplies exact ground truth for every learned quantity.
"""

from ._version import __version__
from .sde import (
    DynamicsSpec,
    NoiseSource,
    SimulationError,
    Trajectory,
    simulate,
    simulate_batch,
    simulate_from,
)
from .lq import LqParams, env_step, lq_dynamics, lq_reward, lq_reward_fn
from .policy import (
    grad_a_q,
    grad_theta_q,
    psi_v,
    q_theta,
    score_params_from_q,
)
from .lq_analytic import (
    KCoefficients,
    SolveError,
    coefficient_residuals,
    hjb_residual,
    k_to_optimal_params,
    optimal_score,
    q_star,
    solve_lq,
)
from .samplers import (
    NoiseSchedule,
    ddpm_law,
    ddpm_sample,
    langevin_chain,
    langevin_sample,
    make_linear_schedule,
)
from .online import (
    AlgoConfig,
    DivergenceError,
    LearnState,
    LearningRecord,
    cqsm_step,
    initial_action,
    lr_schedule,
    run_cqsm,
    td_delta,
)
from .offline import (
    Episode,
    episode_return_to_go,
    make_episode,
    offline_update,
    rollout_episode,
    run_offline,
    score_gradient_residual,
)
from .martingale import (
    ResidualReport,
    constant_test,
    discount_weights,
    estimate_discounted_return,
    lagged_state_test,
    martingale_loss,
    orthogonality_residual,
    orthogonality_statistics,
    q_gradient_test,
    return_gaps,
    trajectory_gaps,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    RunSummary,
    config_hash,
    format_config,
    load_config,
    parse_config,
    run_experiment,
    write_record_csv,
    write_summary_csv,
)
