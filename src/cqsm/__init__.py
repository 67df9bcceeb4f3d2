"""Continuous-time reinforcement learning with score-driven action diffusions.

The package couples a learned quadratic value function to the score (drift) of
an action SDE: the critic is fitted through the martingale property of the
discounted value process, the actor by matching the score to the critic's
scaled action gradient.  A scalar linear-quadratic environment with a
closed-form solution supplies exact ground truth for every learned quantity.

Each name is imported from the module that defines it (``from cqsm.online
import run_cqsm``); the module list in README.md is the map.
"""

from ._version import __version__
