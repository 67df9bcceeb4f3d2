import numpy as np
import pytest

from cqsm import sde
from cqsm.lq import LqParams
from cqsm.lq_analytic import k_to_optimal_params, solve_lq

# published optimum of the reference configuration, frozen as ground truth
REF_THETA = np.array([-0.59047134, -0.23069812, -0.46141679,
                      -0.35624157, -0.15119060, 0.17312350])
REF_V = np.array([1.52913155, -1.5119060, -3.5624157])


@pytest.fixture(scope="session")
def lq_ref() -> LqParams:
    """The reference LQ instance used throughout the suite."""
    return LqParams(A=-1.0, B=0.0, C=0.0, D=1.0, M=2.0, N=2.0,
                    R=1.0, P=1.0, Pp=2.0, beta=1.0, lam=0.1)


@pytest.fixture(scope="session")
def k_ref(lq_ref):
    return solve_lq(lq_ref)


@pytest.fixture(scope="session")
def opt_params(k_ref, lq_ref):
    return k_to_optimal_params(k_ref, lq_ref.lam)


@pytest.fixture
def small_blocks(monkeypatch):
    """Row blocks of 1000 values: 5 rows at width 200 and 500 at width 2, a
    single column still one block.  1003 steps is a multiple of neither, so a
    rollout of that length ends on a short block."""
    monkeypatch.setattr(sde, "BLOCK", 1000)
