"""Power-of-two rescalings of the data, under which every constant that comes
from the data maps exactly:

- (O), objective scale: A, b and delta times s, beta1 and beta2 times s^2.  F
  scales by s^2 and its minimizer stays;
- (X), coordinate scale: A, beta1 and beta2 times 1/s.  The minimizer scales
  by s, as long as ``lam1 = min(1, psi_max / L)`` does not clamp at 1.

With s a power of two every product is exact, so ``default_params``' ``bx``
and the async budget constants and budgets map bit for bit.  The instance is
star-3 with n = 120 and 20 rows per node, whose ``L / psi_max`` of 77 keeps
``lam1`` below its clamp at every scale here; on star-5 with n = 100 (34), (O)
at s = 1/8 clamps it."""

import numpy as np
import pytest

from dfalopt import (
    HuberLoss,
    NodeProblem,
    SparseGroupReg,
    async_dfal_solve,
    default_params,
    generate_instance,
)


def rescaled(nodes, symmetry, s):
    """The nodes under ``symmetry`` (``"O"`` or ``"X"``) at scale ``s``."""
    a, b, delta, beta = (s, s, s, s * s) if symmetry == "O" else (1 / s, 1, 1, 1 / s)
    return [
        NodeProblem(
            reg=SparseGroupReg(p.reg.beta1 * beta, p.reg.beta2 * beta, p.reg.partition),
            loss=HuberLoss(A=p.loss.A * a, b=p.loss.b * b, delta=p.loss.delta * delta),
        )
        for p in nodes
    ]


def budgets(nodes, graph, oracle):
    """``bx``, the budget constants, the budgets and the final iterate of a
    3-subproblem async solve."""
    params = default_params(nodes, graph)
    trace = async_dfal_solve(nodes, graph, params, p=0.1, oracle=oracle, seed=1000,
                             outer_iters=3)
    config = trace.config
    return params.bx, config["budget_constants"], config["budgets"], config["final_state"].x


@pytest.mark.parametrize("oracle", ["rbcd", "arbcd"])
@pytest.mark.parametrize("symmetry, s", [("O", 2.0**-3), ("O", 2.0**3),
                                         ("X", 2.0**-3), ("X", 2.0**2)])
def test_bx_and_budgets_map_exactly(symmetry, s, oracle):
    # bx was once 10 (1 + sum_i ||b_i|| / sqrt(m_i)), in units of b, so under
    # (X) it stayed where the iterates scale by s
    inst = generate_instance(1, "star", 3, 12, 10, 1)
    bx, constants, events, y = budgets(inst.nodes, inst.graph, oracle)
    bx_s, constants_s, events_s, y_s = budgets(
        rescaled(inst.nodes, symmetry, s), inst.graph, oracle)
    x, c = (1.0, 1.0) if symmetry == "O" else (s, s * s)
    assert bx_s == x * bx
    assert constants_s == [c * const for const in constants]
    assert events_s == events and min(events) > 1
    assert np.array_equal(y_s, x * y)
