"""Power-of-two rescalings of the data, under which every constant that comes
from the data maps exactly:

- (O), objective scale: A, b and delta times s, beta1 and beta2 times s^2.  F
  scales by s^2 and its minimizer stays;
- (X), coordinate scale: A, beta1 and beta2 times 1/s.  The minimizer scales
  by s, as long as ``lam1 = min(1, psi_max / L)`` does not clamp at 1.

With s a power of two every product is exact, so ``default_params``' ``bx``,
the async budget constants and budgets, and every row, ledger and final
iterate of the synchronous and both asynchronous solves map bit for bit.
The two ADMM baselines map too, with their penalty ``c_admm`` times s^2
under (O) and 1/s^2 under (X), except where the absolute ``NESTED_TOL`` of
their nested solves breaks a bit.  The instance is star-3 with n = 120 and
20 rows per node, whose ``L / psi_max`` of 77 keeps ``lam1`` below its clamp
at every scale here; on star-5 with n = 100 (34), (O) at s = 1/8 clamps it."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from dfalopt import (
    HuberLoss,
    NodeProblem,
    SparseGroupReg,
    admm_solve,
    async_dfal_solve,
    default_params,
    dfal_solve,
    generate_instance,
    sadmm_solve,
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


LEDGER = ("vectors_sent", "vectors_received", "grad_evals", "prox_evals", "control_msgs")


@functools.cache
def solved(solve, symmetry="O", s=1.0):
    """A 4-subproblem ``solve`` (``"dfal"``, ``"rbcd"`` or ``"arbcd"``) of the
    rescaled star-3 instance, against a reference F* of 1 in unscaled units,
    far from the final value, so no run stops on its targets."""
    inst = generate_instance(1, "star", 3, 12, 10, 1)
    nodes = rescaled(inst.nodes, symmetry, s)
    params = default_params(nodes, inst.graph, outer_cap=4)
    reference = s * s if symmetry == "O" else 1.0
    if solve == "dfal":
        return dfal_solve(nodes, inst.graph, params, reference=reference)
    return async_dfal_solve(nodes, inst.graph, params, p=0.1, oracle=solve, seed=1000,
                            reference=reference)


@pytest.mark.parametrize("solve", ["dfal", "rbcd", "arbcd"])
@pytest.mark.parametrize("symmetry, s", [("O", 2.0**-3), ("O", 2.0**3),
                                         ("X", 2.0**-3), ("X", 2.0**2)])
def test_rows_ledgers_and_final_iterate_map_exactly(symmetry, s, solve):
    # an absolute constant anywhere in the solve, the row or its multipliers
    # shows as a broken bit at one of these scales
    base, scaled = solved(solve), solved(solve, symmetry, s)
    # the factors of F_sum, lam, CV, dual_norm and the final iterate
    if symmetry == "O":
        f, lam, cv, dual, x = s * s, 1 / (s * s), 1.0, s * s, 1.0
    else:
        f, lam, cv, dual, x = 1.0, s * s, s, 1 / s, s
    assert len(scaled.rows) == len(base.rows) == 4
    assert_rows_and_ledgers_map(base, scaled, f, lam, cv, dual)
    assert np.array_equal(scaled.config["final_state"].x, x * base.config["final_state"].x)


def assert_rows_and_ledgers_map(base, scaled, f, lam, cv, dual):
    """Each row of ``scaled`` is ``base``'s with F_sum, lam, CV and dual_norm
    times the factors and every other field equal, and the ledgers are equal."""
    for row, row_s in zip(base.rows, scaled.rows, strict=True):
        assert (row_s.F_sum, row_s.lam, row_s.CV, row_s.dual_norm) == (
            f * row.F_sum, lam * row.lam, cv * row.CV, dual * row.dual_norm)
        assert row_s.rel_subopt == row.rel_subopt and not math.isnan(row.rel_subopt)
        for field in ("k", "comm_per_node_max", "prox_count", "grad_count", "inner_iters",
                      "stop_reason"):
            assert getattr(row_s, field) == getattr(row, field), field
    ledger, ledger_s = base.config["ledger"], scaled.config["ledger"]
    for name in LEDGER:
        assert np.array_equal(getattr(ledger_s, name), getattr(ledger, name)), name


BASELINES = {"sadmm": (sadmm_solve, 30), "admm": (admm_solve, 3)}


@functools.cache
def baseline(solve, case, symmetry="O", s=1.0):
    """``solve`` (``"sadmm"`` or ``"admm"``) of the rescaled star-3 instance of
    ``case``, its penalty ``c_admm`` rescaled with the data (times s^2 under
    (O), where F scales by s^2; 1/s^2 under (X), where the coordinates scale
    by s), against a reference F* of 1 in unscaled units."""
    inst = generate_instance(case, "star", 3, 12, 10, 1)
    run, iters = BASELINES[solve]
    c_admm, reference = (s * s, s * s) if symmetry == "O" else (1 / (s * s), 1.0)
    return run(rescaled(inst.nodes, symmetry, s), inst.graph, c_admm=c_admm, iters=iters,
               reference=reference)


def final_arrays(trace):
    """The final state's arrays: ``admm``'s ``x``, or ``sadmm``'s ``x``, ``y`` and sums."""
    state = trace.config["final_state"]
    return [state] if isinstance(state, np.ndarray) else list(dataclasses.astuple(state))


@pytest.mark.parametrize("case", [1, 2])
@pytest.mark.parametrize("solve", ["sadmm", "admm"])
@pytest.mark.parametrize("symmetry, s", [
    ("O", 2.0**-3), ("O", 2.0**3), ("X", 2.0**-3), ("X", 2.0**2)])
def test_baselines_map_exactly(symmetry, s, solve, case, request):
    if (symmetry, s, solve, case) == ("X", 4.0, "admm", 1):
        request.applymarker(pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
            "baselines.NESTED_TOL is absolute: under (X) the composite prox's "
            "residual scales by s, so at s = 4 the second iteration's nested "
            "solve tries 17 points against 16; with NESTED_TOL times s the run "
            "maps exactly")))
    base, scaled = baseline(solve, case), baseline(solve, case, symmetry, s)
    # the factors of F_sum, lam (the penalty), CV, dual_norm (penalty times the
    # summed averages) and the final arrays
    if symmetry == "O":
        f, lam, cv, dual, x = s * s, s * s, 1.0, s * s, 1.0
    else:
        f, lam, cv, dual, x = 1.0, 1 / (s * s), s, 1 / s, s
    assert len(scaled.rows) == len(base.rows) == BASELINES[solve][1]
    assert_rows_and_ledgers_map(base, scaled, f, lam, cv, dual)
    for a, a_s in zip(final_arrays(base), final_arrays(scaled), strict=True):
        assert np.array_equal(a_s, x * a)
