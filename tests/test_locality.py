"""Locality of the live solve path: node ``i``'s update reads only its closed
neighbourhood, as the paper's model allows ("only nodes connected by an edge
can directly communicate").

For each node ``i`` every input row outside its closed neighbourhood is
poisoned: ``Y``, ``xbar``, the far nodes' loss data and curvature constants
and, for ``arbcd``, ``z`` and ``u``.  Row ``i`` of each update must then equal
the clean one bit for bit.  The neighbourhoods come from ``laplacian_dense``,
not from the CSR rows the kernels read.

The operations that do read the whole network are listed in
``GLOBAL_OPERATIONS``; none of them feeds an iterate row.
"""

import numpy as np
import pytest

import dfalopt
from dfalopt import (
    HuberLoss,
    NodeProblem,
    admm_solve,
    build_topology,
    laplacian_dense,
    load_edge_file,
    ms_apg,
    sadmm_solve,
)
from dfalopt.dfal import _subproblem_objective
from dfalopt.solvers import arbcd_candidate, arbcd_momentum
from conftest import random_connected_graph, small_node

# every network-wide operation of a solve, by module and name, and why no
# iterate row depends on it through anything but a message
GLOBAL_OPERATIONS = {
    ("solvers", "BlockObjective.residual_reached"): "the stopping tests: a max over the blocks",
    ("solvers", "fista_momentum"): "FISTA's scalar momentum: a function of the iteration count",
    ("solvers", "arbcd_momentum"): "arbcd's scalar momentum: a function of the event count",
    ("graph", "spectral_bounds"): "the Laplacian's spectrum, once at set-up",
    ("solvers", "level_set_constants"): "the budget constants' start value: a sum over the nodes",
    ("solvers", "arbcd_run"): "the restarted chains' objective values: a sum over the nodes",
}

GRAPHS = ["star-5", "clique-4", "ring-6", "path-6", "random-7"]
POISONS = [1e3, np.nan]
LAM = 0.7


@pytest.fixture(params=GRAPHS)
def graph(request, tmp_path):
    name = request.param
    if name == "star-5":
        return build_topology("star", 5)
    if name == "clique-4":
        return build_topology("clique", 4)
    if name == "random-7":
        return random_connected_graph(np.random.default_rng(17), 7)
    edges = [(i, i + 1) for i in range(1, 6)] + ([(1, 6)] if name == "ring-6" else [])
    path = tmp_path / f"{name}.edges"
    path.write_text("6\n" + "".join(f"{i} {j}\n" for i, j in edges))
    return load_edge_file(str(path))


def balls(graph, hops):
    """Row ``i``: the nodes within ``hops`` edges of node ``i``."""
    near = (laplacian_dense(graph) != 0).astype(int)
    return np.linalg.matrix_power(near, hops) > 0


def instance(graph):
    """Seeded node problems of unequal row counts, so the stacked losses are
    zero-padded, and a subproblem point, centre and curvature."""
    rng = np.random.default_rng(graph.num_nodes)
    nodes = [small_node(rng, n=6, m=3 + i % 3) for i in range(graph.num_nodes)]
    shape = (graph.num_nodes, 6)
    L = LAM * rng.uniform(1.0, 4.0, graph.num_nodes) + graph.degrees
    return nodes, rng.standard_normal(shape), rng.standard_normal(shape), L


def poisoned_node(node, poison):
    """``node`` with its loss data times 1e3, or NaN."""
    A, b = node.loss.A * 1e3, node.loss.b * 1e3
    loss = HuberLoss(A, b, node.loss.delta)
    if np.isnan(poison):  # past the loss's own finiteness check
        loss.A[:], loss.b[:] = np.nan, np.nan
    return NodeProblem(node.reg, loss)


def poisoned(far, poison, nodes, *rows, L=None):
    """The inputs with every row in ``far`` poisoned."""
    out = [[poisoned_node(p, poison) if far[j] else p for j, p in enumerate(nodes)]]
    for X in rows:
        X = X.copy()
        X[far] = poison
        out.append(X)
    if L is not None:
        out.append(np.where(far, 1e3 * L, L))
    return out


def same_row(a, b, i):
    assert np.isfinite(a[i]).all()
    assert np.array_equal(a[i], b[i])


@pytest.mark.parametrize("poison", POISONS)
def test_event_kernels_read_the_closed_neighbourhood(graph, poison):
    nodes, Y, xbar, L = instance(graph)
    clean = _subproblem_objective(nodes, graph, LAM, xbar, L)
    for i, near in enumerate(balls(graph, 1)):
        nodes_p, Y_p, xbar_p, L_p = poisoned(~near, poison, nodes, Y, xbar, L=L)
        dirty = _subproblem_objective(nodes_p, graph, LAM, xbar_p, L_p)
        (grad, prox, residual), (grad_p, prox_p, residual_p) = clean.blocks[i], dirty.blocks[i]
        g, g_p = grad(Y), grad_p(Y_p)
        assert np.array_equal(g, g_p)
        step = 1.0 / L[i]
        assert np.array_equal(prox(Y[i] - g * step, step), prox_p(Y_p[i] - g_p * step, step))
        assert residual(Y, g) == residual_p(Y_p, g_p)


@pytest.mark.parametrize("poison", POISONS)
def test_stacked_gradient_reads_the_closed_neighbourhood(graph, poison):
    nodes, Y, xbar, L = instance(graph)
    G = _subproblem_objective(nodes, graph, LAM, xbar, L).smooth_grad(Y)
    for i, near in enumerate(balls(graph, 1)):
        nodes_p, Y_p, xbar_p = poisoned(~near, poison, nodes, Y, xbar)
        G_p = _subproblem_objective(nodes_p, graph, LAM, xbar_p, L).smooth_grad(Y_p)
        same_row(G, G_p, i)


@pytest.mark.parametrize("poison", POISONS)
def test_one_ms_apg_step_reads_the_closed_neighbourhood(graph, poison):
    nodes, Y, xbar, L = instance(graph)
    step = ms_apg(_subproblem_objective(nodes, graph, LAM, xbar, L), Y, max_iter=1).y
    for i, near in enumerate(balls(graph, 1)):
        if near.all():
            continue  # nothing to poison
        nodes_p, Y_p, xbar_p, L_p = poisoned(~near, poison, nodes, Y, xbar, L=L)
        dirty = _subproblem_objective(nodes_p, graph, LAM, xbar_p, L_p)
        if np.isnan(poison):
            # the far rows' gradient is NaN, which ms_apg refuses
            with pytest.raises(FloatingPointError, match="non-finite gradient"):
                ms_apg(dirty, Y_p, max_iter=1)
        else:
            same_row(step, ms_apg(dirty, Y_p, max_iter=1).y, i)


def arbcd_event(obj, z, u, t, i):
    """Block ``i``'s new ``z`` and ``u`` rows after one event at momentum ``t``,
    formed as ``arbcd_chain`` forms them."""
    N, L_i = obj.num_blocks, float(obj.L[i])
    grad, prox, _ = obj.blocks[i]
    g = grad(arbcd_candidate(z, u, t, N))
    step = t / L_i
    z_new_i = prox(z[i] - step * g, step)
    return z_new_i, u[i] + N * N * t * (1.0 - t) * (z_new_i - z[i])


@pytest.mark.parametrize("poison", POISONS)
def test_one_arbcd_event_reads_the_closed_neighbourhood(graph, poison):
    nodes, z, xbar, L = instance(graph)
    u = np.random.default_rng(5).standard_normal(z.shape)
    t = arbcd_momentum(arbcd_momentum(1.0, graph.num_nodes), graph.num_nodes)
    clean = _subproblem_objective(nodes, graph, LAM, xbar, L)
    for i, near in enumerate(balls(graph, 1)):
        nodes_p, z_p, u_p, xbar_p, L_p = poisoned(~near, poison, nodes, z, u, xbar, L=L)
        dirty = _subproblem_objective(nodes_p, graph, LAM, xbar_p, L_p)
        for row, row_p in zip(arbcd_event(clean, z, u, t, i), arbcd_event(dirty, z_p, u_p, t, i)):
            assert np.isfinite(row).all() and np.array_equal(row, row_p)


def final_rows(solve, nodes, graph, iters):
    state = solve(nodes, graph, c_admm=1.0, iters=iters).config["final_state"]
    return state if isinstance(state, np.ndarray) else np.hstack([state.x, state.y])


@pytest.mark.parametrize("solve", [sadmm_solve, admm_solve])
def test_baselines_read_the_two_hop_ball(graph, solve):
    # the first iteration from zero reads only the node's own data; the
    # second averages over the neighbours (s) and then applies the Laplacian
    # to s + p, two exchange rounds, so two iterations read the 2-hop ball
    nodes, *_ = instance(graph)
    clean = final_rows(solve, nodes, graph, 2)
    for i, near in enumerate(balls(graph, 2)):
        if near.all():
            continue
        nodes_p, = poisoned(~near, 1e3, nodes)
        same_row(clean, final_rows(solve, nodes_p, graph, 2), i)


@pytest.mark.parametrize("solve", [sadmm_solve, admm_solve])
def test_a_baseline_iteration_is_two_exchange_rounds(tmp_path, solve):
    # on a 6-path, node 1's row after two iterations moves with node 3's
    # data (2 hops away), and after one with no other node's
    path = tmp_path / "path.edges"
    path.write_text("6\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 6)))
    graph = load_edge_file(str(path))
    nodes, *_ = instance(graph)
    third = np.arange(6) == 2
    nodes_p, = poisoned(third, 1e3, nodes)
    assert not np.array_equal(final_rows(solve, nodes, graph, 2)[0],
                              final_rows(solve, nodes_p, graph, 2)[0])
    alone = np.arange(6) != 0
    nodes_p, = poisoned(alone, 1e3, nodes)
    same_row(final_rows(solve, nodes, graph, 1), final_rows(solve, nodes_p, graph, 1), 0)


def test_global_operations_are_live_names():
    for (module, name), why in GLOBAL_OPERATIONS.items():
        target = getattr(dfalopt, module)
        for part in name.split("."):
            target = getattr(target, part)
        assert callable(target) and why
