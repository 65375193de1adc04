"""Relabelling: the solves do not depend on how the nodes are numbered or in
which order the edges are listed.

Renaming the nodes (the node at index ``perm[k]`` becomes node ``k + 1``, and
each edge is renamed with it) permutes every per-node output.  Counts and stop
decisions stay equal and the ledger arrays permute exactly.  Floats agree to
1e-12 relative in the max norm, since sums over the nodes and over a hub's
neighbours run in a new order; the consensus violation, a difference of nearly
equal rows, agrees to 1e-12 of the final iterate's size.

Reordering the edge list changes no bit of any output but the synchronous
solve's ``dual_norm``, which ``laplacian_quadratic`` sums in edge order: the
neighbour lists the kernels read are sorted whatever the edge order.

Renaming the coordinates (every ``A``'s columns and group indices by one
permutation) permutes every iterate's columns with equal counts, stop
decisions and ledgers, and floats within the same 1e-12.  Reversing the order
of each partition's groups changes no bit of the iterates but ``admm``'s; it
moves only the last bits of the sums that run in segment order.
"""

from dataclasses import replace

import numpy as np
import pytest

from dfalopt import (
    Graph,
    GroupPartition,
    NodeProblem,
    admm_solve,
    default_params,
    dfal_solve,
    generate_instance,
    reference_solve,
    sadmm_solve,
)
from dfalopt.bench import ProblemInstance
from dfalopt.dfal import _event_kernels

LEDGER = ("vectors_sent", "vectors_received", "prox_evals", "grad_evals", "control_msgs")
RTOL = 1e-12
RING = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]
# each graph's (N, n_g, K) and a permutation that moves its hub or breaks its ring
GRAPHS = {
    "star-5": ((5, 2, 10), [3, 0, 4, 1, 2]),
    "clique-4": ((4, 2, 4), [2, 0, 3, 1]),
    "ring-6": ((6, 2, 12), [4, 1, 5, 0, 3, 2]),
}
SOLVES = {
    "dfal": lambda nodes, graph: dfal_solve(
        nodes, graph, default_params(nodes, graph, outer_cap=12)),
    "sadmm": lambda nodes, graph: sadmm_solve(nodes, graph, iters=60),
    "admm": lambda nodes, graph: admm_solve(nodes, graph, iters=5),
}


def make_instance(case: int, name: str, tmp_path) -> ProblemInstance:
    (N, n_g, K), _ = GRAPHS[name]
    if name != "ring-6":
        return generate_instance(case, name[:-2], N, n_g, K, seed=1)
    path = tmp_path / "ring-6.edges"
    path.write_text("6\n" + "".join(f"{i} {j}\n" for i, j in RING))
    return generate_instance(case, "edge-file", N, n_g, K, seed=1, edge_file=str(path))


def relabel(inst: ProblemInstance, perm: list[int]) -> ProblemInstance:
    new_label = np.argsort(perm) + 1  # new_label[i] names the node at index i
    edges = tuple(sorted((min(a, b), max(a, b)) for a, b in (
        (int(new_label[i - 1]), int(new_label[j - 1])) for i, j in inst.graph.edges)))
    graph = Graph(inst.graph.num_nodes, edges)
    return ProblemInstance(graph, [inst.nodes[i] for i in perm], inst.case, inst.seed)


def close(new, old, scale=None, rtol=RTOL) -> bool:
    """``new`` is within ``rtol`` times ``scale`` (``max |old|`` by default) of ``old``."""
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    scale = np.max(np.abs(old)) if scale is None else scale
    return new.shape == old.shape and np.max(np.abs(new - old)) <= rtol * scale


def final_arrays(trace) -> dict[str, np.ndarray]:
    state = trace.config["final_state"]
    if isinstance(state, np.ndarray):
        return {"x": state}
    return {key: v for key, v in vars(state).items() if isinstance(v, np.ndarray)}


@pytest.mark.parametrize("solve", list(SOLVES))
@pytest.mark.parametrize("name", list(GRAPHS))
@pytest.mark.parametrize("case", [1, 2])
def test_renamed_nodes_permute_every_output(case, name, solve, tmp_path):
    inst = make_instance(case, name, tmp_path)
    perm = GRAPHS[name][1]
    new = relabel(inst, perm)
    old_trace = SOLVES[solve](inst.nodes, inst.graph)
    new_trace = SOLVES[solve](new.nodes, new.graph)

    new_state, old_state = final_arrays(new_trace), final_arrays(old_trace)
    size = np.max(np.abs(old_state["x"]))
    assert new_trace.stop_reason == old_trace.stop_reason
    assert len(new_trace.rows) == len(old_trace.rows) > 1
    for a, b in zip(new_trace.rows, old_trace.rows):
        assert (a.k, a.inner_iters, a.stop_reason) == (b.k, b.inner_iters, b.stop_reason)
        assert (a.comm_per_node_max, a.prox_count, a.grad_count) == (
            b.comm_per_node_max, b.prox_count, b.grad_count)
        for key in ("lam", "F_sum", "dual_norm"):
            assert close(getattr(a, key), getattr(b, key)), (a.k, key)
        assert close(a.CV, b.CV, size), a.k
    for key in LEDGER:
        old_counts = getattr(old_trace.config["ledger"], key)
        assert np.array_equal(getattr(new_trace.config["ledger"], key), old_counts[perm]), key
    assert new_state.keys() == old_state.keys()
    for key, arr in old_state.items():
        assert close(new_state[key], arr[perm]), key


@pytest.mark.parametrize("case", [1, 2])
def test_renamed_nodes_keep_the_reference(case, tmp_path):
    inst = make_instance(case, "star-5", tmp_path)
    old = reference_solve(inst, cache=False)
    new = reference_solve(relabel(inst, GRAPHS["star-5"][1]), cache=False)
    assert (new.method, new.converged, new.iterations) == (
        old.method, old.converged, old.iterations)
    assert close(new.f_star, old.f_star) and close(new.x_ref, old.x_ref)


@pytest.mark.parametrize("name", list(GRAPHS))
def test_renamed_nodes_keep_each_event_kernel(name, tmp_path):
    # node perm[k] under its old label and node k + 1 under its new one run
    # the same kernels on the permuted rows
    inst = make_instance(2, name, tmp_path)
    perm = GRAPHS[name][1]
    new = relabel(inst, perm)
    rng = np.random.default_rng(3)
    Y, xbar = rng.standard_normal((2, inst.graph.num_nodes, inst.n))
    lam = 0.7
    for k, i in enumerate(perm):
        old_grad, old_prox, old_residual = _event_kernels(inst.nodes[i], i, inst.graph, lam, xbar)
        grad, prox, residual = _event_kernels(new.nodes[k], k, new.graph, lam, xbar[perm])
        g = old_grad(Y)
        assert close(grad(Y[perm]), g), (name, k)
        assert np.array_equal(prox(Y[i] - g, 0.5), old_prox(Y[i] - g, 0.5))
        assert residual(Y[perm], g) == old_residual(Y, g)


@pytest.mark.parametrize("solve", list(SOLVES))
@pytest.mark.parametrize("name", list(GRAPHS))
@pytest.mark.parametrize("case", [1, 2])
def test_reordered_edges_change_only_the_dual_norm(case, name, solve, tmp_path):
    inst = make_instance(case, name, tmp_path)
    graph = inst.graph
    shuffled = Graph(graph.num_nodes, tuple(graph.edges[::-1]))
    old_trace = SOLVES[solve](inst.nodes, graph)
    new_trace = SOLVES[solve](inst.nodes, shuffled)

    # only the synchronous solve reports a Laplacian quadratic form
    summed_in_edge_order = {"dual_norm"} if solve == "dfal" else set()
    assert new_trace.stop_reason == old_trace.stop_reason
    assert len(new_trace.rows) == len(old_trace.rows) > 1
    for a, b in zip(new_trace.rows, old_trace.rows):
        for key, value in vars(b).items():
            if key in summed_in_edge_order:
                assert close(getattr(a, key), value), (a.k, key)
            else:
                assert repr(getattr(a, key)) == repr(value), (a.k, key)
    for key in LEDGER:
        assert np.array_equal(getattr(new_trace.config["ledger"], key),
                              getattr(old_trace.config["ledger"], key)), key
    new_state, old_state = final_arrays(new_trace), final_arrays(old_trace)
    assert new_state.keys() == old_state.keys()
    for key, arr in old_state.items():
        assert np.array_equal(new_state[key], arr), key


# the last bits of the sums that still run in segment order (NodeStack.objective's
# F_sum and admm's composite prox), at most 5e-16 measured
ORDER_RTOL = 2e-15


def with_nodes(inst: ProblemInstance, change) -> ProblemInstance:
    return ProblemInstance(inst.graph, [change(p) for p in inst.nodes], inst.case, inst.seed)


def permute_coordinates(node: NodeProblem, sigma: np.ndarray) -> NodeProblem:
    """``node`` with its new coordinate ``k`` the old coordinate ``sigma[k]``:
    ``A``'s columns taken in that order, every group's indices renamed."""
    rename = np.argsort(sigma)  # rename[j] is old coordinate j's new index
    part = GroupPartition(node.n, tuple(rename[g] for g in node.reg.partition.groups))
    return replace(node, reg=replace(node.reg, partition=part),
                   loss=replace(node.loss, A=node.loss.A[:, sigma]))


def reverse_groups(node: NodeProblem) -> NodeProblem:
    part = GroupPartition(node.n, node.reg.partition.groups[::-1])
    return replace(node, reg=replace(node.reg, partition=part))


def sigma_for(inst: ProblemInstance) -> np.ndarray:
    return np.random.default_rng(9).permutation(inst.n)


def assert_runs_agree(new_trace, old_trace, cols, moved, rtol) -> None:
    """Equal stop reasons, counts and ledgers; the row fields and final arrays
    named in ``moved`` within ``rtol`` (``CV`` of the final iterate's size) and
    every other bitwise, the old arrays' columns taken at ``cols``."""
    new_state, old_state = final_arrays(new_trace), final_arrays(old_trace)
    size = np.max(np.abs(old_state["x"]))
    assert new_trace.stop_reason == old_trace.stop_reason
    assert len(new_trace.rows) == len(old_trace.rows) > 1
    for a, b in zip(new_trace.rows, old_trace.rows):
        for key, value in vars(b).items():
            if key in moved:
                scale = size if key == "CV" else None
                assert close(getattr(a, key), value, scale, rtol), (a.k, key)
            else:
                assert repr(getattr(a, key)) == repr(value), (a.k, key)
    for key in LEDGER:
        assert np.array_equal(getattr(new_trace.config["ledger"], key),
                              getattr(old_trace.config["ledger"], key)), key
    assert new_state.keys() == old_state.keys()
    for key, arr in old_state.items():
        if key in moved:
            assert close(new_state[key], arr[:, cols], rtol=rtol), key
        else:
            assert np.array_equal(new_state[key], arr[:, cols]), key


@pytest.mark.parametrize("solve", list(SOLVES))
@pytest.mark.parametrize("name", list(GRAPHS))
@pytest.mark.parametrize("case", [1, 2])
def test_renamed_coordinates_permute_every_output(case, name, solve, tmp_path):
    inst = make_instance(case, name, tmp_path)
    sigma = sigma_for(inst)
    new = with_nodes(inst, lambda p: permute_coordinates(p, sigma))
    old_trace = SOLVES[solve](inst.nodes, inst.graph)
    new_trace = SOLVES[solve](new.nodes, new.graph)
    floats = {"lam", "F_sum", "dual_norm", "CV", *final_arrays(old_trace)}
    assert_runs_agree(new_trace, old_trace, sigma, floats, RTOL)


@pytest.mark.parametrize("solve", list(SOLVES))
@pytest.mark.parametrize("name", list(GRAPHS))
@pytest.mark.parametrize("case", [1, 2])
def test_reversed_groups_move_only_segment_ordered_sums(case, name, solve, tmp_path):
    # NodeStack.objective sums the l1 and group terms in segment order, and
    # admm's _composite_prox takes products over segment-ordered columns
    inst = make_instance(case, name, tmp_path)
    new = with_nodes(inst, reverse_groups)
    old_trace = SOLVES[solve](inst.nodes, inst.graph)
    new_trace = SOLVES[solve](new.nodes, new.graph)
    moved = {"F_sum", "dual_norm", "CV", "x"} if solve == "admm" else {"F_sum"}
    assert_runs_agree(new_trace, old_trace, slice(None), moved, ORDER_RTOL)


@pytest.mark.parametrize("case", [1, 2])
def test_renamed_coordinates_and_reversed_groups_keep_the_reference(case, tmp_path):
    inst = make_instance(case, "star-5", tmp_path)
    sigma = sigma_for(inst)
    old = reference_solve(inst, cache=False)
    renamed = reference_solve(with_nodes(inst, lambda p: permute_coordinates(p, sigma)),
                              cache=False)
    reversed_ = reference_solve(with_nodes(inst, reverse_groups), cache=False)
    for new in (renamed, reversed_):
        assert (new.method, new.converged, new.iterations) == (
            old.method, old.converged, old.iterations)
    assert close(renamed.f_star, old.f_star)
    assert close(renamed.x_ref, old.x_ref[sigma])
    assert (reversed_.f_star, reversed_.x_ref.tolist()) == (old.f_star, old.x_ref.tolist())


@pytest.mark.parametrize("case", [1, 2])
def test_shuffled_groups_keep_every_bit_of_the_reference(case):
    # F* sums each node's group norms sorted, so no group order moves a bit; on
    # the smaller instance above reversing the groups left an unsorted sum unchanged.
    # Case 1 once summed them in segment order, and this order moved its F* by 1.8e-15
    inst = generate_instance(case, "star", 5, 10, 10, seed=1)
    order = np.random.default_rng(4).permutation(10)  # one order for every node

    def shuffle(node: NodeProblem) -> NodeProblem:
        groups = node.reg.partition.groups
        part = GroupPartition(node.n, tuple(groups[i] for i in order))
        return replace(node, reg=replace(node.reg, partition=part))

    old, new = (reference_solve(i, cache=False) for i in (inst, with_nodes(inst, shuffle)))
    assert (new.f_star, new.gap, new.iterations) == (old.f_star, old.gap, old.iterations)
    assert new.x_ref.tobytes() == old.x_ref.tobytes()


@pytest.mark.parametrize("name", list(GRAPHS))
def test_renamed_coordinates_and_reversed_groups_keep_each_event_kernel(name, tmp_path):
    inst = make_instance(2, name, tmp_path)
    sigma = sigma_for(inst)
    rng = np.random.default_rng(3)
    Y, xbar = rng.standard_normal((2, inst.graph.num_nodes, inst.n))
    lam = 0.7
    for i, node in enumerate(inst.nodes):
        old_grad, old_prox, old_residual = _event_kernels(node, i, inst.graph, lam, xbar)
        g = old_grad(Y)
        v = Y[i] - g
        grad, prox, residual = _event_kernels(
            permute_coordinates(node, sigma), i, inst.graph, lam, xbar[:, sigma])
        assert close(grad(Y[:, sigma]), g[sigma]), (name, i)
        assert close(prox(v[sigma], 0.5), old_prox(v, 0.5)[sigma]), (name, i)
        assert close(residual(Y[:, sigma], g[sigma]), old_residual(Y, g)), (name, i)
        # the residual sums in coordinate order, so reversed groups move no bit
        grad, prox, residual = _event_kernels(reverse_groups(node), i, inst.graph, lam, xbar)
        assert np.array_equal(grad(Y), g) and np.array_equal(prox(v, 0.5), old_prox(v, 0.5))
        assert residual(Y, g) == old_residual(Y, g), (name, i)
