"""Benchmark protocol: instance generation, references, metrics, the run
matrix, and the command line front end."""

import json
import math
import runpy
import sys
from dataclasses import replace

import numpy as np
import pytest

from dfalopt import (
    CommLedger,
    HuberLoss,
    NodeProblem,
    SparseGroupReg,
    apg,
    bench,
    build_topology,
    consensus_violation,
    generate_instance,
    reference_solve,
    run_benchmark,
    sadmm_solve,
)
from dfalopt.bench import (
    CONFIG_DOMAINS,
    DEFAULT_BENCH_CONFIG,
    _reference_case1,
    _reference_case2,
    config_digest,
    generator_vector,
    instance_from_json,
    instance_to_json,
    run_solver,
)
from dfalopt.baselines import sadmm_cv
from dfalopt.funcs import GroupPartition, NodeStack
from dfalopt.cli import main as cli_main
from dfalopt.trace import RunTrace

SMALL = dict(topology="star", N=2, n_g=2, K=2, seed=3)


def small_instance(case=1, **overrides):
    kw = dict(SMALL, case=case)
    kw.update(overrides)
    return generate_instance(**kw)


class TestGeneratorVector:
    def test_first_entries(self):
        x = generator_vector(100, 10)
        assert x[0] == pytest.approx(-1.0)
        assert x[1] == pytest.approx(np.exp(-0.1))
        assert x[2] == pytest.approx(-np.exp(-0.2))

    def test_signs_alternate(self):
        x = generator_vector(20, 5)
        assert np.all(np.sign(x) == ((-1.0) ** np.arange(1, 21)))


class TestGenerateInstance:
    def test_desk_scale_shapes(self):
        inst = generate_instance(1, "star", 5, 10, 10, seed=7)
        assert inst.n == 100
        assert all(p.loss.num_rows == 10 for p in inst.nodes)
        assert all(p.reg.beta1 == pytest.approx(0.2) for p in inst.nodes)
        assert all(p.loss.A.shape == (10, 100) for p in inst.nodes)
        first = inst.nodes[0].reg.partition
        for p in inst.nodes[1:]:
            assert all(
                np.array_equal(a, b)
                for a, b in zip(p.reg.partition.groups, first.groups)
            )

    def test_case2_partitions_differ(self):
        inst = generate_instance(2, "star", 5, 10, 10, seed=7)
        first = inst.nodes[0].reg.partition
        assert any(
            not all(
                np.array_equal(a, b)
                for a, b in zip(p.reg.partition.groups, first.groups)
            )
            for p in inst.nodes[1:]
        )

    def test_cases_share_data_at_same_seed(self):
        a = generate_instance(1, "star", 5, 10, 10, seed=4)
        b = generate_instance(2, "star", 5, 10, 10, seed=4)
        for pa, pb in zip(a.nodes, b.nodes):
            assert np.array_equal(pa.loss.A, pb.loss.A)
            assert np.array_equal(pa.loss.b, pb.loss.b)

    def test_deterministic_in_seed(self):
        a = small_instance()
        b = small_instance()
        assert np.array_equal(a.nodes[0].loss.A, b.nodes[0].loss.A)

    def test_indivisible_rows_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            generate_instance(1, "star", 3, 10, 10, seed=1)

    def test_bad_case_rejected(self):
        with pytest.raises(ValueError, match="case"):
            generate_instance(3, "star", 2, 2, 2, seed=1)

    @pytest.mark.parametrize("n_g, K, seed, message", [
        (0, 10, 1, "group size n_g must be at least 1, got 0"),
        (-2, -5, 1, "group size n_g must be at least 1, got -2"),
        (10, 0, 1, "number of groups K must be at least 1, got 0"),
        (10, 10, -1, "seed must be nonnegative, got -1"),
    ])
    def test_nonpositive_sizes_and_negative_seed_rejected(self, n_g, K, seed, message):
        # K = 0 once gave an instance with n = 0; the others failed inside the
        # partition draw or numpy's generator with messages naming neither
        with pytest.raises(ValueError, match=message):
            generate_instance(1, "star", 5, n_g, K, seed)

    def test_rhs_uses_generator_vector(self):
        inst = small_instance()
        x_gen = generator_vector(inst.n, SMALL["n_g"])
        for p in inst.nodes:
            assert np.array_equal(p.loss.b, p.loss.A @ x_gen)


class TestReferenceSolve:
    def test_tolerance_floor(self):
        with pytest.raises(ValueError, match="tolerance"):
            reference_solve(small_instance(), tolerance=1e-12)

    def test_nan_tolerance_rejected(self):
        # NaN once ran 500000 APG iterations and returned an uncertified point
        with pytest.raises(ValueError, match=r"tolerance must be in \[1e-09, 1e-06\], got nan"):
            reference_solve(small_instance(), tolerance=float("nan"), cache=False)

    def test_infinite_tolerance_rejected(self):
        # inf once certified the start point: x = 0, converged, F* far too high
        with pytest.raises(ValueError, match=r"tolerance must be in \[1e-09, 1e-06\], got inf"):
            reference_solve(small_instance(), tolerance=float("inf"), cache=False)

    @pytest.mark.parametrize("tolerance", [1e3, 1e-5])
    def test_loose_tolerance_rejected(self, tolerance):
        # 1e3 once certified the start point of the seed-1 star: x = 0,
        # converged, F* = 77.66 where the optimum is 13.85
        inst = generate_instance(1, "star", 5, 10, 10, 1)
        with pytest.raises(ValueError, match=rf"tolerance must be in \[1e-09, 1e-06\], got {tolerance}"):
            reference_solve(inst, tolerance=tolerance, cache=False)

    def test_loosest_tolerance_accepted(self):
        ref = reference_solve(small_instance(), tolerance=1e-6, cache=False)
        assert ref.converged

    def test_case1_residual_certificate(self):
        inst = small_instance()
        ref = reference_solve(inst, cache=False)
        assert ref.converged
        N, reg = len(inst.nodes), inst.nodes[0].reg
        combined = SparseGroupReg(N * reg.beta1, N * reg.beta2, reg.partition)
        grad = sum(p.loss.grad(ref.x_ref) for p in inst.nodes)
        assert combined.subgrad_residual(1.0, grad, ref.x_ref) <= 1e-9
        f_direct = sum(p.loss.value(ref.x_ref) for p in inst.nodes)
        assert ref.f_star == pytest.approx(f_direct + combined.value(ref.x_ref))

    def test_case1_rejects_nodes_without_one_shared_partition(self):
        # case-2 nodes labelled case 1 once got the optimum of node 0's
        # partition, 1.9% below the best known value of that instance
        inst = replace(generate_instance(2, "star", 3, 4, 3, seed=2), case=1)
        with pytest.raises(ValueError, match="share one partition"):
            reference_solve(inst, cache=False)

    @pytest.mark.parametrize("name", ["beta1", "beta2", "delta"])
    def test_case1_rejects_nodes_with_other_weights(self, name):
        # the weights were once read from the instance, not from the nodes
        inst = generate_instance(1, "star", 3, 4, 3, seed=2)
        p = inst.nodes[2]
        if name == "delta":
            inst.nodes[2] = NodeProblem(p.reg, HuberLoss(p.loss.A, p.loss.b, delta=2.0))
        else:
            inst.nodes[2] = NodeProblem(replace(p.reg, **{name: 0.5}), p.loss)
        with pytest.raises(ValueError, match="beta1, beta2 and delta"):
            reference_solve(inst, cache=False)

    def test_zero_rhs_gives_zero_optimum(self):
        inst = small_instance()
        inst.nodes = [
            NodeProblem(
                reg=p.reg,
                loss=HuberLoss(A=p.loss.A, b=np.zeros(p.loss.num_rows)),
            )
            for p in inst.nodes
        ]
        ref = reference_solve(inst, cache=False)
        assert ref.f_star == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(ref.x_ref, 0.0, atol=1e-9)

    def test_smooth_case_matches_gradient_descent(self):
        # with both regularizer weights zero the reference is a pure smooth
        # fit; a long plain gradient-descent run is the independent oracle
        inst = small_instance()
        inst.nodes = [
            NodeProblem(
                reg=SparseGroupReg(0.0, 0.0, p.reg.partition), loss=p.loss
            )
            for p in inst.nodes
        ]
        ref = _reference_case1(inst, 1e-9)
        lip = sum(p.loss.lipschitz for p in inst.nodes)
        x = np.zeros(inst.n)
        for _ in range(200_000):
            g = sum(p.loss.grad(x) for p in inst.nodes)
            x -= g / lip
        f_gd = sum(p.loss.value(x) for p in inst.nodes)
        assert abs(ref.f_star - f_gd) <= 1e-8
        # the zero regularizer's dual ball is {0}: theta = 0 gives the vacuous D = 0, so
        # the gap reads 1 and only the residual certifies this reference
        assert ref.converged and ref.gap == 1.0

    def test_case2_reference_is_consensus_feasible(self):
        inst = small_instance(case=2)
        ref = reference_solve(inst, cache=False)
        assert ref.method == "primal-dual"
        assert ref.converged and ref.gap <= 1e-9
        assert np.all(np.isfinite(ref.x_ref))
        assert ref.f_star > 0

    def test_case2_small_instance_certified_by_its_gap(self):
        # the old reference ended here at a consensus violation near 2.7e-7 from a
        # fixed penalty floor and was reported unconverged; the primal-dual solve
        # certifies its gap
        ref = reference_solve(generate_instance(2, "star", 3, 4, 3, seed=2), cache=False)
        assert ref.method == "primal-dual"
        assert ref.converged and 0 <= ref.gap <= 1e-9

    def test_cache_round_trip(self):
        inst = small_instance(seed=11)
        a = reference_solve(inst)
        b = reference_solve(small_instance(seed=11))
        assert a is b

    def test_case2_cache_keys_on_the_tolerance(self, monkeypatch):
        # case 2 stops at the tolerance, so a second tolerance solves again and
        # a repeated one reuses its solve
        import dfalopt.bench as bench

        calls = []

        def counted(instance, tolerance):
            calls.append(tolerance)
            return _reference_case2(instance, tolerance)

        monkeypatch.setattr(bench, "_REFERENCE_CACHE", {})
        monkeypatch.setattr(bench, "_reference_case2", counted)
        inst = small_instance(case=2)
        first = reference_solve(inst)
        loose = reference_solve(inst, tolerance=1e-6)
        assert loose is not first and reference_solve(inst) is first
        assert calls == [1e-9, 1e-6]
        assert first.gap <= 1e-9 and loose.gap <= 1e-6

    def test_case1_cache_ignores_the_graph(self, monkeypatch):
        # the case-1 optimum ignores the edges, so the star and the clique of
        # one seed share one solve; the case-2 reference runs over the graph
        import dfalopt.bench as bench

        calls = []

        def counted(instance, tolerance):
            calls.append(len(instance.graph.edges))
            return bench.Reference(1.0, np.zeros(instance.n), "stub", True)

        monkeypatch.setattr(bench, "_REFERENCE_CACHE", {})
        monkeypatch.setattr(bench, "_reference_case2", counted)
        star = reference_solve(generate_instance(1, "star", 3, 4, 3, seed=2))
        clique = reference_solve(generate_instance(1, "clique", 3, 4, 3, seed=2))
        assert clique is star
        assert reference_solve(generate_instance(1, "star", 3, 4, 3, seed=3)) is not star
        star2 = reference_solve(generate_instance(2, "star", 3, 4, 3, seed=2))
        clique2 = reference_solve(generate_instance(2, "clique", 3, 4, 3, seed=2))
        assert clique2 is not star2
        assert calls == [2, 3]  # the star's edges, then the clique's

    def test_cache_keys_on_content_not_on_names(self):
        # same (case, topology, N, n_g, K, seed), different Huber delta
        def narrow_instance():
            inst = small_instance(seed=3)
            inst.nodes = [
                replace(p, loss=HuberLoss(p.loss.A, p.loss.b, delta=0.05))
                for p in inst.nodes
            ]
            return inst

        wide = reference_solve(small_instance(seed=3))
        narrow = reference_solve(narrow_instance())
        fresh = reference_solve(narrow_instance(), cache=False)
        assert narrow is not wide
        assert narrow.f_star == pytest.approx(fresh.f_star, rel=1e-12)
        assert narrow.f_star < 0.5 < wide.f_star
        assert reference_solve(narrow_instance()) is narrow


def _weak_dual_bound(inst, ref):
    """The reference's ``D = F - gap |F|``, and ``F`` at its point summed node by node."""
    f = sum(p.value(ref.x_ref) for p in inst.nodes)
    return ref.f_star - ref.gap * abs(ref.f_star), f


def _summed(inst):
    """A case-1 instance's summed problem as a stack of one: the rows of every node, the
    weights times N."""
    N, p = len(inst.nodes), inst.nodes[0]
    loss = HuberLoss(np.vstack([q.loss.A for q in inst.nodes]),
                     np.concatenate([q.loss.b for q in inst.nodes]), p.loss.delta)
    reg = SparseGroupReg(N * p.reg.beta1, N * p.reg.beta2, p.reg.partition)
    return NodeStack([NodeProblem(reg, loss)])


def _scaled_leaf(s, case=2):
    """Star-5 of ``case`` at seed 1, with node 2's ``A`` and ``b`` times ``s``."""
    inst = generate_instance(case, "star", 5, 10, 10, 1)
    p = inst.nodes[2]
    inst.nodes[2] = NodeProblem(p.reg, HuberLoss(p.loss.A * s, p.loss.b * s, p.loss.delta))
    return inst


class TestCertifiedReference:
    """Every reference carries a relative gap to a weak-duality bound ``D <= F*``;
    case 2 stops on it."""

    @pytest.mark.parametrize("case", [1, 2])
    def test_weak_duality_on_the_cross_solver_instances(self, case):
        for topology in ("star", "clique"):
            for seed in range(1, 6):
                inst = generate_instance(case, topology, 5, 10, 10, seed)
                ref = reference_solve(inst)
                bound, f = _weak_dual_bound(inst, ref)
                assert f == pytest.approx(ref.f_star, rel=1e-13)
                assert 0 < ref.gap <= 1e-9 and bound <= ref.f_star
                assert ref.converged and ref.method == ("apg" if case == 1 else "primal-dual")

    def test_weak_duality_holds_at_any_point(self):
        # D bounds F* from below however far the point is from the optimum
        inst = generate_instance(2, "star", 3, 4, 3, seed=2)
        stack = NodeStack(inst.nodes)
        f_star = reference_solve(inst).f_star
        rng = np.random.default_rng(5)
        for scale in (0.0, 0.1, 1.0, 10.0):
            x, Z = scale * rng.standard_normal(inst.n), scale * rng.standard_normal(stack.shape)
            f = stack.objective(np.tile(x, (3, 1)))
            gap = stack.relative_gap(f, x, Z)
            assert f - gap * abs(f) <= f_star <= f

    @pytest.mark.parametrize("args", [
        (2, "star", 2, 2, 2, 3), (2, "star", 2, 2, 2, 1), (2, "star", 3, 4, 3, 2),
        (2, "clique", 3, 4, 3, 2), (2, "star", 3, 4, 3, 5), (2, "clique", 4, 4, 4, 1),
    ])
    def test_small_case2_instances_certify(self, args):
        # the old reference reported four of these unconverged
        ref = reference_solve(generate_instance(*args), cache=False)
        assert ref.converged and 0 <= ref.gap <= 1e-9
        assert ref.iterations % bench.GAP_EVERY == 0

    def test_graphs_agree_within_their_gaps(self, tmp_path):
        # star, clique and ring share A, b and the partitions, so one consensus
        # optimum: each interval [D, F] holds it
        path = tmp_path / "ring-6.edges"
        path.write_text("6\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 6)) + "1 6\n")
        refs = [reference_solve(generate_instance(2, topology, 6, 10, 12, 1, edge_file=edges),
                                cache=False)
                for topology, edges in (("star", None), ("clique", None),
                                        ("edge-file", str(path)))]
        bounds = [ref.f_star - ref.gap * abs(ref.f_star) for ref in refs]
        assert all(ref.converged for ref in refs)
        assert max(bounds) <= min(ref.f_star for ref in refs)

    @pytest.mark.parametrize("s", [8, 32, 128])
    def test_scaled_leaf_certifies(self, s):
        # the metric step moves each direction at its own scale; the scalar
        # step it replaced stopped at its cap at s = 32 and 128
        ref = reference_solve(_scaled_leaf(float(s)), cache=False)
        assert ref.converged and ref.gap <= 1e-9
        assert ref.iterations < bench.PD_CAP

    @pytest.mark.parametrize("s", [8, 32, 128])
    def test_case1_scaled_leaf_certifies(self, s):
        # the APG's tail grows with the leaf's sigma_max(A)^2; the Newton steps
        # cut it off at the hand-off residual
        ref = reference_solve(_scaled_leaf(float(s), case=1), cache=False)
        assert ref.converged and ref.method == "apg" and 0 <= ref.gap <= 1e-9
        assert 1 <= ref.newton <= bench.NEWTON_CAP

    def test_cap_stops_uncertified_with_its_gap(self, monkeypatch):
        # the s = 8 leaf certifies in 650 iterations
        monkeypatch.setattr(bench, "PD_CAP", 200)
        ref = reference_solve(_scaled_leaf(8.0), cache=False)
        assert (ref.converged, ref.iterations) == (False, 200)
        assert 1e-9 < ref.gap < math.inf
        bound, f = _weak_dual_bound(_scaled_leaf(8.0), ref)
        assert f == pytest.approx(ref.f_star, rel=1e-13) and bound < ref.f_star

    def test_a_gap_below_zero_reads_zero_and_nan_stays_nan(self):
        # weak duality makes the gap at least 0; at an optimum rounding can read
        # below it (-4e-16 on this instance at its APG point)
        inst = generate_instance(1, "star", 2, 2, 2, 5)
        ref = reference_solve(inst, cache=False)
        one, args = _summed(inst), (ref.x_ref, np.zeros((1, inst.n)))
        assert one.relative_gap(ref.f_star, *args) == ref.gap >= 0.0
        assert one.relative_gap(ref.f_star * (1 - 1e-12), *args) == 0.0
        assert math.isnan(one.relative_gap(math.nan, *args))

    def test_a_single_composite_problem_is_a_stack_of_one(self):
        # the case-1 reference certifies its summed problem as a one-node stack; at zero
        # duals that stack and the instance's N-node stack give one bound D on F*
        part = GroupPartition.contiguous(6, 2)
        assert GroupPartition.stacked([part]) is part
        for topology in ("star", "clique"):
            for seed in range(1, 6):
                inst = generate_instance(1, topology, 5, 10, 10, seed)
                x, one, stack = reference_solve(inst).x_ref, _summed(inst), NodeStack(inst.nodes)
                f = one.value(x)
                assert stack.value(x) == pytest.approx(f, rel=1e-13)
                gaps = [s.relative_gap(f, x, np.zeros(s.shape)) for s in (one, stack)]
                assert 0 < gaps[0] <= 1e-9 and abs(gaps[0] - gaps[1]) <= 1e-15, (topology, seed)

    def test_case1_gap_keeps_the_apg_bits(self, monkeypatch):
        # the certificate is computed after the APG, on its final point
        inst = generate_instance(1, "star", 5, 10, 10, 1)
        ref = _reference_case1(inst, 1e-9)
        with monkeypatch.context() as m:
            m.setattr(NodeStack, "relative_gap", lambda *args: math.nan)
            bare = _reference_case1(inst, 1e-9)
        assert ref.x_ref.tobytes() == bare.x_ref.tobytes() and ref.f_star == bare.f_star
        # 233 APG iterations to the hand-off residual, then one Newton step
        assert (ref.iterations, ref.converged) == (bare.iterations, bare.converged) == (234, True)
        assert 0 < ref.gap <= 1e-9 and math.isnan(bare.gap)


class TestReferenceRestart:
    """The case-1 reference runs FISTA with adaptive restart; the same solve
    with plain momentum is the oracle for its optimum and its iteration
    count."""

    @staticmethod
    def plain_reference(instance, monkeypatch):
        import dfalopt.bench as bench

        def plain_apg(*args, **kwargs):
            return apg(*args, **{**kwargs, "restart": False})

        with monkeypatch.context() as m:
            m.setattr(bench, "apg", plain_apg)
            return _reference_case1(instance, 1e-9)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("topology,N,K", [("star", 3, 3), ("clique", 4, 4)])
    def test_same_certified_optimum_in_no_more_iterations(
        self, monkeypatch, topology, N, K, seed
    ):
        inst = generate_instance(1, topology, N, 4, K, seed)
        plain = self.plain_reference(inst, monkeypatch)
        restarted = _reference_case1(inst, 1e-9)
        assert plain.converged and restarted.converged
        reg = inst.nodes[0].reg
        combined = SparseGroupReg(N * reg.beta1, N * reg.beta2, reg.partition)
        grad = sum(p.loss.grad(restarted.x_ref) for p in inst.nodes)
        assert combined.subgrad_residual(1.0, grad, restarted.x_ref) <= 1e-9
        assert restarted.f_star == pytest.approx(plain.f_star, rel=1e-12, abs=0.0)
        assert restarted.iterations <= plain.iterations

    def test_benchmark_instance_certifies_in_under_1500_iterations(self):
        # plain momentum needs 7890 iterations here
        ref = _reference_case1(generate_instance(1, "star", 5, 10, 10, 1), 1e-9)
        assert ref.converged
        assert ref.iterations < 1500


class TestReferenceStep:
    """The case-1 reference steps at ``1 / L`` with ``L = sigma_max(A)^2`` of its stacked
    rows; the summed per-node constants ``sum_i L_i``, an upper bound on ``L`` and its
    earlier step, are the oracle for its optimum and its iteration count."""

    @staticmethod
    def summed_reference(instance, monkeypatch):
        summed = sum(p.loss.lipschitz for p in instance.nodes)

        def stacked_loss(*args):
            loss = HuberLoss(*args)
            loss.__dict__["lipschitz"] = summed  # where the cached property keeps it
            return loss

        with monkeypatch.context() as m:
            m.setattr(bench, "HuberLoss", stacked_loss)
            return _reference_case1(instance, 1e-9)

    @pytest.mark.parametrize("args", [
        *((1, topology, N, 4, K, seed) for topology, N, K in (("star", 3, 3), ("clique", 4, 4))
          for seed in range(1, 6)),
        (1, "star", 5, 10, 10, 1),
    ])
    def test_same_certified_optimum_in_fewer_iterations(self, monkeypatch, args):
        inst = generate_instance(*args)
        summed = self.summed_reference(inst, monkeypatch)
        ref = _reference_case1(inst, 1e-9)
        assert summed.converged and ref.converged
        assert ref.f_star == pytest.approx(summed.f_star, rel=1e-12, abs=0.0)
        assert 0 < ref.gap <= 1e-9
        # strictly fewer on each of these, so the oracle's shorter step did run
        assert ref.iterations < summed.iterations


class TestReferenceKernels:
    """The case-1 reference runs ``apg`` on kernels bound once; byte for byte,
    it is the run of ``apg`` on the checked public ``HuberLoss.grad`` and
    ``SparseGroupReg.prox`` to the hand-off residual ``HANDOFF * tolerance``."""

    @pytest.mark.parametrize("args,iterations", [
        ((1, "star", 5, 10, 10, 1), (233, 1)), ((1, "clique", 4, 4, 4, 1), None),
    ], ids=["star-5", "clique-4"])
    def test_bound_kernels_equal_the_checked_path(self, monkeypatch, args, iterations):
        inst = generate_instance(*args)
        nodes, N = inst.nodes, len(inst.nodes)
        reg = nodes[0].reg
        combined = SparseGroupReg(N * reg.beta1, N * reg.beta2, reg.partition)
        stacked = HuberLoss(np.vstack([p.loss.A for p in nodes]),
                            np.concatenate([p.loss.b for p in nodes]), nodes[0].loss.delta)
        checked = apg(stacked.grad, combined.prox,
                      lambda g, x: combined.subgrad_residual(1.0, g, x),
                      stacked.lipschitz, np.zeros(inst.n),
                      residual_target=bench.HANDOFF * 1e-9, max_iter=500_000, restart=True)
        runs = []
        monkeypatch.setattr(bench, "apg", lambda *a, **k: runs.append(apg(*a, **k)) or runs[-1])
        ref = _reference_case1(inst, 1e-9)
        (run,) = runs  # the Newton steps certify, so apg runs once
        assert run.y.tobytes() == checked.y.tobytes()
        assert run.iterations == checked.iterations
        assert run.stop_reason == checked.stop_reason == "residual"
        f_star = stacked.value(ref.x_ref) + combined.value(ref.x_ref)
        assert np.float64(ref.f_star).tobytes() == np.float64(f_star).tobytes()
        assert ref.converged and ref.iterations == checked.iterations + ref.newton
        if iterations is not None:
            assert (checked.iterations, ref.newton) == iterations


class TestReferenceNewton:
    """From the APG point at the hand-off residual, the case-1 reference takes at most
    ``NEWTON_CAP`` Newton steps on its support and accepts the first point whose exact
    residual meets the tolerance; failing that, it resumes ``apg`` to the tolerance."""

    @pytest.mark.parametrize("args", [
        (1, "star", 5, 10, 10, 1), (1, "star", 3, 4, 3, 2), (1, "clique", 4, 4, 4, 5),
        (1, "star", 5, 10, 200, 1),
    ], ids=["star-5", "star-3", "clique-4", "star-5-n2000"])
    @pytest.mark.parametrize("tolerance", [1e-9, 1e-6])
    @pytest.mark.parametrize("failure", ["no steps", "singular"])
    def test_failed_newton_steps_certify_through_apg(self, monkeypatch, args, tolerance,
                                                     failure):
        inst = generate_instance(*args)
        ref = _reference_case1(inst, tolerance)
        runs = []

        def singular(*_):
            raise np.linalg.LinAlgError("Singular matrix")

        with monkeypatch.context() as m:
            if failure == "no steps":
                m.setattr(bench, "NEWTON_CAP", 0)
            else:
                m.setattr(bench.np.linalg, "solve", singular)
            m.setattr(bench, "apg", lambda *a, **k: runs.append(apg(*a, **k)) or runs[-1])
            fallback = _reference_case1(inst, tolerance)
        assert ref.converged and 1 <= ref.newton <= bench.NEWTON_CAP
        # the hand-off point did not meet the tolerance, so apg resumed from it
        assert fallback.converged and fallback.newton == 0 and len(runs) == 2
        assert runs[1].stop_reason == "residual"
        assert fallback.iterations == runs[0].iterations + runs[1].iterations
        assert fallback.f_star == pytest.approx(ref.f_star, rel=1e-12, abs=0.0)
        assert 0 <= ref.gap <= tolerance and 0 <= fallback.gap <= tolerance
        N, reg = len(inst.nodes), inst.nodes[0].reg
        combined = SparseGroupReg(N * reg.beta1, N * reg.beta2, reg.partition)
        for point in (ref.x_ref, fallback.x_ref):
            grad = sum(p.loss.grad(point) for p in inst.nodes)
            assert combined.subgrad_residual(1.0, grad, point) <= tolerance


class TestEvaluate:
    """Trace rows measured against a reference, as ``RunTrace.record``
    writes them."""

    @staticmethod
    def _series(rows, f_star):
        trace = RunTrace("dfal", CommLedger(1), f_star, config={})
        for k, f, cv in rows:
            trace.record(k=k, lam=1.0, F_sum=f, CV=cv, dual_norm=0.0, inner_iters=0,
                         stop_reason="cap")
        return [r.rel_subopt for r in trace.rows], [r.CV for r in trace.rows]

    def test_exact_reference_gives_zeros(self):
        rel, cv = self._series([(1, 2.5, 0.0), (2, 2.5, 0.0)], 2.5)
        assert np.allclose(rel, 0.0)
        assert np.allclose(cv, 0.0)

    def test_two_node_violation_unit(self):
        # 2-node iterate x = (1, 0) with n = 1 has CV |1-0|/sqrt(1) = 1
        x = np.array([[1.0], [0.0]])
        cv = consensus_violation(build_topology("star", 2), x)
        rel, cvs = self._series([(1, 3.0, cv)], 2.0)
        assert cvs[0] == pytest.approx(1.0)
        assert rel[0] == pytest.approx(0.5)

    def test_zero_reference_reports_absolute_gap(self):
        rel, _ = self._series([(1, 0.25, 0.0)], 0.0)
        assert rel[0] == pytest.approx(0.25)

    def test_sadmm_rows_match_split_formula(self):
        inst = small_instance()
        trace = sadmm_solve(inst.nodes, inst.graph, iters=3)
        state = trace.config["final_state"]
        assert trace.rows[-1].CV == pytest.approx(
            sadmm_cv(inst.graph, state.x, state.y)
        )


class TestRunBenchmark:
    SMALL_CFG = {
        "algorithms": ["dfal"],
        "topologies": ["star"],
        "cases": [1],
        "N": 2,
        "n_g": 2,
        "K": 2,
        "seeds": [3],
    }

    def test_smallest_matrix(self):
        report = run_benchmark(self.SMALL_CFG)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row["converged"]
        assert row["rel_subopt"] <= 1e-3
        assert row["CV"] <= 1e-4
        assert len(report.means) == 1
        assert report.means[0]["num_runs"] == 1

    def test_rerun_is_deterministic(self):
        a = run_benchmark(self.SMALL_CFG)
        b = run_benchmark(self.SMALL_CFG)
        assert a.config_digest == b.config_digest

        def strip(rows):
            return [
                {k: v for k, v in r.items() if k != "wall_time"} for r in rows
            ]

        assert strip(a.rows) == strip(b.rows)

    def test_row_is_the_run_summary(self, monkeypatch):
        # rows once had their own names: iterations, comm_per_node and
        # budget_exhausted, for outer_iterations, comm_per_node_max and stop_reason
        traces = []

        def kept(*args):
            traces.append(run_solver(*args))
            return traces[-1]

        monkeypatch.setattr(bench, "run_solver", kept)
        report = run_benchmark(self.SMALL_CFG)
        (row,), (trace,) = report.rows, traces
        summary = trace.summary()
        del summary["config"]
        assert set(row) == {*summary, "topology", "case", "seed", "config_digest",
                            "reference_method"}
        for key in summary.keys() - {"wall_time"}:
            assert row[key] == summary[key], key
        assert row["wall_time"] >= trace.wall_time
        assert report.means[0]["outer_iterations"] == trace.final.k

    def test_time_budget_reaches_dfal(self):
        # the matrix once passed budget_secs to the baselines only
        report = run_benchmark(dict(self.SMALL_CFG, budget_secs=1e-9))
        row = report.rows[0]
        assert row["stop_reason"] == "timeout", row
        assert row["outer_iterations"] == 1

    def test_unknown_algorithm_recorded(self, monkeypatch):
        # "afal" is not a name of the dispatch (the oracle is part of it), and
        # "ring" no topology of the matrix; each was once an error in every row
        import dfalopt.bench as bench

        def never(*args, **kwargs):
            raise AssertionError("an instance was built")

        inst = small_instance()
        monkeypatch.setattr(bench, "generate_instance", never)
        for key, names in ("algorithms", ["afal"]), ("topologies", ["ring"]):
            message = f"an entry of config key '{key}' must be one of .*, got '{names[0]}'"
            with pytest.raises(ValueError, match=message):
                run_benchmark(dict(self.SMALL_CFG, **{key: names}))
        # "apg" is a command of dfalopt solve, not of the dispatch
        with pytest.raises(ValueError, match="unknown algorithm 'apg'"):
            run_solver("apg", inst, None, dict(DEFAULT_BENCH_CONFIG))

    @pytest.mark.parametrize(
        "alg", ["dfal", "afal-rbcd", "afal-arbcd", "sadmm", "admm"]
    )
    def test_every_solver_leaves_final_state_and_ledger(self, alg):
        # admm once kept its iterate under "final_x" and no "final_state"
        inst = small_instance()
        cfg = dict(DEFAULT_BENCH_CONFIG, admm_iters=3)
        trace = run_solver(alg, inst, reference_solve(inst), cfg)
        assert trace.config["final_state"] is not None
        ledger = trace.config["ledger"]
        assert int(ledger.vectors_sent.max()) == trace.final.comm_per_node_max
        assert int(ledger.grad_evals.sum()) == trace.final.grad_count

    def test_failures_recorded_per_row(self, monkeypatch):
        generate = bench.generate_instance

        def failing(case, topology, N, n_g, K, seed):
            if seed == 4:
                raise ValueError("no instance for seed 4")
            return generate(case, topology, N, n_g, K, seed)

        monkeypatch.setattr(bench, "generate_instance", failing)
        report = run_benchmark(dict(self.SMALL_CFG, seeds=[4, 3]))
        assert report.rows[0]["error"] == "ValueError: no instance for seed 4"
        assert "error" not in report.rows[1]
        assert report.means[0]["num_runs"] == 1

    def test_sizes_that_do_not_fit_fail_before_any_instance(self, monkeypatch):
        # N=3 once passed the config check, then failed every row
        def unreachable(*args):
            raise AssertionError("an instance was built")

        monkeypatch.setattr(bench, "generate_instance", unreachable)
        with pytest.raises(ValueError, match=r"n/\(2N\) = 4/6 is not an integer"):
            run_benchmark(dict(self.SMALL_CFG, N=3))

    @pytest.mark.parametrize("config, message", [
        # {"seed": [1]} once ran the default seeds 1-5 without a word
        ({"seed": [1]}, "unknown config keys: 'seed'"),
        (dict(SMALL_CFG, sede=[1], Nodes=2), "unknown config keys: 'Nodes', 'sede'"),
        ([["seeds", [1]]], "the config must be a JSON object"),
    ])
    def test_config_keys_must_be_the_defaults(self, config, message):
        with pytest.raises(ValueError, match=message):
            run_benchmark(config)

    @pytest.mark.parametrize("key, value, kind", [
        # {"seeds": 5} once ended in a TypeError, and "star" once ran the
        # one-letter topologies, each as an error row
        ("seeds", 5, "a JSON array"),
        ("topologies", "star", "a JSON array"),
        ("cases", None, "a JSON array"),
        ("N", "2", "a number"),
        ("budget_secs", True, "a number"),
        ("c", [0.7], "a number"),
        # a float where the default is an int once passed, and every row
        # then recorded a TypeError
        ("N", 3.0, "an integer"),
        ("async_outer", 2.5, "an integer"),
        ("admm_iters", 200.0, "an integer"),
        # once a report of 0 runs
        ("seeds", [], "nonempty"),
    ])
    def test_config_values_must_be_of_the_defaults_kind(self, key, value, kind):
        with pytest.raises(ValueError, match=f"config key '{key}' must be {kind}, got"):
            run_benchmark(dict(self.SMALL_CFG, **{key: value}))

    def test_digest_tracks_config(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})
        assert len(config_digest({"a": 1})) == 16


class TestInstanceJson:
    def test_round_trip(self, tmp_path):
        inst = small_instance(case=2, seed=9)
        path = tmp_path / "inst.json"
        instance_to_json(inst, str(path))
        assert list(json.loads(path.read_text())) == ["case", "seed", "edges", "nodes"]
        back = instance_from_json(str(path))
        assert (back.case, back.seed) == (inst.case, inst.seed)
        assert len(back.nodes) == len(inst.nodes)
        assert back.graph.edges == inst.graph.edges
        for pa, pb in zip(inst.nodes, back.nodes):
            assert np.array_equal(pa.loss.A, pb.loss.A)
            assert np.array_equal(pa.loss.b, pb.loss.b)
            assert all(
                np.array_equal(a, b)
                for a, b in zip(pa.reg.partition.groups, pb.reg.partition.groups)
            )
        assert back.content_digest() == inst.content_digest()

    @pytest.mark.parametrize("case", [1, 2])
    def test_keys_it_does_not_read_are_ignored(self, tmp_path, case):
        # files once also held topology, N, n_g, K and x_gen; they still load.
        # "x_gen": "abc" and "topology": 5 once loaded and were written back,
        # and "K": 10**20 ended in an OverflowError
        inst = small_instance(case=case)
        path = tmp_path / "inst.json"
        instance_to_json(inst, str(path))
        raw = json.loads(path.read_text())
        path.write_text(json.dumps(dict(
            raw, topology=5, N=2, n_g=2, K=10**20, x_gen="abc"
        )))
        back = instance_from_json(str(path))
        assert back.content_digest() == inst.content_digest()
        instance_to_json(back, str(path))
        assert json.loads(path.read_text()) == raw

    def test_node_count_must_match_N(self, tmp_path):
        # N is the number of node entries, and the edges must fit it: a file
        # holding 2 of 3 node entries once loaded, and its case-1 reference
        # summed only those 2
        path = tmp_path / "inst.json"
        instance_to_json(generate_instance(1, "star", 3, 4, 3, seed=2), str(path))
        raw = json.loads(path.read_text())
        path.write_text(json.dumps(dict(raw, nodes=raw["nodes"][:2])))
        with pytest.raises(ValueError, match=(
            r"inst.json: edge \(1, 3\) references a node outside \[1, 2\]"
        )):
            instance_from_json(str(path))


    def test_round_trip_keeps_each_nodes_weights(self, tmp_path):
        # the file once held node 0's weights for every node, so node 2's
        # delta = 2.0 read back as 1.0 and the content digest changed
        inst = generate_instance(2, "star", 3, 4, 3, seed=2)
        p, q = inst.nodes[1], inst.nodes[2]
        inst.nodes[1] = NodeProblem(replace(p.reg, beta1=0.5, beta2=0.25), p.loss)
        inst.nodes[2] = NodeProblem(q.reg, HuberLoss(q.loss.A, q.loss.b, delta=2.0))
        path = tmp_path / "inst.json"
        instance_to_json(inst, str(path))
        back = instance_from_json(str(path))

        def weights(instance):
            return [(r.loss.delta, r.reg.beta1, r.reg.beta2) for r in instance.nodes]

        assert weights(back) == weights(inst)
        assert back.content_digest() == inst.content_digest()

    def test_file_with_one_set_of_weights_rejected(self, tmp_path):
        # the older format: delta, beta1 and beta2 once for all nodes
        path = tmp_path / "inst.json"
        instance_to_json(small_instance(), str(path))
        raw = json.loads(path.read_text())
        weights = ("delta", "beta1", "beta2")
        nodes = [{k: v for k, v in e.items() if k not in weights} for e in raw["nodes"]]
        shared = {k: raw["nodes"][0][k] for k in weights}
        path.write_text(json.dumps(dict(raw, nodes=nodes, **shared)))
        with pytest.raises(ValueError, match=(
            r"node entry 0 lacks the key\(s\) 'delta', 'beta1', 'beta2'"
        )):
            instance_from_json(str(path))

    @pytest.mark.parametrize("content, message", [
        # {"N": 3} once raised KeyError: 'nodes', the others a TypeError
        ({"N": 3}, r"inst.json lacks the key\(s\) 'case', 'seed', 'edges', 'nodes'"),
        (3, r"inst.json lacks the key\(s\) 'case'"),
        ("nodes", r"inst.json lacks the key\(s\) 'case'"),
    ])
    def test_missing_key_is_named(self, tmp_path, content, message):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(content))
        with pytest.raises(ValueError, match=message):
            instance_from_json(str(path))

    @pytest.mark.parametrize("key, value, message", [
        # case 3 once got the case-2 reference without a word
        ("case", 3, "case must be 1 or 2, got 3"),
        ("seed", -1, "seed must be nonnegative, got -1"),
    ])
    def test_case_sizes_and_seed_are_checked(self, tmp_path, key, value, message):
        path = tmp_path / "inst.json"
        instance_to_json(small_instance(), str(path))
        raw = json.loads(path.read_text())
        path.write_text(json.dumps(dict(raw, **{key: value})))
        with pytest.raises(ValueError, match=message):
            instance_from_json(str(path))

    @pytest.mark.parametrize("key, value, message", [
        # a NaN in b once ended in a FloatingPointError, a NaN or inf in A in
        # "need a 1-D array of positive curvature constants", and a string
        # delta or a null beta1 in a TypeError
        ("b", lambda b: [float("nan")] + b[1:], "node entry 1: b has a non-finite entry"),
        ("A", lambda A: [[float("inf")] + A[0][1:]] + A[1:],
         "node entry 1: A has a non-finite entry"),
        ("A", lambda A: A[:-1] + [[float("nan")] + A[-1][1:]],
         "node entry 1: A has a non-finite entry"),
        ("delta", "1", "node entry 1: delta must be a number, got '1'"),
        ("beta1", None, "node entry 1: beta1 must be a number, got None"),
        ("beta2", True, "node entry 1: beta2 must be a number, got True"),
        # once read as the group [1, 2]
        ("groups", lambda g: [[1.5, 2]] + g[1:],
         r"node entry 1: groups\[0\] must be a nonempty 1-D list of integers, got an entry 1.5"),
        # each of these once ended in a TypeError
        ("A", None, "node entry 1: A must be a JSON array, got None"),
        ("A", lambda A: [[{}] + A[0][1:]] + A[1:],
         "node entry 1: A must be a nonempty 2-D array of numbers, got an entry {}"),
        ("groups", lambda g: [[None]] + g[1:],
         r"node entry 1: groups\[0\] must be a nonempty 1-D list of integers, got an entry None"),
    ], ids=["b-nan", "A-inf", "A-nan", "delta-string", "beta1-null", "beta2-bool",
            "group-float", "A-null", "A-entry-object", "group-entry-null"])
    def test_node_numbers_are_checked(self, tmp_path, key, value, message):
        path = tmp_path / "inst.json"
        instance_to_json(small_instance(), str(path))
        raw = json.loads(path.read_text())
        entry = raw["nodes"][1]
        entry[key] = value(entry[key]) if callable(value) else value
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=message):
            instance_from_json(str(path))

    def test_node_entry_must_be_an_object(self, tmp_path):
        path = tmp_path / "inst.json"
        instance_to_json(small_instance(), str(path))
        raw = json.loads(path.read_text())
        path.write_text(json.dumps(dict(raw, nodes=[1, 2])))
        with pytest.raises(ValueError, match=r"node entry 0 lacks the key\(s\) 'A'"):
            instance_from_json(str(path))


class TestCli:
    ARGS = ["--topology", "star", "--nodes", "2", "--ng", "2",
            "--groups", "2", "--seed", "3"]

    def test_gen_writes_instance(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert cli_main(["gen", *self.ARGS, "--out", str(out)]) == 0
        assert "n=4" in capsys.readouterr().out
        back = instance_from_json(str(out))
        assert len(back.nodes) == 2

    def test_module_entry_point_exits_with_the_status_of_main(self, tmp_path, monkeypatch):
        # runpy warns when the module it runs as __main__ is already imported
        monkeypatch.delitem(sys.modules, "dfalopt.cli")
        out = tmp_path / "inst.json"
        monkeypatch.setattr(sys, "argv", ["dfalopt", "gen", *self.ARGS, "--out", str(out)])
        with pytest.raises(SystemExit) as stop:
            runpy.run_module("dfalopt.cli", run_name="__main__")
        assert stop.value.code == 0
        assert len(instance_from_json(str(out)).nodes) == 2

    def test_ref_from_instance_file(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        cli_main(["gen", *self.ARGS, "--out", str(inst_path)])
        out = tmp_path / "ref.json"
        assert cli_main(
            ["ref", "--instance", str(inst_path), "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == "apg"
        assert payload["converged"]
        # the file and the line carry the solve's iterations and seconds
        ref = reference_solve(instance_from_json(str(inst_path)))
        assert (payload["iterations"], payload["seconds"]) == (ref.iterations, ref.seconds)
        assert ref.iterations > 0 < ref.seconds
        assert f"{ref.iterations} iterations, {ref.seconds:.3g} s)" in capsys.readouterr().out

    def test_solve_writes_trace_and_summary(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = cli_main(["solve", "--alg", "dfal", *self.ARGS, "--out", str(out)])
        assert code == 0
        assert "converged=True" in capsys.readouterr().out
        header = out.read_text().splitlines()[0]
        assert header.startswith("k,lambda,F_sum")
        summary = json.loads((tmp_path / "run.csv.summary.json").read_text())
        assert summary["converged"]

    def test_bench_means_lines_align(self, tmp_path, capsys):
        # afal-rbcd and afal-arbcd are the longest names, and a padding
        # shorter than they are shifts their columns
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "algorithms": list(CONFIG_DOMAINS["algorithms"]),
            "topologies": ["star", "clique"], "cases": [1], "N": 2, "n_g": 2,
            "K": 2, "seeds": [3], "admm_iters": 2,
        }))
        assert cli_main(["bench", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert len(lines) == 2 * len(CONFIG_DOMAINS["algorithms"])
        for column in (" case ", "rel=", "CV=", "iters="):
            starts = {line.find(column) for line in lines if column in line}
            assert len(starts) == 1, column
        assert all(line.find("rel=") > 0 for line in lines)

    @pytest.mark.parametrize("alg", ["dfal", "afal-rbcd"], ids=["dfal", "afal"])
    def test_solve_honours_the_time_budget(self, tmp_path, alg):
        out = tmp_path / "run.csv"
        assert cli_main(["solve", "--alg", alg, *self.ARGS, "--budget-secs", "1e-9",
                         "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        assert len(rows) == 1
        assert dict(zip(header.split(","), rows[0].split(",")))["stop_reason"] == "timeout"
        summary = json.loads((tmp_path / "run.csv.summary.json").read_text())
        assert summary["stop_reason"] == "timeout"

    def test_edge_file_topology(self, tmp_path, capsys):
        edges = tmp_path / "path4.txt"
        edges.write_text("4\n1 2\n2 3\n3 4\n")
        args = ["--topology", "edge-file", "--edge-file", str(edges),
                "--ng", "2", "--groups", "4", "--seed", "3"]
        inst_path = tmp_path / "inst.json"
        assert cli_main(["gen", *args, "--out", str(inst_path)]) == 0
        back = instance_from_json(str(inst_path))
        assert len(back.nodes) == 4
        assert back.graph.edges == ((1, 2), (2, 3), (3, 4))
        out = tmp_path / "run.csv"
        assert cli_main(["solve", "--alg", "dfal", *args, "--out", str(out)]) == 0
        assert "converged=True" in capsys.readouterr().out
        ring = tmp_path / "ring4.txt"
        ring.write_text("4\n1 2\n2 3\n3 4\n1 4\n")
        with pytest.raises(ValueError, match="the edge file has 4 nodes, not N=5"):
            generate_instance(1, "edge-file", 5, 4, 5, 1, edge_file=str(ring))

    @pytest.mark.parametrize("alg", CONFIG_DOMAINS["algorithms"])
    def test_solve_is_the_matrix_run(self, tmp_path, alg):
        # dfalopt solve and the matrix share one dispatch and its names
        inst = small_instance()
        out = tmp_path / "run.csv"
        assert cli_main(["solve", "--alg", alg, *self.ARGS, "--out", str(out)]) == 0
        trace = run_solver(alg, inst, reference_solve(inst), dict(DEFAULT_BENCH_CONFIG))
        direct = tmp_path / "direct.csv"
        trace.write_csv(str(direct))
        assert out.read_text() == direct.read_text()

    @pytest.mark.parametrize("argv", [
        ["gen", "--topology", "star", "--edge-file", "edges.txt"],
        ["ref", "--tolerance", "nan"],
        ["gen", "--nodes", "3"],  # 2N = 6 does not divide n = 100
        ["gen", "--topology", "edge-file"],
        ["solve", "--alg", "apg", "--case", "2"],
        ["ref", "--tolerance", "inf"],
        ["solve", "--alg", "dfal", "--eps-opt", "-1", "--budget-secs", "2"],
        # apg once ignored both and exited 0 after its reference solve
        ["solve", "--alg", "apg", "--eps-opt", "-1", "--budget-secs", "-5"],
        ["solve", "--alg", "apg", "--budget-secs", "0"],
        ["ref", "--tolerance", "1e3"],
        # an infinite penalty once failed on "prox steps must be positive"
        ["solve", "--alg", "admm", "--c-admm", "inf"],
        ["solve", "--alg", "sadmm", "--c-admm", "inf"],
        # argparse's choices once rejected it as "dfalopt gen: error:"
        ["gen", "--case", "3"],
    ])
    def test_bad_input_is_one_error_line(self, tmp_path, monkeypatch, capsys, argv):
        # library ValueErrors once reached the user as tracebacks
        monkeypatch.chdir(tmp_path)
        (tmp_path / "edges.txt").write_text("5\n1 2\n1 3\n1 4\n1 5\n")
        with pytest.raises(SystemExit) as exc:
            cli_main([*argv, "--out", "out.json"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [ln for ln in err.splitlines() if ln.startswith("dfalopt: error: ")]
        assert len(errors) == 1
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--alg", "dfal", "--topology", "edge-file", "--edge-file", "missing.txt"],
         "No such file or directory: 'missing.txt'"),
        (["ref", "--instance", "missing.json"], "No such file or directory"),
        (["ref", "--instance", "."], "Is a directory"),
        (["ref", "--instance", "partial.json"], "partial.json lacks the key(s) 'case'"),
        (["bench", "--config", "seed.json"], "unknown config keys: 'seed'"),
        (["bench", "--config", "seeds.json"], "config key 'seeds' must be a JSON array"),
        (["ref", "--instance", "case.json"], "case must be 1 or 2, got 3"),
        # these three once ended in a TypeError traceback
        (["ref", "--instance", "bad_nodes.json"],
         "bad_nodes.json: nodes must be a JSON array, got None"),
        (["ref", "--instance", "edges0.json"],
         "edges0.json: edges must be a JSON array, got 0"),
        (["bench", "--config", "N.json"], "config key 'N' must be an integer, got 3.0"),
        # each of these once printed an F* or ended in a traceback
        (["ref", "--instance", "edges.json"],
         "edges must be a nonempty 1-D list of integers, got an entry 1.5"),
        (["ref", "--instance", "b.json"], "node entry 0: b has a non-finite entry"),
        (["ref", "--instance", "delta.json"],
         "node entry 0: delta must be a number, got '1'"),
        (["ref", "--instance", "beta1.json"],
         "node entry 0: beta1 must be a number, got None"),
        (["ref", "--instance", "groups.json"],
         "groups.json: node entry 0: groups must be a JSON array, got None"),
        # this one once wrote an error row per run and exited 0
        (["bench", "--config", "partial.json"], "row count n/(2N) = 100/6 is not an integer"),
    ])
    def test_unreadable_input_is_one_error_line(
        self, tmp_path, monkeypatch, capsys, argv, message
    ):
        # a missing file and a file short of a key once gave tracebacks
        monkeypatch.chdir(tmp_path)
        (tmp_path / "partial.json").write_text(json.dumps({"N": 3}))
        (tmp_path / "seed.json").write_text(json.dumps({"seed": [1]}))
        (tmp_path / "seeds.json").write_text(json.dumps({"seeds": 5}))
        (tmp_path / "N.json").write_text(json.dumps({"N": 3.0}))
        instance_to_json(small_instance(), "inst.json")
        raw = json.loads((tmp_path / "inst.json").read_text())
        for key, value in (("case", 3), ("edges", [[1.5, 2]])):
            (tmp_path / f"{key}.json").write_text(json.dumps(dict(raw, **{key: value})))
        (tmp_path / "bad_nodes.json").write_text(json.dumps(dict(raw, nodes=None)))
        (tmp_path / "edges0.json").write_text(json.dumps(dict(raw, edges=0)))
        node = raw["nodes"][0]
        for key, value in (("b", [float("nan")] + node["b"][1:]), ("delta", "1"),
                           ("beta1", None), ("groups", None)):
            nodes = [dict(node, **{key: value})] + raw["nodes"][1:]
            (tmp_path / f"{key}.json").write_text(json.dumps(dict(raw, nodes=nodes)))
        with pytest.raises(SystemExit) as exc:
            cli_main([*argv, "--out", "out.json"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [ln for ln in err.splitlines() if ln.startswith("dfalopt: error: ")]
        assert len(errors) == 1 and message in errors[0]
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--alg", "admm", "--c-admm", "0", "--case", "2"],
         "config key 'c_admm' must be in (0, inf), got 0.0"),
        (["--alg", "sadmm", "--iters", "0"], "config key 'admm_iters' must be at least 1, got 0"),
        (["--alg", "dfal", "--c", "1.5"], "config key 'c' must be in (0, 1), got 1.5"),
        (["--alg", "afal-rbcd", "--c", "nan"], "config key 'c' must be in (0, 1), got nan"),
        (["--alg", "apg", "--c-admm", "-1"],
         "config key 'c_admm' must be in (0, inf), got -1.0"),
    ], ids=["admm-c_admm-0", "sadmm-iters-0", "dfal-c-1.5", "afal-c-nan", "apg-c_admm-neg"])
    def test_solve_checks_its_settings_before_the_reference(
        self, tmp_path, monkeypatch, capsys, flags, message
    ):
        # these errors once came only after the reference solve
        import dfalopt.bench as bench

        def never(*args, **kwargs):
            raise AssertionError("the reference was solved")

        monkeypatch.setattr(bench, "reference_solve", never)
        out = tmp_path / "run.csv"
        with pytest.raises(SystemExit) as exc:
            cli_main(["solve", *flags, *self.ARGS, "--out", str(out)])
        assert exc.value.code == 2
        assert f"dfalopt: error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, key, value", [
        ("--c", "c", 1.5),
        ("--c-admm", "c_admm", 0.0),
        ("--eps-opt", "eps_opt", -1.0),
        ("--eps-feas", "eps_feas", math.inf),
        ("--iters", "admm_iters", 0),
        ("--budget-secs", "budget_secs", math.nan),
    ])
    def test_solve_and_bench_read_a_setting_alike(
        self, tmp_path, monkeypatch, capsys, flag, key, value
    ):
        # solve once kept its own bounds and named the settings its own way
        import dfalopt.bench as bench

        def never(*args, **kwargs):
            raise AssertionError("an instance or a reference was made")

        monkeypatch.setattr(bench, "generate_instance", never)
        monkeypatch.setattr(bench, "reference_solve", never)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        errors = []
        for argv in (["solve", "--alg", "dfal", flag, str(value)],
                     ["bench", "--config", "cfg.json"]):
            with pytest.raises(SystemExit) as exc:
                cli_main([*argv, "--out", "out"])
            assert exc.value.code == 2
            errors.append([ln for ln in capsys.readouterr().err.splitlines()
                           if ln.startswith("dfalopt: error: ")])
        assert len(errors[0]) == 1 and errors[0] == errors[1]
        assert errors[0][0].startswith(f"dfalopt: error: config key {key!r} must be ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--groups", "0"], "number of groups K must be at least 1, got 0"),
        (["--ng", "0"], "group size n_g must be at least 1, got 0"),
        (["--ng", "-2", "--groups", "-5"], "group size n_g must be at least 1, got -2"),
        (["--seed", "-1"], "seed must be nonnegative, got -1"),
    ])
    def test_gen_rejects_nonpositive_sizes_and_negative_seeds(
        self, tmp_path, capsys, flags, message
    ):
        out = tmp_path / "inst.json"
        with pytest.raises(SystemExit) as exc:
            cli_main(["gen", *flags, "--out", str(out)])
        assert exc.value.code == 2
        assert f"dfalopt: error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case, keep, message", [
        (2, 3, "the case-1 reference needs nodes that share one partition"),
        (1, 2, "(1, 3) references a node outside [1, 2]"),
    ])
    def test_ref_rejects_an_inconsistent_instance_file(
        self, tmp_path, capsys, case, keep, message
    ):
        # case-2 nodes labelled case 1, and a case-1 file short of one node
        path = tmp_path / "inst.json"
        instance_to_json(generate_instance(case, "star", 3, 4, 3, seed=2), str(path))
        raw = json.loads(path.read_text())
        path.write_text(json.dumps(dict(raw, case=1, nodes=raw["nodes"][:keep])))
        out = tmp_path / "ref.json"
        with pytest.raises(SystemExit) as exc:
            cli_main(["ref", "--instance", str(path), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [ln for ln in err.splitlines() if ln.startswith("dfalopt: error: ")]
        assert len(errors) == 1 and message in errors[0]
        assert not out.exists()

    def test_edge_file_topology_needs_the_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli_main(["gen", "--topology", "edge-file", "--out", str(tmp_path / "x.json")])
        assert "dfalopt: error: edge-file topology needs a path\n" in capsys.readouterr().err

    def test_apg_row_reuses_the_reference(self, tmp_path, monkeypatch):
        import dfalopt.bench as bench

        calls, refs = [], []

        def counted(instance, tolerance):
            calls.append(tolerance)
            refs.append(_reference_case1(instance, tolerance))
            return refs[-1]

        monkeypatch.setattr(bench, "_REFERENCE_CACHE", {})
        monkeypatch.setattr(bench, "_reference_case1", counted)
        out = tmp_path / "apg.csv"
        assert cli_main(["solve", "--alg", "apg", *self.ARGS, "--out", str(out)]) == 0
        assert calls == [1e-9]
        summary = json.loads((tmp_path / "apg.csv.summary.json").read_text())
        assert summary["converged"]
        header, row = out.read_text().splitlines()
        line = dict(zip(header.split(","), row.split(",")))
        # scored against the dual bound D = F* - gap |F*|, so the row's gap is the
        # certificate's (F* - D) / |D|
        f_star, gap = refs[0].f_star, refs[0].gap
        bound = f_star - gap * abs(f_star)
        assert 0 <= gap <= 1e-9
        assert float(line["rel_subopt"]) == pytest.approx((f_star - bound) / bound, rel=1e-6,
                                                          abs=1e-16)
        assert line["stop_reason"] == "residual"
        # the row reports the reference's own APG run
        iters = int(line["inner_iters"])
        assert iters == refs[0].iterations > 0
        assert int(line["grad_count"]) == iters
        # a prox per APG iteration but the last, none per Newton step
        assert int(line["prox_count"]) == iters - refs[0].newton - 1
        assert summary["wall_time"] == refs[0].seconds > 0.0

    def test_apg_uncertified_reference_is_not_converged(
        self, tmp_path, monkeypatch, capsys
    ):
        # converged once read the row's gap, which is 0 by construction
        import dfalopt.bench as bench

        def capped(instance, tolerance):
            ref = _reference_case1(instance, tolerance)
            return replace(ref, converged=False, iterations=500_000, newton=0)

        monkeypatch.setattr(bench, "_REFERENCE_CACHE", {})
        monkeypatch.setattr(bench, "_reference_case1", capped)
        out = tmp_path / "apg.csv"
        assert cli_main(["solve", "--alg", "apg", *self.ARGS, "--out", str(out)]) == 0
        assert "converged=False" in capsys.readouterr().out
        summary = json.loads((tmp_path / "apg.csv.summary.json").read_text())
        assert summary["converged"] is False
        header, row = out.read_text().splitlines()
        line = dict(zip(header.split(","), row.split(",")))
        assert line["stop_reason"] == "cap"
        assert int(line["grad_count"]) == int(line["prox_count"]) == 500_000

    def test_apg_rejects_case2(self, tmp_path, monkeypatch, capsys):
        # this once exited 1 without a usage line, after solving a case-2
        # reference that it then threw away
        import dfalopt.bench as bench

        calls = []
        monkeypatch.setattr(bench, "reference_solve", lambda *a, **kw: calls.append(a))
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            cli_main(["solve", "--alg", "apg", "--case", "2", *self.ARGS,
                      "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "dfalopt: error: --alg apg requires --case 1" in err
        assert calls == []
        assert not out.exists()

    def test_bench_with_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TestRunBenchmark.SMALL_CFG))
        out = tmp_path / "report.json"
        assert cli_main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["rows"][0]["converged"] is True
        assert "desk scale" in payload["note"]
