"""Benchmark protocol: instance generation, references, metrics, the run
matrix, and the command line front end."""

import json
from dataclasses import replace

import numpy as np
import pytest

from dfalopt import (
    CommLedger,
    HuberLoss,
    NodeProblem,
    SparseGroupReg,
    apg,
    build_topology,
    consensus_violation,
    generate_instance,
    reference_solve,
    run_benchmark,
    sadmm_solve,
)
from dfalopt.bench import (
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
        assert inst.m == 10
        assert inst.beta1 == pytest.approx(0.2)
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
        for p in inst.nodes:
            assert np.allclose(p.loss.b, p.loss.A @ inst.x_gen)


class TestReferenceSolve:
    def test_tolerance_floor(self):
        with pytest.raises(ValueError, match="tolerance"):
            reference_solve(small_instance(), tolerance=1e-12)

    def test_nan_tolerance_rejected(self):
        # NaN once ran 500000 APG iterations and returned an uncertified point
        with pytest.raises(ValueError, match="tolerance must be at least 1e-9"):
            reference_solve(small_instance(), tolerance=float("nan"), cache=False)

    def test_infinite_tolerance_rejected(self):
        # inf once certified the start point: x = 0, converged, F* far too high
        with pytest.raises(ValueError, match="at least 1e-9 and finite, got inf"):
            reference_solve(small_instance(), tolerance=float("inf"), cache=False)

    @pytest.mark.parametrize("tolerance", [1e3, 1e-5])
    def test_loose_tolerance_rejected(self, tolerance):
        # 1e3 once certified the start point of the seed-1 star: x = 0,
        # converged, F* = 77.66 where the optimum is 13.85
        inst = generate_instance(1, "star", 5, 10, 10, 1)
        with pytest.raises(ValueError, match="tolerance must be at most 1e-6"):
            reference_solve(inst, tolerance=tolerance, cache=False)

    def test_loosest_tolerance_accepted(self):
        ref = reference_solve(small_instance(), tolerance=1e-6, cache=False)
        assert ref.converged

    def test_case1_residual_certificate(self):
        inst = small_instance()
        ref = reference_solve(inst, cache=False)
        assert ref.converged
        N = inst.N
        combined = SparseGroupReg(
            N * inst.beta1, N * inst.beta2, inst.nodes[0].reg.partition
        )
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
        inst.beta1 = inst.beta2 = 0.0
        ref = _reference_case1(inst, 1e-9)
        lip = sum(p.loss.lipschitz for p in inst.nodes)
        x = np.zeros(inst.n)
        for _ in range(200_000):
            g = sum(p.loss.grad(x) for p in inst.nodes)
            x -= g / lip
        f_gd = sum(p.loss.value(x) for p in inst.nodes)
        assert abs(ref.f_star - f_gd) <= 1e-8

    def test_case2_reference_is_consensus_feasible(self):
        inst = small_instance(case=2)
        ref = reference_solve(inst, cache=False)
        assert ref.method in ("dfal-long", "sadmm-tight")
        assert np.all(np.isfinite(ref.x_ref))
        assert ref.f_star > 0

    def test_case2_sadmm_candidate_certified_by_its_cv(self):
        # sadmm-tight wins here with a final CV near 2.7e-7, and was once
        # reported converged unconditionally; dfal-long's CV is over 1e-8 too
        ref = reference_solve(generate_instance(2, "star", 3, 4, 3, seed=2), cache=False)
        assert ref.method == "sadmm-tight"
        assert not ref.converged

    def test_cache_round_trip(self):
        inst = small_instance(seed=11)
        a = reference_solve(inst)
        b = reference_solve(small_instance(seed=11))
        assert a is b

    def test_case2_cache_ignores_the_tolerance(self, monkeypatch):
        # case 2 ignores the tolerance, so a second tolerance once re-solved
        import dfalopt.bench as bench

        calls = []

        def counted(instance):
            calls.append(instance)
            return _reference_case2(instance)

        monkeypatch.setattr(bench, "_REFERENCE_CACHE", {})
        monkeypatch.setattr(bench, "_reference_case2", counted)
        inst = small_instance(case=2)
        first = reference_solve(inst)
        assert reference_solve(inst, tolerance=1e-8) is first
        assert len(calls) == 1

    def test_case1_cache_ignores_the_graph(self, monkeypatch):
        # the case-1 optimum ignores the edges, so the star and the clique of
        # one seed share one solve; the case-2 reference runs over the graph
        import dfalopt.bench as bench

        calls = []

        def counted(instance):
            calls.append(instance.topology)
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
        assert calls == ["star", "clique"]

    def test_cache_keys_on_content_not_on_names(self):
        # same (case, topology, N, n_g, K, seed), different Huber delta
        wide = reference_solve(small_instance(seed=3))
        narrow = reference_solve(small_instance(seed=3, delta=0.05))
        fresh = reference_solve(small_instance(seed=3, delta=0.05), cache=False)
        assert narrow is not wide
        assert narrow.f_star == pytest.approx(fresh.f_star, rel=1e-12)
        assert narrow.f_star < 0.5 < wide.f_star
        assert reference_solve(small_instance(seed=3, delta=0.05)) is narrow


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
        combined = SparseGroupReg(
            N * inst.beta1, N * inst.beta2, inst.nodes[0].reg.partition
        )
        grad = sum(p.loss.grad(restarted.x_ref) for p in inst.nodes)
        assert combined.subgrad_residual(1.0, grad, restarted.x_ref) <= 1e-9
        assert restarted.f_star == pytest.approx(plain.f_star, rel=1e-12, abs=0.0)
        assert restarted.iterations <= plain.iterations

    def test_benchmark_instance_certifies_in_under_1500_iterations(self):
        # plain momentum needs 7890 iterations here
        ref = _reference_case1(generate_instance(1, "star", 5, 10, 10, 1), 1e-9)
        assert ref.converged
        assert ref.iterations < 1500


class TestEvaluate:
    """Trace rows measured against a reference, as ``RunTrace.record``
    writes them."""

    @staticmethod
    def _series(rows, f_star):
        trace = RunTrace("dfal", config={})
        for k, f, cv in rows:
            trace.record(k=k, lam=1.0, F_sum=f, reference=f_star, CV=cv,
                         ledger=CommLedger(1), dual_norm=0.0, inner_iters=0,
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

    def test_time_budget_reaches_dfal(self):
        # the matrix once passed budget_secs to the baselines only
        report = run_benchmark(dict(self.SMALL_CFG, budget_secs=1e-9))
        row = report.rows[0]
        assert row["budget_exhausted"], row
        assert row["iterations"] == 1

    def test_unknown_algorithm_recorded(self):
        # "afal" is not a name of the dispatch; the oracle is part of it
        report = run_benchmark(dict(self.SMALL_CFG, algorithms=["afal"]))
        assert report.rows[0]["error"] == "ValueError: unknown algorithm 'afal'"

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

    def test_failures_recorded_per_row(self):
        cfg = dict(self.SMALL_CFG, N=3)  # 2N does not divide n = 4
        report = run_benchmark(cfg)
        assert len(report.rows) == 1
        assert "error" in report.rows[0]
        assert report.means == []

    def test_digest_tracks_config(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})
        assert len(config_digest({"a": 1})) == 16


class TestInstanceJson:
    def test_round_trip(self, tmp_path):
        inst = small_instance(case=2, seed=9)
        path = tmp_path / "inst.json"
        instance_to_json(inst, str(path))
        back = instance_from_json(str(path))
        for name in ("case", "topology", "N", "n_g", "K", "seed"):
            assert getattr(back, name) == getattr(inst, name)
        assert back.graph.edges == inst.graph.edges
        for pa, pb in zip(inst.nodes, back.nodes):
            assert np.array_equal(pa.loss.A, pb.loss.A)
            assert np.array_equal(pa.loss.b, pb.loss.b)
            assert all(
                np.array_equal(a, b)
                for a, b in zip(pa.reg.partition.groups, pb.reg.partition.groups)
            )
        assert np.array_equal(back.x_gen, inst.x_gen)

    def test_node_count_must_match_N(self, tmp_path):
        # a file holding 2 of N=3 node entries once loaded, and its case-1
        # reference summed only those 2
        path = tmp_path / "inst.json"
        instance_to_json(generate_instance(1, "star", 3, 4, 3, seed=2), str(path))
        raw = json.loads(path.read_text())
        path.write_text(json.dumps(dict(raw, nodes=raw["nodes"][:2])))
        with pytest.raises(ValueError, match="2 node entries, not N=3"):
            instance_from_json(str(path))


class TestCli:
    ARGS = ["--topology", "star", "--nodes", "2", "--ng", "2",
            "--groups", "2", "--seed", "3"]

    def test_gen_writes_instance(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert cli_main(["gen", *self.ARGS, "--out", str(out)]) == 0
        assert "n=4" in capsys.readouterr().out
        back = instance_from_json(str(out))
        assert back.N == 2

    def test_ref_from_instance_file(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        cli_main(["gen", *self.ARGS, "--out", str(inst_path)])
        out = tmp_path / "ref.json"
        assert cli_main(
            ["ref", "--instance", str(inst_path), "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == "apg"
        assert payload["converged"]

    def test_solve_writes_trace_and_summary(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = cli_main(["solve", "--alg", "dfal", *self.ARGS, "--out", str(out)])
        assert code == 0
        assert "converged=True" in capsys.readouterr().out
        header = out.read_text().splitlines()[0]
        assert header.startswith("k,lambda,F_sum")
        summary = json.loads((tmp_path / "run.csv.summary.json").read_text())
        assert summary["converged"]

    @pytest.mark.parametrize("alg", ["dfal", "afal"])
    def test_solve_honours_the_time_budget(self, tmp_path, alg):
        out = tmp_path / "run.csv"
        assert cli_main(["solve", "--alg", alg, *self.ARGS, "--budget-secs", "1e-9",
                         "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        assert len(rows) == 1
        assert dict(zip(header.split(","), rows[0].split(",")))["stop_reason"] == "timeout"

    def test_edge_file_topology(self, tmp_path, capsys):
        edges = tmp_path / "path4.txt"
        edges.write_text("4\n1 2\n2 3\n3 4\n")
        args = ["--topology", "file", "--edge-file", str(edges),
                "--ng", "2", "--groups", "4", "--seed", "3"]
        inst_path = tmp_path / "inst.json"
        assert cli_main(["gen", *args, "--out", str(inst_path)]) == 0
        back = instance_from_json(str(inst_path))
        assert back.N == 4
        assert back.graph.edges == ((1, 2), (2, 3), (3, 4))
        out = tmp_path / "run.csv"
        assert cli_main(["solve", "--alg", "dfal", *args, "--out", str(out)]) == 0
        assert "converged=True" in capsys.readouterr().out

    def test_async_solve_is_the_matrix_run(self, tmp_path):
        # dfalopt solve and the matrix share one dispatch; the oracle
        # defaults to rbcd
        inst = small_instance()
        for oracle_args, alg in ([], "afal-rbcd"), (["--oracle", "arbcd"], "afal-arbcd"):
            out = tmp_path / "run.csv"
            assert cli_main(["solve", "--alg", "afal", *oracle_args, *self.ARGS,
                             "--out", str(out)]) == 0
            trace = run_solver(alg, inst, reference_solve(inst),
                               dict(DEFAULT_BENCH_CONFIG))
            direct = tmp_path / "direct.csv"
            trace.write_csv(str(direct))
            assert out.read_text() == direct.read_text()

    @pytest.mark.parametrize("argv", [
        ["gen", "--topology", "star", "--edge-file", "edges.txt"],
        ["ref", "--tolerance", "nan"],
        ["gen", "--nodes", "3"],  # 2N = 6 does not divide n = 100
        ["gen", "--topology", "file"],
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

    @pytest.mark.parametrize("flags, message", [
        (["--alg", "admm", "--c-admm", "0", "--case", "2"],
         "c_admm must be positive and finite, got 0.0"),
        (["--alg", "sadmm", "--iters", "0"], "iters must be at least 1, got 0"),
        (["--alg", "dfal", "--c", "1.5"], "shrink factor must lie in (0, 1)"),
        (["--alg", "afal", "--c", "nan"], "shrink factor must lie in (0, 1)"),
        (["--alg", "apg", "--c-admm", "-1"],
         "c_admm must be positive and finite, got -1.0"),
    ])
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
        (1, 2, "2 node entries, not N=3"),
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

    @pytest.mark.parametrize("alg", ["dfal", "sadmm", "admm", "apg"])
    def test_oracle_only_with_afal(self, tmp_path, capsys, alg):
        # solve --alg dfal --oracle arbcd once ran dfal and said nothing
        out = tmp_path / "run.csv"
        with pytest.raises(SystemExit) as exc:
            cli_main(["solve", "--alg", alg, "--oracle", "arbcd", *self.ARGS,
                      "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "dfalopt: error: --oracle applies only to --alg afal" in err
        assert not out.exists()

    def test_edge_file_topology_needs_the_file(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["gen", "--topology", "file", "--out", str(tmp_path / "x.json")])

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
        assert float(line["rel_subopt"]) == 0.0
        assert line["stop_reason"] == "residual"
        # the row reports the reference's own APG run
        iters = int(line["inner_iters"])
        assert iters == refs[0].iterations > 0
        assert int(line["grad_count"]) == iters
        assert int(line["prox_count"]) == iters - 1
        assert summary["wall_time"] == refs[0].seconds > 0.0

    def test_apg_uncertified_reference_is_not_converged(
        self, tmp_path, monkeypatch, capsys
    ):
        # converged once read the row's gap, which is 0 by construction
        import dfalopt.bench as bench

        def capped(instance, tolerance):
            ref = _reference_case1(instance, tolerance)
            return replace(ref, converged=False, iterations=500_000)

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
