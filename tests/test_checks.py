"""The input boundary: the four readers, one regression case per input that
once escaped them, and a seeded mutation sweep over instance files,
``--config`` files, constructor arguments and solver arguments."""

import copy
import json
import math
import re
import time
from functools import partial

import numpy as np
import pytest

import dfalopt.bench as bench
from dfalopt import (
    DfalParams, Graph, GroupPartition, HuberLoss, SparseGroupReg, admm_solve,
    async_dfal_solve, build_topology, default_params, dfal_solve,
    generate_instance, reference_solve, run_benchmark, sadmm_solve,
)
from dfalopt.bench import instance_from_json, instance_to_json
from dfalopt.checks import array, indices, integer, real
from dfalopt.cli import main as cli_main
from dfalopt.funcs import NodeStack
from dfalopt.solvers import (
    BlockObjective, activation_stream, arbcd_chain, arbcd_run, ms_apg, rbcd_run,
)
from dfalopt.trace import RunTrace
from conftest import small_node

# one-value mutations: each replaces a value, or deletes a key
VALUES = [None, True, "x", 1.5, -1, 0, math.nan, math.inf, 1e308, [], {}, [[1, 2, 3]],
          10**20]
DELETE = object()


def named(key: str, message: str) -> bool:
    """``message`` names ``key``, in the singular or the plural."""
    stem = key[:-1] if key.endswith("s") else key
    return re.search(rf"\b{re.escape(stem)}s?\b", message) is not None


def mutations(doc, path=()):
    """``(path, value, copy)`` for each value of ``VALUES`` at every key of
    every object and the first two entries of every list, and each key
    deleted; ``copy`` is ``doc`` with that one change."""
    keys = doc.items() if isinstance(doc, dict) else enumerate(doc[:2])
    for key, child in keys:
        here = path + (key,)
        for value in VALUES + [DELETE] * isinstance(doc, dict):
            new = copy.deepcopy(doc)
            if value is DELETE:
                del new[key]
            else:
                new[key] = copy.deepcopy(value)
            yield here, value, new
        if isinstance(child, (dict, list)):
            for sub, value, changed in mutations(child, here):
                new = copy.deepcopy(doc)
                new[key] = changed
                yield sub, value, new


def error_lines(capsys) -> list[str]:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return [ln for ln in err.splitlines() if ln.startswith("dfalopt: error: ")]


class TestReaders:
    @pytest.mark.parametrize("value", [0, 7, np.int64(3), 10**20])
    def test_integers_pass_unchanged(self, value):
        assert integer("k", value) is value

    @pytest.mark.parametrize("value", [True, np.True_, 1.0, "1", None, np.float64(2)])
    def test_other_kinds_are_not_integers(self, value):
        with pytest.raises(ValueError, match=f"k must be an integer, got {re.escape(repr(value))}"):
            integer("k", value)

    def test_integer_bounds(self):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            integer("seed", -1, 0)
        with pytest.raises(ValueError, match="iters must be at least 1, got 0"):
            integer("iters", 0, 1)

    @pytest.mark.parametrize("value", [0.5, 1, np.float64(0.25), np.int32(1)])
    def test_numbers_pass_unchanged(self, value):
        assert real("x", value, 0, 1) is value

    @pytest.mark.parametrize("value, message", [
        (True, "x must be a number, got True"),
        ("1", "x must be a number, got '1'"),
        (math.nan, r"x must be in \[0, 1\], got nan"),
        (10**400, r"x must be in \[0, 1\], got 1000"),
        (2, r"x must be in \[0, 1\], got 2"),
    ])
    def test_numbers_are_finite_and_in_range(self, value, message):
        with pytest.raises(ValueError, match=message):
            real("x", value, 0, 1)

    def test_strict_and_unbounded_intervals(self):
        with pytest.raises(ValueError, match=r"c must be in \(0, 1\), got 1"):
            real("c", 1, 0, 1, strict=True)
        with pytest.raises(ValueError, match=r"t must be in \(-inf, inf\), got inf"):
            real("t", math.inf)
        with pytest.raises(ValueError, match=r"b must be in \[0, inf\), got -1"):
            real("b", -1, 0)

    @pytest.mark.parametrize("value", [[1, 2], (3,), np.array([0, 5])])
    def test_index_lists_pass_unchanged(self, value):
        assert indices("g", value) is value

    @pytest.mark.parametrize("value", [
        [True, 2], [1.5], [10**20], [[1, 2]], "12", None, 3, [], np.array([True]),
        np.array([1.0]),
    ])
    def test_other_values_are_not_index_lists(self, value):
        with pytest.raises(ValueError, match="g must be a nonempty 1-D list of integers, got"):
            indices("g", value)

    @pytest.mark.parametrize("value", [[[1.0, 2]], np.ones((2, 3)), [[0]]])
    def test_arrays_pass_unchanged(self, value):
        assert array("A", value, 2) is value

    @pytest.mark.parametrize("value", [
        [[1.0, True]], [[1.0], [2.0, 3.0]], [[[1.0]]], [1.0], [["1"]], [[None]], [[]],
        np.ones((2, 2), dtype=bool), np.array([["a"]]),
    ])
    def test_other_values_are_not_arrays(self, value):
        with pytest.raises(ValueError, match="A must be a nonempty 2-D array of numbers, got"):
            array("A", value, 2)

    def test_array_entries_are_finite(self):
        with pytest.raises(ValueError, match="A has a non-finite entry"):
            array("A", [[1.0, math.inf]], 2)

    def test_a_long_value_is_cut_short(self):
        with pytest.raises(ValueError) as exc:
            array("A", [[True] * 1000], 2)
        assert len(str(exc.value)) < 200


class TestConstructorEscapes:
    """Each of these once ended in another exception, or was accepted."""

    @pytest.mark.parametrize("n", [3.0, True, "3"])
    def test_partition_size_is_an_integer(self, n):
        # a TypeError or a UFuncTypeError
        with pytest.raises(ValueError, match=f"n must be an integer, got {re.escape(repr(n))}"):
            GroupPartition(n, (np.array([0, 1]), np.array([2])))

    @pytest.mark.parametrize("group_size", [0, -3])
    def test_contiguous_group_size_is_at_least_one(self, group_size):
        # a ZeroDivisionError, or numpy's "can only specify one unknown dimension"
        message = f"group_size must be at least 1, got {group_size}"
        with pytest.raises(ValueError, match=message):
            GroupPartition.contiguous(6, group_size)

    def test_loss_matrix_is_two_dimensional(self):
        # loaded as a 3-D A
        with pytest.raises(ValueError, match=r"A must be a nonempty 2-D array of numbers, got \[\[\[1.0\]\]\]"):
            HuberLoss(A=[[[1.0]]], b=[1.0])

    def test_regularizer_partition_is_a_partition(self):
        # an AttributeError
        with pytest.raises(ValueError, match="partition must be a GroupPartition, got 'x'"):
            SparseGroupReg(0.5, 0.5, partition="x")

    @pytest.mark.parametrize("key, value, message", [
        ("outer_cap", 2.5, "outer_cap must be an integer, got 2.5"),
        ("outer_cap", True, "outer_cap must be an integer, got True"),
        ("outer_cap", math.nan, "outer_cap must be an integer, got nan"),
        ("lam1", math.inf, r"lam1 must be in \(0, inf\), got inf"),
        ("bx", math.inf, r"bx must be in \(0, inf\), got inf"),
        ("psi_max", math.nan, r"psi_max must be in \[0, inf\), got nan"),
        ("lam1", "1", "lam1 must be a number, got '1'"),
    ], ids=["cap-float", "cap-bool", "cap-nan", "lam1-inf", "bx-inf", "psi-nan",
            "lam1-string"])
    def test_dfal_params_are_read(self, key, value, message):
        # each was accepted, or "1" ended in a TypeError
        with pytest.raises(ValueError, match=message):
            DfalParams(**dict(dict(lam1=1.0, alpha1=1.0, xi1=1.0), **{key: value}))


class TestSolverEscapes:
    """Each of these once ran, or ended in a TypeError after some work."""

    @pytest.fixture
    def star2(self, rng):
        nodes = [small_node(rng, n=4, m=3) for _ in range(2)]
        graph = build_topology("star", 2)
        return nodes, graph, default_params(nodes, graph)

    def test_sadmm_iterations_are_an_integer(self, star2):
        nodes, graph, _ = star2
        # True ran one iteration, and 2.5 ended in a TypeError
        for iters in (True, 2.5):
            with pytest.raises(ValueError, match=f"iters must be an integer, got {iters}"):
                sadmm_solve(nodes, graph, iters=iters)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(outer_iters=2.5), "outer_iters must be an integer, got 2.5"),
        (dict(budget_secs="1"), "budget_secs must be a number, got '1'"),
    ], ids=["seed", "outer-iters", "budget"])
    def test_async_arguments_are_read(self, star2, kwargs, message):
        nodes, graph, params = star2
        with pytest.raises(ValueError, match=message):
            async_dfal_solve(nodes, graph, params, p=0.1, **kwargs)

    @pytest.mark.parametrize("oracle", ["rbcd", "arbcd"])
    def test_a_p_that_rounds_away_is_named(self, star2, oracle):
        # 1 - (1 - p) ** (1 / K) rounded to 0.0 and reached the oracle: rbcd
        # divided by zero, and arbcd blamed a p of 0.0 the caller never passed
        nodes, graph, params = star2
        for p, K in ((1e-15, 40), (1e-17, 1)):
            with pytest.raises(ValueError, match=rf"p={p!r} over {K} outer iterations"):
                async_dfal_solve(nodes, graph, params, p=p, oracle=oracle, outer_iters=K)

    def test_reference_tolerance_is_a_number(self):
        inst = generate_instance(1, "star", 2, 2, 2, seed=3)
        with pytest.raises(ValueError, match="tolerance must be a number, got '1e-9'"):
            reference_solve(inst, tolerance="1e-9", cache=False)


@pytest.fixture
def instance_file(tmp_path):
    """The instance file of the sweep: a two-node star of case 2."""
    path = tmp_path / "inst.json"
    instance_to_json(generate_instance(2, "star", 2, 2, 2, seed=3), str(path))
    return path


class TestInstanceFileEscapes:
    @pytest.mark.parametrize("key", ["A", "b", "groups"])
    def test_true_is_not_read_as_one(self, instance_file, key):
        # each loaded, with true read as 1
        raw = json.loads(instance_file.read_text())
        node = raw["nodes"][1]
        if key == "groups":  # in place of index 1, so that it still partitions
            k = next(k for k, g in enumerate(node["groups"]) if 1 in g)
            node["groups"][k][node["groups"][k].index(1)] = True
            key = rf"groups\[{k}\]"
        else:
            (node[key][0] if key == "A" else node[key])[0] = True
        instance_file.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=(
            rf"inst.json: node entry 1: {key} must be a nonempty .* got an entry True"
        )):
            instance_from_json(str(instance_file))

    def test_node_widths_must_agree(self, instance_file):
        # widths [4, 6] loaded and failed only when solved, with "node
        # problems must share one dimension", which names neither the file
        # nor the entry
        raw = json.loads(instance_file.read_text())
        node = raw["nodes"][1]
        node["A"] = [row + [0.5, -0.5] for row in node["A"]]
        node["groups"].append([5, 6])
        instance_file.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="inst.json: node entry 1: A has 6 columns"):
            instance_from_json(str(instance_file))


def test_sizes_are_checked_before_the_graph():
    # 2N does not divide n: the star of a billion nodes was built first, at a
    # cost linear in N, before this error
    started = time.perf_counter()
    with pytest.raises(ValueError, match="is not an integer"):
        generate_instance(1, "star", 10**9, 10, 10, seed=1)
    assert time.perf_counter() - started < 1.0


class TestSweep:
    """Every one-value mutation of an input is accepted whole or is one
    ``ValueError`` that names its key; the command line shows it as one error
    line and exit status 2."""

    def test_instance_files(self, instance_file, tmp_path, capsys):
        base = json.loads(instance_file.read_text())
        counts = {"loaded": 0, "rejected": 0}
        for path, value, doc in mutations(base):
            instance_file.write_text(json.dumps(doc))
            key = next(k for k in reversed(path) if isinstance(k, str))
            try:
                inst = instance_from_json(str(instance_file))
            except ValueError as exc:
                message = str(exc)
                # a node's A, b and groups must fit each other
                keys = ("A", "b", "groups") if key in ("A", "b", "groups") else (key,)
                assert str(instance_file) in message, (path, value, message)
                assert any(named(k, message) for k in keys), (path, value, message)
                counts["rejected"] += 1
                with pytest.raises(SystemExit) as exit_:
                    cli_main(["ref", "--instance", str(instance_file),
                              "--out", str(tmp_path / "ref.json")])
                assert exit_.value.code == 2
                assert len(error_lines(capsys)) == 1, (path, value)
                continue
            counts["loaded"] += 1
            again = tmp_path / "again.json"
            instance_to_json(inst, str(again))
            assert instance_from_json(str(again)).content_digest() == inst.content_digest()
        assert sum(counts.values()) == 549
        assert not (tmp_path / "ref.json").exists()

    def test_config_files(self, monkeypatch, tmp_path, capsys):
        def not_run(*args):
            raise RuntimeError("not run")

        # an accepted config gives one error row instead of a solve
        monkeypatch.setattr(bench, "generate_instance", not_run)
        base = dict(algorithms=["dfal"], topologies=["star"], cases=[1], N=2, n_g=2, K=2,
                    seeds=[3], c=0.7, budget_secs=60.0)
        path = tmp_path / "cfg.json"

        def rejected(config) -> bool:
            # by repr, since [True] == [1.0] == [1]
            changed = [k for k in base if repr(config.get(k, DELETE)) != repr(base[k])]
            try:
                report = run_benchmark(config)
            except ValueError as exc:
                assert changed and f"config key {changed[0]!r}" in str(exc), (config, exc)
                path.write_text(json.dumps(config))
                with pytest.raises(SystemExit) as exit_:
                    cli_main(["bench", "--config", str(path), "--out", str(tmp_path / "r")])
                assert exit_.value.code == 2
                assert len(error_lines(capsys)) == 1, config
                return True
            assert all(row.get("error") == "RuntimeError: not run" for row in report.rows)
            return False

        for *_, config in mutations(base):
            rejected(config)
        # both were once accepted, and every row recorded the same error
        assert rejected(dict(base, c=5.0))
        assert rejected(dict(base, seeds=[True]))

    CONSTRUCTORS = {
        "Graph": (Graph, dict(num_nodes=3, edges=((1, 2), (2, 3)))),
        "GroupPartition": (GroupPartition, dict(n=4, groups=([0, 1], [2, 3]))),
        "HuberLoss": (HuberLoss, dict(A=[[1.0, 2.0], [3.0, 4.0]], b=[1.0, 2.0], delta=1.0)),
        "SparseGroupReg": (SparseGroupReg, dict(
            beta1=0.5, beta2=0.5, partition=GroupPartition.contiguous(2, 2))),
        "DfalParams": (DfalParams, dict(lam1=1.0, alpha1=1.0, xi1=1.0, c=0.7, bx=10.0,
                                         psi_max=0.0, outer_cap=3)),
    }
    # the names the errors use for these arguments
    ALIASES = {"num_nodes": "node", "c": "shrink factor"}

    @pytest.mark.parametrize("name", list(CONSTRUCTORS))
    def test_constructor_arguments(self, name):
        cls, base = self.CONSTRUCTORS[name]
        for path, value, kwargs in mutations(base):
            if value is DELETE:
                continue
            key = path[0]
            try:
                cls(**kwargs)
            except ValueError as exc:
                assert named(self.ALIASES.get(key, key), str(exc)), (path, value, exc)

    # each argument's domain; a value outside it must fail before any work
    SOLVER_DOMAINS = {
        "reference": lambda v: v is None or _real(v),
        "lam_min": lambda v: _real(v) and v >= 0,
        "budget_secs": lambda v: v is None or _real(v) and v > 0,
        "p": lambda v: _real(v) and 0 < v < 1,
        "seed": lambda v: _integer(v) and v >= 0,
        "outer_iters": lambda v: v is None or _integer(v) and v >= 1,
        "c_admm": lambda v: _real(v) and v > 0,
        "iters": lambda v: _integer(v) and v >= 1,
        "eps_opt": lambda v: _real(v) and v >= 0,
        "eps_feas": lambda v: _real(v) and v >= 0,
        "tolerance": lambda v: _real(v) and 1e-9 <= v <= 1e-6,
        "alpha": lambda v: _real(v) and v > 0,
        "c_estimate": lambda v: _real(v) and v > 0,
        "residual_target": lambda v: v is None or _real(v) and v >= 0,
        "num_nodes": lambda v: _integer(v) and v >= 1,
        "lam": lambda v: _real(v) and v >= 0,
        "t": lambda v: _real(v) and v > 0,
    }

    def test_solver_arguments(self, rng, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the solve started")

        monkeypatch.setattr(RunTrace, "record", no_work)
        monkeypatch.setattr(bench, "_reference_case1", no_work)
        nodes = [small_node(rng, n=4, m=3) for _ in range(2)]
        graph = build_topology("star", 2)
        params = default_params(nodes, graph)
        inst = generate_instance(1, "star", 2, 2, 2, seed=3)
        solves = {
            "dfal_solve": (partial(dfal_solve, nodes, graph, params),
                           ("lam_min", "budget_secs", "reference")),
            "async_dfal_solve": (partial(async_dfal_solve, nodes, graph, params, p=0.1),
                                 ("p", "seed", "outer_iters", "budget_secs", "reference")),
            "reference_solve": (partial(reference_solve, inst, cache=False), ("tolerance",)),
            # the readers run before the objective is read
            "arbcd_run": (partial(arbcd_run, None, None, alpha=1.0, p=0.5, rng=None,
                                  c_estimate=1.0), ("alpha", "p", "c_estimate")),
            # a bad seed or target once ran: numpy refused the seed at the first
            # draw, and a negative or NaN target ran the solver to its cap
            "activation_stream": (partial(activation_stream, seed=0, num_nodes=2),
                                  ("seed", "num_nodes")),
        }
        # an objective whose every kernel fails the test when an inner solver runs
        unrun = BlockObjective(np.ones(2), no_work, no_work, [(no_work,) * 3] * 2, no_work)
        y0, seeded = np.zeros((2, 3)), ("seed", "residual_target")
        solves["ms_apg"] = (partial(ms_apg, unrun, y0), ("residual_target",))
        solves["rbcd_run"] = (partial(rbcd_run, unrun, y0, 5, seed=0), seeded)
        solves["arbcd_chain"] = (partial(arbcd_chain, unrun, y0, 5, seed=0), seeded)
        for solve in (sadmm_solve, admm_solve):
            solves[solve.__name__] = (partial(solve, nodes, graph), (
                "c_admm", "iters", "eps_opt", "eps_feas", "budget_secs", "reference"))
        # a negative lam once gave a residual, a NaN or an infinite one NaN
        reg = SparseGroupReg(0.5, 0.5, GroupPartition.contiguous(4, 2))
        g, x = np.array([0.3, -1.0, 0.0, 2.0]), np.array([1.0, 0.0, 0.0, 0.0])
        for method in (reg.min_norm_subgradient, reg.subgrad_residual):
            solves[method.__name__] = (partial(method, grad_f=g, xbar=x), ("lam",))

        # a step or lam equal in value to the last one (True == 1.0) must not
        # reuse its checked weights; an infinite step once gave a NaN point,
        # and True a point
        def after_one(method, key, **kwargs):
            def call(**value):
                method(**{key: 1.0}, **kwargs)
                return method(**value, **kwargs)
            return call

        solves["prox"] = (after_one(reg.prox, "t", xbar=x), ("t",))
        solves["lam after 1.0"] = (after_one(reg.min_norm_subgradient, "lam", grad_f=g, xbar=x),
                                   ("lam",))
        rejected = 0
        for name, (solve, keys) in solves.items():
            for key in keys:
                for value in VALUES:
                    if self.SOLVER_DOMAINS[key](value):
                        continue
                    # the prox's error names its step, every other the key itself
                    named_as = "prox step" if key == "t" else key
                    with pytest.raises(ValueError, match=re.escape(named_as)):
                        solve(**{key: value})
                    rejected += 1
        assert rejected > 150

    def test_vector_arguments_must_have_shape_n(self):
        # prox once returned a flat result for a (2, 2) array, and value and
        # the residuals read any array of n entries
        reg = SparseGroupReg(0.5, 0.5, GroupPartition.contiguous(4, 2))
        loss = HuberLoss(A=np.ones((2, 4)), b=np.zeros(2))
        v = np.array([0.3, -1.0, 0.0, 2.0])
        calls = {
            "value": reg.value,
            "prox": lambda x: reg.prox(x, 0.5),
            "min_norm_subgradient grad_f": lambda x: reg.min_norm_subgradient(1.0, x, v),
            "min_norm_subgradient xbar": lambda x: reg.min_norm_subgradient(1.0, v, x),
            "subgrad_residual grad_f": lambda x: reg.subgrad_residual(1.0, x, v),
            "subgrad_residual xbar": lambda x: reg.subgrad_residual(1.0, v, x),
            "HuberLoss.value": loss.value,
            "HuberLoss.grad": loss.grad,
            "HuberLoss.value_grad": loss.value_grad,
        }
        for call in calls.values():
            call(v)
            call(v.tolist())
            for shape in [(2, 2), (4, 1), (1, 4), (3,), (5,), (), (0,)]:
                with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
                    call(np.zeros(shape))

    def test_stacked_prox_steps_must_be_positive_and_finite(self, rng):
        # an infinite step once gave a NaN row
        stack = NodeStack([small_node(rng, n=4) for _ in range(2)])
        for t in (math.inf, [1.0, math.inf], [math.nan, 1.0], [0.0, 1.0], -1.0):
            with pytest.raises(ValueError, match="prox steps must be positive and finite"):
                stack.prox_map(t)


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
