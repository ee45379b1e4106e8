"""End-to-end solve: guarantees against the oracle, search bookkeeping."""

import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest

from graphbalance import (
    Regime,
    SolveMode,
    ValidationError,
    exact_opt,
    feasible_at,
    generate_general,
    generate_two_valued,
    reduce_instance,
    solve,
    validate,
    verify_solution,
)

from graphbalance import driver, oracle

from conftest import build, loaded_general, loaded_two_valued


class TestSolveBasics:
    def test_single_job_two_machines(self):
        inst = build([("a", 0), ("b", 0)], [("j", 7, ["a", "b"])])
        sol = solve(inst)
        assert sol.t_star == 7
        assert sol.makespan == 7
        assert sol.lower_bound == 7
        assert sol.ratio_certified == 1

    def test_no_jobs(self):
        inst = build([("a", 5), ("b", 3)], [])
        sol = solve(inst)
        assert sol.makespan == 5 and sol.assignment == {}

    def test_solution_fields_consistent(self):
        inst = generate_two_valued(4, 3, 5, 10, 3, 4, seed=7)
        sol = solve(inst)
        valid, makespan = verify_solution(inst, sol.assignment)
        assert valid and makespan == sol.makespan
        assert sol.lower_bound <= sol.t_star
        assert sol.ratio_certified == Fraction(sol.makespan, sol.lower_bound)

    def test_general_mode_requires_beta(self):
        inst = build([("a", 0), ("b", 0)], [("j", 7, ["a", "b"])])
        with pytest.raises(ValidationError):
            solve(inst, SolveMode.GENERAL)

    def test_json_shape(self):
        inst = build([("a", 0), ("b", 0)], [("j", 7, ["a", "b"])])
        doc = solve(inst).to_json()
        assert set(doc) == {
            "assignment", "makespan", "t_star", "lower_bound", "ratio_certified",
        }
        assert doc["ratio_certified"] == "1"


class TestGuarantees:
    @pytest.mark.parametrize("seed", range(100))
    def test_two_valued_within_three_halves(self, seed):
        inst = generate_two_valued(
            4 + seed % 3, 1 + seed % 4, 1 + seed % 5, 10 + seed % 9, 3 + seed % 5,
            3, seed=seed,
        )
        sol = solve(inst)
        opt = exact_opt(inst)
        assert Fraction(sol.makespan) <= Fraction(3, 2) * opt
        assert sol.lower_bound <= opt

    @pytest.mark.parametrize("seed", range(60))
    def test_improved_ratio_when_heavy_dominates(self, seed):
        heavy = 11 + seed % 7
        light = 2 + seed % (heavy // 2 - 1) if heavy // 2 > 2 else 2
        assert heavy >= 2 * light
        inst = generate_two_valued(4, 2 + seed % 3, 2 + seed % 4, heavy, light, 4, seed)
        sol = solve(inst)
        opt = exact_opt(inst)
        assert Fraction(sol.makespan) <= (1 + Fraction(heavy // 2, heavy)) * opt

    @pytest.mark.parametrize("seed", range(60))
    def test_general_within_bound(self, seed):
        beta = Fraction(7, 10)
        inst = generate_general(2 + seed % 4, 2 + seed % 7, beta, 8 + seed % 12, seed)
        sol = solve(inst, SolveMode.GENERAL, beta)
        opt = exact_opt(inst)
        assert Fraction(sol.makespan) <= Fraction(19, 10) * opt

    @pytest.mark.parametrize("seed", range(60))
    def test_loaded_instances_auto_mode(self, seed):
        inst, _, _ = loaded_two_valued(seed)
        regime = validate(inst, SolveMode.AUTO)
        sol = solve(inst)  # auto resolves per instance shape
        opt = exact_opt(inst)
        assert sol.regime == regime
        assert Fraction(sol.makespan) <= regime.bound * opt
        assert sol.lower_bound <= opt
        valid, makespan = verify_solution(inst, sol.assignment)
        assert valid and makespan == sol.makespan


class TestSearchBookkeeping:
    @pytest.mark.parametrize("seed", range(50))
    def test_declared_guesses_are_infeasible(self, seed):
        inst, _, _ = loaded_two_valued(seed)
        sol = solve(inst)
        for decl in sol.declarations:
            assert not feasible_at(inst, decl.t)
        assert sol.lower_bound <= exact_opt(inst)

    @pytest.mark.parametrize("seed", range(50))
    def test_invocation_budget(self, seed):
        inst = loaded_general(seed, Fraction(7, 10))
        sol = solve(inst, SolveMode.GENERAL, Fraction(7, 10))
        total = sum(j.weight for j in inst.jobs)
        assert sol.cores_invoked <= math.ceil(math.log2(max(total, 2))) + 2

    def test_trace_records_a_declaring_reduction(self):
        # the first guess is 13; folding the parallel pair puts 15 on a
        inst = build(
            [("a", 5), ("b", 0)],
            [("h1", 10, ["a", "b"]), ("h2", 10, ["a", "b"])],
        )
        trace = []
        sol = solve(inst, SolveMode.GENERAL, Fraction(7, 10), trace=trace)
        assert sol.declarations[0].t == 13
        assert trace[:2] == [
            {"t": 13, "stage": "reduce", "op": "declare", "kind": "dedicated_overflow"},
            {"t": 13, "stage": "search", "outcome": "declared"},
        ]

    def test_trace_records_every_fold(self):
        # at t=12 every two-machine job weighs more than floor(0.7 * 12) = 8:
        # e1-e3 close a cycle with the path c3-p-p2 hanging off it, and two
        # parallel pairs leave a movable of 3 and none
        inst = build(
            [(v, 0) for v in ("a", "c1", "c2", "c3", "p", "p2", "m1", "m2", "n1", "n2")],
            [
                ("s", 3, ["a"]),
                ("e1", 10, ["c1", "c2"]), ("e2", 10, ["c2", "c3"]),
                ("e3", 10, ["c3", "c1"]), ("e4", 10, ["c3", "p"]),
                ("e5", 10, ["p", "p2"]),
                ("q1", 12, ["m1", "m2"]), ("q2", 9, ["m1", "m2"]),
                ("r1", 9, ["n1", "n2"]), ("r2", 9, ["n1", "n2"]),
            ],
        )
        trace = []
        sol = solve(inst, SolveMode.GENERAL, Fraction(7, 10), trace=trace)
        assert (sol.t_star, sol.makespan, sol.declarations) == (12, 12, [])
        reduce = [event for event in trace if event["stage"] == "reduce"]
        common = {"t": 12, "stage": "reduce"}
        assert json.dumps(reduce) == json.dumps([
            {**common, "op": "fold_single", "job": "s", "machine": "a", "weight": 3},
            {**common, "op": "fold_forced_edge", "edge": "e5", "machine": "p2", "weight": 10},
            {**common, "op": "fold_forced_edge", "edge": "e4", "machine": "p", "weight": 10},
            {**common, "op": "fold_parallel_pair", "edges": ["q1", "q2"],
             "nodes": ["m1", "m2"], "folded_weight": 9, "movable": "~q1+q2"},
            {**common, "op": "fold_parallel_pair", "edges": ["r1", "r2"],
             "nodes": ["n1", "n2"], "folded_weight": 9, "movable": None},
        ])

    def test_greedy_upper_end_only_when_the_search_runs(self, monkeypatch):
        """A solve accepted at its first guess never computes the greedy
        upper end, and one that searches computes it once; outputs are
        those of an unpatched solve."""
        cases = [(loaded_general(seed, Fraction(7, 10)), SolveMode.GENERAL) for seed in range(20)]
        cases += [(loaded_two_valued(seed)[0], SolveMode.AUTO) for seed in range(20)]
        beta = {SolveMode.GENERAL: Fraction(7, 10), SolveMode.AUTO: None}
        expected = [solve(inst, mode, beta[mode]) for inst, mode in cases]
        real = oracle.greedy_makespan
        calls = []

        def counted(instance):
            calls.append(instance)
            return real(instance)

        def refused(instance):
            raise AssertionError("the greedy upper end was computed")

        searched = 0
        for (inst, mode), want in zip(cases, expected):
            calls.clear()
            monkeypatch.setattr(
                oracle, "greedy_makespan", counted if want.declarations else refused
            )
            got = solve(inst, mode, beta[mode])
            assert got.to_json() == want.to_json()
            assert got.declarations == want.declarations
            assert calls == ([inst] if want.declarations else [])
            searched += bool(want.declarations)
        assert 5 <= searched <= len(cases) - 5

    def test_makespan_within_bound_times_t_star(self):
        for seed in range(40):
            inst, _, _ = loaded_two_valued(seed)
            regime = validate(inst, SolveMode.AUTO)
            sol = solve(inst)
            assert Fraction(sol.makespan) <= regime.bound * sol.t_star


class TestDispatch:
    @pytest.mark.parametrize(
        "mode, weights, t, core",
        [
            (SolveMode.GENERAL, None, 7, "run_general"),
            (SolveMode.TWO_VALUED, None, 7, "run_two_valued"),
            (SolveMode.TWO_VALUED, (4, 3), 8, "run_relief"),  # t >= 2W
            (SolveMode.TWO_VALUED, (6, 4), 7, "run_matching"),  # t < 2w
            (SolveMode.TWO_VALUED, (6, 2), 7, "run_two_valued"),
        ],
    )
    def test_empty_context_gives_an_empty_assignment(
        self, monkeypatch, mode, weights, t, core
    ):
        """With no movables and no edges, every regime's core returns an
        empty assignment and no pushes."""
        inst = build([("a", 5), ("b", 3)], [("s", 2, ["b"])])
        beta = Fraction(7, 10) if mode == SolveMode.GENERAL else None
        ctx = reduce_instance(inst, t, mode, beta)
        if weights is not None:
            ctx = replace(ctx, regime=Regime(mode, beta, *weights))
        called = []
        original = getattr(driver, core)

        def recorded(*args, **kwargs):
            called.append(core)
            return original(*args, **kwargs)

        monkeypatch.setattr(driver, core, recorded)
        assert driver._dispatch(ctx, None) == ({}, 0)
        assert called == [core]
