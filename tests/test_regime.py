"""The regime of a solve as one value: its core per guess, its bound, its
edge floor and the mode fields its declarations end with."""

from dataclasses import replace
from fractions import Fraction

import pytest

from graphbalance import (
    Declaration,
    Regime,
    SolveMode,
    generate_general,
    generate_two_valued,
    reduce_instance,
    solve,
    validate,
)
from graphbalance.preprocess import DEDICATED_OVERFLOW, MULTI_CYCLE_COMPONENT

from conftest import build, loaded_general, loaded_two_valued, regime_or_none

BETAS = (Fraction(4, 7), Fraction(7, 10), Fraction(9, 10))


class TestCoreAt:
    # (W, w): W >= 2w, then W < 2w
    @pytest.mark.parametrize("heavy, light", ((10, 3), (7, 4)))
    def test_two_valued_cores_switch_at_2w_and_2W(self, heavy, light):
        regime = Regime(SolveMode.TWO_VALUED, None, heavy, light)
        cores = {
            2 * light - 1: "matching",
            2 * light: "two_valued",
            2 * heavy - 1: "two_valued",
            2 * heavy: "relief",
        }
        assert {t: regime.core_at(t) for t in cores} == cores

    @pytest.mark.parametrize("beta", BETAS)
    def test_general_mode_runs_the_general_core_at_every_guess(self, beta):
        regime = Regime(SolveMode.GENERAL, beta)
        assert {regime.core_at(t) for t in range(1, 200)} == {"general"}


class TestRatioBound:
    def test_two_valued_default(self):
        assert Regime(SolveMode.TWO_VALUED, heavy=10, light=6).bound == Fraction(3, 2)

    def test_two_valued_improved(self):
        assert Regime(SolveMode.TWO_VALUED, heavy=10, light=5).bound == Fraction(3, 2)
        assert Regime(SolveMode.TWO_VALUED, heavy=10, light=3).bound == Fraction(3, 2)
        assert Regime(SolveMode.TWO_VALUED, heavy=11, light=3).bound == 1 + Fraction(5, 11)

    def test_general(self):
        assert Regime(SolveMode.GENERAL, Fraction(7, 10)).bound == Fraction(19, 10)
        assert Regime(SolveMode.GENERAL, Fraction(4, 7)).bound == Fraction(5, 3) + Fraction(4, 21)


def seeded_regimes():
    """Seeded instances of both modes with the regime validate gives them."""
    for seed in range(60):
        inst, _, _ = loaded_two_valued(seed)
        regime = regime_or_none(inst, SolveMode.TWO_VALUED)
        if regime is not None:
            yield inst, regime
        beta = BETAS[seed % 3]
        inst = loaded_general(seed, beta)
        yield inst, validate(inst, SolveMode.GENERAL, beta)


def exact_edge_jobs(inst, regime, t):
    """The multi-machine jobs that are edge jobs at guess *t*, by the
    paper's rule in exact rationals: the heavy jobs above t/2 in two-valued
    mode, every job above beta*t in general mode."""
    multi = [j for j in inst.jobs if len(j.eligible) >= 2]
    if regime.mode == SolveMode.TWO_VALUED:
        heavy = [j for j in multi if j.weight == regime.heavy]
        return {j.id for j in heavy if Fraction(j.weight) > Fraction(t, 2)}
    return {j.id for j in multi if Fraction(j.weight) > regime.beta * t}


def test_edge_floor_splits_off_exactly_the_edge_jobs():
    modes = set()
    for inst, regime in seeded_regimes():
        multi = [j for j in inst.jobs if len(j.eligible) >= 2]
        for t in range(inst.max_weight(), 2 * inst.max_weight() + 3):
            floor = regime.edge_floor(t)
            edges = exact_edge_jobs(inst, regime, t)
            assert {j.id for j in multi if j.weight > floor} == edges
            if edges:
                lightest = min(j.weight for j in multi if j.id in edges)
                assert floor < lightest
                modes.add(regime.mode)
    assert modes == {SolveMode.TWO_VALUED, SolveMode.GENERAL}


def test_reduction_carries_the_validated_regime():
    for inst, regime in seeded_regimes():
        t = 2 * inst.max_weight()
        reduced = reduce_instance(inst, t, regime.mode, regime.beta)
        if not isinstance(reduced, Declaration):
            assert reduced.regime == regime


def test_fields_end_every_declaration_of_a_solve():
    solves = [(inst, regime.mode, regime.beta) for inst, regime in seeded_regimes()]
    solves += [
        (generate_two_valued(12, 10, 12, 7, 3, 3, 1), SolveMode.AUTO, None),
        (generate_general(12, 40, Fraction(7, 10), 40, 1), SolveMode.GENERAL, Fraction(7, 10)),
    ]
    kinds = set()
    for inst, mode, beta in solves:
        solution = solve(inst, mode, beta)
        fields = list(solution.regime.fields.items())
        for declaration in solution.declarations:
            assert list(declaration.payload.items())[-len(fields):] == fields
            kinds.add(declaration.kind)
    assert len(kinds) >= 4


def test_fields_keep_their_key_order():
    assert list(Regime(SolveMode.GENERAL, Fraction(7, 10)).fields.items()) == [
        ("mode", "general"), ("beta", "7/10"),
    ]
    assert list(Regime(SolveMode.TWO_VALUED, None, 10, 3).fields.items()) == [
        ("mode", "two_valued"), ("W", 10), ("w", 3),
    ]


def test_a_context_holds_its_regime_once():
    inst = build([("a", 0), ("b", 0)], [("l1", 2, ["a", "b"]), ("l2", 2, ["a", "b"])])
    ctx = reduce_instance(inst, 10, SolveMode.GENERAL, Fraction(4, 7))
    with pytest.raises(TypeError):
        replace(ctx, mode=SolveMode.TWO_VALUED, heavy_weight=6, light_weight=2)


def test_auto_mode_has_no_regime():
    inst = build([("a", 0), ("b", 0)], [("j", 7, ["a", "b"])])
    with pytest.raises(ValueError):
        Regime.of(inst, SolveMode.AUTO)
    with pytest.raises(ValueError):
        reduce_instance(inst, 7, SolveMode.AUTO)


def triangle(prefix, nodes, weight):
    a, b, c = nodes
    return [(f"{prefix}1", weight, [a, b]), (f"{prefix}2", weight, [b, c]),
            (f"{prefix}3", weight, [c, a])]


SEVEN_TENTHS = Fraction(7, 10)


class TestBoundaries:
    # (W, w): W >= 2w, then W < 2w
    @pytest.mark.parametrize("heavy, light, expected", ((10, 3, (6, 20)), (7, 4, (8, 14))))
    def test_two_valued_boundaries_are_2w_and_2W(self, heavy, light, expected):
        assert Regime(SolveMode.TWO_VALUED, None, heavy, light).boundaries(()) == expected

    @pytest.mark.parametrize("mode, beta", ((SolveMode.TWO_VALUED, None), (SolveMode.GENERAL, SEVEN_TENTHS)))
    def test_no_multi_machine_jobs_give_no_boundary(self, mode, beta):
        inst = build([("a", 0), ("b", 0)], [("s", 5, ["a"]), ("t", 3, ["b"])])
        assert Regime.of(inst, mode, beta).boundaries(inst.jobs) == ()

    @pytest.mark.parametrize(
        "jobs, expected",
        [
            # two triangles of weight 10 hold one cycle each; the bridge of
            # weight 8 merges them: ceil(8 / (7/10)) = 12
            (triangle("p", "abc", 10) + triangle("q", "def", 10) + [("r", 8, ["c", "d"])], (12,)),
            # a tie group of weight 7 closes both cycles: 7 / (7/10) = 10
            (triangle("p", "abc", 7) + [("q", 7, ["a", "b"]), ("r", 9, ["d", "e"])], (10,)),
            # the second cycle closes at 6, not at the heavier 9 and 8
            ([("p", 9, ["a", "b"]), ("q", 8, ["a", "b"]), ("r", 6, ["a", "b"]),
              ("s", 5, ["a", "b"])], (9,)),
            # one cycle with a tree hanging off it, and a job on three machines
            (triangle("p", "abc", 9) + [("q", 8, ["c", "d"]), ("r", 7, ["d", "e"]),
                                        ("s", 3, ["a", "b", "e"])], ()),
        ],
    )
    def test_general_boundary_is_where_a_second_cycle_closes(self, jobs, expected):
        machines = sorted({v for _, _, eligible in jobs for v in eligible})
        inst = build([(v, 0) for v in machines], jobs)
        regime = Regime(SolveMode.GENERAL, SEVEN_TENTHS)
        assert regime.boundaries(inst.jobs) == expected
        assert regime.boundaries(reversed(inst.jobs)) == expected

    def test_multi_cycle_is_declared_just_below_the_boundary(self):
        """Every guess from W_max to b - 1 has a multi-cycle component, or
        overflows before the edge jobs are split off; b has none."""
        declared = 0
        for inst, regime in seeded_regimes():
            if regime.mode == SolveMode.TWO_VALUED:
                # no edge job is left at 2W
                assert kind_at(inst, regime, 2 * regime.heavy) != MULTI_CYCLE_COMPONENT
                continue
            for b in regime.boundaries(inst.jobs):
                for t in range(inst.max_weight(), b):
                    kind = kind_at(inst, regime, t)
                    assert kind in (MULTI_CYCLE_COMPONENT, DEDICATED_OVERFLOW)
                    declared += kind == MULTI_CYCLE_COMPONENT and t == b - 1
                assert kind_at(inst, regime, max(b, inst.max_weight())) != MULTI_CYCLE_COMPONENT
        assert declared >= 10


def kind_at(inst, regime, t):
    """The kind of the declaration at guess *t*, or ``None``."""
    reduced = reduce_instance(inst, t, regime.mode, regime.beta)
    return reduced.kind if isinstance(reduced, Declaration) else None
