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
