"""The search probes the regime boundaries before it bisects.

It must find what plain bisection finds, certify its lower bound with a
declaration at t* - 1, and stay within the ``ceil(log2 sum w) + 2`` search
budget where the answer lies far above every boundary."""

import math
from fractions import Fraction
from itertools import combinations

import pytest

from graphbalance import (
    Declaration,
    InvariantViolation,
    SolveMode,
    generate_general,
    generate_two_valued,
    reduce_instance,
    solve,
    validate,
    verify_certificate,
    verify_solution,
)
from graphbalance import driver, oracle

from conftest import build, loaded_general, loaded_two_valued, regime_or_none

BETAS = (Fraction(4, 7), Fraction(7, 10), Fraction(9, 10))


def plain_bisection(instance, mode, beta=None):
    """The search as plain bisection from the trivial lower bound to the
    greedy makespan, with no probes: ``(assignment, makespan, t_star,
    lower_bound, declarations)``."""
    regime = validate(instance, mode, beta)
    lo = oracle.trivial_lower_bound(instance)
    declarations = []
    memo = {}

    def attempt(t):
        reduced = reduce_instance(instance, t, regime.mode, regime.beta, memo)
        if isinstance(reduced, Declaration):
            declarations.append(reduced)
            return None
        result, _ = driver._dispatch(reduced, None)
        if isinstance(result, Declaration):
            declarations.append(result)
            return None
        full = reduced.expand(result)
        return full, verify_solution(instance, full)[1]

    best = attempt(lo)
    t_star = lo
    if best is None:
        low, high = lo + 1, max(lo, oracle.greedy_makespan(instance))
        while low < high:
            mid = (low + high) // 2
            outcome = attempt(mid)
            if outcome is not None:
                high, best = mid, outcome
            else:
                low = mid + 1
        t_star = low
        if best is None:
            best = attempt(t_star)
    assignment, makespan = best
    lower_bound = lo
    if declarations:
        lower_bound = max(lower_bound, max(d.t for d in declarations) + 1)
    return assignment, makespan, t_star, lower_bound, declarations


def seeded_solves():
    """Seeded ``(instance, mode, beta)`` of both modes, the general ones at
    the three betas, with larger generated instances where probes land."""
    for seed in range(120):
        inst, _, _ = loaded_two_valued(seed)
        if regime_or_none(inst, SolveMode.TWO_VALUED) is not None:
            yield inst, SolveMode.TWO_VALUED, None
        m = (6, 8, 10)[seed % 3]
        heavy, light = ((7, 4), (10, 3), (9, 5), (12, 7))[seed % 4]
        inst = generate_two_valued(m, m + m // 2, m, heavy, light, 3, seed)
        yield inst, SolveMode.TWO_VALUED, None
        for beta in BETAS:
            yield loaded_general(seed, beta), SolveMode.GENERAL, beta
        beta = BETAS[seed % 3]
        yield generate_general(8, 16, beta, 20, seed), SolveMode.GENERAL, beta


def budget(instance):
    """Criterion 10's search budget."""
    total = sum(j.weight for j in instance.jobs)
    return math.ceil(math.log2(max(total, 2))) + 2


def test_probing_finds_what_plain_bisection_finds():
    probed = {SolveMode.TWO_VALUED: 0, SolveMode.GENERAL: 0}
    for inst, mode, beta in seeded_solves():
        trace = []
        sol = solve(inst, mode, beta, trace=trace)
        assignment, makespan, t_star, lower_bound, _ = plain_bisection(inst, mode, beta)
        assert (sol.assignment, sol.makespan, sol.t_star, sol.lower_bound) == (
            assignment, makespan, t_star, lower_bound,
        )
        if sol.t_star > oracle.trivial_lower_bound(inst):
            assert any(d.t == sol.t_star - 1 for d in sol.declarations)
        for declaration in sol.declarations:
            assert verify_certificate(inst, declaration, allow_exhaustive=False) == "confirmed"
        probed[mode] += any(event.get("probe") for event in trace)
    assert probed[SolveMode.TWO_VALUED] >= 20 and probed[SolveMode.GENERAL] >= 10


def stacked(heavy, light, k, stack, idle):
    """k heavy jobs spread over the machine pairs of a stack of *stack*
    machines, one light job on two of them and an idle machine, and *idle*
    idle machines, which keep the trivial bound at W: t* lies far above
    2W, so every probe is declared."""
    machines = [f"s{i}" for i in range(stack)] + [f"i{i}" for i in range(idle)]
    pairs = list(combinations(machines[:stack], 2))
    jobs = [(f"h{i}", heavy, pairs[i % len(pairs)]) for i in range(k)]
    jobs.append(("l0", light, ["s0", "s1", "i0"]))
    return build([(v, 0) for v in machines], jobs, SolveMode.TWO_VALUED)


def stacked_family():
    for heavy in range(3, 9):
        for light in range(max(1, heavy - 3), heavy):
            for k in (12, 16, 20):
                for stack in (2, 3, 4):
                    yield stacked(heavy, light, k, stack, 36)


def test_probes_keep_the_search_budget_far_above_the_boundaries():
    cases = list(stacked_family())
    # W = 4, w = 3, twelve heavy jobs on {s0, s1}: ten guesses when each
    # probe b - 1 comes before b, against a budget of eight
    assert stacked(4, 3, 12, 2, 36) in cases
    far = 0
    for inst in cases:
        sol = solve(inst, SolveMode.TWO_VALUED)
        assert sol.cores_invoked <= budget(inst)
        far += sol.t_star > 2 * sol.regime.heavy
    assert far == len(cases)


@pytest.mark.parametrize("heavy, light", ((4, 3), (7, 4)))
def test_probe_events_come_first_and_say_so(heavy, light):
    # twelve heavy jobs on {s0, s1} and t* = 6W: the trivial bound is W,
    # below 2w, and both probes are declared
    inst = stacked(heavy, light, 12, 2, 36)
    trace = []
    sol = solve(inst, SolveMode.TWO_VALUED, trace=trace)
    search = [event for event in trace if event["stage"] == "search"]
    assert [(e["t"], e.get("probe", False)) for e in search[:3]] == [
        (heavy, False), (2 * light, True), (2 * heavy, True),
    ]
    assert not any(e.get("probe") for e in search[3:])
    assert sol.t_star == 6 * heavy


def test_a_declared_greedy_makespan_is_a_defect(monkeypatch):
    """A core that declares every guess, the greedy makespan included, is
    caught whether or not that makespan is a probed boundary."""
    monkeypatch.setattr(driver, "_dispatch", lambda ctx, trace: (ctx.declare("activated_set"), 0))
    greedy_probed = 0
    for seed in range(40):
        inst, _, _ = loaded_two_valued(seed)
        regime = regime_or_none(inst, SolveMode.TWO_VALUED)
        if regime is None:
            continue
        greedy = oracle.greedy_makespan(inst)
        if greedy <= oracle.trivial_lower_bound(inst):
            continue
        with pytest.raises(InvariantViolation, match=f"upper guess t={greedy} "):
            solve(inst, SolveMode.TWO_VALUED)
        greedy_probed += greedy in regime.boundaries(inst.jobs)
    assert greedy_probed >= 1
