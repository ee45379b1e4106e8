"""Relief core: target bound, certificates, and long augmenting paths."""

import random
from fractions import Fraction

import pytest

from graphbalance import (
    Declaration,
    SolveMode,
    exact_opt,
    feasible_at,
    reduce_instance,
    verify_certificate,
    verify_solution,
)
from graphbalance.relief import run_relief

from conftest import build


def reduced(machines, jobs, t, mode=SolveMode.TWO_VALUED):
    ctx = reduce_instance(build(machines, jobs, mode), t, mode)
    assert not isinstance(ctx, Declaration)
    return ctx


def test_four_equal_jobs_balance_out():
    # oracle optimum is 6; the relief bound here is t + 3 - 1 = 8
    inst = build([("a", 0), ("b", 0)], [(f"j{i}", 3, ["a", "b"]) for i in range(4)])
    assert exact_opt(inst) == 6
    ctx = reduced([("a", 0), ("b", 0)], [(f"j{i}", 3, ["a", "b"]) for i in range(4)], 6)
    result, stats = run_relief(ctx)
    assert not isinstance(result, Declaration)
    valid, makespan = verify_solution(inst, result)
    assert valid and makespan == 6


def test_dedicated_loads_only():
    ctx = reduced([("a", 4), ("b", 2)], [], t=5)
    result, _ = run_relief(ctx)
    valid, makespan = verify_solution(ctx.instance, ctx.expand(result))
    assert result == {} and valid and makespan == 4


def test_declaration_has_sound_cut():
    machines = [("a", 0), ("b", 0), ("c", 0)]
    jobs = [(f"j{i}", 4, ["a", "b"]) for i in range(5)] + [("k", 2, ["b", "c"])]
    inst = build(machines, jobs)
    t = 8  # five weight-4 jobs on two machines need 20 > 2*8
    assert not feasible_at(inst, t)
    ctx = reduced(machines, jobs, t)
    result, stats = run_relief(ctx)
    assert isinstance(result, Declaration)
    assert result.kind == "preflow_height"
    cut = set(result.payload["cut"])
    captive = result.payload["captive_jobs"]
    total = sum(4 for j in captive if j.startswith("j")) + sum(
        2 for j in captive if j == "k"
    )
    folded = sum(ctx.dedicated[v] for v in cut)
    assert folded + total > len(cut) * t
    assert verify_certificate(inst, result) == "confirmed"


@pytest.mark.parametrize("m", [301, 601])
def test_long_chain_needs_no_recursion(m):
    # the jobs fill every machine exactly, so one augmenting path shifts a job
    # along the whole chain, deeper than the interpreter's recursion limit
    machines = [(f"m{i}", 10) for i in range(m)]
    jobs = [(f"a{i}", 10, [f"m{i}", f"m{i + 1}"]) for i in range(m - 1)]
    jobs.append(("z", 10, ["m0", "m1"]))
    inst = build(machines, jobs)
    ctx = reduce_instance(inst, 20, SolveMode.GENERAL, Fraction(7, 10))
    result, stats = run_relief(ctx)
    valid, makespan = verify_solution(inst, ctx.expand(result))
    # every capacity is a multiple of 10, so no job is split by the flow
    assert valid and makespan == 20


@pytest.mark.parametrize("seed", range(150))
def test_random_runs_meet_bound_or_declare_soundly(seed):
    rng = random.Random(seed)
    m = rng.randint(2, 5)
    machines = [(f"m{i}", rng.randint(0, 4)) for i in range(m)]
    ids = [mid for mid, _ in machines]
    top = rng.randint(2, 6)
    jobs = []
    for i in range(rng.randint(1, 9)):
        degree = rng.randint(1, m)
        jobs.append((f"j{i}", rng.randint(1, top), rng.sample(ids, degree)))
    inst = build(machines, jobs)
    base = max(inst.max_weight(), 2 * top)
    for t in (base, base + 2):
        ctx = reduce_instance(inst, t, SolveMode.TWO_VALUED)
        if isinstance(ctx, Declaration):
            assert not feasible_at(inst, t)
            continue
        result, stats = run_relief(ctx)
        remaining = [p.weight for p in ctx.movables]
        cap = t + (max(remaining) if remaining else 0) - 1 if remaining else t
        if isinstance(result, Declaration):
            assert not feasible_at(inst, t)
            assert verify_certificate(inst, result) == "confirmed"
        else:
            valid, makespan = verify_solution(inst, ctx.expand(result))
            assert valid and makespan <= max(cap, max(ctx.dedicated.values()))
