"""Unit-capacity core: exactness against the oracle and witness recounts."""

import pytest

from graphbalance import (
    Declaration,
    RegimeError,
    SolveMode,
    feasible_at,
    reduce_instance,
    verify_certificate,
    verify_solution,
)
from graphbalance.matching import run_matching

from conftest import build, unit_regime


def reduced(machines, jobs, t):
    ctx = reduce_instance(
        build(machines, jobs, SolveMode.TWO_VALUED), t, SolveMode.TWO_VALUED
    )
    assert not isinstance(ctx, Declaration)
    return ctx


def test_long_chain_needs_no_recursion():
    # heavy jobs on consecutive machine pairs, one light job on the first
    # pair whose id sorts last: its augmenting path runs the whole chain
    ids = [f"c{i:05d}" for i in range(1500)]
    jobs = [(f"h{i:05d}", 10, [ids[i], ids[i + 1]]) for i in range(1499)]
    jobs.append(("l0", 6, [ids[0], ids[1]]))
    ctx = reduced([(v, 0) for v in ids], jobs, t=10)
    result, _ = run_matching(ctx)
    assert not isinstance(result, Declaration)
    valid, makespan = verify_solution(ctx.instance, ctx.expand(result))
    assert valid and makespan == 10
    assert sorted(result.values()) == ids


def test_two_jobs_two_machines():
    ctx = reduced(
        [("a", 0), ("b", 0)],
        [("x", 5, ["a", "b"]), ("y", 3, ["a", "b"])],
        t=5,
    )
    result, _ = run_matching(ctx)
    assert not isinstance(result, Declaration)
    assert sorted(result.values()) == ["a", "b"]
    valid, makespan = verify_solution(ctx.instance, ctx.expand(result))
    assert valid and makespan == 5


def test_three_jobs_on_two_machines_pigeonhole():
    # three lights share {a, b}: at most two of them can be matched
    ctx = reduced(
        [("a", 0), ("b", 0), ("c", 0), ("d", 0)],
        [("h", 9, ["c", "d"])] + [(f"l{i}", 5, ["a", "b"]) for i in range(3)],
        t=9,
    )
    result, _ = run_matching(ctx)
    assert isinstance(result, Declaration)
    assert sorted(result.payload["jobs"]) == ["l0", "l1", "l2"]
    assert sorted(result.payload["neighborhood"]) == ["a", "b"]


def test_dedicated_load_blocks_machine():
    ctx = reduced(
        [("a", 1), ("b", 0)],
        [("x", 5, ["a", "b"]), ("y", 4, ["a", "b"])],
        t=5,
    )
    result, _ = run_matching(ctx)
    assert not isinstance(result, Declaration)
    assert result == {"x": "b", "y": "a"}  # 5 does not fit on a (1+5 > 5)


def test_regime_guard():
    ctx = reduced(
        [("a", 0), ("b", 0)],
        [("x", 5, ["a", "b"]), ("y", 3, ["a", "b"])],
        t=8,
    )
    with pytest.raises(RegimeError):
        run_matching(ctx)


@pytest.mark.parametrize("seed", range(200))
def test_feasibility_matches_oracle_exactly(seed):
    instance, heavy, light = unit_regime(seed)
    for t in range(heavy, 2 * light):
        reduced_ctx = reduce_instance(instance, t, SolveMode.TWO_VALUED)
        oracle_says = feasible_at(instance, t)
        if isinstance(reduced_ctx, Declaration):
            assert not oracle_says
            continue
        result, _ = run_matching(reduced_ctx)
        if isinstance(result, Declaration):
            assert not oracle_says
            # the witness must recount: strictly fewer fitting machines
            jobs = set(result.payload["jobs"])
            neighborhood = set(result.payload["neighborhood"])
            assert len(neighborhood) < len(jobs)
            assert verify_certificate(instance, result) != "refuted"
        else:
            assert oracle_says
            valid, makespan = verify_solution(instance, reduced_ctx.expand(result))
            assert valid and makespan <= t
