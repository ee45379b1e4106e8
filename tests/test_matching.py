"""Unit-capacity core: exactness against the oracle and witness recounts."""

import pytest

from graphbalance import (
    Declaration,
    InvariantViolation,
    RegimeError,
    SolveMode,
    feasible_at,
    reduce_instance,
    verify_certificate,
    verify_solution,
)
from graphbalance.matching import run_matching
from graphbalance.preprocess import HALL_VIOLATION

from conftest import build, unit_regime


def bfs_run_matching(ctx):
    """Reference matching core: the same augmenting-path search, then a
    second, breadth-first alternating search from the unmatched job for the
    deficiency witness."""
    t = ctx.t
    items = ctx.job_items()
    weights = sorted(w for _, w, _ in items)
    if len(weights) >= 2 and weights[0] + weights[1] <= t:
        raise RegimeError(
            "unit-capacity core requires any two job weights to exceed "
            f"t={t}, but {weights[0]} + {weights[1]} <= t"
        )

    fits: dict[str, list[str]] = {
        jid: [v for v in eligible if ctx.dedicated[v] + w <= t]
        for jid, w, eligible in items
    }
    matched_job: dict[str, str] = {}
    matched_machine: dict[str, str] = {}

    def augment(root: str) -> bool:
        """Depth-first alternating-path search from *root* on an explicit
        stack, trying each job's fitting machines in order and each machine
        at most once, as the recursive search would."""
        seen: set[str] = set()
        stack = [(root, iter(fits[root]))]
        chosen: list[str] = []  # chosen[i]: the machine stack[i] is trying
        while stack:
            for v in stack[-1][1]:
                if v not in seen:
                    break
            else:
                stack.pop()
                if chosen:
                    chosen.pop()
                continue
            seen.add(v)
            chosen.append(v)
            holder = matched_machine.get(v)
            if holder is not None:
                stack.append((holder, iter(fits[holder])))
                continue
            for (jid, _), machine in zip(reversed(stack), reversed(chosen)):
                matched_job[jid] = machine
                matched_machine[machine] = jid
            return True
        return False

    unmatched = None
    for jid, _, _ in items:
        if not augment(jid):
            unmatched = jid
            break

    if unmatched is None:
        ctx.check_loads(matched_job, t)
        return dict(matched_job), 0

    # Alternating BFS from the unmatched job: every reachable machine is
    # matched, so the reachable jobs outnumber their joint neighborhood.
    witness_jobs = {unmatched}
    neighborhood: set[str] = set()
    frontier = [unmatched]
    while frontier:
        jid = frontier.pop()
        for v in fits[jid]:
            if v in neighborhood:
                continue
            neighborhood.add(v)
            holder = matched_machine.get(v)
            if holder is None:
                raise InvariantViolation("free machine reachable: matching not maximal")
            if holder not in witness_jobs:
                witness_jobs.add(holder)
                frontier.append(holder)
    if len(neighborhood) >= len(witness_jobs):
        raise InvariantViolation("witness jobs do not outnumber their neighborhood")
    payload = {
        "jobs": sorted(witness_jobs),
        "neighborhood": sorted(neighborhood),
        **ctx.mode_payload(),
    }
    return Declaration(t, HALL_VIOLATION, payload), 0


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


def test_witness_equals_the_breadth_first_reference():
    """Reading the witness off the failed augmenting search gives the same
    assignment or declaration as a second alternating search would."""
    declared = 0
    for seed in range(60):
        instance, heavy, light = unit_regime(seed)
        for t in range(heavy, 2 * light):
            ctx = reduce_instance(instance, t, SolveMode.TWO_VALUED)
            if isinstance(ctx, Declaration):
                continue
            result = run_matching(ctx)
            assert result == bfs_run_matching(ctx)
            declared += isinstance(result[0], Declaration)
    assert declared >= 100  # 112 Hall witnesses over these guesses
