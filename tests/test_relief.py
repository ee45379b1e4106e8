"""Relief core: target bound, certificates, and long augmenting paths."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import MethodType

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
from graphbalance.relief import _FlowNetwork, run_relief

from conftest import build


def restarting_max_flow(net, s, tt, paths):
    """Reference Dinic: every augmenting path search restarts at the source;
    appends each phase's augment count to *paths*.  Leaves its last
    breadth-first labels in ``net.level``, as the production search does."""
    flow = 0
    while True:
        net.level = level = [-1] * net.n
        level[s] = 0
        queue = [s]
        for u in queue:
            for arc in net.adj[u]:
                if arc[1] > 0 and level[arc[0]] < 0:
                    level[arc[0]] = level[u] + 1
                    queue.append(arc[0])
        if level[tt] < 0:
            return flow
        it = [0] * net.n
        paths.append(0)
        while True:
            got = restarting_augment(net, s, tt, level, it)
            if not got:
                break
            flow += got
            paths[-1] += 1


def restarting_augment(net, s, tt, level, it):
    nodes = [s]
    arcs = []
    while nodes:
        u = nodes[-1]
        if u == tt:
            got = min(arc[1] for arc in arcs)
            for arc in arcs:
                arc[1] -= got
                net.adj[arc[0]][arc[2]][1] += got
            return got
        adj = net.adj[u]
        while it[u] < len(adj):
            arc = adj[it[u]]
            if arc[1] > 0 and level[arc[0]] == level[u] + 1:
                nodes.append(arc[0])
                arcs.append(arc)
                break
            it[u] += 1
        else:
            nodes.pop()
            if arcs:
                arcs.pop()
                it[nodes[-1]] += 1
    return 0


def residual_reach(net, s):
    """The nodes a residual path from *s* reaches, by depth-first search."""
    seen = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        for v, cap, _ in net.adj[u]:
            if cap > 0 and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def reduced(machines, jobs, t, mode=SolveMode.TWO_VALUED):
    ctx = reduce_instance(build(machines, jobs, mode), t, mode)
    assert not isinstance(ctx, Declaration)
    return ctx


def test_four_equal_jobs_balance_out():
    # oracle optimum is 6; the relief bound here is t + 3 - 1 = 8
    inst = build([("a", 0), ("b", 0)], [(f"j{i}", 3, ["a", "b"]) for i in range(4)])
    assert exact_opt(inst) == 6
    ctx = reduced([("a", 0), ("b", 0)], [(f"j{i}", 3, ["a", "b"]) for i in range(4)], 6)
    result, _ = run_relief(ctx)
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
    result, _ = run_relief(ctx)
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
    result, _ = run_relief(ctx)
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
        result, _ = run_relief(ctx)
        remaining = [p.weight for p in ctx.movables]
        cap = t + (max(remaining) if remaining else 0) - 1 if remaining else t
        if isinstance(result, Declaration):
            assert not feasible_at(inst, t)
            assert verify_certificate(inst, result) == "confirmed"
        else:
            valid, makespan = verify_solution(inst, ctx.expand(result))
            assert valid and makespan <= max(cap, max(ctx.dedicated.values()))


def test_resumed_path_search_matches_restarts_from_the_source():
    """Resuming each augmenting-path search where the last augment
    saturated an arc leaves every residual capacity, flow split and cut
    equal to restarting each search at the source, guess after guess; each
    cut is the set of nodes a residual path from the source reaches."""
    phases = []
    feasible = infeasible = 0
    for seed in range(60):
        rng = random.Random(30_000 + seed)
        m = rng.randint(3, 40)
        machines = [(f"m{i}", rng.randint(0, 5)) for i in range(m)]
        ids = [mid for mid, _ in machines]
        top = rng.randint(2, 9)
        jobs = [
            (f"j{i}", rng.randint(1, top), rng.sample(ids, rng.randint(2, min(m, 4))))
            for i in range(rng.randint(m, 3 * m))
        ]
        ctx = reduced(machines, jobs, max(2 * top, 5))
        fast, slow = _FlowNetwork(ctx), _FlowNetwork(ctx)
        slow.net.max_flow = MethodType(
            lambda net, s, tt: restarting_max_flow(net, s, tt, phases), slow.net
        )
        for t in range(0, 3 * top + 6):
            result = fast.check(ctx, t)
            assert result == slow.check(ctx, t)
            assert [arc[1] for adj in fast.net.adj for arc in adj] == [
                arc[1] for adj in slow.net.adj for arc in adj
            ]
            if result[0]:
                # the split lists jobs in item order, each in eligibility order
                units = result[1]
                assert list(units) == [
                    (jid, v) for jid, _, elig in ctx.job_items() for v in elig
                    if (jid, v) in units
                ]
            else:
                reach = residual_reach(fast.net, fast.source)
                cut_machines, captive = result[1]
                assert set(cut_machines) == {
                    v for v, node in fast.machine_node.items() if node in reach
                }
                assert set(captive) == {
                    jid for jid, node in fast.job_node.items() if node in reach
                }
            feasible += result[0]
            infeasible += not result[0]
    assert feasible >= 600 and infeasible >= 500
    assert sum(count >= 2 for count in phases) >= 1500


ASSIGNMENT_ORDER = """
import json
from graphbalance import generate_two_valued, solve
solution = solve(generate_two_valued(40, 44, 40, 1000, 620, 3, 2))
print(json.dumps(list(solution.assignment)))
"""


def test_assignment_order_does_not_depend_on_the_hash_seed():
    # relief's rounding splits jobs on a cycle; it must settle them in a
    # fixed order, not in the iteration order of a set of ids
    src = str(Path(__file__).resolve().parent.parent / "src")
    orders = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        ran = subprocess.run(
            [sys.executable, "-c", ASSIGNMENT_ORDER],
            env=env, capture_output=True, text=True,
        )
        assert ran.returncode == 0, ran.stderr
        orders.append(json.loads(ran.stdout))
    assert orders[0] == orders[1]
