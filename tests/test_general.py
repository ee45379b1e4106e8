"""General core: forced orientations, exploration, activation, pushes."""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from graphbalance import (
    Declaration,
    SolveMode,
    feasible_at,
    generate_adversarial_path,
    generate_general,
    reduce_instance,
    solve,
    verify_certificate,
    verify_solution,
)
from graphbalance.errors import InvariantViolation
from graphbalance.general import (
    ExploreResult,
    Orientation,
    ThresholdsG,
    explore,
    find_push_general,
    forced_orientations,
    run_general,
)
from graphbalance import general
from graphbalance.push import PushMove, PushState, potential_value

from conftest import assert_push_events, build, hash_declarations, loaded_general

BETA = Fraction(7, 10)
BETAS = (Fraction(4, 7), Fraction(2, 3), Fraction(7, 10), Fraction(9, 10))


def general_ctx(machines, jobs, t, beta=BETA):
    ctx = reduce_instance(build(machines, jobs), t, SolveMode.GENERAL, beta)
    assert not isinstance(ctx, Declaration)
    return ctx


def exact_thresholds(t, beta):
    """The three bounds as exact rationals, unrounded."""
    return SimpleNamespace(
        overload_bound=(Fraction(5, 3) + beta / 3) * t,
        push_bound=(Fraction(5, 3) - 2 * beta / 3) * t,
        rule2_bound=(Fraction(2, 3) + beta / 3) * t,
    )


def rescanning_forced(ctx, orient, ml, th, trace=None):
    """Reference cascade: rescan every edge for each forced step."""

    def candidates(restrict):
        found = []
        for e in ctx.graph.edges:
            if not orient.neutral(e):
                continue
            for v, u in ((e.u, e.v), (e.v, e.u)):
                if restrict is not None and v not in restrict:
                    continue
                if ctx.dedicated[v] + ml[v] + orient.in_load[v] + e.weight > th.overload_bound:
                    found.append((v, u, e))
        found.sort(key=lambda c: (c[0], c[1]))
        return found

    while True:
        outer = candidates(None)
        if not outer:
            return
        v, u, e = outer[0]
        orient.direct(e, u)
        if trace is not None:
            trace.append({"event": "forced", "edge": e.id, "from": v, "to": u})
        marked = {u}
        while True:
            inner = candidates(marked)
            if not inner:
                break
            v2, u2, e2 = inner[0]
            orient.direct(e2, u2)
            marked.add(u2)
            if trace is not None:
                trace.append({"event": "forced", "edge": e2.id, "from": v2, "to": u2})


def rescanning_find_push(ctx, placement, result, th):
    """Reference push search: test every (source, movable, target) triple
    against loads rebuilt from *placement*, keep the least key."""
    fresh = PushState(ctx, placement)
    ml, at = fresh.loads, fresh.at
    orient = result.orientation
    best = None
    for u, lvl in result.levels.items():
        for p in at[u]:
            for v in ctx.instance.sorted_eligible(p):
                if v == u or result.levels.get(v) != lvl + 1:
                    continue
                if ctx.dedicated[v] + ml[v] + orient.in_load[v] > th.push_bound:
                    continue
                children = [c for c, x in orient.children(v) if x in result.conflict]
                if children:
                    fathers = [e for e, x in orient.fathers(v) if x in result.conflict]
                    if any(
                        ctx.dedicated[v] + ml[v] + e.weight > th.push_bound
                        for e in fathers
                    ):
                        continue
                key = (u, p.id, v)
                if best is None or key < best:
                    best = key
    if best is None:
        return None
    u, pid, v = best
    return PushMove(pid, u, v)


def rescanning_explore(ctx, state, th, fake_picker=None, trace=None):
    """Reference exploration: each round rescans every machine for
    absorption and every edge for fakes, overloads and outward edges, and
    unions the eligible sets of the movables it reaches."""
    ml, at = state.loads, state.at
    orient = Orientation(ctx.graph)
    forced_orientations(ctx, orient, ml, th, ctx.graph.nodes, trace)

    def overloaded():
        return {
            v
            for v in ctx.machine_ids
            if ctx.dedicated[v] + ml[v] + orient.in_load[v] > th.overload_bound
        }

    overloaded0 = overloaded()
    levels, conflict = {}, set()
    result = ExploreResult(orient, levels, conflict)
    round_no = 0
    while True:
        if round_no == 0:
            batch = sorted(overloaded0, key=ctx.index)
        else:
            reachable = set()
            for u in result.round_activated[round_no - 1]:
                for p in at[u]:
                    reachable |= p.eligible
            batch = sorted(reachable - levels.keys(), key=ctx.index)
        if not batch:
            break
        for v in batch:
            levels[v] = round_no
        activated_now = list(batch)
        conflict_now = set(batch)
        conflict.update(batch)

        while True:
            while True:
                absorbed = [
                    v
                    for v in ctx.machine_ids
                    if v not in conflict
                    and any(u in conflict for _, u in orient.fathers(v))
                ]
                if not absorbed:
                    break
                for v in absorbed:
                    conflict.add(v)
                    conflict_now.add(v)
                    if trace is not None:
                        trace.append({"event": "absorb", "machine": v})
            fakes = []
            for e in ctx.graph.edges:
                if not orient.neutral(e):
                    continue
                for v, u in ((e.u, e.v), (e.v, e.u)):
                    if v in conflict:
                        fakes.append((v, u, e))
            if not fakes:
                break
            fakes.sort(key=lambda c: (c[0], c[1]))
            v, u, e = fake_picker(fakes) if fake_picker else fakes[0]
            orient.direct(e, u)
            if trace is not None:
                trace.append({"event": "fake", "edge": e.id, "from": v, "to": u})
            forced_orientations(ctx, orient, ml, th, (u,), trace)
            if not overloaded() <= overloaded0:
                raise InvariantViolation("machines became overloaded")

        while True:
            extra = []
            for v in sorted(conflict - set(levels), key=ctx.index):
                rule1 = any(
                    ctx.dedicated[v] + ml[v] + e.weight > th.overload_bound
                    for e, u in orient.fathers(v)
                    if u in conflict
                )
                rule2 = False
                if not rule1:
                    rule2 = any(
                        u in levels and e.weight < th.rule2_bound
                        for e, u in orient.fathers(v) + orient.children(v)
                        if u in conflict
                    )
                if rule1 or rule2:
                    extra.append((v, "activate_r1" if rule1 else "activate_r2"))
            if not extra:
                break
            for v, event in extra:
                levels[v] = round_no
                activated_now.append(v)
                if trace is not None:
                    trace.append({"event": event, "machine": v})

        for e in ctx.graph.edges:
            if (e.u in conflict) + (e.v in conflict) == 1:
                tail = e.u if e.u in conflict else e.v
                if orient.head[e.id] != e.other(tail):
                    raise InvariantViolation(f"edge {e.id} is not directed outward")

        result.round_activated.append(activated_now)
        result.round_conflict.append(conflict_now)
        round_no += 1
    return result


class TestThresholds:
    def test_worked_values_at_seven_tenths(self):
        th = ThresholdsG.make(100, BETA)
        assert th.overload_bound == Fraction(190)
        assert th.push_bound == Fraction(120)   # (5/3 - 2*(7/10)/3) * 100
        assert th.rule2_bound == Fraction(90)

    def test_push_bound_boundary(self):
        # (5/3 - 2*beta/3) * 300 = 360 at beta = 7/10
        th = ThresholdsG.make(300, BETA)
        assert th.push_bound == Fraction(360)
        assert Fraction(360) <= th.push_bound < Fraction(361)

    @pytest.mark.parametrize("beta", BETAS)
    def test_integer_bounds_compare_like_exact_ones(self, beta):
        for t in range(1, 121):
            th = ThresholdsG.make(t, beta)
            exact = exact_thresholds(t, beta)
            assert all(
                isinstance(b, int)
                for b in (th.overload_bound, th.push_bound, th.rule2_bound)
            )
            for load in range(3 * t + 1):
                assert (load > th.overload_bound) == (load > exact.overload_bound)
                assert (load > th.push_bound) == (load > exact.push_bound)
                assert (load < th.rule2_bound) == (load < exact.rule2_bound)


class TestForcedOrientations:
    def test_adversarial_path_cascades_rightward(self):
        inst = generate_adversarial_path(2, 100)
        ctx = reduce_instance(inst, 100, SolveMode.GENERAL, BETA)
        th = ThresholdsG.make(100, BETA)
        orient = Orientation(ctx.graph)
        ml = PushState(ctx).loads
        forced_orientations(ctx, orient, ml, th, ctx.graph.nodes)
        # 100 + 96 = 196 > 190 forces the first edge, then the cascade
        assert orient.head == {"r0": "p1", "r1": "p2", "r2": "p3"}

    def test_zero_loads_direct_nothing(self):
        ctx = general_ctx(
            [("a", 0), ("b", 0), ("c", 0)],
            [("r1", 96, ["a", "b"]), ("r2", 96, ["b", "c"])],
            t=100,
        )
        th = ThresholdsG.make(100, BETA)
        orient = Orientation(ctx.graph)
        ml = PushState(ctx).loads
        forced_orientations(ctx, orient, ml, th, ctx.graph.nodes)
        assert all(h is None for h in orient.head.values())

    @pytest.mark.parametrize("seed", range(40))
    def test_idempotent(self, seed):
        inst = loaded_general(seed, BETA)
        t = inst.max_weight() + seed % 7
        ctx = reduce_instance(inst, t, SolveMode.GENERAL, BETA)
        if isinstance(ctx, Declaration):
            return
        th = ThresholdsG.make(t, BETA)
        orient = Orientation(ctx.graph)
        ml = PushState(ctx).loads
        forced_orientations(ctx, orient, ml, th, ctx.graph.nodes)
        snapshot = dict(orient.head)
        forced_orientations(ctx, orient, ml, th, ctx.graph.nodes)
        assert orient.head == snapshot


def seeded_contexts():
    """200 small loaded contexts, then larger generated ones and random edge
    trees under heavy dedicated loads, each with its own seeded stream."""
    found = 0
    seed = 0
    while found < 200:
        rng = random.Random(seed)
        beta = BETAS[seed % 4]
        inst = loaded_general(seed, beta)
        seed += 1
        t = inst.max_weight() + rng.randint(0, 6)
        ctx = reduce_instance(inst, t, SolveMode.GENERAL, beta)
        if isinstance(ctx, Declaration):
            continue
        found += 1
        yield ctx, beta, rng
    for seed in range(40):
        rng = random.Random(10_000 + seed)
        beta = BETAS[seed % 4]
        m = rng.randint(6, 24)
        inst = generate_general(m, rng.randint(2 * m, 5 * m), beta, 100, seed)
        t = inst.max_weight() + rng.randint(0, 100)
        ctx = reduce_instance(inst, t, SolveMode.GENERAL, beta)
        if not isinstance(ctx, Declaration):
            yield ctx, beta, rng
    for seed in range(60):
        # a random tree of edge jobs under heavy dedicated loads: long cascades
        rng = random.Random(20_000 + seed)
        beta = BETAS[seed % 4]
        m = rng.randint(4, 30)
        ids = [f"m{x}" for x in rng.sample(range(100), m)]
        machines = [(v, rng.choice((0, rng.randint(0, 100)))) for v in ids]
        jobs = [
            (f"e{i}", rng.randint(int(beta * 100) + 1, 100), [ids[i], ids[rng.randrange(i)]])
            for i in range(1, m)
        ]
        jobs += [
            (f"l{i}", rng.randint(1, int(beta * 100)), rng.sample(ids, 2))
            for i in range(rng.randint(0, m))
        ]
        ctx = reduce_instance(build(machines, jobs), 100, SolveMode.GENERAL, beta)
        if not isinstance(ctx, Declaration):
            yield ctx, beta, rng


class TestAgainstRescanningReference:
    """The heap-driven cascade and the early-exit push search on integer
    bounds agree with the whole-graph rescans on exact rational bounds."""

    def test_forced_cascade_after_random_fake_orientations(self):
        contexts = cascades = 0
        for ctx, beta, rng in seeded_contexts():
            contexts += 1
            placement = {p.id: rng.choice(ctx.instance.sorted_eligible(p)) for p in ctx.movables}
            ml = PushState(ctx, placement).loads
            fast, slow = Orientation(ctx.graph), Orientation(ctx.graph)
            for e in ctx.graph.edges:
                if rng.random() < 0.5:
                    head = rng.choice((e.u, e.v))
                    fast.direct(e, head)
                    slow.direct(e, head)
            fast_trace, slow_trace = [], []
            forced_orientations(
                ctx, fast, ml, ThresholdsG.make(ctx.t, beta), ctx.graph.nodes, fast_trace
            )
            rescanning_forced(ctx, slow, ml, exact_thresholds(ctx.t, beta), slow_trace)
            assert fast.head == slow.head
            assert fast.in_load == slow.in_load
            assert fast_trace == slow_trace
            cascades += bool(slow_trace)
        assert contexts >= 280 and cascades >= 70

    def test_push_search_after_random_fake_orientations(self):
        contexts = pushes = 0
        for ctx, beta, rng in seeded_contexts():
            contexts += 1
            placement = {p.id: rng.choice(ctx.instance.sorted_eligible(p)) for p in ctx.movables}
            state = PushState(ctx, placement)
            result = explore(
                ctx,
                state,
                ThresholdsG.make(ctx.t, beta),
                fake_picker=lambda candidates: rng.choice(candidates),
            )
            move = find_push_general(ctx, state, result, ThresholdsG.make(ctx.t, beta))
            assert move == rescanning_find_push(
                ctx, placement, result, exact_thresholds(ctx.t, beta)
            )
            pushes += move is not None
        assert contexts >= 280 and pushes >= 60

    @pytest.mark.parametrize("picker_seed", [None, 5])
    def test_explore_rounds(self, picker_seed):
        """The worklist exploration with eligibility masks matches the
        whole-graph rescans round by round, event by event, from a random
        placement and after each of up to ten pushes, with the default fake
        order and with a seeded picker fed the same stream on both."""

        def picker(seed):
            if picker_seed is None:
                return None
            stream = random.Random(picker_seed * 10_000 + seed)
            return lambda candidates: stream.choice(candidates)

        contexts = rounds = fakes = 0
        for ctx, beta, rng in seeded_contexts():
            contexts += 1
            placement = {p.id: rng.choice(ctx.instance.sorted_eligible(p)) for p in ctx.movables}
            state = PushState(ctx, placement)
            th = ThresholdsG.make(ctx.t, beta)
            for step in range(11):
                fast_trace, slow_trace = [], []
                fast = explore(
                    ctx, state, th, fake_picker=picker(contexts * 11 + step), trace=fast_trace
                )
                slow = rescanning_explore(
                    ctx, state, th, fake_picker=picker(contexts * 11 + step), trace=slow_trace
                )
                assert fast.levels == slow.levels
                assert fast.conflict == slow.conflict
                assert fast.round_activated == slow.round_activated
                assert fast.round_conflict == slow.round_conflict
                assert fast.targets == [ctx.instance.mask(r) for r in slow.round_activated]
                assert fast.orientation.head == slow.orientation.head
                assert fast.orientation.in_load == slow.orientation.in_load
                assert fast_trace == slow_trace
                rounds += len(slow.round_activated)
                fakes += sum(event["event"] == "fake" for event in slow_trace)
                move = find_push_general(ctx, state, fast, th)
                if move is None:
                    break
                state.move(move.movable_id, move.target)
            for p in ctx.movables:
                assert p.mask == sum(2 ** ctx.instance.name_rank[v] for v in p.eligible)
        assert contexts >= 280 and rounds >= 600 and fakes >= 180

    def test_head_seeded_cascade_after_each_fake(self):
        """From a fixpoint, directing one neutral edge can only leave its
        head in violation, so seeding the cascade with that head alone
        matches seeding it with every node."""
        steps = cascades = 0
        for ctx, beta, rng in seeded_contexts():
            placement = {p.id: rng.choice(ctx.instance.sorted_eligible(p)) for p in ctx.movables}
            ml = PushState(ctx, placement).loads
            th = ThresholdsG.make(ctx.t, beta)
            fast, slow = Orientation(ctx.graph), Orientation(ctx.graph)
            forced_orientations(ctx, fast, ml, th, ctx.graph.nodes)
            forced_orientations(ctx, slow, ml, th, ctx.graph.nodes)
            while neutral := [e for e in ctx.graph.edges if fast.neutral(e)]:
                e = rng.choice(neutral)
                head = rng.choice((e.u, e.v))
                fast.direct(e, head)
                slow.direct(e, head)
                fast_trace, slow_trace = [], []
                forced_orientations(ctx, fast, ml, th, (head,), fast_trace)
                forced_orientations(ctx, slow, ml, th, ctx.graph.nodes, slow_trace)
                assert fast.head == slow.head
                assert fast.in_load == slow.in_load
                assert fast_trace == slow_trace
                steps += 1
                cascades += bool(slow_trace)
        assert steps >= 300 and cascades >= 80


def kept_label_contexts():
    """The edge-free contexts of ``seeded_contexts()``, then n = 4m
    generated instances at guesses around their least feasible t."""
    for ctx, beta, _ in seeded_contexts():
        if not ctx.graph.edges:
            yield ctx
    for seed in range(12):
        m = (6, 10, 16, 24, 32, 40)[seed % 6]
        inst = generate_general(m, 4 * m, BETAS[seed % 4], 100, seed)
        t_star = solve(inst, SolveMode.GENERAL, BETAS[seed % 4]).t_star
        for t in (t_star - 4, t_star, t_star + 4):
            if t < inst.max_weight():
                continue
            ctx = reduce_instance(inst, t, SolveMode.GENERAL, BETAS[seed % 4])
            if not isinstance(ctx, Declaration) and not ctx.graph.edges:
                yield ctx


def edge_label_contexts():
    """Two overloaded neighbours, the contexts of ``seeded_contexts()`` with
    edges, then generated edge-rich ones (n = 1.5m or 2m, and n = 4m at
    m = 30) at guesses around their least feasible t."""
    # a and b overload on their own, and the edge between them is forced
    # into b: b's pushes to c take its own load to the bound while the
    # edge keeps it overloaded
    jobs = [("e", 96, ["a", "b"])]
    jobs += [(f"p{i}", 10, ["a", "d"]) for i in range(10)]
    jobs += [(f"q{i}", 10, ["b", "c"]) for i in range(10)]
    yield general_ctx([("a", 100), ("b", 100), ("c", 0), ("d", 0)], jobs, t=100)
    for ctx, beta, _ in seeded_contexts():
        if ctx.graph.edges:
            yield ctx
    for seed in range(40):
        m = (12, 20, 30, 40)[seed % 4]
        n = 4 * m if seed % 4 == 2 else m * (3 + seed % 2) // 2
        beta = BETAS[seed % 4]
        inst = generate_general(m, n, beta, 100, seed)
        t_star = solve(inst, SolveMode.GENERAL, beta).t_star
        for t in (t_star - 4, t_star, t_star + 4):
            if t < inst.max_weight():
                continue
            ctx = reduce_instance(inst, t, SolveMode.GENERAL, beta)
            if not isinstance(ctx, Declaration) and ctx.graph.edges:
                yield ctx


def keep_refusals(ctx, state, move, before):
    """Every reason a fresh ``explore`` just after *move* might differ from
    *before*, read from its log and a rerun initial cascade: p's support on
    level l+1 is lost, the target ends overloaded, the source leaves the
    overload set after the initial cascade, or a forced-cascade scan of
    either machine finds other violators at its new load."""
    th = ThresholdsG.make(ctx.t, ctx.beta)
    bound = th.overload_bound
    u, v = move.source, move.target
    p = state.movable[move.movable_id]
    new = {u: state.total(u), v: state.total(v)}
    old = {u: new[u] + p.weight, v: new[v] - p.weight}
    log = before.orientation.log
    reasons = []

    level = before.levels[u]
    left = set()
    for x, lvl in before.levels.items():
        if lvl == level:
            for q in state.at[x]:
                left |= q.eligible
    if any(before.levels.get(w) == level + 1 and w not in left for w in p.eligible):
        reasons.append("support")

    def in_load(x, end):
        return sum(e.weight for e, h in log[:end] if h == x)

    if new[v] + in_load(v, len(log)) > bound:
        reasons.append("target overloaded")
    initial = Orientation(ctx.graph)
    old_loads = {**state.loads, u: state.loads[u] + p.weight, v: state.loads[v] - p.weight}
    forced_orientations(ctx, initial, old_loads, th, ctx.graph.nodes)
    if (old[u] + initial.in_load[u] > bound) != (new[u] + initial.in_load[u] > bound):
        reasons.append("left level 0")
    for x, name in ((u, "source scan"), (v, "target scan")):
        # x is scanned at in-load 0 and after each log entry with head x
        for end in [0] + [i + 1 for i, (_, h) in enumerate(log) if h == x]:
            directed = {e.id for e, _ in log[:end]}
            neutral = [e for e in ctx.graph.incident(x) if e.id not in directed]
            room = bound - in_load(x, end)
            if {e.id for e in neutral if old[x] + e.weight > room} != {
                e.id for e in neutral if new[x] + e.weight > room
            }:
                reasons.append(name)
                break
    return reasons


class TestKeptLabels:
    """``run_general`` keeps its labeling across a push exactly when no
    reason of ``keep_refusals`` holds; after every push the kept or
    restarted labeling equals a fresh ``explore`` in every field a later
    push or keep test reads, and the push search equals the rescanning
    one."""

    def check_every_push(self, monkeypatch, contexts, restarted=None):
        """Run the core on *contexts*, checking each push, and count the
        kept pushes and each refusal reason; *restarted*, if given, is called
        with the old levels and the fresh labeling of each restart."""
        tally = Counter()
        real_push, real_find = general.push, general.find_push_general

        for ctx in list(contexts):  # solve() runs unpatched
            th = ThresholdsG.make(ctx.t, ctx.beta)
            exact = exact_thresholds(ctx.t, ctx.beta)
            searched = []  # the labeling each push search ran on

            def find(ctx_, state, result, th_):
                move = real_find(ctx_, state, result, th_)
                assert move == rescanning_find_push(ctx, state.placement, result, exact)
                searched.append(result)
                return move

            def checked_push(state, move, relabel, trace=None):
                before = state.levels
                mark = len(trace)
                result = real_push(state, move, relabel, trace)
                reasons = keep_refusals(ctx, state, move, searched[-1])
                fresh_trace = []
                fresh = explore(ctx, state, th, trace=fresh_trace)
                assert result.levels == fresh.levels
                assert result.levels is state.levels
                assert result.round_activated == fresh.round_activated
                assert result.round_conflict == fresh.round_conflict
                assert result.conflict == fresh.conflict
                assert result.targets == fresh.targets
                assert result.orientation.head == fresh.orientation.head
                assert result.orientation.log == fresh.orientation.log
                assert result.orientation.in_load == fresh.orientation.in_load
                assert trace[mark + 1:] == [
                    {**event, "iteration": state.pushes + 1} for event in fresh_trace
                ]
                assert state.potential == potential_value(ctx, state.at, state.levels)
                kept = state.levels is before
                assert kept == (not reasons), reasons
                tally.update(reasons or ["kept"])
                if not kept and restarted is not None:
                    restarted(before, fresh)
                return result

            monkeypatch.setattr(general, "push", checked_push)
            monkeypatch.setattr(general, "find_push_general", find)
            trace = []
            _, pushes = run_general(ctx, trace)
            assert_push_events(trace, pushes)
        return tally

    def test_kept_or_restarted_labeling_matches_a_fresh_explore(self, monkeypatch):
        def restarted(before, fresh):
            # without edges the keep test is exact: a restart changes levels
            assert fresh.levels != before

        tally = self.check_every_push(monkeypatch, kept_label_contexts(), restarted)
        assert tally["kept"] >= 1500
        assert tally["left level 0"] >= 100 and tally["support"] >= 50

    def test_contexts_with_edges_keep_or_restart_like_a_fresh_explore(
        self, monkeypatch
    ):
        tally = self.check_every_push(monkeypatch, edge_label_contexts())
        assert tally["kept"] >= 500
        for reason in ("support", "left level 0", "source scan", "target scan"):
            assert tally[reason] >= 40


class TestPushState:
    def test_moves_match_a_fresh_state(self):
        """Random moves keep the incremental loads and sorted movable lists
        equal to a state built from scratch on the same placement."""
        moves = 0
        for ctx, _, rng in seeded_contexts():
            if not ctx.movables:
                continue
            placement = {p.id: rng.choice(ctx.instance.sorted_eligible(p)) for p in ctx.movables}
            state = PushState(ctx, placement)
            for count in range(1, 11):
                p = rng.choice(ctx.movables)
                source = state.placement[p.id]
                assert state.move(p.id, rng.choice(ctx.instance.sorted_eligible(p))) == source
                fresh = PushState(ctx, state.placement)
                assert state.loads == fresh.loads
                assert state.at == fresh.at
                assert state.pushes == count
                moves += 1
        assert moves >= 2000


# sha256 over solve(...).to_json() of golden_corpus(), as computed by the
# whole-graph rescanning core on exact rational bounds
GOLDEN_SHA256 = "9fe5a1d20533dc00e90172863288ae786a4c824a1b216112806b932e06c97b52"
# sha256 over hash_declarations(...) of the same solves, as computed by the
# matching core's second alternating search and relief's residual search
GOLDEN_DECLARATIONS_SHA256 = "526fa09b6c6792089ef6fc06b3de64666c3635f6af9adbda40022f78a42157e6"


def golden_corpus():
    for seed in range(120):
        yield loaded_general(seed, BETAS[seed % 4]), BETAS[seed % 4]
    for seed in range(24):
        m = (6, 10, 16, 24, 32, 40)[seed % 6]
        beta = BETAS[seed % 4]
        yield generate_general(m, 3 * m + seed % 3 * m, beta, 100 + 37 * seed, seed), beta


def test_golden_general_corpus():
    digest, declared = hashlib.sha256(), hashlib.sha256()
    for inst, beta in golden_corpus():
        solution = solve(inst, SolveMode.GENERAL, beta)
        digest.update(json.dumps(solution.to_json(), sort_keys=True).encode())
        hash_declarations(declared, inst, solution)
    assert digest.hexdigest() == GOLDEN_SHA256
    assert declared.hexdigest() == GOLDEN_DECLARATIONS_SHA256


def test_long_adversarial_path_solves_at_the_closed_form():
    # OPT = scale // 4 + edge weight = 25 + 96 at scale 100
    solution = solve(generate_adversarial_path(10_000, 100), SolveMode.GENERAL, BETA)
    assert solution.makespan == 121


class TestExplore:
    def test_no_overload_stops_immediately(self):
        ctx = general_ctx(
            [("a", 0), ("b", 0)], [("r", 90, ["a", "b"]), ("l", 10, ["a", "b"])], t=100
        )
        result = explore(ctx, PushState(ctx), ThresholdsG.make(100, BETA))
        assert result.levels == {} and result.conflict == set()

    def test_rule1_activates_forced_tail(self):
        # a (95) forces e1 toward b, b forces e2 toward c and big toward d;
        # c ends at 95 + 96 = 191 > 190 and seeds the conflict set, which
        # absorbs b and then a along their father edges.  a's own father
        # edge overloads it (95 + 96 > 190): rule 1.  b's one father edge
        # into the conflict set, e2, is far from overloading it (0 + 96),
        # and its labeled neighbors a and c sit across 96 edges, not below
        # the rule-2 bound 90, so neither rule reaches it.
        ctx = general_ctx(
            [("a", 95), ("b", 0), ("c", 95), ("d", 14)],
            [
                ("e1", 96, ["a", "b"]),
                ("e2", 96, ["b", "c"]),
                ("big", 100, ["d", "b"]),
            ],
            t=100,
        )
        th = ThresholdsG.make(100, BETA)
        trace = []
        result = explore(ctx, PushState(ctx), th, trace=trace)
        assert result.levels == {"a": 0, "c": 0}
        assert result.conflict == {"a", "b", "c"}
        activations = [e for e in trace if e["event"].startswith("activate")]
        assert activations == [{"event": "activate_r1", "machine": "a"}]

    def test_rule2_spreads_across_light_edge(self):
        # a (95) forces e1 toward b; b then holds 20 + 96 and cannot take
        # e2 as well, so e2 points at c, which the movable l overloads
        # (100 + 11 + 80 > 190).  b joins the conflict set along e2 but
        # rule 1 misses it (20 + 80 <= 190); its labeled neighbor c sits
        # across e2, lighter than the rule-2 bound (80 < 90): rule 2.
        ctx = general_ctx(
            [("a", 95), ("b", 20), ("c", 100), ("d", 0)],
            [
                ("e1", 96, ["a", "b"]),
                ("e2", 80, ["b", "c"]),
                ("l", 11, ["c", "d"]),
            ],
            t=100,
        )
        th = ThresholdsG.make(100, BETA)
        trace = []
        result = explore(ctx, PushState(ctx), th, trace=trace)
        assert result.orientation.head == {"e1": "b", "e2": "c"}
        assert result.levels == {"c": 0, "a": 0, "b": 0, "d": 1}
        activations = [e for e in trace if e["event"].startswith("activate")]
        assert activations == [
            {"event": "activate_r1", "machine": "a"},
            {"event": "activate_r2", "machine": "b"},
        ]


class TestOrderIndependence:
    """Different fake-orientation orders: same conflict sets, same outside."""

    @pytest.mark.parametrize("seed", range(100))
    def test_conflict_sets_and_outside_edges(self, seed):
        rng = random.Random(seed)
        inst = loaded_general(seed, BETA)
        t = inst.max_weight() + rng.randint(0, 3)
        ctx = reduce_instance(inst, t, SolveMode.GENERAL, BETA)
        if isinstance(ctx, Declaration):
            return
        placement = {
            p.id: rng.choice(ctx.instance.sorted_eligible(p)) for p in ctx.movables
        }
        th = ThresholdsG.make(t, BETA)

        def picker(rng_pick):
            return lambda candidates: rng_pick.choice(candidates)

        state = PushState(ctx, placement)
        first = explore(ctx, state, th, fake_picker=picker(random.Random(seed * 3 + 1)))
        second = explore(ctx, state, th, fake_picker=picker(random.Random(seed * 7 + 2)))
        assert first.round_conflict == second.round_conflict
        assert first.conflict == second.conflict
        for e in ctx.graph.edges:
            if not (e.u in first.conflict and e.v in first.conflict):
                assert first.orientation.head[e.id] == second.orientation.head[e.id]


class TestPushConditions:
    def test_boundary_of_push_bound(self):
        # push bound is 120 at t=100: a target at exactly 120 is accepted,
        # 121 is rejected (and nothing else is available)
        for extra, expect in ((0, True), (1, False)):
            ctx = general_ctx(
                [("a", 100), ("b", 50 + extra)],
                [
                    ("l1", 70, ["a", "b"]),
                    ("l2", 70, ["a", "b"]),
                    ("lb", 70, ["a", "b"]),
                ],
                t=100,
            )
            th = ThresholdsG.make(100, BETA)
            # a carries 240 > 190; b sits at exactly 120 + extra
            state = PushState(ctx, {"l1": "a", "l2": "a", "lb": "b"})
            result = explore(ctx, state, th)
            assert result.levels.get("a") == 0
            assert result.levels.get("b") == 1
            move = find_push_general(ctx, state, result, th)
            if expect:
                assert move is not None and move.target == "b"
            else:
                assert move is None

    def test_father_edge_blocks_non_leaf_target(self):
        # chain x -> v -> u is forced by x's load; v is the only target that
        # survives the load ceiling, but it has a child in the conflict set
        # and its father edge (weight 100) would push it past the ceiling
        ctx = general_ctx(
            [("a", 100), ("x", 100), ("v", 21), ("u", 30)],
            [
                ("e1", 96, ["x", "v"]),
                ("e2", 100, ["v", "u"]),
                ("l1", 70, ["a", "x"]),
                ("l2", 70, ["a", "v"]),
                ("l3", 70, ["a", "u"]),
                ("lx", 70, ["x", "a"]),
            ],
            t=100,
        )
        th = ThresholdsG.make(100, BETA)
        state = PushState(ctx, {"l1": "a", "l2": "a", "l3": "a", "lx": "x"})
        result = explore(ctx, state, th)
        assert result.orientation.head == {"e1": "v", "e2": "u"}
        assert result.levels == {"a": 0, "x": 1, "v": 1, "u": 1}
        # v passes the plain load ceiling: 21 + 0 + 96 = 117 <= 120
        assert ctx.dedicated["v"] + result.orientation.in_load["v"] <= th.push_bound
        # but its conflict-set father edge e2 weighs 100: 21 + 100 > 120
        assert find_push_general(ctx, state, result, th) is None


    @pytest.mark.parametrize("q_on, target", [("m2", "m10"), ("m10", "m2")])
    def test_least_target_id_not_instance_order(self, q_on, target):
        # machines come as m9, m10, m2 but ids order as m10 < m2 < m9; q
        # lifts one of m10 and m2 past the push bound of 120, and the push
        # takes the least id among the two that still accept
        ctx = general_ctx(
            [("s", 100), ("m9", 100), ("m10", 100), ("m2", 100)],
            [
                ("p1", 60, ["s", "m9", "m10", "m2"]),
                ("p2", 60, ["s", "m9", "m10", "m2"]),
                ("q", 30, ["m10", "m2"]),
            ],
            t=100,
        )
        th = ThresholdsG.make(100, BETA)
        state = PushState(ctx, {"p1": "s", "p2": "s", "q": q_on})
        result = explore(ctx, state, th)
        assert result.levels == {"s": 0, "m9": 1, "m10": 1, "m2": 1}
        assert find_push_general(ctx, state, result, th) == PushMove("p1", "s", target)


class TestRunCore:
    def test_no_edges_light_load_first_iteration(self):
        ctx = general_ctx(
            [("a", 0), ("b", 0)], [("l1", 5, ["a", "b"]), ("l2", 5, ["a", "b"])], t=10
        )
        result, pushes = run_general(ctx)
        assert not isinstance(result, Declaration)
        assert pushes == 0

    def test_adversarial_path_with_feeder(self):
        # the forced path plus a feeder machine that starts overloaded from
        # its parked movables; whatever the outcome, the oracle must agree
        machines = [("f", 100), ("p0", 100), ("p1", 0), ("p2", 0), ("p3", 25)]
        jobs = [
            ("r0", 96, ["p0", "p1"]),
            ("r1", 96, ["p1", "p2"]),
            ("r2", 96, ["p2", "p3"]),
            ("l1", 70, ["f", "p1"]),
            ("l2", 70, ["f", "p3"]),
        ]
        inst = build(machines, jobs)
        t = 100
        ctx = reduce_instance(inst, t, SolveMode.GENERAL, BETA)
        assert not isinstance(ctx, Declaration)
        result, _ = run_general(ctx)
        if isinstance(result, Declaration):
            assert not feasible_at(inst, t)
            assert verify_certificate(inst, result) == "confirmed"
        else:
            valid, makespan = verify_solution(inst, ctx.expand(result))
            assert valid and Fraction(makespan) <= Fraction(19, 10) * t

    @pytest.mark.parametrize("seed", range(120))
    def test_random_runs_sound_and_bounded(self, seed):
        inst = loaded_general(seed, BETA)
        base = inst.max_weight()
        for t in (base, base + 2, base + 6):
            ctx = reduce_instance(inst, t, SolveMode.GENERAL, BETA)
            if isinstance(ctx, Declaration):
                assert not feasible_at(inst, t)
                continue
            trace = []
            result, pushes = run_general(ctx, trace)
            if isinstance(result, Declaration):
                assert not feasible_at(inst, t)
                assert result.payload["min_edge_load"] is not None
            else:
                valid, makespan = verify_solution(inst, ctx.expand(result))
                assert valid
                assert Fraction(makespan) <= Fraction(19, 10) * t
            assert_push_events(trace, pushes)
