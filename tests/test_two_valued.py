"""Two-weight core: classification, labeling, pushes, and full runs."""

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from graphbalance import (
    Declaration,
    Regime,
    SolveMode,
    feasible_at,
    generate_two_valued,
    reduce_instance,
    solve,
    verify_solution,
)
from graphbalance.push import PushMove, PushState, potential_value, push
from graphbalance.two_valued import (
    NodeClass,
    Thresholds,
    TwoValuedState,
    classify_node,
    label_levels,
    find_push,
    run_two_valued,
)

from conftest import (
    assert_push_events,
    build,
    hash_declarations,
    loaded_two_valued,
    regime_or_none,
)


def exact_thresholds(t, heavy, light, variant):
    """The thresholds as exact rationals, unrounded."""
    base = Fraction(3 * t, 2) if variant == "standard" else Fraction(t + heavy // 2)
    return SimpleNamespace(
        safe_max=base - heavy - light, tight_floor=base - heavy, overfull_floor=base
    )


def exact_class(total, th):
    if total > th.overfull_floor:
        return NodeClass.OVERFULL
    if total > th.tight_floor:
        return NodeClass.TIGHT
    if total <= th.safe_max:
        return NodeClass.SAFE
    return NodeClass.MIDDLE


def rescanning_classes(state, th, extra=None):
    """Every machine's class from loads rebuilt out of the placement."""
    loads = PushState(state.ctx, state.placement).loads
    classes = {
        v: exact_class(state.ctx.dedicated[v] + loads[v], th)
        for v in state.ctx.machine_ids
    }
    if extra is not None:
        v, weight = extra
        classes[v] = exact_class(state.ctx.dedicated[v] + loads[v] + weight, th)
    return classes


def rescanning_stuck(comp, classes):
    if any(classes[v] == NodeClass.OVERFULL for v in comp.nodes):
        return True
    tight = sum(1 for v in comp.nodes if classes[v] >= NodeClass.TIGHT)
    if comp.kind == "tree":
        return tight >= 2
    if comp.kind == "cycle":
        return tight >= 1
    return False


def rescanning_label_levels(state, th):
    """Reference labeling: classify every machine and expand every labeled
    machine in every round, scanning all machines for pulled tight nodes."""
    ctx = state.ctx
    classes = rescanning_classes(state, th)
    stuck = [rescanning_stuck(comp, classes) for comp in state.components]
    comp_of = state.comp_index
    levels = {
        v: 0
        for v in ctx.machine_ids
        if classes[v] >= NodeClass.TIGHT and stuck[comp_of[v]]
    }
    labeled = set(levels)
    at = PushState(ctx, state.placement).at
    level = 0
    while True:
        level += 1
        reachable = set()
        for u in labeled:
            for p in at[u]:
                reachable.update(x for x in p.eligible if x not in labeled)
        batch = sorted(reachable, key=ctx.index)
        if not batch:
            break
        batch_comps = {comp_of[v] for v in batch}
        pulled = [
            v
            for v in ctx.machine_ids
            if v not in labeled
            and v not in reachable
            and classes[v] >= NodeClass.TIGHT
            and not stuck[comp_of[v]]
            and comp_of[v] in batch_comps
        ]
        for v in batch + pulled:
            levels[v] = level
            labeled.add(v)
    return levels


def rescanning_accepts(state, th, v):
    classes = rescanning_classes(state, th)
    if classes[v] == NodeClass.SAFE:
        return True
    comp = state.components[state.comp_index[v]]
    if rescanning_stuck(comp, classes):
        return False
    bumped = rescanning_classes(state, th, extra=(v, state.ctx.regime.light))
    return not rescanning_stuck(comp, bumped)


def rescanning_pushes(state, levels, th):
    """Every valid push as ``(level, source, movable, target)``."""
    at = PushState(state.ctx, state.placement).at
    return sorted(
        (lvl, u, p.id, v)
        for u, lvl in levels.items()
        for p in at[u]
        for v in state.ctx.instance.sorted_eligible(p)
        if v != u and levels.get(v) == lvl + 1 and rescanning_accepts(state, th, v)
    )


def make_state(machines, jobs, t, placement=None, variant="standard"):
    inst = build(machines, jobs, SolveMode.TWO_VALUED)
    ctx = reduce_instance(inst, t, SolveMode.TWO_VALUED)
    assert not isinstance(ctx, Declaration)
    factory = Thresholds.standard if variant == "standard" else Thresholds.improved
    thresholds = factory(t, ctx.regime.heavy, ctx.regime.light)
    return TwoValuedState(ctx, thresholds, placement)


class TestClassification:
    # t=10, heavy=6, light=2: thresholds are 7 / 9 / 15; machine 'a' gets
    # its combined load from dedicated weight plus lights parked on it
    def node_a(self, dedicated, lights_on_a):
        machines = [("a", dedicated), ("b", 0), ("c", 0)]
        jobs = [("h", 6, ["b", "c"]), ("lfar", 2, ["b", "c"])]
        placement = {"lfar": "b"}
        for i in range(lights_on_a):
            jobs.append((f"l{i}", 2, ["a", "b"]))
            placement[f"l{i}"] = "a"
        return make_state(machines, jobs, t=10, placement=placement)

    def test_boundary_is_safe(self):
        assert classify_node("a", self.node_a(7, 0)) == NodeClass.SAFE

    def test_middle_gap_exists(self):
        assert classify_node("a", self.node_a(8, 0)) == NodeClass.MIDDLE
        assert classify_node("a", self.node_a(9, 0)) == NodeClass.MIDDLE

    def test_tight(self):
        assert classify_node("a", self.node_a(8, 1)) == NodeClass.TIGHT

    def test_overfull(self):
        assert classify_node("a", self.node_a(10, 3)) == NodeClass.OVERFULL
        assert classify_node("a", self.node_a(9, 3)) == NodeClass.TIGHT

    def test_improved_thresholds(self):
        th = Thresholds.improved(10, 6, 3)
        assert th.safe_max == Fraction(4)          # 10+3-6-3
        assert th.tight_floor == Fraction(7)
        assert th.overfull_floor == Fraction(13)


class TestComponentStatus:
    def test_overfull_isolated_is_stuck(self):
        state = make_state(
            [("a", 10), ("b", 0), ("c", 0)],
            [("h", 6, ["b", "c"])] + [(f"l{i}", 2, ["a", "b"]) for i in range(3)],
            t=10,
            placement={f"l{i}": "a" for i in range(3)},
        )
        i = state.comp_index["a"]
        assert state.components[i].kind == "isolated"
        assert state.stuck[i]

    def test_tree_with_one_tight_is_clear(self):
        state = make_state(
            [("a", 10), ("b", 0), ("c", 0)],
            [("h", 6, ["a", "b"]), ("l0", 2, ["a", "c"])],
            t=10,
            placement={"l0": "a"},
        )
        i = state.comp_index["a"]
        assert state.components[i].kind == "tree"
        assert classify_node("a", state) == NodeClass.TIGHT
        assert not state.stuck[i]

    def test_cycle_with_one_tight_is_stuck(self):
        state = make_state(
            [("a", 10), ("b", 0), ("c", 0)],
            [
                ("h1", 6, ["a", "b"]),
                ("h2", 6, ["b", "c"]),
                ("h3", 6, ["c", "a"]),
                ("l0", 2, ["a", "b"]),
            ],
            t=10,
            placement={"l0": "a"},
        )
        i = state.comp_index["a"]
        assert state.components[i].kind == "cycle"
        assert classify_node("a", state) == NodeClass.TIGHT
        assert state.stuck[i]


def overfull_isolated_state():
    """'a' is overfull from parked lights; 'b'/'c' carry one edge job."""
    return make_state(
        [("a", 10), ("b", 0), ("c", 0)],
        [("h", 6, ["b", "c"])] + [(f"l{i}", 2, ["a", "b"]) for i in range(3)],
        t=10,
        placement={f"l{i}": "a" for i in range(3)},
    )


class TestExplore:
    def test_no_stuck_component_labels_nothing(self):
        state = make_state(
            [("a", 0), ("b", 0)],
            [("h", 6, ["a", "b"]), ("l", 2, ["a", "b"])],
            t=10,
        )
        label_levels(state)
        assert state.levels == {}

    def test_single_overfull_source_spreads_one_level(self):
        state = overfull_isolated_state()
        label_levels(state)
        assert state.levels == {"a": 0, "b": 1}

    def test_rerun_is_identical(self):
        for seed in range(30):
            inst, _, _ = loaded_two_valued(seed)
            regime = regime_or_none(inst, SolveMode.TWO_VALUED)
            if regime is None:
                continue
            heavy, light = regime.heavy, regime.light
            t = max(inst.max_weight(), 2 * light)
            if not (2 * light <= t < 2 * heavy):
                continue
            ctx = reduce_instance(inst, t, SolveMode.TWO_VALUED)
            if isinstance(ctx, Declaration):
                continue
            state = TwoValuedState(ctx, Thresholds.standard(t, heavy, light))
            label_levels(state)
            first = dict(state.levels)
            label_levels(state)
            assert state.levels == first

    def test_clear_tree_tight_node_joins_batch_round(self):
        # overfull 'a' reaches 'b'; 'c' is the tight node of the clear tree
        # {b, c, d} and is pulled in at the same level as 'b'
        state = make_state(
            [("a", 10), ("b", 0), ("c", 9), ("d", 0)],
            [("h1", 6, ["b", "c"]), ("h2", 6, ["c", "d"]),
             ("lc", 2, ["c", "d"])]
            + [(f"l{i}", 2, ["a", "b"]) for i in range(3)],
            t=10,
            placement={"lc": "c", **{f"l{i}": "a" for i in range(3)}},
        )
        assert classify_node("c", state) == NodeClass.TIGHT
        label_levels(state)
        assert state.levels["a"] == 0
        assert state.levels["b"] == 1
        assert state.levels["c"] == 1
        assert state.levels["d"] == 2  # reached through the light parked on c


class TestPush:
    def test_no_labels_no_push(self):
        state = make_state(
            [("a", 0), ("b", 0)],
            [("h", 6, ["a", "b"]), ("l", 2, ["a", "b"])],
            t=10,
        )
        label_levels(state)
        assert find_push(state) is None

    def test_push_from_overfull_to_safe(self):
        state = overfull_isolated_state()
        label_levels(state)
        move = find_push(state)
        assert move == PushMove("l0", "a", "b")

    @pytest.mark.parametrize("k_on, target", [("m2", "m10"), ("m10", "m2")])
    def test_least_target_id_not_instance_order(self, k_on, target):
        # machines come as m9, m10, m2 but ids order as m10 < m2 < m9; the
        # two k lights make one of m10 and m2 refuse a third light, and the
        # push takes the least id among the two that still accept
        state = make_state(
            [("s", 10), ("m9", 0), ("m10", 10), ("m2", 0), ("x", 0), ("y", 0)],
            [("h", 6, ["x", "y"])]
            + [(f"l{i}", 2, ["s", "m9", "m10", "m2"]) for i in range(3)]
            + [(f"k{i}", 2, ["m10", "m2"]) for i in range(2)],
            t=10,
            placement={"l0": "s", "l1": "s", "l2": "s", "k0": k_on, "k1": k_on},
        )
        label_levels(state)
        assert state.levels == {"s": 0, "m9": 1, "m10": 1, "m2": 1}
        assert find_push(state) == PushMove("l0", "s", target)

    def test_lowest_source_level_wins(self):
        # sources available at levels 0 and 1; the level-0 one must be chosen
        state = make_state(
            [("a", 10), ("b", 0), ("c", 0), ("d", 0)],
            [("h", 9, ["c", "d"]), ("lb", 2, ["b", "c"])]
            + [(f"l{i}", 2, ["a", "b"]) for i in range(3)],
            t=10,
            placement={"lb": "b", **{f"l{i}": "a" for i in range(3)}},
        )
        label_levels(state)
        assert state.levels["a"] == 0 and state.levels["b"] == 1
        assert state.levels["c"] == 2
        move = find_push(state)
        assert move.source == "a"

    def test_push_drops_potential_and_keeps_levels(self):
        state = overfull_isolated_state()
        label_levels(state)
        before_levels = dict(state.levels)
        before_potential = potential_value(state.ctx, state.at, state.levels)
        push(state, find_push(state), label_levels)
        after_potential = potential_value(state.ctx, state.at, state.levels)
        assert after_potential < before_potential
        for v, lvl in before_levels.items():
            assert state.levels.get(v, 10 ** 9) >= lvl


class TestRunCore:
    def test_no_edges_immediate_success(self):
        # movables only; the edge graph is empty and nothing is stuck
        inst = build(
            [("a", 0), ("b", 0)],
            [("l1", 2, ["a", "b"]), ("l2", 2, ["a", "b"])],
        )
        ctx = reduce_instance(inst, 10, SolveMode.GENERAL, Fraction(4, 7))
        ctx = replace(ctx, regime=Regime(SolveMode.TWO_VALUED, None, 6, 2))
        # a declaration from the replaced context names the replaced regime
        assert ctx.declare("activated_set").payload == {"mode": "two_valued", "W": 6, "w": 2}
        result, _ = run_two_valued(ctx)
        assert not isinstance(result, Declaration)
        valid, makespan = verify_solution(inst, ctx.expand(result))
        assert valid and Fraction(makespan) <= Fraction(15)

    def test_single_edge_job_oriented_either_way(self):
        inst = build([("a", 0), ("b", 0)], [("r", 10, ["a", "b"])], SolveMode.TWO_VALUED)
        ctx = reduce_instance(inst, 10, SolveMode.TWO_VALUED)
        result, _ = run_two_valued(ctx)
        assert result["r"] in ("a", "b")
        valid, makespan = verify_solution(inst, ctx.expand(result))
        assert valid and makespan == 10

    @pytest.mark.parametrize("seed", range(150))
    def test_random_runs_sound_and_bounded(self, seed):
        inst, _, _ = loaded_two_valued(seed)
        regime = regime_or_none(inst, SolveMode.TWO_VALUED)
        if regime is None:
            return  # all lights ended single-machine: not a two-weight instance
        heavy, light = regime.heavy, regime.light
        in_regime = range(max(inst.max_weight(), 2 * light), 2 * heavy)
        for t in list(in_regime)[:4]:
            ctx = reduce_instance(inst, t, SolveMode.TWO_VALUED)
            if isinstance(ctx, Declaration):
                assert not feasible_at(inst, t)
                continue
            trace = []
            result, pushes = run_two_valued(ctx, trace)
            if isinstance(result, Declaration):
                assert not feasible_at(inst, t)
            else:
                bound = (
                    Fraction(t + heavy // 2)
                    if heavy >= 2 * light
                    else Fraction(3 * t, 2)
                )
                valid, makespan = verify_solution(inst, ctx.expand(result))
                assert valid and Fraction(makespan) <= bound
            assert_push_events(trace, pushes)

    def test_declared_variant_follows_the_weights(self):
        """A declaration names the improved thresholds exactly when W >= 2w."""
        seen = set()
        for seed in range(150):
            inst, _, _ = loaded_two_valued(seed)
            regime = regime_or_none(inst, SolveMode.TWO_VALUED)
            if regime is None:
                continue
            heavy, light = regime.heavy, regime.light
            for t in range(max(inst.max_weight(), 2 * light), 2 * heavy):
                ctx = reduce_instance(inst, t, SolveMode.TWO_VALUED)
                if isinstance(ctx, Declaration):
                    continue
                result, _ = run_two_valued(ctx)
                if isinstance(result, Declaration):
                    variant = result.payload["variant"]
                    assert variant == ("improved" if heavy >= 2 * light else "standard")
                    seen.add(variant)
        assert seen == {"standard", "improved"}


class TestIntegerThresholds:
    PAIRS = ((3, 1), (7, 3), (10, 4), (13, 6))

    @pytest.mark.parametrize("variant", ("standard", "improved"))
    def test_integer_bounds_classify_like_exact_ones(self, variant):
        factory = Thresholds.standard if variant == "standard" else Thresholds.improved
        for heavy, light in self.PAIRS:
            for t in range(1, 201):
                th = factory(t, heavy, light)
                exact = exact_thresholds(t, heavy, light, variant)
                assert all(
                    isinstance(b, int)
                    for b in (th.safe_max, th.tight_floor, th.overfull_floor)
                )
                state = SimpleNamespace(thresholds=th, total=lambda v: 0)
                for load in range(3 * t + 1):
                    assert classify_node("v", state, extra=load) == exact_class(load, exact)
                    assert (load > th.overfull_floor) == (load > exact.overfull_floor)


def seeded_contexts():
    """200 small loaded contexts in the two-valued regime, then larger
    generated ones, each with its own seeded stream and a variant."""

    def in_regime(inst, seed):
        rng = random.Random(seed)
        regime = regime_or_none(inst, SolveMode.TWO_VALUED)
        if regime is None:
            return None
        heavy, light = regime.heavy, regime.light
        guesses = range(max(inst.max_weight(), 2 * light), 2 * heavy)
        if not guesses:
            return None
        ctx = reduce_instance(inst, rng.choice(guesses), SolveMode.TWO_VALUED)
        if isinstance(ctx, Declaration) or not ctx.movables:
            return None
        improved = heavy >= 2 * light and rng.random() < 0.5
        return ctx, "improved" if improved else "standard", rng

    found = seed = 0
    while found < 200:
        picked = in_regime(loaded_two_valued(seed)[0], seed)
        seed += 1
        if picked is not None:
            found += 1
            yield picked
    for seed in range(60):
        rng = random.Random(10_000 + seed)
        m = rng.randint(8, 40)
        light = rng.randint(1, 6)
        heavy = rng.randint(light + 1, 3 * light + 2)
        inst = generate_two_valued(
            m, rng.randint(m // 4, m // 2), rng.randint(m, 3 * m), heavy, light,
            rng.randint(2, 4), seed,
        )
        picked = in_regime(inst, 10_000 + seed)
        if picked is not None:
            yield picked


class TestAgainstRescanningReference:
    """The cached, frontier-only labeling and the first-hit push search on
    integer thresholds agree with the whole-state rescans on exact rational
    thresholds, before and after random valid pushes."""

    def test_levels_classes_and_pushes(self):
        contexts = pushes = 0
        for ctx, variant, rng in seeded_contexts():
            contexts += 1
            factory = Thresholds.standard if variant == "standard" else Thresholds.improved
            heavy, light = ctx.regime.heavy, ctx.regime.light
            placement = {p.id: rng.choice(ctx.instance.sorted_eligible(p)) for p in ctx.movables}
            state = TwoValuedState(ctx, factory(ctx.t, heavy, light), placement)
            exact = exact_thresholds(ctx.t, heavy, light, variant)
            label_levels(state)
            for _ in range(25):
                fresh = {v: classify_node(v, state) for v in ctx.machine_ids}
                reference = PushState(ctx, state.placement)
                assert state.loads == reference.loads
                assert state.at == reference.at
                assert state.classes == fresh == rescanning_classes(state, exact)
                rebuilt = TwoValuedState(ctx, state.thresholds, state.placement)
                assert state.stuck == rebuilt.stuck
                assert state.levels == rescanning_label_levels(state, exact)
                assert state.potential == potential_value(
                    ctx, reference.at, state.levels
                )
                candidates = rescanning_pushes(state, state.levels, exact)
                if not candidates:
                    assert find_push(state) is None
                    break
                _, u, pid, v = candidates[0]
                assert find_push(state) == PushMove(pid, u, v)
                # any push from the lowest level keeps levels monotone
                _, u, pid, v = rng.choice(
                    [c for c in candidates if c[0] == candidates[0][0]]
                )
                push(state, PushMove(pid, u, v), label_levels)
                pushes += 1
        assert contexts >= 250 and pushes >= 300


# sha256 over solve(...).to_json() of golden_corpus(), as computed by the
# rescanning core on exact rational thresholds
GOLDEN_SHA256 = "886e2c2e3c345cf9f2ad94da1f12550aee99630a43c0d9d19f04156e7b0a1223"
# sha256 over hash_declarations(...) of the same solves, as computed by the
# matching core's second alternating search and relief's residual search,
# with the search probing the regime boundaries before it bisects
GOLDEN_DECLARATIONS_SHA256 = "e75fac619b94ce6c32ae44f114f1ffe8f2beb699dd4d7d02f94b346ebc65cdb8"
# sha256 over the same solves' trace events, one JSON line each as
# `solve --trace` writes them, so key order counts too
GOLDEN_TRACES_SHA256 = "2244c66a21257d1baaf07ab042c8bbecb828a2559713e2c99ecdae320cc4384d"


def golden_corpus():
    for seed in range(200):
        inst, _, _ = loaded_two_valued(seed)
        if regime_or_none(inst, SolveMode.TWO_VALUED) is not None:
            yield inst
    for seed in range(60):
        m = (10, 20, 40, 60, 80)[seed % 5]
        heavy, light = ((7, 3), (9, 2), (10, 6), (12, 5))[seed % 4]
        if seed % 2:
            yield generate_two_valued(m, m + m // 10, m, heavy, light, 3, seed)
        else:
            yield generate_two_valued(m, m * 9 // 20, m * 6 // 5, heavy, light, 2, seed)


def test_golden_two_valued_corpus():
    digest, declared, traced = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for inst in golden_corpus():
        solution = solve(inst, SolveMode.TWO_VALUED)
        digest.update(json.dumps(solution.to_json(), sort_keys=True).encode())
        hash_declarations(declared, inst, solution)
        trace = []
        assert solve(inst, SolveMode.TWO_VALUED, trace=trace) == solution
        traced.update("".join(json.dumps(event) + "\n" for event in trace).encode())
    assert digest.hexdigest() == GOLDEN_SHA256
    assert declared.hexdigest() == GOLDEN_DECLARATIONS_SHA256
    assert traced.hexdigest() == GOLDEN_TRACES_SHA256
