"""Reductions, the edge graph, orientation and the orientation minimum."""

import copy
import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from graphbalance import (
    Declaration,
    EdgeGraph,
    EdgeJob,
    InvariantViolation,
    RegimeError,
    SolveMode,
    ValidationError,
    exact_opt,
    feasible_at,
    generate_adversarial_path,
    generate_general,
    generate_two_valued,
    min_edge_load_into,
    reduce_instance,
)
from graphbalance.general import run_general
from graphbalance.matching import run_matching
from graphbalance.oracle import greedy_makespan, trivial_lower_bound
from graphbalance.preprocess import (
    DEDICATED_OVERFLOW,
    MULTI_CYCLE_COMPONENT,
    Component,
    _away_from,
    _cycle_sequence,
    _prune_to_core,
    orient_components,
)
from graphbalance.relief import run_relief
from graphbalance.two_valued import run_two_valued

from conftest import (
    build,
    loaded_general,
    loaded_two_valued,
    reduced_instance,
    regime_or_none,
    tree_and_cycle_graph,
)


def enumerate_min_into(graph: EdgeGraph, subset) -> int | None:
    """Reference: try all 2^k orientations, keep those with <=1 incoming."""
    best = None
    for directions in itertools.product((0, 1), repeat=len(graph.edges)):
        in_degree = {v: 0 for v in graph.nodes}
        load = 0
        for edge, d in zip(graph.edges, directions):
            head = edge.v if d else edge.u
            in_degree[head] += 1
            if head in subset:
                load += edge.weight
        if all(c <= 1 for c in in_degree.values()):
            best = load if best is None else min(best, load)
    return best


class TestClassification:
    def test_two_valued_thresholds(self):
        inst = build(
            [("a", 0), ("b", 0), ("c", 0)],
            [("h", 10, ["a", "b"]), ("l", 3, ["a", "b", "c"])],
        )
        ctx = reduce_instance(inst, 15, SolveMode.TWO_VALUED)
        assert [e.id for e in ctx.graph.edges] == ["h"]  # 10 > 7.5 and heavy
        assert [p.id for p in ctx.movables] == ["l"]
        ctx = reduce_instance(inst, 20, SolveMode.TWO_VALUED)
        assert ctx.graph.edges == () and len(ctx.movables) == 2  # 10 is not > 10

    def test_general_threshold_boundary(self):
        inst = build(
            [("a", 0), ("b", 0)],
            [("x", 71, ["a", "b"]), ("y", 70, ["a", "b"])],
        )
        ctx = reduce_instance(inst, 100, SolveMode.GENERAL, Fraction(7, 10))
        assert [e.id for e in ctx.graph.edges] == ["x"]
        assert [p.id for p in ctx.movables] == ["y"]


class TestReduce:
    def test_parallel_pair_becomes_movable(self):
        # at t=8 both weights exceed beta*t = 32/7, so both are edge jobs
        inst = build(
            [("u", 0), ("v", 0)],
            [("r1", 7, ["u", "v"]), ("r2", 5, ["u", "v"])],
        )
        ctx = reduce_instance(inst, 8, SolveMode.GENERAL, Fraction(4, 7))
        assert ctx.dedicated == {"u": 5, "v": 5}
        assert len(ctx.movables) == 1
        movable = ctx.movables[0]
        assert movable.weight == 2 and movable.eligible == frozenset({"u", "v"})
        assert not ctx.graph.edges

    def test_heavy_job_on_three_machines_is_refused(self):
        # validate refuses this instance; reduce_instance checks it again
        inst = build(
            [("a", 0), ("b", 0), ("c", 0)],
            [("wide", 10, ["a", "b", "c"]), ("e", 10, ["a", "b"])],
        )
        with pytest.raises(ValidationError, match="'wide' is heavy at t=10"):
            reduce_instance(inst, 10, SolveMode.GENERAL, Fraction(4, 7))

    @pytest.mark.parametrize("mode", [SolveMode.GENERAL, SolveMode.TWO_VALUED])
    def test_beta_outside_the_range_is_refused(self, mode):
        # under beta 1/3 the three jobs are edges on {a, b}, a multi-cycle
        # component at t = 12, although OPT is 10
        inst = build([("a", 0), ("b", 0)], [(j, 5, ["a", "b"]) for j in "efg"])
        assert exact_opt(inst) == 10
        with pytest.raises(ValidationError, match=r"beta must lie in \[4/7, 1\), got 1/3"):
            reduce_instance(inst, 12, mode, Fraction(1, 3))

    def test_general_mode_without_beta_is_refused(self):
        inst = build([("a", 0), ("b", 0)], [("e", 5, ["a", "b"])])
        with pytest.raises(ValidationError, match="requires an explicit beta"):
            reduce_instance(inst, 12, SolveMode.GENERAL)

    def test_equal_parallel_pair_drops_movable(self):
        inst = build(
            [("u", 0), ("v", 0)],
            [("r1", 6, ["u", "v"]), ("r2", 6, ["u", "v"])],
        )
        ctx = reduce_instance(inst, 10, SolveMode.GENERAL, Fraction(4, 7))
        assert ctx.dedicated == {"u": 6, "v": 6}
        assert not ctx.movables
        full = ctx.expand({})
        assert sorted(full) == ["r1", "r2"] and {full["r1"], full["r2"]} == {"u", "v"}

    def test_two_cycles_declared(self):
        nodes = [("a", 0), ("b", 0), ("c", 0), ("d", 0)]
        edges = [
            ("ab", 6, ["a", "b"]), ("bc", 6, ["b", "c"]), ("ca", 6, ["c", "a"]),
            ("cd", 6, ["c", "d"]), ("db", 6, ["d", "b"]),
        ]
        decl = reduce_instance(build(nodes, edges), 10, SolveMode.GENERAL, Fraction(4, 7))
        assert isinstance(decl, Declaration)
        assert decl.kind == MULTI_CYCLE_COMPONENT
        assert len(decl.payload["edges"]) == 5 and len(decl.payload["nodes"]) == 4

    def test_pendant_edge_of_cycle_is_folded(self):
        nodes = [("a", 0), ("b", 0), ("c", 0), ("d", 0)]
        edges = [
            ("ab", 6, ["a", "b"]), ("bc", 6, ["b", "c"]), ("ca", 6, ["c", "a"]),
            ("cd", 6, ["c", "d"]),
        ]
        ctx = reduce_instance(build(nodes, edges), 10, SolveMode.GENERAL, Fraction(4, 7))
        assert ctx.dedicated["d"] == 6
        assert ("cd", "d") in ctx.forced
        comps = ctx.graph.components()
        kinds = sorted(c.kind for c in comps)
        assert kinds == ["cycle", "isolated"]

    def test_dedicated_overflow_declared(self):
        inst = build([("a", 11), ("b", 0)], [("j", 5, ["a", "b"])])
        decl = reduce_instance(inst, 10, SolveMode.GENERAL, Fraction(4, 7))
        assert isinstance(decl, Declaration) and decl.kind == DEDICATED_OVERFLOW
        assert decl.payload["machine"] == "a"

    def test_single_machine_jobs_fold(self):
        inst = build(
            [("a", 1), ("b", 0)],
            [("s", 4, ["a"]), ("j", 5, ["a", "b"])],
        )
        ctx = reduce_instance(inst, 10, SolveMode.GENERAL, Fraction(4, 7))
        assert ctx.dedicated["a"] == 5
        assert ("s", "a") in ctx.forced

    @pytest.mark.parametrize("seed", range(60))
    def test_reduce_is_idempotent(self, seed):
        inst = loaded_general(seed, Fraction(7, 10))
        t = max(inst.max_weight(), inst.total_weight() // 2)
        ctx = reduce_instance(inst, t, SolveMode.GENERAL, Fraction(7, 10))
        if isinstance(ctx, Declaration):
            return
        again = reduce_instance(
            reduced_instance(ctx), t, SolveMode.GENERAL, Fraction(7, 10)
        )
        assert not isinstance(again, Declaration)
        assert again.dedicated == ctx.dedicated
        assert {p.id for p in again.movables} == {p.id for p in ctx.movables}
        assert {e.id for e in again.graph.edges} == {e.id for e in ctx.graph.edges}

    def test_everything_normalized_after_reduce(self):
        for seed in range(80):
            inst = loaded_general(seed, Fraction(7, 10))
            t = inst.max_weight() + seed % 5
            ctx = reduce_instance(inst, t, SolveMode.GENERAL, Fraction(7, 10))
            if isinstance(ctx, Declaration):
                continue
            for comp in ctx.graph.components():
                assert comp.kind in ("isolated", "tree", "cycle")
                assert len(comp.edges) <= len(comp.nodes)
            pairs = [frozenset((e.u, e.v)) for e in ctx.graph.edges]
            assert len(pairs) == len(set(pairs))  # no parallel edges left
            assert all(len(p.eligible) >= 2 for p in ctx.movables)


class TestCheckLoads:
    """The final load check every core makes on its assignment."""

    # loads a 9, b 9, c 1, d 9
    FITS = {"~p1+p2": "a", "l": "c", "e": "d"}

    def context(self):
        # p1/p2 fold into a twin movable on {a, b}; e stays an edge job
        inst = build(
            [("a", 0), ("b", 1), ("c", 0), ("d", 0)],
            [("p1", 9, ["a", "b"]), ("p2", 8, ["a", "b"]), ("e", 9, ["c", "d"]),
             ("l", 1, ["b", "c"])],
        )
        ctx = reduce_instance(inst, 10, SolveMode.GENERAL, Fraction(7, 10))
        assert [tw.movable_id for tw in ctx.twins] == ["~p1+p2"]
        assert [e.id for e in ctx.graph.edges] == ["e"]
        assert ctx.dedicated == {"a": 8, "b": 9, "c": 0, "d": 0}
        return ctx

    def test_passes_at_exactly_the_bound(self):
        self.context().check_loads(self.FITS, 9)

    @pytest.mark.parametrize("job, machine", (("~p1+p2", "b"), ("e", "c")))
    def test_one_over_the_bound_names_the_machine(self, job, machine):
        moved = {**self.FITS, job: machine}
        message = f"machine {machine} finished at load 10"
        with pytest.raises(InvariantViolation, match=message):
            self.context().check_loads(moved, 9)


class TestEquivalence:
    """Reducing must not change feasibility at the guess."""

    @pytest.mark.parametrize("seed", range(120))
    def test_general_mode(self, seed):
        beta = Fraction(7, 10)
        inst = loaded_general(seed, beta)
        base = inst.max_weight()
        for t in (base, base + 2, base + 5):
            original = feasible_at(inst, t)
            reduced = reduce_instance(inst, t, SolveMode.GENERAL, beta)
            if isinstance(reduced, Declaration):
                assert not original
            else:
                assert feasible_at(reduced_instance(reduced), t) == original

    @pytest.mark.parametrize("seed", range(120))
    def test_two_valued_mode(self, seed):
        inst, heavy, light = loaded_two_valued(seed)
        base = inst.max_weight()
        for t in (base, base + 3):
            original = feasible_at(inst, t)
            reduced = reduce_instance(inst, t, SolveMode.TWO_VALUED)
            if isinstance(reduced, Declaration):
                assert not original
            else:
                assert feasible_at(reduced_instance(reduced), t) == original

    @pytest.mark.parametrize("seed", range(40))
    def test_expand_covers_all_jobs(self, seed):
        beta = Fraction(7, 10)
        inst = loaded_general(seed, beta)
        t = inst.total_weight()
        ctx = reduce_instance(inst, t, SolveMode.GENERAL, beta)
        assert not isinstance(ctx, Declaration)
        core = {}
        for p in ctx.movables:
            core[p.id] = ctx.instance.sorted_eligible(p)[0]
        for e in ctx.graph.edges:
            core[e.id] = e.u
        full = ctx.expand(core)
        assert set(full) == {j.id for j in inst.jobs}


class TestMinEdgeLoad:
    def test_path_avoids_middle(self):
        g = EdgeGraph(
            ("u", "v", "w"),
            (EdgeJob("e1", "u", "v", 5), EdgeJob("e2", "v", "w", 5)),
        )
        assert min_edge_load_into(g, {"v"}) == 0

    def test_cycle_forces_one_edge(self):
        g = EdgeGraph(
            ("a", "b", "c"),
            (
                EdgeJob("e1", "a", "b", 5),
                EdgeJob("e2", "b", "c", 5),
                EdgeJob("e3", "c", "a", 5),
            ),
        )
        for node in ("a", "b", "c"):
            assert min_edge_load_into(g, {node}) == 5

    def test_star_center_takes_nothing(self):
        g = EdgeGraph(
            ("c", "x", "y", "z"),
            (
                EdgeJob("e1", "c", "x", 4),
                EdgeJob("e2", "c", "y", 5),
                EdgeJob("e3", "c", "z", 6),
            ),
        )
        # frozen from enumerate_min_into over all 8 orientations
        assert enumerate_min_into(g, {"c"}) == 0
        assert min_edge_load_into(g, {"c"}) == 0

    def test_unknown_node_raises(self):
        g = EdgeGraph(("a", "b"), (EdgeJob("e", "a", "b", 3),))
        with pytest.raises(KeyError) as info:
            min_edge_load_into(g, {"zz", "b", "yy"})
        assert info.value.args == ("unknown nodes in subset: ['yy', 'zz']",)

    def test_multi_cycle_unreachable(self):
        g = EdgeGraph(
            ("a", "b"),
            (
                EdgeJob("e1", "a", "b", 3),
                EdgeJob("e2", "a", "b", 3),
                EdgeJob("e3", "a", "b", 3),
            ),
        )
        assert min_edge_load_into(g, {"a"}) is None

    def test_long_tree_needs_no_recursion(self):
        inst = generate_adversarial_path(1000, 100)
        ctx = reduce_instance(inst, 100, SolveMode.GENERAL, Fraction(7, 10))
        assert [c.kind for c in ctx.graph.components()] == ["tree"]
        assert min_edge_load_into(ctx.graph, {"p1000"}) == 0
        every_edge = sum(e.weight for e in ctx.graph.edges)
        assert min_edge_load_into(ctx.graph, set(ctx.graph.nodes)) == every_edge

    @pytest.mark.parametrize("seed", range(250))
    def test_matches_exhaustive_enumeration(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        nodes = tuple(f"v{i}" for i in range(n))
        k = rng.randint(1, min(10, n + 1))
        edges = []
        for i in range(k):
            u, v = rng.sample(nodes, 2)
            edges.append(EdgeJob(f"e{i}", u, v, rng.randint(1, 9)))
        graph = EdgeGraph(nodes, tuple(edges))
        subset = set(rng.sample(nodes, rng.randint(0, n)))
        assert min_edge_load_into(graph, subset) == enumerate_min_into(graph, subset)


@pytest.mark.parametrize("seed", range(40))
def test_orient_components_roots_trees_and_rotates_cycles(seed):
    """A tree points away from its first preferred node in graph order, or
    its first node; a cycle follows the ``_cycle_sequence`` rotation."""
    rng = random.Random(seed)
    graph = tree_and_cycle_graph(rng)
    nodes, edges = graph.nodes, graph.edges
    preferred = set(rng.sample(nodes, rng.randint(0, len(nodes))))
    head = orient_components(graph, preferred.__contains__)
    assert sorted(head) == sorted(e.id for e in edges)
    into = {v: [e for e in edges if head[e.id] == v] for v in nodes}
    assert all(len(incoming) <= 1 for incoming in into.values())
    for comp in graph.components():
        if comp.kind == "cycle":
            for v, e in _cycle_sequence(graph, comp.nodes, comp.edges):
                assert head[e.id] == e.other(v)
        elif comp.kind == "tree":
            root = next((v for v in comp.nodes if v in preferred), comp.nodes[0])
            assert [v for v in comp.nodes if not into[v]] == [root]


def reference_components(graph: EdgeGraph) -> list[Component]:
    """Reference: a stack walk from every node not yet seen, isolated ones
    included, then each component's nodes sorted by graph order and its
    edges by id."""
    seen: set[str] = set()
    out = []
    for start in graph.nodes:
        if start in seen:
            continue
        stack, nodes, edge_ids, edges = [start], [], set(), []
        seen.add(start)
        while stack:
            v = stack.pop()
            nodes.append(v)
            for e in graph.incident(v):
                if e.id not in edge_ids:
                    edge_ids.add(e.id)
                    edges.append(e)
                w = e.other(v)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        nodes.sort(key=graph.order)
        edges.sort(key=lambda e: e.id)
        n, k = len(nodes), len(edges)
        if k == 0:
            kind = "isolated"
        elif k == n - 1:
            kind = "tree"
        elif k > n:
            kind = "multi_cycle"
        else:
            cyclic = all(len(graph.incident(v)) == 2 for v in nodes)
            kind = "cycle" if cyclic else "one_cycle"
        out.append(Component(tuple(nodes), tuple(edges), kind))
    return out


def random_multigraph(rng: random.Random, lightest: int = 1) -> EdgeGraph:
    """Groups of up to seven nodes, each left bare (isolated nodes), joined
    by a ring (a simple cycle, or a parallel pair on two nodes) or by a
    random tree with zero to three extra edges (trees, parallel pairs,
    one-cycle and multi-cycle components).  Node and edge tuples are
    shuffled, edge ends come in either order, and edge ids do not sort in
    the order the edges are made.  Edge weights lie in [lightest, 9]."""
    nodes = [f"m{i}" for i in range(rng.randint(1, 40))]
    rng.shuffle(nodes)
    ids = [f"e{i}" for i in range(4 * len(nodes))]
    rng.shuffle(ids)
    edges: list[EdgeJob] = []

    def join(u, v):
        if rng.random() < 0.5:
            u, v = v, u
        edges.append(EdgeJob(ids.pop(), u, v, rng.randint(lightest, 9)))

    start = 0
    while start < len(nodes):
        group = nodes[start:start + rng.randint(1, 7)]
        start += len(group)
        shape = rng.choice(("bare", "ring", "tree"))
        if len(group) == 1 or shape == "bare":
            continue
        if shape == "ring":
            for u, v in zip(group, group[1:] + group[:1]):
                join(u, v)
            continue
        for i, v in enumerate(group[1:], 1):
            join(rng.choice(group[:i]), v)
        for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
            join(*rng.sample(group, 2))
    rng.shuffle(edges)
    return EdgeGraph(tuple(nodes), tuple(edges))


def test_components_match_the_reference_walk():
    kinds = set()
    parallel_pairs = 0
    for seed in range(400):
        graph = random_multigraph(random.Random(seed))
        components = graph.components()
        assert components == reference_components(graph), seed
        kinds.update(c.kind for c in components)
        ends = Counter(frozenset((e.u, e.v)) for e in graph.edges)
        parallel_pairs += sum(count >= 2 for count in ends.values())
    assert kinds == {"isolated", "tree", "cycle", "one_cycle", "multi_cycle"}
    assert parallel_pairs > 0


def reference_min_edge_load_into(graph: EdgeGraph, subset) -> int | None:
    """Reference: the floor that tests every component of the graph and
    walks every tree the subset meets, however many of its nodes."""
    subset = set(subset)
    unknown = {v for v in subset if v not in graph.nodes}
    if unknown:
        raise KeyError(f"unknown nodes in subset: {sorted(unknown)}")
    total = 0
    for comp in graph.components():
        if comp.kind == "multi_cycle":
            return None
        if subset.isdisjoint(comp.nodes):
            continue
        if comp.kind in ("cycle", "one_cycle"):
            core_nodes, core_edges, folds = _prune_to_core(graph, comp)
            total += sum(e.weight for e, head in folds if head in subset)
            seq = _cycle_sequence(graph, core_nodes, core_edges)
            total += min(
                sum(e.weight for v, e in seq if e.other(v) in subset),
                sum(e.weight for v, e in seq if v in subset),
            )
        else:  # a tree or a lone node: the cost of each root's orientation
            root = comp.nodes[0]
            walk = _away_from(graph, root)
            cost = {root: sum(e.weight for e, head in walk if head in subset)}
            for e, head in walk:
                tail = e.other(head)
                cost[head] = cost[tail] + e.weight * ((tail in subset) - (head in subset))
            total += min(cost.values())
    return total


def subsets_to_try(rng: random.Random, graph: EdgeGraph):
    """The empty subset, one node, a random share of the nodes of a random
    share of the components, and a random subset of the nodes outside every
    multi-cycle component."""
    components = graph.components()
    yield set()
    yield {rng.choice(graph.nodes)}
    subset = set()
    for comp in components:
        if rng.random() < 0.5:
            subset.update(rng.sample(comp.nodes, rng.randint(1, len(comp.nodes))))
    yield subset
    outside = [
        v for c in components if c.kind != "multi_cycle" for v in c.nodes
    ]
    yield set(rng.sample(outside, rng.randint(0, len(outside))))


def test_min_edge_load_matches_the_every_component_reference():
    """Equal results, None included, on seeded multigraphs with zero-weight
    edges, for subsets that meet no component, one, or several, and meet
    trees and cycles in one node or in more."""
    met_components = Counter()
    met_nodes = Counter()
    disjoint_multi_cycle = zero_weights = 0
    for seed in range(400):
        rng = random.Random(seed)
        graph = random_multigraph(rng, lightest=0)
        zero_weights += sum(e.weight == 0 for e in graph.edges)
        components = graph.components()
        for subset in subsets_to_try(rng, graph):
            got = min_edge_load_into(graph, subset)
            assert got == reference_min_edge_load_into(graph, subset), (seed, subset)
            hits = [(c, len(subset.intersection(c.nodes))) for c in components]
            hits = [(c, count) for c, count in hits if count and c.kind != "isolated"]
            met_components[min(len(hits), 2)] += 1
            met_nodes.update((c.kind, min(count, 2)) for c, count in hits)
            if got is None and all(c.kind != "multi_cycle" for c, _ in hits):
                disjoint_multi_cycle += 1
    assert set(met_components) == {0, 1, 2}
    for kind in ("tree", "cycle", "one_cycle"):
        assert met_nodes[kind, 1] and met_nodes[kind, 2], kind
    assert disjoint_multi_cycle and zero_weights


def memo_corpus():
    """Seeded two-valued and general instances with their mode and beta."""
    for seed in range(60):
        inst, _, _ = loaded_two_valued(seed)
        if regime_or_none(inst, SolveMode.TWO_VALUED) is not None:
            yield inst, SolveMode.TWO_VALUED, None
    for seed in range(60):
        beta = (Fraction(4, 7), Fraction(7, 10), Fraction(9, 10))[seed % 3]
        yield loaded_general(seed, beta), SolveMode.GENERAL, beta
    for seed in range(8):
        m = 12 + 4 * seed
        heavy, light = ((7, 3), (10, 4), (9, 2), (12, 5))[seed % 4]
        yield (
            generate_two_valued(m, m + m // 10, m, heavy, light, 3, seed),
            SolveMode.TWO_VALUED,
            None,
        )
        beta = Fraction(7, 10)
        yield generate_general(m, 4 * m, beta, 40, seed), SolveMode.GENERAL, beta


def reduction_view(reduced):
    """Everything a caller can observe of one reduction result."""
    if isinstance(reduced, Declaration):
        return ("declared", reduced.t, reduced.kind, reduced.payload)
    return (
        "context",
        reduced.t,
        reduced.regime.heavy,
        reduced.regime.light,
        reduced.dedicated,
        reduced.movables,
        reduced.graph.nodes,
        reduced.graph.edges,
        reduced.graph.components(),
        reduced.reduction_events(),
        reduced.forced,
        reduced.twins,
    )


def canonical(reduced) -> str:
    """The reduction view as JSON, independent of set and hash order."""
    view = reduction_view(reduced)
    if view[0] == "context":
        _, t, heavy, light, dedicated, movables, nodes, edges, comps, log, forced, twins = view
        view = (
            "context", t, heavy, light, list(dedicated.items()),
            [(p.id, p.weight, sorted(p.eligible)) for p in movables],
            nodes, [(e.id, e.u, e.v, e.weight) for e in edges],
            [(c.nodes, [e.id for e in c.edges], c.kind) for c in comps],
            log, forced, [vars(tw) for tw in twins],
        )
    return json.dumps(view, sort_keys=True)


def guess_range(inst):
    return range(trivial_lower_bound(inst), greedy_makespan(inst) + 1)


# sha256 over canonical(reduce_instance(...)) of memo_corpus() at every guess,
# as computed by the sequential reduction that rebuilt everything per guess
MEMO_CORPUS_SHA256 = "51e4fd8c7d80d63d611a4affb1eca95572d9e94c891dfbbe808f6490ff4d4643"


class TestMemo:
    """One memo per solve: every guess must reduce exactly as it would alone."""

    def test_memo_matches_memo_free_reduction(self):
        kinds = set()
        several_sets = shared_sets = 0
        for index, (inst, mode, beta) in enumerate(memo_corpus()):
            guesses = list(guess_range(inst))
            shuffled = guesses[:]
            random.Random(index).shuffle(shuffled)
            for order in (guesses, shuffled):
                memo = {}
                for t in order:
                    alone = reduce_instance(inst, t, mode, beta)
                    shared = reduce_instance(inst, t, mode, beta, memo)
                    assert reduction_view(shared) == reduction_view(alone)
                    if isinstance(alone, Declaration):
                        kinds.add(alone.kind)
                edge_sets = len(memo) - 1  # one key holds the solve's basis
                several_sets += edge_sets > 1
                shared_sets += edge_sets < len(order)
        # the corpus reaches both structural declarations, solves with
        # several edge sets and edge sets that serve several guesses
        assert {DEDICATED_OVERFLOW, MULTI_CYCLE_COMPONENT} <= kinds
        assert several_sets > 50 and shared_sets > 150

    def test_memo_free_reductions_are_unchanged(self):
        digest = hashlib.sha256()
        for inst, mode, beta in memo_corpus():
            for t in guess_range(inst):
                digest.update(canonical(reduce_instance(inst, t, mode, beta)).encode())
        assert digest.hexdigest() == MEMO_CORPUS_SHA256

    def test_memo_belongs_to_one_solve(self):
        inst, _, _ = loaded_two_valued(0)
        memo = {}
        t = trivial_lower_bound(inst)
        reduce_instance(inst, t, SolveMode.TWO_VALUED, None, memo)
        with pytest.raises(ValueError):
            reduce_instance(inst, t, SolveMode.GENERAL, Fraction(7, 10), memo)
        other, _, _ = loaded_two_valued(1)
        with pytest.raises(ValueError):
            reduce_instance(other, trivial_lower_bound(other), SolveMode.TWO_VALUED, None, memo)

    def test_cores_leave_memoised_contexts_unchanged(self):
        def reduced_state(entry):
            ctx = entry.context
            if ctx is None:
                return entry.checkpoints, None
            return (entry.checkpoints, ctx.dedicated, ctx.movables, vars(ctx.graph),
                    ctx.reduction_events(), ctx.forced, ctx.twins)

        def cores(ctx):
            yield "matching", lambda: run_matching(ctx)
            yield "relief", lambda: run_relief(ctx)
            yield "general", lambda: run_general(ctx)
            yield "two_valued", lambda: run_two_valued(ctx)

        ran = set()
        for inst, mode, beta in memo_corpus():
            memo = {}
            contexts = [
                reduced
                for t in guess_range(inst)
                if not isinstance(
                    reduced := reduce_instance(inst, t, mode, beta, memo), Declaration
                )
            ]
            entries = {key: entry for key, entry in memo.items() if key != "basis"}
            before = copy.deepcopy(
                {key: reduced_state(entry) for key, entry in entries.items()}
            )
            for ctx in contexts:
                for name, run in cores(ctx):
                    try:
                        result, pushes = run()
                    except RegimeError:
                        continue
                    assert isinstance(result, (dict, Declaration))
                    assert type(pushes) is int
                    ran.add(name)
            after = {key: reduced_state(entry) for key, entry in entries.items()}
            assert after == before
        assert ran == {"matching", "relief", "general", "two_valued"}
