"""General-weights core for heavy jobs restricted to two machines.

Edges of the reduced graph are oriented dynamically.  High loads force edges
away from a machine, and those orientations cascade.  If overloaded machines
remain, a conflict set is grown backwards along directed edges (helped by
speculative "fake" orientations pointing away from it), machines inside it
are activated by two threshold rules, and one movable is pushed one level
outward per iteration.  Either all overloads dissolve and the remaining
neutral edges are oriented with at most one extra incoming edge per machine,
or no push applies and the activated set is returned as an infeasibility
witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from heapq import heapify, heappop, heappush

from .errors import InvariantViolation, RegimeError
from .preprocess import (
    Declaration,
    EdgeGraph,
    EdgeJob,
    GuessContext,
    min_edge_load_into,
    orient_components,
)
from .push import PushMove, PushState, declaration, first_push, potential_value, push


@dataclass(frozen=True)
class ThresholdsG:
    """The three bounds, rounded to integers.

    Loads and weights are integers, so ``x > b`` holds iff ``x > floor(b)``
    and ``x < b`` iff ``x < ceil(b)``: each exact rational bound is rounded
    toward the side its comparison excludes, and every test stays exact.
    """

    overload_bound: int   # floor((5/3 + beta/3) t); more than this is overloaded
    push_bound: int       # floor((5/3 - 2 beta/3) t); inclusive push ceiling
    rule2_bound: int      # ceil((2/3 + beta/3) t); lighter edges spread activation

    @staticmethod
    def make(t: int, beta: Fraction) -> "ThresholdsG":
        return ThresholdsG(
            math.floor((Fraction(5, 3) + beta / 3) * t),
            math.floor((Fraction(5, 3) - 2 * beta / 3) * t),
            math.ceil((Fraction(2, 3) + beta / 3) * t),
        )


class Orientation:
    """Mutable edge directions; ``head[e]`` is None while e is neutral, and
    ``log`` lists every ``(edge, head)`` direction in the order made."""

    def __init__(self, graph):
        self.graph = graph
        self.head: dict[str, str | None] = {e.id: None for e in graph.edges}
        self.in_load: dict[str, int] = {v: 0 for v in graph.nodes}
        self.log: list[tuple[EdgeJob, str]] = []

    def direct(self, edge: EdgeJob, head: str) -> None:
        if self.head[edge.id] is not None or head not in (edge.u, edge.v):
            raise InvariantViolation(f"edge {edge.id} cannot be directed to {head}")
        self.head[edge.id] = head
        self.in_load[head] += edge.weight
        self.log.append((edge, head))

    def neutral(self, edge: EdgeJob) -> bool:
        return self.head[edge.id] is None

    def fathers(self, v: str) -> list[tuple[EdgeJob, str]]:
        """Edges at v directed away from it, with the node they point to."""
        out = []
        for e in self.graph.incident(v):
            other = e.other(v)
            if self.head[e.id] == other:
                out.append((e, other))
        return out

    def children(self, v: str) -> list[tuple[EdgeJob, str]]:
        """Edges at v directed into it, with the node they come from."""
        out = []
        for e in self.graph.incident(v):
            if self.head[e.id] == v:
                out.append((e, e.other(v)))
        return out


def _overloaded(ctx, orient, loads, th) -> set[str]:
    return {
        v
        for v in ctx.machine_ids
        if ctx.dedicated[v] + loads[v] + orient.in_load[v] > th.overload_bound
    }


def forced_orientations(
    ctx: GuessContext,
    orient: Orientation,
    loads: dict[str, int],
    th: ThresholdsG,
    heads: tuple[str, ...],
    trace: list | None = None,
) -> None:
    """Cascade every orientation the loads force.

    While some machine cannot absorb an incident neutral edge on top of its
    current load, that edge is directed away, and the propagation continues
    from the freshly marked heads.  Ties follow the (source id, target id)
    order, so the procedure is deterministic and idempotent.

    Loads only rise, and only at the head of a freshly directed edge, so a
    violation appears only when a head is loaded and disappears only when its
    edge is directed.  A scan of *heads*, the machines whose load rose since
    the last fixpoint (every node on a fresh orientation), seeds a heap of
    ``(source, target, edge id)`` violators; each direction rescans just the
    new head into the heap of the current cascade's marked set, which is
    drained before the next seed is popped; a popped entry is stale exactly
    when its edge is no longer neutral.
    """
    bound = th.overload_bound
    head, in_load = orient.head, orient.in_load
    edge_of: dict[str, EdgeJob] = {}

    def violations(v: str) -> list[tuple[str, str, str]]:
        room = bound - ctx.dedicated[v] - loads[v] - in_load[v]
        found = []
        for e in ctx.graph.incident(v):
            if e.weight > room and head[e.id] is None:
                edge_of[e.id] = e
                found.append((v, e.v if v == e.u else e.u, e.id))
        return found

    def pop(heap):
        while heap:
            v, u, eid = heappop(heap)
            if head[eid] is None:
                return v, u, edge_of[eid]
        return None

    def direct(v: str, u: str, e: EdgeJob, marked: list) -> None:
        orient.direct(e, u)
        if trace is not None:
            trace.append({"event": "forced", "edge": e.id, "from": v, "to": u})
        for item in violations(u):
            heappush(marked, item)

    pending = [item for v in heads for item in violations(v)]
    heapify(pending)
    while (hit := pop(pending)) is not None:
        marked: list[tuple[str, str, str]] = []
        direct(*hit, marked)
        while (hit := pop(marked)) is not None:
            direct(*hit, marked)


@dataclass
class ExploreResult:
    orientation: Orientation
    levels: dict[str, int]
    conflict: set[str]
    round_activated: list[list[str]] = field(default_factory=list)
    round_conflict: list[set[str]] = field(default_factory=list)
    # the mask of each level's machines
    targets: list[int] = field(default_factory=list)
    # set by the first push search on this labeling, and kept with it:
    # (source, mask of the level above) for every machine below the top
    # level, by id
    sources: list[tuple[str, int]] | None = None
    # the events this labeling's explore wrote, untagged, when traced
    events: list[dict] | None = None
    # each directed edge's index in orientation.log, built when first needed
    positions: dict[str, int] | None = None


def _reach(movables) -> int:
    """The mask of every machine some of *movables* may use."""
    mask = 0
    for p in movables:
        mask |= p.mask
    return mask


def explore(
    ctx: GuessContext,
    state: PushState,
    th: ThresholdsG,
    fake_picker=None,
    traced: bool = False,
) -> ExploreResult:
    """Orient, grow the conflict set, and activate machines round by round.

    Round 0 starts from the machines still overloaded after the initial
    cascade; each later round starts from the machines reachable by a movable
    from the previous round.  Within a round, the conflict set absorbs every
    machine with a directed path into it, alternating with single fake
    orientations away from it, until neither applies; then the two activation
    rules run to a fixpoint.  The fake-orientation order (pluggable through
    *fake_picker*) does not affect the conflict sets or any edge outside them.
    Loads and movables are read from *state*.  When *traced*, the events go
    to the result's ``events``, without an ``iteration``.

    Each round touches only what changed.  The machines a round reaches are
    the OR of the eligibility masks of the movables on the previous round's
    activated machines, minus the labeled ones.  Edges are directed once
    and the conflict set only grows, so a machine's incident edges are
    scanned once, when it joins: each neutral one becomes a fake candidate
    (popped lazily once directed), each one pointing into it makes its tail
    absorbable.  After a fake and its cascade, only the new entries of
    ``orientation.log`` can point into the conflict set or overload a head.
    Rule 1 does not depend on the levels, so after the first activation pass
    rule 2 can only fire across a light directed edge from a machine the
    previous pass activated.
    """
    ml, at = state.loads, state.at
    graph, index = ctx.graph, ctx.index
    rank, names = ctx.instance.name_rank, ctx.instance.name_order
    orient = Orientation(graph)
    head, in_load = orient.head, orient.in_load
    events: list[dict] | None = [] if traced else None
    forced_orientations(ctx, orient, ml, th, graph.nodes, events)
    overloaded0 = _overloaded(ctx, orient, ml, th)

    levels: dict[str, int] = {}
    conflict: set[str] = set()
    result = ExploreResult(orient, levels, conflict, events=events)
    labeled = 0  # the mask of every labeled machine
    # (tail in the conflict set, head, edge id, edge); stale once the edge
    # is directed.  A reduced graph has no parallel edges, so (tail, head)
    # already decides the order.
    fakes: list[tuple[str, str, str, EdgeJob]] = []
    absorbable: set[str] = set()  # tails of edges directed into the conflict set

    def join(v: str, conflict_now: set[str]) -> None:
        conflict.add(v)
        conflict_now.add(v)
        for e in graph.incident(v):
            h = head[e.id]
            if h is None:
                heappush(fakes, (v, e.other(v), e.id, e))
            elif h == v:
                absorbable.add(e.other(v))

    round_no = 0
    batch = sorted(overloaded0, key=index)
    while batch:
        conflict_now: set[str] = set()
        for v in batch:
            levels[v] = round_no
            join(v, conflict_now)
        activated_now = list(batch)

        while True:
            while absorbable:
                wave = sorted(absorbable - conflict, key=index)
                absorbable.clear()
                for v in wave:
                    join(v, conflict_now)
                    if events is not None:
                        events.append({"event": "absorb", "machine": v})
            while fakes and head[fakes[0][3].id] is not None:
                heappop(fakes)
            if not fakes:
                break
            if fake_picker:
                v, u, e = fake_picker(
                    [(v, u, e) for v, u, _, e in sorted(fakes) if head[e.id] is None]
                )
            else:
                v, u, _, e = fakes[0]
            mark = len(orient.log)
            orient.direct(e, u)
            if events is not None:
                events.append({"event": "fake", "edge": e.id, "from": v, "to": u})
            forced_orientations(ctx, orient, ml, th, (u,), events)
            risen = set()
            for d, h in orient.log[mark:]:
                if h in conflict and d.other(h) not in conflict:
                    absorbable.add(d.other(h))
                if (
                    h not in overloaded0
                    and ctx.dedicated[h] + ml[h] + in_load[h] > th.overload_bound
                ):
                    risen.add(h)
            if risen:
                raise InvariantViolation(
                    f"machines became overloaded after the initial cascade: "
                    f"{sorted(risen)}"
                )

        extra = []
        for v in sorted(conflict - levels.keys(), key=index):
            rule1 = any(
                ctx.dedicated[v] + ml[v] + e.weight > th.overload_bound
                for e, u in orient.fathers(v)
                if u in conflict
            )
            if rule1 or any(
                u in levels and e.weight < th.rule2_bound
                for e, u in orient.fathers(v) + orient.children(v)
            ):
                extra.append((v, "activate_r1" if rule1 else "activate_r2"))
        while extra:
            for v, event in extra:
                levels[v] = round_no
                activated_now.append(v)
                if events is not None:
                    events.append({"event": event, "machine": v})
            spread = {
                e.other(w)
                for w, _ in extra
                for e in graph.incident(w)
                if head[e.id] is not None
                and e.weight < th.rule2_bound
                and e.other(w) in conflict
                and e.other(w) not in levels
            }
            extra = [(v, "activate_r2") for v in sorted(spread, key=index)]

        # every edge leaving the conflict set must point outward by now;
        # only the edges at this round's new members can have changed
        outward = [
            e.id
            for v in conflict_now
            for e in graph.incident(v)
            if e.other(v) not in conflict and head[e.id] != e.other(v)
        ]
        if outward:
            raise InvariantViolation(
                f"edge {min(outward)} leaves the conflict set "
                "but is not directed outward"
            )

        result.round_activated.append(activated_now)
        result.round_conflict.append(conflict_now)
        round_no += 1
        mask = reach = 0
        for u in activated_now:
            mask |= 1 << rank[u]
            for p in at[u]:
                reach |= p.mask
        result.targets.append(mask)
        labeled |= mask
        reach &= ~labeled
        batch = []
        while reach:
            low = reach & -reach
            batch.append(names[low.bit_length() - 1])
            reach ^= low
        batch.sort(key=index)

    return result


def find_push_general(
    ctx: GuessContext,
    state: PushState,
    result: ExploreResult,
    th: ThresholdsG,
) -> PushMove | None:
    """The lexicographically least ``(source, movable, target)`` push: a
    movable one level up whose target stays safely below the push ceiling,
    both on current load and against every father edge unless the target is
    a conflict-set leaf.

    *result* must come from ``explore`` on *state*.  Sources are walked in
    id order through ``first_push``, so the first hit is the least.
    """
    orient = result.orientation
    ml = state.loads
    bound = th.push_bound
    if result.sources is None:
        targets, top = result.targets, len(result.targets) - 1
        result.sources = [
            (u, targets[lvl + 1]) for u, lvl in sorted(result.levels.items()) if lvl < top
        ]

    def accepts(v: str) -> bool:
        base = ctx.dedicated[v] + ml[v]
        if base + orient.in_load[v] > bound:
            return False
        if any(x in result.conflict for _, x in orient.children(v)):
            return not any(
                base + e.weight > bound
                for e, x in orient.fathers(v)
                if x in result.conflict
            )
        return True

    return first_push(state, result.sources, accepts)


def _keeps_labels(
    ctx: GuessContext,
    state: PushState,
    result: ExploreResult,
    move: PushMove,
    th: ThresholdsG,
    reach: dict[str, int],
) -> bool:
    """Whether ``explore`` on *state*, just after *move*, would return
    *result* again.

    Moving p from u (level l) to v (level l+1) changes the loads and the
    movables of u and v alone.  ``explore`` reads loads in four places, and
    the labeling is kept when each answers as before at the new loads:
    - every forced-cascade scan of u or v finds the same violators
      (``_scans_agree``);
    - the level-0 overload set: u, if overloaded after the initial cascade,
      stays so.  Its final in-load is its in-load then, since an overloaded
      machine's scan forces every neutral edge at it away;
    - the check that no machine rises above the bound after a fake: v stays
      within it even with its final in-load.  A push the core makes keeps
      this, as its target ends within the push ceiling plus beta t;
    - rule 1, whose test of an edge e at x is the test x's first scan makes
      of e, at in-load 0 with every edge neutral: the scans cover it.
    Its reach rounds read the movables, and keep levels 1 to l, whose
    movables stay put, and every level above l+1, since each machine p may
    use is labeled l+1 or lower.  Level l+1 is kept iff the movables left on
    level l still reach every machine of it that p reaches.  *reach* maps
    each machine to the mask of its movables' machines, after the move.
    """
    u, v = move.source, move.target
    p = state.movable[move.movable_id]
    level = result.levels[u]
    lost = p.mask & result.targets[level + 1]
    for w in result.round_activated[level]:
        if not lost:
            break
        lost &= ~reach[w]
    if lost:
        return False
    bound, in_load = th.overload_bound, result.orientation.in_load
    total_u, total_v = state.total(u), state.total(v)
    if total_v + in_load[v] > bound:
        return False
    if total_u + in_load[u] <= bound < total_u + p.weight + in_load[u]:
        return False
    # each machine's room at in-load 0, at the loads before and after
    return _scans_agree(
        ctx, result, u, bound - total_u - p.weight, bound - total_u
    ) and _scans_agree(ctx, result, v, bound - total_v, bound - total_v + p.weight)


def _scans_agree(
    ctx: GuessContext, result: ExploreResult, x: str, low: int, high: int
) -> bool:
    """Whether every forced-cascade scan of x in *result*'s ``explore``
    finds the same violators when x's room at in-load 0 is *low* as when it
    is *high*.

    ``explore`` scans x once at in-load 0 and again after every entry of
    ``orientation.log`` whose head is x, and finds the edges still neutral
    there that weigh more than x's room, which is its room at in-load 0
    minus its in-load.  So a scan's answer differs iff one of those edges
    weighs more than the lower room and at most the higher.
    """
    edges = ctx.graph.incident(x)
    if not edges:
        return True
    orient = result.orientation
    if result.positions is None:
        result.positions = {e.id: i for i, (e, _) in enumerate(orient.log)}
    position = result.positions
    never = len(position)
    edges = sorted(edges, key=lambda e: position.get(e.id, never))
    scans = [(0, 0)]  # (in-load, index in edges of the first still neutral)
    in_load = 0
    for i, e in enumerate(edges):
        if orient.head[e.id] == x:
            in_load += e.weight
            scans.append((in_load, i + 1))
    return not any(
        low < e.weight + in_load <= high for in_load, i in scans for e in edges[i:]
    )


def _complete_orientation(ctx: GuessContext, orient: Orientation):
    """Direct the leftover neutral edges, at most one more per machine.

    Each tree of neutral edges points away from its lowest-index node that
    already has an incoming edge, or from its lowest-index node.  The neutral
    graph holds only the ends of neutral edges, so the work is linear in
    those edges."""
    edges = {e.id: e for e in ctx.graph.edges if orient.neutral(e)}
    ends = {v for e in edges.values() for v in (e.u, e.v)}
    neutral = EdgeGraph(tuple(sorted(ends, key=ctx.graph.order)), tuple(edges.values()))
    heads = orient_components(neutral, lambda x: orient.in_load[x] > 0)
    for eid, head in heads.items():
        orient.direct(edges[eid], head)
    if len(set(heads.values())) < len(heads):
        raise InvariantViolation("a machine received two extra edge jobs")


def run_general(
    ctx: GuessContext, trace: list | None = None
) -> tuple[dict[str, str] | Declaration, int]:
    """Iterate explore + push; returns the result and the number of pushes.

    A push that provably leaves the labeling as it was keeps it (see
    ``_keeps_labels``) and writes its explore's trace events again; every
    other push restarts ``explore`` from a fresh orientation."""
    if ctx.regime.core_at(ctx.t) != "general":
        raise RegimeError("general core requires a general-mode context")
    th = ThresholdsG.make(ctx.t, ctx.regime.beta)
    state = PushState(ctx)
    reach: dict[str, int] | None = None  # built at the first push

    def relabel(
        state: PushState,
        move: PushMove | None = None,
        before: ExploreResult | None = None,
    ) -> ExploreResult:
        nonlocal reach
        kept = False
        if move is not None:
            if reach is None:
                reach = {v: _reach(at) for v, at in state.at.items()}
            else:
                reach[move.source] = _reach(state.at[move.source])
                reach[move.target] |= state.movable[move.movable_id].mask
            kept = _keeps_labels(ctx, state, before, move, th, reach)
        if kept:
            state.potential -= 1  # p rose one level, nothing else moved
            result = before
        else:
            result = explore(ctx, state, th, traced=trace is not None)
            state.levels = result.levels
            state.potential = potential_value(ctx, state.at, result.levels)
        if trace is not None:
            trace.extend({**event, "iteration": state.pushes + 1} for event in result.events)
        return result

    result = relabel(state)
    while result.levels:
        move = find_push_general(ctx, state, result, th)
        if move is None:
            conflict = sorted(result.conflict, key=ctx.index)
            forced = min_edge_load_into(ctx.graph, result.levels.keys())
            found = declaration(state, conflict=conflict, min_edge_load=forced)
            return found, state.pushes
        result = push(state, move, partial(relabel, move=move, before=result), trace)
    return _finish(ctx, state, result, th), state.pushes


def _finish(ctx, state, result, th) -> dict[str, str]:
    _complete_orientation(ctx, result.orientation)
    assignment = dict(state.placement)
    for e in ctx.graph.edges:
        head = result.orientation.head[e.id]
        if head is None:
            raise InvariantViolation(f"edge {e.id} left neutral")
        assignment[e.id] = head
    ctx.check_loads(assignment, th.overload_bound)
    return assignment
