"""Core for instances with two job weights, on guesses below twice the heavy one.

Machines are classified by dedicated-plus-movable load against three
thresholds derived from the guess; components of the edge graph whose
classified nodes cannot all stay within the makespan target are *stuck*.
A breadth-first labeling spreads outward from the stuck nodes through movable
eligibility, and single movables are pushed one level outward until either no
component is stuck (success: orient every component with at most one incoming
edge per node) or no push applies (declaration that the guess is too low).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction

from .errors import InvariantViolation, RegimeError, StaleMoveError
from .preprocess import (
    ACTIVATED_SET,
    Component,
    Declaration,
    GuessContext,
    orient_components,
)
from .push import (
    CoreStats,
    PushMove,
    check_levels_monotone,
    check_push_budget,
    initial_placement,
    movable_loads,
    movables_by_machine,
    potential_value,
)


class NodeClass(IntEnum):
    SAFE = 0      # can absorb an edge job plus one movable
    MIDDLE = 1
    TIGHT = 2     # must not receive an edge job
    OVERFULL = 3  # over the makespan target on its own


@dataclass(frozen=True)
class Thresholds:
    """Exact load thresholds for one guess.

    ``standard`` targets 1.5*t; ``improved`` (valid when the heavy weight is
    at least twice the light one) targets t + floor(heavy/2).
    """

    safe_max: Fraction
    tight_floor: Fraction      # exclusive
    overfull_floor: Fraction   # exclusive
    makespan_bound: Fraction
    variant: str

    @staticmethod
    def standard(t: int, heavy: int, light: int) -> "Thresholds":
        base = Fraction(3 * t, 2)
        return Thresholds(base - heavy - light, base - heavy, base, base, "standard")

    @staticmethod
    def improved(t: int, heavy: int, light: int) -> "Thresholds":
        base = Fraction(t + heavy // 2)
        return Thresholds(base - heavy - light, base - heavy, base, base, "improved")


class TwoValuedState:
    """Mutable solve state: placement, loads, level labels."""

    def __init__(self, ctx: GuessContext, thresholds: Thresholds,
                 placement: dict[str, str] | None = None):
        self.ctx = ctx
        self.thresholds = thresholds
        self.placement = dict(placement) if placement else initial_placement(ctx)
        self.loads = movable_loads(ctx, self.placement)
        self.weights = {p.id: p.weight for p in ctx.movables}
        self.eligible = {p.id: ctx.sorted_eligible(p) for p in ctx.movables}
        self.components = ctx.graph.components()
        self.component_of = {
            v: comp for comp in self.components for v in comp.nodes
        }
        self.levels: dict[str, int] = {}
        self.push_count = 0

    def total(self, v: str) -> int:
        return self.ctx.dedicated[v] + self.loads[v]


def classify_node(v: str, state: TwoValuedState, extra: int = 0) -> NodeClass:
    total = state.total(v) + extra
    th = state.thresholds
    if total > th.overfull_floor:
        return NodeClass.OVERFULL
    if total > th.tight_floor:
        return NodeClass.TIGHT
    if total <= th.safe_max:
        return NodeClass.SAFE
    return NodeClass.MIDDLE


def component_is_stuck(
    comp: Component, state: TwoValuedState, override: dict[str, NodeClass] | None = None
) -> bool:
    """A component is stuck when no orientation can keep it within bound:
    any overfull node, two tight nodes in a tree, or one in a cycle."""
    classes = {
        v: (override or {}).get(v) or classify_node(v, state) for v in comp.nodes
    }
    if any(c == NodeClass.OVERFULL for c in classes.values()):
        return True
    tight = sum(1 for c in classes.values() if c >= NodeClass.TIGHT)
    if comp.kind == "tree":
        return tight >= 2
    if comp.kind == "cycle":
        return tight >= 1
    return False


def label_levels(state: TwoValuedState) -> None:
    """Label machines with the round at which pushes may reach them.

    Level 0: tight-or-worse nodes of stuck components.  Each later round adds
    every machine reachable by a movable from the labeled set, plus the tight
    node of any clear tree that round touched.  Unlabeled means unreachable.
    """
    ctx = state.ctx
    classes = {v: classify_node(v, state) for v in ctx.machine_ids}
    stuck = {id(comp): component_is_stuck(comp, state) for comp in state.components}
    levels = {
        v: 0
        for v in ctx.machine_ids
        if classes[v] >= NodeClass.TIGHT and stuck[id(state.component_of[v])]
    }
    labeled = set(levels)
    at = movables_by_machine(ctx, state.placement)
    level = 0
    while True:
        level += 1
        reachable: set[str] = set()
        for u in labeled:
            for p in at[u]:
                reachable.update(x for x in p.eligible if x not in labeled)
        batch = sorted(reachable, key=ctx.index)
        if not batch:
            break
        pulled = []
        batch_comps = {id(state.component_of[v]) for v in batch}
        for v in ctx.machine_ids:
            comp = state.component_of[v]
            if (
                v not in labeled
                and v not in reachable
                and classes[v] >= NodeClass.TIGHT
                and not stuck[id(comp)]
                and id(comp) in batch_comps
            ):
                pulled.append(v)
        for v in batch + pulled:
            levels[v] = level
            labeled.add(v)
    state.levels = levels


def _target_accepts(state: TwoValuedState, v: str) -> bool:
    # a push target must be safe, or sit in a clear component that stays
    # clear after gaining one light movable
    if classify_node(v, state) == NodeClass.SAFE:
        return True
    comp = state.component_of[v]
    if component_is_stuck(comp, state):
        return False
    light = state.ctx.light_weight or 0
    bumped = {v: classify_node(v, state, extra=light)}
    return not component_is_stuck(comp, state, override=bumped)


def find_push(state: TwoValuedState) -> PushMove | None:
    """Lowest-level source wins; ties break on (source, movable, target) ids."""
    at = movables_by_machine(state.ctx, state.placement)
    best = None
    for u, lvl in state.levels.items():
        if best is not None and lvl > best[0]:
            continue
        for p in at[u]:
            for v in state.eligible[p.id]:
                if v == u or state.levels.get(v) != lvl + 1:
                    continue
                if not _target_accepts(state, v):
                    continue
                key = (lvl, u, p.id, v)
                if best is None or key < best:
                    best = key
    if best is None:
        return None
    _, u, pid, v = best
    return PushMove(pid, u, v)


def apply_push(state: TwoValuedState, move: PushMove) -> None:
    """Relocate the movable and relabel; levels may only rise and the
    potential must strictly drop, else the state is corrupted."""
    if state.placement.get(move.movable_id) != move.source:
        raise StaleMoveError(f"{move.movable_id} is no longer at {move.source}")
    if (
        state.levels.get(move.source) is None
        or state.levels.get(move.target) != state.levels[move.source] + 1
        or not _target_accepts(state, move.target)
    ):
        raise StaleMoveError(f"push {move} no longer satisfies its conditions")
    old_levels = dict(state.levels)
    old_potential = potential_value(state.ctx, state.placement, state.levels)
    w = state.weights[move.movable_id]
    state.placement[move.movable_id] = move.target
    state.loads[move.source] -= w
    state.loads[move.target] += w
    label_levels(state)
    check_levels_monotone(old_levels, state.levels, state.ctx.machine_ids)
    new_potential = potential_value(state.ctx, state.placement, state.levels)
    if new_potential >= old_potential:
        raise InvariantViolation(
            f"potential did not drop: {old_potential} -> {new_potential}"
        )
    state.push_count += 1
    check_push_budget(state.ctx, state.push_count)


def _orient_and_assign(state: TwoValuedState) -> dict[str, str]:
    """With no stuck component, orient so every node takes at most one edge
    job: trees rooted at their tight node (if any), cycles rotated from the
    lowest-index node."""
    ctx = state.ctx

    def root_of(comp: Component) -> str:
        tight = [
            v for v in comp.nodes if classify_node(v, state) >= NodeClass.TIGHT
        ]
        return tight[0] if tight else min(comp.nodes, key=ctx.index)

    heads = orient_components(ctx.graph, root_of)
    assignment = {**state.placement, **heads}
    incoming = {v: 0 for v in ctx.machine_ids}
    for head in heads.values():
        incoming[head] += 1
    bound = state.thresholds.makespan_bound
    edge_weights = {e.id: e.weight for e in ctx.graph.edges}
    final = dict(ctx.dedicated)
    for job, v in assignment.items():
        final[v] += state.weights.get(job) or edge_weights[job]
    for v in ctx.machine_ids:
        if incoming[v] > 1 or final[v] > bound:
            raise InvariantViolation(
                f"machine {v} ended with {incoming[v]} edge jobs and load {final[v]}"
            )
    return assignment


def _declaration(state: TwoValuedState) -> Declaration:
    ctx = state.ctx
    payload = {
        **ctx.mode_payload(),
        "variant": state.thresholds.variant,
        "activated": sorted(state.levels, key=ctx.index),
        "levels": dict(sorted(state.levels.items())),
        "placement": dict(sorted(state.placement.items())),
        "pl": {v: state.loads[v] for v in ctx.machine_ids},
        "dedicated": dict(ctx.dedicated),
        "components": [
            {
                "nodes": list(comp.nodes),
                "kind": comp.kind,
                "stuck": component_is_stuck(comp, state),
            }
            for comp in state.components
        ],
    }
    return Declaration(ctx.t, ACTIVATED_SET, payload)


def run_two_valued(
    ctx: GuessContext, variant: str = "standard", trace: list | None = None
) -> tuple[dict[str, str] | Declaration, CoreStats]:
    """Push until no component is stuck, or declare the guess too low."""
    stats = CoreStats()
    if not ctx.movables and not ctx.graph.edges:
        stats.makespan = max(ctx.dedicated.values(), default=0)
        return {}, stats
    heavy, light = ctx.heavy_weight, ctx.light_weight
    if heavy is None:
        raise RegimeError("two-valued core needs the heavy/light weights")
    t = ctx.t
    if t >= 2 * heavy:
        raise RegimeError(f"t={t} >= 2*{heavy}: use the relief core")
    if variant == "improved":
        if heavy < 2 * light:
            raise RegimeError("improved thresholds require heavy >= 2 * light")
        thresholds = Thresholds.improved(t, heavy, light)
    elif variant == "standard":
        if ctx.movables and t < 2 * light:
            raise RegimeError(f"t={t} < 2*{light}: use the unit-capacity core")
        thresholds = Thresholds.standard(t, heavy, light)
    else:
        raise ValueError(f"unknown variant {variant!r}")

    state = TwoValuedState(ctx, thresholds)
    rounds = 0
    while True:
        label_levels(state)
        if not any(component_is_stuck(c, state) for c in state.components):
            assignment = _orient_and_assign(state)
            stats.pushes = state.push_count
            return assignment, stats
        move = find_push(state)
        if move is None:
            stats.pushes = state.push_count
            stats.declared = True
            return _declaration(state), stats
        potential_before = potential_value(ctx, state.placement, state.levels)
        apply_push(state, move)
        rounds += 1
        stats.potentials.append(potential_before)
        if trace is not None:
            trace.append(
                {
                    "event": "push",
                    "round": rounds,
                    "movable": move.movable_id,
                    "from": move.source,
                    "to": move.target,
                    "potential": potential_value(ctx, state.placement, state.levels),
                }
            )
