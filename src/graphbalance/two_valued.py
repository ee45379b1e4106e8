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
from functools import partial

from .errors import RegimeError
from .preprocess import Declaration, GuessContext, orient_components
from .push import PushMove, PushState, declaration, first_push, potential_value, push


class NodeClass(IntEnum):
    SAFE = 0      # can absorb an edge job plus one movable
    MIDDLE = 1
    TIGHT = 2     # must not receive an edge job
    OVERFULL = 3  # over the makespan target on its own


@dataclass(frozen=True)
class Thresholds:
    """Load thresholds for one guess, rounded to integers.

    ``standard`` targets 1.5*t; ``improved`` (valid when the heavy weight is
    at least twice the light one) targets t + floor(heavy/2).  Loads and
    weights are integers, so ``x > r`` iff ``x > floor(r)`` and ``x <= r``
    iff ``x <= floor(r)``: flooring the exact target keeps every test exact.
    """

    safe_max: int
    tight_floor: int      # exclusive
    overfull_floor: int   # exclusive; also the final makespan bound
    variant: str

    @staticmethod
    def standard(t: int, heavy: int, light: int) -> "Thresholds":
        base = 3 * t // 2
        return Thresholds(base - heavy - light, base - heavy, base, "standard")

    @staticmethod
    def improved(t: int, heavy: int, light: int) -> "Thresholds":
        base = t + heavy // 2
        return Thresholds(base - heavy - light, base - heavy, base, "improved")


class TwoValuedState(PushState):
    """The push state plus what the labeling reads from it.

    ``classes`` holds every machine's class, ``hot[i]`` the tight-or-worse
    machines of component ``i`` and ``stuck[i]`` its status.  ``move`` keeps
    them current, so nothing is rebuilt between pushes.  ``levels``, the
    push ``sources`` and their ``potential`` are set by ``label_levels``.
    """

    def __init__(self, ctx: GuessContext, thresholds: Thresholds,
                 placement: dict[str, str] | None = None):
        super().__init__(ctx, placement)
        self.thresholds = thresholds
        self.components = ctx.graph.components()
        self.comp_index = {
            v: i for i, comp in enumerate(self.components) for v in comp.nodes
        }
        self.classes = {v: classify_node(v, self) for v in ctx.machine_ids}
        self.hot = [
            {v for v in comp.nodes if self.classes[v] >= NodeClass.TIGHT}
            for comp in self.components
        ]
        self.stuck = [self._stuck_at(i) for i in range(len(self.components))]
        self.sources: list[tuple[str, int]] = []

    def _stuck_at(self, i: int) -> bool:
        return _stuck(self.components[i].kind, [self.classes[v] for v in self.hot[i]])

    def move(self, pid: str, target: str) -> str:
        """Place movable *pid* on *target*; reclassify only the two machines
        it touches and re-derive only their components' status."""
        source = super().move(pid, target)
        for v in (source, target):
            c = classify_node(v, self)
            self.classes[v] = c
            hot = self.hot[self.comp_index[v]]
            if c >= NodeClass.TIGHT:
                hot.add(v)
            else:
                hot.discard(v)
        for i in {self.comp_index[source], self.comp_index[target]}:
            self.stuck[i] = self._stuck_at(i)
        return source


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


def _stuck(kind: str, hot: list[NodeClass]) -> bool:
    """A component is stuck when no orientation can keep it within bound:
    any overfull node, two tight nodes in a tree, or one in a cycle.  *hot*
    holds the classes of its tight-or-worse nodes."""
    if NodeClass.OVERFULL in hot:
        return True
    if kind == "tree":
        return len(hot) >= 2
    if kind == "cycle":
        return len(hot) >= 1
    return False


def label_levels(state: TwoValuedState) -> None:
    """Label machines with the round at which pushes may reach them.

    Level 0: tight-or-worse nodes of stuck components.  Each later round adds
    every machine reachable by a movable from the previous round's machines,
    plus the tight node of any clear tree that round touched.  Unlabeled
    means unreachable.  Earlier rounds reach nothing new, since all they
    reach was labeled in the round after them.  Every machine below the
    top level is a push source, ``(machine, mask of the level above)`` by
    (level, id).
    """
    ctx = state.ctx
    frontier = sorted(
        (
            v
            for i, stuck in enumerate(state.stuck)
            if stuck
            for v in state.hot[i]
        ),
        key=ctx.index,
    )
    levels = dict.fromkeys(frontier, 0)
    sources: list[tuple[str, int]] = []
    level = 0
    while True:
        level += 1
        reachable: set[str] = set()
        for u in frontier:
            for p in state.at[u]:
                reachable |= p.eligible
        reachable.difference_update(levels)
        if not reachable:
            break
        pulled = [
            v
            for i in {state.comp_index[v] for v in reachable}
            if not state.stuck[i]
            for v in state.hot[i]
            if v not in levels and v not in reachable
        ]
        below = frontier
        frontier = sorted(reachable, key=ctx.index) + sorted(pulled, key=ctx.index)
        for v in frontier:
            levels[v] = level
        up = ctx.instance.mask(frontier)
        sources += [(u, up) for u in sorted(below)]
    state.levels, state.sources = levels, sources
    state.potential = potential_value(ctx, state.at, levels)


def _target_accepts(state: TwoValuedState, v: str) -> bool:
    # a push target must be safe, or sit in a clear component that stays
    # clear after gaining one light movable
    if state.classes[v] == NodeClass.SAFE:
        return True
    i = state.comp_index[v]
    if state.stuck[i]:
        return False
    bumped = classify_node(v, state, extra=state.ctx.regime.light or 0)
    hot = [state.classes[x] for x in state.hot[i] if x != v]
    if bumped >= NodeClass.TIGHT:
        hot.append(bumped)
    return not _stuck(state.components[i].kind, hot)


def find_push(state: TwoValuedState) -> PushMove | None:
    """The least ``(level, source, movable, target)`` push: the first
    movable, by (level, source, id), with an accepting target one level up,
    and its least such target."""
    return first_push(state, state.sources, partial(_target_accepts, state))


def _orient_and_assign(state: TwoValuedState) -> dict[str, str]:
    """With no stuck component, orient so every node takes at most one edge
    job: trees rooted at their tight node (if any), cycles rotated from the
    lowest-index node."""
    ctx = state.ctx
    heads = orient_components(
        ctx.graph, lambda v: state.classes[v] >= NodeClass.TIGHT
    )
    assignment = {**state.placement, **heads}
    ctx.check_loads(assignment, state.thresholds.overfull_floor)
    return assignment


def run_two_valued(
    ctx: GuessContext, trace: list | None = None
) -> tuple[dict[str, str] | Declaration, int]:
    """Push until no component is stuck, or declare the guess too low.

    The improved thresholds apply exactly when the heavy weight is at least
    twice the light one.  Returns the result and the number of pushes.
    """
    if not ctx.movables and not ctx.graph.edges:
        return {}, 0
    heavy, light = ctx.regime.heavy, ctx.regime.light
    if heavy is None:
        raise RegimeError("two-valued core needs the heavy/light weights")
    t = ctx.t
    if t >= 2 * heavy:
        raise RegimeError(f"t={t} >= 2*{heavy}: use the relief core")
    if ctx.regime.improved:
        thresholds = Thresholds.improved(t, heavy, light)
    else:
        if ctx.movables and t < 2 * light:
            raise RegimeError(f"t={t} < 2*{light}: use the unit-capacity core")
        thresholds = Thresholds.standard(t, heavy, light)

    state = TwoValuedState(ctx, thresholds)
    label_levels(state)
    while any(state.stuck):
        move = find_push(state)
        if move is None:
            components = [
                {"nodes": list(comp.nodes), "kind": comp.kind, "stuck": stuck}
                for comp, stuck in zip(state.components, state.stuck)
            ]
            found = declaration(
                state, variant=thresholds.variant, components=components
            )
            return found, state.pushes
        push(state, move, label_levels, trace)
    return _orient_and_assign(state), state.pushes
