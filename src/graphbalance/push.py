"""Shared plumbing for the two push-based cores.

Levels are kept as a dict keyed by machine id; a machine absent from the
dict is unlabeled (infinite level).  The progress measure both cores share is

    potential = sum over labeled v of (#machines - level(v)) * (#movables at v)

which must drop by at least one per push, bounding the total number of
pushes by #machines * #movables.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import attrgetter

from .errors import InvariantViolation
from .preprocess import ACTIVATED_SET, Declaration, GuessContext

_by_id = attrgetter("id")


@dataclass(frozen=True)
class PushMove:
    movable_id: str
    source: str
    target: str


class PushState:
    """Where the movables sit, kept current by one ``move``.

    ``placement`` maps each movable to its machine, ``loads`` holds each
    machine's movable weight and ``at`` its movables sorted by id.  Every
    movable starts on its lowest-indexed eligible machine unless *placement*
    says otherwise.  ``levels`` and their ``potential`` are set by the core's
    labeling; ``pushes`` counts the moves.
    """

    def __init__(self, ctx: GuessContext, placement: dict[str, str] | None = None):
        self.ctx = ctx
        self.movable = {p.id: p for p in ctx.movables}
        if placement is None:
            index = ctx.instance.machine_index.__getitem__
            placement = {p.id: min(p.eligible, key=index) for p in ctx.movables}
        self.placement = dict(placement)
        self.loads = dict.fromkeys(ctx.machine_ids, 0)
        self.at: dict[str, list] = {v: [] for v in ctx.machine_ids}
        for p in ctx.movables:
            v = self.placement[p.id]
            self.loads[v] += p.weight
            self.at[v].append(p)
        for bucket in self.at.values():
            bucket.sort(key=_by_id)
        self.levels: dict[str, int] = {}
        self.potential = 0
        self.pushes = 0

    def total(self, v: str) -> int:
        return self.ctx.dedicated[v] + self.loads[v]

    def move(self, pid: str, target: str) -> str:
        """Place movable *pid* on *target*; returns the machine it left."""
        p = self.movable[pid]
        source = self.placement[pid]
        self.placement[pid] = target
        self.loads[source] -= p.weight
        self.loads[target] += p.weight
        bucket = self.at[source]
        del bucket[bisect_left(bucket, pid, key=_by_id)]
        insort(self.at[target], p, key=_by_id)
        self.pushes += 1
        return source


def first_push(state: PushState, sources, accepts) -> PushMove | None:
    """The first push over *sources*, ``(source, mask of the level above)``
    pairs in the order the core searches them.

    Each source's movables are walked by id, and each movable's targets are
    the bits of its mask within the level above, lowest (least id) first.
    ``accepts(v)`` must depend on the target v alone, so a refused target
    stays masked out for the rest of the call.
    """
    names = state.ctx.instance.name_order
    refused = 0
    for u, up in sources:
        for p in state.at[u]:
            hits = p.mask & up & ~refused
            while hits:
                low = hits & -hits
                v = names[low.bit_length() - 1]
                if accepts(v):
                    return PushMove(p.id, u, v)
                refused |= low
                hits ^= low
    return None


def potential_value(
    ctx: GuessContext, at: dict[str, list], levels: dict[str, int]
) -> int:
    """The potential of *levels* with the movables per machine in *at*."""
    n = len(ctx.machine_ids)
    return sum((n - lvl) * len(at[v]) for v, lvl in levels.items())


def declaration(state: PushState, **extra) -> Declaration:
    """The activated-set witness that the guess is too low: the labeled
    machines, their levels and the loads, then the core's own *extra*
    fields."""
    ctx = state.ctx
    return ctx.declare(
        ACTIVATED_SET,
        activated=sorted(state.levels, key=ctx.index),
        levels=dict(sorted(state.levels.items())),
        placement=dict(sorted(state.placement.items())),
        pl=dict(state.loads),
        dedicated=dict(ctx.dedicated),
        **extra,
    )


def push(state: PushState, move: PushMove, relabel, trace: list | None = None):
    """Make *move*, relabel, and hold the rule that bounds the pushes.

    ``relabel(state)`` must set ``state.levels`` and ``state.potential``;
    its result is returned.  No level may drop (a machine labeled now was
    labeled before, no higher; a relabeling that keeps the levels object
    keeps every level), the potential must strictly drop, and the
    pushes must stay within #machines * #movables; a breach means the state
    is corrupt.  The push event goes to *trace* before the relabeling's
    events, with the push's number and the potential before it.
    """
    old_levels, old_potential = state.levels, state.potential
    state.move(move.movable_id, move.target)
    if trace is not None:
        trace.append(
            {
                "event": "push",
                "iteration": state.pushes,
                "movable": move.movable_id,
                "from": move.source,
                "to": move.target,
                "potential": old_potential,
            }
        )
    result = relabel(state)
    if state.levels is not old_levels:
        for v, after in state.levels.items():
            before = old_levels.get(v)
            if before is None or before > after:
                raise InvariantViolation(
                    f"level of {v} dropped from "
                    f"{'unlabeled' if before is None else before} to {after} "
                    "across a push"
                )
    if state.potential >= old_potential:
        raise InvariantViolation(
            f"potential did not drop: {old_potential} -> {state.potential}"
        )
    ctx = state.ctx
    cap = len(ctx.machine_ids) * max(len(ctx.movables), 1)
    if state.pushes > cap:
        raise InvariantViolation(
            f"{state.pushes} pushes exceed the potential bound {cap}"
        )
    return result
