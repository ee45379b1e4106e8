"""Shared plumbing for the two push-based cores.

Levels are kept as a dict keyed by machine id; a machine absent from the
dict is unlabeled (infinite level).  The progress measure both cores share is

    potential = sum over labeled v of (#machines - level(v)) * (#movables at v)

which must drop by at least one per push, bounding the total number of
pushes by #machines * #movables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvariantViolation
from .preprocess import GuessContext


@dataclass(frozen=True)
class PushMove:
    movable_id: str
    source: str
    target: str


@dataclass
class CoreStats:
    pushes: int = 0
    declared: bool = False
    makespan: int | None = None
    potentials: list[int] = field(default_factory=list)


def initial_placement(ctx: GuessContext) -> dict[str, str]:
    """Every movable starts on its lowest-indexed eligible machine."""
    return {p.id: ctx.sorted_eligible(p)[0] for p in ctx.movables}


def movable_loads(ctx: GuessContext, placement: dict[str, str]) -> dict[str, int]:
    loads = {v: 0 for v in ctx.machine_ids}
    weights = {p.id: p.weight for p in ctx.movables}
    for pid, v in placement.items():
        loads[v] += weights[pid]
    return loads


def movables_by_machine(ctx: GuessContext, placement: dict[str, str]):
    at: dict[str, list] = {v: [] for v in ctx.machine_ids}
    for p in ctx.movables:
        at[placement[p.id]].append(p)
    for bucket in at.values():
        bucket.sort(key=lambda p: p.id)
    return at


def potential_value(
    ctx: GuessContext, at: dict[str, list], levels: dict[str, int]
) -> int:
    """The potential of *levels* with the movables per machine in *at*."""
    n = len(ctx.machine_ids)
    return sum((n - lvl) * len(at[v]) for v, lvl in levels.items())


def check_levels_monotone(
    old: dict[str, int], new: dict[str, int], machines
) -> None:
    """Each machine's level may only rise across a push (absent = infinite)."""
    for v in machines:
        before = old.get(v)
        after = new.get(v)
        if before is None:
            if after is not None:
                raise InvariantViolation(
                    f"level of {v} dropped from unlabeled to {after} across a push"
                )
        elif after is not None and after < before:
            raise InvariantViolation(
                f"level of {v} dropped from {before} to {after} across a push"
            )


def check_push_budget(ctx: GuessContext, pushes: int) -> None:
    cap = len(ctx.machine_ids) * max(len(ctx.movables), 1)
    if pushes > cap:
        raise InvariantViolation(
            f"{pushes} pushes exceed the potential bound {cap}"
        )
