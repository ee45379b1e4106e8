"""Search over the guessed makespan, regime dispatch, and reporting.

The search bracket keeps every guess below the current low end declared
infeasible (or equal to the initial provable lower bound) and the high end
accepted.  Before it bisects, the search probes the regime's boundaries
(:meth:`Regime.boundaries`), where the answer usually lies: each boundary b
first, then b - 1 once b is accepted.  Each guess is preprocessed,
dispatched to the regime core, and an accepted assignment is expanded back
to the original jobs and re-verified before it is trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvariantViolation
from .general import run_general
from .instance import Instance, Regime, SolveMode, format_fraction, validate
from .matching import run_matching
from .preprocess import Declaration, GuessContext, reduce_instance
from .relief import run_relief
from .two_valued import run_two_valued
from . import oracle


@dataclass
class Solution:
    assignment: dict[str, str]
    makespan: int
    t_star: int
    lower_bound: int
    ratio_certified: Fraction
    regime: Regime
    declarations: list[Declaration] = field(default_factory=list)
    cores_invoked: int = 0
    pushes: int = 0

    def to_json(self) -> dict:
        return {
            "assignment": dict(sorted(self.assignment.items())),
            "makespan": self.makespan,
            "t_star": self.t_star,
            "lower_bound": self.lower_bound,
            "ratio_certified": format_fraction(self.ratio_certified),
        }


def _dispatch(ctx: GuessContext, trace):
    """The regime's core on *ctx*: ``(assignment or declaration, pushes)``.

    Each core is read as a module global at call time, so a wrapper set on
    this module sees every call."""
    core = ctx.regime.core_at(ctx.t)
    if core == "general":
        return run_general(ctx, trace=trace)
    if core == "relief":
        return run_relief(ctx)
    if core == "matching":
        return run_matching(ctx)
    return run_two_valued(ctx, trace=trace)


def solve(
    instance: Instance,
    mode: SolveMode = SolveMode.AUTO,
    beta: Fraction | None = None,
    trace: list | None = None,
) -> Solution:
    """Find the smallest accepted guess and return its assignment.

    When the trivial lower bound is declared, the search probes each regime
    boundary b in (lower bound, greedy makespan] in ascending order: a
    declared b raises the low end past it, and an accepted b becomes the
    high end and is followed by b - 1, whose declaration settles the search
    at b.  Whatever is left is bisected.  Plain bisection over n candidate
    guesses takes at most ceil(log2 n) + 1 of them; each boundary adds at
    most one guess to that, so the probes cost at most 2 extra guesses in
    two-valued mode and 1 in general mode.

    The certified ratio of the result compares the recomputed makespan with
    the strongest proven lower bound (the largest declared guess plus one, or
    the initial bound when nothing was declared).
    """
    regime = validate(instance, mode, beta)

    lo = oracle.trivial_lower_bound(instance)

    declarations: list[Declaration] = []
    invocations = 0
    pushes = 0
    memo: dict = {}  # reductions per edge set, for this solve only

    def attempt(t: int, probe: bool = False):
        nonlocal invocations, pushes
        invocations += 1
        sub: list | None = [] if trace is not None else None

        def emit(stage: str, events) -> None:
            if trace is not None:
                trace.extend({"t": t, "stage": stage, **event} for event in events)

        probed = {"probe": True} if probe else {}

        reduced = reduce_instance(instance, t, regime.mode, regime.beta, memo)
        if isinstance(reduced, Declaration):
            declarations.append(reduced)
            emit("reduce", [{"op": "declare", "kind": reduced.kind}])
            emit("search", [{"outcome": "declared", **probed}])
            return None
        if trace is not None:
            emit("reduce", reduced.reduction_events())
        result, made = _dispatch(reduced, sub)
        pushes += made
        emit("core", sub)
        if isinstance(result, Declaration):
            declarations.append(result)
            emit("search", [{"outcome": "declared", **probed}])
            return None
        full = reduced.expand(result)
        valid, makespan = oracle.verify_solution(instance, full)
        if not valid:
            raise InvariantViolation(f"core produced an invalid assignment at t={t}")
        if Fraction(makespan) > regime.bound * t:
            raise InvariantViolation(
                f"makespan {makespan} exceeds {format_fraction(regime.bound)} * {t}"
            )
        emit("search", [{"outcome": "accepted", "makespan": makespan, **probed}])
        return full, makespan

    best = attempt(lo)
    t_star = lo
    if best is None:
        # only the search needs an accepted upper end
        low, high = lo + 1, max(lo, oracle.greedy_makespan(instance))
        for b in regime.boundaries(instance.jobs):
            if not low <= b <= high:
                continue
            outcome = attempt(b, probe=True)
            if outcome is None:
                low = b + 1
                continue
            high, best = b, outcome
            if b - 1 >= low:
                outcome = attempt(b - 1, probe=True)
                if outcome is None:
                    low = b
                else:
                    high, best = b - 1, outcome
            break
        while low < high:
            mid = (low + high) // 2
            outcome = attempt(mid)
            if outcome is not None:
                high, best = mid, outcome
            else:
                low = mid + 1
        t_star = low
        if best is None:
            # a probe at the greedy makespan may already have been declared
            best = attempt(t_star) if t_star <= high else None
            if best is None:
                raise InvariantViolation(
                    f"upper guess t={high} was declared infeasible"
                )

    assignment, makespan = best
    lower_bound = lo
    if declarations:
        lower_bound = max(lower_bound, max(d.t for d in declarations) + 1)
    ratio = Fraction(makespan, lower_bound) if lower_bound else Fraction(1)
    return Solution(
        assignment=assignment,
        makespan=makespan,
        t_star=t_star,
        lower_bound=lower_bound,
        ratio_certified=ratio,
        regime=regime,
        declarations=declarations,
        cores_invoked=invocations,
        pushes=pushes,
    )
