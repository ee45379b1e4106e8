"""Exact core for guesses where no machine can hold two multi-machine jobs.

When any two remaining job weights sum to more than t, an assignment of
makespan <= t is exactly a perfect matching of jobs to machines that fit
them.  Augmenting-path matching decides this; if some job stays unmatched,
the machines its failed search visited, with their holders and that job, form
a neighborhood-deficient set, which is the infeasibility witness.
"""

from __future__ import annotations

from .errors import InvariantViolation, RegimeError
from .preprocess import Declaration, GuessContext, HALL_VIOLATION


def run_matching(ctx: GuessContext) -> tuple[dict[str, str] | Declaration, int]:
    """Match every job to a fitting machine, or return a deficiency witness.

    Precondition (checked): the two smallest job weights exceed t together,
    so a machine can take at most one job on top of its dedicated load.
    """
    t = ctx.t
    items = ctx.job_items()
    weights = sorted(w for _, w, _ in items)
    if len(weights) >= 2 and weights[0] + weights[1] <= t:
        raise RegimeError(
            "unit-capacity core requires any two job weights to exceed "
            f"t={t}, but {weights[0]} + {weights[1]} <= t"
        )

    fits: dict[str, list[str]] = {
        jid: [v for v in eligible if ctx.dedicated[v] + w <= t]
        for jid, w, eligible in items
    }
    matched_job: dict[str, str] = {}
    matched_machine: dict[str, str] = {}

    def augment(root: str) -> set[str] | None:
        """Depth-first alternating-path search from *root* on an explicit
        stack, trying each job's fitting machines in order and each machine
        at most once, as the recursive search would.  Returns None once
        *root* is matched, else the machines the search visited."""
        seen: set[str] = set()
        stack = [(root, iter(fits[root]))]
        chosen: list[str] = []  # chosen[i]: the machine stack[i] is trying
        while stack:
            for v in stack[-1][1]:
                if v not in seen:
                    break
            else:
                stack.pop()
                if chosen:
                    chosen.pop()
                continue
            seen.add(v)
            chosen.append(v)
            holder = matched_machine.get(v)
            if holder is not None:
                stack.append((holder, iter(fits[holder])))
                continue
            for (jid, _), machine in zip(reversed(stack), reversed(chosen)):
                matched_job[jid] = machine
                matched_machine[machine] = jid
            return None
        return seen

    for jid, _, _ in items:
        neighborhood = augment(jid)
        if neighborhood is not None:
            break
    else:
        ctx.check_loads(matched_job, t)
        return dict(matched_job), 0

    # The failed search visited every machine an alternating path from the
    # unmatched job reaches, each of them matched (König), so those machines'
    # holders and the job outnumber them.
    witness_jobs = {jid, *(matched_machine[v] for v in neighborhood)}
    if len(neighborhood) >= len(witness_jobs):
        raise InvariantViolation("witness jobs do not outnumber their neighborhood")
    witness = ctx.declare(
        HALL_VIOLATION, jobs=sorted(witness_jobs), neighborhood=sorted(neighborhood)
    )
    return witness, 0
