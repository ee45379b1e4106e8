"""Correctness checks made apart from the program.

Everything here reads the benchmark's own instance documents and recomputes
what it needs; nothing imports the program.  The bounds are the paper's
formulas, the optimum of a small instance comes from an exhaustive search
written here, and the closed-form optima come from the workload
constructions.
"""

from __future__ import annotations

from fractions import Fraction

BETA_MIN = Fraction(4, 7)
BRUTE_FORCE_JOBS = 10


def smallest_beta(doc: dict) -> Fraction:
    """Smallest beta in [4/7, 1) such that every job heavier than
    beta * W_max is eligible on at most two machines."""
    w_max = max(job["weight"] for job in doc["jobs"])
    wide = max(
        (job["weight"] for job in doc["jobs"] if len(job["eligible"]) >= 3), default=0
    )
    beta = max(BETA_MIN, Fraction(wide, w_max))
    if beta >= 1:
        raise ValueError("a maximum-weight job has three or more machines")
    return beta


def ratio_bound(doc: dict, beta: Fraction | None = None) -> Fraction:
    """The paper's approximation factor for the instance.

    With an explicit *beta* the instance is solved in general mode at that
    threshold.  Otherwise it is two-valued when the multi-machine jobs have
    exactly two weights and every heavier one has at most two machines:
    3/2, or 1 + floor(W/2)/W when W >= 2w.  Any other instance gets
    5/3 + beta/3 at the smallest admissible beta.
    """
    if beta is not None:
        return Fraction(5, 3) + beta / 3
    multi = [job for job in doc["jobs"] if len(job["eligible"]) >= 2]
    weights = sorted({job["weight"] for job in multi})
    if len(weights) == 2 and all(
        len(job["eligible"]) <= 2 for job in multi if job["weight"] == weights[1]
    ):
        light, heavy = weights
        if heavy >= 2 * light:
            return 1 + Fraction(heavy // 2, heavy)
        return Fraction(3, 2)
    return Fraction(5, 3) + smallest_beta(doc) / 3


def check_solution(
    doc: dict,
    assignment: dict[str, str],
    makespan: int,
    lower_bound: int,
    verdicts: list[str],
    beta: Fraction | None = None,
    expected_opt: int | None = None,
) -> list[str]:
    """Every way the reported solution breaks what the method guarantees."""
    errors = []
    loads = {m["id"]: m["dedicated_load"] for m in doc["machines"]}
    jobs = doc["jobs"]
    if sorted(assignment) != sorted(job["id"] for job in jobs):
        errors.append("the assignment does not hold every job exactly once")
    else:
        for job in jobs:
            machine = assignment[job["id"]]
            if machine not in job["eligible"]:
                errors.append(f"job {job['id']} sits on ineligible machine {machine}")
            else:
                loads[machine] += job["weight"]
        if not errors and max(loads.values()) != makespan:
            errors.append(
                f"reported makespan {makespan} != recomputed {max(loads.values())}"
            )
    bound = ratio_bound(doc, beta)
    if not 0 < lower_bound <= makespan:
        errors.append(f"lower bound {lower_bound} is not in (0, makespan {makespan}]")
    if makespan > bound * lower_bound:
        errors.append(f"makespan {makespan} > {bound} * lower bound {lower_bound}")
    unconfirmed = [v for v in verdicts if v != "confirmed"]
    if unconfirmed:
        errors.append(f"declarations not confirmed: {unconfirmed}")
    if expected_opt is not None and makespan != expected_opt:
        errors.append(f"makespan {makespan} != closed-form optimum {expected_opt}")
    return errors


def check_against_opt(
    doc: dict, makespan: int, lower_bound: int, opt: int, beta: Fraction | None = None
) -> list[str]:
    errors = []
    if lower_bound > opt:
        errors.append(f"lower bound {lower_bound} > brute-force optimum {opt}")
    bound = ratio_bound(doc, beta)
    if makespan > bound * opt:
        errors.append(f"makespan {makespan} > {bound} * optimum {opt}")
    return errors


def brute_force_opt(doc: dict) -> int:
    """Exact minimum makespan by depth-first search over the multi-machine
    jobs, heaviest first, cutting branches that cannot beat the best found."""
    loads = {m["id"]: m["dedicated_load"] for m in doc["machines"]}
    multi = []
    for job in doc["jobs"]:
        if len(job["eligible"]) == 1:
            loads[job["eligible"][0]] += job["weight"]
        else:
            multi.append((job["weight"], sorted(job["eligible"])))
    if len(multi) > BRUTE_FORCE_JOBS:
        raise ValueError(f"{len(multi)} multi-machine jobs exceed {BRUTE_FORCE_JOBS}")
    multi.sort(key=lambda item: -item[0])
    best = sum(w for w, _ in multi) + max(loads.values())

    def search(i: int, span: int) -> None:
        nonlocal best
        if span >= best:
            return
        if i == len(multi):
            best = span
            return
        weight, eligible = multi[i]
        for machine in eligible:
            loads[machine] += weight
            search(i + 1, max(span, loads[machine]))
            loads[machine] -= weight

    search(0, max(loads.values()))
    return best
