"""Exact desk-scale solver and certificate verifier.

``feasible_at`` / ``exact_opt`` answer makespan questions by exhaustive
branch-and-bound and are the ground truth every approximation guarantee and
every infeasibility declaration is checked against.  They are deliberately
capped: at most :data:`JOB_BUDGET` multi-machine jobs and
:data:`TIME_LIMIT_S` seconds per call.
"""

from __future__ import annotations

import time
from fractions import Fraction

from .errors import MalformedDeclaration, OracleBudgetError, OracleTimeout
from .instance import BETA_MIN, Instance, SolveMode, format_fraction, parse_fraction
from . import preprocess

JOB_BUDGET = 16
TIME_LIMIT_S = 30.0


def _folded(instance: Instance):
    """Dedicated loads with single-machine jobs folded in, plus the
    remaining multi-machine jobs in instance order."""
    loads = {m.id: m.dedicated_load for m in instance.machines}
    multi = []
    for job in instance.jobs:
        if len(job.eligible) == 1:
            (only,) = job.eligible
            loads[only] += job.weight
        else:
            multi.append(job)
    return loads, multi


def greedy_makespan(instance: Instance) -> int:
    """Makespan of placing the multi-machine jobs heaviest first, each on its
    least-loaded eligible machine: an upper bound on OPT."""
    loads, multi = _folded(instance)
    for job in sorted(multi, key=lambda j: (-j.weight, j.id)):
        best = min(instance.sorted_eligible(job), key=lambda v: loads[v])
        loads[best] += job.weight
    return max(loads.values(), default=0)


def trivial_lower_bound(instance: Instance) -> int:
    """Largest of the heaviest job, the heaviest folded machine load and the
    average load per machine, rounded up: a lower bound on OPT."""
    loads, _ = _folded(instance)
    machines = max(len(instance.machines), 1)
    return max(
        instance.max_weight(),
        max(loads.values(), default=0),
        -(-instance.total_weight() // machines),
    )


def feasible_at(instance: Instance, t: int) -> bool:
    """True iff some assignment has makespan at most ``t``."""
    loads, multi = _folded(instance)
    if len(multi) > JOB_BUDGET:
        raise OracleBudgetError(
            f"{len(multi)} multi-machine jobs exceed the oracle budget of {JOB_BUDGET}"
        )
    if any(v > t for v in loads.values()):
        return False
    multi.sort(key=lambda j: (-j.weight, j.id))  # heaviest first prunes soonest
    order = [(job, instance.sorted_eligible(job)) for job in multi]
    deadline = time.monotonic() + TIME_LIMIT_S
    ticks = 0

    def fits_remaining(start: int) -> bool:
        for job, eligible in order[start:]:
            if all(loads[v] + job.weight > t for v in eligible):
                return False
        return True

    def search(i: int) -> bool:
        nonlocal ticks
        ticks += 1
        if ticks % 4096 == 0 and time.monotonic() > deadline:
            raise OracleTimeout(f"feasibility check at t={t} exceeded {TIME_LIMIT_S}s")
        if i == len(order):
            return True
        if not fits_remaining(i):
            return False
        job, eligible = order[i]
        for v in sorted(eligible, key=lambda v: loads[v]):
            if loads[v] + job.weight > t:
                break  # sorted ascending: nothing later fits either
            loads[v] += job.weight
            if search(i + 1):
                loads[v] -= job.weight
                return True
            loads[v] -= job.weight
        return False

    return search(0)


def exact_opt(instance: Instance) -> int:
    """Exact minimum makespan, by bisection over ``feasible_at``."""
    _, multi = _folded(instance)
    if len(multi) > JOB_BUDGET:
        raise OracleBudgetError(
            f"{len(multi)} multi-machine jobs exceed the oracle budget of {JOB_BUDGET}"
        )
    hi = greedy_makespan(instance)
    lo = trivial_lower_bound(instance)
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible_at(instance, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def verify_solution(instance: Instance, assignment: dict[str, str]):
    """Check that every job is assigned once to an eligible machine.

    Returns ``(valid, makespan)`` with the makespan recomputed from scratch;
    on invalid input the makespan is 0.
    """
    expected = {j.id for j in instance.jobs}
    if set(assignment) != expected:
        return False, 0
    loads = {m.id: m.dedicated_load for m in instance.machines}
    for job in instance.jobs:
        v = assignment[job.id]
        if v not in job.eligible:
            return False, 0
        loads[v] += job.weight
    return True, max(loads.values(), default=0)


# ---------------------------------------------------------------------------
# Certificate verification
# ---------------------------------------------------------------------------

CONFIRMED = "confirmed"
REFUTED = "refuted"
NEEDS_EXHAUSTIVE = "needs_exhaustive"


def _ids(payload: dict, key: str) -> list[str]:
    """``payload[key]`` as a list of ids; any other JSON type is malformed."""
    value = payload.get(key)
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(x, str) for x in value
    ):
        raise MalformedDeclaration(f"payload needs a list of ids in {key!r}")
    return list(value)


def _jobs(instance: Instance, payload: dict, key: str) -> list | None:
    """The jobs ``payload[key]`` names, in its order, or None if it names one
    twice; an unknown id is malformed."""
    ids = _ids(payload, key)
    if len(set(ids)) != len(ids):
        return None
    jobs = {j.id: j for j in instance.jobs}
    for jid in ids:
        if jid not in jobs:
            raise MalformedDeclaration(f"unknown job {jid!r}")
    return [jobs[jid] for jid in ids]


def _payload_mode(payload: dict):
    # a declaration is made at one guess of a resolved mode, never in auto
    if payload.get("mode") not in (SolveMode.TWO_VALUED, SolveMode.GENERAL):
        raise MalformedDeclaration("payload 'mode' must be two_valued or general")
    mode = SolveMode(payload["mode"])
    beta = None
    if mode == SolveMode.GENERAL:
        try:
            beta = parse_fraction(payload["beta"])
        except (KeyError, ValueError) as exc:
            raise MalformedDeclaration(f"payload lacks a valid 'beta': {exc}") from None
        # below 1/2 two edge jobs can share a machine, which the floors exclude
        if not BETA_MIN <= beta < 1:
            raise MalformedDeclaration(
                f"beta {format_fraction(beta)} lies outside [4/7, 1)"
            )
    return mode, beta


def _edge_graph_at(instance: Instance, t: int, mode: SolveMode, beta, left_out):
    """Edge-job graph of the raw instance at guess t (no reductions applied).
    An edge job whose id is in *left_out* keeps its place at weight 0: it
    still takes one end of its edge."""
    multi = [j for j in instance.jobs if len(j.eligible) >= 2]
    edges = []
    if mode == SolveMode.TWO_VALUED:
        heavy = max((j.weight for j in multi), default=0)
        chosen = [j for j in multi if 2 * j.weight > t and j.weight == heavy]
    else:
        chosen = [j for j in multi if Fraction(j.weight) > beta * t]
    for j in chosen:
        if len(j.eligible) != 2:
            raise MalformedDeclaration(
                f"job {j.id!r} is heavy at t={t} but eligible on {len(j.eligible)} machines"
            )
        u, v = instance.sorted_eligible(j)
        edges.append(preprocess.EdgeJob(j.id, u, v, 0 if j.id in left_out else j.weight))
    return preprocess.EdgeGraph(tuple(instance.machine_ids), tuple(edges))


def _load_floors(instance, t, mode, beta, left_out):
    """``floor(subset)``: the least load the machines in *subset* must absorb
    from the jobs outside *left_out* in any makespan<=t assignment, that is,
    folded dedicated loads plus the minimum edge-job load any valid
    orientation sends into the subset.  None means no orientation with at
    most one incoming edge per node exists at all.  Leaving the witness jobs
    out keeps a check from counting them twice.  The raw edge graph and the
    folded loads are built once."""
    out = {j.id for j in left_out}
    graph = _edge_graph_at(instance, t, mode, beta, out)
    base, _ = _folded(instance)
    for job in left_out:
        if len(job.eligible) == 1:
            (only,) = job.eligible
            base[only] -= job.weight

    def floor(subset) -> int | None:
        forced = preprocess.min_edge_load_into(graph, subset)
        return None if forced is None else sum(base[v] for v in subset) + forced

    return floor


def _cut_overfills(instance, t, mode, beta, cut: set) -> bool:
    """True iff the machines in *cut* must take more than t each: their
    floor without the jobs trapped in the cut (eligible only inside it),
    plus those jobs' weight, exceeds ``|cut|*t``.  This one test checks an
    overflowing machine, a flow cut and an activated set alike."""
    trapped = [j for j in instance.jobs if j.eligible <= cut]
    floor = _load_floors(instance, t, mode, beta, trapped)(cut)
    return floor is None or floor + sum(j.weight for j in trapped) > len(cut) * t


def verify_certificate(
    instance: Instance, declaration, allow_exhaustive: bool = True
) -> str:
    """Independently re-check a declaration that OPT >= t+1.

    Every check recounts from the raw instance; nothing trusts solver state
    beyond the ids and the mode the payload names.  Returns one of
    ``confirmed``, ``refuted`` or ``needs_exhaustive``.
    """
    t = declaration.t
    payload = declaration.payload
    kind = declaration.kind

    if kind == preprocess.DEDICATED_OVERFLOW:
        machine = payload.get("machine")
        if not isinstance(machine, str):
            raise MalformedDeclaration("payload needs a machine id in 'machine'")
        if machine not in instance.machine_index:
            raise MalformedDeclaration(f"unknown machine {machine!r}")
        mode, beta = _payload_mode(payload)
        if _cut_overfills(instance, t, mode, beta, {machine}):
            return CONFIRMED
        return REFUTED

    if kind == preprocess.MULTI_CYCLE_COMPONENT:
        nodes = set(_ids(payload, "nodes"))
        edges = _jobs(instance, payload, "edges")
        if edges is None:
            return REFUTED
        for job in edges:
            # two such jobs on one machine exceed t, so each node takes <= 1
            if 2 * job.weight <= t:
                return REFUTED
            if len(job.eligible) != 2 or not job.eligible <= nodes:
                return REFUTED
        if len(edges) > len(nodes):
            return CONFIRMED
        return REFUTED

    if kind == preprocess.HALL_VIOLATION:
        witness = _jobs(instance, payload, "jobs")
        mode, beta = _payload_mode(payload)
        if witness is None:
            return REFUTED
        weights = sorted(j.weight for j in witness)
        if len(weights) >= 2 and weights[0] + weights[1] <= t:
            return REFUTED  # two witness jobs could share a machine
        floor = _load_floors(instance, t, mode, beta, witness)
        room = {v: floor({v}) for v in set().union(*(j.eligible for j in witness))}
        neighborhood = {
            v
            for j in witness
            for v in j.eligible
            if room[v] is not None and room[v] + j.weight <= t
        }
        if len(neighborhood) < len(witness):
            return CONFIRMED
        return REFUTED

    if kind in (preprocess.PREFLOW_HEIGHT, preprocess.ACTIVATED_SET):
        cut = set(_ids(payload, "cut" if kind == preprocess.PREFLOW_HEIGHT else "activated"))
        mode, beta = _payload_mode(payload)
        if not cut <= instance.machine_index.keys():
            return REFUTED
        if _cut_overfills(instance, t, mode, beta, cut):
            return CONFIRMED
        if kind == preprocess.PREFLOW_HEIGHT:
            return REFUTED
        # The cut can be weaker than the per-component argument the
        # two-valued core relies on, so fall through to exhaustive search.
        if allow_exhaustive:
            try:
                return REFUTED if feasible_at(instance, t) else CONFIRMED
            except OracleBudgetError:
                pass
        return NEEDS_EXHAUSTIVE

    raise MalformedDeclaration(f"unknown declaration kind {kind!r}")
