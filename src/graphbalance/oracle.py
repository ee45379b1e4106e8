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


def _id_map(payload: dict, key: str, kind: type) -> dict:
    """``payload[key]`` as a map from ids to *kind* values."""
    value = payload.get(key)
    # type(), not isinstance(): a JSON true would pass as the int 1
    if not isinstance(value, dict) or not all(
        isinstance(k, str) and type(x) is kind for k, x in value.items()
    ):
        raise MalformedDeclaration(
            f"payload needs an object of {kind.__name__} values in {key!r}"
        )
    return dict(value)


def _payload_mode(payload: dict):
    try:
        mode = SolveMode(payload["mode"])
    except (KeyError, ValueError) as exc:
        raise MalformedDeclaration(f"payload lacks a valid 'mode': {exc}") from None
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


def _edge_graph_at(instance: Instance, t: int, mode: SolveMode, beta):
    """Edge-job graph of the raw instance at guess t (no reductions applied)."""
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
        edges.append(preprocess.EdgeJob(j.id, u, v, j.weight))
    return preprocess.EdgeGraph(tuple(instance.machine_ids), tuple(edges))


def _load_floors(instance, t, mode, beta):
    """``floor(subset)``: the least load the machines in *subset* must absorb
    in any makespan<=t assignment, that is, folded dedicated loads plus the
    minimum edge-job load any valid orientation sends into the subset.  None
    means no orientation with at most one incoming edge per node exists at
    all.  The raw edge graph and the folded loads are built once, and each
    subset's floor is computed once."""
    graph = _edge_graph_at(instance, t, mode, beta)
    base, _ = _folded(instance)
    memo: dict[frozenset, int | None] = {}

    def floor(subset) -> int | None:
        key = frozenset(subset)
        if key not in memo:
            forced = preprocess.min_edge_load_into(graph, set(key))
            memo[key] = None if forced is None else sum(base[v] for v in key) + forced
        return memo[key]

    return floor


def verify_certificate(
    instance: Instance, declaration, allow_exhaustive: bool = True
) -> str:
    """Independently re-check a declaration that OPT >= t+1.

    Every check recounts from the raw instance; nothing trusts solver state
    beyond what the payload carries.  Returns one of ``confirmed``,
    ``refuted`` or ``needs_exhaustive``.
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
        floor = _load_floors(instance, t, mode, beta)([machine])
        if floor is None or floor > t:
            return CONFIRMED
        return REFUTED

    if kind == preprocess.MULTI_CYCLE_COMPONENT:
        nodes = set(_ids(payload, "nodes"))
        edge_ids = _ids(payload, "edges")
        if len(set(edge_ids)) != len(edge_ids):
            return REFUTED
        jobs = {j.id: j for j in instance.jobs}
        for eid in edge_ids:
            job = jobs.get(eid)
            if job is None:
                raise MalformedDeclaration(f"unknown job {eid!r}")
            # two such jobs on one machine exceed t, so each node takes <= 1
            if 2 * job.weight <= t:
                return REFUTED
            if len(job.eligible) != 2 or not job.eligible <= nodes:
                return REFUTED
        if len(edge_ids) > len(nodes):
            return CONFIRMED
        return REFUTED

    if kind == preprocess.HALL_VIOLATION:
        job_ids = _ids(payload, "jobs")
        mode, beta = _payload_mode(payload)
        if len(set(job_ids)) != len(job_ids):
            return REFUTED
        jobs = {j.id: j for j in instance.jobs}
        witness = []
        for jid in job_ids:
            if jid not in jobs:
                raise MalformedDeclaration(f"unknown job {jid!r}")
            witness.append(jobs[jid])
        weights = sorted(j.weight for j in witness)
        if len(weights) >= 2 and weights[0] + weights[1] <= t:
            return REFUTED  # two witness jobs could share a machine
        floors = _load_floors(instance, t, mode, beta)
        neighborhood = set()
        for j in witness:
            for v in j.eligible:
                floor = floors([v])
                if floor is not None and floor + j.weight <= t:
                    neighborhood.add(v)
        if len(neighborhood) < len(witness):
            return CONFIRMED
        return REFUTED

    if kind == preprocess.PREFLOW_HEIGHT:
        cut = _ids(payload, "cut")
        captive = _ids(payload, "captive_jobs")
        mode, beta = _payload_mode(payload)
        cut_set = set(cut)
        if len(cut_set) != len(cut) or not cut_set <= set(instance.machine_index):
            return REFUTED
        jobs = {j.id: j for j in instance.jobs}
        total = 0
        seen = set()
        for jid in captive:
            job = jobs.get(jid)
            if job is None:
                raise MalformedDeclaration(f"unknown job {jid!r}")
            if jid in seen:
                return REFUTED
            seen.add(jid)
            if not job.eligible <= cut_set:
                return REFUTED  # not captive: eligibility escapes the cut
            total += job.weight
        floor = _load_floors(instance, t, mode, beta)(cut_set)
        if floor is None or floor + total > len(cut_set) * t:
            return CONFIRMED
        return REFUTED

    if kind == preprocess.ACTIVATED_SET:
        return _verify_activated_set(instance, declaration, allow_exhaustive)

    raise MalformedDeclaration(f"unknown declaration kind {kind!r}")


def _verify_activated_set(instance, declaration, allow_exhaustive: bool) -> str:
    payload = declaration.payload
    t = declaration.t
    mode, beta = _payload_mode(payload)
    activated = _ids(payload, "activated")
    placement = _id_map(payload, "placement", str)
    pl_snapshot = _id_map(payload, "pl", int)

    reduced = preprocess.reduce_instance(instance, t, mode, beta)
    if isinstance(reduced, preprocess.Declaration):
        # preprocessing alone already rules the guess out
        return verify_certificate(instance, reduced, allow_exhaustive)
    ctx = reduced

    active = set(activated)
    if len(active) != len(activated) or not active <= set(ctx.machine_ids):
        return REFUTED
    movables = {p.id: p for p in ctx.movables}
    if set(placement) != set(movables):
        return REFUTED
    pl = {v: 0 for v in ctx.machine_ids}
    for pid, v in placement.items():
        if v not in movables[pid].eligible:
            return REFUTED
        pl[v] += movables[pid].weight
    for v, claimed in pl_snapshot.items():
        if pl.get(v) != claimed:
            return REFUTED
    # movables sitting on the activated set must be trapped inside it
    for pid, v in placement.items():
        if v in active and not movables[pid].eligible <= active:
            return REFUTED

    forced = preprocess.min_edge_load_into(ctx.graph, active)
    if forced is None:
        return CONFIRMED
    lhs = sum(pl[v] + ctx.dedicated[v] for v in active) + forced
    if lhs > len(active) * t:
        return CONFIRMED
    # The summed bound can be weaker than the per-component argument the
    # two-valued core relies on, so fall through to exhaustive search.
    if allow_exhaustive:
        try:
            return REFUTED if feasible_at(instance, t) else CONFIRMED
        except OracleBudgetError:
            pass
    return NEEDS_EXHAUSTIVE
