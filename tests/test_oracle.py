"""Exhaustive solver: agreement with raw enumeration, and solution checking.

Certificate verification is covered in test_certificates.py once real
declarations exist to feed it.
"""

import itertools
import random

import pytest

from graphbalance import (
    OracleBudgetError,
    exact_opt,
    feasible_at,
    verify_solution,
)
from graphbalance.oracle import _folded

from conftest import build


def exhaustive_opt(instance):
    """Reference optimum by unpruned enumeration of every assignment.

    Only for very small instances; used to cross-check ``exact_opt``.
    """
    loads, multi = _folded(instance)
    if len(multi) > 8:
        raise OracleBudgetError("exhaustive enumeration is capped at 8 jobs")
    eligibles = [instance.sorted_eligible(job) for job in multi]
    best = None
    for combo in itertools.product(*eligibles) if multi else [()]:
        trial = dict(loads)
        for job, v in zip(multi, combo):
            trial[v] += job.weight
        span = max(trial.values(), default=0)
        if best is None or span < best:
            best = span
    return best if best is not None else max(loads.values(), default=0)


def test_two_jobs_with_dedicated_load(tiny):
    assert exact_opt(tiny) == 8


def test_single_forced_job():
    inst = build([("m1", 0)], [("j", 9, ["m1"])])
    assert exact_opt(inst) == 9


def test_feasibility_threshold(tiny):
    assert feasible_at(tiny, 8)
    assert not feasible_at(tiny, 7)


def test_feasibility_is_monotone(tiny):
    opt = exact_opt(tiny)
    flags = [feasible_at(tiny, t) for t in range(opt - 3, opt + 4)]
    assert flags == sorted(flags)
    assert flags[2] is False and flags[3] is True


@pytest.mark.parametrize("seed", range(150))
def test_agrees_with_pure_enumeration(seed):
    rng = random.Random(seed)
    m = rng.randint(2, 4)
    machines = [(f"m{i}", rng.randint(0, 5)) for i in range(m)]
    ids = [mid for mid, _ in machines]
    jobs = [
        (f"j{i}", rng.randint(1, 9), rng.sample(ids, rng.randint(1, m)))
        for i in range(rng.randint(1, 8))
    ]
    inst = build(machines, jobs)
    assert exact_opt(inst) == exhaustive_opt(inst)


@pytest.mark.parametrize("seed", range(40))
def test_opt_invariant_under_machine_relabeling(seed):
    rng = random.Random(1000 + seed)
    machines = [(f"m{i}", rng.randint(0, 4)) for i in range(4)]
    ids = [mid for mid, _ in machines]
    jobs = [
        (f"j{i}", rng.randint(1, 9), rng.sample(ids, rng.randint(1, 4)))
        for i in range(6)
    ]
    inst = build(machines, jobs)
    renames = dict(zip(ids, rng.sample(ids, len(ids))))
    shuffled = build(
        [(renames[mid], load) for mid, load in machines],
        [(jid, w, [renames[v] for v in elig]) for jid, w, elig in jobs],
    )
    assert exact_opt(inst) == exact_opt(shuffled)


def test_budget_guard():
    machines = [("a", 0), ("b", 0)]
    jobs = [(f"j{i}", 1, ["a", "b"]) for i in range(17)]
    with pytest.raises(OracleBudgetError):
        exact_opt(build(machines, jobs))


class TestVerifySolution:
    def test_valid_assignment(self, tiny):
        valid, makespan = verify_solution(tiny, {"a": "m1", "b": "m2"})
        assert valid and makespan == 8

    def test_missing_job(self, tiny):
        assert verify_solution(tiny, {"a": "m1"}) == (False, 0)

    def test_ineligible_machine(self):
        inst = build([("m1", 0), ("m2", 0)], [("a", 5, ["m1"])])
        assert verify_solution(inst, {"a": "m2"}) == (False, 0)

    def test_extra_job_rejected(self, tiny):
        assert verify_solution(tiny, {"a": "m1", "b": "m2", "c": "m1"}) == (False, 0)

    def test_unknown_job_in_place_of_a_known_one_rejected(self, tiny):
        assert verify_solution(tiny, {"a": "m1", "zz": "m2"}) == (False, 0)
