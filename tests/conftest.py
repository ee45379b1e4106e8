"""Shared builders for the test suites.

The random families here are richer than the library generators on purpose:
they mix in dedicated loads, single-machine jobs and parallel edge pairs so
the reduction paths get real traffic.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from graphbalance import (
    EdgeGraph,
    EdgeJob,
    Instance,
    JobSpec,
    MachineSpec,
    SolveMode,
    ValidationError,
    validate,
    verify_certificate,
)


def build(machines, jobs, hint=SolveMode.AUTO) -> Instance:
    """machines: [(id, dedicated_load)], jobs: [(id, weight, [eligible])]."""
    return Instance(
        tuple(MachineSpec(mid, load) for mid, load in machines),
        tuple(JobSpec(jid, w, frozenset(elig)) for jid, w, elig in jobs),
        hint,
    )


# Two jobs e, f of weight 10 on machines a and b (OPT 10), and a payload at
# t = 10 for each declaration kind that carries a mode, naming "auto"
AUTO_MODE_INSTANCE = (
    [("a", 0), ("b", 0)],
    [("e", 10, ["a", "b"]), ("f", 10, ["a", "b"])],
)
AUTO_MODE_DECLARATIONS = {
    "hall_violation": {"jobs": ["e"], "mode": "auto"},
    "dedicated_overflow": {"machine": "a", "mode": "auto"},
    "preflow_height": {"cut": ["a", "b"], "captive_jobs": ["e"], "mode": "auto"},
    "activated_set": {"activated": ["a"], "placement": {}, "pl": {}, "mode": "auto"},
}


def reduced_instance(ctx) -> Instance:
    """A guess context's reduced state as a standalone instance, for
    equivalence checks against the original."""
    machines = tuple(MachineSpec(v, ctx.dedicated[v]) for v in ctx.machine_ids)
    jobs = [JobSpec(p.id, p.weight, p.eligible) for p in ctx.movables]
    jobs += [JobSpec(e.id, e.weight, frozenset((e.u, e.v))) for e in ctx.graph.edges]
    return Instance(machines, tuple(jobs), ctx.regime.mode)


def regime_or_none(instance, mode, beta=None):
    """The regime :func:`validate` returns, or ``None`` where it raises
    :class:`ValidationError`: a filter for seeded families."""
    try:
        return validate(instance, mode, beta)
    except ValidationError:
        return None


def hash_declarations(digest, instance, solution) -> None:
    """Feed every declaration of *solution* into *digest*, each with the
    verdict the oracle gives it without exhaustive search."""
    for declaration in solution.declarations:
        verdict = verify_certificate(instance, declaration, allow_exhaustive=False)
        digest.update(json.dumps([declaration.to_json(), verdict], sort_keys=True).encode())


def assert_push_events(trace: list, pushes: int) -> None:
    """A core's push events count 1, 2, ..., *pushes*, and the potential
    they record (the one before each push) strictly drops."""
    events = [event for event in trace if event["event"] == "push"]
    assert [event["iteration"] for event in events] == list(range(1, pushes + 1))
    potentials = [event["potential"] for event in events]
    assert all(a > b for a, b in zip(potentials, potentials[1:]))


def loaded_two_valued(seed: int) -> tuple[Instance, int, int]:
    """Two-weight instance with dedicated loads and single-machine jobs."""
    rng = random.Random(seed)
    m = rng.randint(2, 5)
    machines = [(f"m{i}", rng.randint(0, 6)) for i in range(m)]
    ids = [mid for mid, _ in machines]
    heavy = rng.randint(4, 16)
    light = rng.randint(1, heavy - 1)
    jobs = []
    for i in range(rng.randint(1, 4)):
        jobs.append((f"h{i}", heavy, rng.sample(ids, 2)))
    for i in range(rng.randint(1, 5)):
        degree = rng.randint(1, m)
        jobs.append((f"l{i}", light, rng.sample(ids, degree)))
    return build(machines, jobs, SolveMode.TWO_VALUED), heavy, light


def loaded_general(seed: int, beta: Fraction) -> Instance:
    """General-mode instance with dedicated loads, singles and heavy pairs."""
    rng = random.Random(seed)
    m = rng.randint(2, 5)
    machines = [(f"m{i}", rng.randint(0, 8)) for i in range(m)]
    ids = [mid for mid, _ in machines]
    w_max = rng.randint(6, 16)
    light_max = int(beta * w_max)
    jobs = [("j0", w_max, rng.sample(ids, 2))]
    for i in range(1, rng.randint(2, 9)):
        if rng.random() < 0.45:
            jobs.append((f"j{i}", rng.randint(light_max + 1, w_max), rng.sample(ids, 2)))
        else:
            degree = rng.randint(1, m)
            jobs.append((f"j{i}", rng.randint(1, max(light_max, 1)), rng.sample(ids, degree)))
    return build(machines, jobs, SolveMode.GENERAL)


def unit_regime(seed: int):
    """Instance plus the guess range [W, 2w) where machines hold one job each."""
    rng = random.Random(seed)
    m = rng.randint(2, 5)
    machines = [(f"m{i}", rng.randint(0, 5)) for i in range(m)]
    ids = [mid for mid, _ in machines]
    light = rng.randint(5, 12)
    heavy = rng.randint(light + 1, 2 * light - 1)
    jobs = []
    for i in range(rng.randint(1, 3)):
        jobs.append((f"h{i}", heavy, rng.sample(ids, 2)))
    for i in range(rng.randint(1, 5)):
        degree = rng.randint(1, m)
        jobs.append((f"l{i}", light, rng.sample(ids, degree)))
    return build(machines, jobs, SolveMode.TWO_VALUED), heavy, light


def tree_and_cycle_graph(rng: random.Random) -> EdgeGraph:
    """Trees, simple cycles of three or more nodes and isolated nodes on up
    to 14 machines, in a graph order that is not name order."""
    nodes = [f"v{i}" for i in range(rng.randint(1, 14))]
    rng.shuffle(nodes)
    edges: list[EdgeJob] = []
    groups, start = [], 0
    while start < len(nodes):
        size = rng.randint(1, 6)
        groups.append(nodes[start:start + size])
        start += size
    for group in groups:
        if len(group) >= 3 and rng.random() < 0.4:
            pairs = zip(group, group[1:] + group[:1])
        else:
            pairs = ((rng.choice(group[:i]), v) for i, v in enumerate(group) if i)
        for u, v in pairs:
            edges.append(EdgeJob(f"e{len(edges)}", u, v, rng.randint(1, 9)))
    return EdgeGraph(tuple(nodes), tuple(edges))


@pytest.fixture
def tiny() -> Instance:
    return build(
        [("m1", 3), ("m2", 0)],
        [("a", 5, ["m1", "m2"]), ("b", 5, ["m1", "m2"])],
    )
