"""Seeded inputs for the three benchmark workloads.

Every instance is built here as a plain JSON document, so that a change to
the program's own generators cannot change what the benchmark measures.
Each function is a pure function of its arguments: the random streams are
seeded with strings, which `random.Random` hashes with SHA-512, so the
inputs do not depend on ``PYTHONHASHSEED`` either.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("general-ladder", "two-valued-mix", "long-paths")

BETAS = (Fraction(4, 7), Fraction(7, 10), Fraction(9, 10))

# General ladder: (m, n, planted triple, copies per beta).  The median solve
# falls inside the largest group, not in a gap between sizes, and most of
# the time goes to many mid-sized cases rather than a few large ones, so
# that the figures of a round move little with the seed.
GENERAL_RUNGS = (
    (20, 30, True, 1), (20, 80, False, 1), (40, 60, True, 1),
    (30, 120, False, 8), (40, 160, False, 1), (50, 200, False, 1),
)
# The top rung of the ladder, once, at beta = 7/10.  A case with m = 100
# swings by 40 % from seed to seed, more than the rest of the ladder added up.
GENERAL_TOP = (80, 120)

# Two-weight mix: (m, shape, regime, copies); "wide" means W >= 2w.  The
# median solve falls inside the m = 200 sparse wide group, the steadiest one.
# Each sparse narrow case leaves Hall-violation certificates whose re-check
# cost varies a lot from case to case, so there are many of them.
TWO_VALUED_RUNGS = (
    *((m, "dense", regime, 2) for m in (100, 200, 400) for regime in ("wide", "narrow")),
    (100, "sparse", "wide", 18),
    (200, "sparse", "wide", 40),
    (400, "sparse", "wide", 1),
    (100, "sparse", "narrow", 36),
)

# Heavy jobs per machine, light jobs per machine and the largest light degree.
TWO_VALUED_SHAPES = {"sparse": (0.45, 0.7, 2), "dense": (1.1, 1.0, 3)}

PATH_LENGTHS = (1000, 1500, 2000, 2500, 3000)
CHAIN_LENGTHS = (300, 600, 900)
# Chains this long overflow the recursion limit of the matching core's
# augmenting-path search.  They do not depend on the seed, so they fail on
# every run and in every round.
FAILING_CHAIN_LENGTHS = (1200, 1500)
FAILING_CHAIN_WEIGHTS = (10, 6)


@dataclass(frozen=True)
class Case:
    """One solve: the instance document and how the benchmark calls solve.

    ``beta`` is set only for cases solved in general mode with an explicit
    threshold; the others run in auto mode.  ``expected_opt`` is the closed-form
    optimum where the construction gives one.
    """

    name: str
    doc: dict
    beta: Fraction | None = None
    expected_opt: int | None = None

    def text(self) -> str:
        return json.dumps(self.doc)


def _doc(machines, jobs) -> dict:
    return {
        "machines": [{"id": mid, "dedicated_load": load} for mid, load in machines],
        "jobs": [
            {"id": jid, "weight": weight, "eligible": list(eligible)}
            for jid, weight, eligible in jobs
        ],
        "mode_hint": "auto",
    }


class _HeavyPairs:
    """Draws machine pairs for heavy jobs, redrawing a pair while it would
    give a component of the heavy-job graph a second cycle.

    Whether a guess meets a multi-cycle component then no longer turns on
    the seed; such a component is only there when a workload plants one.
    """

    def __init__(self, rng: random.Random, ids: list[str]):
        self.rng = rng
        self.ids = ids
        self.root = {v: v for v in ids}
        self.cyclic = {v: False for v in ids}

    def _find(self, v: str) -> str:
        while self.root[v] != v:
            self.root[v] = self.root[self.root[v]]
            v = self.root[v]
        return v

    def plant_cycle(self, pair: list[str]) -> None:
        a, b = self._find(pair[0]), self._find(pair[1])
        self.root[a] = b
        self.cyclic[b] = True

    def draw(self) -> list[str]:
        for _ in range(100):
            pair = self.rng.sample(self.ids, 2)
            a, b = self._find(pair[0]), self._find(pair[1])
            if a == b and not self.cyclic[a]:
                self.cyclic[a] = True
                return pair
            if a != b and not (self.cyclic[a] and self.cyclic[b]):
                self.root[a] = b
                self.cyclic[b] = self.cyclic[a] or self.cyclic[b]
                return pair
        return pair  # every component already holds a cycle


def general_doc(
    rng: random.Random, m: int, n: int, beta: Fraction, w_max: int, triple: bool = False
) -> dict:
    """Arbitrary weights: jobs above beta*w_max sit on exactly two machines.

    Shaped like the program's general generator: the first job weighs
    ``w_max``, a third of the others are heavy, and light jobs have a degree
    drawn uniformly from 2..m.  With *triple*, the first three jobs all weigh
    ``w_max`` and share one machine pair: that component has two cycles, so
    every guess below ``w_max / beta`` is declared infeasible and the binary
    search runs.
    """
    light_max = (beta.numerator * w_max) // beta.denominator
    ids = [f"m{i}" for i in range(m)]
    pairs = _HeavyPairs(rng, ids)
    jobs = []
    for i in range(n):
        if triple and i < 3:
            if i == 0:
                pair = rng.sample(ids, 2)
                pairs.plant_cycle(pair)
            jobs.append((f"j{i}", w_max, pair))
        elif i == 0 or rng.random() < 1 / 3:
            weight = w_max if i == 0 else rng.randint(light_max + 1, w_max)
            jobs.append((f"j{i}", weight, pairs.draw()))
        else:
            weight = rng.randint(1, light_max)
            jobs.append((f"j{i}", weight, rng.sample(ids, rng.randint(2, m))))
    return _doc([(mid, 0) for mid in ids], jobs)


def two_valued_doc(
    rng: random.Random, m: int, n_heavy: int, n_light: int, heavy: int, light: int,
    max_light_degree: int,
) -> dict:
    """Two weights: heavy jobs on two machines, light jobs on 2..max degree.

    Heavy pairs keep every component to at most one cycle while that is
    possible, so only heavy graphs denser than the machine count have
    multi-cycle components.
    """
    ids = [f"m{i}" for i in range(m)]
    pairs = _HeavyPairs(rng, ids)
    jobs = [(f"h{i}", heavy, pairs.draw()) for i in range(n_heavy)]
    jobs += [
        (f"l{i}", light, rng.sample(ids, rng.randint(2, max_light_degree)))
        for i in range(n_light)
    ]
    return _doc([(mid, 0) for mid in ids], jobs)


def two_valued_weights(rng: random.Random, regime: str) -> tuple[int, int]:
    """Heavy and light weight near 1000, with a light/heavy ratio held in a
    narrow band so that the seed does not move the guesses between regimes."""
    heavy = rng.randint(900, 1100)
    if regime == "wide":  # W >= 2w
        return heavy, heavy * rng.randint(35, 40) // 100
    return heavy, heavy * rng.randint(60, 65) // 100  # w < W < 2w


def path_case(rng: random.Random, name: str, k: int, scale: int) -> Case:
    """Adversarial path of k+2 machines joined by k+1 near-maximal edges.

    Shaped like the program's adversarial-path generator.  Machine ids are
    drawn at random and both lists are shuffled, so the seed changes the
    order in which every scan meets the path.  One machine can stay empty;
    any edge on the loaded end costs more than the one folded onto the far
    end, so OPT is ``scale // 4`` plus the edge weight.
    """
    weight = (95 * scale) // 100 + -(-scale // 100)
    labels = rng.sample(range(10 * (k + 2)), k + 2)
    ids = [f"p{x}" for x in labels]
    loads = [scale] + [0] * k + [scale // 4]
    machines = list(zip(ids, loads))
    jobs = [(f"r{i}", weight, [ids[i], ids[i + 1]]) for i in range(k + 1)]
    rng.shuffle(machines)
    rng.shuffle(jobs)
    return Case(name, _doc(machines, jobs), Fraction(7, 10), scale // 4 + weight)


def chain_case(name: str, m: int, heavy: int, light: int) -> Case:
    """Unit-regime chain: heavy jobs on consecutive machine pairs and one
    light job on the first pair, with light < heavy < 2 * light.

    Each machine takes exactly one job, so OPT is the heavy weight, and the
    guess t = heavy lies below 2 * light, where the matching core runs.  The
    light job's id sorts after every heavy one, so it is matched last and its
    augmenting path runs the length of the chain.
    """
    ids = [f"c{i:05d}" for i in range(m)]
    jobs = [(f"h{i:05d}", heavy, [ids[i], ids[i + 1]]) for i in range(m - 1)]
    jobs.append(("l0", light, [ids[0], ids[1]]))
    return Case(name, _doc([(mid, 0) for mid in ids], jobs), None, heavy)


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{part}")


def build(workload: str, seed: int) -> list[Case]:
    """The cases of one round of *workload*, a pure function of the seed."""
    cases = []
    if workload == "general-ladder":
        for m, n, triple, copies in GENERAL_RUNGS:
            for beta in BETAS:
                for copy in range(copies):
                    name = f"general-m{m}-n{n}-b{beta.numerator}_{beta.denominator}"
                    name += f"-triple-{copy}" if triple else f"-{copy}"
                    rng = _rng(workload, seed, name)
                    cases.append(Case(name, general_doc(rng, m, n, beta, 1000, triple)))
        m, n = GENERAL_TOP
        name = f"general-m{m}-n{n}-b7_10"
        cases.append(Case(name, general_doc(_rng(workload, seed, name), m, n, BETAS[1], 1000)))
    elif workload == "two-valued-mix":
        for m, shape, regime, copies in TWO_VALUED_RUNGS:
            heavy_share, light_share, degree = TWO_VALUED_SHAPES[shape]
            for copy in range(copies):
                name = f"two-valued-m{m}-{shape}-{regime}-{copy}"
                rng = _rng(workload, seed, name)
                heavy, light = two_valued_weights(rng, regime)
                doc = two_valued_doc(
                    rng, m, round(heavy_share * m), round(light_share * m), heavy, light,
                    degree,
                )
                cases.append(Case(name, doc))
    elif workload == "long-paths":
        for k in PATH_LENGTHS:
            name = f"path-k{k}"
            rng = _rng(workload, seed, name)
            cases.append(path_case(rng, name, k, rng.randint(100, 100_000)))
        for m in CHAIN_LENGTHS:
            name = f"chain-m{m}"
            rng = _rng(workload, seed, name)
            light = rng.randint(100, 1000)
            cases.append(chain_case(name, m, rng.randint(light + 1, 2 * light - 1), light))
        heavy, light = FAILING_CHAIN_WEIGHTS
        for m in FAILING_CHAIN_LENGTHS:
            cases.append(chain_case(f"chain-m{m}", m, heavy, light))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cases


def side_set(workload: str, seed: int, count: int = 12) -> list[Case]:
    """Small cases in the workload's shape, at most 10 multi-machine jobs each,
    for comparison with a brute-force optimum."""
    cases = []
    for i in range(count):
        rng = _rng(workload, seed, f"side{i}")
        name = f"side{i}"
        if workload == "general-ladder":
            m = rng.randint(3, 5)
            triple = i % 4 == 3
            doc = general_doc(
                rng, m, rng.randint(m + 1, 10), BETAS[i % 3], rng.randint(10, 60), triple
            )
            cases.append(Case(name, doc))
        elif workload == "two-valued-mix":
            m = rng.randint(3, 6)
            heavy, light = two_valued_weights(rng, ("wide", "narrow")[i % 2])
            n_heavy = rng.randint(1, 5)
            doc = two_valued_doc(rng, m, n_heavy, rng.randint(1, 10 - n_heavy), heavy, light, 3)
            cases.append(Case(name, doc))
        elif workload == "long-paths":
            if i % 2 == 0:
                cases.append(path_case(rng, name, rng.randint(1, 8), rng.randint(100, 1000)))
            else:
                light = rng.randint(2, 50)
                heavy = rng.randint(light + 1, 2 * light - 1)
                cases.append(chain_case(name, rng.randint(3, 10), heavy, light))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return cases
