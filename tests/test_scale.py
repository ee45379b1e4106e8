"""Oracle-free checks at sizes the exhaustive oracle cannot reach.

Each solve must return a valid assignment within the proven factor of its
lower bound, every declaration behind that bound must re-check as confirmed
without the exhaustive fallback, and equal input must give byte-equal
output.
"""

import json
from fractions import Fraction

import pytest

from graphbalance import (
    Instance,
    JobSpec,
    MachineSpec,
    SolveMode,
    generate_general,
    generate_two_valued,
    solve,
    validate,
    verify_certificate,
    verify_solution,
)

# (heavy jobs per machine, light jobs per machine, largest light degree,
# heavy weight, light weight)
TWO_VALUED_SHAPES = {
    "sparse-narrow": (0.45, 0.7, 2, 7, 4),   # leaves Hall-violation declarations
    "sparse-wide": (0.45, 0.7, 2, 10, 4),
    "dense-wide": (1.1, 1.0, 3, 10, 4),      # multi-cycle declarations
    "loaded-wide": (0.3, 2.0, 2, 10, 4),     # about 0.4 pushes per machine
}


def check_at_scale(inst, mode=SolveMode.AUTO, beta=None):
    regime = validate(inst, mode, beta)
    solution = solve(inst, mode, beta)
    valid, makespan = verify_solution(inst, solution.assignment)
    assert valid and makespan == solution.makespan
    assert makespan <= regime.bound * solution.lower_bound
    for declaration in solution.declarations:
        assert verify_certificate(inst, declaration, allow_exhaustive=False) == "confirmed"
    again = solve(inst, mode, beta)
    assert json.dumps(again.to_json()) == json.dumps(solution.to_json())
    return solution


@pytest.mark.parametrize("shape", sorted(TWO_VALUED_SHAPES))
@pytest.mark.parametrize("m", (300, 500))
def test_two_valued_at_scale(m, shape):
    heavy_rate, light_rate, degree, heavy, light = TWO_VALUED_SHAPES[shape]
    inst = generate_two_valued(
        m, int(heavy_rate * m), int(light_rate * m), heavy, light, degree, m
    )
    check_at_scale(inst, SolveMode.TWO_VALUED)


def test_unit_chain_of_ten_thousand_machines():
    # heavy jobs on consecutive machine pairs and one light job on the first
    # pair, light < heavy < 2 * light: each machine takes one job, OPT is the
    # heavy weight, and the light job's augmenting path runs the whole chain
    m, heavy, light = 10_000, 7, 5
    ids = [f"c{i:05d}" for i in range(m)]
    jobs = [
        JobSpec(f"h{i:05d}", heavy, frozenset((ids[i], ids[i + 1])))
        for i in range(m - 1)
    ]
    jobs.append(JobSpec("l0", light, frozenset(ids[:2])))
    inst = Instance(tuple(MachineSpec(v, 0) for v in ids), tuple(jobs))
    solution = check_at_scale(inst)
    assert solution.makespan == heavy


@pytest.mark.parametrize(
    "m, beta",
    [
        (100, Fraction(4, 7)),
        (100, Fraction(7, 10)),
        (100, Fraction(9, 10)),
        (150, Fraction(7, 10)),
        (500, Fraction(7, 10)),
    ],
)
def test_general_at_scale(m, beta):
    check_at_scale(generate_general(m, 4 * m, beta, 100, 1), SolveMode.GENERAL, beta)


def test_general_with_edges_at_scale():
    # n = 2m leaves 124 to 255 edge jobs per guess, so the orientation,
    # conflict and kept-labeling machinery all run at m = 500
    beta = Fraction(7, 10)
    check_at_scale(generate_general(500, 1000, beta, 100, 1), SolveMode.GENERAL, beta)


def test_general_pendant_path_at_scale():
    # a 3-cycle of heavy jobs with a 20,000-edge heavy path hanging off it:
    # reducing folds the whole path leaf by leaf, and one light job every 7
    # machines is left for the core
    length, heavy, light, beta = 20_000, 10, 3, Fraction(7, 10)
    ids = [f"m{i:05d}" for i in range(length + 3)]
    jobs = [JobSpec(f"c{i}", heavy, frozenset((ids[i], ids[(i + 1) % 3]))) for i in range(3)]
    jobs += [
        JobSpec(f"h{i:05d}", heavy, frozenset((ids[i], ids[i + 1])))
        for i in range(2, length + 2)
    ]
    jobs += [
        JobSpec(f"l{i:05d}", light, frozenset((ids[i], ids[i + 1])))
        for i in range(0, length + 2, 7)
    ]
    inst = Instance(tuple(MachineSpec(v, 0) for v in ids), tuple(jobs))
    check_at_scale(inst, SolveMode.GENERAL, beta)
