"""Oracle-free checks at sizes the exhaustive oracle cannot reach.

Each solve must return a valid assignment within the proven factor of its
lower bound, every declaration behind that bound must re-check as confirmed
without the exhaustive fallback, and equal input must give byte-equal
output.
"""

import json

import pytest

from graphbalance import (
    SolveMode,
    certified_ratio_bound,
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


@pytest.mark.parametrize("shape", sorted(TWO_VALUED_SHAPES))
@pytest.mark.parametrize("m", (300, 500))
def test_two_valued_at_scale(m, shape):
    heavy_rate, light_rate, degree, heavy, light = TWO_VALUED_SHAPES[shape]
    inst = generate_two_valued(
        m, int(heavy_rate * m), int(light_rate * m), heavy, light, degree, m
    )
    report = validate(inst, SolveMode.TWO_VALUED)
    assert report.ok
    solution = solve(inst)
    valid, makespan = verify_solution(inst, solution.assignment)
    assert valid and makespan == solution.makespan
    bound = certified_ratio_bound(
        report.mode, report.beta, report.heavy_weight, report.light_weight
    )
    assert makespan <= bound * solution.lower_bound
    for declaration in solution.declarations:
        assert verify_certificate(inst, declaration, allow_exhaustive=False) == "confirmed"
    again = solve(inst)
    assert json.dumps(again.to_json()) == json.dumps(solution.to_json())
