"""Every "no assignment fits under t" claim ships a checkable witness.

This walk produces one declaration of each kind and re-verifies it from the
raw instance, without trusting any solver state.
"""

import json
from fractions import Fraction

from graphbalance import (
    Instance,
    JobSpec,
    MachineSpec,
    SolveMode,
    feasible_at,
    reduce_instance,
    solve,
    verify_certificate,
)


def show(instance, declaration):
    verdict = verify_certificate(instance, declaration)
    print(f"  kind      : {declaration.kind}")
    print(f"  claim     : OPT >= {declaration.t + 1}")
    print(f"  verdict   : {verdict}")
    print(f"  oracle    : feasible_at({declaration.t}) = "
          f"{feasible_at(instance, declaration.t)}")
    print(f"  payload   : {json.dumps(declaration.payload)[:110]}...")


print("=== dedicated overflow ===")
inst = Instance(
    (MachineSpec("a", 0), MachineSpec("b", 0)),
    (
        JobSpec("pin1", 5, frozenset({"a"})),
        JobSpec("pin2", 4, frozenset({"a"})),
        JobSpec("x", 7, frozenset({"a", "b"})),
    ),
)
decl = reduce_instance(inst, 8, SolveMode.GENERAL, Fraction(4, 7))
show(inst, decl)

print("\n=== two cycles in one component ===")
inst = Instance(
    tuple(MachineSpec(v) for v in "abcd"),
    tuple(
        JobSpec(name, 6, frozenset(pair))
        for name, pair in [
            ("ab", "ab"), ("bc", "bc"), ("ca", "ca"), ("cd", "cd"), ("db", "db"),
        ]
    ),
)
decl = reduce_instance(inst, 10, SolveMode.GENERAL, Fraction(4, 7))
show(inst, decl)

print("\n=== neighborhood deficiency (one job per machine regime) ===")
inst = Instance(
    (MachineSpec("a"), MachineSpec("b"), MachineSpec("c")),
    tuple(JobSpec(f"l{i}", 5, frozenset({"a", "b"})) for i in range(3))
    + (JobSpec("h", 9, frozenset({"a", "c"})),),
)
sol = solve(inst)
for d in sol.declarations:
    if d.kind == "hall_violation":
        show(inst, d)
        break
else:
    print(f"  (no deficiency seen; declared kinds: {[d.kind for d in sol.declarations]})")

print("\n=== overloaded activated set (general case) ===")
# two machines, one edge job, three movables: at t=12 every orientation of
# the edge overfills one end, and the activated pair carries too much load
inst = Instance(
    (MachineSpec("m0", 8), MachineSpec("m1", 6)),
    (
        JobSpec("j0", 11, frozenset({"m0", "m1"})),
        JobSpec("j1", 5, frozenset({"m0", "m1"})),
        JobSpec("j2", 4, frozenset({"m0", "m1"})),
        JobSpec("j3", 8, frozenset({"m0", "m1"})),
    ),
)
context = reduce_instance(inst, 12, SolveMode.GENERAL, Fraction(7, 10))
from graphbalance.general import run_general

result, _ = run_general(context)
show(inst, result)

print("\n=== the full search on the same instance ===")
# the initial lower bound (average load) already clears the hard guesses,
# so the search may accept immediately without ever declaring
sol = solve(inst, SolveMode.GENERAL, Fraction(7, 10))
print(f"final makespan {sol.makespan} at t* = {sol.t_star}, lower bound "
      f"{sol.lower_bound}, {len(sol.declarations)} declarations on the way")
