"""Watch load pressure force edge orientations along a path of machines.

The path family: k+2 machines in a row, joined by k+1 edge jobs of weight
just under the guess.  The first machine is fully loaded, so its edge cannot
point back at it -- and that decision cascades down the whole path.
"""

from fractions import Fraction

from graphbalance import generate_adversarial_path, reduce_instance, solve, SolveMode
from graphbalance.general import Orientation, ThresholdsG, forced_orientations
from graphbalance.push import PushState

BETA = Fraction(7, 10)

instance = generate_adversarial_path(k=2, scale=100)
print("machines:", [(m.id, m.dedicated_load) for m in instance.machines])
print("edge jobs:", [(j.id, j.weight, sorted(j.eligible)) for j in instance.jobs])

t = 100
context = reduce_instance(instance, t, SolveMode.GENERAL, BETA)
thresholds = ThresholdsG.make(t, BETA)
print(f"\nguess t = {t}, beta = {BETA}")
print(f"overload bound    floor((5/3 + b/3)t)  = {thresholds.overload_bound}")
print(f"push ceiling      floor((5/3 - 2b/3)t) = {thresholds.push_bound}")
print(f"light-edge bound  ceil((2/3 + b/3)t)   = {thresholds.rule2_bound}")

orientation = Orientation(context.graph)
loads = PushState(context).loads
trace = []
forced_orientations(
    context, orientation, loads, thresholds, context.graph.nodes, trace=trace
)

print("\ncascade:")
for event in trace:
    print(f"  {event['edge']} forced {event['from']} -> {event['to']}")
print("final orientation:", orientation.head)
print("p0 holds 100; 100 + 96 = 196 > 190 starts the chain, and every")
print("freshly loaded machine pushes its remaining edge onward.")

print("\n=== full solve of the same instance ===")
solution = solve(instance, SolveMode.GENERAL, BETA)
print(f"makespan {solution.makespan} at t* = {solution.t_star} "
      f"(certified ratio {solution.ratio_certified} <= 19/10)")
for job, machine in sorted(solution.assignment.items()):
    print(f"  {job} -> {machine}")
