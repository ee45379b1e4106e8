"""Solve a batch of two-weight instances and compare with the exact optimum.

Every job weighs either w (assignable to several machines) or W > w
(assignable to at most two).  The solver binary-searches a guessed makespan
and is guaranteed to land within 3/2 of the optimum; with W >= 2w the bound
tightens to 1 + floor(W/2)/W.
"""

from fractions import Fraction

from graphbalance import (
    exact_opt,
    generate_two_valued,
    solve,
    Regime,
    SolveMode,
)

print("=== one instance, step by step ===")
instance = generate_two_valued(
    m=5, n_heavy=3, n_light=6, heavy_weight=10, light_weight=3,
    max_light_degree=4, seed=42,
)
for job in instance.jobs:
    print(f"  job {job.id}: weight {job.weight}, machines {sorted(job.eligible)}")

solution = solve(instance)
optimum = exact_opt(instance)
print(f"\nsolver makespan  : {solution.makespan}")
print(f"exact optimum    : {optimum}")
print(f"smallest accepted guess t* = {solution.t_star}")
print(f"proven lower bound         = {solution.lower_bound}")
print(f"certified ratio            = {solution.ratio_certified} "
      f"(true ratio {Fraction(solution.makespan, optimum)})")

print("\n=== guarantee over 50 seeds ===")
worst = Fraction(0)
for seed in range(50):
    inst = generate_two_valued(4, 2, 5, 10, 3, 4, seed=seed)
    sol = solve(inst)
    opt = exact_opt(inst)
    worst = max(worst, Fraction(sol.makespan, opt))
bound = Regime(SolveMode.TWO_VALUED, heavy=10, light=3).bound
print(f"worst observed ratio: {worst} (= {float(worst):.4f})")
print(f"theoretical bound   : {bound} -- holds: {worst <= bound}")

print("\n=== the improved bound when W >= 2w ===")
for heavy, light in ((11, 3), (15, 7), (20, 2)):
    inst = generate_two_valued(4, 3, 4, heavy, light, 4, seed=7)
    sol = solve(inst)
    opt = exact_opt(inst)
    bound = Regime(SolveMode.TWO_VALUED, heavy=heavy, light=light).bound
    print(f"  W={heavy:>2} w={light}: ratio {Fraction(sol.makespan, opt)} "
          f"<= {bound} (= 1 + {heavy // 2}/{heavy})")
