"""Certificate verification: recounts, soundness, and corruption handling."""

import copy
import random
from fractions import Fraction

import pytest

from graphbalance import (
    Declaration,
    MalformedDeclaration,
    SolveMode,
    exact_opt,
    feasible_at,
    reduce_instance,
    solve,
    verify_certificate,
)
from graphbalance.oracle import CONFIRMED, NEEDS_EXHAUSTIVE, REFUTED
from graphbalance.preprocess import (
    ACTIVATED_SET,
    DEDICATED_OVERFLOW,
    HALL_VIOLATION,
    MULTI_CYCLE_COMPONENT,
    PREFLOW_HEIGHT,
)

from conftest import (
    AUTO_MODE_DECLARATIONS,
    AUTO_MODE_INSTANCE,
    build,
    loaded_general,
    loaded_two_valued,
)


def collect_declarations(instances_with_modes, limit=40):
    """Run full solves and pool every declaration with its instance."""
    found = []
    for inst, mode, beta in instances_with_modes:
        sol = solve(inst, mode, beta)
        found.extend((inst, d) for d in sol.declarations)
        if len(found) >= limit:
            break
    return found


@pytest.fixture(scope="module")
def general_declarations():
    items = [
        (loaded_general(seed, Fraction(7, 10)), SolveMode.GENERAL, Fraction(7, 10))
        for seed in range(120)
    ]
    return collect_declarations(items)


@pytest.fixture(scope="module")
def two_valued_declarations():
    pool = []
    for seed in range(160):
        inst, _, _ = loaded_two_valued(seed)
        pool.append((inst, SolveMode.AUTO, None))
    return collect_declarations(pool)


def test_multi_cycle_recount():
    nodes = [("a", 0), ("b", 0), ("c", 0), ("d", 0)]
    edges = [
        ("ab", 6, ["a", "b"]), ("bc", 6, ["b", "c"]), ("ca", 6, ["c", "a"]),
        ("cd", 6, ["c", "d"]), ("db", 6, ["d", "b"]),
    ]
    inst = build(nodes, edges)
    decl = reduce_instance(inst, 10, SolveMode.GENERAL, Fraction(4, 7))
    assert isinstance(decl, Declaration)
    assert verify_certificate(inst, decl) == CONFIRMED


def test_multi_cycle_corruption_refuted():
    nodes = [("a", 0), ("b", 0), ("c", 0), ("d", 0)]
    edges = [
        ("ab", 6, ["a", "b"]), ("bc", 6, ["b", "c"]), ("ca", 6, ["c", "a"]),
        ("cd", 6, ["c", "d"]), ("db", 6, ["d", "b"]),
    ]
    inst = build(nodes, edges)
    decl = reduce_instance(inst, 10, SolveMode.GENERAL, Fraction(4, 7))
    # drop an edge from the witness: 4 edges over 4 nodes prove nothing
    payload = copy.deepcopy(decl.payload)
    payload["edges"] = payload["edges"][:-1]
    assert verify_certificate(inst, Declaration(decl.t, decl.kind, payload)) == REFUTED


def test_dedicated_overflow_confirmed_and_refuted():
    inst = build([("a", 11), ("b", 0)], [("j", 5, ["a", "b"])])
    decl = reduce_instance(inst, 10, SolveMode.GENERAL, Fraction(4, 7))
    assert isinstance(decl, Declaration)
    assert verify_certificate(inst, decl) == CONFIRMED
    wrong = Declaration(decl.t, decl.kind, {**decl.payload, "machine": "b"})
    assert verify_certificate(inst, wrong) == REFUTED


def test_overflow_via_forced_edge_folds_is_confirmed():
    # the pendant edge must land on d in every valid orientation, and
    # 6 + 9 > 14 even though d's raw dedicated load is only 6
    nodes = [("a", 0), ("b", 0), ("c", 0), ("d", 6)]
    edges = [
        ("ab", 9, ["a", "b"]), ("bc", 9, ["b", "c"]), ("ca", 9, ["c", "a"]),
        ("cd", 9, ["c", "d"]),
    ]
    inst = build(nodes, edges)
    decl = reduce_instance(inst, 14, SolveMode.GENERAL, Fraction(4, 7))
    assert isinstance(decl, Declaration)
    assert decl.kind == "dedicated_overflow"
    assert verify_certificate(inst, decl) == CONFIRMED


def test_malformed_payload_raises():
    inst = build([("a", 0), ("b", 0)], [("j", 7, ["a", "b"])])
    with pytest.raises(MalformedDeclaration):
        verify_certificate(inst, Declaration(5, "dedicated_overflow", {}))
    with pytest.raises(MalformedDeclaration):
        verify_certificate(inst, Declaration(5, "no_such_kind", {}))


@pytest.mark.parametrize("kind", sorted(AUTO_MODE_DECLARATIONS))
def test_unresolved_mode_is_malformed(kind):
    inst = build(*AUTO_MODE_INSTANCE)
    declaration = Declaration(10, kind, AUTO_MODE_DECLARATIONS[kind])
    with pytest.raises(MalformedDeclaration, match="must be two_valued or general"):
        verify_certificate(inst, declaration)


@pytest.mark.parametrize("beta", ("1/10", "1/2", "1", "3/2"))
def test_beta_outside_the_general_range_is_malformed(beta):
    # three weight-3 jobs on {a, b}: OPT is 6.  Below beta = 1/2 all three
    # would count as edge jobs at t = 6, a "multi-cycle" that no orientation
    # with one edge per machine survives, so the floor would confirm OPT >= 7
    inst = build([("a", 0), ("b", 0)], [(f"j{i}", 3, ["a", "b"]) for i in range(3)])
    payload = {"machine": "a", "dedicated": 0, "mode": "general", "beta": beta}
    with pytest.raises(MalformedDeclaration):
        verify_certificate(inst, Declaration(6, "dedicated_overflow", payload))


def test_general_declarations_confirmed(general_declarations):
    assert general_declarations, "expected some declarations in the pool"
    for inst, decl in general_declarations:
        assert verify_certificate(inst, decl) == CONFIRMED
        assert not feasible_at(inst, decl.t)


def test_two_valued_declarations_never_refuted(two_valued_declarations):
    assert two_valued_declarations
    for inst, decl in two_valued_declarations:
        verdict = verify_certificate(inst, decl)
        assert verdict in (CONFIRMED, NEEDS_EXHAUSTIVE)
        assert not feasible_at(inst, decl.t)


def test_mutated_activated_payloads_never_confirmed_when_feasible(
    general_declarations, two_valued_declarations
):
    # the same activated set claimed at t = OPT, where an assignment fits
    mutated = 0
    for inst, decl in general_declarations + two_valued_declarations:
        if decl.kind != "activated_set":
            continue
        mutated += 1
        raised = Declaration(exact_opt(inst), decl.kind, decl.payload)
        verdict = verify_certificate(inst, raised, allow_exhaustive=False)
        assert verdict in (REFUTED, NEEDS_EXHAUSTIVE)
    assert mutated > 0, "mutation test needs at least one activated_set payload"


def test_broken_closure_is_refuted():
    # both jobs can leave 'a', so the set traps nothing and its floor is 0:
    # only the exhaustive fallback can settle the claim, and h on 'a' with
    # l on 'b' fits under 10
    inst = build(
        [("a", 0), ("b", 0)],
        [("h", 10, ["a", "b"]), ("l", 3, ["a", "b"])],
    )
    payload = {"activated": ["a"], "mode": "two_valued", "W": 10, "w": 3}
    decl = Declaration(10, "activated_set", payload)
    assert verify_certificate(inst, decl, allow_exhaustive=False) == NEEDS_EXHAUSTIVE
    assert verify_certificate(inst, decl) == REFUTED


GENERAL_7_10 = {"mode": "general", "beta": "7/10"}


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("hall_violation", {"jobs": ["e"], **GENERAL_7_10}),
        ("preflow_height", {"cut": ["a", "b"], "captive_jobs": ["e"], **GENERAL_7_10}),
    ],
    ids=["hall", "preflow"],
)
def test_witness_counted_twice_is_refuted(kind, payload):
    # OPT is 10, so no claim at t = 10 may hold; the witness job e is an
    # edge job at t = 10, and the floor of a and b must not count it again
    inst = build(
        [("a", 0), ("b", 0)],
        [("e", 10, ["a", "b"]), ("f", 10, ["a", "b"])],
    )
    assert feasible_at(inst, 10)
    assert verify_certificate(inst, Declaration(10, kind, payload)) == REFUTED


def test_weak_aggregate_falls_back_to_exhaustive():
    # structurally consistent payload whose summed bound is too weak:
    # 16 + 0 + 0 <= 2*10, yet the guess is genuinely infeasible, so the
    # exhaustive fallback must settle it
    inst = build(
        [("a", 10), ("x", 0), ("v", 6)],
        [
            ("l1", 2, ["a", "x"]),
            ("l2", 2, ["a", "x"]),
            ("l3", 2, ["a", "x"]),
            ("e", 9, ["x", "v"]),
        ],
    )
    assert not feasible_at(inst, 10)
    payload = {
        "mode": "two_valued",
        "W": 9,
        "w": 2,
        "activated": ["a", "x"],
        "placement": {"l1": "a", "l2": "a", "l3": "a"},
        "pl": {"a": 6, "x": 0, "v": 0},
    }
    decl = Declaration(10, "activated_set", payload)
    assert verify_certificate(inst, decl, allow_exhaustive=False) == NEEDS_EXHAUSTIVE
    assert verify_certificate(inst, decl, allow_exhaustive=True) == CONFIRMED


# Hand-made instances for the declaration table below.
# Five weight-6 edges on four machines: two cycles, so OPT > 10.
MULTI_CYCLE = (
    [("a", 0), ("b", 0), ("c", 0), ("d", 0)],
    [
        ("ab", 6, ["a", "b"]), ("bc", 6, ["b", "c"]), ("ca", 6, ["c", "a"]),
        ("cd", 6, ["c", "d"]), ("db", 6, ["d", "b"]),
    ],
)
WIDE_CYCLE = (MULTI_CYCLE[0], MULTI_CYCLE[1] + [("abc", 6, ["a", "b", "c"])])
# e and f overlap on b; no edge job at t = 10 under beta 7/10
OVERLAP = ([("a", 0), ("b", 0), ("c", 0)], [("e", 6, ["a", "b"]), ("f", 6, ["b", "c"])])
# three weight-6 jobs on two machines: OPT 12
CROWDED = ([("a", 0), ("b", 0)], [(j, 6, ["a", "b"]) for j in ("e", "f", "g")])
# five weight-5 jobs on two machines weigh 25 > 2 * 12: OPT 15
FIVES = ([("a", 0), ("b", 0)], [(f"j{i}", 5, ["a", "b"]) for i in range(5)])
# at t = 10 in two-valued mode h is an edge on {a, b} and l a movable; OPT 10
HEAVY_LIGHT = (
    [("a", 0), ("b", 0), ("c", 0)], [("h", 10, ["a", "b"]), ("l", 3, ["a", "b"])]
)

GENERAL_4_7 = {"mode": "general", "beta": "4/7"}
TWO_VALUED_10_3 = {"mode": "two_valued", "W": 10, "w": 3}
FIVE_EDGES = ["ab", "bc", "ca", "cd", "db"]


def activated(active, placement, pl, mode=TWO_VALUED_10_3):
    return {"activated": active, "placement": placement, "pl": pl, **mode}


HAND_MADE = {
    # multi_cycle_component
    "cycle-recount": (MULTI_CYCLE, 10, MULTI_CYCLE_COMPONENT, {
        "nodes": ["a", "b", "c", "d"], "edges": FIVE_EDGES}, CONFIRMED),
    "cycle-duplicate-edge": (MULTI_CYCLE, 10, MULTI_CYCLE_COMPONENT, {
        "nodes": ["a", "b", "c", "d"], "edges": ["ab", "ab", "bc", "ca", "cd"]}, REFUTED),
    "cycle-unknown-job": (MULTI_CYCLE, 10, MULTI_CYCLE_COMPONENT, {
        "nodes": ["a", "b", "c", "d"], "edges": [*FIVE_EDGES, "zz"]}, MalformedDeclaration),
    "cycle-edges-share-a-machine": (MULTI_CYCLE, 12, MULTI_CYCLE_COMPONENT, {
        "nodes": ["a", "b", "c", "d"], "edges": FIVE_EDGES}, REFUTED),
    "cycle-edge-leaves-the-nodes": (MULTI_CYCLE, 10, MULTI_CYCLE_COMPONENT, {
        "nodes": ["a", "b", "c"], "edges": ["ab", "bc", "ca", "cd"]}, REFUTED),
    "cycle-job-on-three-machines": (WIDE_CYCLE, 10, MULTI_CYCLE_COMPONENT, {
        "nodes": ["a", "b", "c", "d"], "edges": [*FIVE_EDGES, "abc"]}, REFUTED),
    # hall_violation
    "hall-neighborhood-too-small": (CROWDED, 10, HALL_VIOLATION, {
        "jobs": ["e", "f", "g"], **GENERAL_7_10}, CONFIRMED),
    "hall-duplicate-job": (CROWDED, 10, HALL_VIOLATION, {
        "jobs": ["e", "e", "f", "g"], **GENERAL_7_10}, REFUTED),
    "hall-unknown-job": (CROWDED, 10, HALL_VIOLATION, {
        "jobs": ["e", "zz"], **GENERAL_7_10}, MalformedDeclaration),
    "hall-witness-jobs-fit-together": (CROWDED, 12, HALL_VIOLATION, {
        "jobs": ["e", "f", "g"], **GENERAL_7_10}, REFUTED),
    "hall-neighborhood-large-enough": (OVERLAP, 10, HALL_VIOLATION, {
        "jobs": ["e", "f"], **GENERAL_7_10}, REFUTED),
    "hall-malformed-beta": (CROWDED, 10, HALL_VIOLATION, {
        "jobs": ["e", "f", "g"], "mode": "general", "beta": "0.7"}, MalformedDeclaration),
    "hall-missing-beta": (CROWDED, 10, HALL_VIOLATION, {
        "jobs": ["e", "f", "g"], "mode": "general"}, MalformedDeclaration),
    # preflow_height: the verifier reads only the cut and finds its trapped
    # jobs itself, so "captive_jobs" below decides nothing
    "cut-overloaded": (FIVES, 12, PREFLOW_HEIGHT, {
        "cut": ["a", "b"], "captive_jobs": [f"j{i}" for i in range(5)], **GENERAL_7_10},
        CONFIRMED),
    "cut-duplicate-machine": (CROWDED, 10, PREFLOW_HEIGHT, {
        "cut": ["a", "a"], "captive_jobs": ["e"], **GENERAL_7_10}, REFUTED),
    "cut-unknown-machine": (CROWDED, 10, PREFLOW_HEIGHT, {
        "cut": ["a", "zz"], "captive_jobs": ["e"], **GENERAL_7_10}, REFUTED),
    "cut-duplicate-captive": (CROWDED, 10, PREFLOW_HEIGHT, {
        "cut": ["a", "b"], "captive_jobs": ["e", "f", "f", "g"], **GENERAL_7_10}, REFUTED),
    "cut-captive-escapes": (OVERLAP, 10, PREFLOW_HEIGHT, {
        "cut": ["a", "b"], "captive_jobs": ["e", "f"], **GENERAL_7_10}, REFUTED),
    "cut-load-fits": (OVERLAP, 10, PREFLOW_HEIGHT, {
        "cut": ["a", "b"], "captive_jobs": ["e"], **GENERAL_7_10}, REFUTED),
    # activated_set: likewise only "activated" is read, never "placement"
    # or "pl"; a cut that fails falls back to exhaustive search
    "activated-duplicate-machine": (HEAVY_LIGHT, 10, ACTIVATED_SET, activated(
        ["a", "a"], {"l": "b"}, {"b": 3}), REFUTED),
    "activated-unknown-machine": (HEAVY_LIGHT, 10, ACTIVATED_SET, activated(
        ["zz"], {"l": "b"}, {"b": 3}), REFUTED),
    "activated-placement-misses-a-movable": (HEAVY_LIGHT, 10, ACTIVATED_SET, activated(
        ["a"], {}, {}), REFUTED),
    "activated-placement-on-ineligible-machine": (HEAVY_LIGHT, 10, ACTIVATED_SET, activated(
        ["c"], {"l": "c"}, {"c": 3}), REFUTED),
    "activated-wrong-pl": (HEAVY_LIGHT, 10, ACTIVATED_SET, activated(
        ["a"], {"l": "b"}, {"b": 2}), REFUTED),
    "activated-fits-exhaustively": (HEAVY_LIGHT, 10, ACTIVATED_SET, activated(
        ["a"], {"l": "b"}, {"a": 0, "b": 3, "c": 0}), REFUTED),
    "activated-reduction-declares-multi-cycle": (MULTI_CYCLE, 10, ACTIVATED_SET, activated(
        ["a"], {}, {}, GENERAL_4_7), CONFIRMED),
    "activated-cut-overfills": (FIVES, 12, ACTIVATED_SET, {
        "activated": ["a", "b"], **GENERAL_7_10}, CONFIRMED),
    "activated-cut-fails-exhaustive-infeasible": (CROWDED, 10, ACTIVATED_SET, {
        "activated": ["a"], **GENERAL_7_10}, CONFIRMED),
    "activated-cut-fails-feasible": (OVERLAP, 10, ACTIVATED_SET, {
        "activated": ["b"], **GENERAL_7_10}, REFUTED),
    "activated-t-below-heaviest-job": (AUTO_MODE_INSTANCE, 5, ACTIVATED_SET, {
        "activated": ["a"], **GENERAL_7_10}, CONFIRMED),
    # dedicated_overflow
    "overflow-unknown-machine": (CROWDED, 10, DEDICATED_OVERFLOW, {
        "machine": "zz", "dedicated": 0, **GENERAL_7_10}, MalformedDeclaration),
    "overflow-heavy-job-on-three-machines": (WIDE_CYCLE, 10, DEDICATED_OVERFLOW, {
        "machine": "a", "dedicated": 0, **GENERAL_4_7}, MalformedDeclaration),
}


@pytest.mark.parametrize(
    "shape, t, kind, payload, expected", HAND_MADE.values(), ids=HAND_MADE.keys()
)
def test_hand_made_declaration(shape, t, kind, payload, expected):
    inst = build(*shape)
    declaration = Declaration(t, kind, payload)
    if expected is MalformedDeclaration:
        with pytest.raises(MalformedDeclaration):
            verify_certificate(inst, declaration)
        return
    assert verify_certificate(inst, declaration) == expected
    if expected == CONFIRMED:
        assert not feasible_at(inst, t)


def random_claim_instance(rng: random.Random, two_valued: bool, beta: Fraction):
    """At most 4 machines and 7 jobs, valid in the given mode: dedicated
    loads, single-machine jobs, and the heavy jobs on two machines."""
    ids = [f"m{i}" for i in range(rng.randint(2, 4))]
    machines = [(v, rng.choice((0, 0, rng.randint(1, 6)))) for v in ids]
    heavy = rng.randint(2, 12)
    light = rng.randint(1, heavy - 1)
    jobs = [("j0", heavy, rng.sample(ids, 2)), ("j1", light, rng.sample(ids, 2))]
    for i in range(2, rng.randint(2, 7)):
        weight = rng.choice((heavy, light)) if two_valued else rng.randint(1, heavy)
        wide = weight == light if two_valued else weight <= beta * heavy
        jobs.append((f"j{i}", weight, rng.sample(ids, rng.randint(1, len(ids) if wide else 2))))
    return build(machines, jobs)


def random_claims(rng: random.Random, inst, mode: dict) -> list[tuple[str, dict]]:
    """One random declaration payload of each kind over *inst*."""
    machines = list(inst.machine_ids)
    jobs = [j.id for j in inst.jobs]
    cut = rng.sample(machines, rng.randint(1, len(machines)))
    trapped = [j.id for j in inst.jobs if j.eligible <= set(cut)]
    return [
        (DEDICATED_OVERFLOW, {"machine": rng.choice(machines), **mode}),
        (MULTI_CYCLE_COMPONENT, {
            "nodes": rng.sample(machines, rng.randint(1, len(machines))),
            "edges": rng.sample(jobs, rng.randint(1, len(jobs)))}),
        (HALL_VIOLATION, {"jobs": rng.sample(jobs, rng.randint(1, len(jobs))), **mode}),
        (PREFLOW_HEIGHT, {"cut": cut, "captive_jobs": trapped, **mode}),
        (ACTIVATED_SET, {"activated": cut, "placement": {}, "pl": {}, **mode}),
    ]


def test_no_claim_is_confirmed_at_or_above_opt():
    # every declaration claims OPT >= t + 1, so at t >= OPT each must fail;
    # without the fallback an activated set stands on its cut alone
    rng = random.Random(2015)
    modes = [
        (True, None, {"mode": "two_valued"}),
        (False, Fraction(4, 7), {"mode": "general", "beta": "4/7"}),
        (False, Fraction(7, 10), {"mode": "general", "beta": "7/10"}),
    ]
    false_claims = []
    for i in range(5001):
        two_valued, beta, mode = modes[i % 3]
        inst = random_claim_instance(rng, two_valued, beta)
        t = exact_opt(inst) + rng.randint(0, 3)
        for kind, payload in random_claims(rng, inst, mode):
            declaration = Declaration(t, kind, payload)
            if verify_certificate(inst, declaration, allow_exhaustive=False) == CONFIRMED:
                false_claims.append((inst, declaration))
    assert not false_claims, f"{len(false_claims)} false claims, first {false_claims[0]}"
