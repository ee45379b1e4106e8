"""Instance data model, JSON serialization, mode validation and generators.

An instance is a set of machines (each with an optional dedicated load) plus a
set of jobs, where every job has an integral weight and a non-empty set of
eligible machines.  Two solver modes are supported:

* ``two_valued`` -- exactly two distinct weights occur among jobs that can run
  on two or more machines, and every job of the heavier weight is restricted
  to at most two machines.
* ``general`` -- given a threshold fraction ``beta`` in [4/7, 1), every job
  heavier than ``beta * W_max`` is restricted to at most two machines.

All arithmetic on thresholds is exact: ``beta`` is a `fractions.Fraction` and
weights are Python integers, so no comparison in the solver ever goes through
floating point.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .errors import ParseError, ValidationError

BETA_MIN = Fraction(4, 7)


class SolveMode(str, Enum):
    TWO_VALUED = "two_valued"
    GENERAL = "general"
    AUTO = "auto"


def parse_fraction(text: str | int) -> Fraction:
    """Parse an exact fraction written as ``"p/q"`` or a bare integer.

    Floats are rejected on purpose: threshold comparisons must stay exact.
    """
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"expected a fraction string 'p/q', got {text!r}")
    parts = text.split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            return Fraction(int(parts[0]), int(parts[1]))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid fraction {text!r}: {exc}") from None
    raise ValueError(f"invalid fraction {text!r}")


def floor_times(beta: Fraction, x: int) -> int:
    """``floor(beta * x)`` for an integer *x*, without building a Fraction."""
    return beta.numerator * x // beta.denominator


def format_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class MachineSpec:
    id: str
    dedicated_load: int = 0

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ParseError(f"machine id must be a non-empty string, got {self.id!r}")
        _require_int(self.dedicated_load, "dedicated_load")
        if self.dedicated_load < 0:
            raise ParseError(f"machine {self.id!r}: dedicated_load must be >= 0")


@dataclass(frozen=True)
class JobSpec:
    id: str
    weight: int
    eligible: frozenset[str]

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ParseError(f"job id must be a non-empty string, got {self.id!r}")
        _require_int(self.weight, "weight")
        if self.weight < 1:
            raise ParseError(f"job {self.id!r}: weight must be a positive integer")
        object.__setattr__(self, "eligible", frozenset(self.eligible))
        if not self.eligible:
            raise ParseError(f"job {self.id!r}: eligible set must be non-empty")


@dataclass(frozen=True)
class Instance:
    machines: tuple[MachineSpec, ...]
    jobs: tuple[JobSpec, ...]
    mode_hint: SolveMode = SolveMode.AUTO
    machine_index: dict[str, int] = field(init=False, compare=False, repr=False)
    job_index: dict[str, JobSpec] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "machines", tuple(self.machines))
        object.__setattr__(self, "jobs", tuple(self.jobs))
        index: dict[str, int] = {}
        for pos, m in enumerate(self.machines):
            if m.id in index:
                raise ParseError(f"duplicate machine id {m.id!r}")
            index[m.id] = pos
        jobs: dict[str, JobSpec] = {}
        for j in self.jobs:
            if j.id in jobs:
                raise ParseError(f"duplicate job id {j.id!r}")
            jobs[j.id] = j
            for mid in j.eligible:
                if mid not in index:
                    raise ParseError(
                        f"job {j.id!r} references unknown machine {mid!r}"
                    )
        object.__setattr__(self, "machine_index", index)
        object.__setattr__(self, "job_index", jobs)

    @cached_property
    def machine_ids(self) -> tuple[str, ...]:
        return tuple(self.machine_index)

    @cached_property
    def name_order(self) -> tuple[str, ...]:
        """Machine ids in string order: bit i of every machine mask stands
        for ``name_order[i]``, so a mask's lowest bit is its least id."""
        return tuple(sorted(self.machine_index))

    @cached_property
    def name_rank(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.name_order)}

    def mask(self, machines) -> int:
        """The machine mask with the bit of every v in *machines* set."""
        rank, mask = self.name_rank, 0
        for v in machines:
            mask |= 1 << rank[v]
        return mask

    def sorted_eligible(self, job: JobSpec) -> list[str]:
        """Eligible machines of *job* in instance machine order."""
        return sorted(job.eligible, key=self.machine_index.__getitem__)

    def max_weight(self) -> int:
        return max((j.weight for j in self.jobs), default=0)

    def total_weight(self) -> int:
        return sum(j.weight for j in self.jobs) + sum(
            m.dedicated_load for m in self.machines
        )


def _require_int(value, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{name} must be a JSON integer, got {value!r}")


# ---------------------------------------------------------------------------
# JSON document handling
# ---------------------------------------------------------------------------

_MACHINE_FIELDS = {"id", "dedicated_load"}
_JOB_FIELDS = {"id", "weight", "eligible"}
_TOP_FIELDS = {"machines", "jobs", "mode_hint"}


def parse_instance(text: str) -> Instance:
    """Parse a UTF-8 JSON document into an :class:`Instance`.

    Unknown fields are rejected, ids are preserved verbatim, and all numeric
    fields must be JSON integers.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be a JSON object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise ParseError(f"unknown top-level fields: {sorted(unknown)}")
    for required in ("machines", "jobs"):
        if required not in doc:
            raise ParseError(f"missing required field {required!r}")
    if not isinstance(doc["machines"], list) or not isinstance(doc["jobs"], list):
        raise ParseError("'machines' and 'jobs' must be arrays")

    machines = []
    for raw in doc["machines"]:
        if not isinstance(raw, dict):
            raise ParseError(f"machine entry must be an object, got {raw!r}")
        unknown = set(raw) - _MACHINE_FIELDS
        if unknown:
            raise ParseError(f"machine entry has unknown fields: {sorted(unknown)}")
        if "id" not in raw:
            raise ParseError("machine entry is missing 'id'")
        machines.append(MachineSpec(raw["id"], raw.get("dedicated_load", 0)))

    jobs = []
    for raw in doc["jobs"]:
        if not isinstance(raw, dict):
            raise ParseError(f"job entry must be an object, got {raw!r}")
        unknown = set(raw) - _JOB_FIELDS
        if unknown:
            raise ParseError(f"job entry has unknown fields: {sorted(unknown)}")
        for required in _JOB_FIELDS:
            if required not in raw:
                raise ParseError(f"job entry is missing {required!r}")
        eligible = raw["eligible"]
        if not isinstance(eligible, list) or not all(
            isinstance(e, str) for e in eligible
        ):
            raise ParseError(f"job {raw.get('id')!r}: 'eligible' must be a string array")
        if len(set(eligible)) != len(eligible):
            raise ParseError(f"job {raw.get('id')!r}: duplicate machines in 'eligible'")
        jobs.append(JobSpec(raw["id"], raw["weight"], frozenset(eligible)))

    hint = doc.get("mode_hint", "auto")
    try:
        mode = SolveMode(hint)
    except ValueError:
        raise ParseError(f"invalid mode_hint {hint!r}") from None
    return Instance(tuple(machines), tuple(jobs), mode)


def serialize_instance(instance: Instance) -> str:
    """Serialize to canonical JSON.  ``parse_instance`` inverts this exactly."""
    doc = {
        "machines": [
            {"id": m.id, "dedicated_load": m.dedicated_load} for m in instance.machines
        ],
        "jobs": [
            {
                "id": j.id,
                "weight": j.weight,
                "eligible": instance.sorted_eligible(j),
            }
            for j in instance.jobs
        ],
        "mode_hint": instance.mode_hint.value,
    }
    return json.dumps(doc, indent=1)


# ---------------------------------------------------------------------------
# Mode validation
# ---------------------------------------------------------------------------


def check_beta(beta: Fraction | None) -> Fraction:
    if beta is None:
        raise ValidationError(["general mode requires an explicit beta fraction"])
    if not isinstance(beta, Fraction):
        raise ValidationError([f"beta must be an exact Fraction, got {beta!r}"])
    if not (BETA_MIN <= beta < 1):
        raise ValidationError(
            [f"beta must lie in [4/7, 1), got {format_fraction(beta)}"]
        )
    return beta


@dataclass(frozen=True)
class Regime:
    """The paper's regime of one solve, and every decision that reads it:
    the resolved ``mode``, the threshold ``beta`` (always set in general
    mode) and, in two-valued mode, the multi-machine weights ``heavy`` W
    and ``light`` w, ``None`` when there are none."""

    mode: SolveMode
    beta: Fraction | None = None
    heavy: int | None = None
    light: int | None = None

    @classmethod
    def of(cls, instance: Instance, mode: SolveMode, beta: Fraction | None = None) -> "Regime":
        """The regime of solving *instance* in *mode*: in two-valued mode W
        and w are the largest and least multi-machine weights."""
        if mode == SolveMode.AUTO:
            raise ValueError("resolve the mode (two_valued or general) first")
        if beta is not None or mode == SolveMode.GENERAL:
            check_beta(beta)
        if mode == SolveMode.TWO_VALUED:
            weights = [j.weight for j in instance.jobs if len(j.eligible) >= 2]
            if weights:
                return cls(mode, beta, max(weights), min(weights))
        return cls(mode, beta)

    @property
    def improved(self) -> bool:
        """Whether W >= 2w: the two-valued bound and thresholds tighten."""
        return self.heavy is not None and self.heavy >= 2 * self.light

    @property
    def bound(self) -> Fraction:
        """A-priori approximation guarantee: 5/3 + beta/3 in general mode;
        1 + floor(W/2)/W when W >= 2w, else 3/2, in two-valued mode."""
        if self.mode == SolveMode.GENERAL:
            return Fraction(5, 3) + self.beta / 3
        if self.improved:
            return 1 + Fraction(self.heavy // 2, self.heavy)
        return Fraction(3, 2)

    def core_at(self, t: int) -> str:
        """The core that decides guess *t*: ``general`` in general mode,
        else ``relief`` when t >= 2W, ``matching`` when t < 2w, and
        ``two_valued`` otherwise."""
        if self.mode == SolveMode.GENERAL:
            return "general"
        if self.heavy is not None:
            if t >= 2 * self.heavy:
                return "relief"
            if t < 2 * self.light:
                return "matching"
        return "two_valued"

    def edge_floor(self, t: int) -> int:
        """The integer a multi-machine job's weight must exceed to be an edge
        job at guess *t*: ``max(floor(t/2), W-1)`` in two-valued mode, so
        only heavy jobs above t/2 qualify, and ``floor(beta*t)`` in general
        mode.  Weights are integers, so ``w > x`` iff ``w > floor(x)``."""
        if self.mode == SolveMode.TWO_VALUED:
            return max(t // 2, (self.heavy or 0) - 1)
        return floor_times(self.beta, t)

    def boundaries(self, jobs) -> tuple[int, ...]:
        """The guesses, ascending, where the regime's answer changes, for a
        solve of *jobs*: {2w, 2W} in two-valued mode, where below 2w the
        matching core is exact and below 2W a multi-cycle component of
        heavy jobs rules out every guess.  In general mode it is
        ``ceil(w_k/beta)``, below which the jobs of weight at least w_k are
        edge jobs; w_k is the weight at which the two-machine jobs, added
        heaviest first, first give one component two independent cycles,
        and with no such weight there is no boundary."""
        if self.mode == SolveMode.TWO_VALUED:
            if self.heavy is None:
                return ()
            return tuple(sorted({2 * self.light, 2 * self.heavy}))
        weight = _second_cycle_weight(jobs)
        if weight is None:
            return ()
        return (-(-weight * self.beta.denominator // self.beta.numerator),)

    @property
    def fields(self) -> dict:
        """The mode fields every declaration ends with: ``mode``, ``beta``
        as ``p/q`` when set, then ``W`` and ``w`` when set."""
        fields: dict = {"mode": self.mode.value}
        if self.beta is not None:
            fields["beta"] = format_fraction(self.beta)
        if self.heavy is not None:
            fields.update(W=self.heavy, w=self.light)
        return fields


def _second_cycle_weight(jobs) -> int | None:
    """The weight at which the two-machine *jobs*, joined heaviest first in a
    union-find, first leave one component with more edges than nodes, or
    ``None``.  Cycles only accumulate, so stopping at the first such edge
    gives the same weight as adding each group of equal weights whole."""
    parent: dict[str, str] = {}
    cycles: dict[str, int] = {}  # per root: edges minus nodes plus one

    def find(v: str) -> str:
        while parent.setdefault(v, v) != v:
            parent[v] = v = parent[parent[v]]
        return v

    pairs = [(j.weight, *j.eligible) for j in jobs if len(j.eligible) == 2]
    for weight, u, v in sorted(pairs, key=lambda pair: -pair[0]):
        ru, rv = find(u), find(v)
        if ru == rv:
            cycles[ru] = cycles.get(ru, 0) + 1
        else:
            parent[rv] = ru
            cycles[ru] = cycles.get(ru, 0) + cycles.pop(rv, 0)
        if cycles[ru] >= 2:
            return weight
    return None


def _two_valued_violations(instance: Instance) -> list[str]:
    multi = [j for j in instance.jobs if len(j.eligible) >= 2]
    weights = sorted({j.weight for j in multi})
    violations = []
    if len(weights) != 2:
        violations.append(
            "two_valued mode requires exactly two distinct weights among "
            f"multi-machine jobs, found {len(weights)}: {weights}"
        )
        return violations
    heavy = weights[1]
    for j in multi:
        if j.weight == heavy and len(j.eligible) > 2:
            violations.append(
                f"job {j.id!r} has the heavy weight {heavy} but is eligible on "
                f"{len(j.eligible)} machines (at most 2 allowed)"
            )
    return violations


def derive_beta(instance: Instance) -> Fraction:
    """Smallest admissible beta for this instance, clamped to [4/7, 1).

    Raises if some maximum-weight job is eligible on three or more machines,
    in which case no threshold can make the instance fit the general model.
    """
    w_max = instance.max_weight()
    wide = max(
        (j.weight for j in instance.jobs if len(j.eligible) >= 3),
        default=0,
    )
    if w_max == 0:
        return BETA_MIN
    candidate = max(BETA_MIN, Fraction(wide, w_max))
    if candidate >= 1:
        raise ValidationError(
            [
                "a maximum-weight job is eligible on 3 or more machines; "
                "no valid heavy-job threshold exists"
            ]
        )
    return candidate


def validate(
    instance: Instance, mode: SolveMode, beta: Fraction | None = None
) -> Regime:
    """Check the instance against the structural assumptions of *mode* and
    return the solve's :class:`Regime`, or raise :class:`ValidationError`
    listing every violation.

    ``auto`` resolves to ``two_valued`` when exactly two multi-machine weights
    exist and every heavier job is restricted to two machines, otherwise to
    ``general`` (deriving the smallest admissible beta if none is given).
    A beta outside [4/7, 1) raises :class:`ValidationError` immediately,
    whatever mode it resolves to; two-valued mode drops it.
    """
    if beta is not None:
        check_beta(beta)
    if mode == SolveMode.AUTO:
        if not _two_valued_violations(instance):
            return Regime.of(instance, SolveMode.TWO_VALUED)
        effective = beta if beta is not None else derive_beta(instance)
        return validate(instance, SolveMode.GENERAL, effective)

    if mode == SolveMode.TWO_VALUED:
        violations = _two_valued_violations(instance)
        beta = None
    elif mode == SolveMode.GENERAL:
        beta = check_beta(beta)
        w_max = instance.max_weight()
        light_max = floor_times(beta, w_max)
        violations = []
        for j in instance.jobs:
            if j.weight > light_max and len(j.eligible) > 2:
                violations.append(
                    f"job {j.id!r} (weight {j.weight} > beta*W_max = "
                    f"{format_fraction(beta * w_max)}) is eligible on "
                    f"{len(j.eligible)} machines (at most 2 allowed)"
                )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if violations:
        raise ValidationError(violations)
    return Regime.of(instance, mode, beta)


# ---------------------------------------------------------------------------
# Deterministic generators
# ---------------------------------------------------------------------------


def generate_two_valued(
    m: int,
    n_heavy: int,
    n_light: int,
    heavy_weight: int,
    light_weight: int,
    max_light_degree: int,
    seed: int,
) -> Instance:
    """Random two-weight instance: heavy jobs on two machines each, light jobs
    on 2..max_light_degree machines.  Pure function of its arguments."""
    if light_weight >= heavy_weight:
        raise ValueError("light weight must be strictly below heavy weight")
    if m < 2:
        raise ValueError("need at least two machines")
    if n_heavy < 1:
        raise ValueError("need at least one heavy job")
    if not (2 <= max_light_degree <= m):
        raise ValueError("max_light_degree must lie in [2, m]")
    rng = random.Random(seed)
    machine_ids = [f"m{i}" for i in range(m)]
    machines = tuple(MachineSpec(mid) for mid in machine_ids)
    jobs = []
    for i in range(n_heavy):
        pair = rng.sample(machine_ids, 2)
        jobs.append(JobSpec(f"h{i}", heavy_weight, frozenset(pair)))
    for i in range(n_light):
        degree = rng.randint(2, max_light_degree)
        chosen = rng.sample(machine_ids, degree)
        jobs.append(JobSpec(f"l{i}", light_weight, frozenset(chosen)))
    return Instance(machines, tuple(jobs), SolveMode.TWO_VALUED)


def generate_general(
    m: int, n: int, beta: Fraction, w_max: int, seed: int
) -> Instance:
    """Random general-mode instance for a given beta threshold.

    Heavy jobs (weight above ``beta*w_max``) get exactly two machines; light
    jobs get arbitrary degree >= 2.  The first job is pinned at ``w_max`` so
    that the instance's maximum weight equals the parameter.
    """
    beta = check_beta(beta)
    if m < 2:
        raise ValueError("need at least two machines")
    if w_max < 2:
        raise ValueError("w_max must be at least 2")
    light_max = floor_times(beta, w_max)
    heavy_min = light_max + 1
    rng = random.Random(seed)
    machine_ids = [f"m{i}" for i in range(m)]
    machines = tuple(MachineSpec(mid) for mid in machine_ids)
    jobs = []
    for i in range(n):
        heavy = i == 0 or rng.random() < 1 / 3
        if heavy:
            weight = w_max if i == 0 else rng.randint(heavy_min, w_max)
            chosen = rng.sample(machine_ids, 2)
        else:
            weight = rng.randint(1, light_max)
            degree = rng.randint(2, m)
            chosen = rng.sample(machine_ids, degree)
        jobs.append(JobSpec(f"j{i}", weight, frozenset(chosen)))
    return Instance(machines, tuple(jobs), SolveMode.GENERAL)


def generate_adversarial_path(k: int, scale: int) -> Instance:
    """Path of k+2 machines joined by k+1 near-maximal edge jobs.

    The first machine carries a dedicated load of ``scale``, the last one
    ``scale // 4``; each edge job weighs ``floor(0.95*scale) + ceil(scale/100)``.
    Intended to be probed at guess ``t = scale`` with ``beta = 7/10``, where
    the left end forces the whole path to orient rightward.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if scale < 100:
        raise ValueError("scale must be >= 100 to keep the weights integral")
    weight = (95 * scale) // 100 + -(-scale // 100)
    machines = []
    for i in range(k + 2):
        if i == 0:
            load = scale
        elif i == k + 1:
            load = scale // 4
        else:
            load = 0
        machines.append(MachineSpec(f"p{i}", load))
    jobs = tuple(
        JobSpec(f"r{i}", weight, frozenset({f"p{i}", f"p{i+1}"})) for i in range(k + 1)
    )
    return Instance(tuple(machines), jobs, SolveMode.GENERAL)
