"""Per-guess reductions and the edge-job graph.

For a guessed makespan ``t`` the multi-machine jobs split into *edge jobs*
(too heavy for two of them to share a machine, each restricted to exactly two
machines, so they form graph edges) and *movables* (everything else, which
the cores relocate).  This module folds forced jobs into dedicated loads,
rejects structurally impossible guesses with machine-checkable declarations,
and normalizes the edge graph until every component is a tree, a simple
cycle of length at least three, or an isolated node.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .errors import (
    InvariantViolation,
    MalformedDeclaration,
    RegimeError,
    ValidationError,
)
from .instance import Instance, JobSpec, Regime, SolveMode

DEDICATED_OVERFLOW = "dedicated_overflow"
MULTI_CYCLE_COMPONENT = "multi_cycle_component"
HALL_VIOLATION = "hall_violation"
ACTIVATED_SET = "activated_set"
PREFLOW_HEIGHT = "preflow_height"


@dataclass(frozen=True)
class Declaration:
    """Machine-checkable witness that no assignment of makespan <= t exists."""

    t: int
    kind: str
    payload: dict

    def to_json(self) -> dict:
        return {"t": self.t, "kind": self.kind, "payload": self.payload}

    @staticmethod
    def from_json(doc) -> "Declaration":
        """Read a declaration, refusing fields of the wrong JSON type."""
        if not isinstance(doc, dict):
            raise MalformedDeclaration("a declaration must be a JSON object")
        t, kind, payload = doc.get("t"), doc.get("kind"), doc.get("payload")
        if type(t) is not int or type(kind) is not str or type(payload) is not dict:
            raise MalformedDeclaration(
                "a declaration needs an integer 't', a string 'kind' and an "
                "object 'payload'"
            )
        return Declaration(t, kind, dict(payload))


@dataclass(frozen=True)
class EdgeJob:
    id: str
    u: str
    v: str
    weight: int

    def other(self, node: str) -> str:
        return self.v if node == self.u else self.u


@dataclass(frozen=True)
class MovableJob:
    id: str
    weight: int
    eligible: frozenset[str]
    mask: int  # instance.mask(eligible): both push cores search its bits


@dataclass(frozen=True)
class Component:
    nodes: tuple[str, ...]
    edges: tuple[EdgeJob, ...]
    kind: str  # isolated | tree | cycle | one_cycle | multi_cycle


class EdgeGraph:
    """Multigraph of edge jobs over the machines (node order preserved).

    Components are found in one pass linear in nodes and edges, up to the
    sort of each component's nodes and edges: a node with no edge becomes an
    isolated component at once, and a walk visits each edge from both ends.
    The same pass records the component of every node that has an edge and
    whether any component has two cycles.
    """

    def __init__(self, nodes: tuple[str, ...], edges: tuple[EdgeJob, ...]):
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        self._order = {v: i for i, v in enumerate(self.nodes)}
        self._adjacency: dict[str, list[EdgeJob]] = {v: [] for v in self.nodes}
        for e in self.edges:
            self._adjacency[e.u].append(e)
            self._adjacency[e.v].append(e)
        self._components: list[Component] | None = None
        self._component_of: dict[str, int] = {}
        self._multi_cycle = False

    def incident(self, node: str) -> list[EdgeJob]:
        return self._adjacency[node]

    def order(self, node: str) -> int:
        return self._order[node]

    def components(self) -> list[Component]:
        if self._components is None:
            self._components = self._compute_components()
        return self._components

    def _compute_components(self) -> list[Component]:
        adjacency = self._adjacency
        seen = self._component_of  # the walks' seen set, by component index
        out = []
        for start in self.nodes:
            if not adjacency[start]:
                out.append(Component((start,), (), "isolated"))
                continue
            if start in seen:
                continue
            here = seen[start] = len(out)
            stack, nodes, by_id = [start], [], {}
            while stack:
                v = stack.pop()
                nodes.append(v)
                for e in adjacency[v]:
                    by_id[e.id] = e
                    w = e.v if v == e.u else e.u
                    if w not in seen:
                        seen[w] = here
                        stack.append(w)
            nodes.sort(key=self._order.__getitem__)
            edges = tuple(by_id[i] for i in sorted(by_id))
            n, k = len(nodes), len(edges)
            if k == n - 1:
                kind = "tree"
            elif k > n:
                kind = "multi_cycle"
                self._multi_cycle = True
            else:
                cyclic = all(len(adjacency[v]) == 2 for v in nodes)
                kind = "cycle" if cyclic else "one_cycle"
            out.append(Component(tuple(nodes), edges, kind))
        return out


def _prune_to_core(graph: EdgeGraph, comp: Component):
    """Strip the pendant trees of a cycle or one-cycle component,
    least-index leaf first.

    Returns ``(core_nodes, core_edges, folds)`` where each fold is
    ``(edge, head)`` with the head on the side away from the cycle.
    """
    degree = {v: len(graph.incident(v)) for v in comp.nodes}
    leaves = [(graph.order(v), v) for v in comp.nodes if degree[v] == 1]
    heapify(leaves)
    stripped: set[str] = set()
    folds: list[tuple[EdgeJob, str]] = []
    while leaves:
        _, leaf = heappop(leaves)
        edge = next(e for e in graph.incident(leaf) if e.id not in stripped)
        stripped.add(edge.id)
        folds.append((edge, leaf))
        inner = edge.other(leaf)
        degree[inner] -= 1
        if degree[inner] == 1:
            heappush(leaves, (graph.order(inner), inner))
    core_nodes = tuple(v for v in comp.nodes if degree[v] >= 2)
    core_edges = tuple(e for e in comp.edges if e.id not in stripped)
    return core_nodes, core_edges, folds


def _cycle_sequence(graph: EdgeGraph, nodes, edges):
    """Walk a simple cycle: returns ``[(v_i, e_i)]`` with e_i joining
    v_i to v_{i+1 mod k}."""
    incident: dict[str, list[EdgeJob]] = {v: [] for v in nodes}
    for e in edges:
        incident[e.u].append(e)
        incident[e.v].append(e)
    start = min(nodes, key=graph.order)
    seq = []
    used: set[str] = set()
    v = start
    while True:
        nxt = next(
            e for e in sorted(incident[v], key=lambda e: e.id) if e.id not in used
        )
        used.add(nxt.id)
        seq.append((v, nxt))
        v = nxt.other(v)
        if v == start:
            break
    return seq


def _away_from(graph: EdgeGraph, root: str) -> list[tuple[EdgeJob, str]]:
    """Every edge of *root*'s tree as ``(edge, head)``, pointing away from
    *root*, each parent's edge before its children's."""
    walk: list[tuple[EdgeJob, str]] = []
    seen = {root}
    frontier = [root]
    while frontier:
        x = frontier.pop()
        for e in graph.incident(x):
            y = e.other(x)
            if y not in seen:
                walk.append((e, y))
                seen.add(y)
                frontier.append(y)
    return walk


def min_edge_load_into(graph: EdgeGraph, subset) -> int | None:
    """Minimum total edge-job weight any valid orientation sends into *subset*.

    A valid orientation gives every node at most one incoming edge, so a
    tree points away from one of its nodes, and a cycle, once its pendant
    trees are forced away from it, takes one of its two rotations.  Each
    tree root's cost follows from its parent's by turning one edge.  Only
    the components *subset* meets are visited, and a tree it meets in one
    node adds 0 without a walk: rooted there, it sends nothing into
    *subset*.  Returns ``None`` when some component admits no valid
    orientation at all.
    """
    subset = set(subset)
    unknown = {v for v in subset if v not in graph._order}
    if unknown:
        raise KeyError(f"unknown nodes in subset: {sorted(unknown)}")
    components = graph.components()
    if graph._multi_cycle:
        return None
    met: dict[int, int] = {}  # component index -> nodes of subset in it
    for v in subset:
        i = graph._component_of.get(v)  # a node with no edge takes no load
        if i is not None:
            met[i] = met.get(i, 0) + 1
    total = 0
    for i, count in met.items():
        comp = components[i]
        if comp.kind in ("cycle", "one_cycle"):
            core_nodes, core_edges, folds = _prune_to_core(graph, comp)
            total += sum(e.weight for e, head in folds if head in subset)
            seq = _cycle_sequence(graph, core_nodes, core_edges)
            total += min(
                sum(e.weight for v, e in seq if e.other(v) in subset),
                sum(e.weight for v, e in seq if v in subset),
            )
        elif count > 1:  # a tree: the cost of each root's orientation
            root = comp.nodes[0]
            walk = _away_from(graph, root)
            cost = {root: sum(e.weight for e, head in walk if head in subset)}
            for e, head in walk:
                tail = e.other(head)
                cost[head] = cost[tail] + e.weight * ((tail in subset) - (head in subset))
            total += min(cost.values())
    return total


def orient_components(graph: EdgeGraph, preferred) -> dict[str, str]:
    """Orient every edge so each node takes at most one incoming edge.

    A tree points away from its first node, in graph order, for which
    ``preferred(node)`` holds, or else from its first node; cycles follow
    the rotation of :func:`_cycle_sequence`.  Returns the head machine of
    each edge job.  Only isolated, tree and cycle components are admissible.
    """
    head: dict[str, str] = {}
    for comp in graph.components():
        if comp.kind == "tree":
            root = next((v for v in comp.nodes if preferred(v)), comp.nodes[0])
            for e, y in _away_from(graph, root):
                head[e.id] = y
        elif comp.kind == "cycle":
            for v, e in _cycle_sequence(graph, comp.nodes, comp.edges):
                head[e.id] = e.other(v)
        elif comp.kind != "isolated":
            raise InvariantViolation(
                f"cannot orient a {comp.kind} component at {comp.nodes[0]}"
            )
    return head


# ---------------------------------------------------------------------------
# Guess context
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwinFold:
    """Record of a parallel edge pair replaced by one movable.

    The heavier edge job follows the surviving movable; the lighter one takes
    the opposite endpoint.  With equal weights no movable survives and the
    split is fixed as heavy->u, light->v.
    """

    movable_id: str | None
    heavy_edge: str
    light_edge: str
    u: str
    v: str


@dataclass(frozen=True)
class GuessContext:
    """Everything the cores need for one guessed makespan."""

    instance: Instance
    t: int
    regime: Regime
    dedicated: dict[str, int]
    movables: tuple[MovableJob, ...]
    graph: EdgeGraph
    forced: tuple[tuple[str, str], ...]
    twins: tuple[TwinFold, ...] = field(default=())
    # what a core builds once for this reduced state (relief's flow
    # network); contexts of one memoised edge set share it
    cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def machine_ids(self) -> tuple[str, ...]:
        return self.instance.machine_ids

    def index(self, machine: str) -> int:
        return self.instance.machine_index[machine]

    def job_items(self) -> list[tuple[str, int, list[str]]]:
        """Every remaining multi-machine job as ``(id, weight, eligible)``,
        eligible machines in instance order, sorted by job id."""
        items = [(p.id, p.weight, self.instance.sorted_eligible(p)) for p in self.movables]
        for e in self.graph.edges:  # the reduction orders each edge's ends
            items.append((e.id, e.weight, [e.u, e.v]))
        items.sort(key=lambda item: item[0])
        return items

    def expand(self, core_assignment: dict[str, str]) -> dict[str, str]:
        """Translate a reduced-instance assignment back to the original jobs."""
        synthetic = {tw.movable_id for tw in self.twins if tw.movable_id is not None}
        full = {
            job: machine
            for job, machine in core_assignment.items()
            if job not in synthetic
        }
        for tw in self.twins:
            if tw.movable_id is None:
                full[tw.heavy_edge] = tw.u
                full[tw.light_edge] = tw.v
            else:
                spot = core_assignment[tw.movable_id]
                other = tw.v if spot == tw.u else tw.u
                full[tw.heavy_edge] = spot
                full[tw.light_edge] = other
        for job, machine in self.forced:
            full[job] = machine
        return full

    def check_loads(self, assignment: dict[str, str], bound: int) -> None:
        """Raise ``InvariantViolation`` if a machine's dedicated load plus the
        reduced jobs *assignment* puts on it exceeds *bound*."""
        loads = dict(self.dedicated)
        for job in (*self.movables, *self.graph.edges):
            loads[assignment[job.id]] += job.weight
        for v, load in loads.items():
            if load > bound:
                raise InvariantViolation(
                    f"machine {v} finished at load {load} above the bound {bound}"
                )

    def reduction_events(self) -> list[dict]:
        """The folds that made this context, in the order made: single-machine
        jobs, edges forced off pendant trees, then parallel pairs."""
        jobs = self.instance.job_index
        events = []
        for job_id, machine in self.forced:
            job = jobs[job_id]
            if len(job.eligible) == 1:
                op, key = "fold_single", "job"
            else:
                op, key = "fold_forced_edge", "edge"
            events.append({"op": op, key: job_id, "machine": machine, "weight": job.weight})
        for tw in self.twins:
            events.append(
                {
                    "op": "fold_parallel_pair",
                    "edges": [tw.heavy_edge, tw.light_edge],
                    "nodes": [tw.u, tw.v],
                    "folded_weight": jobs[tw.light_edge].weight,
                    "movable": tw.movable_id,
                }
            )
        return events

    def declare(self, kind: str, **fields) -> Declaration:
        """Declare this guess infeasible: a *kind* witness of the core's
        *fields*, then the regime's mode fields."""
        return Declaration(self.t, kind, {**fields, **self.regime.fields})


@dataclass
class _SolveBasis:
    """What every guess of one solve shares: single-machine jobs folded into
    the dedicated loads, the multi-machine jobs in instance order, and their
    weights sorted ascending."""

    instance: Instance
    regime: Regime
    multi: tuple[JobSpec, ...]
    weights: list[int]
    max_weight: int
    dedicated: dict[str, int]
    peak: int
    forced: tuple[tuple[str, str], ...]


@dataclass
class _EdgeSetReduction:
    """The reductions of one edge set, shared by every guess that has it.

    ``checkpoints`` holds ``(peak, dedicated)`` after each fold pass and each
    twin pass, in order: a guess below a checkpoint's peak overflows there.
    Past the checkpoints, ``multi_cycle`` rules out every guess; without one
    ``context`` is the reduced state, at the guess that first reduced it.
    """

    checkpoints: list[tuple[int, dict[str, int]]]
    multi_cycle: Component | None = None
    context: GuessContext | None = None


_BASIS = "basis"


def _solve_basis(
    instance: Instance, mode: SolveMode, beta: Fraction | None
) -> _SolveBasis:
    regime = Regime.of(instance, mode, beta)
    dedicated = {m.id: m.dedicated_load for m in instance.machines}
    forced: list[tuple[str, str]] = []
    multi: list[JobSpec] = []
    for job in instance.jobs:
        if len(job.eligible) == 1:
            (only,) = job.eligible
            dedicated[only] += job.weight
            forced.append((job.id, only))
        else:
            multi.append(job)
    return _SolveBasis(
        instance=instance,
        regime=regime,
        multi=tuple(multi),
        weights=sorted(job.weight for job in multi),
        max_weight=instance.max_weight(),
        dedicated=dedicated,
        peak=max(dedicated.values(), default=0),
        forced=tuple(forced),
    )


def _reduce_edge_set(basis: _SolveBasis, t: int, floor: int) -> _EdgeSetReduction:
    """Split the multi-machine jobs at *floor* into edge jobs and movables,
    fold the pendant trees of one-cycle components, then replace each
    parallel edge pair by a movable of the weight difference, recording the
    dedicated loads after each of the two passes that changed them.

    A parallel pair is a cycle of two edges: a ``cycle`` component, or a
    ``one_cycle`` core once its pendant trees are folded (three parallel
    edges form a ``multi_cycle``, which returns first).  Removing edges
    creates no cycle, so the closing check finds only isolated, tree and
    cycle components.
    """
    instance = basis.instance
    order = instance.machine_index.__getitem__
    nodes = tuple(instance.machine_ids)
    dedicated = dict(basis.dedicated)
    forced = list(basis.forced)
    twins: list[TwinFold] = []
    checkpoints: list[tuple[int, dict[str, int]]] = []

    def checkpoint() -> None:
        checkpoints.append((max(dedicated.values(), default=0), dict(dedicated)))

    edge_jobs: list[EdgeJob] = []
    movables: list[MovableJob] = []
    for job in basis.multi:
        if job.weight <= floor:
            mask = instance.mask(job.eligible)
            movables.append(MovableJob(job.id, job.weight, job.eligible, mask))
        elif len(job.eligible) != 2:
            raise ValidationError(
                [
                    f"job {job.id!r} is heavy at t={t} but eligible on "
                    f"{len(job.eligible)} machines"
                ]
            )
        else:
            u, v = job.eligible
            if order(u) > order(v):
                u, v = v, u
            edge_jobs.append(EdgeJob(job.id, u, v, job.weight))
    graph = EdgeGraph(nodes, tuple(edge_jobs))
    dropped: set[str] = set()
    pairs: list[tuple[EdgeJob, ...]] = []
    for comp in graph.components():
        if comp.kind == "multi_cycle":
            return _EdgeSetReduction(checkpoints, multi_cycle=comp)
        if comp.kind == "one_cycle":
            _, core, folds = _prune_to_core(graph, comp)
            for edge, head in folds:
                dedicated[head] += edge.weight
                forced.append((edge.id, head))
                dropped.add(edge.id)
        elif comp.kind == "cycle":
            core = comp.edges
        else:
            continue
        if len(core) == 2:
            pairs.append(core)
    if dropped:
        checkpoint()

    # each edge's ends are in instance order, so (u, v) names its pair
    pairs.sort(key=lambda pair: (order(pair[0].u), order(pair[0].v)))
    for pair in pairs:
        first, second = sorted(pair, key=lambda e: (-e.weight, e.id))
        u, v = first.u, first.v
        dedicated[u] += second.weight
        dedicated[v] += second.weight
        diff = first.weight - second.weight
        if diff > 0:
            pid = f"~{first.id}+{second.id}"
            ends = frozenset((u, v))
            movables.append(MovableJob(pid, diff, ends, instance.mask(ends)))
            twins.append(TwinFold(pid, first.id, second.id, u, v))
        else:
            twins.append(TwinFold(None, first.id, second.id, u, v))
        dropped.update((first.id, second.id))
    if pairs:
        checkpoint()

    if dropped:
        graph = EdgeGraph(nodes, tuple(e for e in edge_jobs if e.id not in dropped))
    for comp in graph.components():
        if comp.kind not in ("isolated", "tree", "cycle") or (
            comp.kind == "cycle" and len(comp.nodes) < 3
        ):
            raise InvariantViolation(
                f"reduced graph kept a {comp.kind} component on {list(comp.nodes)}"
            )
    context = GuessContext(
        instance=instance,
        t=t,
        regime=basis.regime,
        dedicated=dedicated,
        movables=tuple(movables),
        graph=graph,
        forced=tuple(forced),
        twins=tuple(twins),
    )
    return _EdgeSetReduction(checkpoints, context=context)


def _overflow(basis: _SolveBasis, t: int, loads: dict[str, int]) -> Declaration:
    machine = next(v for v, load in loads.items() if load > t)
    return Declaration(
        t,
        DEDICATED_OVERFLOW,
        {"machine": machine, "dedicated": loads[machine], **basis.regime.fields},
    )


def reduce_instance(
    instance: Instance,
    t: int,
    mode: SolveMode,
    beta: Fraction | None = None,
    memo: dict | None = None,
) -> GuessContext | Declaration:
    """Apply all guess-t reductions, or declare the guess impossible.

    In order: fold single-machine jobs, check dedicated loads against t,
    split the rest into edge jobs and movables, reject components with two
    or more cycles, fold pendant trees of one-cycle components, and replace
    parallel edge pairs by a movable of the weight difference, checking the
    dedicated loads after each of these passes.  ``forced`` and ``twins``
    record each fold.

    The work depends on t only through the edge set and those checks, so a
    solve passes one *memo* dict to all its guesses: singles are folded
    once, and each edge set is reduced once.  Contexts of one edge set share
    their dedicated loads, movables, graph and fold records; cores must not
    mutate them.  The guesses of one solve share one :class:`Regime`, built
    as :func:`validate` builds it: ``auto`` mode raises ``ValueError``, and
    a beta outside [4/7, 1), or none in general mode, raises
    :class:`ValidationError`.
    """
    if memo is None:
        memo = {}
    basis = memo.get(_BASIS)
    if basis is None:
        basis = memo[_BASIS] = _solve_basis(instance, mode, beta)
    elif (
        basis.instance is not instance
        or basis.regime.mode != mode
        or basis.regime.beta != beta
    ):
        raise ValueError("the memo belongs to another instance, mode or beta")
    if t < basis.max_weight:
        raise RegimeError(
            f"guess t={t} is below the maximum job weight {basis.max_weight}"
        )

    if basis.peak > t:
        return _overflow(basis, t, basis.dedicated)
    floor = basis.regime.edge_floor(t)
    # edge sets are suffixes of the sorted weights: key one by its length
    key = bisect_right(basis.weights, floor)
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = _reduce_edge_set(basis, t, floor)
    for peak, loads in entry.checkpoints:
        if peak > t:
            return _overflow(basis, t, loads)
    if entry.multi_cycle is not None:
        comp = entry.multi_cycle
        return Declaration(
            t,
            MULTI_CYCLE_COMPONENT,
            {
                "nodes": list(comp.nodes),
                "edges": [e.id for e in comp.edges],
                **basis.regime.fields,
            },
        )
    return replace(entry.context, t=t)
