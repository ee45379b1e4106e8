"""Relief core: max-flow, then rounding within t + W - 1, or a max-flow cut
certificate.

Used by the two-valued driver once the guess is at least twice the heavy
weight (then no edge jobs remain), and usable for any reduced context.  An
integral max-flow decides whether the jobs fit fractionally within t on top of
the dedicated loads (Lenstra, Shmoys & Tardos, Math. Prog. 1990).  If they do
not, the machines on the source side of the minimum cut hold captive jobs
that overfill them, which is the declaration.  If they do, the flow is
rounded into an assignment that exceeds t by at most W - 1, where W is the
largest remaining job weight.
"""

from __future__ import annotations

from .errors import InvariantViolation
from .preprocess import Declaration, GuessContext, PREFLOW_HEIGHT


def run_relief(ctx: GuessContext) -> tuple[dict[str, str] | Declaration, int]:
    t = ctx.t
    network = ctx.cache.get("relief")
    if network is None or not network.serves(ctx):
        network = ctx.cache["relief"] = _FlowNetwork(ctx)
    items = network.items
    if not items:
        ctx.check_loads({}, t)
        return {}, 0

    feasible, result = network.check(ctx, t)
    if not feasible:
        cut_machines, captive = result
        return ctx.declare(PREFLOW_HEIGHT, cut=cut_machines, captive_jobs=captive), 0

    assignment = _round_flow(ctx, items, result)
    ctx.check_loads(assignment, t + max(w for _, w, _ in items) - 1)
    return assignment, 0


# ---------------------------------------------------------------------------
# Exact fractional check (max-flow) and rounding
# ---------------------------------------------------------------------------


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[list[int]]] = [[] for _ in range(n)]  # [to, cap, rev]
        # the last breadth-first labels: after max_flow, the nodes with a
        # level >= 0 are the source side of a minimum cut
        self.level = [-1] * n

    def add(self, u: int, v: int, cap: int) -> list[int]:
        arc = [v, cap, len(self.adj[v])]
        self.adj[u].append(arc)
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])
        return arc

    def max_flow(self, s: int, tt: int) -> int:
        flow = 0
        while True:
            self.level = level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for arc in self.adj[u]:
                    if arc[1] > 0 and level[arc[0]] < 0:
                        level[arc[0]] = level[u] + 1
                        queue.append(arc[0])
            if level[tt] < 0:
                return flow
            flow += self._blocking_flow(s, tt, level)

    def _blocking_flow(self, s: int, tt: int, level: list[int]) -> int:
        """Push bottlenecks along s-tt paths of the level graph until none is
        left.

        Depth-first with an explicit stack; ``it`` keeps each node's current
        arc, and a dead end advances its parent's arc.  After an augment the
        search resumes at the tail of the first arc it saturated: every arc
        before it still has capacity and is still current at its tail, so a
        restart from the source would walk that prefix again.
        """
        it = [0] * self.n
        flow = 0
        nodes = [s]
        arcs: list[list[int]] = []
        while nodes:
            u = nodes[-1]
            if u == tt:
                caps = [arc[1] for arc in arcs]
                got = min(caps)
                for arc in arcs:
                    arc[1] -= got
                    self.adj[arc[0]][arc[2]][1] += got
                flow += got
                cut = caps.index(got)
                del nodes[cut + 1:], arcs[cut:]
                continue
            adj = self.adj[u]
            while it[u] < len(adj):
                arc = adj[it[u]]
                if arc[1] > 0 and level[arc[0]] == level[u] + 1:
                    nodes.append(arc[0])
                    arcs.append(arc)
                    break
                it[u] += 1
            else:
                nodes.pop()
                if arcs:
                    arcs.pop()
                    it[nodes[-1]] += 1
        return flow


class _FlowNetwork:
    """Fractional feasibility of one reduced state by integral max-flow.

    Source to each job (its weight), job to each eligible machine
    (unbounded), machine to sink (``t`` minus its dedicated load).  Only the
    sink capacities depend on the guess, so the network is built once per
    reduced state; each check restores every arc's capacity, in the same
    arc order, and sets the sink capacities for its guess.
    """

    def __init__(self, ctx: GuessContext):
        self.dedicated, self.movables, self.graph = ctx.dedicated, ctx.movables, ctx.graph
        self.items = items = ctx.job_items()
        self.machines = machines = ctx.machine_ids
        self.job_ids = [jid for jid, _, _ in items]
        self.total = sum(w for _, w, _ in items)
        n = 2 + len(self.job_ids) + len(machines)
        self.source, self.sink = 0, n - 1
        self.job_node = {jid: 1 + i for i, jid in enumerate(self.job_ids)}
        self.machine_node = {v: 1 + len(self.job_ids) + i for i, v in enumerate(machines)}
        self.net = net = _Dinic(n)
        self.unconstrained = self.total + 1
        self.job_arcs = []  # (job, machine, arc), in items and eligibility order
        for jid, w, elig in items:
            net.add(self.source, self.job_node[jid], w)
            for v in elig:
                arc = net.add(self.job_node[jid], self.machine_node[v], self.unconstrained)
                self.job_arcs.append((jid, v, arc))
        self.sink_arcs = [
            (v, net.add(self.machine_node[v], self.sink, 0)) for v in machines
        ]
        self.capacities = [(arc, arc[1]) for adj in net.adj for arc in adj]

    def serves(self, ctx: GuessContext) -> bool:
        return (
            self.dedicated is ctx.dedicated
            and self.movables is ctx.movables
            and self.graph is ctx.graph
        )

    def check(self, ctx: GuessContext, t: int):
        """Returns ``(True, units)`` with ``units[(job, machine)]`` the
        integral flow split, or ``(False, (cut_machines, captive_jobs))``
        where the cut that Dinic's last breadth-first search labels gives
        machines whose captive jobs provably overfill them."""
        net = self.net
        for arc, cap in self.capacities:
            arc[1] = cap
        for v, arc in self.sink_arcs:
            arc[1] = max(t - ctx.dedicated[v], 0)
        value = net.max_flow(self.source, self.sink)
        if value < self.total:
            level = net.level
            cut_machines = sorted(
                (v for v in self.machines if level[self.machine_node[v]] >= 0),
                key=ctx.index,
            )
            captive = sorted(jid for jid in self.job_ids if level[self.job_node[jid]] >= 0)
            return False, (cut_machines, captive)
        units: dict[tuple[str, str], int] = {}
        for jid, v, arc in self.job_arcs:
            sent = self.unconstrained - arc[1]
            if sent > 0:
                units[(jid, v)] = sent
        return True, units


def _round_flow(ctx: GuessContext, items, units) -> dict[str, str]:
    """Round an integral fractional split into a whole assignment.

    Cancels cycles in the bipartite support graph (loads unchanged), then in
    the remaining forest matches every split job to a child machine, which
    holds at least one unit of it.  That machine gains at most weight-1 beyond
    its fractional load.
    """
    split: dict[str, dict[str, int]] = {}
    assignment: dict[str, str] = {}
    for (jid, v), amount in units.items():
        split.setdefault(jid, {})[v] = amount
    for jid, shares in list(split.items()):
        if len(shares) == 1:
            (v,) = shares
            assignment[jid] = v
            del split[jid]

    # The 2-core of the bipartite support graph, kept up to date: cancelling
    # a cycle only deletes edges, and the 2-core of a subgraph is the 2-core
    # of the old 2-core minus the deleted edges, so only their endpoints
    # need re-pruning.
    core: dict[tuple, set[tuple]] = {}
    for jid, shares in split.items():
        for v in shares:
            core.setdefault(("j", jid), set()).add(("m", v))
            core.setdefault(("m", v), set()).add(("j", jid))

    def prune(queue: list[tuple]) -> None:
        while queue:
            nd = queue.pop()
            if nd not in core or len(core[nd]) > 1:
                continue
            for nb in core.pop(nd):
                core[nb].discard(nd)
                queue.append(nb)

    def drop(jid: str, v: str) -> None:
        job, machine = ("j", jid), ("m", v)
        if job in core and machine in core[job]:
            core[job].discard(machine)
            core[machine].discard(job)
            prune([job, machine])

    def find_cycle():
        if not core:
            return None
        start = min(core, key=str)
        walk = [start]
        position = {start: 0}
        prev = None
        while True:
            cur = walk[-1]
            nxt = min((nb for nb in core[cur] if nb != prev), key=str)
            if nxt in position:
                return walk[position[nxt]:]
            position[nxt] = len(walk)
            walk.append(nxt)
            prev = cur

    prune(list(core))
    while (cycle := find_cycle()) is not None:
        pairs = []
        for i, node in enumerate(cycle):
            nxt = cycle[(i + 1) % len(cycle)]
            jid = node[1] if node[0] == "j" else nxt[1]
            mid = nxt[1] if nxt[0] == "m" else node[1]
            pairs.append(((jid, mid), i % 2 == 0))
        delta = min(split[j][m] for (j, m), minus in pairs if minus)
        for (j, m), minus in pairs:
            split[j][m] += -delta if minus else delta
            if split[j][m] == 0:
                del split[j][m]
                drop(j, m)
        for jid in sorted({j for (j, _), _ in pairs}):
            if len(split[jid]) == 1:
                (v,) = split.pop(jid)
                assignment[jid] = v
                drop(jid, v)

    # Forest: root every component at a machine; each split job then has at
    # least one child machine holding >= 1 unit of it.
    adjacency: dict[tuple, list[tuple]] = {}
    for jid, shares in split.items():
        for v in shares:
            adjacency.setdefault(("j", jid), []).append(("m", v))
            adjacency.setdefault(("m", v), []).append(("j", jid))
    visited: set[tuple] = set()
    for start in sorted(adjacency, key=lambda nd: (nd[0] != "m", str(nd[1]))):
        if start in visited or start[0] != "m":
            continue
        order = [(start, None)]
        visited.add(start)
        head = 0
        while head < len(order):
            node, parent_node = order[head]
            head += 1
            if node[0] == "j":
                children = [c for c in adjacency[node] if c != parent_node]
                if not children:
                    raise InvariantViolation(
                        "split job with no child machine in support forest"
                    )
                assignment[node[1]] = min(children, key=lambda c: ctx.index(c[1]))[1]
            for nxt in adjacency[node]:
                if nxt not in visited:
                    visited.add(nxt)
                    order.append((nxt, node))

    if set(assignment) != {jid for jid, _, _ in items}:
        raise InvariantViolation("rounding left a job unassigned")
    return assignment
