"""Vertex-connectivity, edge-connectivity and Eulerian classification.

Both connectivities are computed via unit-capacity max-flow (Menger), which
suffices at desk scale and yields an explicit minimum cut as a witness.
Non-strong inputs are an error: neither invariant is defined for them here.

Each invariant builds one flow network per digraph and runs every vertex
pair's flow on a copy of its capacities. Each flow is capped at the least
value found so far: a pair that reaches the cap cannot lower the minimum,
and a pair below it runs to completion, so its residual network gives the
minimum cut that an uncapped flow would. The first pair at the minimum
therefore gives the witness, as with a separate network per pair. The first
pair is capped at n, which no flow reaches: a kappa flow is at most n - 2
and a lambda flow at most n - 1. In the
vertex-split network of kappa no flow uses the split arc of its own source
or sink (the search starts past the first and stops before the second), so
one network with unit split arcs serves every pair.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import Digraph, NotStrongError, is_strong


@dataclass(frozen=True)
class ConnectivityResult:
    """Exact connectivity value plus a realising minimum cut.

    The witness is a frozenset of vertices (vertex-connectivity) or arcs
    (edge-connectivity); it is empty only under the complete-digraph
    convention kappa = n - 1, where no vertex cut exists.
    """

    value: int
    witness_cut: frozenset


class _FlowNetwork:
    """Tiny Edmonds-Karp max-flow on integer capacities.

    ``max_flow`` works on a copy of the capacities, so one network serves
    every (s, t) pair of a digraph.
    """

    def __init__(self, n_nodes: int):
        self.n = n_nodes
        self.cap: list[list[int]] = [[0] * n_nodes for _ in range(n_nodes)]
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]

    def add_edge(self, u: int, v: int, capacity: int) -> None:
        if v not in self.adj[u]:
            self.adj[u].append(v)
            self.adj[v].append(u)
        self.cap[u][v] += capacity

    def max_flow(self, s: int, t: int, limit: int) -> int:
        """The maximum s-t flow, or ``limit`` once the flow reaches it.

        That is min(max flow, limit). A flow that stops below ``limit``
        has run to completion, so ``min_cut_side`` then gives a minimum cut.
        """
        cap = [row[:] for row in self.cap]
        adj = self.adj
        total = 0
        while total < limit:
            parent = [-1] * self.n
            parent[s] = s
            queue = [s]  # breadth first: the loop reads what it appends
            for u in queue:
                row = cap[u]
                for v in adj[u]:
                    if parent[v] < 0 and row[v] > 0:
                        parent[v] = u
                        queue.append(v)
                if parent[t] >= 0:
                    break
            if parent[t] < 0:
                break
            bottleneck = limit - total
            v = t
            while v != s:
                u = parent[v]
                bottleneck = min(bottleneck, cap[u][v])
                v = u
            v = t
            while v != s:
                u = parent[v]
                cap[u][v] -= bottleneck
                cap[v][u] += bottleneck
                v = u
            total += bottleneck
        self._residual = cap
        self._source = s
        return total

    def min_cut_side(self) -> set[int]:
        """Nodes reachable from the source in the last residual network."""
        cap = self._residual
        seen = {self._source}
        queue = deque([self._source])
        while queue:
            u = queue.popleft()
            for v in self.adj[u]:
                if v not in seen and cap[u][v] > 0:
                    seen.add(v)
                    queue.append(v)
        return seen


def vertex_connectivity(D: Digraph) -> ConnectivityResult:
    """kappa(D): fewest vertices whose removal destroys strongness.

    The least s-t vertex cut over the ordered pairs (s, t) with no arc
    s -> t, as a max flow from out(s) to in(t) in one vertex-split network:
    in(v) = 2v, out(v) = 2v + 1, a split arc in(v) -> out(v) of capacity 1
    for every vertex, and an arc out(u) -> in(v) of capacity n + 1 for every
    arc uv. The split arcs of s and t never carry flow: the search starts
    at out(s), past s's split arc, and stops on reaching in(t), before t's.
    So they need not be widened per pair. Each flow stops at the least
    value found so far, and the first pair at the minimum gives the
    witness.

    The complete digraph has no vertex cut; by convention it reports
    n - 1 with an empty witness.
    """
    if D.order < 2:
        raise ValueError("vertex connectivity needs order >= 2")
    if not is_strong(D):
        raise NotStrongError("vertex connectivity is defined for strong digraphs only")
    n = D.order
    net = _FlowNetwork(2 * n)
    for v in range(n):
        net.add_edge(2 * v, 2 * v + 1, 1)
    for u, v in D.arcs:
        net.add_edge(2 * u + 1, 2 * v, n + 1)
    best: tuple[int, frozenset[int]] | None = None
    for s in range(n):
        for t in range(n):
            if s == t or D.has_arc(s, t):
                continue
            value = net.max_flow(2 * s + 1, 2 * t, best[0] if best else n)
            if best is None or value < best[0]:
                side = net.min_cut_side()
                cut = frozenset(v for v in range(n) if 2 * v in side and 2 * v + 1 not in side)
                best = (value, cut)
                if value == 1:
                    return ConnectivityResult(1, cut)
    if best is None:
        return ConnectivityResult(n - 1, frozenset())
    return ConnectivityResult(best[0], best[1])


def edge_connectivity(D: Digraph) -> ConnectivityResult:
    """lambda(D): fewest arcs whose removal destroys strongness.

    A minimum arc cut separates vertex 0 from some vertex in one of the two
    directions, so 2(n-1) unit-capacity flow runs suffice, all on one
    network of D's arcs. Each flow stops at the least value found so far,
    and the first pair at the minimum gives the witness. The mask core's
    ``lambda_mask`` counts the arcs leaving every vertex set instead, so
    the verifier's object-level cross-check shares no rule with it.
    """
    if D.order < 2:
        raise ValueError("edge connectivity needs order >= 2")
    if not is_strong(D):
        raise NotStrongError("edge connectivity is defined for strong digraphs only")
    n = D.order
    net = _FlowNetwork(n)
    for u, v in D.arcs:
        net.add_edge(u, v, 1)
    best: tuple[int, frozenset[tuple[int, int]]] | None = None
    for v in range(1, n):
        for s, t in ((0, v), (v, 0)):
            value = net.max_flow(s, t, best[0] if best else n)
            if best is None or value < best[0]:
                side = net.min_cut_side()
                cut = frozenset((a, b) for a, b in D.arcs if a in side and b not in side)
                best = (value, cut)
                if value == 1:
                    return ConnectivityResult(1, cut)
    assert best is not None
    return ConnectivityResult(best[0], best[1])


def is_eulerian(D: Digraph) -> bool:
    """Strong with in-degree equal to out-degree at every vertex."""
    if not all(D.out_degree(v) == D.in_degree(v) for v in range(D.order)):
        return False
    return is_strong(D)


def min_semidegree(D: Digraph) -> int:
    """min over vertices of min(out-degree, in-degree)."""
    return min(min(D.out_degree(v), D.in_degree(v)) for v in range(D.order))
