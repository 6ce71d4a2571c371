"""Vertex-connectivity, edge-connectivity and Eulerian classification.

Both connectivities are computed via unit-capacity max-flow (Menger), which
suffices at desk scale and yields an explicit minimum cut as a witness.
Non-strong inputs are an error: neither invariant is defined for them here.
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
    """Tiny Edmonds-Karp max-flow on integer capacities."""

    def __init__(self, n_nodes: int):
        self.n = n_nodes
        self.cap: dict[tuple[int, int], int] = {}
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]

    def add_edge(self, u: int, v: int, capacity: int) -> None:
        if (u, v) not in self.cap:
            self.cap[(u, v)] = 0
            self.cap[(v, u)] = self.cap.get((v, u), 0)
            self.adj[u].append(v)
            self.adj[v].append(u)
        self.cap[(u, v)] += capacity

    def max_flow(self, s: int, t: int) -> int:
        cap = dict(self.cap)
        total = 0
        while True:
            parent = {s: s}
            queue = deque([s])
            while queue and t not in parent:
                u = queue.popleft()
                for v in self.adj[u]:
                    if v not in parent and cap[(u, v)] > 0:
                        parent[v] = u
                        queue.append(v)
            if t not in parent:
                break
            bottleneck = None
            v = t
            while v != s:
                u = parent[v]
                c = cap[(u, v)]
                bottleneck = c if bottleneck is None else min(bottleneck, c)
                v = u
            v = t
            while v != s:
                u = parent[v]
                cap[(u, v)] -= bottleneck
                cap[(v, u)] += bottleneck
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
                if v not in seen and cap[(u, v)] > 0:
                    seen.add(v)
                    queue.append(v)
        return seen


def _vertex_cut_flow(D: Digraph, s: int, t: int) -> tuple[int, frozenset[int]]:
    """Minimum s-t vertex cut via the standard vertex-split network."""
    n = D.order
    big = n + 1
    net = _FlowNetwork(2 * n)
    # in(v) = 2v, out(v) = 2v + 1
    for v in range(n):
        net.add_edge(2 * v, 2 * v + 1, big if v in (s, t) else 1)
    for u, v in D.arcs:
        net.add_edge(2 * u + 1, 2 * v, big)
    value = net.max_flow(2 * s + 1, 2 * t)
    side = net.min_cut_side()
    cut = frozenset(v for v in range(n) if 2 * v in side and 2 * v + 1 not in side)
    return value, cut


def vertex_connectivity(D: Digraph) -> ConnectivityResult:
    """kappa(D): fewest vertices whose removal destroys strongness.

    The complete digraph has no vertex cut; by convention it reports
    n - 1 with an empty witness.
    """
    if D.order < 2:
        raise ValueError("vertex connectivity needs order >= 2")
    if not is_strong(D):
        raise NotStrongError("vertex connectivity is defined for strong digraphs only")
    n = D.order
    best: tuple[int, frozenset[int]] | None = None
    for s in range(n):
        for t in range(n):
            if s == t or D.has_arc(s, t):
                continue
            value, cut = _vertex_cut_flow(D, s, t)
            if best is None or value < best[0]:
                best = (value, cut)
                if value == 1:
                    return ConnectivityResult(1, cut)
    if best is None:
        return ConnectivityResult(n - 1, frozenset())
    return ConnectivityResult(best[0], best[1])


def _arc_cut_flow(D: Digraph, s: int, t: int) -> tuple[int, frozenset[tuple[int, int]]]:
    net = _FlowNetwork(D.order)
    for u, v in D.arcs:
        net.add_edge(u, v, 1)
    value = net.max_flow(s, t)
    side = net.min_cut_side()
    cut = frozenset((u, v) for u, v in D.arcs if u in side and v not in side)
    return value, cut


def edge_connectivity(D: Digraph) -> ConnectivityResult:
    """lambda(D): fewest arcs whose removal destroys strongness.

    A minimum arc cut separates vertex 0 from some vertex in one of the two
    directions, so 2(n-1) unit-capacity flow runs suffice. The mask core's
    ``lambda_mask`` takes the n cycle pairs instead; these star pairs stay,
    so that the verifier's object-level cross-check does not share its rule.
    """
    if D.order < 2:
        raise ValueError("edge connectivity needs order >= 2")
    if not is_strong(D):
        raise NotStrongError("edge connectivity is defined for strong digraphs only")
    best: tuple[int, frozenset[tuple[int, int]]] | None = None
    for v in range(1, D.order):
        for s, t in ((0, v), (v, 0)):
            value, cut = _arc_cut_flow(D, s, t)
            if best is None or value < best[0]:
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
