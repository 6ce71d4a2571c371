"""Vertex-connectivity, edge-connectivity and Eulerian classification.

Both connectivities are computed via unit-capacity max-flow (Menger), which
suffices at desk scale and yields an explicit minimum cut as a witness.
Non-strong inputs are an error: neither invariant is defined for them here.
The public functions guard against them with one strongness search each;
the guard-free bodies, ``_vertex_connectivity`` and ``_edge_connectivity``,
serve callers that have just decided strongness themselves, as the
verifier's object-level cross-check does.

Each invariant builds one flow network per digraph and runs every vertex
pair's flow on a copy of its capacities, in ``_least_cut``. Each flow is
capped at the least value found so far: a pair that reaches the cap cannot
lower the minimum, and a pair below it runs to completion, so the nodes
its last search reached are the source side of the minimum cut that an
uncapped flow would give. The first pair at the minimum therefore gives
the witness, as with a separate network per pair. The first pair is capped
at n, which no flow reaches: a kappa flow is at most n - 2 and a lambda
flow at most n - 1. In the vertex-split network of kappa no flow uses the
split arc of its own source or sink (the search starts past the first and
stops before the second), so one network with unit split arcs serves
every pair.

A pair whose flow is known to reach the cap is not run at all. Each
common neighbour w of s and t (s -> w -> t) gives a path of its own, so
their count bounds both flows from below, and for lambda so does the arc
s -> t on top of it. A pair whose bound reaches the cap would have
returned the cap with no side; skipping it changes no minimum and no
first pair at the minimum, so the values and witness cuts stay those of
the flows run on every pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

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

    def max_flow(self, s: int, t: int, limit: int) -> tuple[int, set[int]]:
        """min(maximum s-t flow, ``limit``), and the source side of a least cut.

        A flow that stops below ``limit`` has run to completion: its last
        search fails to reach t, and the nodes it reached are the source
        side of a minimum s-t cut. A flow that reaches ``limit`` stops
        there, with an empty side.
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
                return total, set(queue)
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
        return total, set()


def _least_cut(net: _FlowNetwork, pairs, limit: int, cut_of) -> ConnectivityResult | None:
    """The least flow over the (s, t, lower) ``pairs``, and ``cut_of`` the side of the first at it.

    Each flow is capped at the least value so far, ``limit`` at first, so
    a pair returns a side exactly when it lowers the minimum. ``lower`` is
    a lower bound on the pair's flow: a pair whose bound reaches the cap
    would reach it too, so its flow is not run. Stops at 1, the least flow
    in a strong digraph; None when there is no pair.
    """
    best = None
    for s, t, lower in pairs:
        if lower >= limit:
            continue
        value, side = net.max_flow(s, t, limit)
        if side:
            best = ConnectivityResult(value, cut_of(side))
            if value == 1:
                break
            limit = value
    return best


def vertex_connectivity(D: Digraph) -> ConnectivityResult:
    """kappa(D): fewest vertices whose removal destroys strongness.

    The least s-t vertex cut over the ordered pairs (s, t) with no arc
    s -> t, as a max flow from out(s) to in(t) in one vertex-split network:
    in(v) = 2v, out(v) = 2v + 1, a split arc in(v) -> out(v) of capacity 1
    for every vertex, and an arc out(u) -> in(v) of capacity n + 1 for every
    arc uv. The split arcs of s and t never carry flow: the search starts
    at out(s), past s's split arc, and stops on reaching in(t), before t's.
    So they need not be widened per pair. The network's rows and adjacency
    are read off D's out- and in-lists. Each flow stops at the least value
    found so far, a pair with at least that many common neighbours
    (s -> w -> t, each w in every s-t cut) is skipped, and the first pair
    at the minimum gives the witness.

    The complete digraph has no vertex cut; by convention it reports
    n - 1 with an empty witness.
    """
    if D.order < 2:
        raise ValueError("vertex connectivity needs order >= 2")
    if not is_strong(D):
        raise NotStrongError("vertex connectivity is defined for strong digraphs only")
    return _vertex_connectivity(D)


def _vertex_connectivity(D: Digraph) -> ConnectivityResult:
    """``vertex_connectivity`` of a digraph known to be strong, of order >= 2: no guard."""
    n = D.order
    net = _FlowNetwork(2 * n)
    cap, adj = net.cap, net.adj
    for v, (out_v, in_v) in enumerate(zip(D.out_lists, D.in_lists)):
        cap[2 * v][2 * v + 1] = 1
        row, into, out_of = cap[2 * v + 1], adj[2 * v], adj[2 * v + 1]
        into.append(2 * v + 1)
        out_of.append(2 * v)
        for w in out_v:
            row[2 * w] = n + 1
            out_of.append(2 * w)
        for u in in_v:
            into.append(2 * u + 1)
    succ = list(map(frozenset, D.out_lists))
    pairs = (
        (2 * s + 1, 2 * t, len(succ[s].intersection(D.in_lists[t])))
        for s, t in permutations(range(n), 2)
        if t not in succ[s]
    )
    best = _least_cut(net, pairs, n, lambda side: frozenset(
        v for v in range(n) if 2 * v in side and 2 * v + 1 not in side
    ))
    return best or ConnectivityResult(n - 1, frozenset())


def edge_connectivity(D: Digraph) -> ConnectivityResult:
    """lambda(D): fewest arcs whose removal destroys strongness.

    A minimum arc cut separates vertex 0 from some vertex in one of the two
    directions, so 2(n-1) unit-capacity flow runs suffice, all on one
    network of D's arcs. Each flow stops at the least value found so far,
    a pair with at least that many arc-disjoint paths of length one or two
    is skipped, and the first pair at the minimum gives the witness. The
    mask core's ``lambda_mask`` counts the arcs leaving every vertex set
    instead, so the verifier's object-level cross-check shares no rule
    with it.
    """
    if D.order < 2:
        raise ValueError("edge connectivity needs order >= 2")
    if not is_strong(D):
        raise NotStrongError("edge connectivity is defined for strong digraphs only")
    return _edge_connectivity(D)


def _edge_connectivity(D: Digraph) -> ConnectivityResult:
    """``edge_connectivity`` of a digraph known to be strong, of order >= 2: no guard."""
    n = D.order
    net = _FlowNetwork(n)
    for u, v in D.arcs:
        net.add_edge(u, v, 1)
    # the paths 0 -> w -> v, and the arc 0 -> v, share no arc; so too from v to 0
    outs, ins = D.out_lists, D.in_lists
    succ, pred = frozenset(outs[0]), frozenset(ins[0])
    pairs = (
        pair
        for v in range(1, n)
        for pair in (
            (0, v, len(succ.intersection(ins[v])) + (v in succ)),
            (v, 0, len(pred.intersection(outs[v])) + (v in pred)),
        )
    )
    best = _least_cut(net, pairs, n, lambda side: frozenset(
        (a, b) for a, b in D.arcs if a in side and b not in side
    ))
    assert best is not None
    return best


def is_eulerian(D: Digraph) -> bool:
    """Strong with in-degree equal to out-degree at every vertex."""
    if not all(D.out_degree(v) == D.in_degree(v) for v in range(D.order)):
        return False
    return is_strong(D)


def min_semidegree(D: Digraph) -> int:
    """min over vertices of min(out-degree, in-degree)."""
    return min(min(D.out_degree(v), D.in_degree(v)) for v in range(D.order))
