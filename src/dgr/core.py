"""Immutable digraph/graph values and exact distance invariants.

Vertices are the integers ``0 .. order-1``. All ratio-valued invariants
(average distance, remoteness) are ``fractions.Fraction``; floating point
never enters a computation. An unreachable vertex is reported as ``None``,
never as a large finite distance.

A ``Digraph`` keeps one BFS distance row per source, beside its
out-lists: the first question about a source runs its BFS, and every
later distance, transmission, eccentricity, profile, remoteness or
diameter question about it reads the stored row. ``is_strong`` runs its
own two searches, along the out-lists and the in-lists from vertex 0.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

Arc = tuple[int, int]


class NotStrongError(ValueError):
    """Raised when an operation requires a strongly connected digraph."""


class UnreachableVertexError(ValueError):
    """Raised when a distance sum needs a vertex the source cannot reach."""


def _check_endpoints(order: int, u: int, v: int) -> None:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    if not (0 <= u < order and 0 <= v < order):
        raise ValueError(f"endpoint out of range: ({u}, {v}) with order {order}")


@dataclass(frozen=True)
class Digraph:
    """Directed graph value: vertex set {0..order-1} plus an arc set.

    Immutable and hashable; safe to share across workers. Self-loops and
    out-of-range endpoints are rejected at construction.
    """

    order: int
    arcs: frozenset[Arc]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be a positive integer")
        arcs = frozenset((u, v) for u, v in self.arcs)
        for u, v in arcs:
            _check_endpoints(self.order, u, v)
        object.__setattr__(self, "arcs", arcs)

    @property
    def size(self) -> int:
        """Number of arcs m(D)."""
        return len(self.arcs)

    @cached_property
    def out_lists(self) -> tuple[tuple[int, ...], ...]:
        """Sorted out-neighbour lists, built once per digraph."""
        succ: list[list[int]] = [[] for _ in range(self.order)]
        for u, v in self.arcs:
            succ[u].append(v)
        return tuple(tuple(sorted(s)) for s in succ)

    @cached_property
    def _distance_rows(self) -> list[Optional[list[Optional[int]]]]:
        """Per source, its BFS distance row once a question has asked for it, else None.

        Filled in place by ``_row``, so each source's BFS runs at most once
        per digraph. No row leaves the module uncopied.
        """
        return [None] * self.order

    @cached_property
    def in_lists(self) -> tuple[tuple[int, ...], ...]:
        pred: list[list[int]] = [[] for _ in range(self.order)]
        for u, v in self.arcs:
            pred[v].append(u)
        return tuple(tuple(sorted(p)) for p in pred)

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    def out_degree(self, v: int) -> int:
        return len(self.out_lists[v])

    def in_degree(self, v: int) -> int:
        return len(self.in_lists[v])

    def with_arc(self, u: int, v: int) -> "Digraph":
        """Copy of this digraph with one extra arc."""
        _check_endpoints(self.order, u, v)
        return Digraph(self.order, self.arcs | {(u, v)})

    def reverse(self) -> "Digraph":
        return Digraph(self.order, frozenset((v, u) for u, v in self.arcs))


@dataclass(frozen=True)
class Graph:
    """Undirected graph value; edges stored as (min, max) pairs."""

    order: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be a positive integer")
        edges = frozenset((min(u, v), max(u, v)) for u, v in self.edges)
        for u, v in edges:
            _check_endpoints(self.order, u, v)
        object.__setattr__(self, "edges", edges)

    @property
    def size(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.order)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


@dataclass(frozen=True)
class DistanceProfile:
    """Distance degree sequence of a source vertex: counts[i] = #vertices at distance i."""

    counts: tuple[int, ...]
    source: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        if not self.counts or self.counts[0] != 1:
            raise ValueError("profile must start with a single source vertex")
        if any(c <= 0 for c in self.counts):
            raise ValueError("profile counts must be positive")

    @property
    def eccentricity(self) -> int:
        return len(self.counts) - 1

    @property
    def order(self) -> int:
        return sum(self.counts)


def build_digraph(order: int, arcs: Iterable[Arc]) -> Digraph:
    """Validated digraph from an arc list; duplicates collapse (set semantics)."""
    return Digraph(order, frozenset((u, v) for u, v in arcs))


def build_graph(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validated graph from an edge list; duplicates collapse."""
    return Graph(order, frozenset((u, v) for u, v in edges))


def _check_vertex(D: Digraph, v: int) -> None:
    if not (0 <= v < D.order):
        raise ValueError(f"vertex {v} out of range for order {D.order}")


def _bfs_distances(succ: tuple[tuple[int, ...], ...], v: int) -> list[Optional[int]]:
    """BFS distance vector from v along the neighbour lists ``succ``; None if unreached."""
    dist: list[Optional[int]] = [None] * len(succ)
    dist[v] = 0
    queue = deque([v])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in succ[u]:
            if dist[w] is None:
                dist[w] = du + 1
                queue.append(w)
    return dist


def _row(D: Digraph, v: int) -> list[Optional[int]]:
    """The stored BFS distance row of source v, running the BFS on first use; read only."""
    _check_vertex(D, v)
    rows = D._distance_rows
    row = rows[v]
    if row is None:
        row = rows[v] = _bfs_distances(D.out_lists, v)
    return row


def distances_from(D: Digraph, v: int) -> list[Optional[int]]:
    """BFS distance vector from v, a copy of the stored row; unreachable entries are None."""
    return list(_row(D, v))


def is_strong(D: Digraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path.

    That is, vertex 0 reaches every vertex along the out-lists and along
    the in-lists; no reversed digraph is built.
    """
    return None not in _bfs_distances(D.out_lists, 0) and None not in _bfs_distances(D.in_lists, 0)


def _reached_distances(D: Digraph, v: int) -> list[int]:
    """The stored distances from v; ``UnreachableVertexError`` names the first vertex v misses."""
    dist = _row(D, v)
    if None in dist:
        raise UnreachableVertexError(f"vertex {dist.index(None)} unreachable from {v}")
    return dist  # type: ignore[return-value]


def transmission(D: Digraph, v: int) -> int:
    """Sum of distances from v to every vertex; errors on unreachability."""
    return sum(_reached_distances(D, v))


def avg_distance(D: Digraph, v: int) -> Fraction:
    """Arithmetic mean of the distances from v, as an exact rational."""
    if D.order < 2:
        raise ValueError("average distance needs order >= 2")
    return Fraction(transmission(D, v), D.order - 1)


def remoteness(D: Digraph) -> tuple[Fraction, int]:
    """Maximum average distance and the smallest vertex attaining it.

    Reads every source's distance row, running the BFS of those not yet
    stored: D is strong iff every vertex reaches every other, so the first
    unreachable entry raises ``NotStrongError``.
    """
    if D.order < 2:
        raise ValueError("remoteness needs order >= 2")
    best = -1
    witness = 0
    for v in range(D.order):
        try:
            sigma = transmission(D, v)
        except UnreachableVertexError:
            raise NotStrongError("remoteness is defined for strong digraphs only") from None
        if sigma > best:
            best = sigma
            witness = v
    return Fraction(best, D.order - 1), witness


def eccentricity(D: Digraph, v: int) -> int:
    """Largest distance from v; errors if v cannot reach every vertex."""
    return max(_reached_distances(D, v))


def diameter(D: Digraph) -> int:
    """Maximum eccentricity over all vertices; requires a strong digraph."""
    if not is_strong(D):
        raise NotStrongError("diameter is defined for strong digraphs only")
    return max(eccentricity(D, v) for v in range(D.order))


def distance_profile(D: Digraph, v: int) -> DistanceProfile:
    """Distance degree sequence (n_0, ..., n_d) of v."""
    dist = _reached_distances(D, v)
    counts = [0] * (max(dist) + 1)
    for d in dist:
        counts[d] += 1
    return DistanceProfile(tuple(counts), v)


def bidirect(G: Graph) -> Digraph:
    """Replace every edge by a pair of opposite arcs."""
    arcs = set()
    for u, v in G.edges:
        arcs.add((u, v))
        arcs.add((v, u))
    return Digraph(G.order, frozenset(arcs))


def underlying_graph(D: Digraph) -> Graph:
    """Edge uv present iff at least one of the arcs (u,v), (v,u) is."""
    return Graph(D.order, frozenset((min(u, v), max(u, v)) for u, v in D.arcs))


def complement(D: Digraph) -> Digraph:
    """All missing ordered pairs become arcs; m(D) + m(complement) = n(n-1)."""
    n = D.order
    arcs = frozenset(
        (u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in D.arcs
    )
    return Digraph(n, arcs)


def directed_cycle(n: int) -> Digraph:
    """The directed n-cycle 0 -> 1 -> ... -> n-1 -> 0."""
    if n < 2:
        raise ValueError("directed cycle needs order >= 2")
    return Digraph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def complete_digraph(n: int) -> Digraph:
    """Bidirected complete digraph: every ordered pair is an arc."""
    return Digraph(n, frozenset((u, v) for u in range(n) for v in range(n) if u != v))


def complete_graph(n: int) -> Graph:
    return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def path_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))
