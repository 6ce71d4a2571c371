"""Generators for the extremal construction families.

Families are built block by block with canonical vertex labels (block 0
first, left to right), so tests can address the distinguished source
vertex 0 deterministically. Both sums of complete blocks follow one rule
on block positions, stated once in ``_next_block_ends``: u -> v is an arc
exactly when v's block is at most one after u's. The backward sum takes
every such pair, the sequential sum (undirected) those with u < v. Both
sizes follow from three sums of the block sizes (``BlockSums``: the
order, the sum of squares and the sum of consecutive products), which
each member's parameters give in closed form. The selectors rank plain
parameter tuples by those sizes, make the parameter object and build the
member only for the one they choose, and assert that its built arc/edge
set has the counted size.
The paper's closed-form sizes of one member live in ``claimed_sizes`` as
audit targets only; the family-wide claims (largest and smallest size)
live in ``bounds``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import mul
from typing import Iterator, NamedTuple

from .core import Digraph, Graph, NotStrongError, bidirect, is_strong


def _next_block_ends(block_sizes: list[int]) -> list[int]:
    """For each vertex, one past the last vertex of the block after its own.

    The family rule on block positions: u -> v is an arc exactly when v's
    block is at most one after u's, that is, when v is below this end.
    The last block's vertices end at the order.
    """
    if not block_sizes:
        raise ValueError("block list must be nonempty")
    if any(s < 1 for s in block_sizes):
        raise ValueError("block sizes must be positive")
    ends = []
    start = 0
    for s, nxt in zip(block_sizes, [*block_sizes[1:], 0]):
        ends += [start + s + nxt] * s
        start += s
    return ends


def sequential_sum_graph(block_sizes: list[int]) -> Graph:
    """Complete blocks joined completely between consecutive blocks."""
    ends = _next_block_ends(list(block_sizes))
    edges = frozenset((u, v) for u, end in enumerate(ends) for v in range(u + 1, end))
    return Graph(len(ends), edges)


class BlockSums(NamedTuple):
    """The three sums of a block list that its family sizes depend on."""

    total: int  # the order, the sum of the block sizes
    squares: int  # the sum of their squares
    adjacent: int  # the sum of the products of consecutive blocks


def block_sums(block_sizes: list[int]) -> BlockSums:
    """``BlockSums`` of a block list, summed over its blocks."""
    return BlockSums(
        sum(block_sizes),
        sum(map(mul, block_sizes, block_sizes)),
        sum(map(mul, block_sizes, block_sizes[1:])),
    )


def _sequential_size(sums: BlockSums) -> int:
    """C(c, 2) per block c, plus the products of consecutive blocks."""
    return (sums.squares - sums.total) // 2 + sums.adjacent


def _backward_size(sums: BlockSums) -> int:
    """Twice the sequential sum's edges, plus the skip arcs.

    The s_i * s_j skip arcs from block i to each block j <= i - 2 are all
    (total**2 - sum of squares) / 2 block pairs, less the consecutive ones.
    """
    skips = (sums.total * sums.total - sums.squares) // 2 - sums.adjacent
    return 2 * _sequential_size(sums) + skips


def sequential_sum_size(block_sizes: list[int]) -> int:
    """Edges of ``sequential_sum_graph(block_sizes)``."""
    return _sequential_size(block_sums(block_sizes))


def backward_sum_size(block_sizes: list[int]) -> int:
    """Arcs of ``backward_sum(block_sizes)``."""
    return _backward_size(block_sums(block_sizes))


def profile_digraph(block_sizes: list[int]) -> Digraph:
    """Bidirected sequential sum of complete blocks.

    Eulerian by construction; when the first block is a single vertex its
    distance profile from vertex 0 equals the block sizes.
    """
    return bidirect(sequential_sum_graph(block_sizes))


def backward_sum(block_sizes: list[int]) -> Digraph:
    """Sequential sum of complete digraphs plus all backward skip arcs.

    Consecutive blocks are joined in both directions; every vertex of a
    block also sends one arc to every vertex of each block two or more
    positions earlier. Forward skip arcs are structurally absent.
    """
    ends = _next_block_ends(list(block_sizes))
    arcs = frozenset((u, v) for u, end in enumerate(ends) for v in range(end) if v != u)
    return Digraph(len(ends), arcs)


@dataclass(frozen=True)
class PathCompleteParams:
    """Parameters (kappa, ell, a, b) of one family member.

    The member has block sizes [1, kappa * ell times, a, b] and order
    1 + ell*kappa + a + b. The definition requires ell >= 1 and a >= kappa.
    """

    kappa: int
    ell: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.kappa < 1 or self.ell < 1 or self.a < 1 or self.b < 1:
            raise ValueError("parameters kappa, ell, a and b must be positive")
        if self.a < self.kappa:
            raise ValueError(f"a = {self.a} must be at least kappa = {self.kappa}")

    @property
    def order(self) -> int:
        return self.block_sums.total

    @property
    def block_sizes(self) -> list[int]:
        return [1] + [self.kappa] * self.ell + [self.a, self.b]

    @property
    def block_sums(self) -> BlockSums:
        """``block_sums(self.block_sizes)`` in closed form, without the list."""
        return _kappa_pc_sums(self.kappa, self.ell, self.a, self.b)


def _kappa_pc_sums(kappa: int, ell: int, a: int, b: int) -> BlockSums:
    """``BlockSums`` of the member with these parameters, from the parameters alone."""
    return BlockSums(
        1 + ell * kappa + a + b,
        1 + ell * kappa * kappa + a * a + b * b,
        # consecutive products: 1 * kappa, ell - 1 of kappa * kappa, kappa * a, a * b
        kappa + (ell - 1) * kappa * kappa + kappa * a + a * b,
    )


def kappa_pc_digraph(p: PathCompleteParams) -> Digraph:
    """Backward sum realising the given family member."""
    return backward_sum(p.block_sizes)


def pc_graph(p: PathCompleteParams) -> Graph:
    """Undirected analogue: sequential sum of complete blocks."""
    return sequential_sum_graph(p.block_sizes)


def _kappa_pc_params(n: int, kappa: int) -> Iterator[tuple[int, int, int]]:
    """(ell, a, b) of every member of order n: 1 + ell*kappa + a + b = n, a >= kappa.

    Yielded lexicographically by (ell, b), matching the family's natural
    containment order.
    """
    if kappa < 1:
        raise ValueError("kappa must be positive")
    ell = 1
    while 1 + ell * kappa + kappa + 1 <= n:
        rest = n - 1 - ell * kappa
        for b in range(1, rest - kappa + 1):
            yield ell, rest - b, b
        ell += 1


def enumerate_kappa_pc_family(n: int, kappa: int) -> list[PathCompleteParams]:
    """All feasible (ell, a, b) with 1 + ell*kappa + a + b = n, a >= kappa.

    Ordered lexicographically by (ell, b), matching the family's natural
    containment order.
    """
    return [PathCompleteParams(kappa, *params) for params in _kappa_pc_params(n, kappa)]


def _distinct_sizes(sized: list[tuple[int, tuple]]) -> list[tuple[int, tuple]]:
    """(size, parameters) pairs by increasing size, the sizes asserted pairwise distinct."""
    sizes = {size for size, _ in sized}
    if len(sizes) != len(sized):
        raise AssertionError(f"family sizes are not pairwise distinct: {sorted(sizes)}")
    return sorted(sized, key=lambda sp: sp[0])


def _select_min_size(ranked, member, build, m, what):
    """The first of the (size, parameters) pairs ``ranked`` with size >= m, built.

    Only that pair's parameters become a ``member`` and are built, and the
    built size must equal the count.
    """
    for size, params in ranked:
        if size >= m:
            p = member(*params)
            obj = build(p)
            assert obj.size == size, f"{p} built with size {obj.size}, counted {size}"
            return obj, p
    raise ValueError(f"no {what} member has size >= {m} (family maximum is {ranked[-1][0]})")


def _kappa_pc_select(n: int, m: int, kappa: int, size_of, build, what: str):
    """The member of least size >= m, its ``size_of`` block sums, ranked over (ell, a, b)."""
    sized = [(size_of(_kappa_pc_sums(kappa, *t)), t) for t in _kappa_pc_params(n, kappa)]
    if not sized:
        raise ValueError(f"no feasible parameters for order {n}, kappa {kappa}")
    return _select_min_size(
        _distinct_sizes(sized), partial(PathCompleteParams, kappa), build, m, what
    )


def dpk_select(n: int, m: int, kappa: int) -> tuple[Digraph, PathCompleteParams]:
    """Minimum-size family member of order n with at least m arcs.

    Sizes are counted from each member's parameters, and pairwise
    distinctness is asserted rather than assumed; only the chosen member
    becomes a ``PathCompleteParams`` and is built.
    """
    if m > n * (n - 1):  # above the complete digraph, refused before any build
        raise ValueError(f"no digraph of order {n} has size >= {m} (at most {n * (n - 1)})")
    return _kappa_pc_select(n, m, kappa, _backward_size, kappa_pc_digraph, "digraph family")


def pk_select(n: int, m: int, kappa: int) -> tuple[Graph, PathCompleteParams]:
    """Undirected selector mirroring dpk_select with exact edge counting."""
    if m > n * (n - 1) // 2:  # above the complete graph, refused before any build
        raise ValueError(f"no graph of order {n} has size >= {m} (at most {n * (n - 1) // 2})")
    return _kappa_pc_select(n, m, kappa, _sequential_size, pc_graph, "graph family")


@dataclass(frozen=True)
class LambdaPCParams:
    """Parameters of one edge-connectivity family member.

    Variant A: [K_1 + K_lam]^k + K_a + K_b        (k >= 1, a*b >= lam)
    Variant B: [K_1 + K_lam]^k + K_1 + K_a + K_b  (a >= lam)
    Variant C: [K_1 + K_3]^k + K_2 + K_a + K_1    (lam = 3, k >= 1, a >= 3)
    """

    lam: int
    k: int
    a: int
    b: int
    variant: str

    def __post_init__(self) -> None:
        if self.lam not in (2, 3):
            raise ValueError("lam must be 2 or 3")
        if self.k < 0 or self.a < 1 or self.b < 1:
            raise ValueError("k must be >= 0 and a, b positive")
        if self.variant == "A":
            if self.k < 1 or self.a * self.b < self.lam:
                raise ValueError("variant A requires k >= 1 and a*b >= lam")
        elif self.variant == "B":
            if self.a < self.lam:
                raise ValueError("variant B requires a >= lam")
        elif self.variant == "C":
            if self.lam != 3 or self.k < 1 or self.a < 3:
                raise ValueError("variant C requires lam = 3, k >= 1 and a >= 3")
            if self.b != 1:
                raise ValueError("variant C fixes b = 1")
        else:
            raise ValueError(f"unknown variant {self.variant!r}")

    @property
    def block_sizes(self) -> list[int]:
        return [1, self.lam] * self.k + _lambda_tail(self.a, self.b, self.variant)

    @property
    def order(self) -> int:
        # closed form, so that a huge k is refused before any list is built
        return self.block_sums.total

    @property
    def block_sums(self) -> BlockSums:
        """``block_sums(self.block_sizes)`` in closed form, without the k repeats."""
        return _lambda_pc_sums(self.lam, self.k, self.a, self.b, self.variant)


def _lambda_tail(a: int, b: int, variant: str) -> list[int]:
    """The blocks after the k repeats of [1, lam]."""
    if variant == "A":
        return [a, b]
    if variant == "B":
        return [1, a, b]
    return [2, a, 1]


def _lambda_pc_sums(lam: int, k: int, a: int, b: int, variant: str) -> BlockSums:
    """``BlockSums`` of the member with these parameters, without the k repeats."""
    tail = _lambda_tail(a, b, variant)
    sums = block_sums(tail)
    # consecutive products: k of 1 * lam, k - 1 of lam * 1, lam * the tail's first
    joins = lam * (2 * k - 1 + tail[0]) if k else 0
    return BlockSums(
        (1 + lam) * k + sums.total,
        sums.squares + (1 + lam * lam) * k,
        sums.adjacent + joins,
    )


def lambda_pc_graph(p: LambdaPCParams) -> Graph:
    return sequential_sum_graph(p.block_sizes)


def _lambda_pc_params(n: int, lam: int) -> Iterator[tuple[int, int, int, str]]:
    """(k, a, b, variant) of every member of order n, variant A, then B, then C."""
    if lam not in (2, 3):
        raise ValueError("lam must be 2 or 3")
    k = 1
    while k * (1 + lam) + 2 <= n:  # variant A
        rest = n - k * (1 + lam)
        for a in range(1, rest):
            b = rest - a
            if a * b >= lam:
                yield k, a, b, "A"
        k += 1
    k = 0
    while k * (1 + lam) + 1 + lam + 1 <= n:  # variant B
        rest = n - k * (1 + lam) - 1
        for a in range(lam, rest):
            yield k, a, rest - a, "B"
        k += 1
    if lam == 3:
        k = 1
        while 4 * k + 3 + 3 <= n:  # variant C
            yield k, n - 4 * k - 3, 1, "C"
            k += 1


def enumerate_lambda_pc_family(n: int, lam: int) -> list[LambdaPCParams]:
    """All members of order n over the three variants.

    No two share a block list: variant A has an even number of blocks, B
    and C an odd one, and where B and C are as long, B's block 2k is 1 and
    C's is 2. Within a variant, the length gives k and the tail a and b.
    """
    return [LambdaPCParams(lam, *params) for params in _lambda_pc_params(n, lam)]


def pk_lambda_select(n: int, m: int, lam: int) -> tuple[Graph, LambdaPCParams]:
    """Minimum-size member of order n with at least m edges.

    Unlike the vertex-connectivity family, equal sizes can occur across
    variants; ties break on (variant, k, a, b). Sizes are counted from each
    member's parameters; only the chosen member becomes a ``LambdaPCParams``
    and is built.
    """
    if m > n * (n - 1) // 2:  # above the complete graph, refused before any build
        raise ValueError(f"no graph of order {n} has size >= {m} (at most {n * (n - 1) // 2})")
    sized = [(_sequential_size(_lambda_pc_sums(lam, *t)), t) for t in _lambda_pc_params(n, lam)]
    if not sized:
        raise ValueError(f"no feasible parameters for order {n}, lambda {lam}")
    # (size, variant, k, a, b)
    ranked = sorted(sized, key=lambda sp: (sp[0], sp[1][3], *sp[1][:3]))
    return _select_min_size(
        ranked, partial(LambdaPCParams, lam), lambda_pc_graph, m, "lambda family"
    )


def shortcut_free_dipath(n: int, back_arcs: set[tuple[int, int]]) -> Digraph:
    """Hamiltonian dipath 0 -> 1 -> ... -> n-1 plus backward arcs only.

    Every supplied arc must run from a later to an earlier position, so
    forward skip arcs are structurally impossible. The result must be
    strong; its remoteness is then n/2, attained at vertex 0.
    """
    if n < 2:
        raise ValueError("order must be at least 2")
    arcs = {(i, i + 1) for i in range(n - 1)}
    for u, v in back_arcs:
        if not (0 <= v < u < n):
            raise ValueError(f"({u}, {v}) is not a backward arc")
        arcs.add((u, v))
    D = Digraph(n, frozenset(arcs))
    if not is_strong(D):
        raise NotStrongError("the chosen backward arcs do not make the dipath strong")
    return D


def has_shortcut_free_hamiltonian_dipath(D: Digraph) -> bool:
    """Whether some vertex order is a Hamiltonian dipath with no forward skips.

    Placement search: each next vertex must be an out-neighbour of the last
    placed vertex and must receive no arc from any earlier position.
    """
    n = D.order
    if n > 8:
        raise ValueError("structural test limited to order <= 8")
    if n == 1:
        return True

    def extend(order: list[int], remaining: set[int]) -> bool:
        if not remaining:
            return True
        last = order[-1]
        prefix = order[:-1]
        for w in sorted(remaining):
            if not D.has_arc(last, w):
                continue
            if any(D.has_arc(x, w) for x in prefix):
                continue
            order.append(w)
            remaining.remove(w)
            if extend(order, remaining):
                return True
            order.pop()
            remaining.add(w)
        return False

    for start in range(n):
        if extend([start], set(range(n)) - {start}):
            return True
    return False


@dataclass(frozen=True)
class ClaimedSizes:
    """Closed-form size values for one family member, for audit comparison.

    Neither is trusted: the size of the built member is the source of
    truth, and audits record agreement or disagreement pair by pair.
    """

    prefix_size: int
    member_size_expansion: int


def claimed_sizes(p: PathCompleteParams) -> ClaimedSizes:
    """Evaluate the closed forms of one member's size."""
    kappa, ell, a, b = p.kappa, p.ell, p.a, p.b
    prefix_twice = ell * kappa * kappa * (ell + 3)
    assert prefix_twice % 2 == 0
    prefix = prefix_twice // 2 - kappa * (kappa - 1)
    expansion = (
        prefix
        + (a + b) * (a + b - 1)
        + 2 * kappa * a
        + (a + b) * ell * kappa
        - (kappa - 1) * a
        + b
    )
    return ClaimedSizes(prefix_size=prefix, member_size_expansion=expansion)
