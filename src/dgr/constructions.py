"""Generators for the extremal construction families.

Families are built block by block with canonical vertex labels (block 0
first, left to right), so tests can address the distinguished source
vertex 0 deterministically. Sizes are always obtained by counting the
constructed arc/edge set; closed-form size expressions live in
``claimed_sizes`` as audit targets only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import bounds as bounds_mod
from .core import Digraph, Graph, NotStrongError, bidirect, is_strong


def _block_ranges(block_sizes: list[int]) -> list[range]:
    if not block_sizes:
        raise ValueError("block list must be nonempty")
    if any(s < 1 for s in block_sizes):
        raise ValueError("block sizes must be positive")
    ranges = []
    start = 0
    for s in block_sizes:
        ranges.append(range(start, start + s))
        start += s
    return ranges


def sequential_sum_graph(block_sizes: list[int]) -> Graph:
    """Complete blocks joined completely between consecutive blocks."""
    ranges = _block_ranges(list(block_sizes))
    n = sum(block_sizes)
    edges = set()
    for block in ranges:
        for u in block:
            for v in block:
                if u < v:
                    edges.add((u, v))
    for left, right in zip(ranges, ranges[1:]):
        for u in left:
            for v in right:
                edges.add((u, v))
    return Graph(n, frozenset(edges))


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
    ranges = _block_ranges(list(block_sizes))
    n = sum(block_sizes)
    arcs = set()
    for block in ranges:
        for u in block:
            for v in block:
                if u != v:
                    arcs.add((u, v))
    for left, right in zip(ranges, ranges[1:]):
        for u in left:
            for v in right:
                arcs.add((u, v))
                arcs.add((v, u))
    for i in range(2, len(ranges)):
        for j in range(i - 1):
            for u in ranges[i]:
                for v in ranges[j]:
                    arcs.add((u, v))
    return Digraph(n, frozenset(arcs))


@dataclass(frozen=True)
class PathCompleteParams:
    """Parameters (kappa, ell, a, b) of one family member.

    The member has block sizes [1, kappa * ell times, a, b] and order
    1 + ell*kappa + a + b. The definition requires a >= kappa; ell = 0 is
    admitted only through the relaxed flag on the generators.
    """

    kappa: int
    ell: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.kappa < 1 or self.a < 1 or self.b < 1 or self.ell < 0:
            raise ValueError("parameters must be positive (ell may be 0)")
        if self.a < self.kappa:
            raise ValueError(f"a = {self.a} must be at least kappa = {self.kappa}")

    @property
    def order(self) -> int:
        return 1 + self.ell * self.kappa + self.a + self.b

    @property
    def block_sizes(self) -> list[int]:
        return [1] + [self.kappa] * self.ell + [self.a, self.b]


def kappa_pc_digraph(p: PathCompleteParams, relaxed_ell: bool = False) -> Digraph:
    """Backward sum realising the given family member."""
    if p.ell < 1 and not relaxed_ell:
        raise ValueError("ell >= 1 required (pass relaxed_ell=True to allow 0)")
    return backward_sum(p.block_sizes)


def pc_graph(p: PathCompleteParams, relaxed_ell: bool = False) -> Graph:
    """Undirected analogue: sequential sum of complete blocks."""
    if p.ell < 1 and not relaxed_ell:
        raise ValueError("ell >= 1 required (pass relaxed_ell=True to allow 0)")
    return sequential_sum_graph(p.block_sizes)


def enumerate_kappa_pc_family(
    n: int, kappa: int, relaxed_ell: bool = False
) -> list[PathCompleteParams]:
    """All feasible (ell, a, b) with 1 + ell*kappa + a + b = n, a >= kappa.

    Ordered lexicographically by (ell, b), matching the family's natural
    containment order.
    """
    if kappa < 1:
        raise ValueError("kappa must be positive")
    members = []
    ell_min = 0 if relaxed_ell else 1
    ell = ell_min
    while 1 + ell * kappa + kappa + 1 <= n:
        rest = n - 1 - ell * kappa
        for b in range(1, rest - kappa + 1):
            a = rest - b
            if a >= kappa:
                members.append(PathCompleteParams(kappa, ell, a, b))
        ell += 1
    members.sort(key=lambda p: (p.ell, p.b))
    return members


def _select_min_size(members, size_of, m, what):
    sizes = [size_of(p) for p in members]
    if len(set(sizes)) != len(sizes):
        raise AssertionError(f"family sizes are not pairwise distinct: {sorted(sizes)}")
    feasible = [(s, p) for s, p in zip(sizes, members) if s >= m]
    if not feasible:
        raise ValueError(
            f"no {what} member has size >= {m} (family maximum is {max(sizes)})"
        )
    return min(feasible, key=lambda sp: sp[0])[1]


def dpk_select(
    n: int, m: int, kappa: int, relaxed_ell: bool = False
) -> tuple[Digraph, PathCompleteParams]:
    """Minimum-size family member of order n with at least m arcs.

    Sizes are counted on the constructed digraphs; pairwise distinctness
    is asserted rather than assumed.
    """
    if m > n * (n - 1):  # above the complete digraph, refused before any build
        raise ValueError(f"no digraph of order {n} has size >= {m} (at most {n * (n - 1)})")
    members = enumerate_kappa_pc_family(n, kappa, relaxed_ell)
    if not members:
        raise ValueError(f"no feasible parameters for order {n}, kappa {kappa}")
    chosen = _select_min_size(
        members, lambda p: kappa_pc_digraph(p, relaxed_ell=True).size, m, "digraph family"
    )
    return kappa_pc_digraph(chosen, relaxed_ell=True), chosen


def pk_select(
    n: int, m: int, kappa: int, relaxed_ell: bool = False
) -> tuple[Graph, PathCompleteParams]:
    """Undirected selector mirroring dpk_select with exact edge counting."""
    if m > n * (n - 1) // 2:  # above the complete graph, refused before any build
        raise ValueError(f"no graph of order {n} has size >= {m} (at most {n * (n - 1) // 2})")
    members = enumerate_kappa_pc_family(n, kappa, relaxed_ell)
    if not members:
        raise ValueError(f"no feasible parameters for order {n}, kappa {kappa}")
    chosen = _select_min_size(
        members, lambda p: pc_graph(p, relaxed_ell=True).size, m, "graph family"
    )
    return pc_graph(chosen, relaxed_ell=True), chosen


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
    def _tail(self) -> list[int]:
        """The blocks after the k repeats of [1, lam]."""
        if self.variant == "A":
            return [self.a, self.b]
        if self.variant == "B":
            return [1, self.a, self.b]
        return [2, self.a, 1]

    @property
    def block_sizes(self) -> list[int]:
        return [1, self.lam] * self.k + self._tail

    @property
    def order(self) -> int:
        # closed form, so that a huge k is refused before any list is built
        return (1 + self.lam) * self.k + sum(self._tail)


def lambda_pc_graph(p: LambdaPCParams) -> Graph:
    return sequential_sum_graph(p.block_sizes)


def enumerate_lambda_pc_family(n: int, lam: int) -> list[LambdaPCParams]:
    """All members of order n over the three variants, deduplicated by shape."""
    if lam not in (2, 3):
        raise ValueError("lam must be 2 or 3")
    members = []
    seen_blocks = set()

    def add(p: LambdaPCParams) -> None:
        key = tuple(p.block_sizes)
        if key not in seen_blocks:
            seen_blocks.add(key)
            members.append(p)

    k = 1
    while k * (1 + lam) + 2 <= n:  # variant A
        rest = n - k * (1 + lam)
        for a in range(1, rest):
            b = rest - a
            if a * b >= lam:
                add(LambdaPCParams(lam, k, a, b, "A"))
        k += 1
    k = 0
    while k * (1 + lam) + 1 + lam + 1 <= n:  # variant B
        rest = n - k * (1 + lam) - 1
        for a in range(lam, rest):
            b = rest - a
            add(LambdaPCParams(lam, k, a, b, "B"))
        k += 1
    if lam == 3:
        k = 1
        while 4 * k + 3 + 3 <= n:  # variant C
            a = n - 4 * k - 3
            add(LambdaPCParams(lam, k, a, 1, "C"))
            k += 1
    return members


def pk_lambda_select(n: int, m: int, lam: int) -> tuple[Graph, LambdaPCParams]:
    """Minimum-size member of order n with at least m edges.

    Unlike the vertex-connectivity family, equal sizes can occur across
    variants; ties break on (variant, k, a, b).
    """
    if m > n * (n - 1) // 2:  # above the complete graph, refused before any build
        raise ValueError(f"no graph of order {n} has size >= {m} (at most {n * (n - 1) // 2})")
    members = enumerate_lambda_pc_family(n, lam)
    if not members:
        raise ValueError(f"no feasible parameters for order {n}, lambda {lam}")
    ranked = sorted(
        ((lambda_pc_graph(p).size, p.variant, p.k, p.a, p.b, p) for p in members),
        key=lambda t: t[:5],
    )
    for size, *_rest, p in ranked:
        if size >= m:
            return lambda_pc_graph(p), p
    raise ValueError(
        f"no member has size >= {m} (family maximum is {ranked[-1][0]})"
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


def construction_size(obj) -> int:
    """Arc/edge count of the actually constructed object.

    Accepts family parameters, a block-size list (counted as a backward
    sum), or an already built Digraph/Graph.
    """
    if isinstance(obj, PathCompleteParams):
        return backward_sum(obj.block_sizes).size
    if isinstance(obj, LambdaPCParams):
        return lambda_pc_graph(obj).size
    if isinstance(obj, (Digraph, Graph)):
        return obj.size
    return backward_sum(list(obj)).size


@dataclass(frozen=True)
class ClaimedSizes:
    """Closed-form size values for one family member, for audit comparison.

    None of these is trusted: ``construction_size`` is the source of truth
    and audits record agreement or disagreement pair by pair.
    """

    prefix_size: int
    member_size_expansion: int
    sigma_source: int
    family_max: int
    family_min: Fraction


def claimed_sizes(p: PathCompleteParams) -> ClaimedSizes:
    """Evaluate the closed forms the bounds rely on, for one member."""
    kappa, ell, a, b = p.kappa, p.ell, p.a, p.b
    n = p.order
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
    sigma = kappa * ell * (ell + 1) // 2 + (ell + 1) * (a + b) + b
    b0 = bounds_mod._congruent_b(n - 1, kappa)
    family_min = (
        Fraction(n, 2) * (3 * kappa + n) - n - kappa * kappa - b0 * (kappa - b0)
    )
    return ClaimedSizes(
        prefix_size=prefix,
        member_size_expansion=expansion,
        sigma_source=sigma,
        family_max=n * n - 2 * n - 1,
        family_min=family_min,
    )
