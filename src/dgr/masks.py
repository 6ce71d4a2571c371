"""Bit-parallel digraph primitives for enumeration workloads.

A digraph of order n is an arc mask: the n(n-1) off-diagonal adjacency
cells in row-major order, cell k carried by bit 2**k. This is an internal
optimisation layer; results are observably identical to the object-level
modules, which the verifier cross-checks on a deterministic stride.

Two kernels read masks. The scalar one decodes a single mask into
out-neighbour rows (``out_rows``), two rows per lookup in a per-order
table built on first use, and ``sigma_vector`` grows a ball around each
vertex on them: the counts of vertices outside the balls of radius 0, 1,
... sum to the vertex's transmission. Each ball grows by the rows of its
members, which a per-order table, ``_vertex_sets(n)``, lists
with the count outside for every one of the 2**n vertex sets; so
``sigma_vector`` refuses orders above ``CANONICAL_MAX_ORDER`` before
building it. No plane kernel reads that table, so the oracle still shares
no table or rule with them. ``is_balanced``, ``min_semidegree_mask``,
``lambda_mask`` and ``kappa_lambda_mask`` work on the mask itself.
``build_tables`` builds every per-order table a sweep reads, so that a
process pool's forked workers inherit them. The block kernel decides up
to ``2**BATCH_BITS`` masks at once by bit-slicing: each arc cell becomes
a plane, a Python int whose bit i is that cell's bit in lane i.
``range_cells`` builds the planes of an aligned block of consecutive masks
(lane i is ``base + i``; cells below the block width follow fixed lane
patterns, the others are constant), and ``draw_cells`` transposes an
arbitrary list of masks (lane i is the i-th draw) as one bit-matrix
transpose of the masks packed into 32- or 64-bit words, a few
mask/shift/xor stages over one int. On either, integer AND/OR/XOR run one
BFS per source vertex for every lane together: ``block_planes`` gives
strongness, sigma_max and size, and ``profile_planes`` splits the strong
lanes by each source's distance profile, both a level at a time through
one ``_step``; ``kappa_planes`` splits them by vertex connectivity,
running each D - S to a fixed point; and ``orbit_min_planes`` keeps the
lanes whose mask is the least of its relabellings, the orbit-minimal
witnesses of a sweep's equality hits. Two cheaper kernels need no BFS, so
a sweep runs them first, on the whole batch, as class prefilters:
``size_counter`` counts every lane's arcs (``block_planes`` takes its size
from it too; a ``range_cells`` block needs no count, as ``weight_planes``
gives its lanes by the set bits of their index) and ``balance_plane``
compares every vertex's out- and in-degree counters. The verifier then packs the lanes it keeps, across
consecutive batches, into dense batches of up to ``2**BATCH_BITS`` lanes
with ``draw_cells``, so the BFS kernels above run only on those, once per
dense batch. Per-lane numbers are bit-sliced counters: a list of planes, least
significant first, so lane i holds ``sum(((p >> i) & 1) << j)``.

``canonical_mask`` gives a digraph's canonical form, the least mask over
all n! vertex relabellings, at every order up to 8 by one path. The
relabellings are cut into blocks of 120, and per block each cell's image
bit under every relabelling of the block is packed into one int, a 32- or
64-bit word per relabelling; the sum of a mask's arcs' ints then holds its
images under the whole block, one per word, as nothing carries between
words. ``canonical_mask`` takes the least word over all blocks, reading
the words of only those blocks that hold one below the least so far.
``is_canonical`` decides a block with one subtraction against the mask
spread into every word, whose top guard bits survive exactly where an
image is at least the mask, and stops at the first block that holds a
smaller image. Both are the oracle of ``orbit_min_planes``, so they read
separate tables.

The scalar oracle's chain check kappa <= lambda <= min semidegree, run on
every stride candidate, is kept cheap. ``kappa_lambda_mask`` gives vertex
and edge connectivity, and ``lambda_mask`` the latter alone, by their
definitions, read off one table, ``_separations(n)``: a row per
vertex set S and ordered split of the other vertices into nonempty A and
B, holding |S| and the cells of the arcs from A to B. kappa is the least
|S| of a row whose cells the mask misses; lambda is the least popcount
of the mask's cells in the 2**n - 2 rows with S empty, the arcs leaving
A. Both walk one grouped view of that table, ``_separation_groups(n)``:
the rows by |S|, then by the number of cells in the cut, both
increasing. With ``missing`` the n(n-1) - m cells the mask lacks, two
facts prune the walk. A missed cut lies inside the missing cells, so its
popcount is at most ``missing``: kappa's walk skips every group wider
than that. A cut of w cells keeps at least w - ``missing`` of the mask's
arcs: lambda's walk stops at the first group where that reaches its least
count so far. It also stops at the first row that holds a single arc:
lambda is then 1, or 0 if some row no wider than ``missing`` is missed,
which a plain AND of the rest of those rows decides. ``kappa_lambda_mask``
gives both in one walk, for every stride candidate: lambda first, then
kappa = lambda where lambda is at most 1 (0 when a row is missed, and 1 by
Whitney's inequality 1 <= kappa <= lambda on a strong digraph), and
otherwise kappa's walk from |S| = 1. The walks keep no memo keyed by
mask. ``kappa_planes`` removes vertex subsets and runs BFS on D - S, and
``connectivity.vertex_connectivity`` and ``edge_connectivity`` run flows,
so neither kernel nor object level shares a table or rule with the oracle.
``min_semidegree_mask`` counts degrees by popcounts of the mask, as
``is_balanced`` does.
"""

from __future__ import annotations

import sys
from array import array
from functools import cached_property, lru_cache
from itertools import combinations, compress, islice, permutations, product, zip_longest
from math import factorial
from operator import add
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import Digraph

# canonical_mask's image blocks hold n! packed words per cell, and
# sigma_vector's vertex-set table 2**n rows
CANONICAL_MAX_ORDER = 8
# log2 of the plane kernels' batch width: a sweep's blocks, draw batches and
# dense batches hold up to 2**15 lanes, whose planes are 4 KB, and
# draw_cells pads its transpose masks to at least that many draws. Narrower
# batches spend more of each kernel call on interpreter dispatch; 2**16
# cuts that further but raises the benchmark's peak memory by 7-10%.
BATCH_BITS = 15


class MaskTables:
    """Per-order lookup tables for decoding arc masks.

    Row u of a mask, the out-arcs of vertex u, is the (n-1)-bit field at
    bit u(n-1); it skips column u, so its bits below u stay and the rest
    move up one. ``out_rows`` reads the rows two at a time: rows u and
    u + 1 for even u share one 2(n-1)-bit field, and ``row_pairs`` maps
    every value of that field to both decoded rows. At odd n the last row
    is read alone, from a table of one-row entries.
    """

    def __init__(self, n: int):
        self.n = n
        self.num_cells = n * (n - 1)
        self.full = (1 << n) - 1
        self.mask_count = 1 << self.num_cells
        self.cells = tuple((u, v) for u in range(n) for v in range(n) if v != u)
        self.bit_of = {cell: k for k, cell in enumerate(self.cells)}
        self.pair_field = (1 << 2 * (n - 1)) - 1  # the bits of two rows
        # per vertex, the cells of its out-arcs and the cells of its in-arcs
        self.degree_cells = tuple(
            (
                sum(1 << k for k, (a, _) in enumerate(self.cells) if a == u),
                sum(1 << k for k, (_, b) in enumerate(self.cells) if b == u),
            )
            for u in range(n)
        )

    @cached_property
    def row_pairs(self) -> tuple[tuple[tuple[tuple[int, ...], ...], int], ...]:
        """Per field of ``out_rows``, its decode table and its shift in the mask.

        Built on first use, from each row's own decode, with ``product``:
        3,072 entries at n = 6, about 4 MB at n = 8, which order-8
        canonical forms never read.
        """
        n = self.n
        values = range(1 << (n - 1))
        rows = [
            tuple(row & ((1 << u) - 1) | (row >> u) << (u + 1) for row in values)
            for u in range(n)
        ]
        fields = [
            # product runs its last factor fastest, so entry i holds row u's
            # decode of the low half of i and row u + 1's of the high half
            (tuple((low, high) for high, low in product(rows[u + 1], rows[u])), u * (n - 1))
            for u in range(0, n - 1, 2)
        ]
        if n % 2:
            fields.append((tuple((row,) for row in rows[n - 1]), (n - 1) ** 2))
        return tuple(fields)

    def out_rows(self, mask: int) -> list[int]:
        """Out-neighbour vertex bitmask per vertex, read two rows per lookup."""
        field = self.pair_field
        out: list[int] = []
        for table, shift in self.row_pairs:
            out += table[mask >> shift & field]
        return out


@lru_cache(maxsize=None)
def tables_for(n: int) -> MaskTables:
    return MaskTables(n)


def mask_of_digraph(D: Digraph) -> int:
    t = tables_for(D.order)
    mask = 0
    for arc in D.arcs:
        mask |= 1 << t.bit_of[arc]
    return mask


def digraph_of_mask(n: int, mask: int) -> Digraph:
    t = tables_for(n)
    arcs = []
    x = mask
    while x:
        b = x & -x
        arcs.append(t.cells[b.bit_length() - 1])
        x ^= b
    return Digraph(n, frozenset(arcs))


def is_balanced(mask: int, n: int) -> bool:
    """In-degree equals out-degree at every vertex of the mask's digraph.

    Returns at the first vertex whose two degrees differ.
    """
    for out_c, in_c in tables_for(n).degree_cells:
        if (mask & out_c).bit_count() != (mask & in_c).bit_count():
            return False
    return True


@lru_cache(maxsize=None)
def _vertex_sets(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Per vertex set (a bitmask below 2**n), its members and how many vertices lie outside it."""
    return tuple(
        (tuple(u for u in range(n) if s >> u & 1), n - s.bit_count()) for s in range(1 << n)
    )


def sigma_vector(rows: list[int], n: int, full: int) -> list[int] | None:
    """Transmission of every vertex, or None if the digraph is not strong.

    sigma(v), the sum of d(v, u) over u, is also the sum over radii r >= 0
    of the vertices outside the ball B_r(v). The ball grows by the out-rows
    of its members, read off ``_vertex_sets(n)`` with the count outside it;
    a ball that stops growing short of ``full`` misses a vertex. The table
    has 2**n rows, so orders above ``CANONICAL_MAX_ORDER`` are refused
    before it is built.
    """
    if n > CANONICAL_MAX_ORDER:
        raise ValueError(f"sigma_vector limited to order <= {CANONICAL_MAX_ORDER}")
    sets = _vertex_sets(n)
    sigmas = []
    for v in range(n):
        ball = 1 << v
        total = 0
        while ball != full:
            members, outside = sets[ball]
            total += outside
            grown = ball
            for u in members:
                grown |= rows[u]
            if grown == ball:
                return None
            ball = grown
        sigmas.append(total)
    return sigmas


class BlockPlanes(NamedTuple):
    """Per-lane results for one block or batch of masks.

    ``strong`` is a plane; ``sigma_max`` and ``size`` are bit-sliced
    counters of the largest transmission and of the arc count m.
    ``sigma_max`` is meaningful on strong lanes only.
    """

    strong: int
    sigma_max: list[int]
    size: list[int]


@lru_cache(maxsize=None)
def _lane_cells(bits: int) -> tuple[int, ...]:
    """Plane k holds bit k of every lane index 0 .. 2**bits - 1."""
    width = 1 << bits
    planes = []
    for k in range(bits):
        half = 1 << k
        plane = ((1 << half) - 1) << half  # one period: 2**k zeros, 2**k ones
        span = 2 * half
        while span < width:
            plane |= plane << span
            span *= 2
        planes.append(plane)
    return tuple(planes)


@lru_cache(maxsize=None)
def weight_planes(bits: int) -> tuple[int, ...]:
    """Entry k is the plane of the lane indices 0 .. 2**bits - 1 with at least k set bits.

    For k = 0 .. bits. In a block of ``range_cells``, lane i holds the
    block's constant arcs plus the set bits of i, so these planes cut a
    block to its lanes of at least any arc count without counting them.
    """
    by_weight = value_planes(size_counter(list(_lane_cells(bits))), (1 << (1 << bits)) - 1)
    planes = [by_weight[bits]]
    for k in range(bits - 1, -1, -1):
        planes.append(planes[-1] | by_weight[k])
    return tuple(reversed(planes))


def range_cells(n: int, base: int, bits: int) -> tuple[list[int], int]:
    """Cell planes and the all-lanes plane of masks base .. base+2**bits-1.

    Lane i is the mask ``base + i``; ``base`` must be a multiple of 2**bits.
    Cells below ``bits`` follow fixed lane patterns, the others are
    constant across the block.
    """
    if base % (1 << bits):
        raise ValueError("block base must be a multiple of the block width")
    ones = (1 << (1 << bits)) - 1
    low = _lane_cells(bits)
    cells = [
        low[k] if k < bits else ones * (base >> k & 1)
        for k in range(tables_for(n).num_cells)
    ]
    return cells, ones


@lru_cache(maxsize=None)
def _transpose_stages(word: int, words: int) -> tuple[tuple[int, int], ...]:
    """Per stage of ``draw_cells``'s transpose, a shift and the mask of its lower bits.

    ``words`` packed words of ``word`` bits form square ``word``-by-``word``
    bit blocks. Stage j swaps bit b + j of word k with bit b of word k + j
    wherever bit j of k and of b is 0 (Hacker's Delight 7-3); the two bits
    lie ``(word - 1) * j`` apart. The mask holds the lower bit of every such
    pair: in the words k with bit j clear, the bits with bit j set.
    """
    size = word // 8
    stages = []
    j = word // 2
    while j:
        inner = sum(((1 << j) - 1) << (b + j) for b in range(0, word, 2 * j))
        period = inner.to_bytes(size, "little") * j + bytes(size * j)
        stages.append(((word - 1) * j, int.from_bytes(period * (words // (2 * j)), "little")))
        j //= 2
    return tuple(stages)


def _pack(code: str, words: Iterable[int]) -> int:
    """Words of one ``array`` type code as one little-endian int, word 0 lowest."""
    packed = array(code, words)
    if sys.byteorder == "big":
        packed.byteswap()
    return int.from_bytes(packed, "little")


def draw_cells(n: int, draws: Sequence[int]) -> tuple[list[int], int]:
    """Cell planes and the all-lanes plane of a list of masks: lane i is draws[i].

    One bit-matrix transpose: the draws are packed as little-endian words of
    32 bits when n(n-1) <= 32, else 64, into one int, and log2 of the word
    width mask/shift/xor stages over that int transpose each square block
    of words at once. Word k of a block then holds cell k of the block's
    draws, so plane k is read from every block's word k with one strided
    slice. The stage masks are built on first use, per word width, padded
    to at least ``2**BATCH_BITS`` draws so that shorter batches share
    them.
    """
    c = tables_for(n).num_cells
    if c > 64:
        raise ValueError("draw_cells packs masks of at most 64 cells (order <= 8)")
    ones = (1 << len(draws)) - 1
    word, code = (32, "I") if c <= 32 else (64, "Q")
    words = -(-len(draws) // word) * word
    x = _pack(code, draws)
    padded = 1 << max(BATCH_BITS, (words - 1).bit_length())
    for shift, lower in _transpose_stages(word, padded):
        t = (x ^ (x >> shift)) & lower
        x ^= t ^ (t << shift)
    view = memoryview(x.to_bytes(words * word // 8, "little")).cast(code)
    return [int.from_bytes(view[k::word], "little") for k in range(c)], ones


def _add_plane(counter: list[int], plane: int) -> None:
    """Add a 0/1 plane to a bit-sliced counter in place (ripple carry)."""
    for j, bit in enumerate(counter):
        if not plane:
            return
        counter[j] = bit ^ plane
        plane &= bit
    if plane:
        counter.append(plane)


def _counter_max(a: list[int], b: list[int]) -> list[int]:
    """Lane-wise maximum of two bit-sliced counters."""
    pairs = list(zip_longest(a, b, fillvalue=0))
    greater = 0  # lanes where a > b
    equal = -1  # lanes where the bits seen so far agree
    for x, y in reversed(pairs):
        greater |= equal & x & ~y
        equal &= ~(x ^ y)
    return [y ^ ((x ^ y) & greater) for x, y in pairs]


def size_counter(cells: list[int]) -> list[int]:
    """The arc count m of every lane, as a bit-sliced counter of the cell planes."""
    size: list[int] = []
    for plane in cells:
        _add_plane(size, plane)
    return size


def balance_plane(n: int, cells: list[int], ones: int) -> int:
    """Lanes of ``ones`` whose digraph is balanced: in-degree equals out-degree everywhere.

    The plane-wise ``is_balanced``: per vertex, bit-sliced counters of its
    out-arc and in-arc cells, compared bit by bit.
    """
    t = tables_for(n)
    out_deg: list[list[int]] = [[] for _ in range(n)]
    in_deg: list[list[int]] = [[] for _ in range(n)]
    for (u, v), plane in zip(t.cells, cells):
        if plane:
            _add_plane(out_deg[u], plane)
            _add_plane(in_deg[v], plane)
    balance = ones
    for out_c, in_c in zip(out_deg, in_deg):
        for x, y in zip_longest(out_c, in_c, fillvalue=0):
            balance &= ~(x ^ y)
    return balance


def _arcs_into(n: int, cells: list[int]) -> list[list[tuple[int, int]]]:
    """Per vertex w, the (u, plane) pair of every arc cell u -> w that some lane holds."""
    into: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), plane in zip(tables_for(n).cells, cells):
        if plane:
            into[v].append((u, plane))
    return into


def _step(reached: list[int], into: list[list[tuple[int, int]]]) -> list[int]:
    """One BFS level on every lane: w is reached once an in-neighbour is, through a held arc."""
    nxt = []
    for r, arcs in zip(reached, into):
        for u, arc in arcs:
            r |= reached[u] & arc
        nxt.append(r)
    return nxt


def block_planes(n: int, cells: list[int], ones: int) -> BlockPlanes:
    """Strongness, sigma_max and size of every lane of ``ones``.

    ``cells`` are the arc-cell planes from ``range_cells`` or ``draw_cells``.
    The transmission of v is the sum, over BFS levels 0 .. n-2, of the
    number of vertices not yet reached from v; the BFS runs on all lanes
    at once, and a lane is strong when every source reaches every vertex
    within n-1 levels.
    """
    into = _arcs_into(n, cells)
    strong = ones
    sigma_max: list[int] = []
    for source in range(n):
        reached = [0] * n
        reached[source] = ones
        sigma = [ones * (((n - 1) >> j) & 1) for j in range((n - 1).bit_length())]
        for level in range(1, n):
            reached = _step(reached, into)
            if level < n - 1:
                for w in range(n):
                    if w != source:
                        _add_plane(sigma, ones ^ reached[w])
        for r in reached:
            strong &= r
        sigma_max = _counter_max(sigma_max, sigma)
    return BlockPlanes(strong, sigma_max, size_counter(cells))


@lru_cache(maxsize=None)
def _removal_arcs(n: int) -> tuple[tuple[int, int, tuple, tuple], ...]:
    """The digraphs D - S that ``kappa_planes`` tests, S of size 1 .. n-2 in turn.

    Per vertex subset S, in ``combinations`` order within each size: its
    size, the root (least vertex outside S), and the arcs of D - S into and
    out of each other vertex outside S, as (neighbour, cell index) pairs.
    """
    t = tables_for(n)
    out = []
    for size in range(1, n - 1):
        for s in combinations(range(n), size):
            rest = [v for v in range(n) if v not in s]
            root = rest[0]
            into = tuple(
                (w, tuple((u, t.bit_of[(u, w)]) for u in rest if u != w))
                for w in rest[1:]
            )
            out_of = tuple(
                (w, tuple((u, t.bit_of[(w, u)]) for u in rest if u != w))
                for w in rest[1:]
            )
            out.append((size, root, into, out_of))
    return tuple(out)


def _reached_by_all(cells: list[int], root: int, arcs, start: int) -> int:
    """Lanes of ``start`` in which every listed vertex is joined to the root.

    ``arcs`` lists, per vertex w, the (neighbour, cell) pairs through which
    w joins once the neighbour has; run to a fixed point over the planes.
    """
    joined = {root: start}
    for w, _ in arcs:
        joined[w] = 0
    changed = True
    while changed:
        changed = False
        for w, via in arcs:
            r = joined[w]
            for u, k in via:
                r |= joined[u] & cells[k]
            if r != joined[w]:
                joined[w] = r
                changed = True
    out = start
    for w, _ in arcs:
        out &= joined[w]
    return out


def kappa_planes(n: int, cells: list[int], lanes_in: int) -> dict[int, int]:
    """Split the strong lanes of ``lanes_in`` by vertex connectivity.

    The plane-wise kappa of ``kappa_lambda_mask``, which the oracle reads on
    every stride candidate, by subset removal rather than its table of
    separations: for every vertex subset S, in ``_removal_arcs`` order,
    a forward and a backward BFS from the root of D - S decide on all
    undecided lanes whether D - S is strong; a lane that is not gets
    kappa = |S|. Stops once every lane is decided; the lanes left at the
    end have kappa = n - 1.
    """
    groups: dict[int, int] = {}
    live = lanes_in
    for size, root, into, out_of in _removal_arcs(n):
        if not live:
            break
        forward = _reached_by_all(cells, root, into, live)
        both = _reached_by_all(cells, root, out_of, forward) if forward else 0
        cut = live ^ both
        if cut:
            groups[size] = groups.get(size, 0) | cut
            live = both
    if live:
        groups[n - 1] = live
    return groups


def profile_planes(n: int, cells: list[int], lanes_in: int) -> list[dict[tuple[int, ...], int]]:
    """Per source vertex, the strong lanes of ``lanes_in`` split by distance profile.

    One BFS per source runs on the lanes of ``lanes_in`` at once; its
    scalar oracle is ``core.distance_profile``, in the verifier. At each
    level a bit-sliced counter of the newly reached vertices splits every
    open profile group by its value, and a group closes on the lanes where
    that count is 0. A lane whose source
    does not reach every vertex is not strong and is left out of the groups
    of every source.
    """
    into = _arcs_into(n, cells)
    strong = lanes_in
    per_source = []
    for source in range(n):
        reached = [0] * n
        reached[source] = lanes_in
        open_groups = {(1,): lanes_in}
        closed: dict[tuple[int, ...], int] = {}
        while open_groups:
            nxt = _step(reached, into)
            count: list[int] = []
            for r, new in zip(reached, nxt):
                _add_plane(count, r ^ new)
            reached = nxt
            split = {}
            for profile, plane in open_groups.items():
                for c, group in value_planes(count, plane).items():
                    if c:
                        split[profile + (c,)] = group
                    else:
                        closed[profile] = group
            open_groups = split
        spanning = {p: group for p, group in closed.items() if sum(p) == n}
        strong &= sum(spanning.values())  # the groups are disjoint
        per_source.append(spanning)
    return [
        {p: group & strong for p, group in groups.items() if group & strong}
        for groups in per_source
    ]


def value_planes(counter: list[int], plane: int) -> dict[int, int]:
    """Split the lanes of ``plane`` by the value the counter holds in them."""
    groups = {0: plane} if plane else {}
    for j, bit in enumerate(counter):
        split = {}
        for value, lanes_in in groups.items():
            high = lanes_in & bit
            if high:
                split[value | 1 << j] = high
            if high != lanes_in:
                split[value] = lanes_in ^ high
        groups = split
    return groups


def lanes(plane: int) -> Iterator[int]:
    """Indices of the set bits of a plane, in increasing order."""
    digits = f"{plane:b}"[::-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


@lru_cache(maxsize=None)
def _separations(n: int) -> tuple[tuple[int, int], ...]:
    """Every split of the vertices into S, A and B, as |S| and the cells of A -> B.

    One row per vertex set S and ordered pair of nonempty sets A, B that
    partition the vertices outside S: the size of S and the cell mask of the
    arcs from A to B, 3**n - 2**(n+1) + 1 rows in all. Rows run in
    increasing |S|, then increasing bitmask of S, then of A, so the first
    2**n - 2 rows are those with S empty: the arcs leaving each nonempty
    proper vertex set A.
    """
    full = (1 << n) - 1
    cells = tables_for(n).cells
    rows = []
    for s in sorted(range(1 << n), key=int.bit_count):
        rest = full ^ s
        for a in range(1, rest):
            if a & rest == a:
                b = rest ^ a
                cut = sum(1 << k for k, (u, v) in enumerate(cells) if a >> u & 1 and b >> v & 1)
                rows.append((s.bit_count(), cut))
    return tuple(rows)


@lru_cache(maxsize=None)
def _separation_groups(n: int) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
    """The rows of ``_separations(n)`` grouped by (|S|, cells in the cut).

    Entry s lists, in increasing cut width, each width with the cuts of the
    rows with |S| = s of that width, for s = 0 .. n - 1; a row whose A has
    a vertices has a(n - s - a) cells. The cuts are the table's own ints,
    regrouped.
    """
    groups: list[dict[int, list[int]]] = [{} for _ in range(n)]
    for s, cut in _separations(n):
        groups[s].setdefault(cut.bit_count(), []).append(cut)
    return tuple(
        tuple((width, tuple(by_width[width])) for width in sorted(by_width))
        for by_width in groups
    )


def _kappa_walk(mask: int, n: int, missing: int) -> int:
    """The least |S| >= 1 with a row the mask misses, or n - 1 if none.

    ``missing`` is the count of cells the mask lacks. A missed cut lies
    inside them, so only the groups no wider than ``missing`` are read.
    """
    groups = _separation_groups(n)
    for s in range(1, n - 1):
        for width, cuts in groups[s]:
            if width > missing:
                break
            for cut in cuts:
                if not mask & cut:
                    return s
    return n - 1


def _lambda_walk(mask: int, n: int, missing: int) -> int:
    """The least popcount of the mask's cells over the S-empty rows, at most n - 1.

    A cut of w cells keeps at least w - ``missing`` of the mask's arcs, so
    the walk stops at the first group where that is no less than the least
    count so far. It also stops at the first row that holds one arc: the
    least count is then 1, or 0 if a row is missed, and a missed row lies
    inside the missing cells, so only the rows no wider than ``missing``
    are tested for a miss, with no count.
    """
    least = n - 1  # a single vertex's out-arcs, one of the rows, are at most n - 1
    groups = _separation_groups(n)[0]
    for at, (width, cuts) in enumerate(groups):
        if width - missing >= least:
            break
        for cut in cuts:
            arcs = (mask & cut).bit_count()
            if arcs < least:
                if arcs == 1:
                    for wide, rows in groups[at:]:
                        if wide > missing:
                            break
                        for row in rows:
                            if not mask & row:
                                return 0
                    return 1
                least = arcs
    return least


def lambda_mask(mask: int, n: int) -> int:
    """Edge connectivity; assumes a strong digraph of order >= 2.

    The least number of arcs leaving a nonempty proper vertex set (Menger,
    arc form): the least popcount of the mask's cells over the rows of
    ``_separations(n)`` with S empty.
    """
    return _lambda_walk(mask, n, n * (n - 1) - mask.bit_count())


def kappa_lambda_mask(mask: int, n: int) -> tuple[int, int]:
    """Vertex and edge connectivity of one mask, both 0 if it is not strong.

    kappa is the least |S| such that the vertices outside S split into
    nonempty A and B with no arc from A to B, or n - 1 if no S does: the
    least |S| among the rows of ``_separations(n)`` whose cells the mask
    misses. lambda, the ``lambda_mask`` walk, comes first. kappa is 0
    where lambda is, as an S-empty row is then missed; it is 1 where lambda
    is 1, as a strong digraph has 1 <= kappa <= lambda (Whitney's
    inequality); and otherwise the kappa walk starts at |S| = 1.
    """
    missing = n * (n - 1) - mask.bit_count()
    lam = _lambda_walk(mask, n, missing)
    return (_kappa_walk(mask, n, missing) if lam > 1 else lam), lam


def min_semidegree_mask(mask: int, n: int) -> int:
    """Least in- or out-degree, by popcounts of the mask's degree cells.

    Each vertex's out-arcs and in-arcs are fixed cell sets
    (``MaskTables.degree_cells``), as in ``is_balanced``, so no rows are
    decoded or transposed.
    """
    least = n - 1
    for pair in tables_for(n).degree_cells:
        for cells in pair:
            degree = (mask & cells).bit_count()
            if degree < least:
                least = degree
    return least


_IMAGE_BLOCK = 120  # relabellings per block of _image_blocks: 5!, which divides n! at n >= 5


class _ImageBlocks(NamedTuple):
    """The image bit of every cell under every vertex relabelling, packed in words.

    ``permutations(range(n))``, identity first, is cut into consecutive
    blocks of ``_IMAGE_BLOCK`` relabellings (one block of all n! at
    n <= 5). Per block, one int per cell k = (u, v): its word j holds
    ``1 << bit_of[(p[u], p[v])]`` for the block's j-th relabelling p. All
    blocks have as many words, of the ``array`` type ``code`` and ``size``
    bytes in all, so one ``ones`` (a 1 in every word) and one ``guard``
    (the top bit of every word) serve them all.
    """

    blocks: tuple[tuple[int, ...], ...]
    ones: int
    guard: int
    code: str
    size: int


@lru_cache(maxsize=None)
def _image_blocks(n: int) -> _ImageBlocks:
    """Every relabelling's image bit of every cell, in blocks of packed words.

    Words are 32 bits when n(n-1) <= 31, else 64, packed as in
    ``draw_cells``; the guard bit lies above every cell bit. The images of
    a mask under a whole block are the plain sum of its arcs' ints: within
    a word the bits are distinct, so nothing carries out of a word. At
    n = 8 the 336 blocks hold 56 ints of 120 words each, about 20 MB.
    """
    t = tables_for(n)
    word, code = (32, "I") if t.num_cells <= 31 else (64, "Q")
    bit = [0] * (n * n)  # the bit of cell (a, b) at a * n + b
    for (a, b), k in t.bit_of.items():
        bit[a * n + b] = 1 << k
    perms = permutations(range(n))
    blocks = []
    while block := list(islice(perms, _IMAGE_BLOCK)):
        to = list(zip(*block))  # to[u][j]: the image of vertex u under relabelling j
        row = [[a * n for a in images] for images in to]  # offsets into bit
        blocks.append(tuple(
            _pack(code, map(bit.__getitem__, map(add, row[u], to[v]))) for u, v in t.cells
        ))
    count = min(factorial(n), _IMAGE_BLOCK)
    ones = _pack(code, [1] * count)
    guard = ones << (word - 1)
    return _ImageBlocks(tuple(blocks), ones, guard, code, count * word // 8)


_ARC_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _arcs_of(n: int, mask: int) -> bytes:
    """Byte k is bit k of the mask, for the n(n-1) cells: a ``compress`` selector."""
    if n > CANONICAL_MAX_ORDER:
        raise ValueError(f"canonical form limited to order <= {CANONICAL_MAX_ORDER}")
    return f"{mask:0{n * (n - 1)}b}"[::-1].encode().translate(_ARC_BYTES)


def canonical_mask(n: int, mask: int) -> int:
    """Minimum arc mask over all n! vertex relabellings (order <= 8).

    The least word of the mask's images, starting from the mask itself (the
    identity's image). A block's sum is tested against the least word so
    far as in ``is_canonical``, and its words are read through an ``array``
    only when it holds a smaller one.
    """
    arcs = _arcs_of(n, mask)
    table = _image_blocks(n)
    guard = table.guard
    best = mask
    for block in table.blocks:
        images = sum(compress(block, arcs))
        if (images + guard - best * table.ones) & guard != guard:
            words = array(table.code, images.to_bytes(table.size, "little"))
            if sys.byteorder == "big":
                words.byteswap()
            best = min(words)
    return best


def is_canonical(n: int, mask: int) -> bool:
    """``canonical_mask(n, mask) == mask``, one block of relabellings at a time.

    In ``(img | guard) - mask * ones`` no word borrows from the next, and a
    word keeps its guard bit exactly when its image is at least the mask.
    The guard bit is above every image bit, so ``img | guard`` is
    ``img + guard``, and ``guard - mask * ones`` starts each block's sum.
    Stops at the first block that loses a guard bit; a canonical mask
    needs every block.
    """
    arcs = _arcs_of(n, mask)
    table = _image_blocks(n)
    guard = table.guard
    lift = guard - mask * table.ones
    return all(sum(compress(block, arcs), lift) & guard == guard for block in table.blocks)


@lru_cache(maxsize=None)
def _relabel_sources(n: int) -> tuple[tuple[bytes, bytes], ...]:
    """Per vertex relabelling, the cells its image takes from elsewhere.

    The image of a mask under the permutation p carries cell (u, v) at cell
    (p[u], p[v]). Listed as image cells and their source cells, from the
    highest image cell down, skipping the cells that p maps to themselves
    (all of them for the identity); bytes, since a cell index is below 64
    at n <= 8, keep the n! entries small.
    """
    t = tables_for(n)
    out = []
    for perm in permutations(range(n)):
        src = [0] * t.num_cells
        for k, (u, v) in enumerate(t.cells):
            src[t.bit_of[(perm[u], perm[v])]] = k
        moved = [k for k in reversed(range(t.num_cells)) if src[k] != k]
        out.append((bytes(moved), bytes(src[k] for k in moved)))
    return tuple(out)


def orbit_min_planes(n: int, cells: list[int], lanes_in: int) -> int:
    """Lanes of ``lanes_in`` whose mask no vertex relabelling makes smaller.

    The plane-wise ``canonical_mask(n, mask) == mask``. Per relabelling, a
    lex comparator runs from the highest cell down on every live lane at
    once: ``eq`` holds the lanes whose image agrees with the mask so far,
    and a lane leaves ``eq`` at the first differing cell, as smaller when
    the mask has the 1 there. The comparator stops once ``eq`` is empty,
    and the search once no lane is live. Whenever the live lanes span at
    most half the planes in use, the planes are cut to that span, so the
    few lanes left after the first relabellings compare in short integers.
    """
    live = lanes_in
    low = width = 0  # lane of bit 0, and bit width, of the planes in use
    for image, source in _relabel_sources(n):
        if not live:
            break
        first = (live & -live).bit_length() - 1
        if not width or 2 * (live.bit_length() - first) <= width:
            width = live.bit_length() - first
            cells = [(c >> first) & ((1 << width) - 1) for c in cells]
            live >>= first
            low += first
        eq = live
        for k, s in zip(image, source):
            x = cells[k]
            d = (x ^ cells[s]) & eq
            if d:
                live ^= d & x
                eq ^= d
                if not eq:
                    break
    return live << low


def build_tables(n: int, bits: int) -> None:
    """Build every per-order table a sweep of order n, in batches of 2**bits lanes, reads.

    The row-pair decode tables of ``out_rows``, ``sigma_vector``'s vertex
    sets, ``kappa_planes``'s removals, the separations and their grouped
    view, the lane patterns and transpose masks of ``range_cells`` and
    ``draw_cells``, and the n! relabelling tables of ``canonical_mask``,
    ``is_canonical`` and ``orbit_min_planes``. A process forked afterwards
    inherits them.
    """
    t = tables_for(n)
    t.row_pairs
    _vertex_sets(n)
    _removal_arcs(n)
    _separation_groups(n)
    _lane_cells(bits)
    word = 32 if t.num_cells <= 32 else 64  # as in draw_cells
    _transpose_stages(word, 1 << BATCH_BITS)
    _image_blocks(n)
    _relabel_sources(n)


def mask_bytes(n: int, mask: int) -> bytes:
    """Order byte then the arc mask, big-endian: the canonical-form encoding."""
    width = (n * (n - 1) + 7) // 8
    return bytes([n]) + mask.to_bytes(max(width, 1), "big")


def canonical_bytes(n: int, mask: int) -> bytes:
    """Canonical form as bytes: order byte then the minimal mask, big-endian."""
    return mask_bytes(n, canonical_mask(n, mask))
