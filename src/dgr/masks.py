"""Bit-parallel digraph primitives for enumeration workloads.

A digraph of order n is an arc mask: the n(n-1) off-diagonal adjacency
cells in row-major order, cell k carried by bit 2**k. This is an internal
optimisation layer; results are observably identical to the object-level
modules, which the verifier cross-checks on a deterministic stride.

Two kernels read masks. The scalar one decodes a single mask into
out-neighbour rows (``out_rows``) and runs BFS on them (``sigma_vector``);
``is_balanced``, ``min_semidegree_mask``, ``kappa_mask`` and
``lambda_mask`` work on the mask itself. The block kernel decides up to
2**14 masks at once by bit-slicing: each arc cell becomes a plane, a
Python int whose bit i is that cell's bit in lane i. ``range_cells``
builds the planes of an aligned block of consecutive masks (lane i is
``base + i``; cells below the block width follow fixed lane patterns, the
others are constant), and ``draw_cells`` transposes an arbitrary list of
masks (lane i is the i-th draw) as one bit-matrix transpose of the masks
packed into 32- or 64-bit words, a few mask/shift/xor stages over one
int. On either, integer AND/OR/XOR run one BFS per source vertex for
every lane together: ``block_planes`` gives strongness, sigma_max and
size, and ``profile_planes`` splits the strong lanes by each source's
distance profile, both a level at a time through one ``_step``;
``kappa_planes`` splits them by vertex connectivity, running each D - S
to a fixed point; and ``orbit_min_planes`` keeps the lanes whose mask is
the least of its relabellings, the orbit-minimal witnesses of a sweep's
equality hits.
Two cheaper kernels need no BFS, so a sweep runs them first, on the whole
batch, as class prefilters: ``size_counter`` counts every lane's arcs
(``block_planes`` takes its size from it too) and ``balance_plane``
compares every vertex's out- and in-degree counters. The verifier then
packs the lanes it keeps into a dense batch with ``draw_cells``, so the
BFS kernels above run only on those.
Per-lane numbers are bit-sliced counters: a list of planes, least
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

The scalar oracle's chain check kappa <= lambda <= min semidegree is kept
cheap. ``kappa_mask`` and ``lambda_mask`` are vertex and edge connectivity
by their definitions, read off one table, ``_separations(n)``: a row per
vertex set S and ordered split of the other vertices into nonempty A and
B, holding |S| and the cells of the arcs from A to B, in increasing |S|.
kappa is the least |S| whose row's cells the mask misses, so one AND per
row until the first such row; lambda is the least popcount of the
mask's cells in the 2**n - 2 rows with S empty, the arcs leaving A.
``kappa_planes`` removes vertex subsets and runs BFS on D - S, and
``connectivity.vertex_connectivity`` and ``edge_connectivity`` run flows,
so neither kernel nor object level shares a table or rule with the oracle.
``min_semidegree_mask`` counts degrees by popcounts of the mask, as
``is_balanced`` does.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import combinations, compress, islice, permutations, zip_longest
from math import factorial
from operator import add
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import Digraph

CANONICAL_MAX_ORDER = 8  # canonical_mask's image blocks hold n! packed words per cell


class MaskTables:
    """Per-order lookup tables for decoding arc masks."""

    def __init__(self, n: int):
        self.n = n
        self.num_cells = n * (n - 1)
        self.full = (1 << n) - 1
        self.mask_count = 1 << self.num_cells
        self.cells = tuple((u, v) for u in range(n) for v in range(n) if v != u)
        self.bit_of = {cell: k for k, cell in enumerate(self.cells)}
        self.row_mask = (1 << (n - 1)) - 1
        self.row_shift = tuple(u * (n - 1) for u in range(n))
        # row u of the mask skips column u: its bits below u stay, the rest move up one
        self.out_table = tuple(
            tuple(row & ((1 << u) - 1) | (row >> u) << (u + 1) for row in range(1 << (n - 1)))
            for u in range(n)
        )
        # per vertex, the cells of its out-arcs and the cells of its in-arcs
        self.degree_cells = tuple(
            (
                sum(1 << k for k, (a, _) in enumerate(self.cells) if a == u),
                sum(1 << k for k, (_, b) in enumerate(self.cells) if b == u),
            )
            for u in range(n)
        )

    def out_rows(self, mask: int) -> list[int]:
        """Out-neighbour vertex bitmask per vertex."""
        return [
            self.out_table[u][(mask >> self.row_shift[u]) & self.row_mask]
            for u in range(self.n)
        ]


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
    """In-degree equals out-degree at every vertex of the mask's digraph."""
    return all(
        (mask & out_c).bit_count() == (mask & in_c).bit_count()
        for out_c, in_c in tables_for(n).degree_cells
    )


def sigma_vector(rows: list[int], n: int, full: int) -> list[int] | None:
    """Transmission of every vertex, or None if the digraph is not strong."""
    sigmas = []
    for v in range(n):
        seen = 1 << v
        cur = seen
        total = 0
        d = 0
        while True:
            nxt = 0
            c = cur
            while c:
                b = c & -c
                nxt |= rows[b.bit_length() - 1]
                c ^= b
            cur = nxt & ~seen
            if not cur:
                break
            d += 1
            total += d * cur.bit_count()
            seen |= cur
        if seen != full:
            return None
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
    to at least ``2**14`` draws so that shorter batches share them.
    """
    c = tables_for(n).num_cells
    if c > 64:
        raise ValueError("draw_cells packs masks of at most 64 cells (order <= 8)")
    ones = (1 << len(draws)) - 1
    word, code = (32, "I") if c <= 32 else (64, "Q")
    words = -(-len(draws) // word) * word
    x = _pack(code, draws)
    for shift, lower in _transpose_stages(word, 1 << max(14, (words - 1).bit_length())):
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

    The plane-wise ``kappa_mask``, by subset removal rather than its table
    of separations: for every vertex subset S, in ``_removal_arcs`` order,
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


def kappa_mask(mask: int, n: int) -> int:
    """Vertex connectivity, 0 if the digraph is not strong.

    The least |S| such that the vertices outside S split into nonempty A
    and B with no arc from A to B, or n - 1 if no S does: the first row of
    ``_separations(n)`` whose cells the mask misses.
    """
    return next((s for s, cut in _separations(n) if not mask & cut), n - 1)


def lambda_mask(mask: int, n: int) -> int:
    """Edge connectivity; assumes a strong digraph of order >= 2.

    The least number of arcs leaving a nonempty proper vertex set (Menger,
    arc form): one AND and one popcount per set, over the rows of
    ``_separations(n)`` with S empty.
    """
    return min((mask & cut).bit_count() for _, cut in islice(_separations(n), (1 << n) - 2))


def min_semidegree_mask(mask: int, n: int) -> int:
    """Least in- or out-degree, by popcounts of the mask's degree cells.

    Each vertex's out-arcs and in-arcs are fixed cell sets
    (``MaskTables.degree_cells``), as in ``is_balanced``, so no rows are
    decoded or transposed.
    """
    return min(
        (mask & cells).bit_count() for pair in tables_for(n).degree_cells for cells in pair
    )


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


def mask_bytes(n: int, mask: int) -> bytes:
    """Order byte then the arc mask, big-endian: the canonical-form encoding."""
    width = (n * (n - 1) + 7) // 8
    return bytes([n]) + mask.to_bytes(max(width, 1), "big")


def canonical_bytes(n: int, mask: int) -> bytes:
    """Canonical form as bytes: order byte then the minimal mask, big-endian."""
    return mask_bytes(n, canonical_mask(n, mask))
