"""Independent oracles for the test suite.

Nothing here calls back into the library's algorithms: distances come from
Floyd-Warshall and, on mask rows, the frontier BFS that
``masks.sigma_vector`` used to run; strongness counts come from batched
boolean matrix closure, connectivity from exhaustive subset removal and,
on a separations table, the flat row scans that the kappa and lambda
walks of ``dgr.masks`` replaced, and isomorphism from a direct
permutation search, the number of labeled strong digraphs of each size
from an exact counting polynomial, and of labeled balanced ones by a
brute count over every mask. Expected values in the tests
are frozen from these.
"""

from __future__ import annotations

from itertools import combinations, islice, permutations
from math import comb

import numpy as np

INF = float("inf")


def floyd_warshall(order: int, arcs) -> list[list[float]]:
    """All-pairs shortest paths; entries are float('inf') when unreachable."""
    dist = [[0.0 if i == j else INF for j in range(order)] for i in range(order)]
    for u, v in arcs:
        dist[u][v] = 1.0
    for k in range(order):
        dk = dist[k]
        for i in range(order):
            dik = dist[i][k]
            if dik == INF:
                continue
            row = dist[i]
            for j in range(order):
                alt = dik + dk[j]
                if alt < row[j]:
                    row[j] = alt
    return dist


def frontier_sigma_vector(rows: list[int], n: int, full: int) -> list[int] | None:
    """Transmissions by frontier BFS on out-neighbour rows; None if not strong.

    The path ``dgr.masks.sigma_vector`` had before it grew balls from a
    vertex-set table: each level ORs the rows of the newly reached vertices
    only, and adds the level times their count.
    """
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


def flat_kappa_mask(mask: int, n: int, separations) -> int:
    """Vertex connectivity by a flat scan of a separations table; 0 if not strong.

    The path kappa had in ``dgr.masks`` before its walk grouped the rows: the
    |S| of the first (|S|, cut) row, in the table's increasing |S|, whose
    cut the mask misses, else n - 1.
    """
    for s, cut in separations:
        if not mask & cut:
            return s
    return n - 1


def flat_lambda_mask(mask: int, n: int, separations) -> int:
    """Edge connectivity by a flat scan of the S-empty rows of a separations table.

    The path ``dgr.masks.lambda_mask`` had before it grouped the rows: the
    least popcount of the mask's cells over the first 2**n - 2 rows, which
    hold S empty, starting from n - 1.
    """
    least = n - 1
    for _, cut in islice(separations, (1 << n) - 2):
        arcs = (mask & cut).bit_count()
        if arcs < least:
            least = arcs
    return least


def reachable_from(order: int, arcs, start: int) -> set[int]:
    succ: dict[int, list[int]] = {v: [] for v in range(order)}
    for u, v in arcs:
        succ[u].append(v)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in succ[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def is_strong_oracle(order: int, arcs) -> bool:
    arcs = list(arcs)
    if order == 1:
        return True
    if len(reachable_from(order, arcs, 0)) != order:
        return False
    reversed_arcs = [(v, u) for u, v in arcs]
    return len(reachable_from(order, reversed_arcs, 0)) == order


def adjacency_tensor(n: int) -> np.ndarray:
    """Adjacency matrices of every arc mask, shape (2^(n(n-1)), n, n)."""
    cells = [(u, v) for u in range(n) for v in range(n) if v != u]
    count = 1 << len(cells)
    mask_ids = np.arange(count, dtype=np.uint32)
    tensor = np.zeros((count, n, n), dtype=np.uint8)
    for k, (u, v) in enumerate(cells):
        tensor[:, u, v] = (mask_ids >> k) & 1
    return tensor


def strong_mask_flags(n: int) -> np.ndarray:
    """Boolean flag per arc mask: is the digraph strongly connected?"""
    tensor = adjacency_tensor(n)
    eye = np.eye(n, dtype=np.uint8)
    closure = (tensor | eye).astype(np.uint8)
    steps = max(1, int(np.ceil(np.log2(max(n, 2)))))
    for _ in range(steps):
        closure = (np.matmul(closure, closure) > 0).astype(np.uint8)
    return closure.all(axis=(1, 2))


def balanced_mask_flags(n: int) -> np.ndarray:
    """Boolean flag per arc mask: does every vertex's row sum equal its column sum?"""
    tensor = adjacency_tensor(n)
    return (tensor.sum(axis=2) == tensor.sum(axis=1)).all(axis=1)


def eulerian_mask_flags(n: int) -> np.ndarray:
    return balanced_mask_flags(n) & strong_mask_flags(n)


def balanced_by_size_brute(n: int) -> list[int]:
    """Labeled balanced digraphs of order n by arc count, entry m for m = 0 .. n(n-1).

    A brute count over every arc mask: the flagged masks' adjacency
    matrices summed, binned by size.
    """
    sizes = adjacency_tensor(n).sum(axis=(1, 2))[balanced_mask_flags(n)]
    return np.bincount(sizes, minlength=n * (n - 1) + 1).tolist()


def brute_vertex_connectivity(order: int, arcs) -> int:
    """Smallest vertex set whose removal destroys strongness; n-1 if none."""
    arcs = list(arcs)
    for k in range(1, order - 1):
        for removed in combinations(range(order), k):
            removed_set = set(removed)
            kept = [v for v in range(order) if v not in removed_set]
            relabel = {v: i for i, v in enumerate(kept)}
            sub = [
                (relabel[u], relabel[v])
                for u, v in arcs
                if u not in removed_set and v not in removed_set
            ]
            if not is_strong_oracle(len(kept), sub):
                return k
    return order - 1


def brute_edge_connectivity(order: int, arcs) -> int:
    """Smallest arc set whose removal destroys strongness."""
    arcs = list(arcs)
    for k in range(1, len(arcs) + 1):
        for removed in combinations(range(len(arcs)), k):
            removed_set = set(removed)
            kept = [a for i, a in enumerate(arcs) if i not in removed_set]
            if not is_strong_oracle(order, kept):
                return k
    raise AssertionError("a strong digraph always has a disconnecting arc set")


def are_isomorphic(order: int, arcs1, arcs2) -> bool:
    set1, set2 = set(arcs1), set(arcs2)
    if len(set1) != len(set2):
        return False
    for perm in permutations(range(order)):
        if {(perm[u], perm[v]) for u, v in set1} == set2:
            return True
    return False


def sequential_sum_edge_count(blocks) -> int:
    """Within-block C(s,2) plus consecutive products."""
    within = sum(s * (s - 1) // 2 for s in blocks)
    between = sum(a * b for a, b in zip(blocks, blocks[1:]))
    return within + between


def backward_sum_arc_count(blocks) -> int:
    """n(n-1) minus the forward skip pairs (blocks two or more apart)."""
    n = sum(blocks)
    skips = sum(
        blocks[j] * blocks[i]
        for i in range(len(blocks))
        for j in range(i - 1)
    )
    return n * (n - 1) - skips


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two integer polynomials, coefficient lists from x**0 up."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_add(a: list[int], b: list[int], scale: int = 1) -> list[int]:
    """a + scale * b."""
    out = a + [0] * (len(b) - len(a))
    for j, y in enumerate(b):
        out[j] += scale * y
    return out


def _arc_powers(e: int) -> list[int]:
    """(1 + x)**e: every set of e arc cells, by its size."""
    return [comb(e, j) for j in range(e + 1)]


def labeled_strong_by_size(n_max: int) -> list[list[int]]:
    """Labeled strong digraphs by arc count: entry n holds, per m, those of order n with m arcs.

    For n = 1 .. n_max; entry 0 is empty. Inclusion-exclusion over the
    source strong components (Liskovets 1969; Wright 1971), x marking an
    arc. Every labeled digraph of order n is counted by
    alpha_n = (1 + x)**(n(n-1)), and

        alpha_n = sum over k = 1 .. n of C(n, k) delta_k (1 + x)**(k(n-k)) alpha_{n-k},

    which determines delta_n from the smaller orders. The exponential
    generating functions S of the strong digraphs and Delta of the delta_n
    satisfy 1 - exp(-S) = Delta, so S'(1 - Delta) = Delta', that is

        s_n = delta_n + sum over k = 1 .. n-1 of C(n-1, k-1) s_k delta_{n-k}.
    """
    alpha = [_arc_powers(n * (n - 1)) for n in range(n_max + 1)]
    delta: list[list[int]] = [[]]
    strong: list[list[int]] = [[]]
    for n in range(1, n_max + 1):
        d = alpha[n]
        for k in range(1, n):
            term = _poly_mul(delta[k], _poly_mul(_arc_powers(k * (n - k)), alpha[n - k]))
            d = _poly_add(d, term, -comb(n, k))
        delta.append(d)
        s = d
        for k in range(1, n):
            s = _poly_add(s, _poly_mul(strong[k], delta[n - k]), comb(n - 1, k - 1))
        while len(s) > 1 and s[-1] == 0:
            s.pop()
        strong.append(s)
    return strong
