import random
import tracemalloc
from array import array
from itertools import combinations, permutations

import pytest

from dgr.connectivity import edge_connectivity, min_semidegree, vertex_connectivity
from dgr.core import distance_profile, is_strong
from dgr.masks import (
    _image_blocks,
    _separations,
    balance_plane,
    block_planes,
    canonical_mask,
    digraph_of_mask,
    draw_cells,
    is_balanced,
    is_canonical,
    kappa_mask,
    kappa_planes,
    lambda_mask,
    lanes,
    min_semidegree_mask,
    orbit_min_planes,
    profile_planes,
    range_cells,
    sigma_vector,
    tables_for,
    value_planes,
)

from oracles import brute_edge_connectivity, brute_vertex_connectivity

# OEIS A000273 (digraphs), A035512 (strong digraphs), orders 1..4, and
# A003030 (labeled strong digraphs), orders 1..5
DIGRAPHS = (1, 3, 16, 218)
STRONG_DIGRAPHS = (1, 1, 5, 83)
LABELED_STRONG = (1, 1, 18, 1606, 565_080)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_min_agrees_with_canonical_mask(n):
    # every mask of the order, in one block
    t = tables_for(n)
    cells, ones = range_cells(n, 0, t.num_cells)
    expected = sum(1 << mask for mask in range(t.mask_count) if canonical_mask(n, mask) == mask)
    assert orbit_min_planes(n, cells, ones) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_counts_match_oeis(n):
    t = tables_for(n)
    strong = sum(
        1 << mask
        for mask in range(t.mask_count)
        if sigma_vector(t.out_rows(mask), n, t.full) is not None
    )
    cells, ones = range_cells(n, 0, t.num_cells)
    assert orbit_min_planes(n, cells, ones).bit_count() == DIGRAPHS[n - 1]
    assert orbit_min_planes(n, cells, strong).bit_count() == STRONG_DIGRAPHS[n - 1]
    assert strong.bit_count() == LABELED_STRONG[n - 1]


def _relabellings(n, mask):
    """The image of the mask under every vertex permutation, one at a time."""
    t = tables_for(n)
    arcs = [t.cells[k] for k in range(t.num_cells) if mask >> k & 1]
    for p in permutations(range(n)):
        yield sum(1 << t.bit_of[(p[u], p[v])] for u, v in arcs)


def _has_smaller_relabelling(n, mask):
    return any(image < mask for image in _relabellings(n, mask))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_canonical_mask_is_the_least_relabelling_of_every_mask(n):
    for mask in range(tables_for(n).mask_count):
        assert canonical_mask(n, mask) == min(_relabellings(n, mask)), mask


@pytest.mark.parametrize("n, draws", [(5, 40), (6, 12), (7, 3), (8, 1)])
def test_canonical_mask_is_the_least_relabelling_of_drawn_masks(n, draws):
    # no arc, one arc (the last cell), every arc, and seeded uniform draws;
    # each must also keep its value under a random relabelling
    rng = random.Random(n)
    t = tables_for(n)
    masks = [0, 1 << (t.num_cells - 1), (1 << t.num_cells) - 1]
    masks += [rng.getrandbits(t.num_cells) for _ in range(draws)]
    for mask in masks:
        images = list(_relabellings(n, mask))
        canon = canonical_mask(n, mask)
        assert canon == min(images), mask
        image = rng.choice(images)
        assert canonical_mask(n, image) == canon, (mask, image)


def test_canonical_mask_rejects_orders_above_8():
    with pytest.raises(ValueError, match="order <= 8"):
        canonical_mask(9, 0)


def _assert_orbit_min_planes_agree(n, draws):
    """The planes of drawn masks against ``canonical_mask``, lane by lane.

    A lane kept as minimal must be its own canonical form; a dropped lane
    must have a relabelling with a smaller image, found by a direct search
    that stops at the first one.
    """
    minimal = orbit_min_planes(n, *draw_cells(n, draws))
    for i, mask in enumerate(draws):
        if minimal >> i & 1:
            assert canonical_mask(n, mask) == mask, mask
        else:
            assert _has_smaller_relabelling(n, mask), mask
    return minimal


def test_orbit_min_planes_on_drawn_order6_masks():
    # half uniform draws, half shifted right by a random amount, so that
    # many draws leave the high cells empty and are orbit-minimal
    rng = random.Random(6)
    draws = [rng.getrandbits(30) for _ in range(1_000)]
    draws += [rng.getrandbits(30) >> rng.randrange(31) for _ in range(1_000)]
    minimal = _assert_orbit_min_planes_agree(6, draws)
    assert 100 < minimal.bit_count() < 1_000


def test_orbit_min_above_table_orders():
    # n = 7, where the plane search and canonical_mask both try 5,040
    # relabellings
    n = 7
    t = tables_for(n)
    cycle = sum(1 << t.bit_of[(v, (v + 1) % n)] for v in range(n))
    canon = canonical_mask(n, cycle)
    last_arc = 1 << (t.num_cells - 1)
    draws = [cycle, canon, 0, 1, last_arc, (1 << t.num_cells) - 1]
    minimal = _assert_orbit_min_planes_agree(n, draws)
    assert [minimal >> i & 1 for i in range(len(draws))] == [cycle == canon, 1, 1, 1, 0, 1]


@pytest.mark.parametrize("n", range(1, 9))
def test_out_rows_hold_the_out_neighbours(n):
    t = tables_for(n)
    rng = random.Random(n)
    for mask in [0, (1 << t.num_cells) - 1, *(rng.getrandbits(t.num_cells) for _ in range(200))]:
        D = digraph_of_mask(n, mask)
        assert t.out_rows(mask) == [sum(1 << v for v in D.out_lists[u]) for u in range(n)], mask


def _assert_planes_match_scalar_decode(n, draws, cells, ones):
    """Lane i of the block and balance planes must hold the scalar decode of draws[i]."""
    t = tables_for(n)
    block = block_planes(n, cells, ones)
    balanced = balance_plane(n, cells, ones)
    sizes = {i: v for v, p in value_planes(block.size, ones).items() for i in lanes(p)}
    sigma_maxes = {
        i: v for v, p in value_planes(block.sigma_max, ones).items() for i in lanes(p)
    }
    for i, mask in enumerate(draws):
        rows = t.out_rows(mask)
        sigmas = sigma_vector(rows, n, t.full)
        assert (block.strong >> i) & 1 == (sigmas is not None), mask
        assert (balanced >> i) & 1 == is_balanced(mask, n), mask
        assert sizes[i] == mask.bit_count(), mask
        if sigmas is not None:
            assert sigma_maxes[i] == max(sigmas), mask


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("narrow", [False, True], ids=["one_block", "nonzero_bases"])
def test_block_planes_match_scalar_decode(n, narrow):
    # every mask, once in a single block at base 0 and once in blocks 2**3
    # times narrower, so that every block but the first has a nonzero base
    t = tables_for(n)
    bits = max(t.num_cells - 3, 0) if narrow else min(t.num_cells, 14)
    for base in range(0, t.mask_count, 1 << bits):
        cells, ones = range_cells(n, base, bits)
        _assert_planes_match_scalar_decode(n, range(base, base + (1 << bits)), cells, ones)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_draw_planes_match_scalar_decode(n):
    # every mask five times, shuffled, in batches of 2**14 draws: at n = 4
    # the 20,480 draws end in a batch of 4,096; n = 1 and 2 transpose 0 and
    # 2 cells
    draws = list(range(tables_for(n).mask_count)) * 5
    random.Random(n).shuffle(draws)
    width = 1 << 14
    batches = [draws[at : at + width] for at in range(0, len(draws), width)]
    assert 0 < len(batches[-1]) < width
    for batch in batches:
        cells, ones = draw_cells(n, batch)
        assert len(cells) == n * (n - 1) and ones == (1 << len(batch)) - 1
        _assert_planes_match_scalar_decode(n, batch, cells, ones)


@pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 1_000, 1 << 14, (1 << 14) + 33])
@pytest.mark.parametrize("n", range(1, 9))
def test_draw_cells_is_the_transpose_of_the_draws(n, length):
    # bit i of plane k is bit k of draws[i]; orders up to 6 pack 32-bit
    # words, 7 and 8 64-bit words, and the longest batch outgrows the
    # stage masks of 2**14 draws
    c = n * (n - 1)
    rng = random.Random(length * 10 + n)
    draws = [(1 << c) - 1] * min(length, 2) + [rng.getrandbits(c) for _ in range(length - 2)]
    expected = [
        int("0" + "".join("1" if d >> k & 1 else "0" for d in reversed(draws)), 2)
        for k in range(c)
    ]
    assert draw_cells(n, draws) == (expected, (1 << length) - 1)
    assert draw_cells(n, array("I" if c <= 32 else "Q", draws))[0] == expected


def test_draw_cells_stops_at_64_cells():
    with pytest.raises(ValueError, match="64 cells"):
        draw_cells(9, [0])


def _assert_kappa_planes_match(n, draws, cells, strong):
    groups = kappa_planes(n, cells, strong)
    assert sum(p.bit_count() for p in groups.values()) == strong.bit_count()
    for kappa, plane in groups.items():
        assert plane & strong == plane
        for i in lanes(plane):
            assert kappa_mask(draws[i], n) == kappa, draws[i]
    return groups


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_kappa_planes_match_kappa_mask_on_every_strong_mask(n):
    t = tables_for(n)
    cells, ones = range_cells(n, 0, t.num_cells)
    strong = block_planes(n, cells, ones).strong
    assert strong.bit_count() == LABELED_STRONG[n - 1]
    _assert_kappa_planes_match(n, range(t.mask_count), cells, strong)


def test_kappa_planes_match_kappa_mask_on_a_sampled_batch():
    rng = random.Random(6)
    draws = [rng.getrandbits(30) for _ in range(1 << 14)]
    cells, ones = draw_cells(6, draws)
    strong = block_planes(6, cells, ones).strong
    assert sorted(_assert_kappa_planes_match(6, draws, cells, strong)) == [1, 2, 3]


def test_block_base_must_be_aligned():
    with pytest.raises(ValueError, match="multiple"):
        range_cells(4, 12, 3)


def test_value_planes_and_lanes_partition_the_plane():
    counter = [0b0110, 0b1100]  # lanes 0..3 hold 0, 1, 3, 2
    # lane 7 lies beyond every set bit of the counter, so it holds 0
    assert value_planes(counter, 0b10001111) == {
        0: 0b10000001, 1: 0b0010, 2: 0b1000, 3: 0b0100
    }
    assert value_planes(counter, 0b1111) == {0: 0b0001, 1: 0b0010, 2: 0b1000, 3: 0b0100}
    assert value_planes(counter, 0) == {}
    assert list(lanes(0b101001)) == [0, 3, 5]
    assert list(lanes(0)) == []


def test_order5_strong_counts_match_oeis():
    # A003030 labeled and A035512 unlabeled strong digraphs of order 5: the
    # kernel's strong lanes, and the orbit-minimal ones among them; A000273
    # digraphs of order 5, the orbit-minimal lanes of every block
    labeled = unlabeled = digraphs = 0
    for base in range(0, tables_for(5).mask_count, 1 << 14):
        cells, ones = range_cells(5, base, 14)
        strong = block_planes(5, cells, ones).strong
        labeled += strong.bit_count()
        unlabeled += orbit_min_planes(5, cells, strong).bit_count()
        digraphs += orbit_min_planes(5, cells, ones).bit_count()
    assert labeled == 565_080
    assert unlabeled == 5_048
    assert digraphs == 9_608


def _balanced_by_transpose(n, mask):
    D = digraph_of_mask(n, mask)
    return all(D.out_degree(v) == D.in_degree(v) for v in range(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_is_balanced_matches_the_transpose_on_every_mask(n):
    for mask in range(tables_for(n).mask_count):
        assert is_balanced(mask, n) == _balanced_by_transpose(n, mask), mask


@pytest.mark.parametrize("n", [5, 6])
def test_is_balanced_matches_the_transpose_on_drawn_masks(n):
    # uniform draws are almost never balanced, so add every draw's union
    # with its reverse, which always is
    rng = random.Random(n)
    t = tables_for(n)
    draws = [rng.getrandbits(t.num_cells) for _ in range(2_000)]
    reverse = {k: t.bit_of[(v, u)] for k, (u, v) in enumerate(t.cells)}
    draws += [d | sum(1 << reverse[k] for k in range(t.num_cells) if d >> k & 1) for d in draws]
    balanced = [is_balanced(mask, n) for mask in draws]
    assert balanced == [_balanced_by_transpose(n, mask) for mask in draws]
    assert all(balanced[len(draws) // 2 :])
    # the plane-wise balance of the same draws, as one batch
    plane = balance_plane(n, *draw_cells(n, draws))
    assert [bool(plane >> i & 1) for i in range(len(draws))] == balanced


def _assert_profile_planes_match(n, draws, cells, lanes_in):
    """``profile_planes`` must equal ``distance_profile`` on the strong lanes of ``lanes_in``.

    Every other lane, outside ``lanes_in`` or not strong, is in no group.
    Returns the strong lanes.
    """
    groups = profile_planes(n, cells, lanes_in)
    assert len(groups) == n
    expected = [{} for _ in range(n)]
    strong = 0
    for i in lanes(lanes_in):
        D = digraph_of_mask(n, draws[i])
        if not is_strong(D):
            continue
        strong |= 1 << i
        for v, source in enumerate(expected):
            counts = distance_profile(D, v).counts
            source[counts] = source.get(counts, 0) | 1 << i
    assert groups == expected
    return strong


@pytest.mark.parametrize("n", [3, 4])
def test_profile_planes_match_distance_profiles_on_every_mask(n):
    t = tables_for(n)
    cells, ones = range_cells(n, 0, t.num_cells)
    strong = _assert_profile_planes_match(n, range(t.mask_count), cells, ones)
    assert strong.bit_count() == LABELED_STRONG[n - 1]
    # a lane plane that leaves lanes out, strong and not
    every_third = sum(1 << i for i in range(0, t.mask_count, 3))
    _assert_profile_planes_match(n, range(t.mask_count), cells, every_third)


def test_profile_planes_match_distance_profiles_on_an_order5_block():
    base = 37 << 14
    cells, ones = range_cells(5, base, 14)
    strong = _assert_profile_planes_match(5, range(base, base + (1 << 14)), cells, ones)
    assert strong == block_planes(5, cells, ones).strong != 0


def test_profile_planes_match_distance_profiles_on_a_sampled_order6_batch():
    # uniform draws, and draws with about three arcs in four, which have
    # diameter 2 more often than not
    rng = random.Random(16)
    draws = [rng.getrandbits(30) for _ in range(2_000)]
    draws += [rng.getrandbits(30) | rng.getrandbits(30) for _ in range(2_000)]
    cells, ones = draw_cells(6, draws)
    strong = _assert_profile_planes_match(6, draws, cells, ones)
    assert strong == block_planes(6, cells, ones).strong != 0


def test_profile_planes_of_no_lane_are_empty():
    cells, _ones = range_cells(3, 0, 6)
    assert profile_planes(3, cells, 0) == [{}, {}, {}]


def _assert_lambda_mask_agrees(n, draws):
    """``lambda_mask`` against arc-set removal and the object-level flows.

    Returns the lambda values seen.
    """
    seen = set()
    for mask in draws:
        lam = lambda_mask(mask, n)
        D = digraph_of_mask(n, mask)
        assert lam == brute_edge_connectivity(n, D.arcs) == edge_connectivity(D).value, mask
        seen.add(lam)
    return seen


def _strong_draws(n, rng, count, fill):
    """Seeded strong masks, each the OR of ``fill`` uniform draws.

    A cell is an arc with probability 1 - 2**-fill: uniform at fill 1, about
    three arcs in four at fill 2.
    """
    t = tables_for(n)
    draws = []
    while len(draws) < count:
        mask = rng.getrandbits(t.num_cells)
        for _ in range(fill - 1):
            mask |= rng.getrandbits(t.num_cells)
        if sigma_vector(t.out_rows(mask), n, t.full) is not None:
            draws.append(mask)
    return draws


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lambda_mask_matches_both_oracles_on_every_strong_mask(n):
    t = tables_for(n)
    strong = [m for m in range(t.mask_count) if sigma_vector(t.out_rows(m), n, t.full) is not None]
    assert len(strong) == LABELED_STRONG[n - 1]
    assert _assert_lambda_mask_agrees(n, strong) == set(range(1, n))


@pytest.mark.parametrize("n, uniform, dense", [(5, 1_000, 1_000), (6, 2_000, 200)])
def test_lambda_mask_matches_both_oracles_on_drawn_strong_masks(n, uniform, dense):
    # the dense draws reach lambda 3 and 4; arc-set removal is slow on them
    # at n = 6, so fewer are drawn there
    rng = random.Random(n)
    draws = _strong_draws(n, rng, uniform, 1) + _strong_draws(n, rng, dense, 2)
    assert _assert_lambda_mask_agrees(n, draws) == {1, 2, 3, 4}


@pytest.mark.parametrize("n", [7, 8])
def test_lambda_mask_matches_the_flows_on_drawn_strong_masks(n):
    # arc-set removal is out of reach here; the star-pair flows are not
    rng = random.Random(n)
    draws = _strong_draws(n, rng, 1_000, 1) + _strong_draws(n, rng, 1_000, 2)
    seen = set()
    for mask in draws:
        lam = lambda_mask(mask, n)
        assert lam == edge_connectivity(digraph_of_mask(n, mask)).value, mask
        seen.add(lam)
    assert seen == {1, 2, 3, 4, 5}


@pytest.mark.parametrize("n", range(1, 9))
def test_separations_hold_the_arcs_from_a_to_b_of_every_split(n):
    t = tables_for(n)
    rows = _separations(n)
    assert len(rows) == 3**n - 2 ** (n + 1) + 1
    assert [s for s, _ in rows] == sorted(s for s, _ in rows)
    # every split (S, A, B) of the vertices, with A and B nonempty, once
    splits = [
        (s, a, tuple(v for v in range(n) if v not in s and v not in a))
        for size in range(n - 1)
        for s in combinations(range(n), size)
        for k in range(1, n - size)
        for a in combinations([v for v in range(n) if v not in s], k)
    ]
    assert len(splits) == len(rows)
    expected = sorted(
        (len(s), sum(1 << t.bit_of[(u, v)] for u in a for v in b)) for s, a, b in splits
    )
    assert sorted(rows) == expected
    # the rows with S empty are the arcs leaving each nonempty proper vertex set
    leaving = [
        sum(1 << k for k, (u, v) in enumerate(t.cells) if a >> u & 1 and not a >> v & 1)
        for a in range(1, 2**n - 1)
    ]
    assert rows[: 2**n - 2] == tuple((0, cut) for cut in leaving)
    assert all(s for s, _ in rows[2**n - 2 :])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kappa_mask_matches_subset_removal_on_every_mask(n):
    # vertex-subset removal on strong masks; 0 exactly on the others
    t = tables_for(n)
    seen = set()
    for mask in range(t.mask_count):
        kappa = kappa_mask(mask, n)
        if sigma_vector(t.out_rows(mask), n, t.full) is None:
            assert kappa == 0, mask
        else:
            assert kappa == brute_vertex_connectivity(n, digraph_of_mask(n, mask).arcs), mask
            seen.add(kappa)
    assert seen == set(range(1, n))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_kappa_mask_matches_the_flows_on_drawn_dense_strong_masks(n):
    # denser draws reach the high kappa: n - 1 only on the complete digraph
    rng = random.Random(n)
    seen = set()
    for fill in range(1, 6):
        for mask in _strong_draws(n, rng, 150, fill):
            kappa = kappa_mask(mask, n)
            assert kappa == vertex_connectivity(digraph_of_mask(n, mask)).value, mask
            seen.add(kappa)
    assert seen == set(range(1, n))


def test_lambda_mask_of_complete_digraphs_is_n_minus_1():
    # a set S of k vertices has k(n - k) leaving arcs, least at k = 1 or n - 1
    for n in range(2, 9):
        t = tables_for(n)
        assert lambda_mask(t.mask_count - 1, n) == n - 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_min_semidegree_mask_matches_the_object_level_on_every_mask(n):
    for mask in range(tables_for(n).mask_count):
        assert min_semidegree_mask(mask, n) == min_semidegree(digraph_of_mask(n, mask)), mask


@pytest.mark.parametrize("n", [5, 6, 7])
def test_min_semidegree_mask_matches_the_object_level_on_drawn_masks(n):
    rng = random.Random(n)
    t = tables_for(n)
    draws = [rng.getrandbits(t.num_cells) for _ in range(1_000)]
    draws += [d | rng.getrandbits(t.num_cells) for d in draws]
    draws += [t.mask_count - 1]
    values = [min_semidegree_mask(mask, n) for mask in draws]
    assert values == [min_semidegree(digraph_of_mask(n, mask)) for mask in draws]
    assert values[-1] == n - 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_is_canonical_matches_canonical_mask_on_every_mask(n):
    # both read the same image blocks, so the direct search checks them too
    verdicts = [is_canonical(n, mask) for mask in range(tables_for(n).mask_count)]
    assert verdicts == [canonical_mask(n, mask) == mask for mask in range(len(verdicts))]
    assert verdicts == [not _has_smaller_relabelling(n, mask) for mask in range(len(verdicts))]
    assert sum(verdicts) == DIGRAPHS[n - 1]


@pytest.mark.parametrize("n, draws", [(5, 400), (6, 60), (7, 8)])
def test_is_canonical_matches_canonical_mask_on_drawn_masks(n, draws):
    # each draw and its canonical form, so that both verdicts occur
    rng = random.Random(n)
    t = tables_for(n)
    masks = [rng.getrandbits(t.num_cells) for _ in range(draws)]
    masks += [canonical_mask(n, mask) for mask in masks]
    verdicts = [is_canonical(n, mask) for mask in masks]
    assert verdicts == [canonical_mask(n, mask) == mask for mask in masks]
    assert verdicts == [not _has_smaller_relabelling(n, mask) for mask in masks]
    assert all(verdicts[draws:]) and not all(verdicts[:draws])


def _first_smaller_block(n, mask):
    """The block of 5! = 120 relabellings, in ``permutations`` order, that
    holds the mask's first smaller image; None for a canonical mask."""
    for i, image in enumerate(_relabellings(n, mask)):
        if image < mask:
            return i // 120
    return None


@pytest.mark.parametrize("n, arcs, blocks", [(6, 3, {1, 2, 3}), (7, 2, {1, 2, 6, 7, 12})])
def test_is_canonical_at_the_block_of_the_first_smaller_image(n, arcs, blocks):
    # the first mask of at most ``arcs`` arcs whose first smaller image lies
    # in block b: every earlier block holds no smaller image, block b does
    t = tables_for(n)
    first = {}
    for k in range(1, arcs + 1):
        for combo in combinations(range(t.num_cells), k):
            mask = sum(1 << c for c in combo)
            first.setdefault(_first_smaller_block(n, mask), mask)
    assert blocks <= first.keys()
    for b in sorted(blocks):
        mask = first[b]
        canon = min(_relabellings(n, mask))
        assert not is_canonical(n, mask), (b, mask)
        assert is_canonical(n, canon), (b, canon)
        assert canonical_mask(n, mask) == canon, (b, mask)
        assert canonical_mask(n, canon) == min(_relabellings(n, canon)) == canon, (b, canon)


# masks whose one smaller image is their image under the first or the last
# relabelling of a block of 120, keyed by that relabelling's index in
# ``permutations`` order; found by a seeded search among the second-least
# members of orbits with n! distinct images
_LONE_SMALLER_IMAGE = {
    6: {
        120: 108484229, 240: 239049, 360: 374251, 480: 3470915, 600: 255655655,
        359: 37020181, 479: 37446158, 599: 37024280,
    },
    7: {
        120: 76635837401, 240: 84281370873, 720: 214087559309, 1440: 515125599181,
        1199: 221054637555,
    },
}


@pytest.mark.parametrize("n", [6, 7])
def test_is_canonical_reads_the_first_and_last_relabelling_of_a_block(n):
    for index, mask in _LONE_SMALLER_IMAGE[n].items():
        images = list(_relabellings(n, mask))
        assert [i for i, image in enumerate(images) if image < mask] == [index], mask
        assert not is_canonical(n, mask), mask
        assert canonical_mask(n, mask) == images[index], mask


def test_order7_image_blocks_hold_no_more_than_a_row_per_relabelling():
    # the former table, one 43-entry row per relabelling, held 1,976,820
    # bytes on CPython 3.11
    tables_for(7)
    tracemalloc.start()
    try:
        table = _image_blocks.__wrapped__(7)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.blocks) == 42
    assert held <= 1_976_820


def test_is_canonical_rejects_orders_above_8():
    with pytest.raises(ValueError, match="order <= 8"):
        is_canonical(9, 0)
