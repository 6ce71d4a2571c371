import random

import pytest

from dgr.masks import (
    block_planes,
    canonical_mask,
    draw_cells,
    is_balanced,
    is_orbit_min,
    kappa_mask,
    kappa_planes,
    lanes,
    range_cells,
    sigma_vector,
    tables_for,
    value_planes,
)

# OEIS A000273 (digraphs), A035512 (strong digraphs), A003030 (labeled
# strong digraphs), orders 1..4
DIGRAPHS = (1, 3, 16, 218)
STRONG_DIGRAPHS = (1, 1, 5, 83)
LABELED_STRONG = (1, 1, 18, 1606)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_min_agrees_with_canonical_mask(n):
    for mask in range(tables_for(n).mask_count):
        assert is_orbit_min(n, mask) == (canonical_mask(n, mask) == mask), mask


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_counts_match_oeis(n):
    t = tables_for(n)
    orbit_min = 0
    strong_orbit_min = 0
    strong = 0
    for mask in range(t.mask_count):
        is_strong = sigma_vector(t.out_rows(mask), n, t.full) is not None
        minimal = is_orbit_min(n, mask)
        orbit_min += minimal
        strong += is_strong
        strong_orbit_min += minimal and is_strong
    assert orbit_min == DIGRAPHS[n - 1]
    assert strong_orbit_min == STRONG_DIGRAPHS[n - 1]
    assert strong == LABELED_STRONG[n - 1]


def test_orbit_min_above_table_orders():
    # n = 7 falls back to the direct permutation search
    n = 7
    cycle = sum(1 << tables_for(n).bit_of[(v, (v + 1) % n)] for v in range(n))
    canon = canonical_mask(n, cycle)
    assert is_orbit_min(n, canon)
    assert is_orbit_min(n, cycle) == (cycle == canon)
    last_arc = 1 << (tables_for(n).num_cells - 1)
    assert is_orbit_min(n, 1) and not is_orbit_min(n, last_arc)


def _assert_planes_match_scalar_decode(n, draws, block):
    """Lane i of the block must hold the scalar decode of draws[i]."""
    t = tables_for(n)
    lanes_in = (1 << len(draws)) - 1
    sizes = {i: v for v, p in value_planes(block.size, lanes_in).items() for i in lanes(p)}
    sigma_maxes = {
        i: v for v, p in value_planes(block.sigma_max, lanes_in).items() for i in lanes(p)
    }
    for i, mask in enumerate(draws):
        rows = t.out_rows(mask)
        sigmas = sigma_vector(rows, n, t.full)
        assert (block.strong >> i) & 1 == (sigmas is not None), mask
        assert (block.balanced >> i) & 1 == is_balanced(rows, n), mask
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
        block = block_planes(n, *range_cells(n, base, bits), balanced=True)
        _assert_planes_match_scalar_decode(n, range(base, base + (1 << bits)), block)


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
        _assert_planes_match_scalar_decode(n, batch, block_planes(n, cells, ones, balanced=True))


def _assert_kappa_planes_match(n, draws, cells, strong):
    t = tables_for(n)
    groups = kappa_planes(n, cells, strong)
    assert sum(p.bit_count() for p in groups.values()) == strong.bit_count()
    for kappa, plane in groups.items():
        assert plane & strong == plane
        for i in lanes(plane):
            assert kappa_mask(t.out_rows(draws[i]), n, t.full) == kappa, draws[i]
    return groups


@pytest.mark.parametrize("n", [1, 2, 3, 4])
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
    # kernel's strong lanes, and the orbit-minimal ones among them
    labeled = unlabeled = 0
    for base in range(0, tables_for(5).mask_count, 1 << 14):
        strong = block_planes(5, *range_cells(5, base, 14)).strong
        labeled += strong.bit_count()
        unlabeled += sum(is_orbit_min(5, base + i) for i in lanes(strong))
    assert labeled == 565_080
    assert unlabeled == 5_048
