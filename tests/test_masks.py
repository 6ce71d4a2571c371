import pytest

from dgr.masks import canonical_mask, is_orbit_min, sigma_vector, tables_for

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
