from fractions import Fraction

import pytest
from hypothesis import given, settings

from dgr import (
    Digraph,
    DistanceProfile,
    NotStrongError,
    UnreachableVertexError,
    avg_distance,
    bidirect,
    build_digraph,
    build_graph,
    complement,
    complete_digraph,
    complete_graph,
    diameter,
    directed_cycle,
    distance_profile,
    distances_from,
    eccentricity,
    is_strong,
    path_graph,
    remoteness,
    transmission,
    underlying_graph,
)
from dgr.masks import digraph_of_mask

from conftest import connected_graphs, digraphs, strong_digraphs
from oracles import floyd_warshall, is_strong_oracle, strong_mask_flags

# The worked 6-vertex family member (kappa=2, one middle block, a=2, b=1),
# written out arc by arc from its definition: blocks {0}, {1,2}, {3,4}, {5};
# complete inside blocks, bidirected between consecutive blocks, one arc from
# each vertex back to every block two or more positions earlier.
DPK_2121_ARCS = [
    # within blocks
    (1, 2), (2, 1), (3, 4), (4, 3),
    # consecutive blocks, both directions
    (0, 1), (1, 0), (0, 2), (2, 0),
    (1, 3), (3, 1), (1, 4), (4, 1), (2, 3), (3, 2), (2, 4), (4, 2),
    (3, 5), (5, 3), (4, 5), (5, 4),
    # backward skips
    (3, 0), (4, 0),
    (5, 1), (5, 2),
    (5, 0),
]


def dpk_2121() -> Digraph:
    return build_digraph(6, DPK_2121_ARCS)


class TestConstruction:
    def test_build_directed_triangle(self):
        D = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert D.size == 3

    def test_single_vertex(self):
        D = build_digraph(1, [])
        assert D.order == 1 and D.size == 0

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_digraph(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_digraph(2, [(0, 2)])

    def test_duplicates_collapse(self):
        D = build_digraph(3, [(0, 1), (0, 1), (1, 0)])
        assert D.size == 2

    def test_explicit_arc_list_has_25_arcs(self):
        assert dpk_2121().size == 25


class TestStrongness:
    def test_directed_cycle_strong(self):
        assert is_strong(directed_cycle(4))

    def test_dipath_not_strong(self):
        assert not is_strong(build_digraph(3, [(0, 1), (1, 2)]))

    def test_complete_strong(self):
        assert is_strong(complete_digraph(5))

    @given(digraphs())
    def test_matches_oracle(self, D):
        assert is_strong(D) == is_strong_oracle(D.order, D.arcs)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_oracle_on_every_mask(self, n):
        flags = strong_mask_flags(n)
        for mask in range(len(flags)):
            D = digraph_of_mask(n, mask)
            assert is_strong(D) == is_strong_oracle(n, D.arcs) == flags[mask], mask


class TestDistances:
    def test_directed_cycle(self):
        assert distances_from(directed_cycle(4), 0) == [0, 1, 2, 3]

    def test_complete(self):
        assert distances_from(complete_digraph(3), 0) == [0, 1, 1]

    def test_unreachable_is_none(self):
        D = build_digraph(3, [(0, 1)])
        assert distances_from(D, 0) == [0, 1, None]
        # each call hands out its own copy of the stored row
        distances_from(D, 0)[2] = 7
        assert distances_from(D, 0) == [0, 1, None]

    def test_dpk_layer_distances(self):
        # frozen from Floyd-Warshall on the explicit arc list
        oracle = floyd_warshall(6, DPK_2121_ARCS)
        assert [int(x) for x in oracle[0]] == [0, 1, 1, 2, 2, 3]
        assert distances_from(dpk_2121(), 0) == [0, 1, 1, 2, 2, 3]

    @given(strong_digraphs(max_order=5))
    def test_matches_floyd_warshall(self, D):
        oracle = floyd_warshall(D.order, D.arcs)
        for v in range(D.order):
            assert distances_from(D, v) == [int(x) for x in oracle[v]]

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            distances_from(directed_cycle(3), 5)


class TestTransmission:
    def test_directed_five_cycle(self):
        for v in range(5):
            assert transmission(directed_cycle(5), v) == 10

    def test_complete_k4(self):
        assert transmission(complete_digraph(4), 0) == 3

    def test_dpk_source(self):
        assert transmission(dpk_2121(), 0) == 9

    def test_unreachable_errors(self):
        D = build_digraph(3, [(0, 1)])
        # the first unreached vertex is named, from the stored row as well
        for _ in range(2):
            with pytest.raises(UnreachableVertexError, match="^vertex 2 unreachable from 0$"):
                transmission(D, 0)

    @given(strong_digraphs())
    def test_consistency_with_avg(self, D):
        for v in range(D.order):
            assert transmission(D, v) == (D.order - 1) * avg_distance(D, v)


class TestAvgAndRemoteness:
    def test_avg_five_cycle(self):
        assert avg_distance(directed_cycle(5), 0) == Fraction(5, 2)

    def test_avg_complete_k4(self):
        assert avg_distance(complete_digraph(4), 2) == 1

    def test_avg_dpk(self):
        assert avg_distance(dpk_2121(), 0) == Fraction(9, 5)

    def test_avg_order_one_errors(self):
        with pytest.raises(ValueError):
            avg_distance(build_digraph(1, []), 0)

    def test_remoteness_complete(self):
        for n in range(2, 8):
            assert remoteness(complete_digraph(n)) == (Fraction(1), 0)

    def test_remoteness_directed_cycle(self):
        for n in range(2, 9):
            value, _ = remoteness(directed_cycle(n))
            assert value == Fraction(n, 2)

    def test_remoteness_dpk(self):
        assert remoteness(dpk_2121()) == (Fraction(9, 5), 0)

    def test_remoteness_requires_strong(self):
        with pytest.raises(NotStrongError):
            remoteness(build_digraph(3, [(0, 1), (1, 2)]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_remoteness_rejects_every_non_strong_mask(self, n):
        flags = strong_mask_flags(n)
        rejected = 0
        for mask in range(len(flags)):
            if flags[mask]:
                continue
            with pytest.raises(NotStrongError) as info:
                remoteness(digraph_of_mask(n, mask))
            assert str(info.value) == "remoteness is defined for strong digraphs only"
            rejected += 1
        assert rejected == (3, 46)[n - 2]

    def test_remoteness_order_one_undefined(self):
        with pytest.raises(ValueError):
            remoteness(build_digraph(1, []))

    @given(strong_digraphs())
    def test_bounded_by_diameter(self, D):
        value, _ = remoteness(D)
        assert 1 <= value <= diameter(D)

    @given(strong_digraphs(max_order=5))
    @settings(max_examples=60)
    def test_arc_addition_monotone(self, D):
        before, _ = remoteness(D)
        for u, v in complement(D).arcs:
            after, _ = remoteness(D.with_arc(u, v))
            assert after <= before


class TestEccentricityDiameter:
    def test_complete_k4(self):
        assert diameter(complete_digraph(4)) == 1

    def test_directed_six_cycle(self):
        assert diameter(directed_cycle(6)) == 5

    def test_dpk(self):
        D = dpk_2121()
        assert eccentricity(D, 0) == 3
        assert diameter(D) == 3

    def test_diameter_requires_strong(self):
        D = build_digraph(2, [(0, 1)])
        with pytest.raises(NotStrongError):
            diameter(D)
        assert eccentricity(D, 0) == 1
        with pytest.raises(UnreachableVertexError, match="^vertex 0 unreachable from 1$"):
            eccentricity(D, 1)


class TestDistanceProfile:
    def test_directed_cycle(self):
        assert distance_profile(directed_cycle(4), 0).counts == (1, 1, 1, 1)
        # without the arc 3 -> 0 only vertex 0 still reaches every vertex
        path = build_digraph(4, [(0, 1), (1, 2), (2, 3)])
        assert distance_profile(path, 0).counts == (1, 1, 1, 1)
        with pytest.raises(UnreachableVertexError, match="^vertex 0 unreachable from 1$"):
            distance_profile(path, 1)

    def test_complete_k4(self):
        assert distance_profile(complete_digraph(4), 0).counts == (1, 3)

    def test_dpk(self):
        assert distance_profile(dpk_2121(), 0).counts == (1, 2, 2, 1)

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            DistanceProfile((2, 1), 0)

    @given(strong_digraphs())
    def test_consistency(self, D):
        for v in range(D.order):
            profile = distance_profile(D, v)
            assert sum(profile.counts) == D.order
            assert profile.counts[0] == 1
            assert profile.eccentricity == eccentricity(D, v)


class TestTransforms:
    def test_bidirect_sizes(self):
        assert bidirect(complete_graph(3)).size == 6
        assert bidirect(path_graph(3)).size == 4

    def test_bidirect_cycle_remoteness(self):
        square = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        value, _ = remoteness(bidirect(square))
        assert value == Fraction(4, 3)

    @given(connected_graphs())
    @settings(max_examples=60)
    def test_bidirect_preserves_metrics(self, G):
        D = bidirect(G)
        undirected_arcs = [(u, v) for u, v in G.edges] + [(v, u) for u, v in G.edges]
        oracle = floyd_warshall(G.order, undirected_arcs)
        for v in range(G.order):
            assert distances_from(D, v) == [int(x) for x in oracle[v]]

    def test_underlying_graph(self):
        assert underlying_graph(bidirect(complete_graph(3))) == complete_graph(3)
        assert underlying_graph(build_digraph(3, [(0, 1), (1, 2), (2, 0)])) == complete_graph(3)
        assert underlying_graph(dpk_2121()) == complete_graph(6)

    def test_complement(self):
        assert complement(complete_digraph(4)).size == 0
        triangle = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert complement(triangle) == triangle.reverse()
        assert complement(dpk_2121()).size == 5

    @given(digraphs())
    def test_complement_involution(self, D):
        assert complement(complement(D)) == D
        assert D.size + complement(D).size == D.order * (D.order - 1)

    @given(connected_graphs(max_order=6))
    def test_underlying_of_bidirect(self, G):
        assert underlying_graph(bidirect(G)) == G

    @given(strong_digraphs(max_order=5))
    @settings(max_examples=60)
    def test_triangle_inequality_along_arcs(self, D):
        for v in range(D.order):
            dist = distances_from(D, v)
            for u, w in D.arcs:
                assert dist[w] <= dist[u] + 1
