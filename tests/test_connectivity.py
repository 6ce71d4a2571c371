import hashlib
import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from dgr import (
    NotStrongError,
    bidirect,
    build_digraph,
    build_graph,
    complete_digraph,
    directed_cycle,
    edge_connectivity,
    is_eulerian,
    min_semidegree,
    vertex_connectivity,
)
from dgr.connectivity import _FlowNetwork
from dgr.masks import digraph_of_mask

from conftest import connected_graphs, strong_digraphs
from oracles import (
    brute_edge_connectivity,
    brute_vertex_connectivity,
    is_strong_oracle,
    strong_mask_flags,
)
from test_core import dpk_2121
from test_masks import _strong_draws


class TestVertexConnectivity:
    def test_directed_cycle(self):
        assert vertex_connectivity(directed_cycle(5)).value == 1

    def test_complete_convention(self):
        result = vertex_connectivity(complete_digraph(4))
        assert result.value == 3
        assert result.witness_cut == frozenset()

    def test_dpk(self):
        assert vertex_connectivity(dpk_2121()).value == 2

    def test_not_strong_errors(self):
        with pytest.raises(NotStrongError):
            vertex_connectivity(build_digraph(3, [(0, 1), (1, 2)]))

    def test_witness_disconnects(self):
        D = dpk_2121()
        cut = vertex_connectivity(D).witness_cut
        kept = [v for v in range(D.order) if v not in cut]
        relabel = {v: i for i, v in enumerate(kept)}
        sub = [(relabel[u], relabel[v]) for u, v in D.arcs if u in relabel and v in relabel]
        assert not is_strong_oracle(len(kept), sub)

    @given(strong_digraphs(max_order=5))
    @settings(max_examples=80)
    def test_flow_matches_subset_removal(self, D):
        assert vertex_connectivity(D).value == brute_vertex_connectivity(D.order, D.arcs)


class TestEdgeConnectivity:
    def test_directed_cycle(self):
        assert edge_connectivity(directed_cycle(5)).value == 1

    def test_bidirected_square(self):
        square = bidirect(build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        assert edge_connectivity(square).value == 2

    def test_complete_k4(self):
        assert edge_connectivity(complete_digraph(4)).value == 3

    def test_not_strong_errors(self):
        with pytest.raises(NotStrongError):
            edge_connectivity(build_digraph(2, [(0, 1)]))

    def test_witness_disconnects(self):
        D = dpk_2121()
        result = edge_connectivity(D)
        remaining = [a for a in D.arcs if a not in result.witness_cut]
        assert len(remaining) == D.size - result.value
        assert not is_strong_oracle(D.order, remaining)

    @given(strong_digraphs(max_order=4))
    @settings(max_examples=40, deadline=None)
    def test_flow_matches_arc_removal(self, D):
        assert edge_connectivity(D).value == brute_edge_connectivity(D.order, D.arcs)


class TestEulerianAndSemidegree:
    def test_directed_cycles(self):
        for n in range(2, 7):
            assert is_eulerian(directed_cycle(n))

    def test_complete(self):
        for n in range(2, 6):
            assert is_eulerian(complete_digraph(n))

    def test_dpk_not_eulerian(self):
        D = dpk_2121()
        assert D.out_degree(0) == 2 and D.in_degree(0) == 5
        assert not is_eulerian(D)

    def test_balanced_but_not_strong(self):
        # two disjoint bidirected pairs: balanced everywhere, not strong
        D = build_digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert not is_eulerian(D)

    @given(connected_graphs())
    def test_bidirected_graphs_eulerian(self, G):
        assert is_eulerian(bidirect(G))

    def test_min_semidegree(self):
        assert min_semidegree(directed_cycle(4)) == 1
        assert min_semidegree(complete_digraph(5)) == 4
        assert min_semidegree(dpk_2121()) == 2


class TestWhitneyChain:
    @given(strong_digraphs(max_order=6))
    @settings(max_examples=80, deadline=None)
    def test_chain(self, D):
        kappa = vertex_connectivity(D).value
        lam = edge_connectivity(D).value
        assert kappa <= lam <= min_semidegree(D)

    def test_exhaustive_n4(self):
        flags = strong_mask_flags(4)
        for mask in range(len(flags)):
            if not flags[mask]:
                continue
            D = digraph_of_mask(4, mask)
            kappa = vertex_connectivity(D).value
            assert kappa == brute_vertex_connectivity(D.order, D.arcs)
            lam = edge_connectivity(D).value
            assert kappa <= lam <= min_semidegree(D)

    def test_sampled_n5_flow_vs_brute(self):
        flags = strong_mask_flags(5)
        strong_masks = [m for m in range(len(flags)) if flags[m]]
        rng = random.Random(20250810)
        for mask in rng.sample(strong_masks, 400):
            D = digraph_of_mask(5, mask)
            assert vertex_connectivity(D).value == brute_vertex_connectivity(D.order, D.arcs)


def _clrs_network():
    """Cormen et al.'s textbook flow network: max flow 23 from 0 to 5.

    Arc 2 -> 1 is added in two halves, and arc 1 -> 2 runs against it.
    """
    net = _FlowNetwork(6)
    for u, v, c in [
        (0, 1, 16), (0, 2, 13), (1, 2, 10), (2, 1, 2), (2, 1, 2), (1, 3, 12),
        (2, 4, 14), (3, 2, 9), (3, 5, 20), (4, 3, 7), (4, 5, 4),
    ]:
        net.add_edge(u, v, c)
    return net


def _split_network():
    """The vertex-split network of the bidirected 4-cycle, as kappa builds it."""
    net = _FlowNetwork(8)
    for v in range(4):
        net.add_edge(2 * v, 2 * v + 1, 1)
    for v in range(4):
        for w in ((v + 1) % 4, (v - 1) % 4):
            net.add_edge(2 * v + 1, 2 * w, 5)
    return net


def _cut_capacity(net, side):
    return sum(net.cap[u][v] for u in side for v in range(net.n) if v not in side)


@pytest.mark.parametrize("build", [_clrs_network, _split_network])
def test_max_flow_is_the_least_cut_capped_at_the_limit(build):
    net = build()
    nodes = range(net.n)
    seen = set()
    for s in nodes:
        for t in nodes:
            if s == t:
                continue
            # max-flow min-cut: the least capacity of a cut with s in, t out
            rest = [v for v in nodes if v not in (s, t)]
            least = min(
                _cut_capacity(net, {s, *combo})
                for k in range(len(rest) + 1)
                for combo in combinations(rest, k)
            )
            seen.add(least)
            # a limit above the sum of s's capacities never caps a flow
            for limit in (sum(net.cap[s]) + 1, *range(least + 2)):
                value = net.max_flow(s, t, limit)
                assert value == min(least, limit), (s, t, limit)
                if value < limit:
                    # the flow ran to completion: its residual gives a least cut
                    side = net.min_cut_side()
                    assert s in side and t not in side
                    assert _cut_capacity(net, side) == least
    assert len(seen) >= 3
    if build is _clrs_network:
        assert net.max_flow(0, 5, sum(net.cap[0])) == 23


def _connectivity_digest(n, mask_seq):
    """sha256 over (mask, kappa, sorted kappa cut, lambda, sorted lambda cut) rows."""
    digest = hashlib.sha256()
    for mask in mask_seq:
        D = digraph_of_mask(n, mask)
        kappa, lam = vertex_connectivity(D), edge_connectivity(D)
        row = [mask, kappa.value, sorted(kappa.witness_cut), lam.value, sorted(lam.witness_cut)]
        digest.update(json.dumps(row).encode() + b"\n")
    return digest.hexdigest()


# recorded with the per-pair networks that the shared, capped network
# replaced: the values and the witness cuts, which the CLI prints
_EVERY_STRONG_MASK_DIGESTS = {
    2: "9aa468604c45ff936a929ab8a4f265c7df4d035d10dc3e573f2fc9dfea6a1709",
    3: "481a084d9314df2c49048565534b977238e05ebb533412dec950c8c785b1c372",
    4: "b24a1622919f7eab2812c785d10e82cf7b82a5765ba381408d082e2ac8d41a61",
}
_DRAWN_STRONG_MASK_DIGESTS = {
    5: "2beeb7de3032641acc237ef42003b1b025ee251650b34e61771dc35b8b50cda5",
    6: "ebbcb78d50d03d5070f76edf98884dc2f4775d7f53c3c03ab45e3e4e8e5248fe",
}


@pytest.mark.parametrize("n", sorted(_EVERY_STRONG_MASK_DIGESTS))
def test_results_and_witness_cuts_pinned_on_every_strong_mask(n):
    flags = strong_mask_flags(n)
    strong = [mask for mask in range(len(flags)) if flags[mask]]
    assert _connectivity_digest(n, strong) == _EVERY_STRONG_MASK_DIGESTS[n]


@pytest.mark.parametrize("n", sorted(_DRAWN_STRONG_MASK_DIGESTS))
def test_results_and_witness_cuts_pinned_on_drawn_strong_masks(n):
    # 1,000 uniform and 1,000 dense (about three arcs in four) strong draws
    rng = random.Random(1000 + n)
    draws = _strong_draws(n, rng, 1_000, 1) + _strong_draws(n, rng, 1_000, 2)
    assert _connectivity_digest(n, draws) == _DRAWN_STRONG_MASK_DIGESTS[n]
