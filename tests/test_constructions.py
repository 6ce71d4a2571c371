from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgr import (
    LambdaPCParams,
    NotStrongError,
    PathCompleteParams,
    backward_sum,
    bidirect,
    claimed_sizes,
    diameter,
    distance_profile,
    dpk_select,
    edge_connectivity,
    enumerate_kappa_pc_family,
    enumerate_lambda_pc_family,
    has_shortcut_free_hamiltonian_dipath,
    is_strong,
    kappa_pc_digraph,
    lambda_pc_graph,
    pc_graph,
    pk_lambda_select,
    pk_select,
    profile_digraph,
    remoteness,
    sequential_sum_graph,
    shortcut_free_dipath,
    transmission,
    vertex_connectivity,
)

from dgr import bounds
from dgr.constructions import backward_sum_size, sequential_sum_size

from oracles import backward_sum_arc_count, sequential_sum_edge_count
from test_core import dpk_2121


class TestSequentialSum:
    def test_1_2_1(self):
        assert sequential_sum_graph([1, 2, 1]).size == 5

    def test_single_block(self):
        assert sequential_sum_graph([1]).size == 0

    def test_2_2_is_k4(self):
        assert sequential_sum_graph([2, 2]).size == 6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sequential_sum_graph([])

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    def test_edge_count_formula(self, blocks):
        assert sequential_sum_graph(blocks).size == sequential_sum_edge_count(blocks)


class TestProfileDigraph:
    def test_1_2_1(self):
        assert profile_digraph([1, 2, 1]).size == 10

    def test_bidirected_path(self):
        assert profile_digraph([1, 1, 1]).size == 4

    def test_bidirected_k4(self):
        assert profile_digraph([1, 3]).size == 12

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    def test_eulerian_and_profile_roundtrip(self, blocks):
        from dgr import is_eulerian

        D = profile_digraph(blocks)
        assert D.size == 2 * sequential_sum_graph(blocks).size
        assert is_eulerian(D)
        if blocks[0] == 1:
            assert distance_profile(D, 0).counts == tuple(blocks)


class TestBackwardSum:
    def test_1_2_2_1(self):
        assert backward_sum([1, 2, 2, 1]).size == 25

    def test_1_1(self):
        assert backward_sum([1, 1]).size == 2

    def test_1_1_2(self):
        assert backward_sum([1, 1, 2]).size == 10

    def test_equals_explicit_arc_list(self):
        assert backward_sum([1, 2, 2, 1]) == dpk_2121()

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    def test_arc_count_formula(self, blocks):
        assert backward_sum(blocks).size == backward_sum_arc_count(blocks)

    @given(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    def test_strong(self, blocks):
        assert is_strong(backward_sum(blocks))


class TestKappaPCDigraph:
    def test_worked_member(self):
        D = kappa_pc_digraph(PathCompleteParams(2, 1, 2, 1))
        assert D.order == 6 and D.size == 25
        assert remoteness(D) == (Fraction(9, 5), 0)

    def test_kappa1_member(self):
        D = kappa_pc_digraph(PathCompleteParams(1, 1, 2, 1))
        assert D.order == 5 and D.size == 16

    def test_sigma_formula_member(self):
        # order is 1 + 2*1 + 1 + 1 = 5; the source transmission matches the
        # closed form kappa*ell*(ell+1)/2 + (ell+1)(a+b) + b = 3 + 6 + 1
        D = kappa_pc_digraph(PathCompleteParams(1, 2, 1, 1))
        assert D.order == 5
        assert transmission(D, 0) == 10
        assert remoteness(D) == (Fraction(5, 2), 0)

    def test_a_below_kappa_rejected(self):
        with pytest.raises(ValueError, match="at least kappa"):
            PathCompleteParams(3, 1, 2, 1)

    def test_ell_zero_refused(self):
        with pytest.raises(ValueError, match="must be positive"):
            PathCompleteParams(2, 0, 2, 1)

    @pytest.mark.parametrize("kappa,n_max", [(1, 9), (2, 9), (3, 9)])
    def test_family_invariants(self, kappa, n_max):
        for n in range(2 * kappa + 2, n_max + 1):
            for p in enumerate_kappa_pc_family(n, kappa):
                D = kappa_pc_digraph(p)
                assert D.order == n == 1 + p.ell * p.kappa + p.a + p.b
                assert is_strong(D)
                assert diameter(D) == p.ell + 2
                value, witness = remoteness(D)
                assert witness == 0
                sigma = transmission(D, 0)
                assert sigma == p.kappa * p.ell * (p.ell + 1) // 2 + (p.ell + 1) * (p.a + p.b) + p.b
                if n <= 8:
                    assert vertex_connectivity(D).value == kappa


class TestDpkSelect:
    def test_unique_member_n6(self):
        D, p = dpk_select(6, 20, 2)
        assert (p.ell, p.a, p.b) == (1, 2, 1)
        assert D.size == 25

    def test_m_exceeds_family_max(self):
        with pytest.raises(ValueError, match="family maximum"):
            dpk_select(6, 26, 2)

    def test_min_size_member_n7(self):
        members = enumerate_kappa_pc_family(7, 1)
        assert len(members) == 10
        D, p = dpk_select(7, 0, 1)
        assert D.size == min(kappa_pc_digraph(q).size for q in members)
        assert (p.ell, p.a, p.b) == (4, 1, 1)

    def test_infeasible_order(self):
        with pytest.raises(ValueError, match="feasible"):
            dpk_select(5, 0, 2)

    def test_selected_size_is_minimum_at_least_m(self):
        for n in range(4, 9):
            sizes = sorted(kappa_pc_digraph(p).size for p in enumerate_kappa_pc_family(n, 1))
            for m in range(0, max(sizes) + 1):
                expected = min(s for s in sizes if s >= m)
                D, _ = dpk_select(n, m, 1)
                assert D.size == expected


class TestPCGraphs:
    def test_path_p4(self):
        G = pc_graph(PathCompleteParams(1, 1, 1, 1))
        assert G.order == 4 and G.size == 3

    def test_worked_graph_member(self):
        G = pc_graph(PathCompleteParams(2, 1, 2, 1))
        assert G.order == 6 and G.size == 10

    def test_pk_select_no_member_above_family_max(self):
        # the n=5 family tops out at C(4,2) = 6 edges, so m = 7 must fail
        sizes = [pc_graph(p).size for p in enumerate_kappa_pc_family(5, 1)]
        assert max(sizes) == 6
        with pytest.raises(ValueError, match="family maximum"):
            pk_select(5, 7, 1)

    def test_pk_select_picks_minimum(self):
        G, p = pk_select(5, 5, 1)
        assert G.size == 5 and (p.ell, p.a, p.b) == (1, 1, 2)

    def test_graph_family_max_matches_binomial(self):
        # counted maximum of the graph family is C(n-1, 2), unlike the
        # digraph family where the analogous closed form is off by two
        for n in range(4, 9):
            sizes = [pc_graph(p).size for p in enumerate_kappa_pc_family(n, 1)]
            assert max(sizes) == (n - 1) * (n - 2) // 2


class TestLambdaPCGraphs:
    def test_variant_a(self):
        G = lambda_pc_graph(LambdaPCParams(2, 1, 2, 1, "A"))
        assert G.order == 6 and G.size == 10

    def test_variant_b(self):
        G = lambda_pc_graph(LambdaPCParams(2, 0, 2, 2, "B"))
        assert G.order == 5 and G.size == 8

    @pytest.mark.parametrize("p", [
        LambdaPCParams(2, 1, 2, 1, "A"), LambdaPCParams(3, 2, 1, 3, "A"),
        LambdaPCParams(2, 0, 2, 2, "B"), LambdaPCParams(3, 3, 4, 2, "B"),
        LambdaPCParams(3, 1, 3, 1, "C"), LambdaPCParams(3, 4, 5, 1, "C"),
    ])
    def test_order_is_the_sum_of_the_blocks(self, p):
        assert p.order == sum(p.block_sizes) == lambda_pc_graph(p).order

    def test_variant_c_guard(self):
        with pytest.raises(ValueError, match="variant C"):
            LambdaPCParams(2, 1, 3, 1, "C")

    def test_variant_a_guard(self):
        with pytest.raises(ValueError, match="variant A"):
            LambdaPCParams(2, 0, 2, 1, "A")
        with pytest.raises(ValueError, match="variant A"):
            LambdaPCParams(3, 1, 1, 2, "A")

    def test_variant_b_guard(self):
        with pytest.raises(ValueError, match="variant B"):
            LambdaPCParams(3, 1, 2, 1, "B")

    def test_select(self):
        G, p = pk_lambda_select(6, 9, 2)
        assert G.size >= 9
        for q in enumerate_lambda_pc_family(6, 2):
            size = lambda_pc_graph(q).size
            if size >= 9:
                assert G.size <= size

    @pytest.mark.parametrize("lam", [2, 3])
    def test_bidirected_edge_connectivity(self, lam):
        for n in range(lam + 2, 9):
            for p in enumerate_lambda_pc_family(n, lam):
                D = bidirect(lambda_pc_graph(p))
                assert edge_connectivity(D).value >= lam, p


class TestSelectorsRefuseAboveTheCompleteSize:
    @pytest.fixture
    def no_builds(self, monkeypatch):
        import dgr.constructions as constructions_mod

        def refuse(*args, **kwargs):
            raise AssertionError("a member was enumerated or built")

        for name in (
            "enumerate_kappa_pc_family", "enumerate_lambda_pc_family", "kappa_pc_digraph",
            "pc_graph", "lambda_pc_graph", "sequential_sum_graph", "backward_sum",
        ):
            monkeypatch.setattr(constructions_mod, name, refuse)

    @pytest.mark.parametrize("n", [6, 90, 120])
    def test_sizes_above_the_complete_one_fail_before_any_build(self, no_builds, n):
        arcs = n * (n - 1)
        with pytest.raises(ValueError, match=f"no digraph of order {n} .*at most {arcs}"):
            dpk_select(n, arcs + 1, 2)
        with pytest.raises(ValueError, match=f"no graph of order {n} .*at most {arcs // 2}"):
            pk_select(n, arcs // 2 + 1, 1)
        with pytest.raises(ValueError, match=f"no graph of order {n} .*at most {arcs // 2}"):
            pk_lambda_select(n, arcs // 2 + 1, 2)
        # at the complete size the family is consulted
        with pytest.raises(AssertionError, match="built"):
            dpk_select(n, arcs, 2)
        with pytest.raises(AssertionError, match="built"):
            pk_select(n, arcs // 2, 1)
        with pytest.raises(AssertionError, match="built"):
            pk_lambda_select(n, arcs // 2, 2)


class TestSelectorsCountSizes:
    @pytest.mark.parametrize("kappa", [1, 2, 3, 4])
    def test_counts_equal_the_built_sizes_of_the_kappa_family(self, kappa):
        for n in range(2 * kappa + 2, 13):
            for p in enumerate_kappa_pc_family(n, kappa):
                assert backward_sum_size(p.block_sizes) == kappa_pc_digraph(p).size, p
                assert sequential_sum_size(p.block_sizes) == pc_graph(p).size, p

    @pytest.mark.parametrize("lam", [2, 3])
    def test_counts_equal_the_built_sizes_of_the_lambda_family(self, lam):
        for n in range(lam + 2, 13):
            for p in enumerate_lambda_pc_family(n, lam):
                assert sequential_sum_size(p.block_sizes) == lambda_pc_graph(p).size, p

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=7))
    def test_counts_match_the_oracle_formulas(self, blocks):
        assert sequential_sum_size(blocks) == sequential_sum_edge_count(blocks)
        assert backward_sum_size(blocks) == backward_sum_arc_count(blocks)

    def test_each_selector_builds_one_member(self, monkeypatch):
        import dgr.constructions as constructions_mod

        builds = []
        for name in ("sequential_sum_graph", "backward_sum"):

            def counted(blocks, real=getattr(constructions_mod, name)):
                builds.append(list(blocks))
                return real(blocks)

            monkeypatch.setattr(constructions_mod, name, counted)
        D, p = dpk_select(120, 14000, 2)
        assert (p.ell, p.a, p.b, D.size) == (1, 36, 81, 14001)
        assert builds == [p.block_sizes]
        builds.clear()
        G, p = pk_select(120, 5000, 2)
        assert G.size >= 5000 and builds == [p.block_sizes]
        builds.clear()
        G, p = pk_lambda_select(120, 5000, 3)
        assert G.size >= 5000 and builds == [p.block_sizes]


class TestShortcutFreeDipath:
    def test_cycle(self):
        D = shortcut_free_dipath(5, {(4, 0)})
        assert D.size == 5
        assert remoteness(D) == (Fraction(5, 2), 0)

    def test_two_back_arcs(self):
        D = shortcut_free_dipath(4, {(3, 0), (2, 0)})
        assert transmission(D, 0) == 6
        assert remoteness(D) == (Fraction(2), 0)

    def test_not_strong_rejected(self):
        with pytest.raises(NotStrongError):
            shortcut_free_dipath(4, set())

    def test_forward_arc_rejected(self):
        with pytest.raises(ValueError, match="backward"):
            shortcut_free_dipath(4, {(0, 2)})

    @given(st.integers(3, 6), st.data())
    @settings(max_examples=60)
    def test_remoteness_is_half_order(self, n, data):
        pairs = [(j, i) for j in range(n) for i in range(j)]
        extra = data.draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
        back = set(extra) | {(n - 1, 0)}
        D = shortcut_free_dipath(n, back)
        value, witness = remoteness(D)
        assert value == Fraction(n, 2) and witness == 0
        assert has_shortcut_free_hamiltonian_dipath(D)

    def test_recognizer_rejects_complete(self):
        from dgr import complete_digraph

        assert not has_shortcut_free_hamiltonian_dipath(complete_digraph(4))
        assert has_shortcut_free_hamiltonian_dipath(shortcut_free_dipath(4, {(3, 0)}))


class TestSizesAndClaims:
    def test_built_sizes(self):
        assert kappa_pc_digraph(PathCompleteParams(2, 1, 2, 1)).size == 25
        assert backward_sum([1, 2, 2]).size == 18
        assert lambda_pc_graph(LambdaPCParams(2, 1, 2, 1, "A")).size == 10
        assert dpk_2121().size == 25

    def test_claimed_prefix_and_expansion(self):
        claims = claimed_sizes(PathCompleteParams(2, 1, 2, 1))
        assert claims.member_size_expansion == 6 + 6 + 8 + 6 - 2 + 1 == 25
        prefix = claimed_sizes(PathCompleteParams(2, 2, 2, 1)).prefix_size
        assert prefix == 18 == backward_sum([1, 2, 2]).size

    def test_family_max_claim_disagrees_with_count(self):
        # counted maximum for n=6, kappa=2 is 25; the closed form says 23
        sizes = [kappa_pc_digraph(p).size for p in enumerate_kappa_pc_family(6, 2)]
        assert max(sizes) == 25 == bounds.family_max_counted(6)
        assert bounds.family_max_claim(6) == 23

    @pytest.mark.parametrize("kappa", [1, 2, 3])
    def test_expansion_matches_direct_count_everywhere(self, kappa):
        for n in range(2 * kappa + 2, 13):
            for p in enumerate_kappa_pc_family(n, kappa):
                assert claimed_sizes(p).member_size_expansion == kappa_pc_digraph(p).size

    @pytest.mark.parametrize("kappa", [1, 2, 3])
    def test_counted_max_is_square_of_n_minus_1(self, kappa):
        for n in range(2 * kappa + 2, 11):
            sizes = [kappa_pc_digraph(p).size for p in enumerate_kappa_pc_family(n, kappa)]
            assert max(sizes) == (n - 1) * (n - 1) == bounds.family_max_counted(n)

    def test_lemma_b_distinct_sizes_reverse_remoteness(self):
        for kappa in (1, 2, 3):
            for n in range(2 * kappa + 2, 10):
                rows = []
                for p in enumerate_kappa_pc_family(n, kappa):
                    D = kappa_pc_digraph(p)
                    rows.append((D.size, remoteness(D)[0]))
                sizes = [s for s, _ in rows]
                assert len(set(sizes)) == len(sizes)
                by_size = sorted(rows)
                rhos = [r for _, r in by_size]
                assert rhos == sorted(rhos, reverse=True)
