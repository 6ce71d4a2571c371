import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dgr import (
    enumerate_kappa_pc_family,
    evaluate_bound,
    kappa_pc_digraph,
    m_star,
    m_star_counted,
    remoteness,
    sharpness_guard,
)
from dgr.bounds import family_min_claim
from dgr.constructions import backward_sum_size


class TestMStar:
    def test_already_congruent(self):
        assert m_star(6, 23, 2) == 23

    def test_rounds_up(self):
        assert m_star(6, 24, 2) == 25

    @given(st.integers(3, 30), st.integers(0, 500))
    def test_modulus_one_is_identity(self, n, m):
        assert m_star(n, m, 1) == m

    @given(st.integers(3, 30), st.integers(0, 500), st.integers(1, 5))
    def test_smallest_in_class(self, n, m, kappa):
        star = m_star(n, m, kappa)
        assert star >= m
        assert (star - (n * n - 2 * n - 1)) % kappa == 0
        assert star - m < kappa

    @given(st.integers(3, 30), st.integers(0, 500), st.integers(1, 2))
    def test_counted_anchor_agrees_for_small_kappa(self, n, m, kappa):
        assert m_star(n, m, kappa) == m_star_counted(n, m, kappa)

    def test_counted_anchor_shifts_for_kappa_3(self):
        # the literal anchor n^2-2n-1 and the counted anchor (n-1)^2 differ
        # by 2, which matters exactly when kappa >= 3
        assert m_star(9, 61, 3) == 62
        assert m_star_counted(9, 61, 3) == 61


class TestFamilyClaims:
    """The stated family minimum, checked against sizes counted per member."""

    def test_stated_minimum_against_the_count(self):
        # met at n = 6, kappa = 2; not even an integer at n = 7, kappa = 2
        assert family_min_claim(6, 2) == 25 == min(
            backward_sum_size(p.block_sizes) for p in enumerate_kappa_pc_family(6, 2)
        )
        assert family_min_claim(7, 2) == Fraction(69, 2)


class TestEvaluate:
    def test_size_digraph_example(self):
        result = evaluate_bound("size_digraph", 5, 10)
        assert result.applicable and result.value == Fraction(7, 2)

    def test_kappa_digraph_worked_case(self):
        result = evaluate_bound("kappa_digraph", 6, 25, kappa=2)
        assert result.applicable
        assert result.m_star == 25
        assert result.value == Fraction(9, 5)

    def test_lambda_graph_sloped_piece(self):
        result = evaluate_bound("lambda_graph", 12, 30, lam=2)
        assert result.value == Fraction(127, 33)

    def test_lambda_graph_flat_piece(self):
        assert evaluate_bound("lambda_graph", 12, 10, lam=2).value == Fraction(4)
        threshold = math.ceil(Fraction(9 * 12, 4)) - 2
        assert evaluate_bound("lambda_graph", 12, threshold - 1, lam=3).value == Fraction(3)

    def test_order_bounds(self):
        assert evaluate_bound("order", 7).value == Fraction(7, 2)
        assert evaluate_bound("digraph_order", 7).value == Fraction(7, 2)
        with pytest.raises(ValueError):
            evaluate_bound("digraph_order", 2)

    def test_order_size(self):
        assert evaluate_bound("order_size", 5, 7).value == Fraction(7, 4)

    def test_eulerian_size_accepts_fractional_m0(self):
        result = evaluate_bound("eulerian_size", 3, Fraction(3, 2))
        assert result.value == Fraction(5, 2) - Fraction(3, 4)

    def test_eulerian_lambda_thresholds(self):
        # lambda=2 at n=12: flat below ceil(5n/6)-1 = 9
        assert evaluate_bound("eulerian_lambda", 12, 8, lam=2).value == Fraction(4)
        sloped = evaluate_bound("eulerian_lambda", 12, 9, lam=2).value
        assert sloped == Fraction(12, 3) - Fraction(18, 33) + Fraction(5, 3)

    def test_kappa_graph_cap_guard(self):
        result = evaluate_bound("kappa_graph", 6, 11, kappa=2)
        assert not result.applicable and result.value is None
        assert any("C(n-1,2)" in note for note in result.notes)

    def test_kappa_digraph_counted_cap(self):
        assert evaluate_bound("kappa_digraph", 6, 25, kappa=2).applicable
        result = evaluate_bound("kappa_digraph", 6, 26, kappa=2)
        assert not result.applicable

    def test_missing_parameters_error(self):
        with pytest.raises(ValueError, match="kappa_graph requires kappa"):
            evaluate_bound("kappa_graph", 6, 10)
        with pytest.raises(ValueError, match="size_digraph requires m"):
            evaluate_bound("size_digraph", 6)
        with pytest.raises(ValueError, match="unknown bound id 'nonsense'"):
            evaluate_bound("nonsense", 6)

    def test_unknown_lambda(self):
        with pytest.raises(ValueError):
            evaluate_bound("lambda_graph", 10, 5, lam=4)


class TestSpecializationIdentities:
    def grid(self, count=1000):
        pairs = [
            (n, m)
            for n in range(3, 31)
            for m in range(0, math.comb(n - 1, 2) + 1)
        ]
        rng = random.Random(0)
        return rng.sample(pairs, count)

    def test_kappa_graph_at_1_equals_order_size(self):
        for n, m in self.grid():
            lhs = evaluate_bound("kappa_graph", n, m, kappa=1)
            rhs = evaluate_bound("order_size", n, m)
            assert lhs.value == rhs.value

    def test_kappa_digraph_at_1_equals_size_digraph(self):
        for n, m in self.grid():
            lhs = evaluate_bound("kappa_digraph", n, m, kappa=1)
            rhs = evaluate_bound("size_digraph", n, m)
            assert lhs.value == rhs.value

    def test_eulerian_size_same_expression_as_order_size(self):
        for n, m in self.grid(200):
            assert (
                evaluate_bound("eulerian_size", n, m).value
                == evaluate_bound("order_size", n, m).value
            )


class TestMonotonicity:
    @pytest.mark.parametrize(
        "bid,kwargs",
        [
            ("order_size", {}),
            ("size_digraph", {}),
            ("kappa_graph", {"kappa": 2}),
            ("eulerian_size", {}),
            ("eulerian_kappa", {"kappa": 2}),
        ],
    )
    def test_strictly_decreasing_in_m(self, bid, kwargs):
        n = 12
        cap = math.comb(n - 1, 2)
        values = [evaluate_bound(bid, n, m, **kwargs).value for m in range(cap + 1)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_lambda_bounds_monotone_within_pieces(self):
        # the stated piecewise forms jump upward at the threshold (the two
        # pieces cross later, at m = 5(n-1)/2 resp. 3(n-1)); monotonicity
        # holds within each piece: constant flat part, strictly decreasing
        # sloped part
        n = 12
        thresholds = {
            ("lambda_graph", 2): math.ceil(Fraction(5 * n, 3)) - 2,
            ("lambda_graph", 3): math.ceil(Fraction(9 * n, 4)) - 2,
            ("eulerian_lambda", 2): math.ceil(Fraction(5 * n, 6)) - 1,
            ("eulerian_lambda", 3): math.ceil(Fraction(9 * n, 8)) - 1,
        }
        for (bid, lam), threshold in thresholds.items():
            flat = [evaluate_bound(bid, n, m, lam=lam).value for m in range(threshold)]
            assert len(set(flat)) == 1
            sloped = [
                evaluate_bound(bid, n, m, lam=lam).value
                for m in range(threshold, threshold + 20)
            ]
            assert all(a > b for a, b in zip(sloped, sloped[1:]))

    def test_kappa_digraph_nonincreasing_strict_on_congruence_steps(self):
        n, kappa = 9, 2
        values = [
            evaluate_bound("kappa_digraph", n, m, kappa=kappa).value
            for m in range(0, (n - 1) ** 2 + 1)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))
        stars = [m_star(n, m, kappa) for m in range(0, (n - 1) ** 2 + 1)]
        for (v1, s1), (v2, s2) in zip(zip(values, stars), zip(values[1:], stars[1:])):
            if s1 != s2:
                assert v1 > v2


class TestSharpnessGuard:
    def test_worked_case_congruence_holds_range_fails(self):
        check = sharpness_guard("kappa_digraph", 6, 25, 2)
        assert not check.met
        assert not any("congruence" in r for r in check.reasons)
        assert any("range" in r for r in check.reasons)

    def test_congruence_failure(self):
        check = sharpness_guard("kappa_digraph", 6, 24, 2)
        assert not check.met
        assert any("congruence" in r for r in check.reasons)

    def test_kappa_one_congruence_trivial(self):
        for bid in ("kappa_digraph", "kappa_graph"):
            check = sharpness_guard(bid, 12, 55, 1)
            assert not any("congruence" in r for r in check.reasons)

    def test_kappa_graph_guard_satisfiable(self):
        # graph family: m = C(n-1,2) is attained by a real member, and the
        # stated range is consistent there
        n = 8
        check = sharpness_guard("kappa_graph", n, math.comb(n - 1, 2), 2)
        assert check.met

    def test_unknown_bound(self):
        with pytest.raises(ValueError):
            sharpness_guard("nope", 5, 5, 1)


class TestBoundVsFamily:
    @pytest.mark.parametrize("kappa", [1, 2])
    def test_family_members_attain_bound_exactly(self, kappa):
        # for kappa <= 2 the literal congruence anchor matches counted
        # family sizes, so the bound equals family remoteness at m = m(D)
        for n in range(2 * kappa + 2, 10):
            for p in enumerate_kappa_pc_family(n, kappa):
                D = kappa_pc_digraph(p)
                result = evaluate_bound("kappa_digraph", n, D.size, kappa=kappa)
                assert result.m_star == D.size
                assert result.value == remoteness(D)[0]

    def test_kappa_3_literal_anchor_undershoots(self):
        # documented discrepancy: at kappa = 3 the literal anchor skips the
        # true family sizes, so the closed form dips below the remoteness
        # actually attained by the family member of that size
        members = enumerate_kappa_pc_family(9, 3)
        sizes = {kappa_pc_digraph(p).size: p for p in members}
        p = sizes[61]
        member = kappa_pc_digraph(p)
        rho = remoteness(member)[0]
        assert rho == Fraction(15, 8)
        literal = evaluate_bound("kappa_digraph", 9, 61, kappa=3)
        assert literal.m_star == 62
        assert literal.value < rho
        # with the counted anchor the identity is restored
        star = m_star_counted(9, 61, 3)
        assert star == 61
        corrected = (
            Fraction(9, 3) + 2 - Fraction(1, 3) - Fraction(2, 8) - Fraction(star, 3 * 8)
        )
        assert corrected == rho
