import hashlib
import json
import os
import random
import subprocess
import sys
from array import array
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from dgr import (
    EnumerationSpec,
    audit_size_formulas,
    bidirect,
    build_digraph,
    canonical_form,
    check_eulerian_size_theorem,
    check_extremal_uniqueness,
    check_lemma_monotonicity,
    check_universal_bound,
    check_universal_bounds,
    complete_digraph,
    complete_graph,
    digraph_from_canonical_hex,
    directed_cycle,
    dpk_select,
    enumerate_digraphs,
    is_eulerian,
    kappa_pc_digraph,
    profile_digraph,
    remoteness,
)
from dgr.masks import (
    canonical_mask, digraph_of_mask, draw_cells, is_balanced, lanes, mask_of_digraph,
)
from dgr.verifier import (
    _Blocks, _Draws, _Tally, _batch_bits, _new_stats, _packed, _pieces, _stride_planes,
    _sweep_shard,
)

from oracles import are_isomorphic, eulerian_mask_flags, strong_mask_flags
from test_core import dpk_2121


class TestEnumeration:
    def test_n2_single_strong(self):
        found = list(enumerate_digraphs(EnumerationSpec(2, "strong")))
        assert len(found) == 1
        assert found[0].arcs == frozenset({(0, 1), (1, 0)})

    def test_n3_strong_count(self):
        # frozen from the boolean-closure oracle over all 64 masks
        assert int(strong_mask_flags(3).sum()) == 18
        assert sum(1 for _ in enumerate_digraphs(EnumerationSpec(3, "strong"))) == 18

    def test_n4_counts_match_oracle(self):
        assert int(strong_mask_flags(4).sum()) == 1606
        assert int(eulerian_mask_flags(4).sum()) == 118
        spec = EnumerationSpec(4, "eulerian")
        assert sum(1 for _ in enumerate_digraphs(spec)) == 118

    def test_exhaustive_ceiling(self):
        # one order cap for both modes: order 6 is the last that enumerates
        with pytest.raises(ValueError, match="order must be in 1..6"):
            EnumerationSpec(7, "strong")
        with pytest.raises(ValueError, match="order must be in 1..6"):
            EnumerationSpec(7, "strong", mode="sampled", samples=10, seed=1)

    def test_sampled_needs_seed(self):
        with pytest.raises(ValueError, match="seed"):
            EnumerationSpec(6, "strong", mode="sampled", samples=10)

    @pytest.mark.parametrize("given", [{"samples": 10}, {"seed": 1}, {"samples": 10, "seed": 1}])
    def test_exhaustive_refuses_samples_and_seed(self, given):
        with pytest.raises(ValueError, match="exhaustive mode takes no sample count or seed"):
            EnumerationSpec(3, **given)

    def test_sampled_deterministic(self):
        spec = EnumerationSpec(6, "strong", mode="sampled", samples=50, seed=7)
        first = [D.arcs for D in enumerate_digraphs(spec)]
        second = [D.arcs for D in enumerate_digraphs(spec)]
        assert first == second
        assert all(D.order == 6 for D in enumerate_digraphs(spec))

    def test_kappa_filter(self):
        spec = EnumerationSpec(4, "strong_kappa", param=2)
        from dgr import vertex_connectivity

        members = list(enumerate_digraphs(spec))
        assert members and all(vertex_connectivity(D).value >= 2 for D in members)

    def test_param_required(self):
        with pytest.raises(ValueError, match="parameter"):
            EnumerationSpec(4, "strong_kappa")

    @pytest.mark.parametrize(
        "given",
        [
            {"order": 4, "mode": "sampled", "samples": 2.5, "seed": 1},
            {"order": 4, "mode": "sampled", "samples": "10", "seed": 1},
            {"order": 4, "mode": "sampled", "samples": 10, "seed": 1.5},
            {"order": 4, "mode": "sampled", "samples": 10, "seed": "7"},
            {"order": 4, "mode": "sampled", "samples": 10, "seed": True},
            {"order": True},
            {"order": 4, "class_filter": "strong_kappa", "param": 1.5},
        ],
        ids=["samples-float", "samples-str", "seed-float", "seed-str", "seed-bool", "order-bool",
             "param-float"],
    )
    def test_non_integer_fields_refused(self, given):
        # the report header records these fields, so a run stays
        # reproducible only if each is the integer it claims to be
        with pytest.raises(ValueError, match="must be an integer, got"):
            EnumerationSpec(**given)
        given = dict(given)
        with pytest.raises(ValueError, match="must be an integer, got"):
            check_universal_bounds(given.pop("order"), bound_ids=("size_digraph",), **given)

    @pytest.mark.parametrize(
        "check, args",
        [
            (audit_size_formulas, (True, 1)),
            (audit_size_formulas, (7.5, 1)),
            (audit_size_formulas, (5, 1.5)),
            (check_lemma_monotonicity, (6, True)),
            (check_lemma_monotonicity, (5.5, 1)),
            (check_lemma_monotonicity, (6, 2.0)),
            (check_extremal_uniqueness, (4, 9.0, 1)),
        ],
        ids=["audit-order-bool", "audit-order-float", "audit-kappa-float", "lemma-kappa-bool",
             "lemma-order-float", "lemma-kappa-float", "uniqueness-m-float"],
    )
    def test_family_checks_refuse_non_integers(self, check, args):
        # the family checks write their arguments into the report too, by
        # the same rule as the spec's fields
        with pytest.raises(ValueError, match="must be an integer, got"):
            check(*args)

    def test_negative_param_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            EnumerationSpec(6, "strong_kappa", param=-2, mode="sampled", samples=5, seed=1)

    def test_negative_seed_rejected(self):
        # random.Random(-s) seeds exactly as Random(s), so a negative seed
        # would draw another seed's sample under its own header
        assert random.Random(-7).getrandbits(64) == random.Random(7).getrandbits(64)
        with pytest.raises(ValueError, match="^seed must be non-negative, got -7$"):
            EnumerationSpec(4, mode="sampled", samples=500, seed=-7)
        with pytest.raises(ValueError, match="^seed must be non-negative, got -7$"):
            check_universal_bounds(
                4, "strong", ("size_digraph",), mode="sampled", samples=500, seed=-7
            )
        assert EnumerationSpec(4, mode="sampled", samples=500, seed=0).header()["seed"] == 0

    @pytest.mark.parametrize("class_filter", ["strong", "eulerian"])
    def test_param_on_a_class_without_one_rejected(self, class_filter):
        with pytest.raises(ValueError, match="takes no parameter"):
            EnumerationSpec(4, class_filter, param=3)

    def test_sampled_yields_the_strong_draws_in_draw_order(self):
        # every strong draw, duplicates and back-to-back repeats included,
        # in the order drawn
        rng = random.Random(1)
        draws = [rng.getrandbits(6) for _ in range(500)]
        flags = strong_mask_flags(3)
        expected = [mask for mask in draws if flags[mask]]
        assert len(set(expected)) < len(expected)
        assert any(a == b and flags[a] for a, b in zip(draws, draws[1:]))
        spec = EnumerationSpec(3, "strong", mode="sampled", samples=500, seed=1)
        assert [mask_of_digraph(D) for D in enumerate_digraphs(spec)] == expected

    @pytest.mark.parametrize("n, expected", [(1, (1, 0, 1)), (2, (1, 1, 1))])
    def test_small_order_counts(self, n, expected):
        # below order 2 connectivity counts as 0, so strong_kappa(1) is empty
        specs = (
            EnumerationSpec(n, "strong"),
            EnumerationSpec(n, "strong_kappa", param=1),
            EnumerationSpec(n, "eulerian"),
        )
        assert tuple(sum(1 for _ in enumerate_digraphs(s)) for s in specs) == expected


def _piece(spec, lo, hi):
    """The piece of ``spec``'s stream lo..hi-1.

    A sampled piece starts from the generator state that the per-draw
    stream, ``getrandbits`` once per draw, leaves after draw lo - 1.
    """
    if spec.mode == "exhaustive":
        return _Blocks(spec, lo, hi)
    rng = random.Random(spec.seed)
    for _ in range(lo):
        rng.getrandbits(spec.order * (spec.order - 1))
    return _Draws(spec, lo, hi, rng.getstate())


def _piece_batches(pieces):
    """(pos, seq) of every batch of the pieces, in piece order."""
    return [
        (batch.pos, list(batch.seq))
        for piece in pieces
        for batch in piece.batches(_batch_bits(piece.spec.order))
    ]


def _piece_draws(pieces):
    """The draws of a sampled spec's pieces, concatenated in piece order."""
    return [mask for _pos, seq in _piece_batches(pieces) for mask in seq]


def _oracle_connectivity(monkeypatch, kappa=None, lam=None):
    """Replace kappa and/or lambda, given as functions of n, wherever a sweep reads them.

    The oracle reads both from ``kappa_lambda_mask`` on every stride
    candidate; a sweep that needs lambda reads ``lambda_mask`` on its
    members.
    """
    import dgr.masks as masks_mod

    real = masks_mod.kappa_lambda_mask

    def pair(mask, n):
        k, l = real(mask, n)
        return (k if kappa is None else kappa(n)), (l if lam is None else lam(n))

    monkeypatch.setattr(masks_mod, "kappa_lambda_mask", pair)
    if lam is not None:
        monkeypatch.setattr(masks_mod, "lambda_mask", lambda mask, n: lam(n))


def _kappa_is_order(monkeypatch):
    """kappa = n disagrees with the kappa planes and breaks kappa <= lambda."""
    _oracle_connectivity(monkeypatch, kappa=lambda n: n)


def _lambda_is_zero(monkeypatch):
    """lambda = 0 breaks kappa <= lambda on every stride candidate."""
    _oracle_connectivity(monkeypatch, lam=lambda n: 0)


def _lambda_zero_off_the_chain(monkeypatch):
    """lambda = 0 on the masks off the chain stride only, the object lanes among them.

    In an exhaustive sweep a lane's mask is its stream position, so only
    the check of kappa <= lambda on the object-stride candidates off the
    chain stride can catch it.
    """
    import dgr.masks as masks_mod

    real = masks_mod.kappa_lambda_mask

    def pair(mask, n):
        kappa, lam = real(mask, n)
        return kappa, (lam if mask % 101 == 0 else 0)

    monkeypatch.setattr(masks_mod, "kappa_lambda_mask", pair)


def _lambda_above_semidegree(monkeypatch):
    """lambda = n breaks lambda <= min semidegree on every stride candidate."""
    _oracle_connectivity(monkeypatch, lam=lambda n: n)


def _walk_misses_one_arc(monkeypatch):
    """The connectivity walks count one missing arc fewer than the mask lacks.

    kappa's walk then skips the groups as wide as the missing arcs, and
    lambda's stops one group early, wherever a walk runs.
    """
    import dgr.masks as masks_mod

    kappa_walk, lambda_walk = masks_mod._kappa_walk, masks_mod._lambda_walk
    monkeypatch.setattr(
        masks_mod, "_kappa_walk",
        lambda mask, n, missing: kappa_walk(mask, n, missing - 1),
    )
    monkeypatch.setattr(
        masks_mod, "_lambda_walk", lambda mask, n, missing: lambda_walk(mask, n, missing - 1)
    )


def _kappa_walk_off_by_one(monkeypatch):
    """The kappa walk reports one more than its value wherever it is reached.

    ``kappa_lambda_mask`` reaches it only where lambda >= 2, so only the
    kappa map of a stride candidate with lambda >= 2 can catch it.
    """
    import dgr.masks as masks_mod

    real = masks_mod._kappa_walk
    monkeypatch.setattr(
        masks_mod, "_kappa_walk", lambda mask, n, missing: real(mask, n, missing) + 1
    )


def _semidegree_is_zero(monkeypatch):
    """A min semidegree of 0 breaks lambda <= min semidegree, as lambda >= 1."""
    import dgr.masks as masks_mod

    monkeypatch.setattr(masks_mod, "min_semidegree_mask", lambda mask, n: 0)


def _transmission_off_by_one(monkeypatch):
    """The object-level transmissions disagree with the mask core's sigma."""
    import dgr.core as core_mod

    real = core_mod.transmission
    monkeypatch.setattr(core_mod, "transmission", lambda D, v: real(D, v) + 1)


def _connectivity_off_by_one(name):
    """A sabotage: the object-level ``name`` reports one more than its value."""

    def sabotage(monkeypatch):
        import dgr.connectivity as conn_mod

        real = getattr(conn_mod, name)

        def skewed(D):
            result = real(D)
            return conn_mod.ConnectivityResult(result.value + 1, result.witness_cut)

        monkeypatch.setattr(conn_mod, name, skewed)

    return sabotage


# the object-level cross-check runs the guard-free flow bodies
_object_kappa_off_by_one = _connectivity_off_by_one("_vertex_connectivity")
_object_lambda_off_by_one = _connectivity_off_by_one("_edge_connectivity")


def _lanes_holding(mask: int, cells: list[int], lanes_in: int) -> int:
    """Lanes of ``lanes_in`` that hold ``mask``: its cells set, every other cell clear."""
    for k, plane in enumerate(cells):
        lanes_in &= plane if mask >> k & 1 else ~plane
    return lanes_in


def _complete_lanes(cells: list[int], lanes_in: int) -> int:
    """Lanes of ``lanes_in`` that hold the complete digraph: every cell set."""
    return _lanes_holding((1 << len(cells)) - 1, cells, lanes_in)


def _block_planes_skewed(edit):
    """A sabotage: ``block_planes`` misreports on the complete digraph's lanes.

    ``edit(block, lanes)`` gives the misreported block. Those lanes are
    stride lanes (every lane is at n <= 4) and members of every class the
    entry points sweep, exhaustive block or sampled batch, so the scalar
    oracle must catch it.
    """

    def sabotage(monkeypatch):
        import dgr.masks as masks_mod

        real = masks_mod.block_planes

        def skewed(n, cells, ones):
            return edit(real(n, cells, ones), _complete_lanes(cells, ones))

        monkeypatch.setattr(masks_mod, "block_planes", skewed)

    return sabotage


def _flip_bit0(counter: list[int], lanes_in: int) -> list[int]:
    return [counter[0] ^ lanes_in, *counter[1:]]


_sigma_max_off_by_one = _block_planes_skewed(
    lambda block, lanes_in: block._replace(sigma_max=_flip_bit0(block.sigma_max, lanes_in))
)
_size_off_by_one = _block_planes_skewed(
    lambda block, lanes_in: block._replace(size=_flip_bit0(block.size, lanes_in))
)
_strong_plane_drops = _block_planes_skewed(
    lambda block, lanes_in: block._replace(strong=block.strong & ~lanes_in)
)


def _balance_plane_flips(mask: int):
    """A sabotage: ``balance_plane`` flips the lanes holding ``mask``.

    A batch of draws counts its degrees by ``balance_plane``, and the
    prefilter keeps only the lanes it holds, so a dropped draw never reaches
    the stride oracle. Where the draw is at a stride position, the scalar
    ``is_balanced`` run on those positions before the cut must catch it,
    dropped or kept. An unbalanced draw kept off the strides must fail the
    ``is_balanced`` that ``_packed`` runs on every kept lane.
    """

    def sabotage(monkeypatch):
        import dgr.masks as masks_mod

        real = masks_mod.balance_plane

        def skewed(n, cells, ones):
            return real(n, cells, ones) ^ _lanes_holding(mask, cells, ones)

        monkeypatch.setattr(masks_mod, "balance_plane", skewed)

    return sabotage


def _range_balance_flips(*flipped: int):
    """A sabotage: the table's balance plane, ``range_balance``, flips the lanes of ``flipped``.

    An exhaustive block reads its balance plane off ``degree_gap_planes``
    through ``range_balance``, and the prefilter keeps only the lanes it
    holds. A balanced mask is dropped, on a stride position or not, so it
    never reaches the stride oracle: the sweep's count of kept lanes by
    size against ``masks.balanced_by_size`` must catch it. An unbalanced
    mask is kept, and the scalar ``is_balanced`` that ``_packed`` runs on
    every kept lane must catch it, also where a dropped mask of its size
    leaves the count as it was.
    """

    def sabotage(monkeypatch):
        import dgr.masks as masks_mod

        real = masks_mod.range_balance

        def skewed(n, base, bits):
            plane = real(n, base, bits)
            for mask in flipped:
                if base <= mask < base + (1 << bits):
                    plane ^= 1 << (mask - base)
            return plane

        monkeypatch.setattr(masks_mod, "range_balance", skewed)

    return sabotage


def _is_balanced_rejects(mask: int):
    """A sabotage: scalar ``is_balanced`` rejects ``mask``, a balanced mask.

    The prefilter keeps the mask by its plane, and ``_packed`` runs
    ``is_balanced`` on every kept lane, of a batch kept whole or packed,
    so that check must name it.
    """

    def sabotage(monkeypatch):
        import dgr.masks as masks_mod

        real = masks_mod.is_balanced
        monkeypatch.setattr(masks_mod, "is_balanced", lambda m, n: m != mask and real(m, n))

    return sabotage


# the complete digraph of order 4, a member of every Eulerian class
_ORDER4_COMPLETE = (1 << 12) - 1
# the one arc of cell 0, unbalanced at every order
_ONE_ARC = 1
# a strong, balanced order-5 mask on the chain stride: 782 * 101
_ORDER5_CHAIN_EULERIAN = 78_982
# the directed 5-cycle 0 -> 1 -> 2 -> 3 -> 4 -> 0, strong and balanced, on
# neither stride: 78 mod 101 and 479 mod 1009
_ORDER5_CYCLE = 99_361
# an unbalanced order-5 mask on the chain stride, and one with 5 arcs, as
# many as the 5-cycle, on neither stride
_ORDER5_CHAIN_UNBALANCED = 101
_ORDER5_UNBALANCED_5_ARCS = 31
# a seeded order-5 sample whose draw 707 = 7 * 101, mask 70,683, is strong
# and balanced
_SAMPLED_N5_SEED = 10
_SAMPLED_N5_STRIDE_EULERIAN = 70_683
# its draw 1, mask 34,167, unbalanced and on neither stride, drawn once
_SAMPLED_N5_OFF_STRIDE_UNBALANCED = 34_167


def _kappa_plane_off_by_one(monkeypatch):
    """The kappa planes put the complete digraph's lanes at kappa n - 2.

    Every entry point computes kappa planes at least on its stride
    candidates, so the scalar ``kappa_lambda_mask`` must catch it.
    """
    import dgr.masks as masks_mod

    real = masks_mod.kappa_planes

    def skewed(n, cells, lanes_in):
        groups = real(n, cells, lanes_in)
        complete = _complete_lanes(cells, lanes_in)
        if complete:
            groups[n - 1] ^= complete
            groups[n - 2] = groups.get(n - 2, 0) | complete
        return groups

    monkeypatch.setattr(masks_mod, "kappa_planes", skewed)


def _profile_planes_skewed(monkeypatch):
    """The profile planes move the complete digraph's lanes at source 0.

    They go from profile (1, n - 1) to (1, n - 2, 1). The complete digraph
    is Eulerian and on the chain stride at n <= 4, so the profile oracle,
    ``core.distance_profile`` on the decoded digraph, must catch it.
    """
    import dgr.masks as masks_mod

    real = masks_mod.profile_planes

    def skewed(n, cells, lanes_in):
        groups = real(n, cells, lanes_in)
        complete = _complete_lanes(cells, lanes_in)
        if complete:
            groups[0][(1, n - 1)] ^= complete
            groups[0][(1, n - 2, 1)] = groups[0].get((1, n - 2, 1), 0) | complete
        return groups

    monkeypatch.setattr(masks_mod, "profile_planes", skewed)


def _every_hit_orbit_min(monkeypatch):
    """The orbit-minimality planes keep every equality hit as a witness.

    Every kept witness must pass ``is_canonical``, so any hit that
    is not its class's least labeling must trip the witness oracle, at
    n <= 4 and at n = 5, where these sweeps have no hit on the chain stride.
    """
    import dgr.masks as masks_mod

    monkeypatch.setattr(masks_mod, "orbit_min_planes", lambda n, cells, lanes_in: lanes_in)


# a seeded order-3 sample that draws the complete digraph (mask 63)
_SAMPLED_SEED = 2
_SAMPLED_DRAWS = 200

# the complete digraph of order 3, which the seeded sample draws; it first
# draws _ONE_ARC at draw 42
_ORDER3_COMPLETE = (1 << 6) - 1
# a sampled Eulerian sweep: its draw batches count their degrees
_SAMPLED_EULERIAN_ENTRY = {
    "sampled_eulerian": lambda: check_universal_bounds(
        3, "eulerian", ("eulerian_size",),
        mode="sampled", samples=_SAMPLED_DRAWS, seed=_SAMPLED_SEED,
    ),
    "sampled_eulerian_n5": lambda: check_universal_bounds(
        5, "eulerian", ("eulerian_size",), mode="sampled", samples=1_000, seed=_SAMPLED_N5_SEED,
    ),
}

# order 1, whose one Eulerian block, the single mask 0, is kept whole
_ORDER1_EULERIAN_ENTRY = {
    "eulerian_theorem_n1": lambda: check_eulerian_size_theorem(1),
    "enumerate_n1": lambda: list(enumerate_digraphs(EnumerationSpec(1, "eulerian"))),
}

_ENTRY_POINTS = {
    "universal_bounds": lambda: check_universal_bounds(4, "strong", ("size_digraph",)),
    "extremal_uniqueness": lambda: check_extremal_uniqueness(4, 9, 1),
    "eulerian_theorem": lambda: check_eulerian_size_theorem(4),
    "enumerate": lambda: list(enumerate_digraphs(EnumerationSpec(4, "eulerian"))),
    "sampled_universal_bounds": lambda: check_universal_bounds(
        3, "strong", ("kappa_digraph",),
        mode="sampled", samples=_SAMPLED_DRAWS, seed=_SAMPLED_SEED,
    ),
}

# The kernel block of the exhaustive order-6 sweep that holds mask
# 34,954,787 = 343 * 101 * 1009: strong lanes on both strides and equality
# hits on the chain stride. It enters every case that skews every lane. The
# complete-digraph sabotages stay at n <= 4: at n = 6 the complete digraph
# is mask 2**30 - 1, which is 16 mod 101 and so off the chain stride.
_ORDER6_WIDTH = 1 << _batch_bits(6)
_ORDER6_BLOCK = 34_954_787 - 34_954_787 % _ORDER6_WIDTH
_ORDER6_ENTRY = {
    "order6_block": lambda: _sweep_shard(
        ("digraph_order", "size_digraph"),
        _Blocks(EnumerationSpec(6, "strong"), _ORDER6_BLOCK, _ORDER6_BLOCK + _ORDER6_WIDTH),
    ),
}
_EVERY_LANE_ENTRIES = (*_ENTRY_POINTS, *_ORDER6_ENTRY)

# The top kernel block of the exhaustive order-6 sweep, masks up to 2**30 - 1:
# dense lanes, among them the complete digraph minus cell 4 (mask 2**30 - 17,
# on the chain stride), whose kappa and lambda are 4.
_ORDER6_TOP = (1 << 30) - _ORDER6_WIDTH
_ORDER6_DENSE_ENTRY = {
    "order6_dense_block": lambda: _sweep_shard(
        ("digraph_order", "size_digraph"),
        _Blocks(EnumerationSpec(6, "strong"), _ORDER6_TOP, 1 << 30),
    ),
}
# The skip-rule sabotage changes a value only where the missing arcs are
# exactly one cut (kappa) or all lie in one leaving cut (lambda). Neither
# holds on a balanced digraph, as a balanced arc set cannot all leave one
# vertex set, nor on the order-6 block above, whose lanes lack at least 11
# arcs while a cut has at most 9 cells; so those entries cannot catch it
# (test_walk_sabotage_changes_no_exempt_lane), and it has its own list.
_WALK_SABOTAGE_ENTRIES = (
    "universal_bounds", "extremal_uniqueness", "sampled_universal_bounds",
    *_ORDER6_DENSE_ENTRY,
)

# order-5 exhaustive sweeps none of whose equality hits lies on the chain
# stride (mask % 101 == 0); the lambda class is the N5_GOLDEN pin
_ORDER5_WITNESS_SWEEPS = {
    "eulerian_theorem_n5": lambda: check_eulerian_size_theorem(5),
    "extremal_uniqueness_n5": lambda: check_extremal_uniqueness(5, 16, 1),
    "eulerian_lambda_class_n5": lambda: check_universal_bounds(
        5, "eulerian_lambda", ("eulerian_size", "eulerian_lambda"), param=2
    ),
}

# The entries with a stride candidate whose lambda is at least 2, the only
# lanes on which kappa_lambda_mask runs the kappa walk. Every stride
# candidate of the "order6_block" entry has lambda 1, so it never
# reaches the walk.
_KAPPA_WALK_ENTRIES = (
    *_ENTRY_POINTS, *_ORDER5_WITNESS_SWEEPS, *_ORDER6_DENSE_ENTRY,
)

# (id, entry, sabotage): the kappa cases keep their bare entry-point ids
_CROSSCHECK_CASES = [
    *((name, name, _kappa_is_order) for name in _EVERY_LANE_ENTRIES),
    *((f"{name}-sigma_max", name, _sigma_max_off_by_one) for name in _ENTRY_POINTS),
    *((f"{name}-kappa_plane", name, _kappa_plane_off_by_one) for name in _ENTRY_POINTS),
    *((f"{name}-size", name, _size_off_by_one) for name in _ENTRY_POINTS),
    *((f"{name}-strong_plane", name, _strong_plane_drops) for name in _ENTRY_POINTS),
    *((f"{name}-lambda_chain", name, _lambda_is_zero) for name in _EVERY_LANE_ENTRIES),
    *(
        (f"{name}-lambda_above_semidegree", name, _lambda_above_semidegree)
        for name in _EVERY_LANE_ENTRIES
    ),
    *(
        (f"{name}-semidegree_chain", name, _semidegree_is_zero)
        for name in _EVERY_LANE_ENTRIES
    ),
    # the object lanes off the chain stride check kappa <= lambda too
    *((f"{name}-off_chain_lambda", name, _lambda_zero_off_the_chain) for name in _ORDER6_ENTRY),
    *((f"{name}-walk_skip", name, _walk_misses_one_arc) for name in _WALK_SABOTAGE_ENTRIES),
    *((f"{name}-kappa_walk", name, _kappa_walk_off_by_one) for name in _KAPPA_WALK_ENTRIES),
    # the entry points with a class candidate on the object stride
    *(
        (f"{name}-{case}", name, sabotage)
        for case, sabotage in (
            ("object_level", _transmission_off_by_one),
            ("object_kappa", _object_kappa_off_by_one),
            ("object_lambda", _object_lambda_off_by_one),
        )
        for name in ("universal_bounds", "sampled_universal_bounds", *_ORDER6_ENTRY)
    ),
    # the entry points whose class asks for a balanced plane, each of which
    # must catch a dropped balanced lane and a kept unbalanced one: the
    # exhaustive ones read the plane off the table and count what it keeps,
    # the sampled ones count degrees and check their stride positions before
    # the cut; every kept lane meets is_balanced in _packed
    *(
        (f"{name}-{case}", name, _range_balance_flips(mask))
        for case, mask in (
            ("balanced_plane", _ORDER4_COMPLETE), ("unbalanced_plane", _ONE_ARC),
        )
        for name in ("eulerian_theorem", "enumerate")
    ),
    *(
        (f"{name}-{case}", name, _range_balance_flips(mask))
        for case, mask in (
            ("balanced_plane", _ORDER5_CHAIN_EULERIAN),
            ("unbalanced_plane", _ORDER5_CHAIN_UNBALANCED),
        )
        for name in ("eulerian_theorem_n5", "eulerian_lambda_class_n5")
    ),
    (
        "eulerian_theorem_n5-balanced_plane_off_stride", "eulerian_theorem_n5",
        _range_balance_flips(_ORDER5_CYCLE),
    ),
    # a dropped balanced mask and a kept unbalanced one of the same size
    # leave the count by size as it was
    (
        "eulerian_theorem_n5-balanced_plane_swap", "eulerian_theorem_n5",
        _range_balance_flips(_ORDER5_CYCLE, _ORDER5_UNBALANCED_5_ARCS),
    ),
    (
        "sampled_eulerian-balanced_plane", "sampled_eulerian",
        _balance_plane_flips(_ORDER3_COMPLETE),
    ),
    (
        "sampled_eulerian-unbalanced_plane", "sampled_eulerian",
        _balance_plane_flips(_ONE_ARC),
    ),
    (
        "sampled_eulerian_n5-balanced_plane", "sampled_eulerian_n5",
        _balance_plane_flips(_SAMPLED_N5_STRIDE_EULERIAN),
    ),
    (
        "sampled_eulerian_n5-unbalanced_plane_off_stride", "sampled_eulerian_n5",
        _balance_plane_flips(_SAMPLED_N5_OFF_STRIDE_UNBALANCED),
    ),
    # is_balanced rejects a kept balanced lane, of a batch kept whole (the
    # one Eulerian block of order 1) or of a packed one (the 5-cycle)
    *((f"{name}-is_balanced", name, _is_balanced_rejects(0)) for name in _ORDER1_EULERIAN_ENTRY),
    ("eulerian_theorem_n5-is_balanced", "eulerian_theorem_n5", _is_balanced_rejects(_ORDER5_CYCLE)),
    # the entry point that decides distance profiles as planes
    ("eulerian_theorem-profile_planes", "eulerian_theorem", _profile_planes_skewed),
    # the exhaustive entry points that collect witnesses
    *(
        (f"{name}-orbit_min", name, _every_hit_orbit_min)
        for name in (
            "universal_bounds", "extremal_uniqueness", "eulerian_theorem",
            *_ORDER5_WITNESS_SWEEPS, *_ORDER6_ENTRY,
        )
    ),
]

# the cases whose assertion message is pinned too: a map mismatch names its
# first differing lane's mask and both sides' values there; mask 4095 is the
# complete digraph of order 4, whose sigma_max 3 the sabotage reads as 2. The
# chain check names (mask, kappa, lambda, min semidegree) of the first strong
# object lane off the chain stride, 34,932,589 = 34,621 * 1009.
_CROSSCHECK_MESSAGES = {
    "universal_bounds-sigma_max": (
        r"differ in \['sigma_max'\]; first at lane 4095, mask 4095: "
        r"sigma_max \[2\] by the kernel, \[3\] by the oracle"
    ),
    "order6_block-off_chain_lambda": r"^\(34932589, 1, 0, 1\)$",
    # mask 1782 has kappa and lambda 2, the first such stride candidate
    "universal_bounds-kappa_walk": (
        r"differ in \['kappa'\]; first at lane 1782, mask 1782: "
        r"kappa \[2\] by the kernel, \[3\] by the oracle"
    ),
    # a dropped balanced mask is caught by the count of kept lanes by size,
    # once the stream is done: the order-4 complete digraph is the one
    # balanced mask with 12 arcs, 78,982 one of the 600 order-5 ones with 7,
    # and the 5-cycle one of the 164 with 5
    **{
        f"{name}-balanced_plane": r"^kept lanes by size \(.*, 0\), but the balanced .*, 1\)$"
        for name in ("eulerian_theorem", "enumerate")
    },
    **{
        f"{name}-balanced_plane": (
            r"^kept lanes by size \(1, 0, 10, 20, 75, 164, 360, 599, "
            r".*\(1, 0, 10, 20, 75, 164, 360, 600, "
        )
        for name in ("eulerian_theorem_n5", "eulerian_lambda_class_n5")
    },
    "eulerian_theorem_n5-balanced_plane_off_stride": (
        r"^kept lanes by size \(1, 0, 10, 20, 75, 163, .*\(1, 0, 10, 20, 75, 164, "
    ),
    # a kept unbalanced mask is caught by is_balanced on every kept lane,
    # before the count, as is a balanced one that is_balanced rejects
    **{
        f"{name}-unbalanced_plane": r"^mask 1 is kept, but is_balanced rejects it$"
        for name in ("eulerian_theorem", "enumerate")
    },
    **{
        f"{name}-unbalanced_plane": r"^mask 101 is kept, but is_balanced rejects it$"
        for name in ("eulerian_theorem_n5", "eulerian_lambda_class_n5")
    },
    "eulerian_theorem_n5-balanced_plane_swap": (
        r"^mask 31 is kept, but is_balanced rejects it$"
    ),
    "sampled_eulerian_n5-unbalanced_plane_off_stride": (
        r"^mask 34167 is kept, but is_balanced rejects it$"
    ),
    **{
        f"{name}-is_balanced": r"^mask 0 is kept, but is_balanced rejects it$"
        for name in _ORDER1_EULERIAN_ENTRY
    },
    "eulerian_theorem_n5-is_balanced": r"^mask 99361 is kept, but is_balanced rejects it$",
    # a sample's stride draw, dropped or kept, is caught before the cut
    "sampled_eulerian-balanced_plane": (
        r"^draw \d+, mask 63: the balance plane and is_balanced differ$"
    ),
    "sampled_eulerian-unbalanced_plane": (
        r"^draw 42, mask 1: the balance plane and is_balanced differ$"
    ),
    "sampled_eulerian_n5-balanced_plane": (
        r"^draw 707, mask 70683: the balance plane and is_balanced differ$"
    ),
}


def shard_digest(out: dict) -> str:
    """sha256 of a ``_sweep_shard`` result: instances and every bound's outcome.

    The shard keeps no count of its own: instances are its stats' members,
    and a bound's skipped count is column 1 of the by_m rows of its tally.
    Violations are their records' ``to_dict()``, in stream order. The
    document is the one recorded before the shard returned tallies, so the
    digests stand.
    """
    doc = {
        "instances": out["stats"]["members"],
        "per_bound": {
            bid: {
                "skipped": sum(row[1] for row in tally.by_m.values()),
                "violations": [v.to_dict() for v in tally.violations],
                "equality": sorted(tally.forms),
                "by_m": sorted(tally.by_m.items()),
            }
            for bid, tally in out["tallies"].items()
        },
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# _sweep_shard over stretches that cut blocks, digests recorded with the
# per-mask kernel it replaced, then the order-6 stretches 33, 341 and 700,
# stretch k being masks k * 2^20 .. (k + 1) * 2^20 - 1 of the exhaustive
# order-6 stream: (spec, lo, hi, bound ids, instances, sha256,
# (lanes_extracted, stride_lanes, orbit_min_lanes)). An Eulerian stretch's
# stride lanes are its balanced masks on either stride.
_ODD_STRETCHES = [
    (EnumerationSpec(5, "strong"), 12345, 700001, ("digraph_order", "size_digraph"),
     340419, "9da05c76a954b799e058903e479fb5cbe532e2141d3010a79461f903fb36be89",
     (1498, 7483, 70597)),
    (EnumerationSpec(5, "eulerian"), 12345, 700001,
     ("eulerian_size", "eulerian_kappa", "eulerian_lambda"),
     4696, "ac9f5bcdd69514a3590e48104e1d9440befd411796ca9edec43628ac73fcca83",
     (4702, 56, 138)),
    (EnumerationSpec(5, "strong"), 333333, 345679, ("kappa_digraph", "size_digraph"),
     6856, "919bfa1dd65ca6125960e0c385217ebbead38e2a61a718e8b26b77b6a7dbc0b6",
     (0, 134, 0)),
    (EnumerationSpec(5, "strong_kappa", 2), 500001, 517777, ("kappa_digraph",),
     2737, "68d4e75b78623dc46654c6b7075d8611198ac714b6f98d470f8ee70058468448",
     (0, 193, 0)),
    (EnumerationSpec(4, "strong"), 77, 3001, ("digraph_order", "kappa_digraph"),
     999, "caa13f2417dc0d2fd366d8f33aae62c0eae9bf802c3dd4652ffe0a1e3df9af2b",
     (681, 2924, 641)),
    (EnumerationSpec(6, "strong"), 33 << 20, 34 << 20, ("digraph_order", "size_digraph"),
     513830, "2283287075f2c7438912c6f2b7619a5fbd79b15722fcee5cd8bbc35da0ac725d",
     (1892, 11410, 20004)),
    (EnumerationSpec(6, "strong"), 341 << 20, 342 << 20, ("digraph_order", "size_digraph"),
     853504, "a594d4f2f5b14b45059e1c6fa7fc1da0fc7454ca88b70f33e6f3dca895bd64f7",
     (165, 11411, 17676)),
    (EnumerationSpec(6, "strong"), 700 << 20, 701 << 20, ("digraph_order", "size_digraph"),
     811248, "b3efbb6ed0b2d384c51385dcae6931a7ef862e02afa58b907566b7c811667043",
     (103, 11411, 9552)),
    # the Eulerian lambda class pulls lambda for every member of a stretch
    (EnumerationSpec(6, "eulerian"), 33 << 20, 34 << 20,
     ("eulerian_size", "eulerian_kappa", "eulerian_lambda"),
     988, "acfa476054f4c94ae1cdc6c134267c8ce619635811734a4fff67cc943932ee51",
     (988, 5, 0)),
    (EnumerationSpec(6, "eulerian"), 341 << 20, 342 << 20,
     ("eulerian_size", "eulerian_kappa", "eulerian_lambda"),
     1832, "20575f09c854adb4eb14341f14e2e98ae665b976688b6139d045767c1ecefcd1",
     (1832, 11, 0)),
    (EnumerationSpec(6, "eulerian"), 700 << 20, 701 << 20,
     ("eulerian_size", "eulerian_kappa", "eulerian_lambda"),
     2682, "75b7dbaa20835aaf8b7c8da3b8f4d914215cf85d06d88d9128f1ca76b7ef6814",
     (2682, 28, 2)),
]


class TestSharedKernel:
    @pytest.mark.parametrize(
        "entry, sabotage, message",
        [(*case[1:], _CROSSCHECK_MESSAGES.get(case[0])) for case in _CROSSCHECK_CASES],
        ids=[case[0] for case in _CROSSCHECK_CASES],
    )
    def test_every_sweep_runs_the_crosschecks(self, monkeypatch, entry, sabotage, message):
        sabotage(monkeypatch)
        with pytest.raises(AssertionError, match=message):
            {
                **_ENTRY_POINTS, **_ORDER5_WITNESS_SWEEPS, **_ORDER6_ENTRY,
                **_ORDER6_DENSE_ENTRY, **_SAMPLED_EULERIAN_ENTRY, **_ORDER1_EULERIAN_ENTRY,
            }[entry]()

    def test_walk_sabotage_changes_no_exempt_lane(self, monkeypatch):
        # the entries left out of _WALK_SABOTAGE_ENTRIES read the same
        # kappa and lambda with the sabotage as without: every balanced
        # mask at n <= 4 and every mask of the order-6 block
        import dgr.masks as masks_mod

        exempt = [
            (n, mask)
            for n in range(2, 5)
            for mask in range(1 << n * (n - 1))
            if masks_mod.is_balanced(mask, n)
        ]
        exempt += [(6, mask) for mask in range(_ORDER6_BLOCK, _ORDER6_BLOCK + _ORDER6_WIDTH)]
        dense = [(4, _ORDER4_COMPLETE ^ 1), (6, (1 << 30) - 17)]
        expected = [masks_mod.kappa_lambda_mask(mask, n) for n, mask in exempt + dense]
        assert expected[-2:] == [(2, 2), (4, 4)]
        _walk_misses_one_arc(monkeypatch)
        seen = [masks_mod.kappa_lambda_mask(mask, n) for n, mask in exempt + dense]
        assert seen[:-2] == expected[:-2]
        # on the complete digraph minus one arc it skips the one missed cut
        assert seen[-2:] == [(3, 3), (5, 5)]

    def test_sampled_order5_sweep_runs_the_kappa_oracle(self, monkeypatch):
        # stride lanes are chosen by position in the sample, so an order-5
        # sample reaches kappa_lambda_mask on its strong stride draws
        _kappa_is_order(monkeypatch)
        with pytest.raises(AssertionError):
            check_universal_bounds(
                5, "strong", ("size_digraph",), mode="sampled", samples=2_000, seed=1
            )

    @pytest.mark.parametrize("pos", [0, 1, 100, 1009, 12_345, 101 * 1009 - 7])
    def test_stride_lanes_are_the_positions_on_either_stride(self, pos):
        width = 1 << _batch_bits(5)
        valid = random.Random(pos).getrandbits(width)

        def on(stride):
            return [i for i in range(width) if valid >> i & 1 and (pos + i) % stride == 0]

        chain, objects = _stride_planes(5, pos, width, valid)
        assert list(lanes(chain)) == on(101)
        assert list(lanes(objects)) == on(1009)
        # every valid lane is on the chain stride at n <= 4; the object
        # stride stays the positions divisible by 1009
        chain, objects = _stride_planes(4, pos, width, valid)
        assert chain == valid
        assert list(lanes(objects)) == on(1009)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_stride_planes_at_every_width(self, n):
        # the planes against the positions on either stride, for widths
        # from one lane to a kernel batch, batches that start at every
        # residue of interest, and every valid lane, none, a piece edge's
        # run or a random plane
        chain_stride = 1 if n <= 4 else 101
        rng = random.Random(n)
        for bits in sorted({0, 3, _batch_bits(n) // 2, _batch_bits(n)}):
            width = 1 << bits
            ones = (1 << width) - 1
            for pos in (0, 7, 1009 - 3, 101 * 1009 - width // 2, rng.randrange(1 << 30)):
                for valid in (ones, 0, ones >> (width // 3), rng.getrandbits(width)):
                    chain, objects = _stride_planes(n, pos, width, valid)
                    on = [
                        [i for i in range(width) if valid >> i & 1 and (pos + i) % s == 0]
                        for s in (chain_stride, 1009)
                    ]
                    assert (list(lanes(chain)), list(lanes(objects))) == tuple(on)

    def test_the_sampled_entry_point_draws_the_complete_digraph(self):
        rng = random.Random(_SAMPLED_SEED)
        assert 63 in [rng.getrandbits(6) for _ in range(_SAMPLED_DRAWS)]

    @pytest.mark.parametrize(
        "spec, lo, hi, bound_ids, instances, digest, lanes",
        _ODD_STRETCHES,
        ids=[f"{c[0].class_label}-{c[1]}-{c[2]}" for c in _ODD_STRETCHES],
    )
    def test_odd_stretches_match_the_per_mask_kernel(
        self, spec, lo, hi, bound_ids, instances, digest, lanes
    ):
        out = _sweep_shard(bound_ids, _Blocks(spec, lo, hi))
        assert shard_digest(out) == digest
        stats = out["stats"]
        assert (stats["masks"], stats["members"]) == (hi - lo, instances)
        assert (stats["lanes_extracted"], stats["stride_lanes"], stats["orbit_min_lanes"]) == lanes

    def test_order6_uniqueness_blocks_skip_and_gather(self):
        from dgr.verifier import _uniqueness_shard

        # the last 2**20 order-6 masks, 32 blocks of 2**15, for (m, kappa) =
        # (25, 2), pinned with the kernel that decoded every lane of every
        # block: blocks with fewer than 25 nonzero cells (15 low cells plus
        # the set high ones) are skipped, the others cut to their lanes with
        # m >= 25 and packed
        rho, _ = remoteness(dpk_select(6, 25, 2)[0])
        spec = EnumerationSpec(6, "strong_kappa", 2)
        lo, hi = (1 << 30) - (1 << 20), 1 << 30
        out = _uniqueness_shard(25, rho, _Blocks(spec, lo, hi))
        assert out["tallies"] == {"extremal": _Tally()}
        assert out["stats"] == {
            "masks": 1 << 20,
            "blocks": 32,
            "members": 21_342,
            "lanes_extracted": 0,
            "stride_lanes": 244,
            "orbit_min_lanes": 36,
            # the Eulerian tally of kept lanes, empty in the strong_kappa class
            "kept": Counter(),
        }

    def test_blocks_too_small_for_m_min_build_no_planes(self, monkeypatch):
        import dgr.masks as masks_mod

        # a block's masks have at most its low cells plus the set high cells
        # of its base as arcs; its valid lanes, read off the lane-index
        # weight planes, are the lanes that the size counter of its cell
        # planes puts at m >= m_min, none in a block with fewer nonzero
        # cells. Only a block whose every lane is valid builds its planes:
        # none of the last 1,024 order-6 blocks at m_min = 25, whose 15 high
        # cells cannot hold 25 arcs, and the order-5 blocks with at least 4
        # of their 5 high cells set at m_min = 4
        real = masks_mod.range_cells
        built = []
        monkeypatch.setattr(
            masks_mod, "range_cells", lambda n, base, bits: built.append(base) or real(n, base, bits)
        )
        for n, m_min, blocks, whole in ((6, 25, 1024, ()), (5, 4, 32, (15, 23, 27, 29, 30, 31))):
            spec = EnumerationSpec(n, "strong_kappa", 2)
            bits = _batch_bits(n)
            hi = 1 << n * (n - 1)
            lo = hi - (blocks << bits)
            built.clear()
            batches = list(_Blocks(spec, lo, hi).batches(bits, m_min))
            assert [b.pos for b in batches] == list(range(lo, hi, 1 << bits))
            assert built == [k << bits for k in whole]
            for b in batches:
                cells, ones = real(n, b.pos, bits)
                sizes = masks_mod.value_planes(masks_mod.size_counter(cells), ones)
                assert b.valid == sum(p for m, p in sizes.items() if m >= m_min)
                if b.pos in built:
                    assert (b.cells, b.ones, b.valid) == (cells, ones, ones)
                else:
                    assert (b.cells, b.ones) == ([], 0) and b.valid != ones
            if n == 6:
                assert 0 < sum(1 for b in batches if b.valid) < len(batches)

    def test_eulerian_blocks_build_planes_only_at_order_1(self, monkeypatch):
        import dgr.masks as masks_mod

        # an Eulerian block is kept whole only where every lane is
        # balanced, so the one block that builds its cell planes is the
        # single lane of order 1; every other block's balanced lanes are
        # packed and transposed in a dense batch
        real = masks_mod.range_cells
        built = []
        monkeypatch.setattr(
            masks_mod, "range_cells",
            lambda n, base, bits: built.append((n, base, bits)) or real(n, base, bits),
        )
        specs = [EnumerationSpec(n, "eulerian") for n in range(1, 6)]
        assert [sum(1 for _ in enumerate_digraphs(spec)) for spec in specs] == [1, 1, 6, 118, 7_000]
        assert built == [(1, 0, 0)]

    def test_order6_eulerian_stretch_is_gathered(self):
        from dgr.verifier import _eulerian_shard

        # order-6 stretch 700 (masks 700 * 2^20 onwards, 32 blocks of
        # 2^15), pinned with the kernel that decoded every lane: every batch
        # is packed to its balanced lanes, 28 of them on either stride. The
        # 2,740 kept lanes by size, m = 10 .. 22, are the tally that the
        # shard returned apart from its stats before the packing counted it
        spec = EnumerationSpec(6, "eulerian")
        out = _eulerian_shard(_Blocks(spec, 700 << 20, 701 << 20))
        assert out["tallies"] == {"theorem": _Tally(), "mismatches": _Tally()}
        assert out["stats"] == {
            "masks": 1 << 20,
            "blocks": 32,
            "members": 2_682,
            "lanes_extracted": 0,
            "stride_lanes": 28,
            "orbit_min_lanes": 4,
            "kept": Counter(dict(zip(
                range(10, 23), (2, 16, 62, 170, 336, 500, 568, 500, 336, 170, 62, 16, 2)
            ))),
        }
        assert sum(out["stats"]["kept"].values()) == 2_740

    @pytest.mark.parametrize(
        "spec, lo, hi, m_min",
        [
            (EnumerationSpec(3, "strong"), 0, 64, 0),
            (EnumerationSpec(4, "eulerian"), 0, 1 << 12, 0),
            (EnumerationSpec(5, "eulerian"), 0, 1 << 20, 0),
            # blocks 14 .. 31, the first cut: those with at least 4 of the 5
            # high cells set (15, 23, 27, 29, 30, 31) are kept whole, the
            # others packed
            (EnumerationSpec(5, "strong"), (14 << _batch_bits(5)) + 999, 1 << 20, 4),
            # few lanes of 16 arcs or more in each block: one dense batch
            (EnumerationSpec(5, "strong"), 0, 1 << 20, 16),
            (EnumerationSpec(6, "eulerian", mode="sampled", samples=40_000, seed=3), 0, 40_000, 0),
        ],
        ids=["n3", "n4", "n5-eulerian", "n5-m_min-interleaved", "n5-m_min-dense", "n6-sampled"],
    )
    def test_packing_keeps_stream_order_in_full_batches(self, monkeypatch, spec, lo, hi, m_min):
        import dgr.masks as masks_mod

        n = spec.order
        bits = _batch_bits(n)
        width = 1 << bits
        eulerian = spec.class_filter.startswith("eulerian")
        # the stream as the piece cuts it, and its batches that keep a lane,
        # each with its stride planes
        stream = list(_piece(spec, lo, hi).batches(bits, m_min, eulerian))
        batches = [
            batch._replace(chain=chain, objects=objects)
            for batch in stream
            if batch.valid
            for chain, objects in [_stride_planes(n, batch.pos, len(batch.seq), batch.valid)]
        ]
        # its valid lanes are the masks with at least m_min arcs and, for the
        # Eulerian classes, balanced
        kept = [batch.seq[i] for batch in batches for i in lanes(batch.valid)]
        assert kept == [
            mask for _pos, seq in _piece_batches([_piece(spec, lo, hi)])
            for mask in seq[max(lo - _pos, 0):hi - _pos]
            if mask.bit_count() >= m_min and (not eulerian or is_balanced(mask, n))
        ]
        transposed = []
        monkeypatch.setattr(
            masks_mod, "draw_cells", lambda n, seq: transposed.append(seq) or draw_cells(n, seq)
        )
        stats = _new_stats()
        out = list(_packed(_piece(spec, lo, hi), stats, m_min))
        assert (stats["masks"], stats["blocks"]) == (hi - lo, len(stream))
        assert stats["kept"] == (Counter(mask.bit_count() for mask in kept) if eulerian else {})
        # the kept masks, and each stride's, in stream order
        for name in ("ones", "chain", "objects"):
            assert array("Q", (
                batch.seq[i] for batch in out for i in lanes(getattr(batch, name))
            )) == array("Q", (
                batch.seq[i]
                for batch in batches
                for i in lanes(batch.valid if name == "ones" else getattr(batch, name))
            ))
        # every lane of a kernel batch is kept, its stride lanes among them
        for batch in out:
            assert batch.valid == batch.ones and len(batch.seq) <= width
            assert (batch.chain | batch.objects) & ~batch.ones == 0
        # a batch kept whole comes through with its own masks, cells and
        # stride planes, untransposed: the packing transposes each dense
        # batch once, and nothing else but a sample's own draws
        whole = {batch.pos: batch for batch in batches if batch.valid == batch.ones}
        passed = [batch.pos in whole for batch in out]
        dense = [batch for batch, through in zip(out, passed) if not through]
        for batch, through in zip(out, passed):
            if through:
                stream_batch = whole[batch.pos]
                assert list(batch.seq) == list(stream_batch.seq)
                assert batch[2:] == stream_batch[2:]
        assert [seq for seq in transposed if any(seq is d.seq for d in dense)] == [
            d.seq for d in dense
        ]
        assert len(transposed) == len(dense) + (len(stream) if spec.mode == "sampled" else 0)
        for batch in dense:
            assert (batch.cells, batch.ones) == draw_cells(n, list(batch.seq))
        # the dense batches hold at most 2**bits lanes, flushed only when the
        # next batch's kept lanes would not fit, before a whole batch, and at
        # the end
        expected, size = [], 0
        for batch in batches:
            count = batch.valid.bit_count()
            if size and (batch.valid == batch.ones or size + count > width):
                expected.append(size)
                size = 0
            if batch.valid == batch.ones:
                expected.append("whole")
            else:
                size += count
        expected += [size] if size else []
        assert [
            "whole" if through else len(batch.seq) for batch, through in zip(out, passed)
        ] == expected
        if m_min == 4:
            assert 0 < len(whole) < len(out)
        elif n == 5:
            # the packed batches hold the lanes of many stream batches each
            assert len(batches) > 2 * len(dense)

    def test_samples_refuse_a_size_cut(self):
        # only the uniqueness check asks for a least size, and its spec is
        # exhaustive: a sample's batches, and so the packing, refuse one
        spec = EnumerationSpec(6, "strong", mode="sampled", samples=1_000, seed=3)
        with pytest.raises(ValueError, match="not cut by size, got m_min 20"):
            next(_piece(spec, 0, 1_000).batches(_batch_bits(6), 20))
        with pytest.raises(ValueError, match="not cut by size, got m_min 20"):
            next(_packed(_piece(spec, 0, 1_000), _new_stats(), 20))

    @pytest.mark.parametrize(
        "check, calls",
        [
            (
                partial(check_eulerian_size_theorem, 5),
                {
                    "block_planes": 1, "kappa_planes": 1, "profile_planes": 1, "draw_cells": 1,
                    "range_balance": 32,
                },
            ),
            (
                partial(check_universal_bounds, 5, "strong", ("size_digraph",)),
                {"block_planes": 32, "kappa_planes": 32},
            ),
        ],
        ids=["eulerian-n5", "strong-n5"],
    )
    def test_kernel_calls_per_sweep(self, monkeypatch, check, calls):
        import dgr.masks as masks_mod

        # the Eulerian sweep's 32 blocks keep about 600 lanes each, packed
        # into 1 kernel batch; every block of the strong sweep is kept whole.
        # Each block's balance is read off the table once, and no degree is
        # counted, in a block or in the kernel batch
        names = (
            "block_planes", "kappa_planes", "profile_planes", "draw_cells", "range_balance",
            "balance_plane",
        )
        seen = dict.fromkeys(names, 0)
        for name in seen:
            real = getattr(masks_mod, name)

            def counted(*args, name=name, real=real):
                seen[name] += 1
                return real(*args)

            monkeypatch.setattr(masks_mod, name, counted)
        check()
        assert {name: count for name, count in seen.items() if count} == calls

    # calls of sigma_vector, is_balanced, kappa_lambda_mask, lambda_mask,
    # min_semidegree_mask and _object_crosscheck per sweep
    @pytest.mark.parametrize(
        "check, calls",
        [
            (
                # is_balanced on every one of the 7,736 kept (balanced)
                # lanes, the other calls on the 84 of them at stride positions
                partial(check_eulerian_size_theorem, 5),
                (84, 7_736, 79, 0, 79, 8),
            ),
            (
                partial(check_universal_bounds, 5, "strong", ("digraph_order", "size_digraph")),
                (11_411, 0, 6_133, 0, 6_133, 556),
            ),
            (
                partial(
                    check_universal_bounds, 6, "strong", ("kappa_digraph", "size_digraph"),
                    mode="sampled", samples=200_000, seed=1,
                ),
                (2_178, 0, 1_505, 0, 1_505, 134),
            ),
            (
                # is_balanced on the 545 stride positions of the sample
                # before the cut, then on its 359 kept (balanced) draws;
                # lambda on its 322 members
                partial(
                    check_universal_bounds, 5, "eulerian",
                    ("eulerian_size", "eulerian_kappa", "eulerian_lambda"),
                    mode="sampled", samples=50_000, seed=5,
                ),
                (3, 545 + 359, 3, 322, 3, 1),
            ),
        ],
        ids=["eulerian-n5", "strong-n5", "sampled-n6", "sampled-eulerian-n5"],
    )
    def test_oracle_calls_per_sweep(self, monkeypatch, check, calls):
        # the scalar oracle's calls at one worker: any pass over fewer or
        # other stride lanes changes them; an Eulerian sweep decodes only
        # its kept lanes at stride positions
        import dgr.masks as masks_mod
        import dgr.verifier as verifier_mod

        names = (
            "sigma_vector", "is_balanced", "kappa_lambda_mask", "lambda_mask",
            "min_semidegree_mask",
        )
        targets = [(masks_mod, name) for name in names] + [(verifier_mod, "_object_crosscheck")]
        seen = {name: 0 for _, name in targets}
        for module, name in targets:
            real = getattr(module, name)

            def counted(*args, name=name, real=real):
                seen[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)
        check()
        assert tuple(seen.values()) == calls

    def test_object_oracle_runs_one_bfs_per_source(self, monkeypatch):
        # per object lane of an order-5 sweep: is_strong's two searches and
        # one BFS per source, whose rows transmission and remoteness share;
        # the flows of the chain lanes run on the guard-free bodies, with no
        # strongness search of their own
        import dgr.connectivity as conn_mod
        import dgr.core as core_mod
        import dgr.verifier as verifier_mod

        searches = {"all": 0, "flows": 0, "flow_calls": 0}
        real_bfs = core_mod._bfs_distances

        def counted_bfs(*args):
            searches["all"] += 1
            return real_bfs(*args)

        monkeypatch.setattr(core_mod, "_bfs_distances", counted_bfs)
        for name in ("_vertex_connectivity", "_edge_connectivity"):
            real_flow = getattr(conn_mod, name)

            def counted_flow(D, real_flow=real_flow):
                before = searches["all"]
                result = real_flow(D)
                searches["flows"] += searches["all"] - before
                searches["flow_calls"] += 1
                return result

            monkeypatch.setattr(conn_mod, name, counted_flow)
        per_lane = []
        real_check = verifier_mod._object_crosscheck

        def counted_check(*args):
            before = dict(searches)
            real_check(*args)
            per_lane.append(
                searches["all"] - before["all"] - (searches["flows"] - before["flows"])
            )

        monkeypatch.setattr(verifier_mod, "_object_crosscheck", counted_check)
        check_universal_bounds(5, "strong", ("digraph_order", "size_digraph"))
        assert len(per_lane) == 556 and searches["flow_calls"] > 0
        assert set(per_lane) == {5 + 2} and searches["flows"] == 0

    @pytest.mark.parametrize("order", range(1, 7))
    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_pieces_partition_the_stream(self, mode, order):
        sampled = {"samples": 50_000, "seed": 3} if mode == "sampled" else {}
        spec = EnumerationSpec(order, mode=mode, **sampled)
        total = sampled["samples"] if sampled else 1 << order * (order - 1)
        kind = _Draws if sampled else _Blocks
        for width in (1, 1 << _batch_bits(order)):
            for count in range(1, 18):
                pieces = _pieces(spec, count, width)
                assert 1 <= len(pieces) <= count
                assert all(type(piece) is kind and piece.spec == spec for piece in pieces)
                bounds = [(piece.lo, piece.hi) for piece in pieces]
                # contiguous, disjoint, in order and nonempty, covering the stream
                assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
                assert bounds[-1][1] == total and all(lo < hi for lo, hi in bounds)
                assert all(lo % width == 0 for lo, _ in bounds)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_sampled_shards_concatenate_to_the_seeded_draws(self, workers):
        spec = EnumerationSpec(6, "strong", mode="sampled", samples=100, seed=7)
        rng = random.Random(7)
        draws = [rng.getrandbits(30) for _ in range(100)]
        pieces = _pieces(spec, workers, 1)
        assert len(pieces) == workers
        assert _piece_draws(pieces) == draws

    @pytest.mark.parametrize("order", [1, 2, 6])
    def test_batch_pieces_skip_to_their_own_draws(self, order):
        # a pool sweep's pieces are whole batches; the last piece starts
        # past three batches of the generator
        width = 1 << _batch_bits(order)
        samples = 3 * width + 1_000
        spec = EnumerationSpec(order, "strong", mode="sampled", samples=samples, seed=7)
        rng = random.Random(7)
        bits = order * (order - 1)
        draws = [rng.getrandbits(bits) for _ in range(samples)]
        pieces = _pieces(spec, 16, width)
        assert all(piece.lo % width == 0 for piece in pieces)
        assert pieces[-1].lo >= 3 * width
        assert _piece_draws(pieces) == draws

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_sampled_batches_are_the_per_draw_stream(self, order):
        # getrandbits(0) takes no generator output, so at order 1 every
        # piece starts from the seed's own state
        bits = order * (order - 1)
        width = 1 << _batch_bits(order)
        samples = 2 * width + 5
        rng = random.Random(11)
        draws = [rng.getrandbits(bits) for _ in range(samples)]
        spec = EnumerationSpec(order, "strong", mode="sampled", samples=samples, seed=11)
        # past order 1 the second piece starts mid-batch, and each piece
        # ends in a short batch
        pieces = [(0, width // 2 + 1), (width // 2 + 1, samples)]
        batches = _piece_batches([_piece(spec, lo, hi) for lo, hi in pieces])
        assert [(pos, len(seq)) for pos, seq in batches] == [
            (pos, min(width, hi - pos)) for lo, hi in pieces for pos in range(lo, hi, width)
        ]
        assert [mask for _, seq in batches for mask in seq] == draws

    @pytest.mark.parametrize("bits", range(33))
    def test_one_bulk_call_draws_the_per_draw_values(self, bits):
        from dgr.verifier import _draws

        bulk, per_draw = random.Random(bits), random.Random(bits)
        for count in (1, 2, 33):
            seq = _draws(bulk, bits, count)
            assert list(seq) == [per_draw.getrandbits(bits) for _ in range(count)]
            # the generator is left where the draws one by one leave it
            assert bulk.getstate() == per_draw.getstate()

    def test_bulk_draws_fit_one_generator_output(self):
        from dgr.verifier import _draws

        with pytest.raises(AssertionError, match="32-bit"):
            _draws(random.Random(1), 33, 1)

    def test_piece_hand_over_builds_no_int_wider_than_a_batch(self):
        import tracemalloc

        # the sweep's pass to the 16 piece starts of a 4,000,000-draw
        # sample walks 3.75 million generator outputs, at most a batch a call
        spec = EnumerationSpec(6, "strong", mode="sampled", samples=4_000_000, seed=7)
        tracemalloc.start()
        try:
            pieces = _pieces(spec, 16, 1 << _batch_bits(6))
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        starts = [piece.state for piece in pieces]
        assert len(starts) == 16 and len(set(starts)) == 16
        assert peak < 1 << 20, peak


class TestSweepStats:
    def test_stats_stay_out_of_the_bytes_and_ignore_workers(self, n5_sweeps):
        one, _ = n5_sweeps[1]
        two, _ = n5_sweeps[2]
        assert [r.to_json() for r in one] == [r.to_json() for r in two]
        assert all("stats" not in json.loads(r.to_json()) for r in one)
        # 2**20 masks in 32 blocks of 2**15; 10,382 + 1,039 - 10 stride lanes
        # (mask % 101 == 0 or mask % 1009 == 0); all 96,275 equality lanes
        # decided as planes, then pulled out: the 939 on the chain stride
        # (mask % 101 == 0) for the is_canonical oracle, and the 813
        # orbit-minimal witnesses
        expected = {
            "masks": 1 << 20,
            "blocks": 32,
            "members": 565_080,
            "lanes_extracted": 939 + 813,
            "stride_lanes": 11_411,
            "orbit_min_lanes": 96_275,
        }
        assert all(r.stats == expected for r in one + two + n5_sweeps[4][0])

    def test_sampled_stats_ignore_workers(self):
        # lambda is pulled out lane by lane; a pool sweep's pieces are whole
        # batches, so every count, blocks included, ignores the worker count
        runs = [
            check_universal_bounds(
                5, "eulerian", ("eulerian_size", "eulerian_kappa", "eulerian_lambda"),
                mode="sampled", samples=50_000, seed=5, workers=workers,
            )
            for workers in (1, 2, 3)
        ]
        one, two, three = ([r.stats for r in reports] for reports in runs)
        assert one == two == three
        # 50,000 draws in batches of 2**15: one full, one of 17,232
        assert one[0]["blocks"] == 2
        assert one[0]["masks"] == 50_000 and one[0]["members"] == 322
        # every member pulled for lambda, then the equality hits once more
        # to be canonicalised
        assert one[0]["lanes_extracted"] > 322
        # the balanced draws at positions divisible by 101 or 1009; all
        # 496 + 50 - 1 of those positions are checked by is_balanced
        # before the unbalanced draws are dropped
        assert one[0]["stride_lanes"] == 3

    def test_text_prints_stats_beside_elapsed(self):
        report = check_universal_bound(3, "strong", "digraph_order")
        assert "stats: " not in report.render_text()
        lines = report.render_text(include_elapsed=True).splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("elapsed: "))
        assert json.loads(lines[at + 1].removeprefix("stats: "))["masks"] == 64


class TestCanonicalForm:
    def test_relabelled_triangles_match(self):
        t1 = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
        t2 = build_digraph(3, [(1, 0), (0, 2), (2, 1)])
        assert canonical_form(t1) == canonical_form(t2)

    def test_triangle_vs_bidirected(self):
        t = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert canonical_form(t) != canonical_form(complete_digraph(3))

    def test_random_relabelling_of_dpk(self):
        D = dpk_2121()
        rng = random.Random(99)
        perm = list(range(6))
        rng.shuffle(perm)
        relabelled = build_digraph(6, [(perm[u], perm[v]) for u, v in D.arcs])
        assert canonical_form(D) == canonical_form(relabelled)

    def test_order_cap(self):
        import dgr.masks as masks_mod
        import dgr.verifier as verifier_mod

        # one cap, kept by masks, that verifier re-exports
        assert verifier_mod.CANONICAL_MAX_ORDER == masks_mod.CANONICAL_MAX_ORDER == 8
        with pytest.raises(ValueError, match="order <= 8"):
            canonical_form(complete_digraph(9))

    def test_roundtrip_decode(self):
        D = dpk_2121()
        back = digraph_from_canonical_hex(canonical_form(D).hex())
        assert are_isomorphic(6, D.arcs, back.arcs)

    def test_witness_roundtrip(self):
        witness = check_universal_bound(4, "strong", "size_digraph").equality_witnesses[0]
        assert canonical_form(digraph_from_canonical_hex(witness)).hex() == witness

    @pytest.mark.parametrize(
        "text, match",
        [
            ("", "empty"),
            ("00", "order"),
            ("0c00", "order"),  # order 12, above CANONICAL_MAX_ORDER
            ("02", "bytes"),
            ("020000", "bytes"),
            ("0300ff", "bytes"),
            ("02ff", "bits"),
            ("0340", "bits"),  # bit 6 of an order-3 mask: only 6 arcs
        ],
    )
    def test_decode_rejects_malformed_forms(self, text, match):
        with pytest.raises(ValueError, match=match):
            digraph_from_canonical_hex(text)

    def test_sound_vs_permutation_search_n4(self):
        # canonical equality iff brute-force isomorphism, on a seeded sample
        flags = strong_mask_flags(4)
        strong = [m for m in range(len(flags)) if flags[m]]
        rng = random.Random(4)
        picks = rng.sample(strong, 40)
        for m1 in picks[:20]:
            for m2 in picks[20:]:
                d1, d2 = digraph_of_mask(4, m1), digraph_of_mask(4, m2)
                assert (canonical_form(d1) == canonical_form(d2)) == are_isomorphic(
                    4, d1.arcs, d2.arcs
                )

    def test_canonical_idempotent(self):
        mask = mask_of_digraph(dpk_2121())
        c = canonical_mask(6, mask)
        assert canonical_mask(6, c) == c

    def test_large_orders_use_direct_search(self):
        # n = 7 and 8 build the largest relabelling tables: 5,040 and 40,320
        # images per cell
        rng = random.Random(17)
        for n in (7, 8):
            D = directed_cycle(n)
            perm = list(range(n))
            rng.shuffle(perm)
            relabelled = build_digraph(n, [(perm[u], perm[v]) for u, v in D.arcs])
            assert canonical_form(D) == canonical_form(relabelled)
            assert canonical_form(D) != canonical_form(complete_digraph(n))


class TestUniversalBoundChecks:
    def test_n4_digraph_order(self):
        report = check_universal_bound(4, "strong", "digraph_order")
        assert report.instances_examined == 1606
        assert report.violations == []
        assert report.equality_witnesses

    def test_n4_size_digraph(self):
        report = check_universal_bound(4, "strong", "size_digraph")
        assert report.violations == []
        assert report.skipped_inapplicable == 0

    def test_n4_eulerian_size(self):
        report = check_universal_bound(4, "eulerian", "eulerian_size")
        assert report.instances_examined == 118
        assert report.violations == []

    def test_n4_eulerian_kappa(self):
        report = check_universal_bound(4, "eulerian", "eulerian_kappa")
        assert report.violations == []

    def test_n4_eulerian_lambda(self):
        report = check_universal_bound(4, "eulerian_lambda", "eulerian_lambda", param=2)
        assert report.violations == []

    def test_n4_kappa_digraph(self):
        report = check_universal_bound(4, "strong", "kappa_digraph")
        assert report.violations == []
        assert report.skipped_inapplicable > 0  # sizes above the counted cap

    def test_repeated_bound_ids_rejected(self):
        with pytest.raises(ValueError, match="repeat"):
            check_universal_bounds(4, "strong", ("size_digraph", "size_digraph"))

    def test_empty_bound_ids_rejected(self):
        with pytest.raises(ValueError, match="at least one bound"):
            check_universal_bounds(4, "strong", ())

    @pytest.mark.parametrize("given", [{"samples": 5}, {"seed": 1}, {"samples": 5, "seed": 1}])
    def test_exhaustive_sweep_refuses_samples_and_seed(self, given):
        # refused before any sweep, where they were once silently ignored
        with pytest.raises(ValueError, match="exhaustive mode takes no sample count or seed"):
            check_universal_bound(3, "strong", "digraph_order", **given)
        with pytest.raises(ValueError, match="exhaustive mode takes no sample count or seed"):
            check_universal_bounds(3, "strong", ("digraph_order", "size_digraph"), **given)

    def test_eulerian_bound_needs_eulerian_class(self):
        with pytest.raises(ValueError, match="eulerian"):
            check_universal_bound(4, "strong", "eulerian_size")

    def test_sampled_n6(self):
        report = check_universal_bound(
            6, "strong", "digraph_order", mode="sampled", samples=400, seed=11
        )
        assert report.violations == []
        assert report.spec["generator"] == "mt19937-getrandbits"

    def test_json_roundtrip_and_schema(self):
        report = check_universal_bound(3, "strong", "digraph_order")
        doc = json.loads(report.to_json())
        assert doc["check_id"].startswith("universal_bound:digraph_order")
        assert doc["instances"] == 18
        assert doc["violations"] == []
        assert "audit" in doc and "equality_witnesses" in doc

    def test_workers_do_not_change_bytes(self):
        r1 = check_universal_bounds(4, "strong", ("digraph_order", "size_digraph"), workers=1)
        r3 = check_universal_bounds(4, "strong", ("digraph_order", "size_digraph"), workers=3)
        assert [r.to_json() for r in r1] == [r.to_json() for r in r3]

    def test_equality_witnesses_decode_to_bound_attainers(self):
        from fractions import Fraction

        report = check_universal_bound(4, "strong", "size_digraph")
        assert report.equality_witnesses
        for hex_form in report.equality_witnesses:
            D = digraph_from_canonical_hex(hex_form)
            value, _ = remoteness(D)
            assert value == Fraction(5) - Fraction(D.size, 3)


@pytest.fixture
def pool_sizes(monkeypatch) -> list[int]:
    """The sizes of the process pools the verifier asks for; shards run inline."""
    created = []

    def inline(worker, pieces, pool_size):
        created.append(pool_size)
        return [worker(piece) for piece in pieces]

    # _run_sharded starts worker processes in _fan_out alone
    monkeypatch.setattr("dgr.verifier._fan_out", inline)
    return created


# the per-order tables of dgr.masks that a sweep's shards read
_SHARD_TABLES = (
    "_vertex_sets", "_removal_arcs", "_separations", "_separation_groups", "_lane_cells",
    "degree_gap_planes", "_transpose_stages", "_image_blocks", "_relabel_sources",
)


def _table_sizes(piece) -> dict:
    """A shard that finds nothing: the entries of each table, as its process finds them."""
    import dgr.masks as masks_mod

    return {
        "sizes": {name: getattr(masks_mod, name).cache_info().currsize for name in _SHARD_TABLES},
        "stats": _new_stats(),
        "tallies": {},
    }


class TestWorkerClamp:
    def test_pool_never_outnumbers_shards_or_cpus(self, monkeypatch, pool_sizes):
        import dgr.verifier as verifier_mod

        created = pool_sizes
        monkeypatch.setattr(verifier_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert verifier_mod._run_sharded(abs, [-1, -2, -3, -4, -5], 64) == [1, 2, 3, 4, 5]
        assert verifier_mod._run_sharded(abs, [-1, -2], 64) == [1, 2]
        assert created == [3, 2]
        many = check_universal_bounds(4, "strong", ("digraph_order",), workers=1000)
        one = check_universal_bounds(4, "strong", ("digraph_order",), workers=1)
        # order 4 is one kernel block of 4,096 masks: one piece, no pool
        assert created == [3, 2]
        assert [r.to_json() for r in many] == [r.to_json() for r in one]
        sampled = {"mode": "sampled", "samples": 20_000, "seed": 1}
        shard, pieces = verifier_mod._sweep_shard, []

        def recorded(bound_ids, piece):
            pieces.append((piece.lo, piece.hi))
            return shard(bound_ids, piece)

        monkeypatch.setattr(verifier_mod, "_sweep_shard", recorded)
        many = check_universal_bounds(4, "strong", ("digraph_order",), workers=1000, **sampled)
        # five batches of up to 4,096 draws: five whole-batch pieces on
        # three CPUs
        assert pieces == [(lo, min(lo + 4096, 20_000)) for lo in range(0, 20_000, 4096)]
        one = check_universal_bounds(4, "strong", ("digraph_order",), workers=1, **sampled)
        assert pieces[5:] == [(0, 20_000)]
        assert created == [3, 2, 3]
        assert [r.to_json() for r in many] == [r.to_json() for r in one]

    def test_pool_size_without_sched_getaffinity(self, monkeypatch, pool_sizes):
        # macOS and Windows Pythons have no os.sched_getaffinity; the pool
        # is then clamped to os.cpu_count(), or to 1 when that is unknown,
        # and a pool of one is never started: the shards run in-process
        import dgr.verifier as verifier_mod

        monkeypatch.delattr(verifier_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(verifier_mod.os, "cpu_count", lambda: 2)
        assert verifier_mod._run_sharded(abs, [-1, -2, -3], 64) == [1, 2, 3]
        monkeypatch.setattr(verifier_mod.os, "cpu_count", lambda: None)
        assert verifier_mod._run_sharded(abs, [-1, -2, -3], 64) == [1, 2, 3]
        assert pool_sizes == [2]

    @pytest.mark.parametrize("workers", [0, -3, 2.5, "2", True])
    @pytest.mark.parametrize(
        "check",
        [
            lambda w: check_universal_bounds(4, "strong", ("digraph_order",), workers=w),
            lambda w: check_eulerian_size_theorem(4, workers=w),
            lambda w: check_extremal_uniqueness(4, 9, 1, workers=w),
        ],
        ids=["universal_bounds", "eulerian_size_theorem", "extremal_uniqueness"],
    )
    def test_bad_worker_count_is_refused(self, check, workers):
        with pytest.raises(ValueError, match="worker count must be an integer of at least 1"):
            check(workers)

    def test_pool_modules_load_only_with_a_pool(self):
        # a fresh interpreter: one-process sweeps leave the process modules
        # unloaded; a pooled sweep loads multiprocessing alone and keeps
        # the bytes
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = (
            "import json, sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import dgr.cli\n"
            "from dgr.verifier import check_universal_bounds\n"
            "pool = ('concurrent.futures', 'multiprocessing')\n"
            "check_universal_bounds(4, 'strong', ('digraph_order',))\n"
            "before = [m for m in pool if m in sys.modules]\n"
            "spec = dict(mode='sampled', samples=20_000, seed=1)\n"
            "one = check_universal_bounds(4, 'strong', ('digraph_order',), **spec)\n"
            "two = check_universal_bounds(4, 'strong', ('digraph_order',), workers=2, **spec)\n"
            "print(json.dumps({'before': before,\n"
            "    'after': [m for m in pool if m in sys.modules],\n"
            "    'same': [r.to_json() for r in one] == [r.to_json() for r in two]}))\n"
        )
        out = subprocess.run(
            [sys.executable, "-I", "-S", "-c", script],
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        seen = json.loads(out.splitlines()[-1])
        assert seen["before"] == []
        assert seen["same"]
        # five pieces at two workers start a pool wherever two CPUs are usable
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        pooled = (cpus or 1) > 1
        assert seen["after"] == (["multiprocessing"] if pooled else [])

    def test_spawned_pool_matches_one_process(self):
        # macOS and Windows start pool workers by spawn, and Python 3.14
        # on Linux by forkserver: each piece and partial-bound shard is
        # pickled to a fresh interpreter, and each piece's tallies pickled
        # back, for all three shards, which must give the same bytes
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        if (cpus or 1) < 2:
            pytest.skip("a pool needs two usable CPUs")
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = (
            "import json, multiprocessing, sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "from dgr.verifier import check_eulerian_size_theorem, check_extremal_uniqueness\n"
            "from dgr.verifier import check_universal_bounds\n"
            "multiprocessing.set_start_method('spawn')\n"
            "spec = dict(mode='sampled', samples=20_000, seed=1)\n"
            "def sweeps(w):\n"
            "    reports = check_universal_bounds(4, workers=w, **spec)\n"
            "    reports.append(check_eulerian_size_theorem(5, workers=w))\n"
            "    reports.append(check_extremal_uniqueness(5, 16, 1, workers=w))\n"
            "    return [r.to_json() for r in reports]\n"
            "print(json.dumps({'same': sweeps(1) == sweeps(2),\n"
            "    'method': multiprocessing.get_start_method()}))\n"
        )
        out = subprocess.run(
            [sys.executable, "-I", "-S", "-c", script],
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        assert json.loads(out.splitlines()[-1]) == {"same": True, "method": "spawn"}

    def test_pool_workers_inherit_the_tables(self, monkeypatch):
        # the sweep builds its order's tables, the relabelling ones
        # included, just before it starts a pool, so a forked worker finds
        # them built before its first shard; nothing is built when the
        # shards run in this process. The sweep merges what the pieces
        # find, so each piece's result is read as _run_sharded returns it
        import multiprocessing

        import dgr.masks as masks_mod
        import dgr.verifier as verifier_mod

        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        if (cpus or 1) < 2 or multiprocessing.get_start_method() != "fork":
            pytest.skip("the tables are inherited by forked pool workers only")
        sampled = EnumerationSpec(6, mode="sampled", samples=40_000, seed=1)
        exhaustive = EnumerationSpec(6)
        partials, run_sharded = [], verifier_mod._run_sharded

        def recorded(*args):
            partials[:] = run_sharded(*args)
            return partials

        monkeypatch.setattr(verifier_mod, "_run_sharded", recorded)
        for spec, workers, built in (
            (sampled, 1, set()),
            (sampled, 2, set(_SHARD_TABLES)),
            (exhaustive, 2, set(_SHARD_TABLES)),
        ):
            for name in _SHARD_TABLES:
                getattr(masks_mod, name).cache_clear()
            verifier_mod._sweep(_table_sizes, spec, workers)
            assert len(partials) > 1 or workers == 1
            for seen in partials:
                assert {name for name, size in seen["sizes"].items() if size} == built

    def test_worker_assertion_reaches_the_caller(self, monkeypatch):
        # the kappa oracle fails on every piece of the sampled order-4
        # spec, and piece 0 is held back so that piece 1's assertion comes
        # back first; at two workers the sweep still raises piece 0's, as
        # one process does, and leaves no worker behind
        import multiprocessing
        import time

        import dgr.verifier as verifier_mod

        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        if (cpus or 1) < 2:
            pytest.skip("a pool needs two usable CPUs")
        shard = verifier_mod._sweep_shard

        def first_piece_late(bound_ids, piece):
            if piece.lo == 0:
                time.sleep(0.2)
            return shard(bound_ids, piece)

        def seam(mp):
            _kappa_is_order(mp)
            mp.setattr(verifier_mod, "_sweep_shard", first_piece_late)

        _forked_seam(seam)(monkeypatch)
        sampled = {"mode": "sampled", "samples": 20_000, "seed": 1}
        raised = []
        for workers in (1, 2):
            with pytest.raises(AssertionError) as info:
                check_universal_bounds(4, "strong", ("digraph_order",), workers=workers, **sampled)
            raised.append((type(info.value), info.value.args))
        assert raised[0] == raised[1]
        assert raised[0][1] and "by the oracle" in raised[0][1][0]
        # the worker's traceback is the cause, as concurrent.futures gives it
        assert "Traceback" in str(info.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_a_dead_worker_fails_the_sweep(self, monkeypatch):
        # a worker that exits on piece 2 of 5 fails the sweep with a
        # RuntimeError naming that piece, at once rather than by a hang,
        # and no worker outlives it
        import multiprocessing
        import signal

        import dgr.verifier as verifier_mod

        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        if (cpus or 1) < 2:
            pytest.skip("a pool needs two usable CPUs")
        parent, shard = os.getpid(), verifier_mod._sweep_shard

        def dies_on_piece_2(bound_ids, piece):
            if piece.lo == 2 * 4096:
                # exiting in this process would end the test run instead
                assert os.getpid() != parent
                os._exit(3)
            return shard(bound_ids, piece)

        _forked_seam(lambda mp: mp.setattr(verifier_mod, "_sweep_shard", dies_on_piece_2))(
            monkeypatch
        )

        def hung(signum, frame):
            raise TimeoutError("the sweep did not fail within 60 s of a worker's exit")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(RuntimeError, match=r"^a sweep worker ended on piece 2 of 5 "):
                check_universal_bounds(
                    4, "strong", ("digraph_order",), workers=2,
                    mode="sampled", samples=20_000, seed=1,
                )
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    def test_sampled_pool_matches_one_process(self):
        spec = {"mode": "sampled", "samples": 20_000, "seed": 1}
        two = check_universal_bounds(4, "strong", ("digraph_order", "size_digraph"), workers=2, **spec)
        one = check_universal_bounds(4, "strong", ("digraph_order", "size_digraph"), **spec)
        assert [r.to_json() for r in two] == [r.to_json() for r in one]

    def test_sweep_merges_the_pieces_tallies(self, monkeypatch):
        # three hand-built piece results stand for the pieces, and the shard
        # hands each back: two pieces share form 9 and rows for m = 3, their
        # violations are out of report order, and the middle piece found
        # nothing
        import dgr.verifier as verifier_mod
        from dgr.verifier import Counterexample

        def record(canonical, digraph):
            return Counterexample(
                digraph=digraph, rho="2", m=3, kappa=None, lam=None, bound="1", margin="1",
                canonical=canonical,
            )

        late, early, tied = record("0b", "0 1"), record("0a", "1 2"), record("0a", "0 2")
        partials = [
            {"stats": _new_stats(), "tallies": {
                "bound": _Tally([late, early], {5, 9}, {3: [4, 1, 2, 0], 4: [1, 0, 0, 1]}),
            }},
            {"stats": _new_stats(), "tallies": {}},
            {"stats": _new_stats(), "tallies": {
                "bound": _Tally([tied], {9, 12}, {3: [2, 0, 1, 1], 6: [7, 7, 0, 0]}),
                "other": _Tally(forms={1}),
            }},
        ]
        monkeypatch.setattr(verifier_mod, "_pieces", lambda spec, count, width: partials)
        tallies, _stats, _ = verifier_mod._sweep(lambda piece: piece, EnumerationSpec(3), 1)
        assert tallies == {
            "bound": _Tally(
                [tied, early, late], {5, 9, 12},
                {3: [6, 1, 3, 1], 4: [1, 0, 0, 1], 6: [7, 7, 0, 0]},
            ),
            "other": _Tally(forms={1}),
        }
        # the pieces' own tallies are not merged into
        assert partials[0]["tallies"]["bound"] == _Tally(
            [late, early], {5, 9}, {3: [4, 1, 2, 0], 4: [1, 0, 0, 1]}
        )


def lower_bounds(monkeypatch, step):
    """Lower every applicable sweep bound by ``step(n)``, so the sweeps find violations."""
    import dgr.verifier as verifier_mod

    real = verifier_mod._bound_fraction

    def lowered(bid, n, m, kap, lam):
        entry = real(bid, n, m, kap, lam)
        if entry is None:
            return None
        value = Fraction(*entry) - step(n)
        return value.numerator, value.denominator

    monkeypatch.setattr(verifier_mod, "_bound_fraction", lowered)


def _profile_cap_off(cap_step):
    """Every distance profile's size cap lowered by ``cap_step``, its extremal form wrong."""

    def sabotage(monkeypatch):
        import dgr.verifier as verifier_mod

        real = verifier_mod._profile_extremal
        monkeypatch.setattr(
            verifier_mod, "_profile_extremal", lambda counts: (real(counts)[0] - cap_step, -1)
        )

    return sabotage


def _least_rho_selected(monkeypatch):
    """``dpk_select`` picks the least-rho strong 9-arc order-4 digraph, keeping its params."""
    import dgr.verifier as verifier_mod

    least = min(
        (D for D in enumerate_digraphs(EnumerationSpec(4, "strong")) if D.size == 9),
        key=lambda D: remoteness(D)[0],
    )
    real = verifier_mod.dpk_select
    monkeypatch.setattr(verifier_mod, "dpk_select", lambda n, m, k: (least, real(n, m, k)[1]))


def _members_are_cycles(monkeypatch):
    import dgr.verifier as verifier_mod

    monkeypatch.setattr(verifier_mod, "kappa_pc_digraph", lambda p: directed_cycle(p.order))


def _forked_seam(seam):
    """``seam``, skipped where pool workers would not inherit it: they do only when forked."""

    def sabotage(monkeypatch):
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("a monkeypatched seam reaches pool workers only by fork")
        seam(monkeypatch)

    return sabotage


def _reports(result):
    return result if isinstance(result, list) else [result]


# Each check with one seam broken, so that it finds violations: (id, seam,
# check, violations per report, extra extremal forms per report, sha256 of
# the report bytes). Counts and digests were recorded before the checks
# built their records through one builder, except the Eulerian cap case's,
# recorded once each digraph listed each of its records once; the
# order-bound case runs at 1 and 2 workers, so its records also cross the
# pool.
_SABOTAGED_CHECKS = [
    *(
        (
            f"order_bounds-w{workers}",
            _forked_seam(lambda mp: lower_bounds(mp, lambda n: Fraction(1, n - 1))),
            partial(
                check_universal_bounds, 4, "strong", ("digraph_order", "kappa_digraph"),
                workers=workers,
            ),
            [894, 24], [None, None],
            "0da65b51f9900e4fb971c388c035d66b1a96d305250887aa2c3eaee75438519b",
        )
        for workers in (1, 2)
    ),
    (
        "eulerian_lambda_bound",
        lambda mp: lower_bounds(mp, lambda n: 1),
        partial(check_universal_bounds, 4, "eulerian_lambda", ("eulerian_lambda",), param=2),
        [24], [None],
        "951d21d7e4c2dc5fd0e48bd9a6d0264e7796536ffe8b229009fc22c3cc28a524",
    ),
    (
        "eulerian_cap_and_form",
        _profile_cap_off(1),
        partial(check_eulerian_size_theorem, 4),
        [31], [3],
        "0643b02cc900453b00463501d0b40f76e3406fec33f1616ff66187c2487b822e",
    ),
    (
        "eulerian_form",
        _profile_cap_off(0),
        partial(check_eulerian_size_theorem, 4),
        [0], [4],
        "c7da2937fec75d662884e893712514326b005aace5f84d77083948b71854164f",
    ),
    (
        "extremal_uniqueness",
        _least_rho_selected,
        partial(check_extremal_uniqueness, 4, 9, 1),
        [120], [10],
        "f7cb68c7a302cd097e4323e22f71435f11a964673451a5f159d8342b99799ec6",
    ),
    (
        "lemma_monotonicity",
        _members_are_cycles,
        partial(check_lemma_monotonicity, 6, 2),
        [239], [None],
        "4050c61e770e6770ae47ebad606706b1b0b36410e5a8ef0eb9a1c00d63314899",
    ),
]


class TestViolationRecords:
    @pytest.mark.parametrize(
        "seam, check, counts, extras, digest",
        [case[1:] for case in _SABOTAGED_CHECKS],
        ids=[case[0] for case in _SABOTAGED_CHECKS],
    )
    def test_sabotaged_checks_pin_their_records(
        self, monkeypatch, seam, check, counts, extras, digest
    ):
        seam(monkeypatch)
        reports = _reports(check())
        assert [len(r.violations) for r in reports] == counts
        assert [
            len(r.meta["extra_extremal_forms"]) if "extra_extremal_forms" in r.meta else None
            for r in reports
        ] == extras
        assert not any(r.ok for r in reports)
        data = "".join(r.to_json() for r in reports).encode()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_sweep_records_carry_their_bound(self, monkeypatch):
        lower_bounds(monkeypatch, lambda n: Fraction(1, n - 1))
        order, kappa = check_universal_bounds(4, "strong", ("digraph_order", "kappa_digraph"))
        for report, takes_kappa in ((order, False), (kappa, True)):
            for v in report.violations:
                D = digraph_from_canonical_hex(v.canonical)
                assert v.m == D.size and v.lam is None
                assert (v.kappa is not None) == takes_kappa
                assert Fraction(v.margin) == Fraction(v.rho) - Fraction(v.bound) > 0
            keys = [(v.canonical, v.digraph) for v in report.violations]
            assert keys == sorted(keys)

    def test_lambda_records_carry_lambda(self, monkeypatch):
        lower_bounds(monkeypatch, lambda n: 1)
        (report,) = check_universal_bounds(4, "eulerian_lambda", ("eulerian_lambda",), param=2)
        assert report.violations
        assert all(v.lam in (2, 3) and v.kappa is None for v in report.violations)

    def test_eulerian_records_measure_size_against_the_cap(self, monkeypatch):
        _profile_cap_off(1)(monkeypatch)
        report = check_eulerian_size_theorem(4)
        for v in report.violations:
            assert Fraction(v.margin) == v.m - Fraction(v.bound) == 1

    @pytest.mark.parametrize("n", [4, 5])
    def test_eulerian_records_are_distinct(self, monkeypatch, n):
        # a digraph with several vertices at the diameter over the same cap
        # gives one record, not one per vertex
        _profile_cap_off(1)(monkeypatch)
        report = check_eulerian_size_theorem(n)
        assert report.violations
        assert len(set(report.violations)) == len(report.violations)

    def test_lemma_records_of_both_kinds(self, monkeypatch):
        _members_are_cycles(monkeypatch)
        report = check_lemma_monotonicity(6, 2)
        # arc-addition records carry the augmented digraph's canonical
        # form; pair records carry none
        assert {bool(v.canonical) for v in report.violations} == {True, False}
        for v in report.violations:
            assert Fraction(v.margin) == Fraction(v.rho) - Fraction(v.bound)


class TestEulerianSizeTheorem:
    def test_n4_sweep(self):
        report = check_eulerian_size_theorem(4)
        assert report.instances_examined == 118
        assert report.violations == []
        assert report.meta["extra_extremal_forms"] == []
        assert report.equality_witnesses

    def test_equality_member(self):
        D = profile_digraph([1, 2, 1])
        assert D.size == 10 == 2 * 5
        assert canonical_form(D).hex() in check_eulerian_size_theorem(4).equality_witnesses

    def test_directed_cycle_strict(self):
        # profile (1,1,1,1): 4 <= 2 * 3, strict, so C4 is not a witness
        witnesses = check_eulerian_size_theorem(4).equality_witnesses
        assert canonical_form(directed_cycle(4)).hex() not in witnesses

    def test_order_cap(self):
        with pytest.raises(ValueError, match="order must be in 1..6"):
            check_eulerian_size_theorem(7)


class TestExtremalUniqueness:
    def test_n4_max_size(self):
        report = check_extremal_uniqueness(4, 9, 1)
        assert report.violations == []
        assert report.meta["extra_extremal_forms"] == []
        assert report.equality_witnesses == [report.meta["expected_form"]]

    def test_guard_refusal(self):
        with pytest.raises(ValueError, match="guard"):
            check_extremal_uniqueness(4, 8, 1)  # 8 is not a family size

    def test_order_cap(self):
        # no order-7 family member has one arc, but the order cap is
        # checked first, so the refusal names the cap
        with pytest.raises(ValueError, match="order must be in 1..6"):
            check_extremal_uniqueness(7, 1, 1)

    def test_literal_guard_recorded(self):
        report = check_extremal_uniqueness(4, 9, 1)
        guard_record = next(
            r for r in report.audit_records if r["item"] == "literal_sharpness_guard"
        )
        # the literal range [9, 7] is empty at n=4, so the literal guard
        # cannot hold even though the uniqueness statement does
        assert guard_record["met"] is False

    def test_expected_form_matches_family_member(self):
        report = check_extremal_uniqueness(4, 9, 1)
        D, _ = dpk_select(4, 9, 1)
        assert report.meta["expected_form"] == canonical_form(D).hex()


class TestLemmaMonotonicity:
    def test_small_run_clean(self):
        report = check_lemma_monotonicity(8, 3)
        assert report.violations == []
        assert report.meta["members"] > 0
        assert report.meta["complement_arcs"] > 0

    def test_single_member_arc_additions(self):
        H = kappa_pc_digraph(dpk_select(6, 20, 2)[1])
        rho_h, _ = remoteness(H)
        from dgr import complement

        comp = complement(H)
        assert comp.size == 5
        for u, v in comp.arcs:
            rho_plus, _ = remoteness(H.with_arc(u, v))
            assert rho_plus < rho_h

    def test_single_member_family_pairs_vacuous(self):
        report = check_lemma_monotonicity(6, 2)
        assert report.meta["pairs"] >= 0
        assert report.violations == []

    def test_order_cap(self):
        with pytest.raises(ValueError):
            check_lemma_monotonicity(10, 1)

    def test_huge_kappa_max_stops_at_the_largest_family(self):
        # a family of connectivity kappa starts at order 2 * kappa + 2, so at
        # n_max = 5 only kappa = 1 has members; the kappa loop must stop there
        huge = check_lemma_monotonicity(5, 10**8)
        assert huge.elapsed < 5
        small = check_lemma_monotonicity(5, 3)
        assert huge.spec == {**small.spec, "kappa_max": 10**8}
        assert huge.check_id == "lemma_monotonicity:n<=5:kappa<=100000000"
        doc, expected = json.loads(huge.to_json()), json.loads(small.to_json())
        for key in ("check_id", "spec"):
            del doc[key], expected[key]
        assert doc == expected and doc["meta"]["members"] == 4


class TestAuditSizeFormulas:
    def test_worked_n6_kappa2(self):
        report = audit_size_formulas(6, 2)
        by_item = {}
        for record in report.audit_records:
            by_item.setdefault(record["item"], []).append(record)
        assert by_item["family_max"][0]["claimed"] == 23
        assert by_item["family_max"][0]["computed"] == 25
        assert all(r["match"] for r in by_item["member_size"])

    def test_n5_kappa1(self):
        report = audit_size_formulas(5, 1)
        max_record = next(r for r in report.audit_records if r["item"] == "family_max")
        assert max_record["computed"] == 16 and max_record["claimed"] == 14

    def test_n7_kappa1(self):
        report = audit_size_formulas(7, 1)
        max_record = next(r for r in report.audit_records if r["item"] == "family_max")
        assert max_record["computed"] == 36 and max_record["claimed"] == 34

    def test_congruence_residues(self):
        report = audit_size_formulas(9, 3)
        residues = next(r for r in report.audit_records if r["item"] == "congruence_class")
        assert residues["computed_residues"] == [residues["claimed_counted"]]
        assert residues["claimed_literal"] != residues["claimed_counted"]

    def test_no_violations_ever(self):
        for n in range(4, 10):
            assert audit_size_formulas(n, 1).violations == []


class TestReportDeterminism:
    def test_repeat_runs_identical(self):
        a = check_universal_bound(4, "strong", "digraph_order").to_json()
        b = check_universal_bound(4, "strong", "digraph_order").to_json()
        assert a == b

    def test_sampled_repeat_identical(self):
        kwargs = dict(mode="sampled", samples=200, seed=3)
        a = check_universal_bound(5, "strong", "digraph_order", **kwargs).to_json()
        b = check_universal_bound(5, "strong", "digraph_order", **kwargs).to_json()
        assert a == b

    def test_text_rendering(self):
        report = check_universal_bound(3, "strong", "digraph_order")
        text = report.render_text()
        assert "violations: 0" in text
        assert "result: OK" in text
