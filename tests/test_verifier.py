import hashlib
import json
import random

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
from dgr.masks import canonical_mask, digraph_of_mask, draw_cells, lanes, mask_of_digraph
from dgr.verifier import _gather, _stride_planes, _sweep_shard

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

    def test_negative_param_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            EnumerationSpec(6, "strong_kappa", param=-2, mode="sampled", samples=5, seed=1)

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


def _piece_batches(spec, pieces):
    """(pos, seq) of every batch of a sampled spec's pieces, each piece from its own state."""
    from dgr.verifier import _batch_bits, _batches, _piece_states

    bits = _batch_bits(spec.order)
    starts = _piece_states(spec, [lo for lo, _ in pieces])
    return [
        (batch.pos, list(batch.seq))
        for (lo, hi), start in zip(pieces, starts)
        for batch in _batches(spec, lo, hi, start, bits)
    ]


def _piece_draws(spec, pieces):
    """The draws of a sampled spec's pieces, concatenated in piece order."""
    return [mask for _pos, seq in _piece_batches(spec, pieces) for mask in seq]


def _kappa_is_order(monkeypatch):
    """kappa = n disagrees with the kappa planes and breaks kappa <= lambda."""
    import dgr.masks as masks_mod

    monkeypatch.setattr(masks_mod, "kappa_mask", lambda mask, n: n)


def _lambda_is_zero(monkeypatch):
    """lambda = 0 breaks kappa <= lambda on every chain-stride candidate."""
    import dgr.masks as masks_mod

    monkeypatch.setattr(masks_mod, "lambda_mask", lambda rows, n: 0)


def _lambda_above_semidegree(monkeypatch):
    """lambda = n breaks lambda <= min semidegree on every chain-stride candidate."""
    import dgr.masks as masks_mod

    monkeypatch.setattr(masks_mod, "lambda_mask", lambda rows, n: n)


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


_object_kappa_off_by_one = _connectivity_off_by_one("vertex_connectivity")
_object_lambda_off_by_one = _connectivity_off_by_one("edge_connectivity")


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


def _balance_plane_drops(mask: int):
    """A sabotage: ``balance_plane`` drops the lanes holding ``mask``.

    The prefilter keeps a stride lane that the balance plane drops, so the
    scalar ``is_balanced`` must catch it on a stride lane, whether the
    batch is gathered (at n >= 5) or not (at n <= 4, where every lane is a
    stride lane).
    """

    def sabotage(monkeypatch):
        import dgr.masks as masks_mod

        real = masks_mod.balance_plane

        def skewed(n, cells, ones):
            return real(n, cells, ones) & ~_lanes_holding(mask, cells, ones)

        monkeypatch.setattr(masks_mod, "balance_plane", skewed)

    return sabotage


# the complete digraph of order 4, a member of every Eulerian class
_ORDER4_COMPLETE = (1 << 12) - 1
# a strong, balanced order-5 mask on the chain stride: 782 * 101
_ORDER5_CHAIN_EULERIAN = 78_982


def _kappa_plane_off_by_one(monkeypatch):
    """The kappa planes put the complete digraph's lanes at kappa n - 2.

    Every entry point computes kappa planes at least on its stride
    candidates, so the scalar ``kappa_mask`` must catch it.
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

# One kernel block of the exhaustive order-6 sweep, masks 2133 * 2**14 ..
# 2134 * 2**14 - 1: strong lanes on both strides (mask 34,954,787 =
# 343 * 101 * 1009 among them) and equality hits on the chain stride. It
# enters every case that skews every lane. The complete-digraph sabotages
# stay at n <= 4: at n = 6 the complete digraph is mask 2**30 - 1, which is
# 16 mod 101 and so off the chain stride.
_ORDER6_BLOCK = 2133 << 14
_ORDER6_ENTRY = {
    "order6_block": lambda: _sweep_shard((
        EnumerationSpec(6, "strong"), _ORDER6_BLOCK, _ORDER6_BLOCK + (1 << 14), None,
        ("digraph_order", "size_digraph"),
    )),
}
_EVERY_LANE_ENTRIES = (*_ENTRY_POINTS, *_ORDER6_ENTRY)

# order-5 exhaustive sweeps none of whose equality hits lies on the chain
# stride (mask % 101 == 0); the lambda class is the N5_GOLDEN pin
_ORDER5_WITNESS_SWEEPS = {
    "eulerian_theorem_n5": lambda: check_eulerian_size_theorem(5),
    "extremal_uniqueness_n5": lambda: check_extremal_uniqueness(5, 16, 1),
    "eulerian_lambda_class_n5": lambda: check_universal_bounds(
        5, "eulerian_lambda", ("eulerian_size", "eulerian_lambda"), param=2
    ),
}

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
    # the entry points whose class asks the kernel for a balanced plane,
    # and an order-5 sweep whose batches are gathered
    *(
        (f"{name}-balanced_plane", name, _balance_plane_drops(_ORDER4_COMPLETE))
        for name in ("eulerian_theorem", "enumerate")
    ),
    (
        "eulerian_theorem_n5-balanced_plane", "eulerian_theorem_n5",
        _balance_plane_drops(_ORDER5_CHAIN_EULERIAN),
    ),
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


def shard_digest(out: dict) -> str:
    """sha256 of a ``_sweep_shard`` result: instances and every bound's outcome."""
    doc = {
        "instances": out["instances"],
        "per_bound": {
            bid: {
                "skipped": state["skipped"],
                "violations": sorted(state["violations"]),
                "equality": sorted(state["equality"]),
                "by_m": sorted(state["by_m"].items()),
            }
            for bid, state in out["per_bound"].items()
        },
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# _sweep_shard over stretches that cut blocks, digests recorded with the
# per-mask kernel it replaced, then the order-6 stretches 33, 341 and 700,
# stretch k being masks k * 2^20 .. (k + 1) * 2^20 - 1 of the exhaustive
# order-6 stream: (spec, lo, hi, bound ids, instances, sha256,
# (lanes_extracted, stride_lanes, orbit_min_lanes))
_ODD_STRETCHES = [
    (EnumerationSpec(5, "strong"), 12345, 700001, ("digraph_order", "size_digraph"),
     340419, "9da05c76a954b799e058903e479fb5cbe532e2141d3010a79461f903fb36be89",
     (1498, 7483, 70597)),
    (EnumerationSpec(5, "eulerian"), 12345, 700001,
     ("eulerian_size", "eulerian_kappa", "eulerian_lambda"),
     4696, "ac9f5bcdd69514a3590e48104e1d9440befd411796ca9edec43628ac73fcca83",
     (4702, 7483, 138)),
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
     (988, 11410, 0)),
    (EnumerationSpec(6, "eulerian"), 341 << 20, 342 << 20,
     ("eulerian_size", "eulerian_kappa", "eulerian_lambda"),
     1832, "20575f09c854adb4eb14341f14e2e98ae665b976688b6139d045767c1ecefcd1",
     (1832, 11411, 0)),
    (EnumerationSpec(6, "eulerian"), 700 << 20, 701 << 20,
     ("eulerian_size", "eulerian_kappa", "eulerian_lambda"),
     2682, "75b7dbaa20835aaf8b7c8da3b8f4d914215cf85d06d88d9128f1ca76b7ef6814",
     (2682, 11411, 2)),
]


class TestSharedKernel:
    @pytest.mark.parametrize(
        "entry, sabotage",
        [case[1:] for case in _CROSSCHECK_CASES],
        ids=[case[0] for case in _CROSSCHECK_CASES],
    )
    def test_every_sweep_runs_the_crosschecks(self, monkeypatch, entry, sabotage):
        sabotage(monkeypatch)
        with pytest.raises(AssertionError):
            {**_ENTRY_POINTS, **_ORDER5_WITNESS_SWEEPS, **_ORDER6_ENTRY}[entry]()

    def test_sampled_order5_sweep_runs_the_kappa_oracle(self, monkeypatch):
        # stride lanes are chosen by position in the sample, so an order-5
        # sample reaches kappa_mask on its strong stride draws
        _kappa_is_order(monkeypatch)
        with pytest.raises(AssertionError):
            check_universal_bounds(
                5, "strong", ("size_digraph",), mode="sampled", samples=2_000, seed=1
            )

    @pytest.mark.parametrize("pos", [0, 1, 100, 1009, 12_345, 101 * 1009 - 7])
    def test_stride_lanes_are_the_positions_on_either_stride(self, pos):
        width = 1 << 14
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
        out = _sweep_shard((spec, lo, hi, None, bound_ids))
        assert out["instances"] == instances
        assert shard_digest(out) == digest
        stats = out["stats"]
        assert (stats["masks"], stats["members"]) == (hi - lo, instances)
        assert (stats["lanes_extracted"], stats["stride_lanes"], stats["orbit_min_lanes"]) == lanes

    def test_order6_uniqueness_blocks_skip_and_gather(self):
        from dgr.verifier import _uniqueness_shard

        # the last 64 order-6 blocks for (m, kappa) = (25, 2), pinned with
        # the kernel that decoded every lane of every block: blocks with
        # fewer than 25 nonzero cells (14 low cells plus the set high ones)
        # are skipped, the others gathered to their lanes with m >= 25
        rho, _ = remoteness(dpk_select(6, 25, 2)[0])
        spec = EnumerationSpec(6, "strong_kappa", 2)
        lo, hi = (1 << 30) - (64 << 14), 1 << 30
        out = _uniqueness_shard((spec, lo, hi, None, 25, rho.numerator, rho.denominator))
        assert out["instances"] == 21_342
        assert out["hits"] == [] and out["breaches"] == []
        assert out["stats"] == {
            "masks": 1 << 20,
            "blocks": 64,
            "members": 21_342,
            "lanes_extracted": 0,
            "stride_lanes": 244,
            "orbit_min_lanes": 36,
        }

    def test_blocks_too_small_for_m_min_build_no_planes(self, monkeypatch):
        import dgr.masks as masks_mod
        from dgr.verifier import _batches

        # the last 1,024 order-6 blocks: a block's masks have at most its 14
        # low cells plus the set high cells of its base as arcs, so only the
        # blocks with at least 25 nonzero cells build their planes
        real = masks_mod.range_cells
        built = []
        monkeypatch.setattr(
            masks_mod, "range_cells", lambda n, base, bits: built.append(base) or real(n, base, bits)
        )
        spec = EnumerationSpec(6, "strong_kappa", 2)
        lo, hi = (1 << 30) - (1024 << 14), 1 << 30
        batches = list(_batches(spec, lo, hi, None, 14, 25))
        assert [b.pos for b in batches] == list(range(lo, hi, 1 << 14))
        assert all(b.valid == (1 << (1 << 14)) - 1 for b in batches)
        nonzero = {b.pos: sum(1 for plane in real(6, b.pos, 14)[0] if plane) for b in batches}
        assert built == [pos for pos in nonzero if nonzero[pos] >= 25]
        assert 0 < len(built) < len(batches)
        for b in batches:
            if b.pos in set(built):
                assert (b.cells, b.ones) == real(6, b.pos, 14)
            else:
                assert (b.cells, b.ones) == ([], 0)

    def test_order6_eulerian_stretch_is_gathered(self):
        from dgr.verifier import _eulerian_shard

        # order-6 stretch 700 (masks 700 * 2^20 onwards), pinned with
        # the kernel that decoded every lane: every batch is gathered to
        # its balanced lanes and its stride lanes
        spec = EnumerationSpec(6, "eulerian")
        out = _eulerian_shard((spec, 700 << 20, 701 << 20, None))
        assert out["instances"] == 2_682
        assert out["violations"] == [] and out["mismatches"] == []
        assert out["equality"] == set()
        assert out["stats"] == {
            "masks": 1 << 20,
            "blocks": 64,
            "members": 2_682,
            "lanes_extracted": 0,
            "stride_lanes": 11_411,
            "orbit_min_lanes": 4,
        }

    @pytest.mark.parametrize(
        "spec, lo, hi",
        [
            (EnumerationSpec(3, "strong"), 0, 64),
            (EnumerationSpec(4, "eulerian"), 0, 1 << 12),
            (EnumerationSpec(5, "eulerian"), 37 << 14, 38 << 14),
            # a block cut by both stretch edges
            (EnumerationSpec(5, "strong"), (37 << 14) + 999, (38 << 14) - 77),
            (EnumerationSpec(6, "strong", mode="sampled", samples=5_000, seed=3), 0, 5_000),
        ],
        ids=["n3", "n4", "n5", "n5-cut", "n6-sampled"],
    )
    def test_gather_packs_the_kept_lanes_in_lane_order(self, spec, lo, hi):
        from dgr.verifier import _batch_bits, _batches, _piece_states

        n = spec.order
        state = _piece_states(spec, [lo])[0]
        batch = next(_batches(spec, lo, hi, state, _batch_bits(n)))
        chain, objects = _stride_planes(n, batch.pos, len(batch.seq), batch.valid)
        batch = batch._replace(chain=chain, objects=objects)
        # some valid lanes, and every stride lane, as _members keeps them
        keep = random.Random(lo).getrandbits(len(batch.seq)) & batch.valid | chain | objects
        gathered, picked = _gather(n, batch, keep)
        kept = [batch.seq[i] for i in lanes(keep)]
        assert [batch.seq[i] for i in picked] == list(gathered.seq) == kept
        assert (gathered.cells, gathered.ones) == draw_cells(n, kept)
        assert gathered.pos == batch.pos
        assert gathered.valid == gathered.ones
        for name in ("chain", "objects"):
            plane, packed = getattr(batch, name), getattr(gathered, name)
            assert [gathered.seq[j] for j in lanes(packed)] == [batch.seq[i] for i in lanes(plane)]
        assert objects and chain
        # only valid lanes are kept; nothing kept is an empty batch
        assert _gather(n, batch, batch.ones)[1] == list(lanes(batch.valid))
        empty, picked = _gather(n, batch, 0)
        assert (list(empty.seq), empty.ones, empty.chain, picked) == ([], 0, 0, [])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_sampled_shards_concatenate_to_the_seeded_draws(self, workers):
        from dgr.verifier import _shards

        spec = EnumerationSpec(6, "strong", mode="sampled", samples=100, seed=7)
        rng = random.Random(7)
        draws = [rng.getrandbits(30) for _ in range(100)]
        shards = _shards(100, workers)
        assert len(shards) == workers
        assert _piece_draws(spec, shards) == draws

    @pytest.mark.parametrize("order", [1, 2, 6])
    def test_batch_pieces_skip_to_their_own_draws(self, order):
        from dgr.verifier import _shards

        # a pool sweep's pieces are whole batches; at order 6 the last
        # piece starts 49,152 draws in, past three batches of the generator
        spec = EnumerationSpec(order, "strong", mode="sampled", samples=50_000, seed=7)
        rng = random.Random(7)
        bits = order * (order - 1)
        draws = [rng.getrandbits(bits) for _ in range(50_000)]
        width = 1 << min(bits, 14)
        pieces = _shards(50_000, 16, width)
        assert len(pieces) > 1 and all(lo % width == 0 for lo, _ in pieces)
        assert _piece_draws(spec, pieces) == draws

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_sampled_batches_are_the_per_draw_stream(self, order):
        # getrandbits(0) takes no generator output, so at order 1 every
        # piece starts from the seed's own state
        bits = order * (order - 1)
        width = 1 << min(bits, 14)
        samples = 2 * width + 5
        rng = random.Random(11)
        draws = [rng.getrandbits(bits) for _ in range(samples)]
        spec = EnumerationSpec(order, "strong", mode="sampled", samples=samples, seed=11)
        # past order 1 the second piece starts mid-batch, and each piece
        # ends in a short batch
        pieces = [(0, width // 2 + 1), (width // 2 + 1, samples)]
        batches = _piece_batches(spec, pieces)
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

    def test_piece_states_build_no_int_wider_than_a_batch(self):
        import tracemalloc

        from dgr.verifier import _piece_states, _shards

        # the sweep's pass to the 16 piece starts of a 4,000,000-draw
        # sample walks 3.75 million generator outputs, at most 2**14 a call
        spec = EnumerationSpec(6, "strong", mode="sampled", samples=4_000_000, seed=7)
        pieces = _shards(4_000_000, 16, 1 << 14)
        tracemalloc.start()
        try:
            starts = _piece_states(spec, [lo for lo, _ in pieces])
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(starts) == 16 and len(set(starts)) == 16
        assert peak < 1 << 20, peak


class TestSweepStats:
    def test_stats_stay_out_of_the_bytes_and_ignore_workers(self, n5_sweeps):
        one, _ = n5_sweeps[1]
        two, _ = n5_sweeps[2]
        assert [r.to_json() for r in one] == [r.to_json() for r in two]
        assert all("stats" not in json.loads(r.to_json()) for r in one)
        # 2**20 masks in 64 blocks of 2**14; 10,382 + 1,039 - 10 stride lanes
        # (mask % 101 == 0 or mask % 1009 == 0); all 96,275 equality lanes
        # decided as planes, then pulled out: the 939 on the chain stride
        # (mask % 101 == 0) for the is_canonical oracle, and the 813
        # orbit-minimal witnesses
        expected = {
            "masks": 1 << 20,
            "blocks": 64,
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
        assert one[0]["blocks"] == 4
        assert one[0]["masks"] == 50_000 and one[0]["members"] == 322
        # every member pulled for lambda, then the equality hits once more
        # to be canonicalised
        assert one[0]["lanes_extracted"] > 322
        # the positions 0..49,999 divisible by 101 or 1009: 496 + 50 - 1
        assert one[0]["stride_lanes"] == 545

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
    import dgr.verifier as verifier_mod

    created = []

    class FakePool:
        """Records the requested pool size and runs the shards inline."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(verifier_mod, "ProcessPoolExecutor", FakePool)
    return created


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
        monkeypatch.setattr(
            verifier_mod, "_sweep_shard", lambda job: pieces.append(job[1:3]) or shard(job)
        )
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
        # is then clamped to os.cpu_count(), or to 1 when that is unknown
        import dgr.verifier as verifier_mod

        monkeypatch.delattr(verifier_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(verifier_mod.os, "cpu_count", lambda: 2)
        assert verifier_mod._run_sharded(abs, [-1, -2, -3], 64) == [1, 2, 3]
        monkeypatch.setattr(verifier_mod.os, "cpu_count", lambda: None)
        assert verifier_mod._run_sharded(abs, [-1, -2, -3], 64) == [1, 2, 3]
        assert pool_sizes == [2, 1]

    def test_sampled_pool_matches_one_process(self):
        spec = {"mode": "sampled", "samples": 20_000, "seed": 1}
        two = check_universal_bounds(4, "strong", ("digraph_order", "size_digraph"), workers=2, **spec)
        one = check_universal_bounds(4, "strong", ("digraph_order", "size_digraph"), **spec)
        assert [r.to_json() for r in two] == [r.to_json() for r in one]


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
