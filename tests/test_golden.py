"""Golden report bytes: SHA-256 of the concatenated ``to_json()`` of each sweep.

Any change to enumeration, witness collection or serialisation that moves
a byte of a report fails here.
"""

import functools
import hashlib

import pytest

from dgr import (
    audit_size_formulas,
    check_eulerian_size_theorem,
    check_extremal_uniqueness,
    check_lemma_monotonicity,
    check_universal_bounds,
)
from dgr.verifier import _PIECES_PER_WORKER, EnumerationSpec, _batch_bits, _pieces

from oracles import labeled_strong_by_size
from test_masks import LABELED_STRONG


def _digest(reports) -> str:
    return hashlib.sha256("".join(r.to_json() for r in reports).encode()).hexdigest()


# a sweep that two tests pin, by report bytes and by stats, runs once
_shared_sweep = functools.cache(check_universal_bounds)
_shared_theorem = functools.cache(check_eulerian_size_theorem)


N4_GOLDEN = {
    "digraph_order": (
        lambda: check_universal_bounds(4, "strong", ("digraph_order",)),
        "97cf279ae1f36aa32576f6569d920fb9c251a85b73c2df9c9af6edf362b8f1bd",
    ),
    "size_digraph": (
        lambda: check_universal_bounds(4, "strong", ("size_digraph",)),
        "01adb25b00c25ef8d4085f0f7a871e4129fdcaf9ada4e7eda5b461f2cb378e82",
    ),
    "kappa_digraph": (
        lambda: check_universal_bounds(4, "strong", ("kappa_digraph",)),
        "84d3e738b13ae971bad0369b94a2867adc84e4d5bc00e7942245f7434b01cbd4",
    ),
    "eulerian_size": (
        lambda: check_universal_bounds(4, "eulerian", ("eulerian_size",)),
        "ab1b37f89035c3a359a59896e4d61c5f9a465c0fec7d5043c539a36ccc3c0168",
    ),
    "eulerian_kappa": (
        lambda: check_universal_bounds(4, "eulerian", ("eulerian_kappa",)),
        "4ac9a66efc1ade74a82584386c58d1a1e1a203c1a34d45f352235b58987ddd4d",
    ),
    "eulerian_lambda_class": (
        lambda: check_universal_bounds(
            4, "eulerian_lambda", ("eulerian_lambda",), param=2
        ),
        "3c06421809115117916434396ce76698707b6e2c868d563c00c255a0bdd8a551",
    ),
    "eulerian_size_theorem": (
        lambda: [_shared_theorem(4)],
        "7f55b12e9f0f2500ba8599d11a5d7f069a320f3634a57eb4465d2e5dbb812143",
    ),
    "extremal_uniqueness": (
        lambda: [check_extremal_uniqueness(4, 9, 1)],
        "c2596f5095d2728503553be6feb91975d2ef3535236a3aaf9fbb44514c9a6487",
    ),
}

N5_DUAL_BOUND_SHA256 = "67d434c99becee60d83fa01f8141f6f24e0bb3587e57af9f3bb7923a0b31efa1"

# (run, digest, instances examined by each report)
N5_GOLDEN = {
    "eulerian_bounds": (
        lambda: check_universal_bounds(
            5, "eulerian", ("eulerian_size", "eulerian_kappa", "eulerian_lambda")
        ),
        "7fc9d3a592baeee4e3b690f5bd2b56c55250ad247667871014a837ba67e97920",
        7_000,
    ),
    "eulerian_size_theorem": (
        lambda: [_shared_theorem(5)],
        "3d5bea39666d61971862d610cfcedb80afee9ba4c7407fa24261e2080d9c8b32",
        7_000,
    ),
    "extremal_uniqueness": (
        lambda: [check_extremal_uniqueness(5, 16, 1)],
        "6d42e4fe137666a7a74bfd761554c971957b74382bc2e7f2fc5c332ffa8bd9d4",
        6_186,
    ),
    # lambda decides the class
    "eulerian_lambda_class": (
        lambda: _shared_sweep(
            5, "eulerian_lambda", ("eulerian_size", "eulerian_lambda"), param=2
        ),
        "2784ae8f1d45427f5560593dfb8a9802223cad197c5706c4e6dbe8fe6339b7a6",
        2_561,
    ),
    # kappa decides the class and a bound needs lambda
    "eulerian_kappa_class_lambda_bound": (
        lambda: _shared_sweep(
            5, "eulerian_kappa", ("eulerian_kappa", "eulerian_lambda"), param=2
        ),
        "38c0854688283302627134987728133cb2d83b57256e057a155d7fd2aed2d43c",
        2_366,
    ),
}

# work counters of the lambda sweeps above: 2**20 masks in 32 kernel blocks
# of 2**15 lanes. The stride lanes are the 84 balanced masks on either
# stride: 76 divisible by 101 and 10 by 1009, less the 2 divisible by both.
# lambda is pulled out once on every candidate that meets the kappa
# threshold: the lambda class pulls all 7,000 Eulerian digraphs, decides its
# 41 equality hits as planes and pulls out the 3 orbit-minimal ones (none of
# the 41 is on the chain stride, mask % 101 == 0); the kappa class pulls
# exactly its 2,366 members, since no lambda is computed below the
# threshold, and has no equality hit.
N5_LAMBDA_STATS = {
    "eulerian_lambda_class": {
        "masks": 1 << 20,
        "blocks": 32,
        "members": 2_561,
        "lanes_extracted": 7_000 + 3,
        "stride_lanes": 84,
        "orbit_min_lanes": 41,
    },
    "eulerian_kappa_class_lambda_bound": {
        "masks": 1 << 20,
        "blocks": 32,
        "members": 2_366,
        "lanes_extracted": 2_366,
        "stride_lanes": 84,
        "orbit_min_lanes": 0,
    },
}

# work counters of the Eulerian size theorem, in one kernel block at n = 4
# and 2**20 / 2**15 = 32 at n = 5. The stride lanes are the balanced masks
# on either stride: all 152 at n = 4, where every lane is on the chain
# stride, and the 84 of the lambda sweeps above at n = 5. Distance
# profiles are decided as planes, so the theorem pulls lanes out only for
# witnesses: at n = 4 every lane is on the chain stride, so its 31 equality
# hits are pulled for the is_canonical oracle, then its 4 orbit-minimal ones;
# at n = 5 none of the 241 hits is on the chain stride and the 7
# orbit-minimal ones are pulled.
EULERIAN_THEOREM_STATS = {
    4: {
        "masks": 1 << 12,
        "blocks": 1,
        "members": 118,
        "lanes_extracted": 31 + 4,
        "stride_lanes": 152,
        "orbit_min_lanes": 31,
    },
    5: {
        "masks": 1 << 20,
        "blocks": 32,
        "members": 7_000,
        "lanes_extracted": 7,
        "stride_lanes": 84,
        "orbit_min_lanes": 241,
    },
}

N6_SAMPLED_SHA256 = "3ad0f13d8b08178894ad1f1d0dd8b859162ed66080bb79e49c06b07c7a1f9d2a"

# sampled sweeps, recorded with the per-mask kernel: (run at a worker count,
# digest, instances examined by each report). The Eulerian sample is longer
# than one batch of 2**15 draws, so it crosses a batch edge and ends in a
# short batch, and it pulls lambda out lane by lane.
SAMPLED_GOLDEN = {
    "strong_kappa2_n6": (
        lambda workers: check_universal_bounds(
            6, "strong_kappa", ("kappa_digraph",), param=2,
            mode="sampled", samples=5_000, seed=2, workers=workers,
        ),
        "eaeb7e3bbb5530854dce3a8ffade42db5507705b2ebdc7756691677bff412345",
        636,
    ),
    "eulerian_bounds_n5": (
        lambda workers: check_universal_bounds(
            5, "eulerian", ("eulerian_size", "eulerian_kappa", "eulerian_lambda"),
            mode="sampled", samples=50_000, seed=5, workers=workers,
        ),
        "cca832d7aab0d44856739c5c6907bdeb4f53ba5f9839244e7a05fd0b5c0f7df0",
        322,
    ),
    "size_digraph_n2": (
        lambda workers: check_universal_bounds(
            2, "strong", ("size_digraph",),
            mode="sampled", samples=300, seed=4, workers=workers,
        ),
        "cba242abc6a8cf2fd389ac80b35c656f441124a8ef44db8df6683c8aaa0b5591",
        76,
    ),
}


@pytest.mark.parametrize("check", sorted(N4_GOLDEN))
def test_order4_report_bytes(check):
    run, expected = N4_GOLDEN[check]
    assert _digest(run()) == expected


def test_order5_dual_bound_report_bytes(n5_sweeps):
    reports, _elapsed = n5_sweeps[1]
    assert _digest(reports) == N5_DUAL_BOUND_SHA256
    # labeled strong digraphs of order 5 (OEIS A003030)
    assert all(r.instances_examined == 565_080 for r in reports)


def test_order5_dual_bound_report_bytes_at_three_workers():
    # 16 pieces, each two whole blocks of the exhaustive kernel
    reports = check_universal_bounds(
        5, "strong", ("digraph_order", "size_digraph"), workers=3
    )
    assert _digest(reports) == N5_DUAL_BOUND_SHA256


@pytest.mark.parametrize("workers", [2, 4])
def test_order5_uniqueness_report_bytes_in_a_pool(workers):
    # 16 or 32 pieces, whose breaches and witness forms the sweep merges
    _run, expected, instances = N5_GOLDEN["extremal_uniqueness"]
    report = check_extremal_uniqueness(5, 16, 1, workers=workers)
    assert _digest([report]) == expected
    assert report.instances_examined == instances


def test_strong_counting_polynomial_totals():
    # labeled strong digraphs of order 1 .. 6 (OEIS A003030)
    totals = [sum(by_size) for by_size in labeled_strong_by_size(6)[1:]]
    assert totals == [*LABELED_STRONG, 734_774_776]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_strong_sweeps_examine_the_counted_digraphs_of_every_size(n5_sweeps, n):
    # column 0 of a strong sweep's by_m rows, the digraphs examined at
    # each size m, is the counting polynomial's coefficient of x**m
    reports = (
        n5_sweeps[1][0] if n == 5
        else check_universal_bounds(n, "strong", ("digraph_order", "size_digraph"))
    )
    counted = {m: count for m, count in enumerate(labeled_strong_by_size(n)[n]) if count}
    for report in reports:
        assert {m: examined for m, examined, *_ in report.meta["by_m"]} == counted


@pytest.mark.parametrize("check", sorted(N5_GOLDEN))
def test_order5_report_bytes(check):
    run, expected, instances = N5_GOLDEN[check]
    reports = run()
    assert _digest(reports) == expected
    assert all(r.instances_examined == instances for r in reports)


@pytest.mark.parametrize("check", sorted(N5_LAMBDA_STATS))
def test_order5_lambda_sweep_stats(check):
    run, _expected, _instances = N5_GOLDEN[check]
    assert all(r.stats == N5_LAMBDA_STATS[check] for r in run())


@pytest.mark.parametrize("n", sorted(EULERIAN_THEOREM_STATS))
def test_eulerian_size_theorem_stats(n):
    assert _shared_theorem(n).stats == EULERIAN_THEOREM_STATS[n]


@pytest.mark.parametrize("workers", [1, 2])
def test_order6_sampled_report_bytes(workers):
    reports = check_universal_bounds(
        6, "strong", ("kappa_digraph", "size_digraph"),
        mode="sampled", samples=2000, seed=1, workers=workers,
    )
    assert _digest(reports) == N6_SAMPLED_SHA256
    assert all(r.instances_examined == 1_370 for r in reports)


# 40,000 draws in two batches, of 2**15 and 7,232, so a pool sweep at 2 or 3
# workers has a piece that starts past the first batch; recorded with the
# per-draw generator
N6_TWO_BATCH_SHA256 = "50a707a41ad2e91170ebb2ed60be0c421fee39f8ddaf4856e0d744b0b5b709a5"
N6_TWO_BATCH_SPEC = EnumerationSpec(6, "strong", mode="sampled", samples=40_000, seed=3)


def _two_batch_sample(**kwargs):
    return check_universal_bounds(
        6, "strong", ("kappa_digraph", "size_digraph"),
        mode="sampled", samples=40_000, seed=3, **kwargs,
    )


_shared_two_batch_sample = functools.cache(_two_batch_sample)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_order6_two_batch_sample_report_bytes(workers):
    reports = _two_batch_sample(workers=workers)
    assert _digest(reports) == N6_TWO_BATCH_SHA256
    assert all(r.instances_examined == 27_398 for r in reports)
    assert all(r.stats["blocks"] == 2 for r in reports)
    if workers > 1:
        width = 1 << _batch_bits(6)
        pieces = _pieces(N6_TWO_BATCH_SPEC, workers * _PIECES_PER_WORKER, width)
        assert pieces[-1].lo >= width


# the batch width decides only how many batches a sweep counts: at 2**13 and
# 2**16 lanes these sweeps keep their golden bytes and every other stat.
# (run, digest, stream length)
_WIDTH_FREE = {
    "dual_bound_n5": (
        lambda: check_universal_bounds(5, "strong", ("digraph_order", "size_digraph")),
        N5_DUAL_BOUND_SHA256,
        1 << 20,
    ),
    "eulerian_size_theorem_n5": (
        lambda: [check_eulerian_size_theorem(5)],
        N5_GOLDEN["eulerian_size_theorem"][1],
        1 << 20,
    ),
    "two_batch_sample_n6": (_two_batch_sample, N6_TWO_BATCH_SHA256, 40_000),
}


@pytest.mark.parametrize("bits", [13, 16])
def test_reports_ignore_the_batch_width(monkeypatch, n5_sweeps, bits):
    import dgr.masks as masks_mod

    at_default = {
        "dual_bound_n5": n5_sweeps[1][0],
        "eulerian_size_theorem_n5": [_shared_theorem(5)],
        "two_batch_sample_n6": _shared_two_batch_sample(),
    }
    monkeypatch.setattr(masks_mod, "BATCH_BITS", bits)
    for name, (run, expected, total) in _WIDTH_FREE.items():
        reports = run()
        assert _digest(reports) == expected, name
        for report, default in zip(reports, at_default[name], strict=True):
            assert report.stats["blocks"] == -(-total >> bits), name
            assert {**report.stats, "blocks": 0} == {**default.stats, "blocks": 0}, name


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("check", sorted(SAMPLED_GOLDEN))
def test_sampled_report_bytes(check, workers):
    run, expected, instances = SAMPLED_GOLDEN[check]
    reports = run(workers)
    assert _digest(reports) == expected
    assert all(r.instances_examined == instances for r in reports)


# the claims pathway: size-formula audits and the family monotonicity lemma
AUDIT_SHA256 = "616c803bd6d192afee91399d6d381b4108a651ccacebd155466e2996df45588a"
LEMMA_SHA256 = "3eb7f1653dd00dc02c17f2ef911cfa39e4263757966e9c6f1f8fad4228166ea2"


def test_size_formula_audit_bytes():
    reports = [audit_size_formulas(n, kappa) for n in range(4, 13) for kappa in range(1, 5)]
    assert _digest(reports) == AUDIT_SHA256


def test_lemma_monotonicity_report_bytes():
    assert _digest([check_lemma_monotonicity(8, 3)]) == LEMMA_SHA256
