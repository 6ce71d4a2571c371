"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Every test records a one-line PASS/FAIL verdict that the conftest hook
prints in the terminal summary. Expensive enumeration sweeps are shared
through session fixtures so the determinism criterion can reuse them.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from dgr import (
    audit_size_formulas,
    bidirect,
    check_lemma_monotonicity,
    check_eulerian_size_theorem,
    check_universal_bound,
    complete_digraph,
    digraph_from_canonical_hex,
    directed_cycle,
    distance_profile,
    evaluate_bound,
    has_shortcut_free_hamiltonian_dipath,
    m_star,
    profile_digraph,
    remoteness,
)

from oracles import (
    are_isomorphic,
    brute_vertex_connectivity,
    floyd_warshall,
)
from test_core import DPK_2121_ARCS


def _verdict(recorder, name, ok):
    recorder(name, ok)
    assert ok, name


def test_criterion_1_trivial_anchors(criterion_recorder):
    started = time.monotonic()
    ok = True
    for n in range(3, 13):
        ok = ok and remoteness(complete_digraph(n)) == (Fraction(1), 0)
        value, _ = remoteness(directed_cycle(n))
        ok = ok and value == Fraction(n, 2)
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 1.0
    _verdict(
        criterion_recorder,
        f"criterion 1: trivial remoteness anchors, n = 3..12 ({elapsed:.2f}s)",
        ok,
    )


def test_criterion_2_order4_sweep(criterion_recorder):
    started = time.monotonic()
    report = check_universal_bound(4, "strong", "digraph_order")
    structural_ok = True
    for hex_form in report.equality_witnesses:
        witness = digraph_from_canonical_hex(hex_form)
        structural_ok = structural_ok and has_shortcut_free_hamiltonian_dipath(witness)
    elapsed = time.monotonic() - started
    ok = (
        report.instances_examined == 1606
        and report.violations == []
        and report.equality_witnesses
        and structural_ok
        and elapsed < 5.0
    )
    _verdict(
        criterion_recorder,
        f"criterion 2: exhaustive order-4 sweep, 0 violations, "
        f"{len(report.equality_witnesses)} equality classes all shortcut-free ({elapsed:.2f}s)",
        ok,
    )


def test_criterion_3_order5_sweep(criterion_recorder, n5_sweeps):
    reports, elapsed = n5_sweeps[1]
    order_report, size_report = reports
    ok = (
        order_report.instances_examined == 565080
        and order_report.violations == []
        and size_report.violations == []
        and size_report.skipped_inapplicable == 0
        and elapsed < 300.0
    )
    _verdict(
        criterion_recorder,
        f"criterion 3: exhaustive order-5 sweep (2^20 masks), both bounds clean "
        f"({elapsed:.1f}s single worker)",
        ok,
    )


def test_criterion_4_dpk_reproduction(criterion_recorder):
    # oracle side: brute-force BFS on the explicit arc list, subset-removal
    # connectivity
    oracle_dist = floyd_warshall(6, DPK_2121_ARCS)
    oracle_sigma = [int(sum(row)) for row in oracle_dist]
    oracle_kappa = brute_vertex_connectivity(6, DPK_2121_ARCS)

    from dgr import dpk_select, vertex_connectivity

    D, params = dpk_select(6, 20, 2)
    value, witness = remoteness(D)
    bound = evaluate_bound("kappa_digraph", 6, 25, kappa=2)
    ok = (
        D.order == 6
        and D.size == 25
        and (params.ell, params.a, params.b) == (1, 2, 1)
        and vertex_connectivity(D).value == 2 == oracle_kappa
        and distance_profile(D, 0).counts == (1, 2, 2, 1)
        and (value, witness) == (Fraction(9, 5), 0)
        and max(oracle_sigma) == 9
        and Fraction(max(oracle_sigma), 5) == value
        and m_star(6, 25, 2) == 25
        and bound.m_star == 25
        and bound.value == Fraction(9, 5)
    )
    _verdict(
        criterion_recorder,
        "criterion 4: DPK(2,1,2,1) reproduction: 25 arcs, kappa 2, profile "
        "(1,2,2,1), rho = 9/5 = bound at m* = 25",
        ok,
    )


def test_criterion_5_lemma_monotonicity(criterion_recorder):
    started = time.monotonic()
    report = check_lemma_monotonicity(9, 3)
    elapsed = time.monotonic() - started
    ok = (
        report.violations == []
        and report.meta["complement_arcs"] > 0
        and report.meta["pairs"] > 0
        and elapsed < 60.0
    )
    _verdict(
        criterion_recorder,
        f"criterion 5: lemma monotonicity, {report.meta['complement_arcs']} arc "
        f"additions and {report.meta['pairs']} pairs, 0 violations ({elapsed:.2f}s)",
        ok,
    )


def test_criterion_6_specialization_identities(criterion_recorder):
    pairs = [
        (n, m)
        for n in range(3, 31)
        for m in range(0, math.comb(n - 1, 2) + 1)
    ]
    grid = random.Random(0).sample(pairs, 1000)
    mismatches = 0
    for n, m in grid:
        if evaluate_bound("kappa_graph", n, m, kappa=1).value != evaluate_bound(
            "order_size", n, m
        ).value:
            mismatches += 1
        if evaluate_bound("kappa_digraph", n, m, kappa=1).value != evaluate_bound(
            "size_digraph", n, m
        ).value:
            mismatches += 1
    _verdict(
        criterion_recorder,
        "criterion 6: specialization identities on a 1000-pair grid, 0 mismatches",
        mismatches == 0,
    )


def test_criterion_7_eulerian_suite(criterion_recorder):
    started = time.monotonic()
    theorem_report = check_eulerian_size_theorem(4)
    bound_report = check_universal_bound(4, "eulerian", "eulerian_size")
    witness_iso_ok = True
    for hex_form in theorem_report.equality_witnesses:
        D = digraph_from_canonical_hex(hex_form)
        profiles = [distance_profile(D, v) for v in range(4)]
        diam = max(p.eccentricity for p in profiles)
        attained = 0
        for profile in profiles:
            if profile.eccentricity != diam:
                continue
            blocks = list(profile.counts)
            within = sum(c * (c - 1) // 2 for c in blocks)
            between = sum(a * b for a, b in zip(blocks, blocks[1:]))
            if D.size == 2 * (within + between):
                attained += 1
                expected = profile_digraph(blocks)
                witness_iso_ok = witness_iso_ok and are_isomorphic(4, D.arcs, expected.arcs)
        witness_iso_ok = witness_iso_ok and attained > 0
    elapsed = time.monotonic() - started
    ok = (
        theorem_report.instances_examined == 118
        and theorem_report.violations == []
        and theorem_report.meta["extra_extremal_forms"] == []
        and witness_iso_ok
        and bound_report.violations == []
        and elapsed < 30.0
    )
    _verdict(
        criterion_recorder,
        f"criterion 7: Eulerian order-4 suite, size theorem and order-size bound "
        f"clean over {theorem_report.instances_examined} digraphs ({elapsed:.2f}s)",
        ok,
    )


def test_criterion_8_formula_audit(criterion_recorder):
    ok = True
    audited = 0
    for kappa in (1, 2, 3):
        for n in range(5, 10):
            report = audit_size_formulas(n, kappa)
            members = [r for r in report.audit_records if r["item"] == "member_size"]
            if not members:
                continue
            audited += 1
            ok = ok and all(r["match"] for r in members)
            max_record = next(
                r for r in report.audit_records if r["item"] == "family_max"
            )
            ok = ok and isinstance(max_record["claimed"], int)
            ok = ok and isinstance(max_record["computed"], int)
            ok = ok and max_record["claimed"] == n * n - 2 * n - 1
    _verdict(
        criterion_recorder,
        f"criterion 8: size-formula audit over {audited} nonempty (n, kappa) cells; "
        "expansion formula agrees exactly, claimed maxima recorded",
        ok and audited > 0,
    )


def test_criterion_9_worker_determinism(criterion_recorder, n5_sweeps):
    serialized = {
        workers: b"".join(r.to_json().encode() for r in reports)
        for workers, (reports, _elapsed) in n5_sweeps.items()
    }
    ok = serialized[1] == serialized[2] == serialized[4]
    _verdict(
        criterion_recorder,
        "criterion 9: order-5 sweep reports byte-identical at 1, 2 and 4 workers",
        ok,
    )
