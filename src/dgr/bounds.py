"""Exact rational evaluation of the closed-form remoteness bounds.

``evaluate_bound`` is the one entry point: every bound returns a
``BoundResult`` with an exact ``Fraction`` value. Applicability gates only
the hypotheses without which the bound value is meaningless; the
sharpness clauses (congruence and size ranges) are evaluated separately
by ``sharpness_guard`` and reported, never silently enforced.

This module is the one home of the digraph family's claimed closed forms:
its stated maximum ``family_max_claim`` (n^2-2n-1, also the congruence
anchor of ``m_star``), its counted maximum ``family_max_counted``
((n-1)^2, the anchor of ``m_star_counted``) and its stated minimum
``family_min_claim``. The stated range is internally inconsistent with
direct size counts of the family; the evaluator gates on the counted
maximum and flags the literal clause in the notes, and the verifier's
audit records both numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

BOUND_IDS = (
    "order",
    "digraph_order",
    "order_size",
    "kappa_graph",
    "lambda_graph",
    "kappa_digraph",
    "size_digraph",
    "eulerian_kappa",
    "eulerian_size",
    "eulerian_lambda",
)

_NEEDS_M = set(BOUND_IDS) - {"order", "digraph_order"}
_NEEDS_KAPPA = {"kappa_graph", "kappa_digraph", "eulerian_kappa"}
_NEEDS_LAMBDA = {"lambda_graph", "eulerian_lambda"}


@dataclass(frozen=True)
class BoundResult:
    """Exact bound value plus applicability and sharpness bookkeeping."""

    value: Fraction | None
    applicable: bool
    sharpness_conditions_met: bool
    m_star: int | None = None
    notes: tuple[str, ...] = field(default=())


class GuardCheck(NamedTuple):
    met: bool
    reasons: tuple[str, ...]


def family_max_claim(n: int) -> int:
    """The digraph family's largest size as stated, n^2 - 2n - 1; the anchor of ``m_star``."""
    return n * n - 2 * n - 1


def family_max_counted(n: int) -> int:
    """The digraph family's largest size counted from its members, (n-1)^2."""
    return (n - 1) * (n - 1)


def _congruent_b(target: int, kappa: int) -> int:
    """The unique b in {1..kappa} with b = target (mod kappa)."""
    r = target % kappa
    return r if r != 0 else kappa


def family_min_claim(n: int, kappa: int) -> Fraction:
    """The digraph family's smallest size as stated."""
    b = _congruent_b(n - 1, kappa)
    return Fraction(n, 2) * (3 * kappa + n) - n - kappa * kappa - b * (kappa - b)


def _round_up_congruent(m: int, anchor: int, kappa: int) -> int:
    """Smallest integer >= m congruent to anchor modulo kappa."""
    if kappa < 1:
        raise ValueError("kappa must be positive")
    return m + (anchor - m) % kappa


def m_star(n: int, m: int, kappa: int) -> int:
    """Smallest integer >= m congruent to the stated family maximum n^2 - 2n - 1 modulo kappa."""
    return _round_up_congruent(m, family_max_claim(n), kappa)


def m_star_counted(n: int, m: int, kappa: int) -> int:
    """Variant anchored at the counted family maximum (n-1)^2.

    Family sizes counted directly are congruent to (n-1)^2 mod kappa; for
    kappa <= 2 this coincides with ``m_star``, for kappa >= 3 the two
    anchors differ by 2. Kept for audits; the bound evaluator uses the
    literal ``m_star``.
    """
    return _round_up_congruent(m, family_max_counted(n), kappa)


def _kappa_graph_sharpness(n: int, m, kappa: int) -> GuardCheck:
    """Equality clauses of the kappa-connected graph bound."""
    reasons = []
    target = math.comb(n - 1, 2)
    if not (isinstance(m, int) and (m - target) % kappa == 0):
        reasons.append(f"congruence fails: m = {m} != C(n-1,2) = {target} (mod {kappa})")
    b = _congruent_b(target, kappa)
    low = Fraction(n * (3 * kappa - 1) - 2 * kappa * kappa - kappa + 1 - b * (kappa - b), 2)
    if not (low <= m <= target):
        reasons.append(f"size range fails: need {low} <= m <= {target}, got m = {m}")
    return GuardCheck(not reasons, tuple(reasons))


def _kappa_digraph_sharpness(n: int, m, kappa: int) -> GuardCheck:
    """Literal equality clauses of the kappa-connected digraph bound.

    The stated upper end n^2-2n-1 disagrees with direct counting ((n-1)^2);
    both are reported so the failure mode is visible.
    """
    reasons = []
    anchor = family_max_claim(n)
    if not (isinstance(m, int) and (m - anchor) % kappa == 0):
        reasons.append(f"congruence fails: m = {m} != {anchor} (mod {kappa})")
    low = family_min_claim(n, kappa)
    if not (low <= m <= anchor):
        reasons.append(
            f"literal size range fails: need {low} <= m <= {anchor}, got m = {m}"
            f" (counted family range tops out at {family_max_counted(n)}, not {anchor})"
        )
    return GuardCheck(not reasons, tuple(reasons))


def _size_digraph_sharpness(n: int, m) -> GuardCheck:
    reasons = []
    low = Fraction((n - 1) * (n + 2), 2)
    high = family_max_claim(n)
    if not (low <= m <= high):
        reasons.append(
            f"stated size range fails: need {low} <= m <= {high}, got m = {m}"
            " (below the range the bound stays sharp but the extremal digraph"
            " is not unique)"
        )
    return GuardCheck(not reasons, tuple(reasons))


def sharpness_guard(bound_id: str, n: int, m, kappa_or_lambda: int | None = None) -> GuardCheck:
    """Evaluate the literal equality/sharpness clauses of one bound.

    Returns whether every stated clause holds, plus one reason per failed
    clause. Bounds that are sharp only up to an additive constant report
    False with that reason.
    """
    if bound_id in ("order", "digraph_order", "order_size", "eulerian_size"):
        return GuardCheck(True, ())
    if bound_id in ("kappa_graph", "eulerian_kappa"):
        if kappa_or_lambda is None:
            raise ValueError("kappa required")
        return _kappa_graph_sharpness(n, m, kappa_or_lambda)
    if bound_id == "kappa_digraph":
        if kappa_or_lambda is None:
            raise ValueError("kappa required")
        return _kappa_digraph_sharpness(n, m, kappa_or_lambda)
    if bound_id == "size_digraph":
        return _size_digraph_sharpness(n, m)
    if bound_id in ("lambda_graph", "eulerian_lambda"):
        return GuardCheck(False, ("sharp only up to an additive constant",))
    raise ValueError(f"unknown bound id {bound_id!r}")


def evaluate_bound(
    bound_id: str,
    n: int,
    m: int | Fraction | None = None,
    kappa: int | None = None,
    lam: int | None = None,
) -> BoundResult:
    """Evaluate one closed-form bound exactly; m doubles as m_0 for Eulerian bounds.

    Raises on malformed queries (unknown bound, missing parameters, order
    below the bound's minimum); returns applicable=False with a named guard
    when a hypothesis range fails. The sharpness clauses come from
    ``sharpness_guard``.
    """
    if bound_id not in BOUND_IDS:
        raise ValueError(f"unknown bound id {bound_id!r}")
    if bound_id in _NEEDS_M and m is None:
        raise ValueError(f"{bound_id} requires m")
    if bound_id in _NEEDS_KAPPA and kappa is None:
        raise ValueError(f"{bound_id} requires kappa")
    if bound_id in _NEEDS_LAMBDA and lam is None:
        raise ValueError(f"{bound_id} requires lambda")
    if isinstance(m, Fraction) and m.denominator == 1:
        m = int(m)
    n_min = 3 if bound_id == "digraph_order" else 2
    if n < n_min:
        raise ValueError(f"{bound_id} requires n >= {n_min}")
    if m is not None and m < 0:
        raise ValueError("m must be nonnegative")
    if kappa is not None and kappa < 1:
        raise ValueError("kappa must be positive")

    notes: tuple[str, ...] = ()
    star = None
    if bound_id in ("order", "digraph_order"):
        value = Fraction(n, 2)
    elif bound_id in ("order_size", "eulerian_size"):
        cap = math.comb(n, 2)
        if m > cap:
            return BoundResult(None, False, False, notes=(f"m exceeds C(n,2) = {cap}",))
        value = Fraction(n + 2, 2) - Fraction(m, 1) / (n - 1)
    elif bound_id in ("kappa_graph", "eulerian_kappa"):
        cap = math.comb(n - 1, 2)
        if m > cap:
            return BoundResult(None, False, False, notes=(f"m exceeds C(n-1,2) = {cap}",))
        value = (
            Fraction(n, 2 * kappa)
            + 2
            - Fraction(1, kappa)
            - Fraction(kappa - 1, n - 1)
            - Fraction(m, 1) / (kappa * (n - 1))
        )
    elif bound_id in ("lambda_graph", "eulerian_lambda"):
        if lam not in (2, 3):
            raise ValueError("lambda must be 2 or 3")
        if bound_id == "lambda_graph":
            threshold = math.ceil(Fraction(5 * n, 3)) - 2 if lam == 2 else math.ceil(Fraction(9 * n, 4)) - 2
        else:
            threshold = math.ceil(Fraction(5 * n, 6)) - 1 if lam == 2 else math.ceil(Fraction(9 * n, 8)) - 1
        if lam == 2:
            value = (
                Fraction(n, 3)
                if m < threshold
                else Fraction(n, 3) - Fraction(2 * m, 1) / (3 * (n - 1)) + Fraction(5, 3)
            )
        else:
            value = (
                Fraction(n, 4)
                if m < threshold
                else Fraction(n, 4) - Fraction(m, 1) / (2 * (n - 1)) + Fraction(3, 2)
            )
    elif bound_id == "size_digraph":
        if m > n * (n - 1):
            return BoundResult(None, False, False, notes=(f"m exceeds n(n-1) = {n * (n - 1)}",))
        value = n + 1 - Fraction(m, 1) / (n - 1)
    else:  # kappa_digraph
        if not isinstance(m, int):
            raise ValueError("kappa_digraph requires an integer m")
        counted_max = family_max_counted(n)
        if m > counted_max:
            return BoundResult(
                None, False, False, notes=(f"m exceeds the counted family maximum {counted_max}",)
            )
        if m > family_max_claim(n):
            notes = (
                f"m exceeds the literal stated maximum {family_max_claim(n)}; gated on the"
                f" counted maximum {counted_max} instead",
            )
        star = m_star(n, m, kappa)
        value = (
            Fraction(n, kappa)
            + 2
            - Fraction(1, kappa)
            - Fraction(kappa - 1, n - 1)
            - Fraction(star, kappa * (n - 1))
        )
    # the lambda bounds' guard reads no parameter, so kappa serves every bound
    sharp = sharpness_guard(bound_id, n, m, kappa)
    return BoundResult(value, True, sharp.met, m_star=star, notes=notes + sharp.reasons)
