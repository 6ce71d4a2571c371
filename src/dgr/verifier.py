"""Exhaustive and sampled verification sweeps at desk scale.

Each check enumerates labeled digraphs (all arc masks in little-endian
order, or a seeded pseudorandom sample), filters them into a class, and
tests a universal statement against invariants computed directly on each
instance. Both modes reach order ``ENUMERATION_MAX_ORDER`` (6). Every
sweep and ``enumerate_digraphs`` share one kernel, ``_members``, which
filters one piece of the spec's stream and runs the strided
cross-checks; each check only consumes the members.

``_pieces`` cuts a spec's stream into pieces, and it alone reads the
spec's mode to do so. A piece is a plain, picklable value that makes its own
batches of up to 2**bits lanes, ``bits = min(n(n-1), masks.BATCH_BITS)``,
for the block kernel (``masks.block_planes`` and ``masks.kappa_planes``):
a ``_Blocks`` piece is a mask range, cut into aligned blocks of
consecutive masks, where a valid-lane plane masks off the lanes outside
the piece; a ``_Draws`` piece is a run of seeded draws, each batch from
one call of the generator, transposed to planes by ``masks.draw_cells``.
A ``_Draws`` piece starts from the generator state at its first draw,
which ``_pieces`` finds in one pass over the stream and hands over, so
no piece replays the draws before it. A piece's ``orbit_minimal`` flag
says whether it holds the least labeling of every class it hits, which
decides how ``_witnesses`` finds canonical forms.

A batch is one ``_Batch`` record: lane i is the mask ``seq[i]`` at
stream position ``pos + i``, and its cell planes serve every plane
kernel. Before any BFS kernel runs, the piece's ``batches`` cut each
batch of the stream to the lanes that pass the class's cheap tests, its
valid lanes: the uniqueness check's least size, which only exhaustive
specs ask for (a block with fewer nonzero cell planes than that has none,
the others are cut by ``masks.weight_planes``), and balance for the
Eulerian classes (a block's plane read off a table by
``masks.range_balance``, a batch of draws' counted by
``masks.balance_plane``). ``_packed`` is the one stage between that
stream and the kernels: it skips a batch with no valid lane, gives the
others their stride planes and makes the kernel batches. A batch whose
every lane is kept passes through untouched, and the kept lanes of the
others are packed, in stream order and across consecutive batches of
the piece, into dense batches of up to 2**bits lanes, transposed by
``masks.draw_cells``, with each stride's plane read off one binary digit
per lane. Only a block kept whole builds its own cell planes. Every
later kernel and the oracle run once per kernel batch. Members come out
once per kernel batch, as cells: planes of lanes sharing (kappa, lambda,
sigma_max, m), split in that order, which the checks weight by their
popcount. Equality hits gather into one plane per batch, and on an
orbit-minimal piece ``masks.orbit_min_planes`` decides which of them are
the orbit-minimal witnesses. Lanes are pulled out one by one, in
increasing lane order within a plane, only for scalar work: violations,
witnesses, sampled equality hits, and lambda where a class or bound
needs it.

The scalar decode is the kernel's oracle on the stride lanes: the kept
lanes at stride positions, which ``_stride_planes`` alone chooses, once
per stream batch and before the packing, so that the choice depends on
neither the worker count nor the packing; the kernel batch carries them
as its ``chain`` and ``objects`` planes. On them ``_stride_oracle`` folds
each decoded lane into the maps the kernel yields (the strong plane,
value-to-plane maps of m, sigma_max and kappa) and checks kappa
<= lambda <= min semidegree on every stride candidate; in the Eulerian
theorem ``_profile_oracle`` builds each source's map from distance
profile to plane, read by ``core.distance_profile`` on the decoded
digraph. Each map must equal the kernel's. On the chain-stride equality
hits ``masks.is_canonical`` must agree with the orbit-minimality planes,
and every witness they keep must pass it.

The balance prefilter is checked apart, on every lane. ``_packed``
checks each lane it keeps with scalar ``is_balanced``, so no unbalanced
lane is kept, and tallies it by arc count, read off the mask, into
``stats["kept"]``. A lane it drops never reaches the oracle: an
exhaustive Eulerian-class stream must keep, size by size, as many lanes
as ``masks.balanced_by_size`` counts balanced masks, which
``_check_kept`` asserts once the stream is done; with the first check,
that makes the kept lanes exactly the balanced ones. A sample has no
such count, so there ``is_balanced`` must agree with the balance plane
on every stride position of each batch of draws before the cut.

Every shard returns what its piece finds in one shape: its ``stats``
and its ``tallies``, one ``_Tally`` per statement (a bound, the
uniqueness claim, or the Eulerian theorem and its equality clause),
each holding violation records, canonical forms and ``by_m`` rows. A
shard turns a plane of lanes into violation records through
``_record`` alone, and ``_sweep`` merges the pieces' tallies once, the
same way for every check. The shards keep no count of members of their
own: the report of a sweep over the stream reads ``instances_examined``
from the ``stats["members"]`` that ``_members`` counts and ``_sweep``
merges, and a bound's ``skipped_inapplicable`` is the sum of column 1
(skipped) of its merged tally's ``by_m`` rows.

Reports are deterministic: identical enumeration parameters produce
byte-identical serialized reports regardless of worker count. Audit checks
never assert a closed form; they record (claimed, computed) pairs and
leave judgement to the reader.

A violation is one ``Counterexample``, which every check builds where it
finds it through ``_counterexample``: the digraph's edge list and size,
rho and bound as exact values, margin = rho - bound, and its canonical
form. In the Eulerian size theorem rho is the vertex's average distance,
bound the size cap and margin m - cap; in the lemma check bound is the
family member's rho. canonical is "" above ``CANONICAL_MAX_ORDER`` and
in the lemma's pair records. ``_sweep`` sorts a sweep's records by
(canonical, digraph); the lemma check's keep the order they were found
in.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import bounds as bounds_mod
from . import connectivity as conn_mod
from . import core
from . import io as io_mod
from . import masks
from .constructions import (
    backward_sum_size,
    claimed_sizes,
    dpk_select,
    enumerate_kappa_pc_family,
    kappa_pc_digraph,
    profile_digraph,
    sequential_sum_size,
)
from .core import Digraph, complement, remoteness
from .masks import CANONICAL_MAX_ORDER

ENUMERATION_MAX_ORDER = 6  # the order cap of exhaustive and sampled specs alike

_FILTERS = ("strong", "strong_kappa", "eulerian", "eulerian_kappa", "eulerian_lambda")
_SWEEP_BOUNDS = (
    "digraph_order",
    "size_digraph",
    "kappa_digraph",
    "eulerian_size",
    "eulerian_kappa",
    "eulerian_lambda",
)

# Deterministic cross-check strides: the scalar oracle, connectivity chain
# included, re-derives every lane on either; the slower object-level modules
# run on the second.
_CHAIN_STRIDE = 101
_OBJECT_STRIDE = 1009
# A pool sweep is cut into about this many pieces per worker, each whole
# stream batches, so a worker on a slower or busier CPU takes fewer pieces.
_PIECES_PER_WORKER = 8
# Counters kept per sweep; merged across shards into ``CheckReport.stats``.
_STAT_KEYS = (
    "masks",  # masks scanned
    "blocks",  # batches of the stream, skipped or packed ones included
    "members",  # class members
    "lanes_extracted",  # lanes pulled out of a cell for scalar work
    "stride_lanes",  # kept lanes at stride positions re-derived by the scalar oracle, strong or not
    "orbit_min_lanes",  # equality lanes decided by orbit_min_planes
)


def _require_ints(**values) -> None:
    """Refuse each value that is neither None nor an ``int``, naming it.

    bool is an int subclass; it is refused too, as a report would record
    it as true.
    """
    for name, value in values.items():
        if value is not None and type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class EnumerationSpec:
    """What to enumerate: order, class filter, and exhaustive/sampled mode."""

    order: int
    class_filter: str = "strong"
    param: int | None = None
    mode: str = "exhaustive"
    samples: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        _require_ints(order=self.order, param=self.param, samples=self.samples, seed=self.seed)
        if not (1 <= self.order <= ENUMERATION_MAX_ORDER):
            raise ValueError(f"order must be in 1..{ENUMERATION_MAX_ORDER}")
        if self.class_filter not in _FILTERS:
            raise ValueError(f"unknown class filter {self.class_filter!r}")
        if not self.class_filter.endswith(("_kappa", "_lambda")):
            if self.param is not None:
                raise ValueError(f"{self.class_filter} takes no parameter")
        elif self.param is None:
            raise ValueError(f"{self.class_filter} needs a parameter")
        elif self.param < 0:
            raise ValueError(f"class parameter must be non-negative, got {self.param}")
        if self.mode == "sampled":
            if not self.samples or self.samples < 1:
                raise ValueError("sampled mode needs a positive sample count")
            if self.seed is None:
                raise ValueError("sampled mode needs an explicit seed")
            # random.Random(-s) seeds exactly as Random(s) does
            if self.seed < 0:
                raise ValueError(f"seed must be non-negative, got {self.seed}")
        elif self.mode != "exhaustive":
            raise ValueError(f"unknown mode {self.mode!r}")
        elif self.samples is not None or self.seed is not None:
            raise ValueError("exhaustive mode takes no sample count or seed")

    @property
    def class_label(self) -> str:
        if self.param is None:
            return self.class_filter
        return f"{self.class_filter}({self.param})"

    def header(self) -> dict:
        out = {
            "order": self.order,
            "class": self.class_label,
            "mode": self.mode,
            "generator": "mask-range"
            if self.mode == "exhaustive"
            else "mt19937-getrandbits",
        }
        if self.mode == "sampled":
            out["samples"] = self.samples
            out["seed"] = self.seed
        return out


@dataclass(frozen=True)
class Counterexample:
    """One instance breaking a checked statement, with exact margins."""

    digraph: str  # edge-list serialization
    rho: str
    m: int
    kappa: int | None
    lam: int | None
    bound: str
    margin: str
    canonical: str

    def to_dict(self) -> dict:
        return {
            "digraph": self.digraph,
            "rho": self.rho,
            "m": self.m,
            "kappa": self.kappa,
            "lambda": self.lam,
            "bound": self.bound,
            "margin": self.margin,
            "canonical": self.canonical,
        }


@dataclass(slots=True)
class CheckReport:
    """Outcome of one verification sweep or audit.

    ``elapsed`` is wall time and ``stats`` holds the sweep's work counters
    (see ``_STAT_KEYS``); both are excluded from the canonical
    serialization so that identical runs serialize byte-identically. A
    process may hold many reports, one per sweep it runs, so a report
    keeps its fields in slots and its witness forms interned
    (``_form_texts``).
    """

    check_id: str
    spec: dict
    instances_examined: int = 0
    skipped_inapplicable: int = 0
    violations: list[Counterexample] = field(default_factory=list)
    equality_witnesses: list[str] = field(default_factory=list)
    audit_records: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    elapsed: float = 0.0
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.meta.get("extra_extremal_forms")

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "spec": self.spec,
            "instances": self.instances_examined,
            "skipped_inapplicable": self.skipped_inapplicable,
            "violations": [v.to_dict() for v in self.violations],
            "equality_witnesses": list(self.equality_witnesses),
            "audit": self.audit_records,
            "meta": self.meta,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    def render_text(self, include_elapsed: bool = False) -> str:
        lines = [
            f"check: {self.check_id}",
            f"instances examined: {self.instances_examined}",
            f"skipped (bound inapplicable): {self.skipped_inapplicable}",
            f"violations: {len(self.violations)}",
            f"equality witnesses: {len(self.equality_witnesses)}",
        ]
        for v in self.violations[:20]:
            fields = [f"rho={v.rho}", f"bound={v.bound}", f"margin={v.margin}", f"m={v.m}"]
            # kappa, lambda and the canonical form where the record has them
            for key, value in (("kappa", v.kappa), ("lambda", v.lam), ("canonical", v.canonical)):
                if value not in (None, ""):
                    fields.append(f"{key}={value}")
            fields.append(f"digraph={v.digraph.replace(chr(10), '; ')}")
            lines.append("  VIOLATION " + " ".join(fields))
        if len(self.violations) > 20:
            lines.append(f"  ... {len(self.violations) - 20} more")
        for record in self.audit_records:
            lines.append(f"  audit: {json.dumps(record, sort_keys=True)}")
        for key, value in sorted(self.meta.items()):
            if key == "by_m":  # per-size histogram; rendered by csv/json only
                continue
            lines.append(f"meta {key}: {json.dumps(value, sort_keys=True)}")
        if include_elapsed:
            lines.append(f"elapsed: {self.elapsed:.3f}s")
            if self.stats:
                lines.append("stats: " + json.dumps(self.stats, sort_keys=True))
        lines.append("result: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines) + "\n"


def canonical_form(D: Digraph) -> bytes:
    """Minimal relabelled arc-mask encoding; equal iff digraphs are isomorphic."""
    return masks.canonical_bytes(D.order, masks.mask_of_digraph(D))


def _counterexample(
    D: Digraph, rho, bound, *, margin=None, kappa=None, lam=None, canonical=None
) -> Counterexample:
    """The record of D breaking a checked statement: every check builds its records here.

    rho, bound and margin are exact values, stored as ``str``; margin is
    rho - bound unless given. canonical is D's canonical form, or "" above
    ``CANONICAL_MAX_ORDER``, unless given.
    """
    if canonical is None:
        canonical = canonical_form(D).hex() if D.order <= CANONICAL_MAX_ORDER else ""
    return Counterexample(
        digraph=io_mod.digraph_to_edge_list(D),
        rho=str(rho),
        m=D.size,
        kappa=kappa,
        lam=lam,
        bound=str(bound),
        margin=str(rho - bound if margin is None else margin),
        canonical=canonical,
    )


def _form_texts(n: int, forms: Iterable[int]) -> list[str]:
    """The canonical forms ``forms`` of order n as sorted hex text, one interned string per form.

    Every sweep of an order finds the same few witness forms again, so the
    reports of one process share one string per form.
    """
    return sorted(sys.intern(masks.mask_bytes(n, form).hex()) for form in forms)


def digraph_from_canonical_hex(canonical_hex: str) -> Digraph:
    """Decode a canonical form back into a representative digraph.

    Raises ValueError unless the text is an order byte in
    1..``CANONICAL_MAX_ORDER`` followed by an arc mask of exactly the
    width ``masks.mask_bytes`` gives that order.
    """
    raw = bytes.fromhex(canonical_hex)
    if not raw:
        raise ValueError("empty canonical form")
    n = raw[0]
    if not (1 <= n <= CANONICAL_MAX_ORDER):
        raise ValueError(f"canonical order must be in 1..{CANONICAL_MAX_ORDER}, got {n}")
    size = len(masks.mask_bytes(n, 0))
    if len(raw) != size:
        raise ValueError(f"a canonical form of order {n} has {size} bytes, got {len(raw)}")
    mask = int.from_bytes(raw[1:], "big")
    if mask >> (n * (n - 1)):
        raise ValueError(f"arc mask {mask:#x} sets bits beyond the {n * (n - 1)} arcs of order {n}")
    return masks.digraph_of_mask(n, mask)


def _draws(rng: random.Random, bits: int, count: int) -> array:
    """The next ``count`` values of ``rng.getrandbits(bits)``, from one generator call.

    For 0 < bits <= 32, ``getrandbits(bits)`` is one 32-bit output shifted
    right by 32 - bits, and ``getrandbits(32 * count)`` holds ``count``
    outputs in turn, least significant word first; so one shift of that
    int and a mask of the low ``bits`` of every word give all the draws.
    ``getrandbits(0)`` takes no output and is 0.
    """
    assert 0 <= bits <= 32, "a draw must fit one 32-bit output"
    if not bits:
        return array("I", bytes(4 * count))
    words = rng.getrandbits(32 * count) >> (32 - bits)
    keep = int.from_bytes(((1 << bits) - 1).to_bytes(4, "little") * count, "little")
    seq = array("I", (words & keep).to_bytes(4 * count, "little"))
    if sys.byteorder == "big":
        seq.byteswap()
    return seq


def _new_stats() -> dict:
    """A shard's counters: ``_STAT_KEYS``, and ``kept``, the kept Eulerian lanes by arc count.

    ``_sweep`` merges only ``_STAT_KEYS`` into the report's stats; the
    ``kept`` tallies go to ``_check_kept``.
    """
    return {**dict.fromkeys(_STAT_KEYS, 0), "kept": Counter()}


@dataclass(slots=True)
class _Tally:
    """What a piece finds of one statement: every shard returns its findings as tallies.

    ``violations`` are the ``Counterexample`` records, ``forms`` canonical
    masks (equality witnesses, or the forms that break a uniqueness
    claim), and ``by_m`` maps a size m to a row of counts. ``_sweep``
    merges the pieces' tallies of each statement into one: violations
    concatenated and put in report order, by (canonical, digraph), forms
    unioned, and the rows of each m summed elementwise.
    """

    violations: list[Counterexample] = field(default_factory=list)
    forms: set[int] = field(default_factory=set)
    by_m: dict[int, list[int]] = field(default_factory=dict)


# (plane, m, sigma_max, kappa, lambda): the members of a batch, for the set
# bits of plane, that share m, sigma_max, kappa and lambda
_Cell = tuple[int, int, int, int | None, int | None]


class _Batch(NamedTuple):
    """One batch of lanes: lane i is the mask ``seq[i]``.

    As a piece's ``batches`` yields it, lane i is at stream position
    ``pos + i``: the position is the mask itself in a ``_Blocks`` piece and
    the draw's index in the whole sample in a ``_Draws`` piece. ``valid``
    holds the lanes the prefilter keeps: those inside the piece with at
    least the sweep's ``m_min`` arcs and, for the Eulerian classes,
    balanced. ``cells`` and ``ones`` are the batch's arc-cell planes and
    all-lanes plane, which every plane kernel reads; an exhaustive block
    that is not kept whole comes without them, as [] and 0, since only
    its kept lanes are read, once ``_packed`` has transposed them.
    ``chain`` and ``objects`` are the stride planes of ``_stride_planes``,
    the kept lanes at stride positions, which ``_packed`` decides. Every
    lane of a kernel batch, the kind ``_packed`` yields, is kept, so its
    ``valid`` equals its ``ones``. A dense batch holds the kept lanes of
    one or more consecutive stream batches; its ``pos`` is the position of
    the first batch it takes lanes from, its stride planes follow their
    lanes, and its lane i is at no fixed position.
    """

    seq: Sequence[int]
    pos: int
    valid: int
    cells: list[int]
    ones: int
    chain: int = 0
    objects: int = 0


class _Blocks(NamedTuple):
    """Masks lo..hi-1 of an exhaustive spec's stream: one piece of a sweep.

    A piece is a plain value, so it pickles to a pool worker, and it makes
    its own batches. A mask range holds the least labeling of every class
    it hits, so its witnesses are the orbit-minimal hits.
    """

    spec: EnumerationSpec
    lo: int
    hi: int
    orbit_minimal = True

    def batches(self, bits: int, m_min: int = 0, balanced: bool = False) -> Iterator[_Batch]:
        """One ``_Batch`` per aligned block of 2**bits consecutive masks.

        A block cut by a piece edge keeps only its valid lanes. A block has
        ``bits`` varying cells and the set bits of ``base >> bits`` as
        constant ones, so lane i of a block has ``(base >> bits).bit_count()
        + i.bit_count()`` arcs: the lanes with at least ``m_min`` are read
        off ``masks.weight_planes``, and a block whose masks all have fewer
        has no valid lane. Where ``balanced`` is asked for, the valid lanes
        are cut to the balanced ones, read off the block's twin table by
        ``masks.range_balance``, without counting degrees; the sweep checks
        that cut by its count per size. Only a block whose every lane is
        valid builds its cell planes.
        """
        n, lo, hi = self.spec.order, self.lo, self.hi
        width = 1 << bits
        full = (1 << width) - 1
        for base in range(lo - lo % width, hi, width):
            start, stop = max(lo - base, 0), min(hi - base, width)
            seq = range(base, base + width)
            short = m_min - (base >> bits).bit_count()  # arcs the lane index must add
            valid = 0
            if short <= bits:
                valid = (1 << stop) - (1 << start)
                if short > 0:
                    valid &= masks.weight_planes(bits)[short]
                if balanced:
                    valid &= masks.range_balance(n, base, bits)
            cells, ones = masks.range_cells(n, base, bits) if valid == full else ([], 0)
            yield _Batch(seq, base, valid, cells, ones)


class _Draws(NamedTuple):
    """Draws lo..hi-1 of a sampled spec's stream: one piece of a sweep.

    ``state`` is the generator state at draw lo, which ``_pieces`` hands
    over, so the piece draws exactly what the single-process stream has
    there. A sample need not hold an orbit's minimum, so its equality hits
    are canonicalised lane by lane.
    """

    spec: EnumerationSpec
    lo: int
    hi: int
    state: tuple
    orbit_minimal = False

    def batches(self, bits: int, m_min: int = 0, balanced: bool = False) -> Iterator[_Batch]:
        """One ``_Batch`` per run of up to 2**bits draws, each from one generator call.

        Every batch has its cell planes, transposed by ``masks.draw_cells``,
        and all its draws as its valid lanes. Where ``balanced`` is asked
        for, ``masks.balance_plane`` counts the degrees of its cell planes,
        and the valid lanes are cut to the balanced ones. A sample has no
        count to check that cut against, so before it, scalar
        ``is_balanced`` must agree with the plane on every draw at a stride
        position; a mismatch names the first. A sample is never cut by
        size: only the uniqueness check asks for an ``m_min``, and its
        spec is exhaustive, so a nonzero one is refused.
        """
        if m_min:
            raise ValueError(f"a sample is not cut by size, got m_min {m_min}")
        n = self.spec.order
        num_cells = masks.tables_for(n).num_cells
        rng = random.Random()
        rng.setstate(self.state)
        for pos in range(self.lo, self.hi, 1 << bits):
            seq = _draws(rng, num_cells, min(1 << bits, self.hi - pos))
            cells, ones = masks.draw_cells(n, seq)
            valid = ones
            if balanced:
                plane = masks.balance_plane(n, cells, ones)
                chain, objects = _stride_planes(n, pos, len(seq), valid)
                stride = chain | objects
                # the balanced stride lanes, by the scalar test
                found = sum(1 << i for i in masks.lanes(stride) if masks.is_balanced(seq[i], n))
                wrong = found ^ plane & stride
                i = (wrong & -wrong).bit_length() - 1
                assert not wrong, (
                    f"draw {pos + i}, mask {seq[i]}: the balance plane and is_balanced differ"
                )
                valid &= plane
            yield _Batch(seq, pos, valid, cells, ones)


_Piece = _Blocks | _Draws


def _pieces(spec: EnumerationSpec, count: int, width: int) -> list[_Piece]:
    """The spec's stream cut into at most ``count`` contiguous pieces, at multiples of ``width``.

    The only reader of ``spec.mode`` outside the spec: an exhaustive
    stream is the mask range 0..mask_count-1, a sampled one the draws
    0..samples-1. For a sampled spec one ``random.Random(seed)`` walks the
    stream once to each piece's first draw: a draw takes one 32-bit output
    of the generator (none at order 1, where ``getrandbits(0)`` takes
    none), skipped at most a batch of outputs per call, so no int wider
    than one batch is built and no piece replays the draws before it.
    Boundaries never influence merged results.
    """
    t = masks.tables_for(spec.order)
    exhaustive = spec.mode == "exhaustive"
    total = t.mask_count if exhaustive else spec.samples
    step = width * -(-total // (width * count))
    cuts = [(lo, min(total, lo + step)) for lo in range(0, total, step)]
    if exhaustive:
        return [_Blocks(spec, lo, hi) for lo, hi in cuts]
    rng = random.Random(spec.seed)
    output_bits = 32 if t.num_cells else 0
    pieces, at = [], 0
    for lo, hi in cuts:
        for pos in range(at, lo, 1 << masks.BATCH_BITS):
            rng.getrandbits(output_bits * min(1 << masks.BATCH_BITS, lo - pos))
        pieces.append(_Draws(spec, lo, hi, rng.getstate()))
        at = lo
    return pieces


def _stride_planes(n: int, pos: int, width: int, valid: int) -> tuple[int, int]:
    """The lanes of ``valid`` that the scalar oracle re-derives, as (chain, objects) planes.

    Lane i is chosen by its stream position ``pos + i``, so one rule covers
    blocks and batches: the positions divisible by ``_CHAIN_STRIDE`` (every
    lane at n <= 4, where the chain stride is 1), and those divisible by
    ``_OBJECT_STRIDE``. Each stride's plane is a doubling comb, one bit
    every ``stride`` lanes, shifted to the batch's first position divisible
    by it and cut to ``valid``.
    """
    planes = []
    for stride in (1 if n <= 4 else _CHAIN_STRIDE, _OBJECT_STRIDE):
        comb, span = 1, stride
        while span < width:
            comb |= comb << span
            span *= 2
        planes.append(comb << (-pos % stride) & valid)
    return planes[0], planes[1]


def _packed(piece: _Piece, stats: dict, m_min: int) -> Iterator[_Batch]:
    """The kernel batches of one piece: the one stage between its stream and the kernels.

    Counts the piece's masks and every batch of its stream. The piece's
    ``batches`` cut each batch's valid lanes to those with at least
    ``m_min`` arcs and, for the Eulerian classes, which it reads off the
    piece's spec, to the balanced ones. A batch left with no valid lane is
    skipped; the others get the stride planes of their valid lanes, once
    per stream batch and before any packing, so a stride lane is a kept
    lane at a stride position, whatever the worker count.

    For the Eulerian classes every kept lane must pass scalar
    ``is_balanced``, and ``stats["kept"]`` tallies it by arc count, which
    ``_check_kept`` compares with the count of balanced masks.

    A batch whose every lane is valid comes through as it is. The valid
    lanes of the others are appended, in stream order, to one pending
    dense batch, which is emitted when the next batch's valid lanes would
    make it wider than ``2**_batch_bits(n)`` lanes, just before a batch
    that comes through whole, and at the end of the piece. Each stride has
    one binary digit per appended lane, ``b"1"`` on the stride, set by
    bisection for the few stride lanes; read last lane first, the digits
    are the dense batch's ``chain`` or ``objects`` plane. A dense batch
    holds its masks in an ``array`` and its cells from
    ``masks.draw_cells``; its ``pos`` is the position of the first batch
    it takes lanes from.
    """
    n = piece.spec.order
    eulerian = piece.spec.class_filter.startswith("eulerian")
    bits = _batch_bits(n)
    code = "I" if masks.tables_for(n).num_cells <= 32 else "Q"
    is_balanced, kept = masks.is_balanced, stats["kept"]
    stats["masks"] += piece.hi - piece.lo
    seq, pos, digits = array(code), 0, (bytearray(), bytearray())
    for batch in piece.batches(bits, m_min, eulerian):
        stats["blocks"] += 1
        if not batch.valid:
            continue
        strides = _stride_planes(n, batch.pos, len(batch.seq), batch.valid)
        whole = batch.valid == batch.ones
        run = () if whole else list(masks.lanes(batch.valid))
        found = batch.seq if whole else list(map(batch.seq.__getitem__, run))
        if eulerian:
            for mask in found:
                assert is_balanced(mask, n), f"mask {mask} is kept, but is_balanced rejects it"
                kept[mask.bit_count()] += 1
        if seq and (whole or len(seq) + len(found) > 1 << bits):
            cells, ones = masks.draw_cells(n, seq)
            yield _Batch(seq, pos, ones, cells, ones, *(int(d[::-1], 2) for d in digits))
            seq, digits = array(code), (bytearray(), bytearray())
        if whole:
            yield batch._replace(chain=strides[0], objects=strides[1])
            continue
        if not seq:
            pos = batch.pos
        for digit, plane in zip(digits, strides):
            at = len(digit)
            digit += b"0" * len(run)
            for i in masks.lanes(plane):
                digit[at + bisect_left(run, i)] = ord("1")
        seq.extend(found)
    if seq:
        cells, ones = masks.draw_cells(n, seq)
        yield _Batch(seq, pos, ones, cells, ones, *(int(d[::-1], 2) for d in digits))


def _members(
    piece: _Piece,
    stats: dict,
    need_kappa: bool = False,
    need_lambda: bool = False,
    m_min: int = 0,
) -> Iterator[tuple[_Batch, list[_Cell]]]:
    """Class members among the masks of one piece of the stream: the loop of every sweep.

    Yields ``(batch, cells)`` per kernel batch of the piece, its cells
    disjoint; only masks with at least ``m_min`` arcs are scanned. The
    kernel batches come from ``_packed``, which has cut the stream to the
    lanes that pass the class's cheap tests, so every lane of a batch is
    kept and only strongness and connectivity are decided here. kappa
    comes from the kernel's kappa planes and lambda lane by lane on the
    candidates that meet the kappa threshold, each when the class filter
    or the caller needs it, and is None otherwise; below order 2 they are
    never computed and count as 0 against a class threshold.
    """
    spec = piece.spec
    n = spec.order
    kappa_min = spec.param if spec.class_filter.endswith("_kappa") else 0
    lambda_min = spec.param if spec.class_filter.endswith("_lambda") else 0
    need_kappa = (need_kappa or spec.class_filter.endswith("_kappa")) and n >= 2
    need_lambda = (need_lambda or spec.class_filter.endswith("_lambda")) and n >= 2
    for batch in _packed(piece, stats, m_min):
        seq, cells = batch.seq, batch.cells
        block = masks.block_planes(n, cells, batch.ones)
        candidates = block.strong
        on_stride = batch.chain | batch.objects
        stats["stride_lanes"] += on_stride.bit_count()
        kappa: dict[int, int] = {}
        if n >= 2:
            # every candidate where kappa is needed, else the stride
            # candidates only, for the oracle
            checked = candidates if need_kappa else candidates & on_stride
            kappa = masks.kappa_planes(n, cells, checked)
        _stride_oracle(n, batch, block, kappa, need_kappa, need_lambda)
        by_kappa = kappa if need_kappa else {None: candidates}
        passing = sum(p for kap, p in by_kappa.items() if (kap or 0) >= kappa_min)
        by_lambda = {None: passing}
        if need_lambda:
            by_lambda = _planes({
                i: masks.lambda_mask(seq[i], n) for i in _pull(passing, stats)
            })
        members = [
            (plane, m, sigma_max, kap, lam)
            for kap, k_plane in by_kappa.items()
            for lam, l_plane in by_lambda.items()
            if (lam or 0) >= lambda_min
            for sigma_max, s_plane in masks.value_planes(
                block.sigma_max, k_plane & l_plane
            ).items()
            for m, plane in masks.value_planes(block.size, s_plane).items()
        ]
        stats["members"] += sum(plane.bit_count() for plane, *_ in members)
        yield batch, members


def _stride_oracle(
    n: int,
    batch: _Batch,
    block: masks.BlockPlanes,
    kappa: dict[int, int],
    need_kappa: bool,
    need_lambda: bool,
) -> None:
    """The scalar decode of a batch's stride lanes must give the kernel's maps on them.

    Each stride lane, chain and object lanes alike and in lane order, is
    decoded once by the scalar calls (``out_rows``, ``sigma_vector``, and
    ``kappa_lambda_mask`` on the strong ones, the stride candidates: every
    kept lane is in the class but for strongness and kappa, as ``_packed``
    has checked the balance of every lane it keeps), and its values are
    written straight into bitmaps: the strong plane, and per value a plane
    of m, sigma_max and, on stride candidates, kappa. Per-lane values are
    kept only for the candidates read by the checks that run once the maps
    agree: kappa <= lambda <= min semidegree on every stride candidate,
    and ``_object_crosscheck`` on the object stride, whose flows get kappa
    and lambda on the chain and where the sweep needs them. A mismatch
    names its first differing lane.
    """
    t = masks.tables_for(n)
    out_rows, full = t.out_rows, t.full
    sigma_vector = masks.sigma_vector
    kappa_lambda_mask = masks.kappa_lambda_mask
    seq = batch.seq
    # bitmaps whose lane bits are set in place (an int plane would be copied
    # whole for every lane), one per plane and one per value of each map
    width = (len(seq) + 7) // 8
    strong = bytearray(width)
    chain_bits, object_bits = (p.to_bytes(width, "little") for p in (batch.chain, batch.objects))
    new_bitmap = partial(bytearray, width)
    sizes, sigma_maxes, kappas = (defaultdict(new_bitmap) for _ in range(3))
    chain_checks, object_checks = [], []
    on_stride = batch.chain | batch.objects
    for i in masks.lanes(on_stride):
        mask = seq[i]
        at, bit = i >> 3, 1 << (i & 7)
        sizes[mask.bit_count()][at] |= bit
        sigmas = sigma_vector(out_rows(mask), n, full)
        if sigmas is None:
            continue
        strong[at] |= bit
        sigma_maxes[max(sigmas)][at] |= bit
        kap = lam = None
        if n >= 2:
            kap, lam = kappa_lambda_mask(mask, n)
            kappas[kap][at] |= bit
            chain_checks.append((mask, kap, lam))
        if object_bits[at] & bit:
            chained = chain_bits[at] & bit
            object_checks.append((
                mask, sigmas, kap if chained or need_kappa else None,
                lam if chained or need_lambda else None,
            ))

    def planes(groups: dict) -> dict[int, int]:
        return {value: int.from_bytes(bits, "little") for value, bits in groups.items()}

    scalar = {
        "strong": int.from_bytes(strong, "little"),
        "size": planes(sizes),
        "sigma_max": planes(sigma_maxes),
        "kappa": planes(kappas),
    }
    kernel = {
        "strong": block.strong & on_stride,
        "size": masks.value_planes(block.size, on_stride),
        "sigma_max": masks.value_planes(block.sigma_max, block.strong & on_stride),
        "kappa": {k: p & on_stride for k, p in kappa.items() if p & on_stride},
    }
    differ = [key for key in kernel if scalar[key] != kernel[key]]
    assert not differ, (
        f"batch at stream position {batch.pos}: kernel and oracle differ in {differ}"
        + _first_difference(seq, differ[0], kernel[differ[0]], scalar[differ[0]])
    )
    for mask, kap, lam in chain_checks:
        semi = masks.min_semidegree_mask(mask, n)
        assert kap <= lam <= semi, (mask, kap, lam, semi)
    for mask, sigmas, kap, lam in object_checks:
        _object_crosscheck(n, mask, sigmas, kap, lam)


def _first_difference(seq: Sequence[int], key: str, kernel, scalar) -> str:
    """The first lane on which a kernel map and the oracle's differ, with its mask.

    Each side reads, per lane, the values whose planes hold it (a plane is
    the map ``{True: plane}``); built only once the maps are known to differ.
    """

    def by_lane(groups) -> dict[int, list]:
        found: dict[int, list] = {}
        for value, plane in ({True: groups} if isinstance(groups, int) else groups).items():
            for i in masks.lanes(plane):
                found.setdefault(i, []).append(value)
        return found

    kernel_at, oracle_at = by_lane(kernel), by_lane(scalar)
    for i in sorted(kernel_at.keys() | oracle_at.keys()):
        if kernel_at.get(i, []) != oracle_at.get(i, []):
            return (
                f"; first at lane {i}, mask {seq[i]}: {key} {kernel_at.get(i, [])} by the"
                f" kernel, {oracle_at.get(i, [])} by the oracle"
            )
    return ""


def _planes(values: dict[int, object]) -> dict:
    """Invert a lane-to-value map to value-to-plane."""
    groups: dict = {}
    for i, value in values.items():
        groups[value] = groups.get(value, 0) | 1 << i
    return groups


def _pull(plane: int, stats: dict) -> Iterator[int]:
    """Lanes of a cell pulled out for scalar work, in increasing order."""
    stats["lanes_extracted"] += plane.bit_count()
    return masks.lanes(plane)


def _record(
    tally: _Tally, n: int, batch: _Batch, plane: int, stats: dict, rho, bound, **fields
) -> None:
    """A violation record in ``tally`` per lane of ``plane``: the one path from lanes to records.

    The lanes are pulled out in increasing order and decoded; ``fields``
    (margin, kappa, lam) go to ``_counterexample`` with rho and bound.
    """
    tally.violations.extend(
        _counterexample(masks.digraph_of_mask(n, batch.seq[i]), rho, bound, **fields)
        for i in _pull(plane, stats)
    )


def enumerate_digraphs(spec: EnumerationSpec) -> Iterator[Digraph]:
    """Stream the labeled digraphs selected by the enumeration spec.

    Exhaustive mode yields each digraph in the class exactly once, in arc
    mask order; sampled mode draws ``samples`` masks from the seeded
    generator and yields those passing the filter (duplicates possible).
    Once an exhaustive Eulerian-class stream is exhausted, its kept lanes
    are checked by ``_check_kept``, as a sweep's are.
    """
    (piece,) = _pieces(spec, 1, 1)
    stats = _new_stats()
    for batch, cells in _members(piece, stats):
        # the cells are disjoint, so their sum is their union
        for i in masks.lanes(sum(plane for plane, *_ in cells)):
            yield masks.digraph_of_mask(spec.order, batch.seq[i])
    _check_kept(spec, [stats["kept"]])


def _check_kept(spec: EnumerationSpec, tallies: Iterable[Counter]) -> None:
    """An exhaustive Eulerian-class stream must keep as many masks of each size as are balanced.

    ``tallies`` are the kept lanes by arc count that ``_packed`` counts
    into each piece's ``stats["kept"]``, covering the stream; they are read
    only for such a spec. The count is ``masks.balanced_by_size``, which
    reads no plane. As ``_packed`` has checked every kept lane with
    ``is_balanced``, equal counts make the kept lanes exactly the balanced
    masks: the balance prefilter is checked on every lane, where the
    stride oracle sees only the kept ones at stride positions.
    """
    if spec.mode != "exhaustive" or not spec.class_filter.startswith("eulerian"):
        return
    kept = sum(tallies, Counter())
    expected = masks.balanced_by_size(spec.order)
    found = tuple(kept[m] for m in range(len(expected)))
    assert found == expected, (
        f"kept lanes by size {found}, but the balanced masks of order {spec.order}"
        f" by size are {expected}"
    )


@lru_cache(maxsize=None)
def _bound_fraction(bid: str, n: int, m: int, kap: int | None, lam: int | None):
    """Bound value as (num, den), or None when inapplicable; memoised.

    Eulerian bounds receive m_0 = m/2 exactly (valid for odd m as well,
    since the bound is decreasing in m_0 and holds at every integer below).
    The Eulerian lambda bound is stated for lambda in {2, 3} only.
    """
    if bid == "eulerian_lambda" and lam not in (2, 3):
        return None
    m_param = Fraction(m, 2) if bid.startswith("eulerian") else m
    result = bounds_mod.evaluate_bound(bid, n, m_param, kappa=kap, lam=lam)
    if not result.applicable:
        return None
    return result.value.numerator, result.value.denominator


def _object_crosscheck(n: int, mask: int, sigmas, kap, lam) -> None:
    """Re-derive mask-level results through the object-level modules.

    The flows run on the guard-free connectivity bodies: D has just been
    asserted strong here, so their own strongness search would decide
    nothing.
    """
    D = masks.digraph_of_mask(n, mask)
    assert core.is_strong(D)
    sig = [core.transmission(D, v) for v in range(n)]
    assert sig == sigmas, (mask, sig, sigmas)
    if n >= 2:
        value, witness = remoteness(D)
        assert value == Fraction(max(sigmas), n - 1)
        assert witness == sigmas.index(max(sigmas))
        assert value * (n - 1) == sig[witness]
        if kap is not None:
            assert conn_mod._vertex_connectivity(D).value == kap, mask
        if lam is not None:
            assert conn_mod._edge_connectivity(D).value == lam, mask


def _witnesses(piece: _Piece, batch: _Batch, hits: int, stats: dict) -> dict[int, int]:
    """Lane to canonical form, for the lanes of ``hits`` that give a witness.

    ``hits`` is the union of a batch's equality lanes. Every sweep decision
    depends only on isomorphism invariants, so an exhaustive mask range
    holds the lex-min labeling of every class it hits: keeping only the
    orbit-minimal hits, decided as planes on the batch's own block, yields
    the canonical forms of all hits. On the chain stride (every hit at
    n <= 4) the plane bit must equal ``masks.is_canonical``'s verdict;
    every kept witness, on the stride or not, must pass it.
    A piece that is not ``orbit_minimal``, a sample, need not hold an
    orbit's minimum; its hits are canonicalised lane by lane.
    """
    n, seq = piece.spec.order, batch.seq
    if not piece.orbit_minimal:
        return {i: masks.canonical_mask(n, seq[i]) for i in _pull(hits, stats)}
    stats["orbit_min_lanes"] += hits.bit_count()
    minimal = masks.orbit_min_planes(n, batch.cells, hits)
    for i in _pull(batch.chain & hits, stats):
        mask = seq[i]
        assert (minimal >> i) & 1 == masks.is_canonical(n, mask), mask
    forms = {}
    for i in _pull(minimal, stats):
        mask = forms[i] = seq[i]
        assert masks.is_canonical(n, mask), mask
    return forms


def _sweep_shard(bound_ids: tuple[str, ...], piece: _Piece) -> dict:
    """Worker body for universal bound sweeps over one piece of the stream.

    Each cell is weighed once per bound; its lanes are pulled out only to
    record violations. A bound's equality lanes gather into one plane per
    batch, which ``_witnesses`` turns into canonical forms. One tally per
    bound id: its violations, its equality forms, and one ``by_m`` row per
    size m of examined, skipped, violating and equality lanes.
    """
    n = piece.spec.order
    stats = _new_stats()
    tallies = {bid: _Tally() for bid in bound_ids}
    takes_kappa = bounds_mod._NEEDS_KAPPA.intersection(bound_ids)
    takes_lambda = bounds_mod._NEEDS_LAMBDA.intersection(bound_ids)
    batches = _members(piece, stats, need_kappa=bool(takes_kappa), need_lambda=bool(takes_lambda))
    for batch, cells in batches:
        attained = dict.fromkeys(bound_ids, 0)  # equality lanes per bound
        hits = 0
        for plane, m, sigma_max, kap, lam in cells:
            weight = plane.bit_count()
            for bid in bound_ids:
                bid_kap = kap if bid in takes_kappa else None
                bid_lam = lam if bid in takes_lambda else None
                entry = _bound_fraction(bid, n, m, bid_kap, bid_lam)
                tally = tallies[bid]
                row = tally.by_m.get(m)
                if row is None:
                    row = tally.by_m[m] = [0, 0, 0, 0]
                row[0] += weight
                if entry is None:
                    row[1] += weight
                    continue
                num, den = entry
                lhs = sigma_max * den
                rhs = num * (n - 1)
                if lhs > rhs:
                    _record(
                        tally, n, batch, plane, stats, Fraction(sigma_max, n - 1),
                        Fraction(num, den), kappa=bid_kap, lam=bid_lam,
                    )
                    row[2] += weight
                elif lhs == rhs:
                    attained[bid] |= plane
                    hits |= plane
                    row[3] += weight
        if not hits:
            continue
        # one witness form per mask, shared by every bound it attains
        forms = _witnesses(piece, batch, hits, stats)
        for bid, plane in attained.items():
            tallies[bid].forms.update(form for i, form in forms.items() if plane >> i & 1)
    return {"stats": stats, "tallies": tallies}


def _run_sharded(worker, pieces, workers: int, tables=None) -> list[dict]:
    """``worker`` on each piece, results in order; the pool never outnumbers pieces or usable CPUs.

    The pool hands the pieces out one at a time as its workers free up;
    ``worker`` is a pure function of its piece. Where the pool would
    have one process, the pieces run in this one, and only a sweep that
    starts a pool imports the process-pool modules. ``tables``, when
    given, builds the tables the shards read; it runs here just before a
    pool starts, so that forked workers inherit them instead of each
    building its own, and not at all when the pieces run in this process.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    pool_size = min(workers, len(pieces), cpus or 1)
    if pool_size <= 1:
        return [worker(piece) for piece in pieces]
    if tables is not None:
        tables()
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        return list(pool.map(worker, pieces))


def _batch_bits(n: int) -> int:
    """log2 of the kernel's batch width at order ``n``."""
    return min(masks.tables_for(n).num_cells, masks.BATCH_BITS)


def _sweep(
    shard, spec: EnumerationSpec, workers: int, *extra
) -> tuple[dict[str, _Tally], dict, float]:
    """Run ``shard(*extra, piece)`` over the pieces of the spec's stream, and merge what they find.

    One piece at one worker; otherwise about ``_PIECES_PER_WORKER``
    pieces per worker, each whole stream batches, so the batches and the
    stats are the same at every worker count and a worker that falls
    behind takes fewer pieces instead of holding up the sweep. The shard
    goes to the pool bound to ``extra`` by ``functools.partial``, which
    pickles. ``workers`` must be an integer of at least 1.

    Each piece's result holds its ``stats`` and its ``tallies``, one
    ``_Tally`` per statement key. Returns the merged tallies, the merged
    ``stats`` and the wall time of the sweep: the tallies of a key are
    merged as ``_Tally`` describes, the ``_STAT_KEYS`` counts summed, and
    the ``kept`` lanes by size checked in sum by ``_check_kept``.
    """
    if type(workers) is not int or workers < 1:
        raise ValueError(f"worker count must be an integer of at least 1, got {workers!r}")
    started = time.monotonic()
    count = workers * _PIECES_PER_WORKER if workers > 1 else 1
    bits = _batch_bits(spec.order)
    pieces = _pieces(spec, count, 1 << bits)
    tables = partial(masks.build_tables, spec.order, bits)
    partials = _run_sharded(partial(shard, *extra), pieces, workers, tables)
    stats = {key: sum(p["stats"][key] for p in partials) for key in _STAT_KEYS}
    _check_kept(spec, (p["stats"]["kept"] for p in partials))
    tallies: dict[str, _Tally] = {}
    for p in partials:
        for key, part in p["tallies"].items():
            tally = tallies.setdefault(key, _Tally())
            tally.violations += part.violations
            tally.forms |= part.forms
            for m, row in part.by_m.items():
                tally.by_m[m] = [a + b for a, b in zip(tally.by_m.get(m, [0] * len(row)), row)]
    for tally in tallies.values():
        # the same bytes however the stream was cut
        tally.violations.sort(key=lambda c: (c.canonical, c.digraph))
    return tallies, stats, time.monotonic() - started


def check_universal_bounds(
    n: int,
    class_filter: str = "strong",
    bound_ids: tuple[str, ...] = ("digraph_order",),
    param: int | None = None,
    mode: str = "exhaustive",
    samples: int | None = None,
    seed: int | None = None,
    workers: int = 1,
) -> list[CheckReport]:
    """One enumeration pass checking several bounds; one report per bound.

    For every digraph in the class, asserts rho(D) <= bound(n, m(D), ...)
    with the digraph's own m and connectivity, collecting equality
    witnesses by canonical form: orbit-minimal hits in exhaustive mode,
    each hit canonicalised in sampled mode.
    """
    if not bound_ids:
        raise ValueError("at least one bound id is needed")
    if len(set(bound_ids)) != len(bound_ids):
        raise ValueError(f"bound ids must not repeat, got {list(bound_ids)}")
    for bid in bound_ids:
        if bid not in _SWEEP_BOUNDS:
            raise ValueError(f"bound {bid!r} is not checkable on digraph sweeps")
        if bid.startswith("eulerian") and not class_filter.startswith("eulerian"):
            raise ValueError(f"bound {bid!r} needs an eulerian class filter")
    if "digraph_order" in bound_ids and n < 3:
        raise ValueError("digraph_order needs order >= 3")
    spec = EnumerationSpec(n, class_filter, param, mode, samples, seed)
    tallies, stats, elapsed = _sweep(_sweep_shard, spec, workers, tuple(bound_ids))
    reports = []
    for bid in bound_ids:
        tally = tallies[bid]
        witnesses = _form_texts(n, tally.forms)
        reports.append(
            CheckReport(
                check_id=f"universal_bound:{bid}:n={n}:class={spec.class_label}",
                spec={**spec.header(), "bound": bid},
                instances_examined=stats["members"],
                skipped_inapplicable=sum(row[1] for row in tally.by_m.values()),
                violations=tally.violations,
                equality_witnesses=witnesses,
                meta={
                    "equality_count": len(witnesses),
                    # one row per size m: examined, skipped, violations,
                    # labeled equality hits
                    "by_m": [[m, *tally.by_m[m]] for m in sorted(tally.by_m)],
                },
                elapsed=elapsed,
                stats=dict(stats),
            )
        )
    return reports


def check_universal_bound(
    n: int,
    class_filter: str = "strong",
    bound_id: str = "digraph_order",
    param: int | None = None,
    mode: str = "exhaustive",
    samples: int | None = None,
    seed: int | None = None,
    workers: int = 1,
) -> CheckReport:
    """Universal sweep of a single bound over an enumerated class."""
    return check_universal_bounds(
        n, class_filter, (bound_id,), param, mode, samples, seed, workers
    )[0]


def _uniqueness_shard(m_min: int, rho_star: Fraction, piece: _Piece) -> dict:
    """Worker body of the extremal uniqueness check over one piece of the stream.

    One tally: the members with at least ``m_min`` arcs whose remoteness
    exceeds ``rho_star`` as violations, and the forms of those that attain
    it.
    """
    n = piece.spec.order
    stats = _new_stats()
    tally = _Tally()
    rhs = rho_star.numerator * (n - 1)
    for batch, cells in _members(piece, stats, m_min=m_min):
        attained = 0
        for plane, _m, sigma_max, _kap, _lam in cells:
            lhs = sigma_max * rho_star.denominator
            if lhs == rhs:
                attained |= plane
            elif lhs > rhs:
                rho = Fraction(sigma_max, n - 1)
                _record(tally, n, batch, plane, stats, rho, rho_star, kappa=piece.spec.param)
        if attained:
            tally.forms.update(_witnesses(piece, batch, attained, stats).values())
    return {"stats": stats, "tallies": {"extremal": tally}}


def check_extremal_uniqueness(n: int, m: int, kappa: int, workers: int = 1) -> CheckReport:
    """Equality witnesses of the family bound must all be the selected member.

    Requires m to be an exact family size (so the selected member has
    exactly m arcs); the literal sharpness clauses are evaluated and
    recorded in the audit section, but the family sizes counted directly
    decide feasibility, since the stated range is inconsistent with them.
    """
    _require_ints(n=n, m=m, kappa=kappa)
    spec = EnumerationSpec(n, "strong_kappa", kappa)
    members = enumerate_kappa_pc_family(n, kappa)
    sizes = {backward_sum_size(p.block_sizes) for p in members}
    guard = bounds_mod.sharpness_guard("kappa_digraph", n, m, kappa)
    if m not in sizes:
        raise ValueError(
            f"guard not met: no family member of order {n}, kappa {kappa} has"
            f" exactly {m} arcs (sizes: {sorted(sizes)})"
        )
    extremal, params = dpk_select(n, m, kappa)
    assert extremal.size == m
    rho_star, _ = remoteness(extremal)
    expected = canonical_form(extremal).hex()

    tallies, stats, elapsed = _sweep(_uniqueness_shard, spec, workers, m, rho_star)
    witness_forms = _form_texts(n, tallies["extremal"].forms)
    extras = [w for w in witness_forms if w != expected]
    report = CheckReport(
        check_id=f"extremal_uniqueness:n={n}:m={m}:kappa={kappa}",
        spec={**spec.header(), "m": m, "kappa": kappa},
        instances_examined=stats["members"],
        violations=tallies["extremal"].violations,
        equality_witnesses=witness_forms,
        audit_records=[
            {
                "item": "literal_sharpness_guard",
                "met": guard.met,
                "reasons": list(guard.reasons),
            },
            {
                "item": "selected_member",
                "params": {"kappa": params.kappa, "ell": params.ell, "a": params.a, "b": params.b},
                "rho": str(rho_star),
                "canonical": expected,
            },
        ],
        meta={"extra_extremal_forms": extras, "expected_form": expected},
        elapsed=elapsed,
        stats=stats,
    )
    return report


@lru_cache(maxsize=None)
def _profile_extremal(counts: tuple[int, ...]) -> tuple[int, int]:
    """The size theorem's cap for a distance profile, and where it is met.

    The cap is twice the edge count of the sequential sum of complete
    blocks of these sizes; the second item is the canonical mask of the
    bidirected sum, the only digraph the theorem lets meet the cap.
    """
    extremal = masks.mask_of_digraph(profile_digraph(list(counts)))
    return 2 * sequential_sum_size(list(counts)), masks.canonical_mask(sum(counts), extremal)


def _profile_oracle(n: int, batch: _Batch, chain: int, profiles: list[dict]) -> None:
    """``core.distance_profile`` on the chain-stride members must give the profile planes.

    Once per batch, the object-level per-source maps from profile to plane
    of the members in ``chain`` must equal ``profiles`` restricted to
    ``chain``. The object layer's BFS shares no code with the planes'.
    """
    digraphs = {i: masks.digraph_of_mask(n, batch.seq[i]) for i in masks.lanes(chain)}
    scalar = [
        _planes({i: core.distance_profile(D, v).counts for i, D in digraphs.items()})
        for v in range(n)
    ]
    kernel = [{p: g & chain for p, g in groups.items() if g & chain} for groups in profiles]
    assert scalar == kernel, (
        f"batch at stream position {batch.pos}: profile planes and distance profiles differ"
    )


def _eulerian_shard(piece: _Piece) -> dict:
    """Worker body of the Eulerian size theorem over one piece of the stream.

    Per batch, the members' distance profiles come as planes from
    ``masks.profile_planes`` on the block's own cells; the diameter is
    the lane-wise largest eccentricity. Every (source, profile) group at
    the diameter is weighed against each size m at once. The lanes over
    the cap are gathered by (rho, cap, m), the whole of a record but the
    digraph, and pulled out once per group, so a digraph whose vertices
    give the same record lists it once; the lanes at the cap go to
    ``_witnesses``. Two tallies: the theorem's violations and the forms
    that meet a cap as its profile's bidirected sum, and the forms that
    meet a cap as some other digraph, which break the equality clause.
    """
    n = piece.spec.order
    stats = _new_stats()
    theorem, mismatches = _Tally(), _Tally()
    for batch, cells in _members(piece, stats):
        by_m: dict[int, int] = {}
        for plane, m, *_ in cells:
            by_m[m] = by_m.get(m, 0) | plane
        members = sum(by_m.values())  # the cells are disjoint
        if not members:
            continue
        profiles = masks.profile_planes(n, batch.cells, members)
        _profile_oracle(n, batch, batch.chain & members, profiles)
        # lanes by eccentricity of some source, then by diameter
        ecc: dict[int, int] = {}
        for groups in profiles:
            for counts, plane in groups.items():
                ecc[len(counts) - 1] = ecc.get(len(counts) - 1, 0) | plane
        diameter: dict[int, int] = {}
        wider = 0
        for e in sorted(ecc, reverse=True):
            diameter[e] = ecc[e] & ~wider
            wider |= ecc[e]
        attained: dict[tuple[int, tuple[int, ...]], int] = {}  # (vertex, profile): lanes at the cap
        over: dict[tuple[Fraction, int, int], int] = {}  # (rho, cap, m): lanes over the cap
        for v, groups in enumerate(profiles):
            for counts, plane in groups.items():
                at_diameter = plane & diameter[len(counts) - 1]
                if not at_diameter:
                    continue
                cap = _profile_extremal(counts)[0]
                for m, m_plane in by_m.items():
                    hit = at_diameter & m_plane
                    if hit and m > cap:
                        # rho is v's average distance, from its profile
                        rho = Fraction(sum(i * c for i, c in enumerate(counts)), n - 1)
                        over[rho, cap, m] = over.get((rho, cap, m), 0) | hit
                    elif hit and m == cap:
                        attained[v, counts] = attained.get((v, counts), 0) | hit
        # one record per lane and (rho, cap, m), however many vertices give it
        for (rho, cap, m), plane in over.items():
            _record(theorem, n, batch, plane, stats, rho, cap, margin=m - cap)
        if not attained:
            continue
        hits = 0
        for plane in attained.values():
            hits |= plane
        for i, form in _witnesses(piece, batch, hits, stats).items():
            for (v, counts), plane in attained.items():
                if plane >> i & 1:
                    extremal = form == _profile_extremal(counts)[1]
                    (theorem if extremal else mismatches).forms.add(form)
    return {"stats": stats, "tallies": {"theorem": theorem, "mismatches": mismatches}}


def check_eulerian_size_theorem(n: int, workers: int = 1) -> CheckReport:
    """Size of an Eulerian digraph vs twice its eccentric-profile sum graph.

    For every Eulerian digraph and every vertex of eccentricity equal to
    the diameter: m(D) <= 2 m(sequential sum of complete blocks sized by
    the distance profile), and equality forces D to be the bidirected
    sequential sum of those blocks (checked by canonical form).
    """
    spec = EnumerationSpec(n, "eulerian")
    tallies, stats, elapsed = _sweep(_eulerian_shard, spec, workers)
    report = CheckReport(
        check_id=f"eulerian_size_theorem:n={n}",
        spec=spec.header(),
        instances_examined=stats["members"],
        violations=tallies["theorem"].violations,
        equality_witnesses=_form_texts(n, tallies["theorem"].forms),
        meta={"extra_extremal_forms": _form_texts(n, tallies["mismatches"].forms)},
        elapsed=elapsed,
        stats=stats,
    )
    return report


def check_lemma_monotonicity(n_max: int, kappa_max: int) -> CheckReport:
    """Family monotonicity: arc addition drops remoteness; sizes anti-order it.

    Part (a): for every family member H and every complement arc, adding
    the arc strictly decreases remoteness. Part (b): members sharing
    (n, kappa) have pairwise distinct sizes, and ordering by size exactly
    reverses ordering by remoteness.
    """
    _require_ints(n_max=n_max, kappa_max=kappa_max)
    if n_max > 9:
        raise ValueError("monotonicity check limited to n <= 9")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if kappa_max < 1:
        raise ValueError(f"kappa_max must be at least 1, got {kappa_max}")
    started = time.monotonic()
    violations: list[Counterexample] = []
    members_examined = 0
    arcs_examined = 0
    pairs_examined = 0
    # a family of connectivity kappa needs order 2 * kappa + 2 or more
    for kappa in range(1, min(kappa_max, (n_max - 2) // 2) + 1):
        for n in range(2 * kappa + 2, n_max + 1):
            family = enumerate_kappa_pc_family(n, kappa)
            values = []
            for p in family:
                H = kappa_pc_digraph(p)
                rho_h, _ = remoteness(H)
                values.append((p, H, rho_h))
                members_examined += 1
                for arc in sorted(complement(H).arcs):
                    arcs_examined += 1
                    augmented = H.with_arc(*arc)
                    rho_aug, _ = remoteness(augmented)
                    if not rho_aug < rho_h:
                        violations.append(_counterexample(augmented, rho_aug, rho_h, kappa=kappa))
            for i in range(len(values)):
                for j in range(i + 1, len(values)):
                    pairs_examined += 1
                    (_, h1, rho1), (_, h2, rho2) = values[i], values[j]
                    size_ok = h1.size != h2.size
                    order_ok = (h1.size - h2.size) * (rho1 - rho2) < 0
                    if not (size_ok and order_ok):
                        violations.append(
                            _counterexample(h1, rho1, rho2, kappa=kappa, canonical="")
                        )
    report = CheckReport(
        check_id=f"lemma_monotonicity:n<={n_max}:kappa<={kappa_max}",
        spec={
            "n_max": n_max,
            "kappa_max": kappa_max,
            "arc_addition_n_max": n_max,  # kept in the report bytes: every order is checked
            "class": "kappa_pc_family",
        },
        instances_examined=members_examined,
        violations=violations,
        meta={
            "members": members_examined,
            "complement_arcs": arcs_examined,
            "pairs": pairs_examined,
        },
        elapsed=time.monotonic() - started,
    )
    return report


def audit_size_formulas(n: int, kappa: int) -> CheckReport:
    """Record direct family sizes next to every claimed closed form.

    Non-assertive: mismatches are reported as (claimed, computed) pairs,
    never raised. Residues of the direct sizes modulo kappa are listed
    against the literal congruence anchor n^2-2n-1 and the counted anchor
    (n-1)^2. The family-wide claims are read from ``bounds``, the
    per-member ones from ``constructions.claimed_sizes``.
    """
    _require_ints(n=n, kappa=kappa)
    if n > 12:
        raise ValueError("size-formula audit limited to n <= 12")
    if n < 1:
        raise ValueError(f"order must be at least 1, got {n}")
    started = time.monotonic()
    family = enumerate_kappa_pc_family(n, kappa)
    records = []
    direct_sizes = []
    for p in family:
        direct = kappa_pc_digraph(p).size
        claims = claimed_sizes(p)
        direct_sizes.append(direct)
        records.append(
            {
                "item": "member_size",
                "params": {"ell": p.ell, "a": p.a, "b": p.b},
                "claimed_expansion": claims.member_size_expansion,
                "computed": direct,
                "match": claims.member_size_expansion == direct,
            }
        )
    if family:
        max_claim = bounds_mod.family_max_claim(n)
        min_claim = bounds_mod.family_min_claim(n, kappa)
        records.append(
            {
                "item": "family_max",
                "claimed": max_claim,
                "computed": max(direct_sizes),
                "match": max_claim == max(direct_sizes),
            }
        )
        records.append(
            {
                "item": "family_min",
                "claimed": str(min_claim),
                "computed": min(direct_sizes),
                "match": min_claim == min(direct_sizes),
            }
        )
        records.append(
            {
                "item": "congruence_class",
                "claimed_literal": max_claim % kappa,
                "claimed_counted": bounds_mod.family_max_counted(n) % kappa,
                "computed_residues": sorted({s % kappa for s in direct_sizes}),
            }
        )
    report = CheckReport(
        check_id=f"size_formula_audit:n={n}:kappa={kappa}",
        spec={"order": n, "kappa": kappa, "class": "kappa_pc_family"},
        instances_examined=len(family),
        audit_records=records,
        meta={"members": len(family)},
        elapsed=time.monotonic() - started,
    )
    return report
