"""Exhaustive and sampled verification sweeps at desk scale.

Each check enumerates labeled digraphs (all arc masks in little-endian
order, or a seeded pseudorandom sample), filters them into a class, and
tests a universal statement against invariants computed directly on each
instance. Both modes reach order ``ENUMERATION_MAX_ORDER`` (6). Every
sweep and ``enumerate_digraphs`` share one kernel, ``_members``, which
filters a contiguous stretch of the spec's stream and runs the strided
cross-checks; each check only consumes the members.

Every stretch goes through the block kernel (``masks.block_planes`` and
``masks.kappa_planes``) in batches of up to 2**bits lanes,
``bits = min(n(n-1), _BLOCK_BITS)``: an exhaustive stretch in aligned
blocks of consecutive masks, where a valid-lane plane masks off the
lanes outside the stretch, a sampled stretch in runs of consecutive
draws, each batch from one call of the seeded generator, transposed to
planes by ``masks.draw_cells``. A sampled piece starts from the
generator state at its first draw, which the sweep finds in one pass
over the stream and hands over, so no piece replays the draws before it.
A batch is one ``_Batch`` record: lane i is the mask ``seq[i]`` at
stream position ``pos + i``, and its cell planes serve every plane
kernel. Before any BFS kernel runs, the class's cheap tests are decided
on the whole batch: ``masks.size_counter`` against the uniqueness
check's least size (a batch with fewer nonzero cell planes than that is
skipped outright), and ``masks.balance_plane`` for the Eulerian classes.
Unless every lane is kept, the survivors and the stride lanes are packed
by ``_gather`` into one dense batch, transposed by ``masks.draw_cells``,
and every later kernel and the oracle run on that. Members come out once
per batch, as cells: planes of lanes sharing (kappa, lambda, sigma_max,
m), split in that order, which the checks weight by their popcount.
Equality hits gather into one plane per batch, and on an exhaustive
block ``masks.orbit_min_planes`` decides which of them are the
orbit-minimal witnesses. Lanes are pulled out one by one, in increasing
lane order within a plane, only for scalar work: violations, witnesses,
sampled equality hits, and lambda where a class or bound needs it. The
scalar decode is the kernel's oracle on the stride lanes, which
``_stride_planes`` alone chooses by stream position, once per batch and
before the gather, which always keeps them; the batch carries them as
its ``chain`` and ``objects`` planes. On them the oracle builds the maps
the kernel yields (strong and balanced planes, value-to-plane maps of m,
sigma_max and kappa, and in the Eulerian theorem each source's map from
distance profile to plane, read by ``core.distance_profile`` on the
decoded digraph), which must equal the kernel's; on the
chain-stride equality hits ``masks.is_canonical`` must agree with the
orbit-minimality planes, and every witness they keep must pass it.

Reports are deterministic: identical enumeration parameters produce
byte-identical serialized reports regardless of worker count. Audit checks
never assert a closed form; they record (claimed, computed) pairs and
leave judgement to the reader.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

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

# Deterministic cross-check strides: mask-level connectivity chain, and the
# slower object-level modules, are re-verified on these subsamples.
_CHAIN_STRIDE = 101
_OBJECT_STRIDE = 1009
# Batch width cap of the kernel: planes of 2**14 lanes are 2 KB.
# Wider blocks gain no speed and raise peak memory (2**20 lanes: +30 MB).
_BLOCK_BITS = 14
# A pool sweep is cut into about this many pieces per worker, each whole
# kernel batches, so a worker on a slower or busier CPU takes fewer pieces.
_PIECES_PER_WORKER = 8
# Counters kept per sweep; merged across shards into ``CheckReport.stats``.
_STAT_KEYS = (
    "masks",  # masks scanned
    "blocks",  # batches of the stream, skipped or gathered ones included
    "members",  # class members
    "lanes_extracted",  # lanes pulled out of a cell for scalar work
    "stride_lanes",  # stride lanes re-derived by the scalar oracle, strong or not
    "orbit_min_lanes",  # equality lanes decided by orbit_min_planes
)


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


@dataclass
class CheckReport:
    """Outcome of one verification sweep or audit.

    ``elapsed`` is wall time and ``stats`` holds the sweep's work counters
    (see ``_STAT_KEYS``); both are excluded from the canonical
    serialization so that identical runs serialize byte-identically.
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
            lines.append(
                f"  VIOLATION rho={v.rho} bound={v.bound} margin={v.margin} "
                f"m={v.m} digraph={v.digraph.replace(chr(10), '; ')}"
            )
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


def _stream_length(spec: EnumerationSpec) -> int:
    if spec.mode == "sampled":
        return spec.samples
    return masks.tables_for(spec.order).mask_count


def _piece_states(spec: EnumerationSpec, positions: Sequence[int]) -> list[tuple | None]:
    """The generator state at each of ``positions``, in increasing order.

    None at every position of an exhaustive spec. For a sampled spec one
    ``random.Random(seed)`` walks the stream once: a draw takes one 32-bit
    output of the generator (none at order 1, where ``getrandbits(0)``
    takes none), skipped at most a batch of outputs per call, so no int
    wider than one batch is built. A piece that starts from its state
    draws exactly the draws that the single-process stream has there.
    """
    if spec.mode != "sampled":
        return [None] * len(positions)
    rng = random.Random(spec.seed)
    per_draw = 1 if masks.tables_for(spec.order).num_cells else 0
    states = []
    at = 0
    for lo in positions:
        skip = (lo - at) * per_draw
        at = lo
        while skip:
            step = min(skip, 1 << _BLOCK_BITS)
            rng.getrandbits(32 * step)
            skip -= step
        states.append(rng.getstate())
    return states


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
    return dict.fromkeys(_STAT_KEYS, 0)


def _merge_stats(partials: list[dict]) -> dict:
    return {key: sum(p["stats"][key] for p in partials) for key in _STAT_KEYS}


# (plane, m, sigma_max, kappa, lambda): the members of a batch, for the set
# bits of plane, that share m, sigma_max, kappa and lambda
_Cell = tuple[int, int, int, int | None, int | None]


class _Batch(NamedTuple):
    """One kernel batch: lane i is the mask ``seq[i]``.

    As ``_batches`` yields it, lane i is at stream position ``pos + i``:
    the position is the mask itself when exhaustive and the draw's index
    in the whole sample when sampled. ``valid`` holds the lanes inside the
    stretch swept; ``cells`` and ``ones`` are the batch's arc-cell planes
    and all-lanes plane, which every plane kernel reads ([] and 0 for an
    exhaustive block too small for ``m_min``). ``chain`` and ``objects``
    are the stride planes of ``_stride_planes``, which ``_members``
    decides by stream position. A batch that ``_gather``
    packs keeps ``pos``, its first stream position, and carries its stride
    planes with its lanes; its lane i is then at no fixed position.
    """

    seq: Sequence[int]
    pos: int
    valid: int
    cells: list[int]
    ones: int
    chain: int = 0
    objects: int = 0


def _batches(
    spec: EnumerationSpec, lo: int, hi: int, rng_state: tuple | None, bits: int, m_min: int = 0
) -> Iterator[_Batch]:
    """Masks lo..hi-1 of the stream, one ``_Batch`` per kernel batch.

    An exhaustive stretch is cut into aligned blocks of 2**bits consecutive
    masks, a block cut by a shard edge keeping only its valid lanes. A
    block has ``bits`` varying cells and the set bits of ``base >> bits``
    as constant ones, so a block whose masks all have fewer than ``m_min``
    arcs is known from its base and comes without cell planes. A sampled
    stretch starts from ``rng_state``, the generator state at draw lo
    (``_piece_states``), and is cut into batches of up to 2**bits draws,
    each from one generator call (``_draws``) and transposed to planes by
    ``masks.draw_cells``.
    """
    n = spec.order
    width = 1 << bits
    if spec.mode == "exhaustive":
        for base in range(lo - lo % width, hi, width):
            start, stop = max(lo - base, 0), min(hi - base, width)
            cells, ones = (
                masks.range_cells(n, base, bits)
                if bits + (base >> bits).bit_count() >= m_min else ([], 0)
            )
            yield _Batch(range(base, base + width), base, (1 << stop) - (1 << start), cells, ones)
        return
    rng = random.Random()
    rng.setstate(rng_state)
    for pos in range(lo, hi, width):
        seq = _draws(rng, masks.tables_for(n).num_cells, min(width, hi - pos))
        cells, ones = masks.draw_cells(n, seq)
        yield _Batch(seq, pos, ones, cells, ones)


def _stride_planes(n: int, pos: int, width: int, valid: int) -> tuple[int, int]:
    """The valid lanes that the scalar oracle re-derives, as (chain, objects) planes.

    Lane i is chosen by its stream position ``pos + i``, so one rule covers
    blocks and batches: the positions divisible by ``_CHAIN_STRIDE`` (every
    lane at n <= 4), and those divisible by ``_OBJECT_STRIDE``. Each stride
    is a doubling comb, one bit every ``stride`` lanes, shifted to the
    batch's first position divisible by it.
    """
    planes = []
    for stride in (_CHAIN_STRIDE, _OBJECT_STRIDE):
        comb, span = 1, stride
        while span < width:
            comb |= comb << span
            span *= 2
        planes.append(comb << (-pos % stride) & valid)
    return (valid if n <= 4 else planes[0]), planes[1]


def _gather(n: int, batch: _Batch, keep: int) -> tuple[_Batch, list[int]]:
    """The valid lanes of ``keep`` as one dense batch, and the lanes they came from.

    Lane j of the new batch is lane ``picked[j]`` of ``batch``, in
    increasing lane order; its cell planes come from ``masks.draw_cells``,
    its lanes are all valid, and its ``chain`` and ``objects`` planes
    follow their lanes.
    """
    picked = list(masks.lanes(keep & batch.valid))
    seq = [batch.seq[i] for i in picked]
    cells, ones = masks.draw_cells(n, seq)
    chain, objects = (_pick(plane, picked) for plane in (batch.chain, batch.objects))
    return _Batch(seq, batch.pos, ones, cells, ones, chain, objects), picked


def _pick(plane: int, picked: list[int]) -> int:
    """Bit j of the result is bit ``picked[j]`` of ``plane``."""
    if not picked:
        return 0
    digits = f"{plane:0{picked[-1] + 1}b}"[::-1]
    return int("".join(digits[i] for i in reversed(picked)), 2)


def _members(
    spec: EnumerationSpec,
    lo: int,
    hi: int,
    rng_state: tuple | None,
    stats: dict,
    need_kappa: bool = False,
    need_lambda: bool = False,
    m_min: int = 0,
) -> Iterator[tuple[_Batch, list[_Cell]]]:
    """Class members among masks lo..hi-1 of the stream: the loop of every sweep.

    ``rng_state`` is the generator state at draw lo of a sampled stream,
    None when exhaustive. Yields ``(batch, cells)`` per batch that can
    hold a member, its cells disjoint; only masks with at least ``m_min``
    arcs are scanned. Before any plane kernel, the whole batch is
    prefiltered by the class's cheap tests (size for ``m_min``, balance
    for the Eulerian classes); when the lanes kept, the survivors and the
    stride lanes, are not the whole batch, ``_gather`` packs them into the
    batch that is yielded. kappa comes from the kernel's kappa planes and
    lambda lane by lane on the candidates that meet the kappa threshold,
    each when the class filter or the caller needs it, and is None
    otherwise; below order 2 they are never computed and count as 0
    against a class threshold.
    """
    n = spec.order
    t = masks.tables_for(n)
    kappa_min = spec.param if spec.class_filter.endswith("_kappa") else 0
    lambda_min = spec.param if spec.class_filter.endswith("_lambda") else 0
    need_kappa = (need_kappa or spec.class_filter.endswith("_kappa")) and n >= 2
    need_lambda = (need_lambda or spec.class_filter.endswith("_lambda")) and n >= 2
    balanced_only = spec.class_filter.startswith("eulerian")
    for batch in _batches(spec, lo, hi, rng_state, _batch_bits(n), m_min):
        valid = batch.valid
        stats["masks"] += valid.bit_count()
        stats["blocks"] += 1
        if m_min:
            # a lane has at most as many arcs as the batch has nonzero cells;
            # a block that _batches already knows to be too small has none
            if sum(1 for plane in batch.cells if plane) < m_min:
                continue
            sizes = masks.value_planes(masks.size_counter(batch.cells), valid)
            valid = sum(p for m, p in sizes.items() if m >= m_min)
        chain, objects = _stride_planes(n, batch.pos, len(batch.seq), valid)
        batch = batch._replace(valid=valid, chain=chain, objects=objects)
        # the lanes the class can use, and every stride lane, which the
        # oracle re-derives whether it passes the prefilter or not
        keep = valid
        if balanced_only:
            balanced = masks.balance_plane(n, batch.cells, batch.ones)
            keep = valid & balanced | chain | objects
        if keep != batch.ones:
            batch, picked = _gather(n, batch, keep)
            if balanced_only:
                balanced = _pick(balanced, picked)
        seq, valid, cells = batch.seq, batch.valid, batch.cells
        block = masks.block_planes(n, cells, batch.ones)
        candidates = valid & block.strong
        if balanced_only:
            candidates &= balanced
        on_stride = batch.chain | batch.objects
        stats["stride_lanes"] += on_stride.bit_count()
        kappa: dict[int, int] = {}
        if n >= 2:
            # every candidate where kappa is needed, else the stride
            # candidates only, for the oracle
            checked = candidates if need_kappa else candidates & on_stride
            kappa = masks.kappa_planes(n, cells, checked)
        # the scalar oracle: the stride lanes, decoded one by one, give the
        # kernel's own maps restricted to them
        on_chain, on_objects = set(masks.lanes(batch.chain)), set(masks.lanes(batch.objects))
        sigmas = {
            i: masks.sigma_vector(t.out_rows(seq[i]), n, t.full) for i in on_chain | on_objects
        }
        sigma_max_of = {i: max(s) for i, s in sigmas.items() if s is not None}  # strong lanes
        balanced_of = {i for i in sigmas if balanced_only and masks.is_balanced(seq[i], n)}
        found = [i for i in sigma_max_of if i in balanced_of or not balanced_only]  # candidates
        kappa_of, lam_of = {}, {}
        if n >= 2:
            kappa_of = {i: masks.kappa_mask(seq[i], n) for i in found}
            # where the sweep needs lambda, and on the chain for kappa <= lambda <= min semidegree
            lam_of = {
                i: masks.lambda_mask(seq[i], n) for i in found if need_lambda or i in on_chain
            }
        scalar = {
            "strong": sum(1 << i for i in sigma_max_of),
            "balanced": sum(1 << i for i in balanced_of),
            "size": _planes({i: seq[i].bit_count() for i in sigmas}),
            "sigma_max": _planes(sigma_max_of),
            "kappa": _planes(kappa_of),
        }
        kernel = {
            "strong": block.strong & on_stride,
            "balanced": balanced & on_stride if balanced_only else 0,
            "size": masks.value_planes(block.size, on_stride),
            "sigma_max": masks.value_planes(block.sigma_max, block.strong & on_stride),
            "kappa": {k: p & on_stride for k, p in kappa.items() if p & on_stride},
        }
        differ = [key for key in kernel if scalar[key] != kernel[key]]
        assert not differ, (
            f"batch at stream position {batch.pos}: kernel and oracle differ in {differ}"
        )
        for i in found:
            if i in kappa_of and i in on_chain:
                lam, semi = lam_of[i], masks.min_semidegree_mask(seq[i], n)
                assert kappa_of[i] <= lam <= semi, (seq[i], kappa_of[i], lam, semi)
            if i in on_objects:
                kap = kappa_of.get(i) if i in on_chain or need_kappa else None
                _object_crosscheck(n, seq[i], sigmas[i], kap, lam_of.get(i))
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


def enumerate_digraphs(spec: EnumerationSpec) -> Iterator[Digraph]:
    """Stream the labeled digraphs selected by the enumeration spec.

    Exhaustive mode yields each digraph in the class exactly once, in arc
    mask order; sampled mode draws ``samples`` masks from the seeded
    generator and yields those passing the filter (duplicates possible).
    """
    rng_state = _piece_states(spec, [0])[0]
    for batch, cells in _members(spec, 0, _stream_length(spec), rng_state, _new_stats()):
        # the cells are disjoint, so their sum is their union
        for i in masks.lanes(sum(plane for plane, *_ in cells)):
            yield masks.digraph_of_mask(spec.order, batch.seq[i])


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
    """Re-derive mask-level results through the object-level modules."""
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
            assert conn_mod.vertex_connectivity(D).value == kap, mask
        if lam is not None:
            assert conn_mod.edge_connectivity(D).value == lam, mask


def _witnesses(spec: EnumerationSpec, batch: _Batch, hits: int, stats: dict) -> dict[int, int]:
    """Lane to canonical form, for the lanes of ``hits`` that give a witness.

    ``hits`` is the union of a batch's equality lanes. Every sweep decision
    depends only on isomorphism invariants, so an exhaustive mask range
    holds the lex-min labeling of every class it hits: keeping only the
    orbit-minimal hits, decided as planes on the batch's own block, yields
    the canonical forms of all hits. On the chain stride (every hit at
    n <= 4) the plane bit must equal ``masks.is_canonical``'s verdict;
    every kept witness, on the stride or not, must pass it.
    A sample need not hold an orbit's minimum; its hits are canonicalised
    lane by lane.
    """
    n, seq = spec.order, batch.seq
    if spec.mode == "sampled":
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


def _sweep_shard(args) -> dict:
    """Worker body for universal bound sweeps over one stretch of the stream.

    Each cell is weighed once per bound; its lanes are pulled out only to
    record violations. A bound's equality lanes gather into one plane per
    batch, which ``_witnesses`` turns into canonical forms.
    """
    spec, lo, hi, rng_state, bound_ids = args
    n = spec.order
    stats = _new_stats()
    per_bound = {
        bid: {"skipped": 0, "violations": [], "equality": set(), "by_m": {}}
        for bid in bound_ids
    }
    instances = 0
    batches = _members(
        spec,
        lo,
        hi,
        rng_state,
        stats,
        need_kappa=any(b in ("kappa_digraph", "eulerian_kappa") for b in bound_ids),
        need_lambda="eulerian_lambda" in bound_ids,
    )
    for batch, cells in batches:
        attained = dict.fromkeys(bound_ids, 0)  # equality lanes per bound
        hits = 0
        for plane, m, sigma_max, kap, lam in cells:
            weight = plane.bit_count()
            instances += weight
            for bid in bound_ids:
                bid_kap = kap if bid in ("kappa_digraph", "eulerian_kappa") else None
                bid_lam = lam if bid == "eulerian_lambda" else None
                entry = _bound_fraction(bid, n, m, bid_kap, bid_lam)
                state = per_bound[bid]
                row = state["by_m"].get(m)
                if row is None:
                    row = state["by_m"][m] = [0, 0, 0, 0]
                row[0] += weight
                if entry is None:
                    state["skipped"] += weight
                    row[1] += weight
                    continue
                num, den = entry
                lhs = sigma_max * den
                rhs = num * (n - 1)
                if lhs > rhs:
                    state["violations"].extend(
                        (batch.seq[i], sigma_max, m, bid_kap, bid_lam)
                        for i in _pull(plane, stats)
                    )
                    row[2] += weight
                elif lhs == rhs:
                    attained[bid] |= plane
                    hits |= plane
                    row[3] += weight
        if not hits:
            continue
        # one witness form per mask, shared by every bound it attains
        forms = _witnesses(spec, batch, hits, stats)
        for bid, plane in attained.items():
            per_bound[bid]["equality"].update(
                form for i, form in forms.items() if plane >> i & 1
            )
    return {"instances": instances, "per_bound": per_bound, "stats": stats}


def _shards(total: int, count: int, width: int = 1) -> list[tuple[int, int]]:
    """At most ``count`` contiguous ranges of 0..total-1, cut at multiples of ``width``.

    Boundaries never influence merged results.
    """
    units = -(-total // width)
    step = width * -(-units // max(1, count))
    return [(lo, min(total, lo + step)) for lo in range(0, total, step)]


def _run_sharded(worker, args_list, workers: int) -> list[dict]:
    """Run the shards, results in order; the pool never outnumbers shards or usable CPUs.

    The pool hands the shards out one at a time as its workers free up;
    each shard is a pure function of its arguments.
    """
    if workers <= 1 or len(args_list) <= 1:
        return [worker(a) for a in args_list]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    pool_size = min(workers, len(args_list), cpus or 1)
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        return list(pool.map(worker, args_list))


def _batch_bits(n: int) -> int:
    """log2 of the kernel's batch width at order ``n``."""
    return min(masks.tables_for(n).num_cells, _BLOCK_BITS)


def _sweep(shard, spec: EnumerationSpec, workers: int, *extra) -> tuple[list[dict], float]:
    """Run ``shard`` over contiguous stretches of the spec's mask stream.

    One stretch at one worker; otherwise about ``_PIECES_PER_WORKER``
    pieces per worker, each whole kernel batches, so the batches and the
    stats are the same at every worker count and a worker that falls
    behind takes fewer pieces instead of holding up the sweep. Each shard
    receives ``(spec, lo, hi, rng_state, *extra)``, where ``rng_state``
    is the generator state at draw lo of a sampled stream (None when
    exhaustive), found by one pass here, so a piece never replays the draws
    before it. Returns the partial results in stream order and the wall
    time of the sweep.
    """
    started = time.monotonic()
    count = workers * _PIECES_PER_WORKER if workers > 1 else 1
    pieces = _shards(_stream_length(spec), count, 1 << _batch_bits(spec.order))
    states = _piece_states(spec, [lo for lo, _ in pieces])
    args_list = [(spec, lo, hi, state, *extra) for (lo, hi), state in zip(pieces, states)]
    return _run_sharded(shard, args_list, workers), time.monotonic() - started


def _format_counterexample(n, mask, sigma_max, m, kap, lam, num, den) -> Counterexample:
    D = masks.digraph_of_mask(n, mask)
    rho = Fraction(sigma_max, n - 1)
    bound_value = Fraction(num, den)
    return Counterexample(
        digraph=io_mod.digraph_to_edge_list(D),
        rho=str(rho),
        m=m,
        kappa=kap,
        lam=lam,
        bound=str(bound_value),
        margin=str(rho - bound_value),
        canonical=masks.canonical_bytes(n, mask).hex(),
    )


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
    partials, elapsed = _sweep(_sweep_shard, spec, workers, tuple(bound_ids))
    instances = sum(p["instances"] for p in partials)
    stats = _merge_stats(partials)
    reports = []
    for bid in bound_ids:
        skipped = sum(p["per_bound"][bid]["skipped"] for p in partials)
        raw_violations = [v for p in partials for v in p["per_bound"][bid]["violations"]]
        equality: set[int] = set()
        by_m: dict[int, list[int]] = {}
        for p in partials:
            equality |= p["per_bound"][bid]["equality"]
            for m, row in p["per_bound"][bid]["by_m"].items():
                acc = by_m.setdefault(m, [0, 0, 0, 0])
                for i in range(4):
                    acc[i] += row[i]
        violations = []
        for mask, sigma_max, m, kap, lam in raw_violations:
            entry = _bound_fraction(bid, n, m, kap, lam)
            assert entry is not None
            violations.append(
                _format_counterexample(n, mask, sigma_max, m, kap, lam, *entry)
            )
        violations.sort(key=lambda c: (c.canonical, c.digraph))
        witnesses = sorted(masks.mask_bytes(n, cm).hex() for cm in equality)
        reports.append(
            CheckReport(
                check_id=f"universal_bound:{bid}:n={n}:class={spec.class_label}",
                spec={**spec.header(), "bound": bid},
                instances_examined=instances,
                skipped_inapplicable=skipped,
                violations=violations,
                equality_witnesses=witnesses,
                meta={
                    "equality_count": len(witnesses),
                    # one row per size m: examined, skipped, violations,
                    # labeled equality hits
                    "by_m": [[m, *by_m[m]] for m in sorted(by_m)],
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


def _uniqueness_shard(args) -> dict:
    spec, lo, hi, rng_state, m_min, target_num, target_den = args
    n = spec.order
    stats = _new_stats()
    hits = []
    breaches = []
    instances = 0
    rhs = target_num * (n - 1)
    for batch, cells in _members(spec, lo, hi, rng_state, stats, m_min=m_min):
        attained = 0
        for plane, m, sigma_max, _kap, _lam in cells:
            instances += plane.bit_count()
            lhs = sigma_max * target_den
            if lhs == rhs:
                attained |= plane
            elif lhs > rhs:
                breaches.extend((batch.seq[i], sigma_max, m) for i in _pull(plane, stats))
        if attained:
            hits.extend(_witnesses(spec, batch, attained, stats).values())
    return {"instances": instances, "hits": hits, "breaches": breaches, "stats": stats}


def check_extremal_uniqueness(n: int, m: int, kappa: int, workers: int = 1) -> CheckReport:
    """Equality witnesses of the family bound must all be the selected member.

    Requires m to be an exact family size (so the selected member has
    exactly m arcs); the literal sharpness clauses are evaluated and
    recorded in the audit section, but the family sizes counted directly
    decide feasibility, since the stated range is inconsistent with them.
    """
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

    partials, elapsed = _sweep(
        _uniqueness_shard, spec, workers, m, rho_star.numerator, rho_star.denominator
    )
    instances = sum(p["instances"] for p in partials)
    hits = [mask for p in partials for mask in p["hits"]]
    breaches = [b for p in partials for b in p["breaches"]]

    witness_forms = sorted(masks.mask_bytes(n, h).hex() for h in hits)
    extras = [w for w in witness_forms if w != expected]
    violations = []
    for mask, sigma_max, msize in breaches:
        violations.append(
            _format_counterexample(
                n, mask, sigma_max, msize, kappa, None,
                rho_star.numerator, rho_star.denominator,
            )
        )
    violations.sort(key=lambda c: (c.canonical, c.digraph))
    report = CheckReport(
        check_id=f"extremal_uniqueness:n={n}:m={m}:kappa={kappa}",
        spec={**spec.header(), "m": m, "kappa": kappa},
        instances_examined=instances,
        violations=violations,
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
        stats=_merge_stats(partials),
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


def _eulerian_shard(args) -> dict:
    """Worker body of the Eulerian size theorem over one stretch of the stream.

    Per batch, the members' distance profiles come as planes from
    ``masks.profile_planes`` on the block's own cells; the diameter is
    the lane-wise largest eccentricity. Every (source, profile) group at
    the diameter is weighed against each size m at once; only the lanes
    over the cap are pulled out, and the lanes at the cap go to
    ``_witnesses``.
    """
    spec, lo, hi, rng_state = args
    n = spec.order
    stats = _new_stats()
    instances = 0
    violations = []
    mismatches = []
    equality = set()
    for batch, cells in _members(spec, lo, hi, rng_state, stats):
        by_m: dict[int, int] = {}
        for plane, m, *_ in cells:
            by_m[m] = by_m.get(m, 0) | plane
        members = sum(by_m.values())  # the cells are disjoint
        if not members:
            continue
        instances += members.bit_count()
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
        for v, groups in enumerate(profiles):
            for counts, plane in groups.items():
                at_diameter = plane & diameter[len(counts) - 1]
                if not at_diameter:
                    continue
                cap = _profile_extremal(counts)[0]
                for m, m_plane in by_m.items():
                    hit = at_diameter & m_plane
                    if hit and m > cap:
                        violations.extend(
                            (batch.seq[i], v, counts, m, cap) for i in _pull(hit, stats)
                        )
                    elif hit and m == cap:
                        attained[v, counts] = attained.get((v, counts), 0) | hit
        if not attained:
            continue
        hits = 0
        for plane in attained.values():
            hits |= plane
        for i, form in _witnesses(spec, batch, hits, stats).items():
            for (v, counts), plane in attained.items():
                if not plane >> i & 1:
                    continue
                if form != _profile_extremal(counts)[1]:
                    mismatches.append((batch.seq[i], v, counts))
                else:
                    equality.add(form)
    return {
        "instances": instances,
        "violations": violations,
        "mismatches": mismatches,
        "equality": equality,
        "stats": stats,
    }


def check_eulerian_size_theorem(n: int, workers: int = 1) -> CheckReport:
    """Size of an Eulerian digraph vs twice its eccentric-profile sum graph.

    For every Eulerian digraph and every vertex of eccentricity equal to
    the diameter: m(D) <= 2 m(sequential sum of complete blocks sized by
    the distance profile), and equality forces D to be the bidirected
    sequential sum of those blocks (checked by canonical form).
    """
    spec = EnumerationSpec(n, "eulerian")
    partials, elapsed = _sweep(_eulerian_shard, spec, workers)
    instances = sum(p["instances"] for p in partials)
    violations = []
    for p in partials:
        for mask, v, counts, m, cap in p["violations"]:
            D = masks.digraph_of_mask(n, mask)
            violations.append(
                Counterexample(
                    digraph=io_mod.digraph_to_edge_list(D),
                    rho=str(Fraction(sum(i * c for i, c in enumerate(counts)), n - 1)),
                    m=m,
                    kappa=None,
                    lam=None,
                    bound=str(cap),
                    margin=str(m - cap),
                    canonical=masks.canonical_bytes(n, mask).hex(),
                )
            )
    violations.sort(key=lambda c: (c.canonical, c.digraph))
    mismatches = sorted(
        {
            masks.mask_bytes(n, mask).hex()
            for p in partials
            for mask, _v, _c in p["mismatches"]
        }
    )
    equality: set[int] = set()
    for p in partials:
        equality |= p["equality"]
    report = CheckReport(
        check_id=f"eulerian_size_theorem:n={n}",
        spec=spec.header(),
        instances_examined=instances,
        violations=violations,
        equality_witnesses=sorted(masks.mask_bytes(n, c).hex() for c in equality),
        meta={"extra_extremal_forms": mismatches},
        elapsed=elapsed,
        stats=_merge_stats(partials),
    )
    return report


def check_lemma_monotonicity(
    n_max: int, kappa_max: int, arc_addition_n_max: int | None = None
) -> CheckReport:
    """Family monotonicity: arc addition drops remoteness; sizes anti-order it.

    Part (a): for every family member H and every complement arc, adding
    the arc strictly decreases remoteness. Part (b): members sharing
    (n, kappa) have pairwise distinct sizes, and ordering by size exactly
    reverses ordering by remoteness.
    """
    if n_max > 9:
        raise ValueError("monotonicity check limited to n <= 9")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if kappa_max < 1:
        raise ValueError(f"kappa_max must be at least 1, got {kappa_max}")
    arc_max = min(n_max, arc_addition_n_max if arc_addition_n_max is not None else n_max)
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
                if n > arc_max:
                    continue
                for arc in sorted(complement(H).arcs):
                    arcs_examined += 1
                    augmented = H.with_arc(*arc)
                    rho_aug, _ = remoteness(augmented)
                    if not rho_aug < rho_h:
                        violations.append(
                            Counterexample(
                                digraph=io_mod.digraph_to_edge_list(augmented),
                                rho=str(rho_aug),
                                m=augmented.size,
                                kappa=kappa,
                                lam=None,
                                bound=str(rho_h),
                                margin=str(rho_aug - rho_h),
                                canonical=canonical_form(augmented).hex()
                                if n <= CANONICAL_MAX_ORDER
                                else "",
                            )
                        )
            for i in range(len(values)):
                for j in range(i + 1, len(values)):
                    pairs_examined += 1
                    (_, h1, rho1), (_, h2, rho2) = values[i], values[j]
                    size_ok = h1.size != h2.size
                    order_ok = (h1.size - h2.size) * (rho1 - rho2) < 0
                    if not (size_ok and order_ok):
                        violations.append(
                            Counterexample(
                                digraph=io_mod.digraph_to_edge_list(h1),
                                rho=str(rho1),
                                m=h1.size,
                                kappa=kappa,
                                lam=None,
                                bound=str(rho2),
                                margin=str(rho1 - rho2),
                                canonical="",
                            )
                        )
    report = CheckReport(
        check_id=f"lemma_monotonicity:n<={n_max}:kappa<={kappa_max}",
        spec={
            "n_max": n_max,
            "kappa_max": kappa_max,
            "arc_addition_n_max": arc_max,
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
