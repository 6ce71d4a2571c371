#!/usr/bin/env python3
"""Time the draw path of a sampled sweep: piece starts plus batches.

The draw path is everything a sampled sweep spends on its draws before the
kernel sees them: finding where each piece starts in the seeded stream,
drawing each batch and transposing it to cell planes. ``masks.draw_cells``
is not one of the spans the benchmark's tracer reports, so this script
times the path directly, in one process, summed over every piece of one
sweep. Two paths run on the same spec:

- ``bulk``: the library's path. One pass of the generator finds every
  piece's start state (``verifier._piece_states``); each batch is one
  generator call (``verifier._draws``) and one word-parallel transpose
  (``masks.draw_cells``).
- ``per_draw``: the reference path it replaced, kept here. Each piece
  replays the seeded generator past the draws before it in steps of 2**20
  bits, draws one ``getrandbits`` per mask, and transposes each batch
  through text: the masks as little-endian 8-byte words, the bytes of a
  cell read with stride 8 and translated to the ASCII digit of its bit.

Both paths must give the same draws and planes, or the script exits 1.
The spec is the benchmark's ``sweep-n6-sampled`` workload: order 6,
200,000 draws and two workers, so 13 pieces of whole 2**14-draw batches,
cut as the sweep cuts them (``verifier._pieces``); only the seed is an
option (default 1). Prints one JSON line with the median milliseconds per
sweep, over 21 interleaved repeats, of each path's starts, batches and
total.

    python3 scripts/draw_path_timing.py
    python3 scripts/draw_path_timing.py --seed 7
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from array import array
from itertools import islice, repeat
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dgr import verifier  # noqa: E402  (imported from this checkout's src/)

# the benchmark's sweep-n6-sampled spec and pool size
ORDER, SAMPLES, WORKERS = 6, 200_000, 2
REPEATS = 21
_TEXT_SKIP_BITS = 1 << 20


def _bit_text(j: int) -> bytes:
    return bytes(0x30 | (v >> j & 1) for v in range(256))


_BIT_TEXT = [_bit_text(j) for j in range(8)]


def text_cells(n: int, draws: list[int]) -> list[int]:
    """The per-draw path's transpose through text."""
    words = array("Q", reversed(draws))
    if sys.byteorder == "big":
        words.byteswap()
    raw = words.tobytes()
    return [int(raw[k // 8 :: 8].translate(_BIT_TEXT[k % 8]), 2) for k in range(n * (n - 1))]


def per_draw_path(spec, pieces, bits: int) -> tuple[float, float, list]:
    """Seconds spent on piece starts and on batches, and the batches' (draws, planes)."""
    n = spec.order
    k = n * (n - 1)
    width = 1 << bits
    starts = batches = 0.0
    out = []
    for lo, hi in pieces:
        t0 = time.perf_counter()
        rng = random.Random(spec.seed)
        skip = 32 * lo * -(-k // 32)
        while skip:
            step = min(skip, _TEXT_SKIP_BITS)
            rng.getrandbits(step)
            skip -= step
        t1 = time.perf_counter()
        draws = map(rng.getrandbits, repeat(k, hi - lo))
        for _ in range(lo, hi, width):
            seq = list(islice(draws, width))
            out.append((seq, text_cells(n, seq)))
        starts += t1 - t0
        batches += time.perf_counter() - t1
    return starts, batches, out


def bulk_path(spec, pieces, bits: int) -> tuple[float, float, list]:
    """Seconds spent on piece starts and on batches, and the batches' (draws, planes)."""
    n = spec.order
    t0 = time.perf_counter()
    piece_starts = verifier._piece_states(spec, [lo for lo, _ in pieces])
    t1 = time.perf_counter()
    out = []
    for (lo, hi), start in zip(pieces, piece_starts):
        out.extend((b.seq, b.cells) for b in verifier._batches(spec, lo, hi, start, bits))
    return t1 - t0, time.perf_counter() - t1, out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = verifier.EnumerationSpec(
        ORDER, "strong", mode="sampled", samples=SAMPLES, seed=args.seed
    )
    return report(spec, REPEATS)


def report(spec, repeats: int) -> int:
    """Time both paths on ``spec``'s pieces and print the JSON line; 1 if they differ."""
    bits = verifier._batch_bits(spec.order)
    pieces = verifier._pieces(spec, WORKERS)
    paths = {"per_draw": per_draw_path, "bulk": bulk_path}
    times = {name: {"starts": [], "batches": [], "total": []} for name in paths}
    reference = None
    for i in range(repeats + 1):  # the first round fills caches, untimed
        for name in paths if i % 2 else reversed(paths):
            starts, batches, out = paths[name](spec, pieces, bits)
            out = [(list(seq), cells) for seq, cells in out]
            if reference is None:
                reference = out
            elif out != reference:
                print(f"{name}: draws or planes differ from the other path", file=sys.stderr)
                return 1
            if i:
                times[name]["starts"].append(starts)
                times[name]["batches"].append(batches)
                times[name]["total"].append(starts + batches)
    row = {
        "order": spec.order,
        "samples": spec.samples,
        "seed": spec.seed,
        "pieces": len(pieces),
        "batches": len(reference),
        "repeats": repeats,
        "median_ms": {
            name: {part: round(1e3 * statistics.median(v), 2) for part, v in parts.items()}
            for name, parts in times.items()
        },
    }
    print(json.dumps(row, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
