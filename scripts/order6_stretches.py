#!/usr/bin/env python3
"""Time the exhaustive order-6 strong sweep on fixed 2^20-mask stretches.

Stretch k is the masks k * 2^20 .. (k + 1) * 2^20 - 1 of the order-6
stream (2^30 masks, stretches 0..1023). For each stretch the script runs
``_sweep_shard`` once in this process, at one worker, and prints one JSON
line: the stretch, the bound ids, the CPU seconds, the instances, the sweep
stats and the shard digest. The digest is
``shard_digest``, which the tier-1 stretch pins use too. The spec is the
library's own exhaustive ``EnumerationSpec(6, "strong")``.

    python3 scripts/order6_stretches.py 341 700 --bounds kappa_digraph,size_digraph
    python3 scripts/order6_stretches.py 341 --expect <sha256>   # exit 1 on a mismatch
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dgr import verifier  # noqa: E402  (imported from this checkout's src/)

STRETCH_BITS = 20


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


def run_stretch(stretch: int, bound_ids: tuple[str, ...]) -> dict:
    spec = verifier.EnumerationSpec(6, "strong")
    lo = stretch << STRETCH_BITS
    started = time.process_time()
    out = verifier._sweep_shard((spec, lo, lo + (1 << STRETCH_BITS), None, bound_ids))
    cpu = round(time.process_time() - started, 3)
    return {
        "stretch": stretch,
        "bounds": list(bound_ids),
        "cpu_s": cpu,
        "instances": out["instances"],
        "stats": out["stats"],
        "digest": shard_digest(out),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("stretches", type=int, nargs="+", help="stretch numbers, 0..1023")
    parser.add_argument("--bounds", default="digraph_order,size_digraph",
                        help="comma-separated bound ids (default: %(default)s)")
    parser.add_argument("--expect", default=None,
                        help="sha256 that every stretch's digest must equal")
    args = parser.parse_args(argv)
    if any(not 0 <= k < 1 << (30 - STRETCH_BITS) for k in args.stretches):
        parser.error("stretches are 0..1023")
    bound_ids = tuple(args.bounds.split(","))
    known = verifier._SWEEP_BOUNDS
    if not set(bound_ids) <= set(known) or len(set(bound_ids)) != len(bound_ids):
        parser.error(f"--bounds takes distinct ids from {', '.join(known)}")
    status = 0
    for stretch in args.stretches:
        row = run_stretch(stretch, bound_ids)
        print(json.dumps(row), flush=True)
        if args.expect is not None and row["digest"] != args.expect:
            print(f"stretch {stretch}: digest {row['digest']} != {args.expect}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
