"""Benchmark of the dgr verification sweeps.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep-n5-strong --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of the checkout this file sits in;
the benchmark exits with status 2, printing no result, when it is absent.
With ``--trace 0`` it repeats the workload's sweep (closed loop, one sweep
at a time, at least two sweeps) until ``--seconds`` have passed and reports
end-to-end metrics as medians over the sweeps, with every time scaled to the
reference host speed that bench/hostspeed.py measures alongside.
With ``--trace 1`` it alternates two untraced and two traced sweeps at one
worker, then makes one untraced sweep at two workers, and reports per-layer
metrics; pool children are not traced.
Every sweep's report bytes are checked; see bench/NOTES.md for the pinned
values, the layer map and the recorded baseline. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from hostspeed import HostSpeed, clock
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

N6_SAMPLES = 200_000
DEFAULT_SEED = 1
SETUP_REPEATS = 7
MIN_SWEEPS = 2
SAMPLE_INTERVAL_S = 0.01

# Fresh-interpreter set-up: import the CLI, build the per-order mask tables
# and the n! relabelling tables behind the first canonical form, then print
# the system-wide monotonic clock so the parent can time it exactly (waiting
# with a timeout polls, in steps of up to 50 ms).
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, {src!r}); import dgr.cli; "
    "from dgr import masks; masks.tables_for({n}); masks.canonical_mask({n}, 0); "
    "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"
)


@dataclass(frozen=True)
class Workload:
    order: int
    workers: int
    bound_ids: tuple[str, ...]  # empty for the Eulerian size theorem
    sampled: bool
    # pinned (instances per report, SHA-256 of the concatenated to_json()),
    # for every seed on exhaustive workloads and DEFAULT_SEED on sampled ones
    pinned_instances: int
    pinned_sha256: str

    @property
    def masks_per_sweep(self) -> int:
        return N6_SAMPLES if self.sampled else 1 << (self.order * (self.order - 1))

    def sweep(self, verifier, seed: int, workers: int) -> list:
        if not self.bound_ids:
            return [verifier.check_eulerian_size_theorem(self.order, workers=workers)]
        if self.sampled:
            return verifier.check_universal_bounds(
                self.order, "strong", self.bound_ids, mode="sampled",
                samples=N6_SAMPLES, seed=seed, workers=workers,
            )
        return verifier.check_universal_bounds(
            self.order, "strong", self.bound_ids, workers=workers
        )


# BENCHMARK.json and bench/NOTES.md say why each workload exists
WORKLOADS = {
    "sweep-n5-strong": Workload(
        5, 1, ("digraph_order", "size_digraph"), False, 565_080,
        "67d434c99becee60d83fa01f8141f6f24e0bb3587e57af9f3bb7923a0b31efa1",
    ),
    "eulerian-n5": Workload(
        5, 1, (), False, 7_000,
        "3d5bea39666d61971862d610cfcedb80afee9ba4c7407fa24261e2080d9c8b32",
    ),
    "sweep-n6-sampled": Workload(
        6, 2, ("kappa_digraph", "size_digraph"), True, 136_883,
        "4c79dc33706ce07bcefe2125cd0297aad5c79736e7283bd8850aa2141c2730d9",
    ),
}

TRACED_MODULES = ("masks", "bounds", "core", "connectivity", "constructions", "io")
REPORTED_SPANS = (
    "masks.canonical_mask",
    "masks.sigma_vector",
    "masks.out_rows",
    "masks.transpose_rows",
    "masks.is_balanced",
    "masks.profile_vectors",
    "masks.kappa_mask",
    "masks.lambda_mask",
    "bounds.evaluate_bound",
)
# result key counted per call: distinct canonical forms, strong masks,
# balanced masks
CLASSIFY = {
    "masks.canonical_mask": lambda result: result,
    "masks.sigma_vector": lambda result: result is not None,
    "masks.is_balanced": bool,
}


def import_library():
    """Import dgr from this checkout's src/ or exit 2 without a result."""
    if not (SRC / "dgr" / "__init__.py").is_file():
        print(f"bench: no library at {SRC / 'dgr'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import dgr
    from dgr import masks, verifier

    if Path(dgr.__file__).resolve().parent != SRC / "dgr":
        print(f"bench: dgr imported from {dgr.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return masks, verifier


def strong_sample_count(n: int, samples: int, seed: int) -> int:
    """Strong digraphs among the seeded sample, counted without the library.

    Mask bit k is the k-th off-diagonal adjacency cell in row-major order,
    drawn as ``random.Random(seed).getrandbits(n*(n-1))`` per sample.
    """
    rng = random.Random(seed)
    full = (1 << n) - 1
    width = n - 1
    count = 0
    for _ in range(samples):
        mask = rng.getrandbits(n * width)
        rows = []
        for u in range(n):
            chunk = (mask >> (u * width)) & ((1 << width) - 1)
            low = chunk & ((1 << u) - 1)
            rows.append(low | ((chunk ^ low) << 1))
        seen = frontier = 1
        while frontier:
            nxt = 0
            for u in range(n):
                if frontier >> u & 1:
                    nxt |= rows[u]
            frontier = nxt & ~seen
            seen |= frontier
        if seen != full:
            continue
        back = 1
        grown = True
        while grown:
            grown = False
            for u in range(n):
                if not back >> u & 1 and rows[u] & back:
                    back |= 1 << u
                    grown = True
        count += back == full
    return count


class Sweep(NamedTuple):
    reports: list | None  # None when the sweep raised
    check_s: float
    json_s: float
    cpu_s: float

    @property
    def wall_s(self) -> float:
        return self.check_s + self.json_s


class Gate:
    """Runs sweeps, checks every sweep's reports and counts failures."""

    def __init__(self, name: str, workload: Workload, seed: int):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()
        self.pinned = workload.pinned_sha256
        self.expected_instances = workload.pinned_instances
        if workload.sampled and seed != DEFAULT_SEED:
            self.pinned = None
            self.expected_instances = strong_sample_count(
                workload.order, N6_SAMPLES, seed
            )

    def problems(self, reports, blob: bytes) -> list[str]:
        digest = hashlib.sha256(blob).hexdigest()
        found = []
        if self.pinned is not None and digest != self.pinned:
            found.append(f"sha256 {digest} is not the pinned {self.pinned}")
        if self.digests and digest not in self.digests:
            found.append(f"sha256 {digest} differs from this run's earlier sweeps")
        self.digests.add(digest)
        if len(reports) != max(1, len(self.workload.bound_ids)):
            found.append(f"{len(reports)} reports")
        for report in reports:
            if report.instances_examined != self.expected_instances:
                found.append(
                    f"{report.check_id}: {report.instances_examined} instances,"
                    f" expected {self.expected_instances}"
                )
            if not report.ok:
                found.append(f"{report.check_id}: report not ok")
            if self.workload.sampled and (
                report.spec.get("seed") != self.seed
                or report.spec.get("samples") != N6_SAMPLES
            ):
                found.append(f"{report.check_id}: spec {report.spec}")
        return found

    def sweep(self, verifier, workers: int, tracer: Tracer | None = None) -> Sweep:
        """One sweep plus to_json(), timed and checked."""
        self.attempted += 1
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                reports = self.workload.sweep(verifier, self.seed, workers)
            else:
                traced = [sys.modules[f"dgr.{name}"] for name in TRACED_MODULES]
                methods = [(sys.modules["dgr.masks"].MaskTables, "out_rows")]
                with tracer.patched(traced, methods, CLASSIFY):
                    reports = self.workload.sweep(verifier, self.seed, workers)
            t1 = time.perf_counter()
            blob = "".join(r.to_json() for r in reports).encode()
            t2 = time.perf_counter()
        except Exception:
            t2 = time.perf_counter()
            traceback.print_exc()
            self.failed += 1
            return Sweep(None, t2 - t0, 0.0, cpu_seconds() - cpu0)
        cpu = cpu_seconds() - cpu0
        found = self.problems(reports, blob)
        if found:
            self.failed += 1
            for line in found:
                print(f"bench: {self.name} seed={self.seed}: {line}", file=sys.stderr)
        return Sweep(reports, t1 - t0, t2 - t1, cpu)

    def result(self, metrics: dict) -> dict:
        for digest in sorted(self.digests):
            print(f"digest {self.name} seed={self.seed} sha256={digest}")
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def cpu_seconds() -> float:
    """User+sys seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def setup_windows(n: int, cpu: int) -> list[tuple[float, float]]:
    """(start, end) of fresh interpreters doing the library's set-up on ``cpu``."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE.format(src=str(SRC), n=n)]
    os.sched_setaffinity(0, {cpu})  # the interpreters inherit it
    windows = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        done = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        windows.append((start, float(done.stdout)))
    return windows


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(name: str, workload: Workload, seed: int, seconds: float, verifier) -> dict:
    """Closed loop of sweeps at the workload's worker count for ``seconds``.

    Times are scaled to the reference host speed (see bench/hostspeed.py),
    measured on the CPUs the sweep runs on: the one the benchmark is pinned
    to at one worker, every CPU it may use otherwise.
    """
    gate = Gate(name, workload, seed)
    allowed = sorted(os.sched_getaffinity(0))
    cpus = allowed[:1] if workload.workers == 1 else allowed
    os.sched_setaffinity(0, cpus)
    sweeps, windows = [], []
    with HostSpeed(cpus, SAMPLE_INTERVAL_S) as host:
        start = time.perf_counter()
        # at least MIN_SWEEPS sweeps; after that, another only if one more
        # like the last still fits in ``seconds``
        while (
            len(sweeps) < MIN_SWEEPS
            or time.perf_counter() - start + sweeps[-1].wall_s <= seconds
        ):
            t0 = clock()
            sweeps.append(gate.sweep(verifier, workload.workers))
            windows.append((t0, clock()))
        # peak of this process plus the largest reaped pool child; the
        # samplers and set-up interpreters are reaped only after this
        peak_kb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        setups = setup_windows(workload.order, cpus[0])
    setup = statistics.median(
        (end - start) * host.speed(cpus[:1], start, end) for start, end in setups
    )
    speeds = [host.speed(cpus, *window) for window in windows]
    wall = statistics.median(s.wall_s * v for s, v in zip(sweeps, speeds))
    print(f"{name}: {len(sweeps)} sweeps, wall_s {[round(s.wall_s, 3) for s in sweeps]},"
          f" host speed {[round(v, 3) for v in speeds]}", file=sys.stderr)
    return gate.result({
        "ref_wall_s": metric(wall, "s"),
        "ref_masks_per_s": metric(workload.masks_per_sweep / wall, "masks/s"),
        "ref_cpu_s": metric(statistics.median(s.cpu_s * v for s, v in zip(sweeps, speeds)), "s"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
    })


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def exact_counts(tracer: Tracer) -> dict:
    """Calls per (span, parent) and counted outcomes; these repeat exactly."""
    return {
        "calls": {key: agg[0] for key, agg in tracer.spans.items()},
        "outcomes": tracer.outcomes,
    }


def layer_metrics(tracer: Tracer, sweep: Sweep, workload: Workload) -> dict:
    """Per-layer (value, unit) pairs of one traced sweep."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for (span, _), (count, _, own) in tracer.spans.items():
        calls[span] = calls.get(span, 0) + count
        self_s[span] = self_s.get(span, 0.0) + own
        layer = span.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + own
    out = {}
    for span in REPORTED_SPANS:
        out[f"{span}.calls"] = (calls.get(span, 0), "count")
        out[f"{span}.self_s"] = (self_s.get(span, 0.0), "s")
    outcomes = tracer.outcomes
    for span, suffix, hits in (
        ("masks.canonical_mask", "distinct_ratio", len(outcomes["masks.canonical_mask"])),
        ("masks.sigma_vector", "strong_ratio", outcomes["masks.sigma_vector"].get(True, 0)),
        ("masks.is_balanced", "pass_ratio", outcomes["masks.is_balanced"].get(True, 0)),
    ):
        out[f"{span}.{suffix}"] = (ratio(hits, calls.get(span, 0)), "ratio")
    # the sweep looks each (instance, bound) up in its bound cache and calls
    # evaluate_bound on a miss; 0 when the check has no bound cache
    lookups = sweep.reports[0].instances_examined * len(workload.bound_ids)
    out["bounds.cache_hit_ratio"] = (
        1.0 - ratio(calls.get("bounds.evaluate_bound", 0), lookups) if lookups else 0.0,
        "ratio",
    )
    for layer in TRACED_MODULES:
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    out["verifier.self_s"] = (sweep.check_s - tracer.root_child_s, "s")
    out["verifier.to_json_s"] = (sweep.json_s, "s")
    return out


def per_layer(name: str, workload: Workload, seed: int, verifier) -> dict:
    """Untraced and traced one-worker sweeps, alternating, then two workers."""
    gate = Gate(name, workload, seed)
    untraced, traced = [], []
    for _ in range(2):
        untraced.append(gate.sweep(verifier, 1).wall_s)
        tracer = Tracer("verifier")
        sweep = gate.sweep(verifier, 1, tracer)
        if sweep.reports is not None:
            traced.append((tracer, sweep))
    two_workers = gate.sweep(verifier, 2).wall_s
    if len(traced) == 2 and exact_counts(traced[0][0]) != exact_counts(traced[1][0]):
        gate.failed += 1
        print(f"bench: {name}: exact counts differ between traced sweeps", file=sys.stderr)

    runs = [layer_metrics(tracer, sweep, workload) for tracer, sweep in traced]
    metrics = {}
    for key, (value, unit) in (runs[0].items() if runs else ()):
        if unit == "s":
            value = statistics.median(r[key][0] for r in runs)
        metrics[key] = metric(value, unit)
    one_worker = statistics.median(untraced)
    metrics["verifier.parallel_speedup"] = metric(one_worker / two_workers, "x")
    metrics["trace.overhead_s"] = metric(
        statistics.median(s.wall_s for _, s in traced) - one_worker if traced else 0.0, "s"
    )
    return gate.result(metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    masks, verifier = import_library()
    workload = WORKLOADS[args.workload]
    # set-up is reported as setup_s; keep it out of the timed sweeps
    masks.tables_for(workload.order)
    masks.canonical_mask(workload.order, 0)
    if args.trace:
        result = per_layer(args.workload, workload, args.seed, verifier)
    else:
        result = end_to_end(args.workload, workload, args.seed, args.seconds, verifier)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
