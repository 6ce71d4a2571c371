"""Host-speed sampling for the dgr benchmark.

The reference host is a small guest on a shared machine. The same Python
code runs up to twice as fast or as slow from one tenth of a second to the
next, and in phases that last minutes, because other tenants share the
physical cores; each virtual CPU drifts on its own. No clock of the guest
shows this: process CPU time tracks wall time and steal time stays near 0.

``HostSpeed`` measures that speed on the benchmark's own timeline. It starts
one sampler process per CPU it is given, pinned to that CPU. Every
``interval`` seconds a sampler wakes, runs ``probe()`` (fixed pure-Python
work that does not use the library) and records when it started and how
long it took. The samples are evenly spaced in time, so the mean of
``PROBE_REF_S / probe time`` over an interval is the CPU's average speed in
it, relative to a host on which the probe takes ``PROBE_REF_S``. A time
multiplied by that factor is the time the same work would take at the
reference speed, whatever the shared machine was doing meanwhile.

Run as a script, this file is one sampler:

    python3 bench/hostspeed.py <cpu> <interval seconds>

It prints ``ready``, samples until its standard input closes, then prints
one JSON list of [start, seconds] pairs on the system-wide monotonic clock.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time

# probe() takes about this long on an idle core of the reference host
# (2-vCPU KVM guest, Intel Xeon family 6 model 143, CPython 3.11.7)
PROBE_REF_S = 1e-4
PROBE_ROUNDS = 32
STOP_TIMEOUT_S = 30


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe() -> int:
    """Fixed pure-Python work: reachability over a small bit-row digraph."""
    rows = [3, 5, 9, 17, 30]
    stored = {}
    total = 0
    for k in range(PROBE_ROUNDS):
        seen = frontier = 1
        while frontier:
            nxt = 0
            for u in range(5):
                if frontier >> u & 1:
                    nxt |= rows[u]
            frontier = nxt & ~seen
            seen |= frontier
        total += seen
        stored[k & 15] = total
        rows[k % 5] ^= k & 30
    return total


def sample(cpu: int, interval: float) -> None:
    """Sampler process body: probe every ``interval`` s until stdin closes."""
    os.sched_setaffinity(0, {cpu})
    samples = []
    print("ready", flush=True)
    # stdin becomes readable (EOF) when the benchmark closes it
    while not select.select([sys.stdin], [], [], interval)[0]:
        start = clock()
        probe()
        samples.append((start, clock() - start))
    json.dump(samples, sys.stdout)


class HostSpeed:
    """Speed samplers on ``cpus`` for the lifetime of a ``with`` block."""

    def __init__(self, cpus, interval: float):
        self.cmd = [sys.executable, "-I", os.path.abspath(__file__)]
        self.cpus = sorted(cpus)
        self.interval = interval
        self.procs: dict[int, subprocess.Popen] = {}
        self.samples: dict[int, list] = {}

    def __enter__(self) -> HostSpeed:
        try:
            for cpu in self.cpus:
                proc = subprocess.Popen(
                    self.cmd + [str(cpu), repr(self.interval)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                )
                self.procs[cpu] = proc
                if proc.stdout.readline().strip() != "ready":
                    raise RuntimeError(f"host-speed sampler on CPU {cpu} did not start")
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        """Stop every sampler, wait for it and keep its samples."""
        for cpu, proc in self.procs.items():
            try:
                out, _ = proc.communicate(timeout=STOP_TIMEOUT_S)
                if proc.returncode == 0:
                    self.samples[cpu] = json.loads(out)
            except (subprocess.TimeoutExpired, ValueError):
                proc.kill()
                proc.wait()
        self.procs.clear()

    def speed(self, cpus, start: float, end: float) -> float:
        """Mean speed of ``cpus`` between two ``clock()`` readings."""
        per_cpu = []
        for cpu in cpus:
            inside = [s for t, s in self.samples.get(cpu, ()) if start <= t <= end]
            if not inside:
                raise RuntimeError(f"no host-speed sample on CPU {cpu} in {end - start:.3f} s")
            per_cpu.append(statistics.fmean(PROBE_REF_S / s for s in inside))
        return statistics.fmean(per_cpu)


if __name__ == "__main__":
    sample(int(sys.argv[1]), float(sys.argv[2]))
