from __future__ import annotations

import os
import time
from pathlib import Path

import pytest
from hypothesis import strategies as st

from dgr import build_digraph, build_graph, check_universal_bounds

_ACCEPTANCE_LINES: list[tuple[str, bool]] = []


def record_criterion(name: str, ok: bool) -> None:
    _ACCEPTANCE_LINES.append((name, ok))


@pytest.fixture(scope="session", autouse=True)
def _src_on_child_path():
    """Let tests that start ``python -m dgr.cli`` import the uninstalled package."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        yield


@pytest.fixture(scope="session")
def criterion_recorder():
    return record_criterion


@pytest.fixture(scope="session")
def n5_sweeps():
    """Exhaustive order-5 dual-bound sweeps at 1, 2 and 4 workers."""
    results = {}
    for workers in (1, 2, 4):
        started = time.monotonic()
        reports = check_universal_bounds(
            5, "strong", ("digraph_order", "size_digraph"), workers=workers
        )
        elapsed = time.monotonic() - started
        results[workers] = (reports, elapsed)
    return results


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok in _ACCEPTANCE_LINES:
        terminalreporter.write_line(f"[{'PASS' if ok else 'FAIL'}] {name}")


@st.composite
def digraphs(draw, min_order: int = 1, max_order: int = 6):
    """Arbitrary labeled digraph (not necessarily strong)."""
    n = draw(st.integers(min_order, max_order))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    return build_digraph(n, arcs)


@st.composite
def strong_digraphs(draw, min_order: int = 2, max_order: int = 6):
    """Strong digraph: a random Hamiltonian cycle plus random extra arcs."""
    n = draw(st.integers(min_order, max_order))
    perm = draw(st.permutations(range(n)))
    arcs = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs |= draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    return build_digraph(n, arcs)


@st.composite
def connected_graphs(draw, min_order: int = 2, max_order: int = 7):
    """Connected graph: a random spanning tree plus random extra edges."""
    n = draw(st.integers(min_order, max_order))
    order = draw(st.permutations(range(n)))
    edges = set()
    for i in range(1, n):
        parent = order[draw(st.integers(0, i - 1))]
        edges.add((min(order[i], parent), max(order[i], parent)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    return build_graph(n, edges)
