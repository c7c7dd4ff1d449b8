"""Structure-build benchmarks: the ``structure_build`` kernel per tier.

Every destination's state-independent routing structure (three passes
plus the tiebreak CSR and tie keys), built over *all* destinations of
one topology: ``numpy`` loops over ``compute_dest_routing``; ``cext``
runs the kernel one chunk of destinations per call, on one thread and
on two (the C code releases the GIL).  Destinations go through
:class:`~repro.routing.arena.StructureBuild` in blocks, each packed into
an arena and dropped, so memory stays at one block while the timed work
covers every destination.

``make bench-compare`` and the CI bench smoke assert the compiled
build at least 5x faster than numpy on one thread
(``--speedup "kernel_structure_build[cext-1]:kernel_structure_build[numpy-1]:5.0"``)
against the committed ``BENCH_*_structure_build.json`` snapshot.

Scale: ``REPRO_BENCH_BACKEND_N`` ASes (default 4000, the CI smoke
size; the committed snapshot is recorded at 8000).
"""

from __future__ import annotations

import os

import pytest

from repro.routing import backends as kernel_backends
from repro.routing.arena import StructureBuild
from repro.routing.compiled import CompiledGraph
from repro.routing.errors import BackendUnavailable
from repro.topology.generator import generate_topology

BACKEND_N = int(os.environ.get("REPRO_BENCH_BACKEND_N", "4000"))
BACKEND_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2011"))
#: destinations per packed-and-dropped arena
BLOCK = 256
ROUNDS = 3


def _configs() -> list[tuple[str, int]]:
    out = [("numpy", 1)]
    try:
        kernel_backends.load_backend("cext")
    except BackendUnavailable:
        return out
    return out + [("cext", 1), ("cext", 2)]


@pytest.fixture(scope="module")
def bench_graph():
    graph = generate_topology(n=BACKEND_N, seed=BACKEND_SEED).graph
    return graph, CompiledGraph.from_graph(graph)


def _build_all(compiled: CompiledGraph, backend: str, threads: int) -> int:
    built = 0
    for lo in range(0, compiled.n, BLOCK):
        build = StructureBuild(compiled, range(lo, min(lo + BLOCK, compiled.n)), backend)
        build.run(workers=threads)
        built += build.arena().num_dests
    return built


@pytest.mark.parametrize(
    "backend,threads", _configs(), ids=[f"{b}-{t}" for b, t in _configs()]
)
def test_kernel_structure_build(benchmark, bench_graph, backend, threads):
    """All-destination structure build: numpy vs the compiled kernel."""
    graph, compiled = bench_graph
    built = benchmark.pedantic(
        _build_all, args=(compiled, backend, threads), rounds=ROUNDS, iterations=1
    )
    assert built == graph.n
