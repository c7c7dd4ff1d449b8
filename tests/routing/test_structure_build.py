"""The batched ``structure_build`` kernel: bit-identity on every tier.

:func:`~repro.routing.tree.compute_dest_routing` is the ground truth of
every per-destination structure.  The kernel's numpy entry loops over
it; the ``python`` tier (the loop body numba compiles) and ``cext``
(the C transliteration) rebuild the three passes and the tiebreak CSR
themselves, and must agree byte for byte on every field: ``cls``,
``lengths``, ``order``, ``row_of``, ``level_starts``, ``indptr``,
``cands`` and the tie keys.  Above the kernel, a compiled cache warm
must produce the same arena as the numpy warm, serially and on threads,
and must keep what it finished when a deadline stops it.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.parallel.engine import parallel_warm_cache
from repro.routing import backends as kb
from repro.routing.arena import (
    ARENA_FIELDS,
    STRUCTURE_CHUNK,
    RoutingArena,
    StructureBuild,
)
from repro.routing.cache import RoutingCache
from repro.routing.compiled import CompiledGraph
from repro.routing.errors import BackendUnavailable
from repro.routing.policy import get_policy
from repro.routing.tree import compute_dest_routing
from repro.runtime.errors import DeadlineExceeded
from repro.runtime.guard import Deadline, RuntimeGuard, use_guard
from repro.topology.generator import generate_topology
from repro.topology.graph import ASGraph

from tests.strategies import as_graphs


def _loads(name: str) -> bool:
    try:
        kb.load_backend(name)
    except BackendUnavailable:
        return False
    return True


def _tier(name: str):
    return pytest.param(
        name,
        marks=pytest.mark.skipif(not _loads(name), reason=f"{name} backend unusable here"),
    )


#: the compiled tiers, each skipped where it cannot load (numba is the
#: optional ``compiled`` extra)
COMPILED = [
    _tier(name) for name in kb.available_backends() if kb.get_backend(name).compiled
]
#: every tier of the kernel; numpy's entry is the ground-truth loop and
#: "python" (hidden) the loop body numba compiles
TIERS = ["numpy", "python", *COMPILED]
POLICIES = ["security_3rd", "sticky_primaries"]

FIELDS = ("cls", "lengths", "order", "row_of", "level_starts", "indptr", "cands")


def _assert_same(got, want, context) -> None:
    assert got.dest == want.dest, context
    for field in FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, (context, field)
        assert a.tobytes() == b.tobytes(), (context, field)
    assert got.tie_keys().dtype == np.uint64, context
    assert got.tie_keys().tobytes() == want.tie_keys().tobytes(), (context, "keys")


def _assert_same_arena(got, want) -> None:
    for name, _ in ARENA_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.nbytes == want.nbytes


def _kernel_build(graph: ASGraph, dests, backend: str, policy: str = "security_3rd"):
    """Structures from the kernel tier ``backend``, finished by ``policy``."""
    build = StructureBuild(CompiledGraph.from_graph(graph), dests, backend=backend)
    assert build.backend == backend
    build.run()
    assert build.complete and build.num_built() == len(dests)
    return get_policy(policy).finish(build.views(), graph.n)


def _check_graph(graph: ASGraph, backend: str, policy: str = "security_3rd") -> None:
    dests = list(range(graph.n))
    want = get_policy(policy).build_many(graph, dests, backend="numpy")
    got = _kernel_build(graph, dests, backend, policy)
    for dest, g, w in zip(dests, got, want):
        _assert_same(g, w, (backend, policy, dest))


def _graph(n: int, customer_provider=(), peerings=()) -> ASGraph:
    graph = ASGraph()
    for asn in range(n):
        graph.add_as(asn)
    for provider, customer in customer_provider:
        graph.add_customer_provider(provider=provider, customer=customer)
    for a, b in peerings:
        graph.add_peering(a, b)
    return graph


class TestKernelParity:
    @pytest.mark.parametrize("backend", TIERS)
    def test_numpy_entry_is_compute_dest_routing(self, small_graph, backend):
        dests = list(range(0, small_graph.n, 7))
        got = _kernel_build(small_graph, dests, backend)
        cg = CompiledGraph.from_graph(small_graph)
        for dest, dr in zip(dests, got):
            _assert_same(dr, compute_dest_routing(small_graph, dest, cg), dest)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("backend", TIERS)
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(graph=as_graphs(min_nodes=1, max_nodes=24))
    def test_generated_graphs(self, graph, backend, policy):
        _check_graph(graph, backend, policy)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("backend", TIERS)
    def test_chunked_arena_equals_packed_routings(self, small_graph, backend, workers):
        """Chunk pools join into exactly what packing per-destination
        structures gives, in any slot order, on threads or not."""
        dests = list(range(small_graph.n))[::-1]
        cg = CompiledGraph.from_graph(small_graph)
        build = StructureBuild(cg, dests, backend=backend)
        assert len(build.chunks) > 2
        build.run(workers=workers)
        want = RoutingArena.build(
            small_graph.n, dests,
            [compute_dest_routing(small_graph, d, cg) for d in dests],
        )
        _assert_same_arena(build.arena(), want)


@pytest.mark.parametrize("backend", ["python", *COMPILED])
def test_threaded_build_under_forced_switching(small_graph, backend):
    """More threads than cores, switching every microsecond: each chunk
    still owns its rows and pools, so nothing is lost or interleaved."""
    dests = list(range(small_graph.n)) * 3
    cg = CompiledGraph.from_graph(small_graph)
    serial = StructureBuild(cg, dests, backend=backend)
    serial.run()
    threaded = StructureBuild(cg, dests, backend=backend)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded.run(workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert threaded.complete
    _assert_same_arena(threaded.arena(), serial.arena())


class TestEdgeCases:
    """Shapes the generated topologies rarely or never produce."""

    @pytest.mark.parametrize("backend", TIERS)
    def test_destination_without_providers(self, backend):
        # 0 is a provider-free top: its customer routes reach nobody above
        graph = _graph(4, customer_provider=[(0, 1), (0, 2), (1, 3), (2, 3)])
        assert graph.providers[0] == []
        _check_graph(graph, backend)
        dr = _kernel_build(graph, [0], backend)[0]
        assert dr.tiebreak_set(3).tolist() == [1, 2]

    @pytest.mark.parametrize("backend", TIERS)
    def test_unreachable_nodes(self, backend):
        # 3 and 4 form a second component; 5 is isolated
        graph = _graph(6, customer_provider=[(0, 1), (0, 2), (3, 4)])
        _check_graph(graph, backend)
        dr = _kernel_build(graph, [1], backend)[0]
        assert dr.row_of[[3, 4, 5]].tolist() == [-1, -1, -1]
        assert dr.lengths[[3, 4, 5]].tolist() == [-1, -1, -1]
        assert dr.num_reachable == 3

    @pytest.mark.parametrize("backend", TIERS)
    def test_peer_only_component(self, backend):
        # 0-1-2 peer in a line: one peer hop is exportable, two are not
        graph = _graph(4, peerings=[(0, 1), (1, 2)], customer_provider=[(3, 2)])
        _check_graph(graph, backend)
        dr = _kernel_build(graph, [0], backend)[0]
        assert dr.order.tolist() == [0, 1]
        assert dr.lengths[2] == -1

    @pytest.mark.parametrize("backend", TIERS)
    def test_single_node(self, backend):
        graph = _graph(1)
        _check_graph(graph, backend)
        dr = _kernel_build(graph, [0], backend)[0]
        assert dr.level_starts.tolist() == [0, 1]
        assert dr.indptr.tolist() == [0, 0]
        assert len(dr.cands) == 0

    @pytest.mark.parametrize("backend", TIERS)
    def test_no_destinations(self, backend):
        graph = _graph(3, customer_provider=[(0, 1)])
        build = StructureBuild(CompiledGraph.from_graph(graph), [], backend=backend)
        build.run()
        _assert_same_arena(build.arena(), RoutingArena.build(graph.n, [], []))


def test_cext_rejects_out_of_range_destinations():
    if not _loads("cext"):
        pytest.skip("cext backend unusable here")
    graph = _graph(3, customer_provider=[(0, 1), (0, 2)])
    build = StructureBuild(CompiledGraph.from_graph(graph), [1, 3], backend="cext")
    with pytest.raises(ValueError, match="outside"):
        build.run()


def test_cext_rejects_undersized_pools():
    """The C code trusts its capacities, so the wrapper checks them."""
    if not _loads("cext"):
        pytest.skip("cext backend unusable here")
    graph = _graph(3, customer_provider=[(0, 1), (0, 2)])
    cg = CompiledGraph.from_graph(graph)
    _, kernels = kb.kernels_for("cext")
    n = cg.n
    with pytest.raises(ValueError, match="too small"):
        kernels.structure_build(
            np.zeros(1, dtype=np.int32),
            cg.cust_indptr, cg.cust_idx, cg.peer_indptr, cg.peer_idx,
            cg.prov_indptr, cg.prov_idx,
            np.empty((1, n), np.int8), np.empty((1, n), np.int32),
            np.empty((1, n), np.int32),
            np.empty(n, np.int32), np.empty(n + 1, np.int32),
            np.empty(n + 1, np.int64), np.empty(0, np.int32),
            np.empty(0, np.uint64), np.zeros((1, 3), np.int64),
            np.empty(3 * n + 2, np.int32),
        )


# -- the compiled cache warm ---------------------------------------------

#: the tiers whose cache warm runs the kernel (``structure_warm``)
WARM_BACKENDS = [
    _tier(name)
    for name in kb.available_backends()
    if kb.get_backend(name).structure_warm
]


@pytest.fixture(scope="module")
def warm_graph():
    return generate_topology(n=150, seed=8).graph


@pytest.fixture(scope="module")
def numpy_arena(warm_graph):
    cache = RoutingCache(warm_graph, backend="numpy")
    assert not cache.compiled_warm
    parallel_warm_cache(cache, workers=1)
    return cache.ensure_arena()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("backend", WARM_BACKENDS)
def test_compiled_warm_arena_equals_numpy_warm(warm_graph, numpy_arena, backend, workers):
    cache = RoutingCache(warm_graph, backend=backend)
    assert cache.compiled_warm
    parallel_warm_cache(cache, workers=workers)
    # the warm adopted the kernel's arena: nothing left to pack
    arena = cache.arena
    assert arena is not None and arena.backend == backend
    assert cache.ensure_arena() is arena
    _assert_same_arena(arena, numpy_arena)
    stats = cache.stats()
    assert stats.builds == warm_graph.n and stats.installs == 0
    assert np.shares_memory(cache.dest_routing(17).cls, arena.cls)


@pytest.mark.parametrize("backend", WARM_BACKENDS)
def test_compiled_warm_sticky_matches_numpy(warm_graph, backend):
    want = RoutingCache(warm_graph, policy="sticky_primaries", backend="numpy")
    want.warm()
    got = RoutingCache(warm_graph, policy="sticky_primaries", backend=backend)
    assert got.compiled_warm
    got.warm(workers=2)
    assert got.arena is None  # the restriction rewrote the tiebreak sets
    _assert_same_arena(got.ensure_arena(), want.ensure_arena())


class _TickClock:
    """Advances one second per reading: the n-th deadline check sees n."""

    def __init__(self) -> None:
        self.now = -1.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("backend", WARM_BACKENDS)
def test_deadline_mid_warm_keeps_finished_chunks(
    warm_graph, numpy_arena, backend, workers
):
    cache = RoutingCache(warm_graph, backend=backend)
    # the third dispatch check (before the third chunk) expires
    finished = 2 * STRUCTURE_CHUNK
    assert warm_graph.n > finished
    guard = RuntimeGuard(deadline=Deadline(2.5, clock=_TickClock()))
    with use_guard(guard), pytest.raises(DeadlineExceeded, match="cache warm"):
        parallel_warm_cache(cache, workers=workers)
    assert all(cache.is_cached(d) for d in cache.destinations[:finished])
    assert cache.pending_destinations() == cache.destinations[finished:]
    assert cache.arena is None
    assert cache.stats().builds == finished

    # resuming builds only the rest, and the packed arena is the same
    parallel_warm_cache(cache, workers=workers)
    assert cache.pending_destinations() == []
    assert cache.stats().builds == warm_graph.n
    _assert_same_arena(cache.ensure_arena(), numpy_arena)
