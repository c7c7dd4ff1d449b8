"""Cache of per-destination routing structures for a fixed graph.

Under state-independent policies (Observation C.1: SecP ranked last)
everything in :class:`DestRouting` is reusable across deployment
states, so a simulation computes it once per destination and keeps it
for every round and every projected state.  The cache also exposes the
dense class matrix (``cls_matrix[d, i]`` = route class of node ``i``
toward destination ``d``) that the projection engine uses to filter
destinations.

The cache is bound to one :class:`~repro.routing.policy.RoutingPolicy`
for its lifetime; the policy name travels with every structure it hands
out (``DestRouting.policy``, ``RoutingArena.policy``), and installing a
structure built under a different policy raises — mixed-policy reuse is
a silent-wrong-results bug, not a recoverable condition.  For
*state-dependent* policies (``security_1st`` / ``security_2nd``) the
structures are additionally keyed by the deployment state:
:meth:`RoutingCache.ensure_state` drops and rebuilds everything when
the ``(node_secure, breaks_ties)`` pair changes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from typing import Callable

import numpy as np

from repro.routing import backends as kernel_backends
from repro.routing.arena import RoutingArena, StructureBuild
from repro.routing.compiled import CompiledGraph
from repro.routing.policy import RoutingPolicy, get_policy
from repro.routing.tree import DestRouting
from repro.runtime.guard import current_guard
from repro.telemetry.metrics import get_registry
from repro.topology.graph import ASGraph

#: destinations warmed between deadline checks in the serial warm loop
_WARM_CHECK_STRIDE = 64


def state_digest(node_secure: np.ndarray, breaks_ties: np.ndarray) -> str:
    """Short stable digest of a deployment state (for cache/arena keys)."""
    h = hashlib.blake2b(digest_size=8)
    h.update(np.asarray(node_secure, dtype=bool).tobytes())
    h.update(np.asarray(breaks_ties, dtype=bool).tobytes())
    return h.hexdigest()


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Public accounting for one :class:`RoutingCache` instance.

    ``warm_seconds`` sums in-process tree-build time plus any parallel
    warm wall time noted via :meth:`RoutingCache.note_warm_time`;
    ``installs`` counts trees computed elsewhere (worker processes) and
    shipped in, whose per-tree build time lives in the workers'
    telemetry snapshots rather than here.  ``state_rebuilds`` counts
    full drop-and-rebuild cycles triggered by deployment-state changes
    (always 0 for state-independent policies); ``arena_bytes`` is the
    pooled arena's footprint (0 until one is built).
    """

    hits: int
    misses: int
    builds: int
    installs: int
    warm_seconds: float
    cached: int
    total: int
    policy: str = "security_3rd"
    state_rebuilds: int = 0
    arena_bytes: int = 0
    backend: str = "numpy"

    @property
    def cached_fraction(self) -> float:
        """Fraction of this cache's destinations already computed."""
        return self.cached / self.total if self.total else 1.0

    @property
    def hit_rate(self) -> float:
        """Hits over all lookups (NaN-free: 0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class RoutingCache:
    """Lazily computed :class:`DestRouting` per destination.

    Parameters
    ----------
    graph:
        The (already final) AS graph.  Mutating the graph after creating
        a cache invalidates it; create a new cache instead.
    destinations:
        Restrict the cache to these destination indices (default: all).
        Experiments on large graphs may sample destinations; utilities
        are then computed over the sampled destination set only.
    policy:
        A :class:`~repro.routing.policy.RoutingPolicy` or registry name
        / alias (``"security_3rd"`` default; see
        :func:`repro.routing.policy.available_policies`).
    transform:
        Optional post-processor applied to each computed
        :class:`DestRouting` (e.g. the sticky-primary restriction of
        :func:`repro.routing.policy.restrict_to_primary` with a
        custom mask — the registered ``sticky_primaries`` policy covers
        the standard §8.3 configuration without this hook).
    backend:
        Kernel backend name for the batched tree/weight/fixpoint kernels
        (:mod:`repro.routing.backends`).  ``None`` resolves through the
        ``SBGP_KERNEL_BACKEND`` env var (default ``numpy``); an unusable
        compiled backend degrades to numpy via the resource guard's
        ``compiled_to_numpy`` rung.  Resolved once here, so every arena
        this cache builds or adopts runs on one backend.
    """

    def __init__(
        self,
        graph: ASGraph,
        destinations: list[int] | None = None,
        policy: str | RoutingPolicy = "security_3rd",
        transform: Callable[[DestRouting], DestRouting] | None = None,
        backend: str | None = None,
    ):
        self.policy = get_policy(policy)
        self.transform = transform
        self.backend_name = kernel_backends.resolve_backend(backend)
        self.graph = graph
        self.compiled = CompiledGraph.from_graph(graph)
        self.destinations = list(range(graph.n)) if destinations is None else list(destinations)
        self._dest_pos = {d: k for k, d in enumerate(self.destinations)}
        self._routing: dict[int, DestRouting] = {}
        self._arena: RoutingArena | None = None
        self._cls_matrix: np.ndarray | None = None
        # deployment state the structures were built under; only
        # meaningful for state-dependent policies (None = all-insecure)
        self._node_secure: np.ndarray | None = None
        self._breaks_ties: np.ndarray | None = None
        self._state_key: str | None = None
        if self.policy.state_dependent:
            # structures built before any ensure_state() call use the
            # all-insecure default; key it explicitly so round 0 of a
            # pre-warmed simulation is not a spurious rebuild
            empty = np.zeros(graph.n, dtype=bool)
            self._state_key = state_digest(empty, empty)
        self._hits = 0
        self._misses = 0
        self._builds = 0
        self._installs = 0
        self._state_rebuilds = 0
        self._warm_seconds = 0.0
        get_registry().gauge(f"routing.policy.active.{self.policy.name}").set(1)

    @property
    def n(self) -> int:
        """Number of nodes in the underlying graph."""
        return self.graph.n

    @property
    def policy_name(self) -> str:
        """Canonical registry name of this cache's policy."""
        return self.policy.name

    @property
    def state_key(self) -> str | None:
        """Digest of the deployment state the structures are built for.

        ``None`` for state-independent policies (one structure serves
        every state); for state-dependent policies this starts at the
        all-insecure digest and tracks :meth:`ensure_state`.
        """
        return self._state_key

    def current_state(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``(node_secure, breaks_ties)`` the structures are built under.

        ``(None, None)`` means the all-insecure default (and is the
        permanent answer for state-independent policies).  Parallel
        warmers ship this to worker processes so remotely-built
        structures match the cache's state.
        """
        return self._node_secure, self._breaks_ties

    @property
    def compiled_warm(self) -> bool:
        """Does :meth:`warm` run the compiled ``structure_build`` kernel?

        True on a backend whose spec sets ``structure_warm`` (cext) for
        policies whose structure is the three-pass build
        (:attr:`RoutingPolicy.three_pass`).  The numpy tier, ``sp_first``
        and the state-dependent policies keep their per-destination (or
        per-fixpoint-batch) builds.
        """
        return (
            self.policy.three_pass
            and kernel_backends.get_backend(self.backend_name).structure_warm
        )

    def _build(self, dests: list[int]) -> list[DestRouting]:
        """Build (and transform, and tag) structures for ``dests``."""
        return self._transform(self.policy.build_many(
            self.graph,
            dests,
            self.compiled,
            node_secure=self._node_secure,
            breaks_ties=self._breaks_ties,
            backend=self.backend_name,
        ))

    def _transform(self, routings: list[DestRouting]) -> list[DestRouting]:
        if self.transform is not None:
            routings = [self.transform(dr) for dr in routings]
            for dr in routings:
                dr.policy = self.policy.name
        return routings

    def dest_routing(self, dest: int) -> DestRouting:
        """The :class:`DestRouting` for ``dest`` (computed on first use)."""
        dr = self._routing.get(dest)
        registry = get_registry()
        if dr is None:
            self._misses += 1
            registry.counter("routing.cache.misses").inc()
            start = time.perf_counter()
            dr = self._build([dest])[0]
            elapsed = time.perf_counter() - start
            self._builds += 1
            self._warm_seconds += elapsed
            registry.counter("routing.tree_builds").inc()
            registry.histogram("routing.tree_build_seconds").observe(elapsed)
            self._routing[dest] = dr
        else:
            self._hits += 1
            registry.counter("routing.cache.hits").inc()
        return dr

    def warm(self, workers: int = 1) -> None:
        """Precompute every destination in ``destinations``.

        State-dependent policies warm in one batched fixpoint run (the
        Jacobi sweeps are shared across the whole destination chunk)
        instead of destination-by-destination.  With
        :attr:`compiled_warm`, the kernel builds one chunk of
        destinations per call, ``workers`` chunks at a time on threads,
        and a warm of every destination is adopted as the arena as it
        stands (no per-destination structures to repack).  ``workers``
        only applies to that path.
        """
        pending = self.pending_destinations()
        if not pending:
            return
        guard = current_guard()
        if self.policy.state_dependent:
            # the batched fixpoint is all-or-nothing; check once up front
            guard.check_deadline("cache warm (batched fixpoint)")
            start = time.perf_counter()
            routings = self._build(pending)
            elapsed = time.perf_counter() - start
            for dest, dr in zip(pending, routings):
                self._routing[dest] = dr
            self._count_builds(len(pending), elapsed)
        elif self.compiled_warm:
            self._warm_compiled(pending, workers)
        else:
            for k, dest in enumerate(pending):
                if k % _WARM_CHECK_STRIDE == 0:
                    # already-computed destinations stay cached, so an
                    # expired budget here resumes where warming stopped
                    guard.check_deadline("cache warm")
                self.dest_routing(dest)

    def _warm_compiled(self, pending: list[int], workers: int) -> None:
        guard = current_guard()
        build = StructureBuild(self.compiled, pending, backend=self.backend_name)
        start = time.perf_counter()
        try:
            # an expired deadline stops dispatch between chunks; the
            # finished chunks are cached below, so a rerun resumes there
            build.run(workers, check=lambda: guard.check_deadline("cache warm"))
        finally:
            self._count_builds(build.num_built(), time.perf_counter() - start)
            if (
                build.complete
                and len(pending) == len(self.destinations)
                and self.policy.sticky_fraction == 0.0
                and self.transform is None
            ):
                self._adopt_arena(build.arena(self.policy.name))
            else:
                routings = self.policy.finish(build.views(), self.graph.n)
                for dr in self._transform(routings):
                    self._routing[dr.dest] = dr

    def _count_builds(self, built: int, elapsed: float) -> None:
        """Account one batched warm: ``built`` misses and builds."""
        self._misses += built
        self._builds += built
        self._warm_seconds += elapsed
        registry = get_registry()
        registry.counter("routing.cache.misses").inc(built)
        registry.counter("routing.tree_builds").inc(built)
        registry.histogram("routing.tree_build_seconds").observe(elapsed)

    def ensure_state(
        self, node_secure: np.ndarray, breaks_ties: np.ndarray
    ) -> bool:
        """Make cached structures valid for this deployment state.

        No-op (returns False) for state-independent policies and when
        the state matches what is already cached.  Otherwise every
        structure — per-destination routings, the arena, the class
        matrix — is dropped and rebuilt under the new state; returns
        True.  Callers on the round loop invoke this before
        :meth:`ensure_arena`.
        """
        if not self.policy.state_dependent:
            return False
        key = state_digest(node_secure, breaks_ties)
        if key == self._state_key:
            return False
        self._node_secure = np.array(node_secure, dtype=bool)
        self._breaks_ties = np.array(breaks_ties, dtype=bool)
        self._state_key = key
        had_routings = bool(self._routing)
        had_arena = self._arena is not None
        self._routing.clear()
        self._arena = None
        self._cls_matrix = None
        if had_routings or had_arena:
            self._state_rebuilds += 1
            get_registry().counter("routing.cache.state_rebuilds").inc()
        if had_arena:
            self.ensure_arena()
        return True

    @property
    def arena(self) -> RoutingArena | None:
        """The pooled routing arena, if one has been built (else None)."""
        return self._arena

    def ensure_arena(self) -> RoutingArena:
        """Warm everything and pack it into a :class:`RoutingArena`.

        The cached per-destination :class:`DestRouting` objects are
        replaced by zero-copy views into the arena pools, so subsequent
        :meth:`dest_routing` lookups hand out pool-backed structures
        (with their tie-break keys precomputed) and the original
        fragmented arrays are released.  Idempotent after the first
        call; a shared arena installed via :meth:`install_arena` is
        reused as-is.
        """
        if self._arena is None:
            self.warm()
        if self._arena is None:
            arena = RoutingArena.build(
                self.graph.n,
                self.destinations,
                [self._routing[d] for d in self.destinations],
                policy=self.policy.name,
                state_key=self._state_key,
                backend=self.backend_name,
            )
            self._adopt_arena(arena)
        return self._arena

    def install_arena(self, arena: RoutingArena) -> None:
        """Adopt a pre-built arena (e.g. attached from shared memory).

        The arena's slot order must match this cache's ``destinations``
        and it must have been built under the same policy (and, for
        state-dependent policies, the same deployment state); every
        destination is then considered cached (counted as installs,
        like trees shipped in from parallel warm workers).
        """
        if list(arena.dest_ids) != list(self.destinations):
            raise ValueError("arena destinations do not match this cache")
        if arena.policy != self.policy.name:
            raise ValueError(
                f"arena was built under policy {arena.policy!r}; this cache "
                f"uses {self.policy.name!r} (mixed-policy reuse is invalid)"
            )
        if arena.state_key != self._state_key:
            raise ValueError(
                f"arena was built for deployment state {arena.state_key!r}; "
                f"this cache is at {self._state_key!r}"
            )
        # The backend tag is execution metadata, not structure: kernels
        # are bit-identical across backends, so an arena shipped from a
        # peer simply runs on *this* cache's resolved backend.
        arena.backend = self.backend_name
        self._installs += arena.num_dests
        self._adopt_arena(arena)

    def _adopt_arena(self, arena: RoutingArena) -> None:
        self._arena = arena
        for k, dest in enumerate(self.destinations):
            self._routing[dest] = arena.view(k)
        self._cls_matrix = arena.cls
        registry = get_registry()
        registry.gauge("routing.arena.bytes").set(arena.nbytes)

    def install(self, dest: int, routing: DestRouting) -> None:
        """Install a :class:`DestRouting` computed elsewhere.

        Public entry point for parallel warmers (the per-destination
        structures are computed in worker processes and shipped back).
        The structure must carry this cache's policy name (the worker
        builders tag it); ``dest`` must be one of ``destinations``.
        """
        if dest not in self._dest_pos:
            raise KeyError(f"destination {dest} not in cache")
        if routing.policy != self.policy.name:
            raise ValueError(
                f"routing for destination {dest} was built under policy "
                f"{routing.policy!r}; this cache uses {self.policy.name!r}"
            )
        self._installs += 1
        self._routing[dest] = routing

    def note_warm_time(self, seconds: float) -> None:
        """Attribute externally-measured warm wall time to this cache.

        Called by :func:`repro.parallel.engine.parallel_warm_cache` with
        the wall time of the whole warm map, since installed trees carry
        no per-tree timing of their own.
        """
        self._warm_seconds += seconds

    def stats(self) -> CacheStats:
        """Current :class:`CacheStats` (hits, misses, warm time, fill)."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            builds=self._builds,
            installs=self._installs,
            warm_seconds=self._warm_seconds,
            cached=len(self._routing),
            total=len(self.destinations),
            policy=self.policy.name,
            state_rebuilds=self._state_rebuilds,
            arena_bytes=self._arena.nbytes if self._arena is not None else 0,
            backend=self.backend_name,
        )

    def is_cached(self, dest: int) -> bool:
        """True if ``dest`` has already been computed or installed."""
        return dest in self._routing

    def pending_destinations(self) -> list[int]:
        """Destinations not yet computed, in ``destinations`` order."""
        return [d for d in self.destinations if d not in self._routing]

    @property
    def cls_matrix(self) -> np.ndarray:
        """int8 matrix ``[len(destinations), n]`` of route classes.

        Row ``k`` corresponds to ``destinations[k]``.  For
        state-dependent policies the matrix reflects the state last
        passed to :meth:`ensure_state`.
        """
        if self._cls_matrix is None:
            mat = np.empty((len(self.destinations), self.graph.n), dtype=np.int8)
            for k, dest in enumerate(self.destinations):
                mat[k] = self.dest_routing(dest).cls
            self._cls_matrix = mat
        return self._cls_matrix

    def position_of(self, dest: int) -> int | None:
        """Row index of ``dest`` within ``destinations`` (None if absent)."""
        return self._dest_pos.get(dest)

    def dest_pos(self, dest: int) -> int:
        """Row index of ``dest`` within ``destinations``."""
        try:
            return self._dest_pos[dest]
        except KeyError:
            raise KeyError(f"destination {dest} not in cache") from None
