"""Pooled structure-of-arrays routing arena + batched tree kernel.

The per-destination :class:`~repro.routing.tree.DestRouting` objects are
individually compact, but a warm cache holds thousands of them: a dict
of Python objects, each owning half a dozen small numpy arrays.  That
layout costs allocator overhead, defeats zero-copy transport between
processes, and forces every routing-state sweep to run a Python loop of
``n_dests x n_levels`` kernel launches.

:class:`RoutingArena` packs *all* destinations into a handful of
contiguous pools with a per-destination offset table:

- ``order_pool`` / ``level_pool`` / ``indptr_pool`` / ``cands_pool``:
  the CSR structures of every destination, concatenated, with
  ``*_ptr`` offset tables (``order_ptr[k]:order_ptr[k+1]`` is slot
  ``k``'s slice);
- ``keys_pool``: the state-independent tie-break keys (hash high bits |
  row-position low bits) for every tiebreak candidate.  These do not
  depend on the deployment state, so the arena computes them exactly
  once per destination instead of on every ``compute_tree`` call;
- ``cls`` / ``lengths`` / ``row_of``: dense ``[num_dests, n]`` matrices
  (``cls`` doubles as the projection engine's class matrix).

``view(k)`` reconstitutes a zero-copy :class:`DestRouting` over the
pools, so all existing per-destination code keeps working unchanged.

On top of the pools, :func:`compute_trees_batched` resolves *many*
destinations per call.  On a loop tier (``python``, numba, cext) one
``trees_slots`` call walks each requested destination's own pool
segments.  On numpy, same-path-length segments are stacked across
destinations (a level-major mirror of the pools, built lazily and only
on this tier), so the Python-level loop runs over the handful of
**global** levels instead of ``n_dests x n_levels``.  Candidates always
sit one level below their row's node, so interleaving destinations
within a level is safe — each destination still sees its own
already-resolved previous level.

:class:`StructureBuild` fills an arena without per-destination
objects: the backend's ``structure_build`` kernel writes each chunk of
destinations' rows of the dense matrices in place and fills that
chunk's pools, and a finished build is adopted as the arena.  On a
compiled backend the chunks run on threads (the kernel releases the
GIL).

Because every pool is a flat typed buffer, the arena also serialises to
a single byte blob (:meth:`RoutingArena.to_blocks` /
:meth:`RoutingArena.from_buffer`), which is what the shared-memory data
plane in :mod:`repro.parallel.shm` ships between processes.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.routing import backends as kernel_backends
from repro.routing.compiled import CompiledGraph, gather_neighbors
from repro.routing.fast_tree import RoutingTree
from repro.routing.tree import DestRouting, compute_tie_keys
from repro.telemetry.metrics import get_registry

if TYPE_CHECKING:  # pragma: no cover - imported where threads are used
    from concurrent.futures import Future

#: (field name, dtype) of every pooled array, in serialisation order.
#: ``*_ptr`` tables have length ``num_dests + 1``; matrices are
#: ``[num_dests, n]``; pools are flat.
ARENA_FIELDS: tuple[tuple[str, str], ...] = (
    ("dest_ids", "int32"),
    ("cls", "int8"),
    ("lengths", "int32"),
    ("row_of", "int32"),
    ("order_ptr", "int64"),
    ("order_pool", "int32"),
    ("level_ptr", "int64"),
    ("level_pool", "int32"),
    ("indptr_ptr", "int64"),
    ("indptr_pool", "int64"),
    ("cand_ptr", "int64"),
    ("cands_pool", "int32"),
    ("keys_pool", "uint64"),
)


def _concat_with_ptr(arrays: list[np.ndarray], dtype) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``arrays`` into one pool plus an int64 offset table."""
    ptr = np.zeros(len(arrays) + 1, dtype=np.int64)
    if arrays:
        np.cumsum([len(a) for a in arrays], out=ptr[1:])
        pool = np.concatenate(arrays).astype(dtype, copy=False)
    else:
        pool = np.empty(0, dtype=dtype)
    return pool, ptr


@dataclasses.dataclass
class _LevelSlice:
    """Level-major stacked layout for one global path-length level.

    ``node_ptr`` / ``edge_ptr`` are per-destination-slot segment tables
    (length ``num_dests + 1``) into the stacked arrays, so a *subset*
    of destinations extracts its stack with one vectorised gather.
    """

    node_ptr: np.ndarray   # int64[num_dests + 1]
    nodes: np.ndarray      # int32; global node ids, stacked by slot
    sizes: np.ndarray      # int64; tiebreak-set size per stacked node
    edge_ptr: np.ndarray   # int64[num_dests + 1]
    cands: np.ndarray      # int32; stacked candidate node ids
    keys: np.ndarray       # uint64; stacked tie-break keys
    # full-set fast path (slots == arange(num_dests)):
    node_slot: np.ndarray  # int32; destination slot per stacked node
    starts: np.ndarray     # int64; reduceat starts per stacked node
    row_of_edge: np.ndarray  # int64; stacked-node row per stacked edge


@dataclasses.dataclass
class BatchedTrees:
    """Resolved routing trees for a batch of destination slots.

    Row ``i`` of each matrix is the tree for ``slots[i]``; rows are
    zero-copy views, so :meth:`tree` materialises a per-destination
    :class:`RoutingTree` without allocation.
    """

    dest_ids: np.ndarray      # int32[B]; dense destination node per row
    slots: np.ndarray         # int64[B]; arena slot per row
    choice: np.ndarray        # int32[B, n]
    secure: np.ndarray        # bool[B, n]
    any_secure: np.ndarray    # bool[B, n]

    def tree(self, i: int) -> RoutingTree:
        """The :class:`RoutingTree` of batch row ``i`` (views, no copy)."""
        return RoutingTree(
            dest=int(self.dest_ids[i]),
            choice=self.choice[i],
            secure=self.secure[i],
            any_secure_candidate=self.any_secure[i],
        )


class RoutingArena:
    """Pooled, contiguous routing structures for a destination set."""

    def __init__(
        self,
        graph_n: int,
        arrays: dict[str, np.ndarray],
        policy: str = "security_3rd",
        state_key: str | None = None,
        backend: str = "numpy",
    ):
        self.graph_n = graph_n
        #: registry name of the routing policy the structures were built
        #: under; :meth:`RoutingCache.install_arena` refuses a mismatch
        self.policy = policy
        #: deployment-state digest for state-dependent policies (None
        #: for state-independent structures, which serve every state)
        self.state_key = state_key
        #: kernel backend name the batched kernels dispatch through
        #: (:mod:`repro.routing.backends`); plain data, so it travels
        #: with the arena through shared memory and job specs.  The
        #: *consuming* process resolves it — and degrades to numpy —
        #: at call time.
        self.backend = backend
        for name, dtype in ARENA_FIELDS:
            arr = arrays[name]
            if str(arr.dtype) != dtype:
                raise ValueError(f"arena field {name}: expected {dtype}, got {arr.dtype}")
            setattr(self, name, arr)
        self._levels: list[_LevelSlice] | None = None
        self._full_slots = np.arange(self.num_dests, dtype=np.int64)

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls,
        graph_n: int,
        dest_ids: list[int],
        routings: list[DestRouting],
        policy: str = "security_3rd",
        state_key: str | None = None,
        backend: str = "numpy",
    ) -> "RoutingArena":
        """Pack per-destination :class:`DestRouting` structures.

        ``routings[k]`` must be the structure for ``dest_ids[k]``; the
        slot order of the arena is the order given here.  ``policy`` /
        ``state_key`` / ``backend`` are carried as metadata so a shipped
        arena can never be re-used under a different policy or
        deployment state, and so kernel dispatch follows the arena.
        """
        if len(dest_ids) != len(routings):
            raise ValueError("dest_ids and routings must align")
        num = len(routings)
        order_pool, order_ptr = _concat_with_ptr([r.order for r in routings], np.int32)
        level_pool, level_ptr = _concat_with_ptr(
            [r.level_starts for r in routings], np.int32
        )
        indptr_pool, indptr_ptr = _concat_with_ptr(
            [r.indptr for r in routings], np.int64
        )
        cands_pool, cand_ptr = _concat_with_ptr([r.cands for r in routings], np.int32)

        cls_mat = np.empty((num, graph_n), dtype=np.int8)
        lengths = np.empty((num, graph_n), dtype=np.int32)
        row_of = np.empty((num, graph_n), dtype=np.int32)
        for k, r in enumerate(routings):
            cls_mat[k] = r.cls
            lengths[k] = r.lengths
            row_of[k] = r.row_of

        # Tie-break keys for the whole pool, computed exactly once per
        # destination (state-independent: Observation C.1 extends to TB).
        keys_pool = np.empty(len(cands_pool), dtype=np.uint64)
        for k in range(num):
            lo, hi = int(cand_ptr[k]), int(cand_ptr[k + 1])
            r = routings[k]
            cached = r._tie_keys
            keys_pool[lo:hi] = (
                cached if cached is not None
                else compute_tie_keys(r.order, r.indptr, r.cands)
            )

        return _registered(cls(
            graph_n,
            {
                "dest_ids": np.asarray(dest_ids, dtype=np.int32),
                "cls": cls_mat,
                "lengths": lengths,
                "row_of": row_of,
                "order_ptr": order_ptr,
                "order_pool": order_pool,
                "level_ptr": level_ptr,
                "level_pool": level_pool,
                "indptr_ptr": indptr_ptr,
                "indptr_pool": indptr_pool,
                "cand_ptr": cand_ptr,
                "cands_pool": cands_pool,
                "keys_pool": keys_pool,
            },
            policy=policy,
            state_key=state_key,
            backend=backend,
        ))

    # -- basic accessors -----------------------------------------------

    @property
    def num_dests(self) -> int:
        return len(self.dest_ids)

    @property
    def nbytes(self) -> int:
        """Total bytes of the pooled arrays (telemetry: arena bytes)."""
        return sum(getattr(self, name).nbytes for name, _ in ARENA_FIELDS)

    @classmethod
    def estimate_bytes(
        cls,
        num_dests: int,
        n: int,
        avg_reach_fraction: float = 1.0,
        avg_cands_per_node: float = 1.5,
        include_level_major: bool = True,
    ) -> int:
        """Predict the pooled footprint of an arena *before* building it.

        The resource guard consults this forecast to plan worker counts
        and warm strategy, so it deliberately over- rather than
        under-estimates.  Derived from :data:`ARENA_FIELDS`:

        - dense matrices (``cls`` int8 + ``lengths``/``row_of`` int32):
          9 bytes per ``(dest, node)`` cell;
        - CSR pools: ``order_pool`` (int32) + ``indptr_pool`` (int64)
          cost 12 bytes per *reachable* node; ``cands_pool`` (int32) +
          ``keys_pool`` (uint64) cost 12 bytes per tie-break candidate
          (``avg_cands_per_node`` per reachable node — measured ~1.1-1.3
          on CAIDA-like graphs, 1.5 is the safe default);
        - offset tables: five int64 ``*_ptr`` arrays of ``num_dests+1``.

        ``avg_reach_fraction`` scales the per-destination reach (1.0 =
        every node reaches every destination, the connected-graph
        worst case).  ``include_level_major`` also counts the stacked
        level-major mirror the numpy tier's batched kernel builds lazily
        (roughly a second copy of the CSR pools) — on numpy that mirror
        is resident during every round, so planning without it would
        undercount by ~2x; the loop tiers never build it, so for them
        the forecast errs high.
        """
        if num_dests < 0 or n < 0:
            raise ValueError("num_dests and n must be >= 0")
        reach = num_dests * n * avg_reach_fraction
        cands = reach * avg_cands_per_node
        dense = num_dests * n * 9          # cls int8 + lengths/row_of int32
        csr_pools = reach * (4 + 8)        # order_pool int32 + indptr_pool int64
        cand_pools = cands * (4 + 8)       # cands_pool int32 + keys_pool uint64
        tables = 5 * 8 * (num_dests + 1) + 4 * num_dests
        level_pool = 4 * num_dests * 24    # level_starts: one int32 per level
        total = dense + csr_pools + cand_pools + tables + level_pool
        if include_level_major:
            # nodes/sizes/cands/keys/starts/node_slot/row_of_edge stacks,
            # plus the per-level node_ptr/edge_ptr segment tables (two
            # int64[num_dests+1] per level; 24 levels matches the
            # level_pool allowance above).  The tables are what grows
            # with num_dests alone, so at paper scale (36K dests) they
            # are no longer noise — re-validated at N=36964 by
            # tests/runtime/test_guard_chaos.py.
            total += reach * (4 + 8 + 8 + 4) + cands * (4 + 8 + 8)
            total += 2 * 8 * (num_dests + 1) * 24
        return int(total)

    def view(self, slot: int) -> DestRouting:
        """Zero-copy :class:`DestRouting` for destination slot ``slot``."""
        o_lo, o_hi = int(self.order_ptr[slot]), int(self.order_ptr[slot + 1])
        l_lo, l_hi = int(self.level_ptr[slot]), int(self.level_ptr[slot + 1])
        i_lo, i_hi = int(self.indptr_ptr[slot]), int(self.indptr_ptr[slot + 1])
        c_lo, c_hi = int(self.cand_ptr[slot]), int(self.cand_ptr[slot + 1])
        return DestRouting(
            dest=int(self.dest_ids[slot]),
            cls=self.cls[slot],
            lengths=self.lengths[slot],
            order=self.order_pool[o_lo:o_hi],
            row_of=self.row_of[slot],
            level_starts=self.level_pool[l_lo:l_hi],
            indptr=self.indptr_pool[i_lo:i_hi],
            cands=self.cands_pool[c_lo:c_hi],
            _tie_keys=self.keys_pool[c_lo:c_hi],
            policy=self.policy,
        )

    def views(self) -> list[DestRouting]:
        """Zero-copy views for every destination slot, in slot order."""
        return [self.view(k) for k in range(self.num_dests)]

    # -- serialisation (the shared-memory data plane) ------------------

    def to_blocks(self) -> tuple[int, list[tuple[str, str, tuple[int, ...], int]]]:
        """Layout for packing into one flat buffer.

        Returns ``(total_bytes, [(name, dtype, shape, offset), ...])``
        with every offset 16-byte aligned.
        """
        layout: list[tuple[str, str, tuple[int, ...], int]] = []
        offset = 0
        for name, dtype in ARENA_FIELDS:
            arr = getattr(self, name)
            offset = (offset + 15) & ~15
            layout.append((name, dtype, arr.shape, offset))
            offset += arr.nbytes
        return offset, layout

    def pack_into(self, buf) -> list[tuple[str, str, tuple[int, ...], int]]:
        """Copy every pool into ``buf`` (a writable buffer); returns layout."""
        total, layout = self.to_blocks()
        if len(buf) < total:
            raise ValueError(f"buffer too small: {len(buf)} < {total}")
        for name, dtype, shape, offset in layout:
            dest = np.ndarray(shape, dtype=dtype, buffer=buf, offset=offset)
            dest[...] = getattr(self, name)
        return layout

    @classmethod
    def from_buffer(
        cls,
        graph_n: int,
        buf,
        layout: list[tuple[str, str, tuple[int, ...], int]],
        copy: bool = False,
        policy: str = "security_3rd",
        state_key: str | None = None,
        backend: str = "numpy",
    ) -> "RoutingArena":
        """Rebuild an arena over ``buf`` (zero-copy views unless ``copy``)."""
        arrays: dict[str, np.ndarray] = {}
        for name, dtype, shape, offset in layout:
            arr = np.ndarray(tuple(shape), dtype=dtype, buffer=buf, offset=offset)
            arrays[name] = arr.copy() if copy else arr
        return cls(
            graph_n, arrays, policy=policy, state_key=state_key, backend=backend
        )

    # -- the batched kernel --------------------------------------------

    def _level_major(self) -> list[_LevelSlice]:
        """Build (once) the level-major stacked layout over all slots.

        Only the numpy tier reads it; the loop tiers resolve straight
        from the pools.
        """
        if self._levels is not None:
            return self._levels
        num = self.num_dests
        max_levels = 0
        for k in range(num):
            max_levels = max(max_levels, int(self.level_ptr[k + 1] - self.level_ptr[k]) - 1)
        levels: list[_LevelSlice] = []
        for level in range(1, max_levels):
            node_chunks: list[np.ndarray] = []
            size_chunks: list[np.ndarray] = []
            cand_chunks: list[np.ndarray] = []
            key_chunks: list[np.ndarray] = []
            node_ptr = np.zeros(num + 1, dtype=np.int64)
            edge_ptr = np.zeros(num + 1, dtype=np.int64)
            for k in range(num):
                l_lo, l_hi = int(self.level_ptr[k]), int(self.level_ptr[k + 1])
                n_levels = l_hi - l_lo - 1
                if level >= n_levels:
                    node_ptr[k + 1] = node_ptr[k]
                    edge_ptr[k + 1] = edge_ptr[k]
                    continue
                lo = int(self.level_pool[l_lo + level])
                hi = int(self.level_pool[l_lo + level + 1])
                o_lo = int(self.order_ptr[k])
                i_lo = int(self.indptr_ptr[k])
                c_lo = int(self.cand_ptr[k])
                indptr = self.indptr_pool[i_lo + lo:i_lo + hi + 1]
                seg_lo, seg_hi = int(indptr[0]), int(indptr[-1])
                node_chunks.append(self.order_pool[o_lo + lo:o_lo + hi])
                size_chunks.append(np.diff(indptr))
                cand_chunks.append(self.cands_pool[c_lo + seg_lo:c_lo + seg_hi])
                key_chunks.append(self.keys_pool[c_lo + seg_lo:c_lo + seg_hi])
                node_ptr[k + 1] = node_ptr[k] + (hi - lo)
                edge_ptr[k + 1] = edge_ptr[k] + (seg_hi - seg_lo)
            nodes, _ = _concat_with_ptr(node_chunks, np.int32)
            sizes, _ = _concat_with_ptr(size_chunks, np.int64)
            cands, _ = _concat_with_ptr(cand_chunks, np.int32)
            keys, _ = _concat_with_ptr(key_chunks, np.uint64)
            counts = np.diff(node_ptr)
            node_slot = np.repeat(
                np.arange(num, dtype=np.int32), counts
            )
            starts = np.zeros(len(nodes), dtype=np.int64)
            if len(nodes):
                np.cumsum(sizes[:-1], out=starts[1:])
            row_of_edge = np.repeat(np.arange(len(nodes), dtype=np.int64), sizes)
            levels.append(
                _LevelSlice(
                    node_ptr=node_ptr,
                    nodes=nodes,
                    sizes=sizes,
                    edge_ptr=edge_ptr,
                    cands=cands,
                    keys=keys,
                    node_slot=node_slot,
                    starts=starts,
                    row_of_edge=row_of_edge,
                )
            )
        self._levels = levels
        return levels

    def all_slots(self) -> np.ndarray:
        """``arange(num_dests)`` — the full-batch slot vector."""
        return self._full_slots


def _registered(arena: RoutingArena) -> RoutingArena:
    registry = get_registry()
    registry.counter("routing.arena.builds").inc()
    registry.gauge("routing.arena.bytes").set(arena.nbytes)
    return arena


#: destinations per ``structure_build`` kernel call: the serial warm's
#: deadline-check stride, and small enough that a few hundred
#: destinations still spread over two threads
STRUCTURE_CHUNK = 64


@dataclasses.dataclass
class _ChunkPools:
    """One kernel call's flat pools, filled from the front."""

    order: np.ndarray   # int32
    levels: np.ndarray  # int32
    indptr: np.ndarray  # int64
    cands: np.ndarray   # int32
    keys: np.ndarray    # uint64
    #: int32[3n + 2] kernel working space, dropped once the call returns
    scratch: np.ndarray | None


class StructureBuild:
    """The batched ``structure_build`` kernel over one destination list.

    The dense ``[num_dests, n]`` class / length / row matrices are
    allocated once; each kernel call writes one chunk's rows of them in
    place and fills that chunk's pools.  :meth:`run` drives the chunks,
    on a thread pool when asked (the compiled kernels release the GIL);
    :meth:`arena` packs a finished build into a :class:`RoutingArena`
    that adopts the matrices as they are, and :meth:`views` hands out
    per-destination structures of whatever chunks finished.
    """

    def __init__(
        self,
        compiled: CompiledGraph,
        dest_ids,
        backend: str = "numpy",
    ):
        self.compiled = compiled
        self.backend, self._kernels = kernel_backends.kernels_for(backend)
        self.dest_ids = np.asarray(dest_ids, dtype=np.int32)
        num, n = len(self.dest_ids), compiled.n
        self.cls = np.empty((num, n), dtype=np.int8)
        self.lengths = np.empty((num, n), dtype=np.int32)
        self.row_of = np.empty((num, n), dtype=np.int32)
        #: per destination: (reachable rows, level starts, candidates)
        self.counts = np.zeros((num, 3), dtype=np.int64)
        self.chunks = [
            (lo, min(lo + STRUCTURE_CHUNK, num))
            for lo in range(0, num, STRUCTURE_CHUNK)
        ]
        #: finished chunk start -> its pools
        self.done: dict[int, _ChunkPools] = {}
        self._per_dest = kernel_backends.structure_capacity(
            1, n, compiled.cust_indptr, compiled.peer_indptr, compiled.prov_indptr
        )

    @property
    def complete(self) -> bool:
        """True once every chunk has been built."""
        return len(self.done) == len(self.chunks)

    def num_built(self) -> int:
        """Destinations in finished chunks."""
        return sum(hi - lo for lo, hi in self.chunks if lo in self.done)

    def _allocate(self, lo: int, hi: int) -> _ChunkPools:
        """Pools for slots ``[lo, hi)``, sized so no destination overflows.

        Called on the dispatching thread: buffers malloc'd on a pool
        thread come from a per-thread heap that stays resident after
        the build.
        """
        order_cap, level_cap, indptr_cap, cand_cap = (
            (hi - lo) * cap for cap in self._per_dest
        )
        return _ChunkPools(
            order=np.empty(order_cap, dtype=np.int32),
            levels=np.empty(level_cap, dtype=np.int32),
            indptr=np.empty(indptr_cap, dtype=np.int64),
            cands=np.empty(cand_cap, dtype=np.int32),
            keys=np.empty(cand_cap, dtype=np.uint64),
            scratch=np.empty(3 * self.compiled.n + 2, dtype=np.int32),
        )

    def build_chunk(self, lo: int, hi: int, pools: _ChunkPools) -> _ChunkPools:
        """One kernel call for slots ``[lo, hi)`` into ``pools``.

        Touches only those rows of the shared matrices, so disjoint
        chunks may run on concurrent threads.
        """
        cg = self.compiled
        self._kernels.structure_build(
            self.dest_ids[lo:hi],
            cg.cust_indptr, cg.cust_idx,
            cg.peer_indptr, cg.peer_idx,
            cg.prov_indptr, cg.prov_idx,
            self.cls[lo:hi], self.lengths[lo:hi], self.row_of[lo:hi],
            pools.order, pools.levels, pools.indptr, pools.cands, pools.keys,
            self.counts[lo:hi], pools.scratch,
        )
        pools.scratch = None
        return pools

    def run(self, workers: int = 1, check: Callable[[], None] | None = None) -> None:
        """Build every unfinished chunk, ``workers`` at a time.

        ``check`` runs in this thread before each chunk is dispatched.
        If it raises (an expired deadline), dispatch stops, the chunks
        in flight finish, and the exception propagates with every
        finished chunk recorded in :attr:`done`.
        """
        todo = [(lo, hi) for lo, hi in self.chunks if lo not in self.done]
        if workers <= 1 or len(todo) <= 1:
            for lo, hi in todo:
                if check is not None:
                    check()
                self.done[lo] = self.build_chunk(lo, hi, self._allocate(lo, hi))
            return
        from concurrent.futures import ThreadPoolExecutor

        # Leaving the with-block joins the threads, so none outlives the
        # build into a later fork (the numpy tier's warm forks workers).
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="structure-build"
        ) as pool:
            inflight: deque[tuple[int, Future[_ChunkPools]]] = deque()
            try:
                for lo, hi in todo:
                    if len(inflight) >= workers:
                        self._collect(*inflight.popleft())
                    if check is not None:
                        check()
                    inflight.append((lo, pool.submit(
                        self.build_chunk, lo, hi, self._allocate(lo, hi)
                    )))
            finally:
                while inflight:
                    self._collect(*inflight.popleft())

    def _collect(self, lo: int, future: Future[_ChunkPools]) -> None:
        self.done[lo] = future.result()

    def _ptrs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Offset tables of the order / level / indptr / cands pools."""
        reach, levels, nnz = self.counts.T
        ptrs = np.zeros((4, len(self.dest_ids) + 1), dtype=np.int64)
        np.cumsum([reach, levels, reach + 1, nnz], axis=1, out=ptrs[:, 1:])
        return ptrs[0], ptrs[1], ptrs[2], ptrs[3]

    def arena(self, policy: str = "security_3rd") -> RoutingArena:
        """Pack a complete build: the matrices as they are, pools joined."""
        if not self.complete:
            raise RuntimeError("structure build is not complete")
        order_ptr, level_ptr, indptr_ptr, cand_ptr = self._ptrs()

        def pool(field: str, ptr: np.ndarray, dtype) -> np.ndarray:
            parts = [
                getattr(self.done[lo], field)[:ptr[hi] - ptr[lo]]
                for lo, hi in self.chunks
            ]
            return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

        return _registered(RoutingArena(
            self.compiled.n,
            {
                "dest_ids": self.dest_ids,
                "cls": self.cls,
                "lengths": self.lengths,
                "row_of": self.row_of,
                "order_ptr": order_ptr,
                "order_pool": pool("order", order_ptr, np.int32),
                "level_ptr": level_ptr,
                "level_pool": pool("levels", level_ptr, np.int32),
                "indptr_ptr": indptr_ptr,
                "indptr_pool": pool("indptr", indptr_ptr, np.int64),
                "cand_ptr": cand_ptr,
                "cands_pool": pool("cands", cand_ptr, np.int32),
                "keys_pool": pool("keys", cand_ptr, np.uint64),
            },
            policy=policy,
            backend=self.backend,
        ))

    def views(self) -> list[DestRouting]:
        """Zero-copy structures of every finished chunk, in slot order."""
        order_ptr, level_ptr, indptr_ptr, cand_ptr = self._ptrs()
        out: list[DestRouting] = []
        for lo, hi in self.chunks:
            part = self.done.get(lo)
            if part is None:
                continue
            for k in range(lo, hi):
                o = order_ptr[k] - order_ptr[lo]
                lv = level_ptr[k] - level_ptr[lo]
                i = indptr_ptr[k] - indptr_ptr[lo]
                c = cand_ptr[k] - cand_ptr[lo]
                reach, levels, nnz = self.counts[k]
                out.append(DestRouting(
                    dest=int(self.dest_ids[k]),
                    cls=self.cls[k],
                    lengths=self.lengths[k],
                    order=part.order[o:o + reach],
                    row_of=self.row_of[k],
                    level_starts=part.levels[lv:lv + levels],
                    indptr=part.indptr[i:i + reach + 1],
                    cands=part.cands[c:c + nnz],
                    _tie_keys=part.keys[c:c + nnz],
                ))
        return out


def compute_trees_batched(
    arena: RoutingArena,
    slots: np.ndarray,
    node_secure: np.ndarray,
    breaks_ties: np.ndarray,
) -> BatchedTrees:
    """Resolve the routing trees of many destinations in one pass.

    Bit-identical to calling
    :func:`~repro.routing.fast_tree.compute_tree` per destination
    (asserted by the differential suite in
    ``tests/routing/test_arena.py``).  Dispatches through the arena's
    kernel backend (:mod:`repro.routing.backends`): a loop tier's
    ``trees_slots`` resolves the whole slot list in one call, walking
    each destination's own pool segments; ``numpy`` stacks the segments
    of every batched destination level by level (the lazily built
    level-major mirror) and resolves each global level with one set of
    numpy segment operations.  All backends are bit-identical (asserted
    by ``tests/routing/test_backends.py`` and
    ``tests/routing/test_resolve_slots.py``).
    """
    slots = np.ascontiguousarray(slots, dtype=np.int64)
    B = len(slots)
    n = arena.graph_n
    node_secure = np.ascontiguousarray(node_secure, dtype=bool)
    breaks_ties = np.ascontiguousarray(breaks_ties, dtype=bool)
    choice = np.full((B, n), -1, dtype=np.int32)
    secure = np.zeros((B, n), dtype=bool)
    any_secure = np.zeros((B, n), dtype=bool)
    dest_ids = arena.dest_ids[slots]
    secure[np.arange(B), dest_ids] = node_secure[dest_ids]

    backend, kernels = kernel_backends.kernels_for(arena.backend)
    registry = get_registry()
    if registry.enabled:
        registry.counter("routing.batched.calls").inc()
        registry.counter("routing.batched.trees").inc(B)
        registry.counter(f"routing.backend.calls.{backend}").inc()

    if hasattr(kernels, "trees_slots"):
        kernels.trees_slots(
            slots, arena.order_ptr, arena.order_pool, arena.level_ptr,
            arena.level_pool, arena.indptr_ptr, arena.indptr_pool,
            arena.cand_ptr, arena.cands_pool, arena.keys_pool,
            node_secure, breaks_ties, choice, secure, any_secure,
        )
    else:
        _trees_stacked(arena, slots, kernels, node_secure, breaks_ties,
                       choice, secure, any_secure)

    return BatchedTrees(
        dest_ids=dest_ids,
        slots=slots,
        choice=choice,
        secure=secure,
        any_secure=any_secure,
    )


def _trees_stacked(arena, slots, kernels, node_secure, breaks_ties,
                   choice, secure, any_secure) -> None:
    """The numpy tier: resolve ``slots`` one stacked global level at a time.

    The full slot set reads the level-major stacks as built; a subset
    gathers its segments out of them.
    """
    B = len(slots)
    full = B == arena.num_dests and np.array_equal(slots, arena.all_slots())
    for lvl in arena._level_major():
        if full:
            nodes, sizes = lvl.nodes, lvl.sizes
            cands, keys = lvl.cands, lvl.keys
            node_b = lvl.node_slot
            starts, row_of_edge = lvl.starts, lvl.row_of_edge
        else:
            nodes = gather_neighbors(lvl.node_ptr, lvl.nodes, slots)
            if not len(nodes):
                continue
            sizes = gather_neighbors(lvl.node_ptr, lvl.sizes, slots)
            cands = gather_neighbors(lvl.edge_ptr, lvl.cands, slots)
            keys = gather_neighbors(lvl.edge_ptr, lvl.keys, slots)
            counts = lvl.node_ptr[slots + 1] - lvl.node_ptr[slots]
            node_b = np.repeat(np.arange(B, dtype=np.int32), counts)
            starts = np.zeros(len(nodes), dtype=np.int64)
            np.cumsum(sizes[:-1], out=starts[1:])
            row_of_edge = np.repeat(np.arange(len(nodes), dtype=np.int64), sizes)
        if not len(nodes):
            continue

        kernels.trees_level(
            nodes, sizes, starts, row_of_edge, cands, keys, node_b,
            node_secure, breaks_ties, choice, secure, any_secure,
        )


def subtree_weights_batched(
    arena: RoutingArena,
    slots: np.ndarray,
    choice: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Batched :func:`~repro.routing.fast_tree.subtree_weights`.

    ``choice`` is the ``[B, n]`` matrix from
    :func:`compute_trees_batched`; returns the matching ``[B, n]``
    float64 subtree-weight matrix (row ``i`` excludes node weights of
    the nodes themselves, exactly like the per-destination kernel).
    Dispatches like :func:`compute_trees_batched`: one
    ``weights_slots`` call on a loop tier, deepest global level first
    on numpy.
    """
    slots = np.ascontiguousarray(slots, dtype=np.int64)
    B = len(slots)
    n = arena.graph_n
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    choice = np.ascontiguousarray(choice, dtype=np.int32)
    w = np.zeros((B, n), dtype=np.float64)
    backend, kernels = kernel_backends.kernels_for(arena.backend)
    registry = get_registry()
    if registry.enabled:
        registry.counter(f"routing.backend.calls.{backend}").inc()
    if hasattr(kernels, "weights_slots"):
        kernels.weights_slots(
            slots, arena.order_ptr, arena.order_pool, arena.level_ptr,
            arena.level_pool, choice, weights, w,
        )
        return w
    full = B == arena.num_dests and np.array_equal(slots, arena.all_slots())
    for lvl in reversed(arena._level_major()):
        if full:
            nodes, node_b = lvl.nodes, lvl.node_slot
        else:
            nodes = gather_neighbors(lvl.node_ptr, lvl.nodes, slots)
            if not len(nodes):
                continue
            counts = lvl.node_ptr[slots + 1] - lvl.node_ptr[slots]
            node_b = np.repeat(np.arange(B, dtype=np.int32), counts)
        if not len(nodes):
            continue
        kernels.weights_level(nodes, node_b, choice, weights, w)
    return w
