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
destinations (:class:`_LevelMajor`, a level-major mirror of the pools
built once, lazily and only on this tier), so the Python-level loop
runs over the handful of **global** levels instead of
``n_dests x n_levels``.  Each call first makes its *plan*, the
per-level kernel inputs for its slot list (:meth:`RoutingArena._plan`):
views of the mirror for the full slot set, one gather over all levels
for any other list.  The plan addresses the ``[B, n]`` output matrices
by flat ``row * n + node`` indices, so the kernels index one flat view
instead of pairing row and column vectors.  Candidates always sit one
level below their row's node, so interleaving destinations within a
level is safe — each destination still sees its own already-resolved
previous level.

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
import functools
from collections import deque
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.routing import backends as kernel_backends
from repro.routing.compiled import CompiledGraph, segment_positions
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


#: one global level of a batch, as the numpy kernels take it: ``nodes``
#: (int32), ``node_flat`` (``row * n + node``), ``starts`` (each node's
#: first edge), ``row_of_edge`` (each edge's node), ``keys`` (uint64
#: tie-break keys) and ``edge_flat`` (``row * n + candidate``), where
#: ``row`` is the batch row; ``starts`` / ``row_of_edge`` count from
#: the level's first edge / node.  Weights plans carry only the first
#: two fields.
_LevelPlan = tuple[np.ndarray, ...]


@dataclasses.dataclass
class _LevelMajor:
    """The numpy tier's level-major mirror of the pools.

    Every field is one stack over all global levels (level 1 first,
    slots in order within a level).  ``ptr[0, l, k]:ptr[0, l, k+1]`` is
    slot ``k``'s segment of global level ``l + 1`` in the node stacks
    and ``ptr[1]`` the same for the edge stacks, so level ``l`` is
    ``ptr[0, l, 0]:ptr[0, l, -1]``.  The flat indices address the
    ``[num_dests, n]`` matrices of a full-set batch (batch row = slot);
    a subset shifts them to its own rows.  Candidates are not stored:
    ``edge_flat - slot * n`` gives them back.
    """

    ptr: np.ndarray          # int64[2, num_levels, num_dests + 1]
    nodes: np.ndarray        # int32; global node id per stacked node
    node_flat: np.ndarray    # int64; slot * n + node
    starts: np.ndarray       # int64; first edge per node, level-relative
    row_of_edge: np.ndarray  # int32; node per edge, level-relative
    keys: np.ndarray         # uint64; tie-break key per stacked edge
    edge_flat: np.ndarray    # int64; slot * n + candidate

    @property
    def num_levels(self) -> int:
        return self.ptr.shape[1]

    @property
    def nbytes(self) -> int:
        return sum(
            getattr(self, f.name).nbytes for f in dataclasses.fields(self)
        )

    @functools.cached_property
    def full_plan(self) -> list[_LevelPlan]:
        """Per-level views of the stacks: the plan of the full slot set."""
        (lo, e_lo), (hi, e_hi) = self.ptr[:, :, 0], self.ptr[:, :, -1]
        return [
            (self.nodes[a:b], self.node_flat[a:b], self.starts[a:b],
             self.row_of_edge[c:d], self.keys[c:d], self.edge_flat[c:d])
            for a, b, c, d in zip(lo, hi, e_lo, e_hi)
        ]


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
        self._mirror: _LevelMajor | None = None
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
        backend: str = "numpy",
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
        worst case).  When ``backend`` resolves to the numpy tier the
        forecast also counts the level-major mirror that tier builds on
        its first batched call and keeps for the arena's lifetime; the
        loop tiers resolve straight from the pools and never build it.
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
        _, kernels = kernel_backends.kernels_for(backend)
        if not hasattr(kernels, "trees_slots"):
            # nodes int32 + node_flat/starts int64 per reachable node,
            # row_of_edge int32 + keys/edge_flat 64-bit per candidate,
            # plus the two int64[24, num_dests + 1] level tables (24
            # levels matches the level_pool allowance above).  The
            # tables are what grows with num_dests alone, so at paper
            # scale (36K dests) they are no longer noise — re-validated
            # at N=36964 by tests/runtime/test_guard_chaos.py.
            total += reach * (4 + 8 + 8) + cands * (4 + 8 + 8)
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

    def _level_major(self) -> _LevelMajor:
        """Build (once) the level-major mirror of the pools.

        Only the numpy tier reads it; the loop tiers resolve straight
        from the pools.  One vectorised pass: every (slot, level >= 1)
        segment, ordered by level and then slot, gathered from the pools.
        """
        if self._mirror is not None:
            return self._mirror
        num, n = self.num_dests, self.graph_n
        # one segment per (level >= 1, slot reaching it), level-major;
        # level 0 is the destination itself and needs no resolving, and
        # seg_level counts from 0 at level 1
        per_slot = np.diff(self.level_ptr) - 2
        num_levels = max(int(per_slot.max()), 0) if num else 0
        reached = np.arange(num_levels)[:, None] < per_slot
        seg_level, seg_slot = np.nonzero(reached)
        first = self.level_ptr[seg_slot] + seg_level + 1
        row_lo = self.level_pool[first].astype(np.int64)
        node_len = self.level_pool[first + 1] - row_lo
        i_lo = self.indptr_ptr[seg_slot] + row_lo
        edge_lo = self.indptr_pool[i_lo]
        edge_len = self.indptr_pool[i_lo + node_len] - edge_lo
        # [2, num_levels, num + 1] node / edge offsets of the segments
        counts = np.zeros((2, reached.size + 1), dtype=np.int64)
        counts[:, 1 + np.flatnonzero(reached)] = node_len, edge_len
        ptr = np.cumsum(counts, axis=1)[
            :, np.arange(num_levels)[:, None] * num + np.arange(num + 1)
        ]
        node_level_lo, edge_level_lo = ptr[:, :, 0]

        o_lo = self.order_ptr[seg_slot] + row_lo
        nodes = self.order_pool[segment_positions(o_lo, node_len)]
        node_flat = np.repeat(seg_slot * n, node_len)
        node_flat += nodes
        ip = segment_positions(i_lo, node_len)
        sizes = self.indptr_pool[ip + 1] - self.indptr_pool[ip]
        del ip
        # each node's first edge, and each edge's node, counted from the
        # start of the node's level
        level_of_node = np.repeat(seg_level, node_len)
        starts = np.cumsum(sizes)
        starts -= sizes
        starts -= edge_level_lo[level_of_node]
        row = np.arange(len(nodes), dtype=np.int64)
        row -= node_level_lo[level_of_node]
        del level_of_node
        row_of_edge = np.repeat(row.astype(np.int32), sizes)
        del row, sizes
        edges = segment_positions(edge_lo + self.cand_ptr[seg_slot], edge_len)
        keys = self.keys_pool[edges]
        edge_flat = np.repeat(seg_slot * n, edge_len)
        edge_flat += self.cands_pool[edges]
        self._mirror = _LevelMajor(
            ptr=ptr,
            nodes=nodes,
            node_flat=node_flat,
            starts=starts,
            row_of_edge=row_of_edge,
            keys=keys,
            edge_flat=edge_flat,
        )
        return self._mirror

    def _plan(self, slots: np.ndarray, edges: bool = True) -> list[_LevelPlan]:
        """The numpy kernels' per-level inputs for batch ``slots``.

        The full slot set gets views of the mirror.  Any other slot list
        (unsorted, repeated, a permutation, a chunk) is gathered out of
        the mirror in one pass over all levels, then sliced per level;
        its flat indices move from slot rows to batch rows.  ``edges``
        False leaves out what only the tree resolve reads.
        """
        mirror = self._level_major()
        B = len(slots)
        if B == self.num_dests and np.array_equal(slots, self._full_slots):
            plan = mirror.full_plan
            return plan if edges else [level[:2] for level in plan]
        if not B or not mirror.num_levels:
            return []
        n = self.graph_n
        # [T, L, B] segments: nodes, then (for trees) edges
        ptr = mirror.ptr if edges else mirror.ptr[:1]
        seg_lo = ptr[:, :, slots]
        length = ptr[:, :, slots + 1] - seg_lo
        counts = length.ravel()
        pos = segment_positions(seg_lo.ravel(), counts)
        # flat indices move from slot rows to batch rows
        seg_shift = np.empty_like(length)
        seg_shift[...] = (np.arange(B) - slots) * n
        row_shift = np.repeat(seg_shift.ravel(), counts)
        bounds = np.zeros((len(ptr), mirror.num_levels + 1), dtype=np.int64)
        np.cumsum(length.sum(axis=2), axis=1, out=bounds[:, 1:])
        split = int(bounds[0, -1])
        idx = pos[:split]
        nodes = mirror.nodes.take(idx)
        node_flat = mirror.node_flat.take(idx) + row_shift[:split]
        node_bounds = bounds[0].tolist()
        if not edges:
            return [
                (nodes[lo:hi], node_flat[lo:hi])
                for lo, hi in zip(node_bounds[:-1], node_bounds[1:]) if hi > lo
            ]
        eidx = pos[split:]
        # each segment's level-relative start in the batch minus that in
        # the mirror: edge shifts move ``starts``, node shifts ``row_of_edge``
        shift = np.cumsum(length, axis=2) - length - (seg_lo - ptr[:, :, :1])
        shift = np.repeat(shift[::-1].ravel(), counts)
        starts = mirror.starts.take(idx) + shift[:split]
        row_of_edge = mirror.row_of_edge.take(eidx) + shift[split:]
        keys = mirror.keys.take(eidx)
        edge_flat = mirror.edge_flat.take(eidx) + row_shift[split:]
        edge_bounds = bounds[1].tolist()
        return [
            (nodes[lo:hi], node_flat[lo:hi], starts[lo:hi],
             row_of_edge[e_lo:e_hi], keys[e_lo:e_hi], edge_flat[e_lo:e_hi])
            for lo, hi, e_lo, e_hi in zip(
                node_bounds[:-1], node_bounds[1:], edge_bounds[:-1], edge_bounds[1:]
            )
            if hi > lo
        ]

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
    each destination's own pool segments; ``numpy`` makes the call's
    plan (:meth:`RoutingArena._plan`, over the lazily built level-major
    mirror) and resolves each global level of it with one set of numpy
    segment operations.  All backends are bit-identical (asserted
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
        for level in arena._plan(slots):
            kernels.trees_level(
                *level, node_secure, breaks_ties, choice, secure, any_secure
            )

    return BatchedTrees(
        dest_ids=dest_ids,
        slots=slots,
        choice=choice,
        secure=secure,
        any_secure=any_secure,
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
    for nodes, node_flat in reversed(arena._plan(slots, edges=False)):
        kernels.weights_level(nodes, node_flat, choice, weights, w)
    return w
