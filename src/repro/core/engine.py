"""Per-round routing state and utilities (the Map-Reduce of App. C.3).

For a deployment state ``S`` the engine resolves the routing tree of
every destination (the *map* step, optionally parallelised across
destinations) and reduces the per-destination subtrees into the
outgoing / incoming utility of every AS (Section 3.3):

- outgoing (Eq. 1): ``u_n = sum over destinations d that n reaches via
  a customer edge of the weight of n's subtree in d's routing tree``;
- incoming (Eq. 2): ``u_n = sum over all destinations of the weights of
  the subtrees hanging off n via customer edges``.

The per-destination results are retained for the round so that the
projection engine can compute deltas against them.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.config import UtilityModel
from repro.core.state import DeploymentState, StateDeriver
from repro.routing.arena import (
    BatchedTrees,
    RoutingArena,
    compute_trees_batched,
    subtree_weights_batched,
)
from repro.routing.cache import RoutingCache
from repro.routing.fast_tree import RoutingTree  # noqa: F401  (re-export)
from repro.routing.policy import RouteClass
from repro.routing.tree import DestRouting
from repro.runtime.guard import current_guard

_CUSTOMER = int(RouteClass.CUSTOMER)
_PROVIDER = int(RouteClass.PROVIDER)

#: Per-``(dest, node)`` bytes of the batched kernels' working set:
#: ``choice`` int32 + ``secure``/``any_secure`` bool outputs, the
#: float64 subtree weights, and roughly one int32 of scratch.
_KERNEL_ROW_BYTES_PER_NODE = 18

#: The numpy (vectorised) kernels additionally materialise a float64
#: ``bincount`` temporary per weights level, so their working set is
#: one float64 per ``(dest, node)`` larger than the compiled loops'.
_NUMPY_EXTRA_ROW_BYTES_PER_NODE = 8


def _kernel_row_bytes(backend: str) -> int:
    """Per-(dest, node) working-set bytes for the named backend.

    Planning only — probes instead of resolving so an unusable compiled
    backend does not burn a ladder rung here *and* at the kernel call.
    An unusable (or unknown) backend plans with the numpy working set,
    which is the conservative (larger) forecast.
    """
    from repro.routing import backends as kernel_backends

    try:
        spec = kernel_backends.get_backend(backend)
    except ValueError:
        spec = None
    if spec is not None and spec.compiled and kernel_backends.probe(spec.name):
        return _KERNEL_ROW_BYTES_PER_NODE
    return _KERNEL_ROW_BYTES_PER_NODE + _NUMPY_EXTRA_ROW_BYTES_PER_NODE


@dataclasses.dataclass
class DestState:
    """Resolved routing toward one destination in the current state."""

    dr: DestRouting
    tree: RoutingTree
    weights: np.ndarray  # subtree weight per node (excluding the node)
    _children: tuple[np.ndarray, np.ndarray] | None = None

    def children(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR (indptr, idx): children of each node in the routing tree."""
        if self._children is None:
            choice = self.tree.choice
            n = len(choice)
            valid = np.flatnonzero(choice >= 0)
            parents = choice[valid]
            counts = np.bincount(parents, minlength=n)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            order = np.argsort(parents, kind="stable")
            self._children = (indptr, valid[order].astype(np.int32))
        return self._children

    def children_of(self, node: int) -> np.ndarray:
        """Nodes whose next hop is ``node``."""
        indptr, idx = self.children()
        return idx[indptr[node]:indptr[node + 1]]


def outgoing_contribution(ds: DestState, node: int) -> float:
    """Contribution of this destination to ``node``'s outgoing utility."""
    if ds.dr.cls[node] != _CUSTOMER:
        return 0.0
    return float(ds.weights[node])


def incoming_contribution(ds: DestState, node: int, node_weights: np.ndarray) -> float:
    """Contribution of this destination to ``node``'s incoming utility."""
    kids = ds.children_of(node)
    if not len(kids):
        return 0.0
    customer_kids = kids[ds.dr.cls[kids] == _PROVIDER]
    if not len(customer_kids):
        return 0.0
    return float((ds.weights[customer_kids] + node_weights[customer_kids]).sum())


@dataclasses.dataclass
class RoundData:
    """Everything the decision rule needs about the current round."""

    state: DeploymentState
    node_secure: np.ndarray
    breaks_ties: np.ndarray
    dest_states: list[DestState]
    utilities: np.ndarray          # per node, under the configured model
    sec_matrix: np.ndarray         # bool [num_dests, n]: source path security
    any_sec_matrix: np.ndarray     # bool [num_dests, n]: secure tiebreak cand.
    secure_dest_positions: np.ndarray  # positions k with a secure destination

    def dest_state(self, pos: int) -> DestState:
        """Per-destination state by position in the cache's dest list."""
        return self.dest_states[pos]


def compute_round_data(
    cache: RoutingCache,
    deriver: StateDeriver,
    state: DeploymentState,
    model: UtilityModel,
) -> RoundData:
    """Resolve all routing trees and utilities for ``state``.

    Runs on the pooled :class:`~repro.routing.arena.RoutingArena`
    (built on first use): every destination's tree is resolved by the
    batched kernel in one call, and the security/candidate matrices are
    the kernel's output buffers — no per-destination copies.
    """
    graph = cache.graph
    node_secure = deriver.node_secure(state)
    breaks = deriver.breaks_ties(node_secure)
    w = graph.weights

    # no-op for state-independent policies; rebuilds every structure
    # under (node_secure, breaks) for security_1st / security_2nd
    cache.ensure_state(node_secure, breaks)
    arena = cache.ensure_arena()
    slots = arena.all_slots()
    chunk_rows = current_guard().plan_batch_rows(
        arena.num_dests, _kernel_row_bytes(arena.backend) * graph.n,
        what="round kernel",
    )
    if chunk_rows >= arena.num_dests:
        bt = compute_trees_batched(arena, slots, node_secure, breaks)
        w2d = subtree_weights_batched(arena, slots, bt.choice, w)
    else:
        bt, w2d = _chunked_round_kernels(
            arena, slots, node_secure, breaks, w, chunk_rows
        )
    dest_states = [
        DestState(dr=cache.dest_routing(dest), tree=bt.tree(k), weights=w2d[k])
        for k, dest in enumerate(cache.destinations)
    ]
    utilities = _batched_utilities(arena, bt, w2d, w, model)

    secure_positions = np.flatnonzero(
        node_secure[np.asarray(cache.destinations, dtype=np.int64)]
    )
    return RoundData(
        state=state,
        node_secure=node_secure,
        breaks_ties=breaks,
        dest_states=dest_states,
        utilities=utilities,
        sec_matrix=bt.secure,
        any_sec_matrix=bt.any_secure,
        secure_dest_positions=secure_positions,
    )


def _chunked_round_kernels(
    arena: RoutingArena,
    slots: np.ndarray,
    node_secure: np.ndarray,
    breaks: np.ndarray,
    weights: np.ndarray,
    chunk_rows: int,
) -> tuple[BatchedTrees, np.ndarray]:
    """Run the round kernels over destination chunks (degraded mode).

    The ``chunked_batches`` ladder rung: instead of resolving every
    destination in one stacked pass, the kernels run over ``chunk_rows``
    slots at a time, bounding the transient per-level gather/scratch
    arrays by the chunk size.  The ``[num_dests, n]`` output matrices
    are still materialised (every downstream consumer needs them), and
    because the kernels are independent per destination the stitched
    outputs are bit-identical to the full-batch pass — degraded runs
    stay exact, just slower.
    """
    num = arena.num_dests
    n = arena.graph_n
    choice = np.empty((num, n), dtype=np.int32)
    secure = np.empty((num, n), dtype=bool)
    any_secure = np.empty((num, n), dtype=bool)
    w2d = np.empty((num, n), dtype=np.float64)
    for lo in range(0, num, chunk_rows):
        hi = min(lo + chunk_rows, num)
        sub = slots[lo:hi]
        part = compute_trees_batched(arena, sub, node_secure, breaks)
        choice[lo:hi] = part.choice
        secure[lo:hi] = part.secure
        any_secure[lo:hi] = part.any_secure
        w2d[lo:hi] = subtree_weights_batched(arena, sub, part.choice, weights)
    bt = BatchedTrees(
        dest_ids=arena.dest_ids[slots],
        slots=slots,
        choice=choice,
        secure=secure,
        any_secure=any_secure,
    )
    return bt, w2d


def _batched_utilities(
    arena: RoutingArena,
    bt: BatchedTrees,
    w2d: np.ndarray,
    node_weights: np.ndarray,
    model: UtilityModel,
) -> np.ndarray:
    """Reduce the ``[num_dests, n]`` subtree weights into per-AS utility."""
    n = arena.graph_n
    cls2d = arena.cls
    if model is UtilityModel.OUTGOING:
        return np.where(cls2d == _CUSTOMER, w2d, 0.0).sum(axis=0)
    mask = cls2d == _PROVIDER
    if not mask.any():
        return np.zeros(n, dtype=np.float64)
    _, src_nodes = np.nonzero(mask)
    return np.bincount(
        bt.choice[mask],
        weights=w2d[mask] + node_weights[src_nodes],
        minlength=n,
    )


def utilities_for_state(
    cache: RoutingCache,
    deriver: StateDeriver,
    state: DeploymentState,
    model: UtilityModel,
) -> np.ndarray:
    """Convenience wrapper: utilities of every AS in ``state``."""
    return compute_round_data(cache, deriver, state, model).utilities
