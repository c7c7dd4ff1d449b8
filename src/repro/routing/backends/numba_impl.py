"""Numba backend: ``@njit``-compiled level loops over the flat pools.

Importing this module is the load step: it JIT-compiles the loop
bodies from :mod:`repro.routing.backends._loops` and warms them on
tiny, dtype-exact inputs so the first *real* kernel call never pays
compilation latency.  ``cache=True`` persists the machine code next to
the package, so warm processes (and the process-pool workers, which
import this module independently) hit the on-disk cache instead of
recompiling — the registry's ``routing.backend.compile_seconds``
histogram makes the difference visible.

Numba is an optional dependency (the ``compiled`` extra); when it is
missing the import below raises ``ImportError`` and the registry
degrades the caller to numpy through the ``compiled_to_numpy`` ladder
rung.  A typing error while warming is re-raised as ``RuntimeError``,
which the registry degrades the same way.
"""

from __future__ import annotations

import numpy as np
from numba import njit  # ImportError here == backend unavailable
from numba.core.errors import NumbaError

from repro.routing.backends import _loops

_jit = njit(cache=True, fastmath=False, nogil=True)

# structure_build calls _tie_keys_block through _loops' module globals,
# so the helper is rebound to its Dispatcher first (see the sweeps below).
# It is the one kernel _warm_up leaves out: it compiles on first call,
# so a typing error there cannot degrade the other four.  The registry
# spec leaves ``structure_warm`` off for this tier, so only a direct
# StructureBuild (the parity tests) reaches it.
if not hasattr(_loops._tie_keys_block, "py_func"):
    _loops._tie_keys_block = _jit(_loops._tie_keys_block)
structure_build = _jit(_loops.structure_build)
trees_slots = _jit(_loops.trees_slots)
weights_slots = _jit(_loops.weights_slots)
# fixpoint_sweep calls _edge_key through _loops' module globals (and
# attack_sweep calls _attack_edge_key the same way), so the helpers must
# be rebound to their Dispatchers *in that namespace* before the sweeps
# are compiled (a Dispatcher is still a callable, so the pure "python"
# backend keeps working — marginally faster, identical bits).
if not hasattr(_loops._edge_key, "py_func"):
    _loops._edge_key = _jit(_loops._edge_key)
if not hasattr(_loops._attack_edge_key, "py_func"):
    _loops._attack_edge_key = _jit(_loops._attack_edge_key)
fixpoint_sweep = _jit(_loops.fixpoint_sweep)
attack_sweep = _jit(_loops.attack_sweep)


def _warm_up() -> None:
    """Compile the slot and sweep kernels on minimal dtype-exact inputs."""
    n = 2
    # one slot: destination 0, row 1 (node 1) at level 1 choosing node 0
    slots = np.zeros(1, dtype=np.int64)
    order_ptr = np.array([0, 2], dtype=np.int64)
    order_pool = np.array([0, 1], dtype=np.int32)
    level_ptr = np.array([0, 3], dtype=np.int64)
    level_pool = np.array([0, 1, 2], dtype=np.int32)
    indptr_ptr = np.array([0, 3], dtype=np.int64)
    indptr_pool = np.array([0, 0, 1], dtype=np.int64)
    cand_ptr = np.array([0, 1], dtype=np.int64)
    cands_pool = np.zeros(1, dtype=np.int32)
    keys_pool = np.zeros(1, dtype=np.uint64)
    node_secure = np.zeros(n, dtype=np.bool_)
    breaks_ties = np.zeros(n, dtype=np.bool_)
    choice = np.full((1, n), -1, dtype=np.int32)
    secure = np.zeros((1, n), dtype=np.bool_)
    any_secure = np.zeros((1, n), dtype=np.bool_)
    trees_slots(slots, order_ptr, order_pool, level_ptr, level_pool,
                indptr_ptr, indptr_pool, cand_ptr, cands_pool, keys_pool,
                node_secure, breaks_ties, choice, secure, any_secure)

    w = np.zeros((1, n), dtype=np.float64)
    node_weights = np.zeros(n, dtype=np.float64)
    weights_slots(slots, order_ptr, order_pool, level_ptr, level_pool,
                  choice, node_weights, w)

    u = np.zeros(1, dtype=np.int32)
    v = np.ones(1, dtype=np.int32)
    route_cls = np.full(1, 2, dtype=np.int8)
    seg_starts = np.zeros(1, dtype=np.int64)
    seg_sizes = np.ones(1, dtype=np.int64)
    seg_u = np.zeros(1, dtype=np.int32)
    tie_key = np.zeros(1, dtype=np.uint64)
    lp_field = np.zeros(1, dtype=np.uint32)
    is_provider_edge = np.zeros(1, dtype=np.bool_)
    rank_codes = np.array([0, 1, 2], dtype=np.int64)
    rank_widths = np.array([2, 21, 1], dtype=np.uint32)
    cls = np.full((1, n), -1, dtype=np.int8)
    length = np.full((1, n), -1, dtype=np.int32)
    sec = np.zeros((1, n), dtype=np.bool_)
    applies_edge = np.zeros(1, dtype=np.bool_)
    new_cls = np.full((1, n), -1, dtype=np.int8)
    new_len = np.full((1, n), -1, dtype=np.int32)
    new_sec = np.zeros((1, n), dtype=np.bool_)
    tied = np.zeros((1, 1), dtype=np.bool_)
    fixpoint_sweep(u, v, route_cls, seg_starts, seg_sizes, seg_u, tie_key,
                   lp_field, is_provider_edge, rank_codes, rank_widths,
                   cls, length, sec, applies_edge, node_secure,
                   new_cls, new_len, new_sec, tied)

    attacker = np.ones(1, dtype=np.int64)
    gullible_edge = np.zeros(1, dtype=np.bool_)
    validators = np.zeros(n, dtype=np.bool_)
    att = np.zeros((1, n), dtype=np.bool_)
    new_att = np.zeros((1, n), dtype=np.bool_)
    attack_sweep(u, v, route_cls, seg_starts, seg_sizes, seg_u, tie_key,
                 lp_field, is_provider_edge, rank_codes, rank_widths,
                 attacker, gullible_edge, validators, False, False,
                 cls, length, sec, att, applies_edge, node_secure,
                 new_cls, new_len, new_sec, new_att)


try:
    _warm_up()
except NumbaError as exc:  # the registry degrades RuntimeError, not this
    raise RuntimeError(f"numba kernels failed to compile: {exc}") from exc
