"""Vectorised numpy kernels — the differential ground truth.

The structure build loops over
:func:`~repro.routing.tree.compute_dest_routing`, which stays the ground
truth of every per-destination structure.  The rest are the original
level/sweep bodies of
``repro.routing.arena.compute_trees_batched``,
``repro.routing.arena.subtree_weights_batched`` and
``repro.routing.fixpoint._sweep``, moved here verbatim so every other
backend has a fixed point of comparison: the parity suite asserts
**bit-identical** outputs against this module.  Do not "improve" the
numerics here — a change to operation order is a change to the ground
truth.

The kernels share the calling convention documented in
:mod:`repro.routing.backends._loops` (same dtypes, outputs written in
place).  The one difference is the tree resolve: the loop tiers take a
whole slot list per call (``trees_slots`` / ``weights_slots``), while
numpy takes one stacked global level per call (``trees_level`` /
``weights_level``) — vectorising across destinations is what makes
numpy fast, and a per-slot walk is what makes a loop fast.
"""

from __future__ import annotations

import numpy as np

from repro.routing.compiled import CompiledGraph
from repro.routing.policy import POSITION_BITS, RouteClass
from repro.routing.tree import compute_dest_routing

_POS_MASK = np.uint64((1 << POSITION_BITS) - 1)
_BLOCKED = np.uint64(2**64 - 1)
_INVALID_A = np.uint32(0xFFFFFFFF)

_SELF = int(RouteClass.SELF)
_CUSTOMER = int(RouteClass.CUSTOMER)
_UNREACHABLE = int(RouteClass.UNREACHABLE)


def structure_build(
    dests: np.ndarray,
    cust_indptr: np.ndarray,
    cust_idx: np.ndarray,
    peer_indptr: np.ndarray,
    peer_idx: np.ndarray,
    prov_indptr: np.ndarray,
    prov_idx: np.ndarray,
    cls: np.ndarray,
    lengths: np.ndarray,
    row_of: np.ndarray,
    order: np.ndarray,
    levels: np.ndarray,
    indptr: np.ndarray,
    cands: np.ndarray,
    keys: np.ndarray,
    counts: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Build a chunk of destinations with :func:`compute_dest_routing`.

    One vectorised build per destination, copied into the chunk's rows
    and pools; ``scratch`` is unused.
    """
    cg = CompiledGraph.from_csr(
        cls.shape[1], cust_indptr, cust_idx, peer_indptr, peer_idx,
        prov_indptr, prov_idx,
    )
    o_off = l_off = i_off = c_off = 0
    for b, dest in enumerate(dests):
        # the graph itself is only read when no compiled form is given
        dr = compute_dest_routing(None, int(dest), cg)
        num_reach, num_levels, nnz = (
            len(dr.order), len(dr.level_starts), len(dr.cands)
        )
        cls[b] = dr.cls
        lengths[b] = dr.lengths
        row_of[b] = dr.row_of
        order[o_off:o_off + num_reach] = dr.order
        levels[l_off:l_off + num_levels] = dr.level_starts
        indptr[i_off:i_off + num_reach + 1] = dr.indptr
        cands[c_off:c_off + nnz] = dr.cands
        keys[c_off:c_off + nnz] = dr.tie_keys()
        counts[b] = (num_reach, num_levels, nnz)
        o_off += num_reach
        l_off += num_levels
        i_off += num_reach + 1
        c_off += nnz


def trees_level(
    nodes: np.ndarray,
    sizes: np.ndarray,
    starts: np.ndarray,
    row_of_edge: np.ndarray,
    cands: np.ndarray,
    keys: np.ndarray,
    node_b: np.ndarray,
    node_secure: np.ndarray,
    breaks_ties: np.ndarray,
    choice: np.ndarray,
    secure: np.ndarray,
    any_secure: np.ndarray,
) -> None:
    """Resolve one stacked path-length level of the batched tree kernel."""
    edge_b = node_b[row_of_edge]
    csec = secure[edge_b, cands]
    any_sec = np.logical_or.reduceat(csec, starts)
    any_secure[node_b, nodes] = any_sec
    use_sec = node_secure[nodes] & breaks_ties[nodes] & any_sec

    key = np.where(csec | ~use_sec[row_of_edge], keys, _BLOCKED)
    kmin = np.minimum.reduceat(key, starts)
    chosen = starts + (kmin & _POS_MASK).astype(np.int64)
    choice[node_b, nodes] = cands[chosen]
    secure[node_b, nodes] = node_secure[nodes] & csec[chosen]


def weights_level(
    nodes: np.ndarray,
    node_b: np.ndarray,
    choice: np.ndarray,
    node_weights: np.ndarray,
    w: np.ndarray,
) -> None:
    """Push one level's subtree weights up to the chosen parents."""
    n = w.shape[1]
    nb = node_b.astype(np.int64)
    parents = choice[nb, nodes].astype(np.int64)
    vals = w[nb, nodes] + node_weights[nodes]
    w += np.bincount(
        nb * n + parents, weights=vals, minlength=w.size
    ).reshape(w.shape)


def fixpoint_sweep(
    u: np.ndarray,
    v: np.ndarray,
    route_cls: np.ndarray,
    seg_starts: np.ndarray,
    seg_sizes: np.ndarray,
    seg_u: np.ndarray,
    tie_key: np.ndarray,
    lp_field: np.ndarray,
    is_provider_edge: np.ndarray,
    rank_codes: np.ndarray,
    rank_widths: np.ndarray,
    cls: np.ndarray,
    length: np.ndarray,
    sec: np.ndarray,
    applies_edge: np.ndarray,
    node_secure: np.ndarray,
    new_cls: np.ndarray,
    new_len: np.ndarray,
    new_sec: np.ndarray,
    tied: np.ndarray,
) -> None:
    """One synchronous best-response step over the edge table."""
    cls_v = cls[:, v]
    # GR2: across a peering or up to a provider only customer routes and
    # the origin's own prefix travel; down to a customer anything does.
    announces = (cls_v == _CUSTOMER) | (cls_v == _SELF)
    valid = (cls_v != _UNREACHABLE) & (is_provider_edge | announces)

    sp_field = (np.maximum(length[:, v], 0) + 1).astype(np.uint32)
    secp_field = 1 - (applies_edge & sec[:, v]).astype(np.uint32)
    key = np.zeros(valid.shape, dtype=np.uint32)
    for i in range(len(rank_codes)):
        code = int(rank_codes[i])
        if code == 0:
            field: np.ndarray = lp_field
        elif code == 1:
            field = sp_field
        else:
            field = secp_field
        key = (key << np.uint32(rank_widths[i])) | field
    key_a = np.where(valid, key, _INVALID_A)

    best_a = np.minimum.reduceat(key_a, seg_starts, axis=1)
    tied[:] = (key_a == np.repeat(best_a, seg_sizes, axis=1)) & (
        key_a != _INVALID_A
    )
    key_b = np.where(tied, tie_key[None, :], _BLOCKED)
    chosen = np.minimum.reduceat(key_b, seg_starts, axis=1)
    reachable = best_a != _INVALID_A
    eidx = seg_starts[None, :] + np.where(
        reachable, (chosen & _POS_MASK).astype(np.int64), 0
    )
    v_sel = v[eidx]
    sec_v = np.take_along_axis(sec, v_sel, axis=1)
    len_v = np.take_along_axis(length, v_sel, axis=1)
    new_cls[:, seg_u] = np.where(
        reachable, route_cls[eidx], np.int8(_UNREACHABLE)
    )
    new_len[:, seg_u] = np.where(reachable, len_v + 1, -1)
    new_sec[:, seg_u] = reachable & node_secure[seg_u] & sec_v


def attack_sweep(
    u: np.ndarray,
    v: np.ndarray,
    route_cls: np.ndarray,
    seg_starts: np.ndarray,
    seg_sizes: np.ndarray,
    seg_u: np.ndarray,
    tie_key: np.ndarray,
    lp_field: np.ndarray,
    is_provider_edge: np.ndarray,
    rank_codes: np.ndarray,
    rank_widths: np.ndarray,
    attacker: np.ndarray,
    gullible_edge: np.ndarray,
    validators: np.ndarray,
    leak: bool,
    drop: bool,
    cls: np.ndarray,
    length: np.ndarray,
    sec: np.ndarray,
    att: np.ndarray,
    applies_edge: np.ndarray,
    node_secure: np.ndarray,
    new_cls: np.ndarray,
    new_len: np.ndarray,
    new_sec: np.ndarray,
    new_att: np.ndarray,
) -> None:
    """One multi-origin (victim + attacker) best-response step.

    The fixpoint sweep with a per-row adversary (``attacker[row]``):
    ``att`` marks labels descending from the attacker's announcement,
    ``gullible_edge`` the provider edges where a simplex stub believes
    the attacker's word (§2.2.1), ``validators`` + ``drop`` bar
    unvalidated routes at fully-validating ASes, and ``leak`` lets
    offers *from* the attacker bypass GR2.  The caller pins the
    principals' labels after each step.
    """
    att_col = attacker[:, None]
    from_attacker = v[None, :] == att_col
    cls_v = cls[:, v]
    sec_v = sec[:, v]
    announces = (cls_v == _CUSTOMER) | (cls_v == _SELF)
    exportable = is_provider_edge | announces
    if leak:
        exportable = exportable | from_attacker
    valid = (cls_v != _UNREACHABLE) & exportable
    if drop:
        valid &= sec_v | ~validators[u][None, :]
    seen = sec_v | (gullible_edge[None, :] & from_attacker & att[:, v])

    sp_field = (np.maximum(length[:, v], 0) + 1).astype(np.uint32)
    secp_field = 1 - (applies_edge & seen).astype(np.uint32)
    key = np.zeros(valid.shape, dtype=np.uint32)
    for i in range(len(rank_codes)):
        code = int(rank_codes[i])
        if code == 0:
            field: np.ndarray = lp_field
        elif code == 1:
            field = sp_field
        else:
            field = secp_field
        key = (key << np.uint32(rank_widths[i])) | field
    key_a = np.where(valid, key, _INVALID_A)

    best_a = np.minimum.reduceat(key_a, seg_starts, axis=1)
    tied = (key_a == np.repeat(best_a, seg_sizes, axis=1)) & (
        key_a != _INVALID_A
    )
    key_b = np.where(tied, tie_key[None, :], _BLOCKED)
    chosen = np.minimum.reduceat(key_b, seg_starts, axis=1)
    reachable = best_a != _INVALID_A
    eidx = seg_starts[None, :] + np.where(
        reachable, (chosen & _POS_MASK).astype(np.int64), 0
    )
    v_sel = v[eidx]
    sec_sel = np.take_along_axis(sec, v_sel, axis=1)
    len_sel = np.take_along_axis(length, v_sel, axis=1)
    att_sel = np.take_along_axis(att, v_sel, axis=1)
    seen_sel = np.take_along_axis(seen, eidx, axis=1)
    new_cls[:, seg_u] = np.where(
        reachable, route_cls[eidx], np.int8(_UNREACHABLE)
    )
    new_len[:, seg_u] = np.where(reachable, len_sel + 1, -1)
    new_sec[:, seg_u] = reachable & node_secure[seg_u] & seen_sel
    new_att[:, seg_u] = reachable & att_sel
