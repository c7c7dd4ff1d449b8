"""Pure-Python loop bodies shared by the compiled backends.

Each function here is written in the *nopython* subset: scalar loops,
typed numpy indexing, no Python objects — exactly what
:mod:`repro.routing.backends.numba_impl` passes to ``@njit`` and what
the C translation unit in :mod:`repro.routing.backends.cext_impl`
transliterates line for line.  The module is also registered as the
hidden ``python`` backend so the parity suite can run the compiled
control flow under plain CPython (slow, but it pins the semantics the
JIT and the C code inherit).

Calling convention (all backends):

- outputs are written **in place**; the functions return ``None``;
- dtypes are fixed by the dispatchers: the slot kernels take int64
  ``slots`` and the arena's pools and ``*_ptr`` tables in their
  :data:`~repro.routing.arena.ARENA_FIELDS` dtypes, ``choice`` int32,
  ``keys``/``tie_key`` uint64, masks bool, weights float64, fixpoint
  labels int8/int32/bool, rank metadata int64 codes + uint32 widths;
  the structure build takes int64 ``*_indptr`` / int32 ``*_idx``
  adjacency CSRs, int32 ``dests``/``order``/``levels``/``scratch``,
  int64 ``indptr``/``counts``, and pools sized by
  :func:`~repro.routing.backends.structure_capacity`;
- 2-D arrays are C-contiguous ``[batch, n]`` matrices.

Bit-identity with the numpy backend is structural, not accidental:

- the structure build runs the three passes of
  :func:`~repro.routing.tree.route_classes_and_lengths` as queue loops
  (BFS distances and bucketed relaxation by length are order-free), then
  counting-sorts nodes by ``(length, id)`` and insertion-sorts each
  tiebreak row ascending — the orders the numpy builder's stable sorts
  produce;
- trees select a per-node *minimum* key — order-independent, and
  candidates live one level below their node, so a forward walk over a
  destination's rows sees the same already-resolved state numpy's
  whole-level gather sees;
- subtree weights: every parent receives contributions only while its
  children's level is processed (children sit exactly one level deeper)
  and ``0.0 + x == x`` exactly in IEEE-754, so accumulating child by
  child, deepest level first and in row order within a level,
  reproduces ``bincount``'s left-to-right sum over numpy's stacked
  level bit for bit;
- the fixpoint sweep recomputes each edge's rank key in two passes
  (min, then tie mask) rather than materialising the key row — the key
  is a deterministic pure function of the labels, so both passes agree.
"""

from __future__ import annotations

import numpy as np

from repro.routing.policy import POSITION_BITS, RouteClass

_BLOCKED = np.uint64(2**64 - 1)
_POS_MASK = np.uint64(0xFFFF)       # (1 << POSITION_BITS) - 1
_HASH_MASK = np.uint64(0xFFFFFFFFFFFF0000)  # ~_POS_MASK
_INVALID_A = np.uint32(0xFFFFFFFF)

# splitmix64 multipliers of repro.routing.policy.tie_hash_array
_MIX_1 = np.uint64(0x9E3779B97F4A7C15)
_MIX_2 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_3 = np.uint64(0x94D049BB133111EB)

# The loop bodies inline these as literals (numba freezes globals at
# compile time; the C code hardcodes them), so pin them to the enum.
_SELF = 3          # RouteClass.SELF
_CUSTOMER = 2      # RouteClass.CUSTOMER
_PEER = 1          # RouteClass.PEER
_PROVIDER = 0      # RouteClass.PROVIDER
_UNREACHABLE = -1  # RouteClass.UNREACHABLE

if (_SELF, _CUSTOMER, _PEER, _PROVIDER, _UNREACHABLE) != (
    int(RouteClass.SELF), int(RouteClass.CUSTOMER), int(RouteClass.PEER),
    int(RouteClass.PROVIDER), int(RouteClass.UNREACHABLE)
) or int(_POS_MASK) != (1 << POSITION_BITS) - 1:  # pragma: no cover
    raise AssertionError(
        "compiled-kernel constants drifted from repro.routing.policy; "
        "update _loops.py and the C source in cext_impl.py together"
    )


def structure_build(dests, cust_indptr, cust_idx, peer_indptr, peer_idx,
                    prov_indptr, prov_idx, cls, lengths, row_of,
                    order, levels, indptr, cands, keys, counts, scratch):
    """Build the routing structures of a chunk of destinations.

    Row ``b`` of ``cls``/``lengths``/``row_of`` receives destination
    ``dests[b]``'s dense arrays; its ``order``, level starts, tiebreak
    ``indptr`` (starting at 0), ``cands`` and tie ``keys`` are appended
    to the flat pools right after destination ``b - 1``'s, and
    ``counts[b]`` records their sizes: ``(reachable, levels, cands)``.
    ``scratch`` is int32[3n + 2] working space.
    """
    n = cls.shape[1]
    queue = scratch[0:n]
    fifo = scratch[n:2 * n]
    cursor = scratch[2 * n:3 * n + 2]
    o_off = 0
    l_off = 0
    i_off = 0
    c_off = 0
    for b in range(dests.shape[0]):
        dest = dests[b]
        cls_b = cls[b]
        len_b = lengths[b]
        row_b = row_of[b]
        for i in range(n):
            cls_b[i] = _UNREACHABLE
            len_b[i] = -1
            row_b[i] = -1
        cls_b[dest] = _SELF
        len_b[dest] = 0

        # Pass 1: customer routes -- BFS from dest along provider edges.
        head = 0
        tail = 1
        queue[0] = dest
        while head < tail:
            u = queue[head]
            head += 1
            for e in range(prov_indptr[u], prov_indptr[u + 1]):
                p = prov_idx[e]
                if len_b[p] == -1:
                    len_b[p] = len_b[u] + 1
                    cls_b[p] = _CUSTOMER
                    queue[tail] = p
                    tail += 1

        # Pass 2: peer routes -- one peer hop onto a customer route.
        for i in range(n):
            if cls_b[i] != _UNREACHABLE:
                continue
            best = -1
            for e in range(peer_indptr[i], peer_indptr[i + 1]):
                p = peer_idx[e]
                if cls_b[p] == _CUSTOMER or cls_b[p] == _SELF:
                    if best == -1 or len_b[p] + 1 < best:
                        best = len_b[p] + 1
            if best != -1:
                len_b[i] = best
                cls_b[i] = _PEER

        # Pass 3: provider routes, relaxed in order of selected length:
        # the reached nodes counting-sorted by length, merged with the
        # FIFO of provider routes found (whose lengths never decrease).
        max_len = 0
        for i in range(n):
            if len_b[i] > max_len:
                max_len = len_b[i]
        for k in range(max_len + 2):
            cursor[k] = 0
        for i in range(n):
            if len_b[i] >= 0:
                cursor[len_b[i] + 1] += 1
        for k in range(max_len + 1):
            cursor[k + 1] += cursor[k]
        num_init = cursor[max_len + 1]
        for i in range(n):
            if len_b[i] >= 0:
                queue[cursor[len_b[i]]] = i
                cursor[len_b[i]] += 1
        head = 0
        f_head = 0
        f_tail = 0
        while head < num_init or f_head < f_tail:
            if f_head < f_tail and (
                head >= num_init or len_b[fifo[f_head]] < len_b[queue[head]]
            ):
                u = fifo[f_head]
                f_head += 1
            else:
                u = queue[head]
                head += 1
            for e in range(cust_indptr[u], cust_indptr[u + 1]):
                c = cust_idx[e]
                if cls_b[c] == _UNREACHABLE:
                    cls_b[c] = _PROVIDER
                    len_b[c] = len_b[u] + 1
                    fifo[f_tail] = c
                    f_tail += 1

        # Rows by (length, id): level starts are the exclusive prefix
        # sums of the length histogram; a stable placement by id fills
        # each level in ascending order.
        max_len = 0
        for i in range(n):
            if len_b[i] > max_len:
                max_len = len_b[i]
        num_levels = max_len + 2
        for k in range(num_levels):
            levels[l_off + k] = 0
        for i in range(n):
            if len_b[i] >= 0:
                levels[l_off + len_b[i] + 1] += 1
        for k in range(num_levels - 1):
            levels[l_off + k + 1] += levels[l_off + k]
        num_reach = levels[l_off + max_len + 1]
        for k in range(max_len + 1):
            cursor[k] = levels[l_off + k]
        for i in range(n):
            if len_b[i] >= 0:
                r = cursor[len_b[i]]
                cursor[len_b[i]] += 1
                order[o_off + r] = i
                row_b[i] = r

        # Tiebreak sets: next hops one hop shorter that export to the
        # row's node under GR2, from the one adjacency list its route
        # class allows, kept ascending by insertion.
        nnz = 0
        indptr[i_off] = 0
        for r in range(num_reach):
            u = order[o_off + r]
            cu = cls_b[u]
            want = len_b[u] - 1
            start = nnz
            if cu == _CUSTOMER:
                adj_lo = cust_indptr[u]
                adj_hi = cust_indptr[u + 1]
            elif cu == _PEER:
                adj_lo = peer_indptr[u]
                adj_hi = peer_indptr[u + 1]
            elif cu == _PROVIDER:
                adj_lo = prov_indptr[u]
                adj_hi = prov_indptr[u + 1]
            else:
                adj_lo = 0
                adj_hi = 0
            for e in range(adj_lo, adj_hi):
                if cu == _CUSTOMER:
                    d = cust_idx[e]
                elif cu == _PEER:
                    d = peer_idx[e]
                else:
                    d = prov_idx[e]
                if len_b[d] != want:
                    continue
                cd = cls_b[d]
                if cu == _PROVIDER:
                    ok = cd != _UNREACHABLE
                else:
                    ok = cd == _CUSTOMER or cd == _SELF
                if not ok:
                    continue
                j = c_off + nnz
                while j > c_off + start and cands[j - 1] > d:
                    cands[j] = cands[j - 1]
                    j -= 1
                cands[j] = d
                nnz += 1
            indptr[i_off + r + 1] = nnz
        _tie_keys_block(order, indptr, cands, keys, o_off, i_off, c_off,
                        num_reach, nnz)

        counts[b, 0] = num_reach
        counts[b, 1] = num_levels
        counts[b, 2] = nnz
        o_off += num_reach
        l_off += num_levels
        i_off += num_reach + 1
        c_off += nnz


def _tie_keys_block(order, indptr, cands, keys, o_off, i_off, c_off,
                    num_reach, nnz):
    """Tie keys of one destination: splitmix hash high bits | position.

    Whole-array uint64 arithmetic, which wraps silently (numpy warns on
    overflowing *scalar* products, and the C code relies on wrapping).
    """
    src = np.empty(nnz, dtype=np.uint64)
    rel = np.empty(nnz, dtype=np.uint64)
    for r in range(num_reach):
        lo = indptr[i_off + r]
        for e in range(lo, indptr[i_off + r + 1]):
            src[e] = order[o_off + r]
            rel[e] = e - lo
    x = src * _MIX_1 + cands[c_off:c_off + nnz].astype(np.uint64) * _MIX_3
    x ^= x >> np.uint64(30)
    x *= _MIX_2
    x ^= x >> np.uint64(27)
    x *= _MIX_3
    x ^= x >> np.uint64(31)
    keys[c_off:c_off + nnz] = (x & _HASH_MASK) | rel


def trees_slots(slots, order_ptr, order_pool, level_ptr, level_pool,
                indptr_ptr, indptr_pool, cand_ptr, cands_pool, keys_pool,
                node_secure, breaks_ties, choice, secure, any_secure):
    """Resolve the trees of a slot list: row ``i`` is slot ``slots[i]``.

    Each destination walks its own arena segments, rows in forward
    ``(length, id)`` order from level 1 on (level 0 is the destination,
    whose tiebreak set is empty).  A row's candidates sit one level
    below it, so they are resolved before the row is reached.
    """
    for i in range(slots.shape[0]):
        k = slots[i]
        o_lo = order_ptr[k]
        i_lo = indptr_ptr[k]
        c_lo = cand_ptr[k]
        for r in range(level_pool[level_ptr[k] + 1], order_ptr[k + 1] - o_lo):
            s = c_lo + indptr_pool[i_lo + r]
            hi = c_lo + indptr_pool[i_lo + r + 1]
            if hi <= s:
                continue
            u = order_pool[o_lo + r]
            any_sec = False
            min_all = _BLOCKED
            min_sec = _BLOCKED
            for e in range(s, hi):
                key = keys_pool[e]
                if key < min_all:
                    min_all = key
                if secure[i, cands_pool[e]]:
                    any_sec = True
                    if key < min_sec:
                        min_sec = key
            any_secure[i, u] = any_sec
            if node_secure[u] and breaks_ties[u] and any_sec:
                kmin = min_sec
            else:
                kmin = min_all
            c = cands_pool[s + np.int64(kmin & _POS_MASK)]
            choice[i, u] = c
            secure[i, u] = node_secure[u] and secure[i, c]


def weights_slots(slots, order_ptr, order_pool, level_ptr, level_pool,
                  choice, node_weights, w):
    """Push subtree weights up each slot's tree: row ``i`` is ``slots[i]``.

    Levels run deepest first, rows within a level in forward order:
    per destination the order the stacked numpy ``weights_level`` adds
    in, so every parent's sum is bit-identical to it.
    """
    for i in range(slots.shape[0]):
        k = slots[i]
        o_lo = order_ptr[k]
        l_lo = level_ptr[k]
        for lvl in range(level_ptr[k + 1] - l_lo - 2, 0, -1):
            for r in range(level_pool[l_lo + lvl], level_pool[l_lo + lvl + 1]):
                u = order_pool[o_lo + r]
                p = choice[i, u]
                if p >= 0:
                    w[i, p] += w[i, u] + node_weights[u]


def fixpoint_sweep(u, v, route_cls, seg_starts, seg_sizes, seg_u, tie_key,
                   lp_field, is_provider_edge, rank_codes, rank_widths,
                   cls, length, sec, applies_edge, node_secure,
                   new_cls, new_len, new_sec, tied):
    """One synchronous best-response step over the segment-sorted edges."""
    for row in range(cls.shape[0]):
        for s in range(seg_starts.shape[0]):
            lo = seg_starts[s]
            m = seg_sizes[s]
            best = _INVALID_A
            for e in range(lo, lo + m):
                k = _edge_key(e, row, v, route_cls, lp_field,
                              is_provider_edge, applies_edge,
                              rank_codes, rank_widths, cls, length, sec)
                if k < best:
                    best = k
            best_tie = _BLOCKED
            for e in range(lo, lo + m):
                k = _edge_key(e, row, v, route_cls, lp_field,
                              is_provider_edge, applies_edge,
                              rank_codes, rank_widths, cls, length, sec)
                t = best != _INVALID_A and k == best
                tied[row, e] = t
                if t and tie_key[e] < best_tie:
                    best_tie = tie_key[e]
            uu = seg_u[s]
            if best != _INVALID_A:
                eidx = lo + np.int64(best_tie & _POS_MASK)
                vv = v[eidx]
                new_cls[row, uu] = route_cls[eidx]
                new_len[row, uu] = length[row, vv] + 1
                new_sec[row, uu] = node_secure[uu] and sec[row, vv]
            else:
                new_cls[row, uu] = _UNREACHABLE
                new_len[row, uu] = -1
                new_sec[row, uu] = False


def _edge_key(e, row, v, route_cls, lp_field, is_provider_edge,
              applies_edge, rank_codes, rank_widths, cls, length, sec):
    """Packed uint32 rank key of one offer; ``_INVALID_A`` if barred."""
    vv = v[e]
    cv = cls[row, vv]
    if cv == _UNREACHABLE:
        return _INVALID_A
    # GR2: only customer routes / the origin's own prefix are exported
    # across peerings and up to providers.
    if not (is_provider_edge[e] or cv == _CUSTOMER or cv == _SELF):
        return _INVALID_A
    lv = length[row, vv]
    if lv < 0:
        lv = 0
    sp = np.uint32(lv + 1)
    if applies_edge[e] and sec[row, vv]:
        secp = np.uint32(0)
    else:
        secp = np.uint32(1)
    key = np.uint32(0)
    for i in range(rank_codes.shape[0]):
        code = rank_codes[i]
        if code == 0:
            field = np.uint32(lp_field[e])
        elif code == 1:
            field = sp
        else:
            field = secp
        key = np.uint32((key << rank_widths[i]) | field)
    return key


def attack_sweep(u, v, route_cls, seg_starts, seg_sizes, seg_u, tie_key,
                 lp_field, is_provider_edge, rank_codes, rank_widths,
                 attacker, gullible_edge, validators, leak, drop,
                 cls, length, sec, att, applies_edge, node_secure,
                 new_cls, new_len, new_sec, new_att):
    """One multi-origin (victim + attacker) best-response step.

    The fixpoint sweep with a per-row adversary: ``att`` tracks which
    labels descend from the attacker's announcement, ``gullible_edge``
    marks the provider edges where a simplex stub would believe the
    attacker's word (§2.2.1), ``validators`` + ``drop`` bar unvalidated
    routes at fully-validating ASes, and ``leak`` lets offers *from*
    the attacker bypass GR2 (a route leak).  The caller pins the
    principals' labels after each step.
    """
    for row in range(cls.shape[0]):
        att_row = attacker[row]
        for s in range(seg_starts.shape[0]):
            lo = seg_starts[s]
            m = seg_sizes[s]
            uu = seg_u[s]
            drop_u = drop and validators[uu]
            best = _INVALID_A
            for e in range(lo, lo + m):
                k = _attack_edge_key(e, row, att_row, drop_u, leak,
                                     v, lp_field, is_provider_edge,
                                     applies_edge, gullible_edge,
                                     rank_codes, rank_widths,
                                     cls, length, sec, att)
                if k < best:
                    best = k
            if best == _INVALID_A:
                new_cls[row, uu] = _UNREACHABLE
                new_len[row, uu] = -1
                new_sec[row, uu] = False
                new_att[row, uu] = False
                continue
            best_tie = _BLOCKED
            for e in range(lo, lo + m):
                k = _attack_edge_key(e, row, att_row, drop_u, leak,
                                     v, lp_field, is_provider_edge,
                                     applies_edge, gullible_edge,
                                     rank_codes, rank_widths,
                                     cls, length, sec, att)
                if k == best and tie_key[e] < best_tie:
                    best_tie = tie_key[e]
            eidx = lo + np.int64(best_tie & _POS_MASK)
            vv = v[eidx]
            seen = sec[row, vv] or (
                gullible_edge[eidx] and vv == att_row and att[row, vv]
            )
            new_cls[row, uu] = route_cls[eidx]
            new_len[row, uu] = length[row, vv] + 1
            new_sec[row, uu] = node_secure[uu] and seen
            new_att[row, uu] = att[row, vv]


def _attack_edge_key(e, row, att_row, drop_u, leak,
                     v, lp_field, is_provider_edge,
                     applies_edge, gullible_edge,
                     rank_codes, rank_widths, cls, length, sec, att):
    """Rank key of one offer under attack; ``_INVALID_A`` if barred."""
    vv = v[e]
    cv = cls[row, vv]
    if cv == _UNREACHABLE:
        return _INVALID_A
    # GR2, with the leak escape hatch: the attacker exports its selected
    # route to every neighbor regardless of class.
    if not (is_provider_edge[e] or cv == _CUSTOMER or cv == _SELF
            or (leak and vv == att_row)):
        return _INVALID_A
    # end-state filtering: validators reject what cannot be validated
    # (genuine security only — gullible belief does not survive ROV).
    if drop_u and not sec[row, vv]:
        return _INVALID_A
    lv = length[row, vv]
    if lv < 0:
        lv = 0
    sp = np.uint32(lv + 1)
    seen = sec[row, vv] or (
        gullible_edge[e] and vv == att_row and att[row, vv]
    )
    if applies_edge[e] and seen:
        secp = np.uint32(0)
    else:
        secp = np.uint32(1)
    key = np.uint32(0)
    for i in range(rank_codes.shape[0]):
        code = rank_codes[i]
        if code == 0:
            field = np.uint32(lp_field[e])
        elif code == 1:
            field = sp
        else:
            field = secp
        key = np.uint32((key << rank_widths[i]) | field)
    return key
