"""C-extension backend: the loop bodies as one translation unit.

A line-for-line transliteration of
:mod:`repro.routing.backends._loops`, compiled at first use with the
system C compiler (``cc``/``gcc`` — no build-time Python dependency)
and bound through ``ctypes``.  The shared object is cached under
``~/.cache/sbgp-kernels`` (override with ``SBGP_KERNEL_CACHE``) keyed
by a digest of the source, so a process pays the compile exactly once
per source revision and workers share the artifact.

Import errors — no compiler, compile failure, dlopen failure — raise
:class:`~repro.routing.backends.BackendUnavailable`; the registry turns
that into a counted ``compiled_to_numpy`` degradation, never a crash.

Why ctypes and not a real extension module: the kernels take flat typed
buffers and return nothing, so the FFI surface is five pointer-and-
stride signatures — not worth a build system.  The Python-side wrappers
enforce dtype and contiguity *loudly* (a silent mismatch would corrupt
memory), plus the slot ranges, pool capacities and matrix shapes the C
code indexes by, which the parity suite exercises.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.routing.backends import BackendUnavailable, structure_capacity
from repro.routing.policy import POSITION_BITS, RouteClass
from repro.runtime.atomic import atomic_write_text

if (
    int(RouteClass.SELF),
    int(RouteClass.CUSTOMER),
    int(RouteClass.PEER),
    int(RouteClass.PROVIDER),
    int(RouteClass.UNREACHABLE),
    POSITION_BITS,
) != (3, 2, 1, 0, -1, 16):  # pragma: no cover
    raise AssertionError(
        "the C kernels hardcode RouteClass/POSITION_BITS values that "
        "drifted; update _C_SOURCE together with repro.routing.policy"
    )

_C_SOURCE = r"""
#include <stdint.h>

/* Constants mirrored from repro.routing: POSITION_BITS=16 (tie-key low
 * bits hold the candidate's position in its segment), RouteClass
 * PROVIDER=0 / PEER=1 / CUSTOMER=2 / SELF=3 / UNREACHABLE=-1, and the
 * splitmix64 multipliers of tie_hash_array. */
#define POS_MASK 0xFFFFu
#define INVALID_KEY 0xFFFFFFFFu
#define MIX_1 0x9E3779B97F4A7C15ull
#define MIX_2 0xBF58476D1CE4E5B9ull
#define MIX_3 0x94D049BB133111EBull

static inline uint64_t sbgp_tie_key(uint64_t u, uint64_t c, uint64_t rel)
{
    uint64_t x = u * MIX_1 + c * MIX_3;
    x ^= x >> 30;
    x *= MIX_2;
    x ^= x >> 27;
    x *= MIX_3;
    x ^= x >> 31;
    return (x & ~(uint64_t)POS_MASK) | rel;
}

void sbgp_structure_build(
    int64_t num_dests, int64_t n, const int32_t *dests,
    const int64_t *cust_indptr, const int32_t *cust_idx,
    const int64_t *peer_indptr, const int32_t *peer_idx,
    const int64_t *prov_indptr, const int32_t *prov_idx,
    int8_t *cls, int32_t *lengths, int32_t *row_of,
    int32_t *order, int32_t *levels, int64_t *indptr,
    int32_t *cands, uint64_t *keys, int64_t *counts, int32_t *scratch)
{
    int32_t *queue = scratch;
    int32_t *fifo = scratch + n;
    int32_t *cursor = scratch + 2 * n;
    int64_t o_off = 0, l_off = 0, i_off = 0, c_off = 0;
    for (int64_t b = 0; b < num_dests; b++) {
        int64_t dest = dests[b];
        int8_t *cls_b = cls + b * n;
        int32_t *len_b = lengths + b * n;
        int32_t *row_b = row_of + b * n;
        for (int64_t i = 0; i < n; i++) {
            cls_b[i] = -1;
            len_b[i] = -1;
            row_b[i] = -1;
        }
        cls_b[dest] = 3;
        len_b[dest] = 0;

        /* Pass 1: customer routes -- BFS from dest along provider edges. */
        int64_t head = 0, tail = 1;
        queue[0] = (int32_t)dest;
        while (head < tail) {
            int32_t u = queue[head++];
            for (int64_t e = prov_indptr[u]; e < prov_indptr[u + 1]; e++) {
                int32_t p = prov_idx[e];
                if (len_b[p] == -1) {
                    len_b[p] = len_b[u] + 1;
                    cls_b[p] = 2;
                    queue[tail++] = p;
                }
            }
        }

        /* Pass 2: peer routes -- one peer hop onto a customer route. */
        for (int64_t i = 0; i < n; i++) {
            if (cls_b[i] != -1)
                continue;
            int32_t best = -1;
            for (int64_t e = peer_indptr[i]; e < peer_indptr[i + 1]; e++) {
                int32_t p = peer_idx[e];
                if (cls_b[p] == 2 || cls_b[p] == 3) {
                    if (best == -1 || len_b[p] + 1 < best)
                        best = len_b[p] + 1;
                }
            }
            if (best != -1) {
                len_b[i] = best;
                cls_b[i] = 1;
            }
        }

        /* Pass 3: provider routes, relaxed in order of selected length:
         * the reached nodes counting-sorted by length, merged with the
         * FIFO of provider routes found (whose lengths never decrease). */
        int32_t max_len = 0;
        for (int64_t i = 0; i < n; i++)
            if (len_b[i] > max_len)
                max_len = len_b[i];
        for (int32_t k = 0; k < max_len + 2; k++)
            cursor[k] = 0;
        for (int64_t i = 0; i < n; i++)
            if (len_b[i] >= 0)
                cursor[len_b[i] + 1]++;
        for (int32_t k = 0; k < max_len + 1; k++)
            cursor[k + 1] += cursor[k];
        int64_t num_init = cursor[max_len + 1];
        for (int64_t i = 0; i < n; i++)
            if (len_b[i] >= 0)
                queue[cursor[len_b[i]]++] = (int32_t)i;
        head = 0;
        int64_t f_head = 0, f_tail = 0;
        while (head < num_init || f_head < f_tail) {
            int32_t u;
            if (f_head < f_tail &&
                (head >= num_init || len_b[fifo[f_head]] < len_b[queue[head]]))
                u = fifo[f_head++];
            else
                u = queue[head++];
            for (int64_t e = cust_indptr[u]; e < cust_indptr[u + 1]; e++) {
                int32_t c = cust_idx[e];
                if (cls_b[c] == -1) {
                    cls_b[c] = 0;
                    len_b[c] = len_b[u] + 1;
                    fifo[f_tail++] = c;
                }
            }
        }

        /* Rows by (length, id): level starts are the exclusive prefix
         * sums of the length histogram; a stable placement by id fills
         * each level in ascending order. */
        max_len = 0;
        for (int64_t i = 0; i < n; i++)
            if (len_b[i] > max_len)
                max_len = len_b[i];
        int64_t num_levels = (int64_t)max_len + 2;
        int32_t *lev = levels + l_off;
        for (int64_t k = 0; k < num_levels; k++)
            lev[k] = 0;
        for (int64_t i = 0; i < n; i++)
            if (len_b[i] >= 0)
                lev[len_b[i] + 1]++;
        for (int64_t k = 0; k < num_levels - 1; k++)
            lev[k + 1] += lev[k];
        int64_t num_reach = lev[max_len + 1];
        for (int32_t k = 0; k < max_len + 1; k++)
            cursor[k] = lev[k];
        for (int64_t i = 0; i < n; i++) {
            if (len_b[i] >= 0) {
                int32_t r = cursor[len_b[i]]++;
                order[o_off + r] = (int32_t)i;
                row_b[i] = r;
            }
        }

        /* Tiebreak sets: next hops one hop shorter that export to the
         * row's node under GR2, from the one adjacency list its route
         * class allows, kept ascending by insertion. */
        int32_t *cand_b = cands + c_off;
        int64_t *ip = indptr + i_off;
        int64_t nnz = 0;
        ip[0] = 0;
        for (int64_t r = 0; r < num_reach; r++) {
            int32_t u = order[o_off + r];
            int8_t cu = cls_b[u];
            int32_t want = len_b[u] - 1;
            int64_t start = nnz;
            const int32_t *adj = cust_idx;
            int64_t adj_lo = 0, adj_hi = 0;
            if (cu == 2) {
                adj = cust_idx;
                adj_lo = cust_indptr[u];
                adj_hi = cust_indptr[u + 1];
            } else if (cu == 1) {
                adj = peer_idx;
                adj_lo = peer_indptr[u];
                adj_hi = peer_indptr[u + 1];
            } else if (cu == 0) {
                adj = prov_idx;
                adj_lo = prov_indptr[u];
                adj_hi = prov_indptr[u + 1];
            }
            for (int64_t e = adj_lo; e < adj_hi; e++) {
                int32_t d = adj[e];
                if (len_b[d] != want)
                    continue;
                int8_t cd = cls_b[d];
                int ok = cu == 0 ? cd != -1 : (cd == 2 || cd == 3);
                if (!ok)
                    continue;
                int64_t j = nnz;
                while (j > start && cand_b[j - 1] > d) {
                    cand_b[j] = cand_b[j - 1];
                    j--;
                }
                cand_b[j] = d;
                nnz++;
            }
            ip[r + 1] = nnz;
            for (int64_t e = start; e < nnz; e++)
                keys[c_off + e] = sbgp_tie_key(
                    (uint64_t)u, (uint64_t)cand_b[e], (uint64_t)(e - start));
        }

        counts[3 * b] = num_reach;
        counts[3 * b + 1] = num_levels;
        counts[3 * b + 2] = nnz;
        o_off += num_reach;
        l_off += num_levels;
        i_off += num_reach + 1;
        c_off += nnz;
    }
}

void sbgp_trees_slots(
    int64_t num_slots, int64_t n, const int64_t *slots,
    const int64_t *order_ptr, const int32_t *order_pool,
    const int64_t *level_ptr, const int32_t *level_pool,
    const int64_t *indptr_ptr, const int64_t *indptr_pool,
    const int64_t *cand_ptr, const int32_t *cands_pool,
    const uint64_t *keys_pool,
    const uint8_t *node_secure, const uint8_t *breaks_ties,
    int32_t *choice, uint8_t *secure, uint8_t *any_secure)
{
    for (int64_t i = 0; i < num_slots; i++) {
        int64_t k = slots[i];
        const int32_t *order = order_pool + order_ptr[k];
        const int64_t *ip = indptr_pool + indptr_ptr[k];
        const int32_t *cands = cands_pool + cand_ptr[k];
        const uint64_t *keys = keys_pool + cand_ptr[k];
        int64_t reach = order_ptr[k + 1] - order_ptr[k];
        int32_t *choice_i = choice + i * n;
        uint8_t *sec_i = secure + i * n;
        uint8_t *any_i = any_secure + i * n;
        /* rows from level 1 on, forward: a row's candidates sit one
         * level below it, so sec_i[c] is final before the row reads it */
        for (int64_t r = level_pool[level_ptr[k] + 1]; r < reach; r++) {
            int64_t s = ip[r];
            int64_t hi = ip[r + 1];
            if (hi <= s)
                continue;
            int32_t u = order[r];
            uint64_t min_all = UINT64_MAX;
            uint64_t min_sec = UINT64_MAX;
            int any_sec = 0;
            for (int64_t e = s; e < hi; e++) {
                uint64_t key = keys[e];
                if (key < min_all)
                    min_all = key;
                if (sec_i[cands[e]]) {
                    any_sec = 1;
                    if (key < min_sec)
                        min_sec = key;
                }
            }
            any_i[u] = (uint8_t)any_sec;
            uint64_t kmin =
                (node_secure[u] && breaks_ties[u] && any_sec) ? min_sec : min_all;
            int32_t c = cands[s + (int64_t)(kmin & POS_MASK)];
            choice_i[u] = c;
            sec_i[u] = (uint8_t)(node_secure[u] && sec_i[c]);
        }
    }
}

void sbgp_weights_slots(
    int64_t num_slots, int64_t n, const int64_t *slots,
    const int64_t *order_ptr, const int32_t *order_pool,
    const int64_t *level_ptr, const int32_t *level_pool,
    const int32_t *choice, const double *node_weights, double *w)
{
    for (int64_t i = 0; i < num_slots; i++) {
        int64_t k = slots[i];
        const int32_t *order = order_pool + order_ptr[k];
        const int32_t *lev = level_pool + level_ptr[k];
        const int32_t *choice_i = choice + i * n;
        double *w_i = w + i * n;
        /* Deepest level first, rows in order within a level: parents sit
         * one level up, so w_i[p] is only *written* while its children's
         * level runs; with 0.0 + x == x exactly, child-by-child
         * accumulation matches numpy's bincount sum bit for bit. */
        for (int64_t lvl = level_ptr[k + 1] - level_ptr[k] - 2; lvl > 0; lvl--) {
            for (int64_t r = lev[lvl]; r < lev[lvl + 1]; r++) {
                int32_t u = order[r];
                int32_t p = choice_i[u];
                if (p >= 0)
                    w_i[p] += w_i[u] + node_weights[u];
            }
        }
    }
}

static inline uint32_t sbgp_edge_key(
    int64_t e, const int32_t *v, const int8_t *cls_r, const int32_t *len_r,
    const uint8_t *sec_r, const uint32_t *lp_field,
    const uint8_t *is_provider_edge, const uint8_t *applies_edge,
    const int64_t *rank_codes, const uint32_t *rank_widths)
{
    int32_t vv = v[e];
    int8_t cv = cls_r[vv];
    if (cv == -1)
        return INVALID_KEY;
    /* GR2: only customer routes (2) / the origin itself (3) are
     * exported across peerings and up to providers. */
    if (!(is_provider_edge[e] || cv == 2 || cv == 3))
        return INVALID_KEY;
    int32_t lv = len_r[vv];
    if (lv < 0)
        lv = 0;
    uint32_t sp = (uint32_t)(lv + 1);
    uint32_t secp = (applies_edge[e] && sec_r[vv]) ? 0u : 1u;
    uint32_t key = 0;
    for (int i = 0; i < 3; i++) {
        uint32_t field = rank_codes[i] == 0
            ? lp_field[e]
            : (rank_codes[i] == 1 ? sp : secp);
        key = (key << rank_widths[i]) | field;
    }
    return key;
}

void sbgp_fixpoint_sweep(
    int64_t chunk, int64_t n, int64_t num_edges, int64_t num_segs,
    const int32_t *v, const int8_t *route_cls,
    const int64_t *seg_starts, const int64_t *seg_sizes,
    const int32_t *seg_u, const uint64_t *tie_key,
    const uint32_t *lp_field, const uint8_t *is_provider_edge,
    const int64_t *rank_codes, const uint32_t *rank_widths,
    const int8_t *cls, const int32_t *length, const uint8_t *sec,
    const uint8_t *applies_edge, const uint8_t *node_secure,
    int8_t *new_cls, int32_t *new_len, uint8_t *new_sec, uint8_t *tied)
{
    for (int64_t row = 0; row < chunk; row++) {
        const int8_t *cls_r = cls + row * n;
        const int32_t *len_r = length + row * n;
        const uint8_t *sec_r = sec + row * n;
        uint8_t *tied_r = tied + row * num_edges;
        for (int64_t s = 0; s < num_segs; s++) {
            int64_t lo = seg_starts[s];
            int64_t m = seg_sizes[s];
            uint32_t best = INVALID_KEY;
            for (int64_t e = lo; e < lo + m; e++) {
                uint32_t k = sbgp_edge_key(e, v, cls_r, len_r, sec_r,
                                           lp_field, is_provider_edge,
                                           applies_edge, rank_codes,
                                           rank_widths);
                if (k < best)
                    best = k;
            }
            uint64_t best_tie = UINT64_MAX;
            for (int64_t e = lo; e < lo + m; e++) {
                uint32_t k = sbgp_edge_key(e, v, cls_r, len_r, sec_r,
                                           lp_field, is_provider_edge,
                                           applies_edge, rank_codes,
                                           rank_widths);
                int t = (best != INVALID_KEY) && (k == best);
                tied_r[e] = (uint8_t)t;
                if (t && tie_key[e] < best_tie)
                    best_tie = tie_key[e];
            }
            int64_t uu = seg_u[s];
            if (best != INVALID_KEY) {
                int64_t eidx = lo + (int64_t)(best_tie & POS_MASK);
                int32_t vv = v[eidx];
                new_cls[row * n + uu] = route_cls[eidx];
                new_len[row * n + uu] = len_r[vv] + 1;
                new_sec[row * n + uu] =
                    (uint8_t)(node_secure[uu] && sec_r[vv]);
            } else {
                new_cls[row * n + uu] = -1;
                new_len[row * n + uu] = -1;
                new_sec[row * n + uu] = 0;
            }
        }
    }
}

static inline uint32_t sbgp_attack_edge_key(
    int64_t e, int64_t att_row, int drop_u, int leak,
    const int32_t *v, const uint32_t *lp_field,
    const uint8_t *is_provider_edge, const uint8_t *applies_edge,
    const uint8_t *gullible_edge,
    const int64_t *rank_codes, const uint32_t *rank_widths,
    const int8_t *cls_r, const int32_t *len_r, const uint8_t *sec_r,
    const uint8_t *att_r)
{
    int32_t vv = v[e];
    int8_t cv = cls_r[vv];
    if (cv == -1)
        return INVALID_KEY;
    /* GR2, with the leak escape hatch: the attacker exports its
     * selected route to every neighbor regardless of class. */
    if (!(is_provider_edge[e] || cv == 2 || cv == 3 ||
          (leak && vv == att_row)))
        return INVALID_KEY;
    /* end-state filtering: validators reject what cannot be validated
     * (genuine security only — gullible belief fails ROV). */
    if (drop_u && !sec_r[vv])
        return INVALID_KEY;
    int32_t lv = len_r[vv];
    if (lv < 0)
        lv = 0;
    uint32_t sp = (uint32_t)(lv + 1);
    int seen = sec_r[vv] ||
        (gullible_edge[e] && vv == att_row && att_r[vv]);
    uint32_t secp = (applies_edge[e] && seen) ? 0u : 1u;
    uint32_t key = 0;
    for (int i = 0; i < 3; i++) {
        uint32_t field = rank_codes[i] == 0
            ? lp_field[e]
            : (rank_codes[i] == 1 ? sp : secp);
        key = (key << rank_widths[i]) | field;
    }
    return key;
}

void sbgp_attack_sweep(
    int64_t chunk, int64_t n, int64_t num_segs,
    const int32_t *v, const int8_t *route_cls,
    const int64_t *seg_starts, const int64_t *seg_sizes,
    const int32_t *seg_u, const uint64_t *tie_key,
    const uint32_t *lp_field, const uint8_t *is_provider_edge,
    const int64_t *rank_codes, const uint32_t *rank_widths,
    const int64_t *attacker, const uint8_t *gullible_edge,
    const uint8_t *validators, int64_t leak, int64_t drop,
    const int8_t *cls, const int32_t *length, const uint8_t *sec,
    const uint8_t *att, const uint8_t *applies_edge,
    const uint8_t *node_secure,
    int8_t *new_cls, int32_t *new_len, uint8_t *new_sec, uint8_t *new_att)
{
    for (int64_t row = 0; row < chunk; row++) {
        const int8_t *cls_r = cls + row * n;
        const int32_t *len_r = length + row * n;
        const uint8_t *sec_r = sec + row * n;
        const uint8_t *att_r = att + row * n;
        int64_t att_row = attacker[row];
        for (int64_t s = 0; s < num_segs; s++) {
            int64_t lo = seg_starts[s];
            int64_t m = seg_sizes[s];
            int64_t uu = seg_u[s];
            int drop_u = drop && validators[uu];
            uint32_t best = INVALID_KEY;
            for (int64_t e = lo; e < lo + m; e++) {
                uint32_t k = sbgp_attack_edge_key(
                    e, att_row, drop_u, (int)leak, v, lp_field,
                    is_provider_edge, applies_edge, gullible_edge,
                    rank_codes, rank_widths, cls_r, len_r, sec_r, att_r);
                if (k < best)
                    best = k;
            }
            if (best == INVALID_KEY) {
                new_cls[row * n + uu] = -1;
                new_len[row * n + uu] = -1;
                new_sec[row * n + uu] = 0;
                new_att[row * n + uu] = 0;
                continue;
            }
            uint64_t best_tie = UINT64_MAX;
            for (int64_t e = lo; e < lo + m; e++) {
                uint32_t k = sbgp_attack_edge_key(
                    e, att_row, drop_u, (int)leak, v, lp_field,
                    is_provider_edge, applies_edge, gullible_edge,
                    rank_codes, rank_widths, cls_r, len_r, sec_r, att_r);
                if (k == best && tie_key[e] < best_tie)
                    best_tie = tie_key[e];
            }
            int64_t eidx = lo + (int64_t)(best_tie & POS_MASK);
            int32_t vv = v[eidx];
            int seen = sec_r[vv] ||
                (gullible_edge[eidx] && vv == att_row && att_r[vv]);
            new_cls[row * n + uu] = route_cls[eidx];
            new_len[row * n + uu] = len_r[vv] + 1;
            new_sec[row * n + uu] = (uint8_t)(node_secure[uu] && seen);
            new_att[row * n + uu] = att_r[vv];
        }
    }
}
"""


def _cache_dir() -> Path:
    override = os.environ.get("SBGP_KERNEL_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "sbgp-kernels"


def _find_compiler() -> str | None:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _build_shared_object() -> Path:
    """Compile (or reuse) the kernels; returns the cached ``.so`` path."""
    digest = hashlib.blake2b(_C_SOURCE.encode(), digest_size=12).hexdigest()
    cache_dir = _cache_dir()
    so_path = cache_dir / f"sbgp_kernels_{digest}.so"
    if so_path.exists():
        return so_path
    cc = _find_compiler()
    if cc is None:
        raise BackendUnavailable("no C compiler (cc/gcc/clang) on PATH")
    cache_dir.mkdir(parents=True, exist_ok=True)
    # Build in a scratch dir *inside* the cache dir so the final rename
    # stays on one filesystem (atomic; concurrent builders race benignly
    # to an identical artifact).
    with tempfile.TemporaryDirectory(dir=cache_dir) as scratch:
        src = Path(scratch) / "sbgp_kernels.c"
        atomic_write_text(src, _C_SOURCE)
        out = Path(scratch) / "sbgp_kernels.so"
        cmd = [cc, "-O3", "-shared", "-fPIC", "-std=c99",
               "-o", str(out), str(src)]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=300, check=False
        )
        if proc.returncode != 0:
            raise BackendUnavailable(
                f"C kernel compile failed ({' '.join(cmd[:1])} exit "
                f"{proc.returncode}): {proc.stderr.strip()[:500]}"
            )
        os.replace(out, so_path)
    return so_path


def _load_library() -> ctypes.CDLL:
    try:
        lib = ctypes.CDLL(str(_build_shared_object()))
    except OSError as exc:  # dlopen failure
        raise BackendUnavailable(f"cannot load compiled kernels: {exc}") from exc
    for name in ("sbgp_structure_build", "sbgp_trees_slots",
                 "sbgp_weights_slots", "sbgp_fixpoint_sweep",
                 "sbgp_attack_sweep"):
        fn = getattr(lib, name)
        fn.restype = None
    lib.sbgp_structure_build.argtypes = (
        [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 17
    )
    lib.sbgp_trees_slots.argtypes = (
        [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 15
    )
    lib.sbgp_weights_slots.argtypes = (
        [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 8
    )
    return lib


_LIB = _load_library()

_I64 = ctypes.c_int64


def _ptr(array: np.ndarray, dtype: type) -> ctypes.c_void_p:
    """Checked pointer: exact dtype + C-contiguity, or a loud error."""
    if array.dtype != np.dtype(dtype) or not array.flags.c_contiguous:
        raise TypeError(
            f"cext kernel expects C-contiguous {np.dtype(dtype)}, got "
            f"{array.dtype} (contiguous={array.flags.c_contiguous})"
        )
    return ctypes.c_void_p(array.ctypes.data)


def structure_build(dests, cust_indptr, cust_idx, peer_indptr, peer_idx,
                    prov_indptr, prov_idx, cls, lengths, row_of,
                    order, levels, indptr, cands, keys, counts, scratch):
    """Build the routing structures of a chunk of destinations.

    The C code trusts the pool capacities, so they are checked against
    :func:`~repro.routing.backends.structure_capacity` first.
    """
    num, n = cls.shape
    if any(len(ptr) != n + 1 for ptr in (cust_indptr, peer_indptr, prov_indptr)):
        raise ValueError(f"structure_build adjacency is not over {n} nodes")
    if num and (int(dests.min()) < 0 or int(dests.max()) >= n):
        raise ValueError(f"structure_build destinations outside [0, {n})")
    order_cap, level_cap, indptr_cap, cand_cap = structure_capacity(
        num, n, cust_indptr, peer_indptr, prov_indptr
    )
    if (
        len(order) < order_cap or len(levels) < level_cap
        or len(indptr) < indptr_cap or min(len(cands), len(keys)) < cand_cap
        or lengths.shape != (num, n) or row_of.shape != (num, n)
        or len(dests) != num or counts.shape != (num, 3)
        or len(scratch) < 3 * n + 2
    ):
        raise ValueError(
            f"structure_build buffers too small for {num} destinations x "
            f"{n} nodes (need pools of {order_cap}/{level_cap}/"
            f"{indptr_cap}/{cand_cap} and scratch of {3 * n + 2})"
        )
    _LIB.sbgp_structure_build(
        _I64(num), _I64(n), _ptr(dests, np.int32),
        _ptr(cust_indptr, np.int64), _ptr(cust_idx, np.int32),
        _ptr(peer_indptr, np.int64), _ptr(peer_idx, np.int32),
        _ptr(prov_indptr, np.int64), _ptr(prov_idx, np.int32),
        _ptr(cls, np.int8), _ptr(lengths, np.int32), _ptr(row_of, np.int32),
        _ptr(order, np.int32), _ptr(levels, np.int32),
        _ptr(indptr, np.int64), _ptr(cands, np.int32),
        _ptr(keys, np.uint64), _ptr(counts, np.int64),
        _ptr(scratch, np.int32),
    )


def _check_slots(slots, tables, rows, n: int) -> None:
    """The C code trusts its indices: reject what would read out of bounds.

    ``tables`` are the arena ``*_ptr`` offset tables the kernel indexes
    by slot; ``rows`` the ``[len(slots), n]`` output and input matrices.
    """
    num = len(tables[0]) - 1
    if any(len(ptr) != num + 1 for ptr in tables):
        raise ValueError("slot kernel offset tables disagree on the slot count")
    if len(slots) and (int(slots.min()) < 0 or int(slots.max()) >= num):
        raise ValueError(f"slot kernel slots outside [0, {num})")
    for name, arr in rows.items():
        if arr.shape != (len(slots), n):
            raise ValueError(
                f"slot kernel {name} has shape {arr.shape}, expected "
                f"{(len(slots), n)}"
            )


def trees_slots(slots, order_ptr, order_pool, level_ptr, level_pool,
                indptr_ptr, indptr_pool, cand_ptr, cands_pool, keys_pool,
                node_secure, breaks_ties, choice, secure, any_secure):
    """Resolve the trees of a slot list in one call."""
    n = len(node_secure)
    if len(breaks_ties) != n:
        raise ValueError("slot kernel node_secure/breaks_ties lengths differ")
    _check_slots(
        slots, (order_ptr, level_ptr, indptr_ptr, cand_ptr),
        {"choice": choice, "secure": secure, "any_secure": any_secure}, n,
    )
    _LIB.sbgp_trees_slots(
        _I64(len(slots)), _I64(n), _ptr(slots, np.int64),
        _ptr(order_ptr, np.int64), _ptr(order_pool, np.int32),
        _ptr(level_ptr, np.int64), _ptr(level_pool, np.int32),
        _ptr(indptr_ptr, np.int64), _ptr(indptr_pool, np.int64),
        _ptr(cand_ptr, np.int64), _ptr(cands_pool, np.int32),
        _ptr(keys_pool, np.uint64),
        _ptr(node_secure, np.bool_), _ptr(breaks_ties, np.bool_),
        _ptr(choice, np.int32), _ptr(secure, np.bool_),
        _ptr(any_secure, np.bool_),
    )


def weights_slots(slots, order_ptr, order_pool, level_ptr, level_pool,
                  choice, node_weights, w):
    """Push subtree weights up a slot list's trees in one call."""
    n = len(node_weights)
    _check_slots(slots, (order_ptr, level_ptr), {"choice": choice, "w": w}, n)
    _LIB.sbgp_weights_slots(
        _I64(len(slots)), _I64(n), _ptr(slots, np.int64),
        _ptr(order_ptr, np.int64), _ptr(order_pool, np.int32),
        _ptr(level_ptr, np.int64), _ptr(level_pool, np.int32),
        _ptr(choice, np.int32), _ptr(node_weights, np.float64),
        _ptr(w, np.float64),
    )


def fixpoint_sweep(u, v, route_cls, seg_starts, seg_sizes, seg_u, tie_key,
                   lp_field, is_provider_edge, rank_codes, rank_widths,
                   cls, length, sec, applies_edge, node_secure,
                   new_cls, new_len, new_sec, tied):
    """One synchronous best-response step over the segment-sorted edges."""
    _LIB.sbgp_fixpoint_sweep(
        _I64(cls.shape[0]), _I64(cls.shape[1]),
        _I64(len(v)), _I64(len(seg_starts)),
        _ptr(v, np.int32), _ptr(route_cls, np.int8),
        _ptr(seg_starts, np.int64), _ptr(seg_sizes, np.int64),
        _ptr(seg_u, np.int32), _ptr(tie_key, np.uint64),
        _ptr(lp_field, np.uint32), _ptr(is_provider_edge, np.bool_),
        _ptr(rank_codes, np.int64), _ptr(rank_widths, np.uint32),
        _ptr(cls, np.int8), _ptr(length, np.int32), _ptr(sec, np.bool_),
        _ptr(applies_edge, np.bool_), _ptr(node_secure, np.bool_),
        _ptr(new_cls, np.int8), _ptr(new_len, np.int32),
        _ptr(new_sec, np.bool_), _ptr(tied, np.bool_),
    )


def attack_sweep(u, v, route_cls, seg_starts, seg_sizes, seg_u, tie_key,
                 lp_field, is_provider_edge, rank_codes, rank_widths,
                 attacker, gullible_edge, validators, leak, drop,
                 cls, length, sec, att, applies_edge, node_secure,
                 new_cls, new_len, new_sec, new_att):
    """One multi-origin (victim + attacker) best-response step."""
    _LIB.sbgp_attack_sweep(
        _I64(cls.shape[0]), _I64(cls.shape[1]), _I64(len(seg_starts)),
        _ptr(v, np.int32), _ptr(route_cls, np.int8),
        _ptr(seg_starts, np.int64), _ptr(seg_sizes, np.int64),
        _ptr(seg_u, np.int32), _ptr(tie_key, np.uint64),
        _ptr(lp_field, np.uint32), _ptr(is_provider_edge, np.bool_),
        _ptr(rank_codes, np.int64), _ptr(rank_widths, np.uint32),
        _ptr(attacker, np.int64), _ptr(gullible_edge, np.bool_),
        _ptr(validators, np.bool_), _I64(int(leak)), _I64(int(drop)),
        _ptr(cls, np.int8), _ptr(length, np.int32), _ptr(sec, np.bool_),
        _ptr(att, np.bool_), _ptr(applies_edge, np.bool_),
        _ptr(node_secure, np.bool_),
        _ptr(new_cls, np.int8), _ptr(new_len, np.int32),
        _ptr(new_sec, np.bool_), _ptr(new_att, np.bool_),
    )
