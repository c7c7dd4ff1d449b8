"""Projected utility ``u_n(~S_n, S_-n)`` (Section 3.3, Appendix C.4).

An ISP evaluates the utility it *would* obtain if it flipped its
deployment action while everyone else stayed put — including the side
effect that deploying secures its not-yet-secure stub customers (and
turning off orphans stubs whose only secure provider it was).

Two engines with identical outputs:

``FULL``
    Re-resolve the routing tree of every *relevant* destination in the
    flipped state.  Relevance pruning per Appendix C.4: destinations
    that are insecure in both states route identically, so only
    currently-secure destinations plus destinations whose own security
    the flip changes (the ISP itself and its stubs) can differ.

``INCREMENTAL``
    Additionally prune destinations where the flip demonstrably cannot
    change any routing decision (no member of the flip set has a secure
    tiebreak candidate to gain, or a secure path to lose), and for the
    remaining destinations propagate security changes level-by-level
    through the reverse tiebreak graph, touching only affected nodes.
    Traffic deltas are then integrated by walking the short paths of
    the sources whose routes moved.

Both engines assume Observation C.1 (structures are state-independent;
only tie-breaks move).  Under the state-dependent policies
(``security_1st`` / ``security_2nd``) every projection instead takes a
dedicated full-rebuild path that re-runs the fixpoint builder for the
destinations that can react to the flip — see
:func:`_project_flip_state_dependent`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.config import ProjectionEngine, UtilityModel
from repro.core.engine import (
    DestState,
    RoundData,
    incoming_contribution,
    outgoing_contribution,
)
from repro.core.state import StateDeriver
from repro.routing.arena import compute_trees_batched, subtree_weights_batched
from repro.routing.cache import RoutingCache
from repro.routing.fast_tree import compute_tree, subtree_weights
from repro.routing.policy import RouteClass
from repro.routing.tree import DestRouting

_CUSTOMER = int(RouteClass.CUSTOMER)
_PROVIDER = int(RouteClass.PROVIDER)
_BLOCKED = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclasses.dataclass(frozen=True)
class Projection:
    """Result of projecting one ISP's flip."""

    isp: int
    turning_on: bool
    utility: float            # projected utility of `isp` after the flip
    flips: dict[int, bool]    # node -> new security flag (isp and stubs)
    dests_recomputed: int     # full tree recomputations performed
    dests_delta: int          # incremental destinations actually touched


def project_flip(
    cache: RoutingCache,
    deriver: StateDeriver,
    rd: RoundData,
    isp: int,
    turning_on: bool,
    model: UtilityModel,
    engine: ProjectionEngine = ProjectionEngine.FULL,
) -> Projection:
    """Projected utility of ``isp`` if it flipped its action this round."""
    graph = cache.graph
    if turning_on:
        stubs = deriver.newly_secured_stubs(rd.state, isp)
        flips: dict[int, bool] = {isp: True}
        flips.update({s: True for s in stubs})
    else:
        stubs = deriver.orphaned_stubs(rd.state, isp)
        flips = {isp: False}
        flips.update({s: False for s in stubs})

    node_secure_new = rd.node_secure.copy()
    for node, flag in flips.items():
        node_secure_new[node] = flag
    breaks_new = deriver.breaks_ties(node_secure_new)

    w = graph.weights

    if cache.policy.state_dependent:
        # the flip moves classes/lengths, not just tie-breaks: rebuild
        # the affected structures from scratch under the flipped state
        return _project_flip_state_dependent(
            cache, rd, isp, turning_on, flips,
            node_secure_new, breaks_new, model,
        )

    delta = 0.0
    recomputed = 0
    touched = 0

    # Destinations whose *own* security status changes always need a
    # full recompute; under the FULL engine so do all reroutable
    # candidates.  Everything needing a full recompute goes through the
    # batched arena kernel in ONE call.
    special_positions: set[int] = set()
    for node in flips:
        pos = cache.position_of(node)
        if pos is not None:
            special_positions.add(pos)
    candidates = _candidate_positions(cache, rd, isp, flips, turning_on, model)

    if engine is ProjectionEngine.FULL:
        full_positions = sorted(special_positions.union(int(p) for p in candidates))
        incremental_positions: list[int] = []
    else:
        full_positions = sorted(special_positions)
        incremental_positions = [
            int(p) for p in candidates if int(p) not in special_positions
        ]

    for pos, new_ds in _recompute_dest_states(
        cache, rd, full_positions, node_secure_new, breaks_new, w
    ):
        old_ds = rd.dest_states[pos]
        d = _contribution(new_ds, isp, w, model) - _contribution(old_ds, isp, w, model)
        recomputed += 1
        if pos not in special_positions and d:
            touched += 1
        delta += d

    # Remaining candidates: exact deltas via local propagation.
    for pos in incremental_positions:
        d = _incremental_delta(
            rd.dest_states[pos], node_secure_new, breaks_new, flips, isp, model, w
        )
        if d:
            touched += 1
        delta += d

    current = float(rd.utilities[isp])
    return Projection(
        isp=isp,
        turning_on=turning_on,
        utility=current + delta,
        flips=flips,
        dests_recomputed=recomputed,
        dests_delta=touched,
    )


def _contribution(ds: DestState, node: int, node_weights: np.ndarray, model: UtilityModel) -> float:
    if model is UtilityModel.OUTGOING:
        return outgoing_contribution(ds, node)
    return incoming_contribution(ds, node, node_weights)


def _project_flip_state_dependent(
    cache: RoutingCache,
    rd: RoundData,
    isp: int,
    turning_on: bool,
    flips: dict[int, bool],
    node_secure_new: np.ndarray,
    breaks_new: np.ndarray,
    model: UtilityModel,
) -> Projection:
    """FULL projection for policies where structures move with the state.

    The tiebreak-only machinery (arena re-resolution, incremental
    propagation, the ``sec``/``any_sec`` candidate refinements) assumes
    Observation C.1 and is invalid here.  What survives is the coarse
    pruning: a destination that is insecure in *both* states has
    all-insecure paths under any ranking, so its routing collapses to
    the security-free order of the policy and cannot react to the flip.
    Everything else — destinations secure in either state, plus the
    flipped nodes themselves — is rebuilt by the batched fixpoint under
    the flipped state and resolved per destination.
    """
    graph = cache.graph
    w = graph.weights
    dest_idx = np.asarray(cache.destinations, dtype=np.int64)
    relevant = rd.node_secure[dest_idx] | node_secure_new[dest_idx]
    special_positions = {
        pos for node in flips
        if (pos := cache.position_of(node)) is not None
    }
    positions = sorted(set(np.flatnonzero(relevant).tolist()) | special_positions)

    delta = 0.0
    touched = 0
    if positions:
        routings = cache.policy.build_many(
            graph,
            [cache.destinations[p] for p in positions],
            cache.compiled,
            node_secure=node_secure_new,
            breaks_ties=breaks_new,
            backend=cache.backend_name,
        )
        for pos, dr_new in zip(positions, routings):
            tree = compute_tree(dr_new, node_secure_new, breaks_new)
            new_ds = DestState(
                dr=dr_new,
                tree=tree,
                weights=subtree_weights(dr_new, tree, w),
            )
            old_ds = rd.dest_states[pos]
            d = _contribution(new_ds, isp, w, model) - _contribution(
                old_ds, isp, w, model
            )
            if pos not in special_positions and d:
                touched += 1
            delta += d

    return Projection(
        isp=isp,
        turning_on=turning_on,
        utility=float(rd.utilities[isp]) + delta,
        flips=flips,
        dests_recomputed=len(positions),
        dests_delta=touched,
    )


def _recompute_dest_states(
    cache: RoutingCache,
    rd: RoundData,
    positions: list[int],
    node_secure_new: np.ndarray,
    breaks_new: np.ndarray,
    node_weights: np.ndarray,
):
    """Yield ``(pos, DestState)`` for fully recomputed destinations.

    When the cache carries a :class:`~repro.routing.arena.RoutingArena`
    (the normal case after the first round), all requested destinations
    are resolved in a single call of the batched kernel; the
    per-destination loop below is the fallback for caches warmed without
    an arena.
    """
    if not positions:
        return
    arena = cache.arena
    if arena is not None and len(positions) > 1:
        slots = np.asarray(positions, dtype=np.int64)
        bt = compute_trees_batched(arena, slots, node_secure_new, breaks_new)
        w2d = subtree_weights_batched(arena, slots, bt.choice, node_weights)
        for i, pos in enumerate(positions):
            yield pos, DestState(
                dr=rd.dest_states[pos].dr, tree=bt.tree(i), weights=w2d[i]
            )
    else:
        for pos in positions:
            dr = rd.dest_states[pos].dr
            tree = compute_tree(dr, node_secure_new, breaks_new)
            yield pos, DestState(
                dr=dr, tree=tree, weights=subtree_weights(dr, tree, node_weights)
            )


def _candidate_positions(
    cache: RoutingCache,
    rd: RoundData,
    isp: int,
    flips: dict[int, bool],
    turning_on: bool,
    model: UtilityModel,
) -> np.ndarray:
    """Secure-destination positions where the flip could change routing."""
    secure_pos = rd.secure_dest_positions
    if not len(secure_pos):
        return secure_pos
    flip_nodes = list(flips)
    if turning_on:
        # a flipped node can only start influencing SecP decisions if it
        # can acquire a secure chosen path, i.e. has a secure candidate
        possible = rd.any_sec_matrix[np.ix_(secure_pos, flip_nodes)].any(axis=1)
    else:
        # symmetric: it must currently have a secure chosen path to lose
        possible = rd.sec_matrix[np.ix_(secure_pos, flip_nodes)].any(axis=1)
    positions = secure_pos[possible]
    if model is UtilityModel.OUTGOING and len(positions):
        # only destinations n reaches via a customer edge contribute
        via_customer = cache.cls_matrix[positions, isp] == _CUSTOMER
        positions = positions[via_customer]
    return positions


def _incremental_delta(
    ds: DestState,
    node_secure_new: np.ndarray,
    breaks_new: np.ndarray,
    flips: dict[int, bool],
    isp: int,
    model: UtilityModel,
    node_weights: np.ndarray,
) -> float:
    """Exact utility delta for one destination via local propagation."""
    dr = ds.dr
    tree = ds.tree
    old_choice = tree.choice
    old_secure = tree.secure
    lengths = dr.lengths
    dest = dr.dest

    changed_sec: dict[int, bool] = {}
    changed_choice: dict[int, int] = {}
    pending: dict[int, set[int]] = {}

    for node in flips:
        if node == dest or dr.row_of[node] < 0:
            continue
        pending.setdefault(int(lengths[node]), set()).add(node)
    if not pending:
        return 0.0

    level = min(pending)
    max_level = max(pending)
    while level <= max_level:
        nodes = pending.pop(level, None)
        if nodes:
            for u in nodes:
                new_choice, new_sec = _recompute_node(
                    dr, u, old_secure, changed_sec, node_secure_new, breaks_new
                )
                if new_choice != old_choice[u]:
                    changed_choice[u] = new_choice
                if new_sec != bool(old_secure[u]):
                    changed_sec[u] = new_sec
                    for dep in dr.dependents_of(u):
                        dep_level = int(lengths[dep])
                        pending.setdefault(dep_level, set()).add(int(dep))
                        if dep_level > max_level:
                            max_level = dep_level
        level += 1

    if not changed_choice:
        return 0.0

    # Sources whose path changed = old subtrees of moved nodes.
    affected = _collect_old_subtrees(ds, list(changed_choice))

    if model is UtilityModel.OUTGOING:
        return _outgoing_walk_delta(ds, changed_choice, affected, isp, node_weights)
    return _incoming_walk_delta(ds, changed_choice, affected, isp, node_weights)


def _recompute_node(
    dr: DestRouting,
    u: int,
    old_secure: np.ndarray,
    changed_sec: dict[int, bool],
    node_secure_new: np.ndarray,
    breaks_new: np.ndarray,
) -> tuple[int, bool]:
    """Re-run the tiebreak of node ``u`` with patched candidate security."""
    cands = dr.tiebreak_set(u)
    csec = old_secure[cands].copy()
    for k, c in enumerate(cands):
        override = changed_sec.get(int(c))
        if override is not None:
            csec[k] = override
    usec = bool(node_secure_new[u])
    use_sec = usec and bool(breaks_new[u]) and bool(csec.any())

    row = int(dr.row_of[u])
    lo, hi = int(dr.indptr[row]), int(dr.indptr[row + 1])
    keys = dr.tie_keys()[lo:hi]  # state-independent, precomputed
    if use_sec:
        keys = np.where(csec, keys, _BLOCKED)
    best = int(np.argmin(keys))
    return int(cands[best]), usec and bool(csec[best])


def _collect_old_subtrees(ds: DestState, moved: list[int]) -> list[int]:
    """Moved nodes plus every node in their *old* routing subtrees."""
    indptr, idx = ds.children()
    seen: set[int] = set()
    stack = list(moved)
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(int(c) for c in idx[indptr[v]:indptr[v + 1]])
    return list(seen)


def _outgoing_walk_delta(
    ds: DestState,
    changed_choice: dict[int, int],
    affected: list[int],
    isp: int,
    node_weights: np.ndarray,
) -> float:
    """Sum of w_i over sources whose membership 'routes through isp' changed."""
    old_choice = ds.tree.choice
    dest = ds.dr.dest
    delta = 0.0
    for i in affected:
        if i == isp or i == dest:
            continue
        old_hit = _walks_through(old_choice, None, i, isp, dest)
        new_hit = _walks_through(old_choice, changed_choice, i, isp, dest)
        if old_hit != new_hit:
            delta += node_weights[i] if new_hit else -node_weights[i]
    return float(delta)


def _incoming_walk_delta(
    ds: DestState,
    changed_choice: dict[int, int],
    affected: list[int],
    isp: int,
    node_weights: np.ndarray,
) -> float:
    """Like the outgoing walk, but membership requires entering ``isp``
    over a customer edge (predecessor's route class is PROVIDER)."""
    old_choice = ds.tree.choice
    cls = ds.dr.cls
    dest = ds.dr.dest
    delta = 0.0
    for i in affected:
        if i == isp or i == dest:
            continue
        old_hit = _enters_via_customer(old_choice, None, i, isp, dest, cls)
        new_hit = _enters_via_customer(old_choice, changed_choice, i, isp, dest, cls)
        if old_hit != new_hit:
            delta += node_weights[i] if new_hit else -node_weights[i]
    return float(delta)


def _walks_through(
    choice: np.ndarray, overrides: dict[int, int] | None, source: int, target: int, dest: int
) -> bool:
    node = source
    while node != dest:
        node = overrides.get(node, int(choice[node])) if overrides else int(choice[node])
        if node == target:
            return True
        if node < 0:  # pragma: no cover - unreachable sources are not affected
            return False
    return False


def _enters_via_customer(
    choice: np.ndarray,
    overrides: dict[int, int] | None,
    source: int,
    target: int,
    dest: int,
    cls: np.ndarray,
) -> bool:
    node = source
    while node != dest:
        nxt = overrides.get(node, int(choice[node])) if overrides else int(choice[node])
        if nxt == target:
            # traffic arrives at `target` from `node`; it is revenue
            # traffic iff `node` reaches `target` as its provider
            return cls[node] == _PROVIDER
        if nxt < 0:  # pragma: no cover
            return False
        node = nxt
    return False


def per_destination_turn_off_gains(
    cache: RoutingCache,
    deriver: StateDeriver,
    rd: RoundData,
    isp: int,
) -> dict[int, float]:
    """§7.3: incoming-utility gain of disabling S*BGP per destination.

    The paper observes that an ISP can turn S*BGP off for a *single
    destination* (refusing to propagate S*BGP announcements for it) and
    finds that at least 10% of ISPs have a state where some destination
    makes that profitable.  Returns ``{destination: gain}`` for every
    destination with a strictly positive incoming-utility gain if
    ``isp`` stopped announcing secure routes for it.

    Per-destination turn-off does not orphan the ISP's stubs (the ISP
    still runs S*BGP; it just downgrades announcements for one
    destination), so only the ISP's own flag flips here.
    """
    flips = {isp: False}
    node_secure_new = rd.node_secure.copy()
    node_secure_new[isp] = False
    breaks_new = deriver.breaks_ties(node_secure_new)
    w = cache.graph.weights

    gains: dict[int, float] = {}
    secure_pos = rd.secure_dest_positions
    if not len(secure_pos):
        return gains
    # only destinations where isp currently has a secure chosen path can
    # react to the downgrade (valid under every policy: with no secure
    # chosen path, isp's selection and its announcements' security are
    # already what the downgrade would make them)
    has_secure = rd.sec_matrix[secure_pos, isp]
    candidates = [
        int(pos) for pos in secure_pos[has_secure]
        if cache.destinations[pos] != isp
    ]
    if not candidates:
        return gains
    if cache.policy.state_dependent:
        # incremental propagation is tiebreak-only; rebuild each
        # candidate destination's structure under the downgraded state
        routings = cache.policy.build_many(
            cache.graph,
            [cache.destinations[p] for p in candidates],
            cache.compiled,
            node_secure=node_secure_new,
            breaks_ties=breaks_new,
            backend=cache.backend_name,
        )
        for pos, dr_new in zip(candidates, routings):
            tree = compute_tree(dr_new, node_secure_new, breaks_new)
            new_ds = DestState(
                dr=dr_new,
                tree=tree,
                weights=subtree_weights(dr_new, tree, w),
            )
            delta = _contribution(
                new_ds, isp, w, UtilityModel.INCOMING
            ) - _contribution(rd.dest_states[pos], isp, w, UtilityModel.INCOMING)
            if delta > 0:
                gains[cache.destinations[pos]] = delta
        return gains
    for pos in candidates:
        dest = cache.destinations[pos]
        delta = _incremental_delta(
            rd.dest_states[pos], node_secure_new, breaks_new, flips, isp,
            UtilityModel.INCOMING, w,
        )
        if delta > 0:
            gains[dest] = delta
    return gains
