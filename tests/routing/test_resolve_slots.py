"""The per-slot resolve kernels: bit-identity with numpy on every tier.

``compute_trees_batched`` / ``subtree_weights_batched`` resolve a slot
list in one ``trees_slots`` / ``weights_slots`` call on the loop tiers
(``python``, the loop body numba compiles, and every compiled tier),
walking each destination's own arena segments.  numpy keeps the stacked
level-major path, fed by one plan per call, and is the ground truth:
``choice``, ``secure``, ``any_secure`` and the subtree weights must
agree byte for byte, for any slot list (empty, single, unsorted,
repeated, strided, a permutation of every slot, full) and every policy.
The numpy plan itself is checked for shape, and its chunked round
output against the one-pass output.  The cext wrapper must refuse what
its C code would read out of bounds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.routing import backends as kb
from repro.routing.arena import (
    RoutingArena,
    compute_trees_batched,
    subtree_weights_batched,
)
from repro.routing.errors import BackendUnavailable
from repro.routing.fast_tree import compute_tree, subtree_weights
from repro.routing.policy import available_policies, get_policy
from repro.topology.graph import ASGraph

from tests.strategies import graphs_with_security


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


#: the tiers with per-slot kernels, each skipped where it cannot load;
#: numpy, the ground truth, is what they are compared with
SLOT_TIERS = ["python"] + [
    _tier(name) for name in kb.available_backends() if kb.get_backend(name).compiled
]
POLICIES = available_policies()


def _state(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    secure = np.zeros(n, dtype=bool)
    secure[::3] = True
    breaks = np.zeros(n, dtype=bool)
    breaks[::2] = True
    # thirds and sevenths: sums whose value depends on the adding order
    weights = 1.0 + (np.arange(n) % 7) / 3.0
    return secure, breaks, weights


def _arenas(graph: ASGraph, policy: str, dests, backend: str, secure, breaks):
    """The same structures packed twice: once for numpy, once for ``backend``."""
    pol = get_policy(policy)
    if pol.state_dependent:
        routings = pol.build_many(
            graph, dests, node_secure=secure, breaks_ties=breaks
        )
    else:
        routings = pol.build_many(graph, dests)
    return tuple(
        RoutingArena.build(graph.n, dests, routings, policy=policy, backend=b)
        for b in ("numpy", backend)
    )


def _resolve(arena, slots, secure, breaks, weights) -> dict[str, bytes]:
    bt = compute_trees_batched(arena, slots, secure, breaks)
    w = subtree_weights_batched(arena, slots, bt.choice, weights)
    assert bt.choice.shape == (len(slots), arena.graph_n)
    return {
        "choice": bt.choice.tobytes(),
        "secure": bt.secure.tobytes(),
        "any_secure": bt.any_secure.tobytes(),
        "weights": w.tobytes(),
    }


def _assert_parity(graph, policy, dests, slots, backend) -> None:
    secure, breaks, weights = _state(graph.n)
    ref, alt = _arenas(graph, policy, dests, backend, secure, breaks)
    want = _resolve(ref, slots, secure, breaks, weights)
    got = _resolve(alt, slots, secure, breaks, weights)
    for field in want:
        assert got[field] == want[field], (backend, policy, field, list(slots))


def _graph(n: int, customer_provider=(), peerings=()) -> ASGraph:
    graph = ASGraph()
    for asn in range(n):
        graph.add_as(asn)
    for provider, customer in customer_provider:
        graph.add_customer_provider(provider=provider, customer=customer)
    for a, b in peerings:
        graph.add_peering(a, b)
    return graph


#: slot lists over a 29-destination arena, by shape
SLOT_LISTS = {
    "empty": [],
    "single": [4],
    "unsorted": [11, 2, 27, 0, 9],
    "repeated": [3, 3, 17, 3, 0, 17],
    "strided": list(range(1, 29, 4)),
    # every slot, out of order: the plan's subset path, not the full set
    "permutation": [(7 * k + 3) % 29 for k in range(29)],
    "full": list(range(29)),
}


@pytest.mark.parametrize("shape", sorted(SLOT_LISTS))
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("backend", SLOT_TIERS)
def test_slot_lists_bit_identical(small_graph, backend, policy, shape):
    dests = list(range(0, small_graph.n, 7))
    assert len(dests) == 29
    _assert_parity(small_graph, policy, dests, SLOT_LISTS[shape], backend)


@pytest.mark.parametrize("backend", SLOT_TIERS)
def test_strided_slot_view(small_graph, backend):
    """A non-contiguous slot view resolves like its copy."""
    dests = list(range(0, small_graph.n, 7))
    _assert_parity(small_graph, "security_3rd", dests,
                   np.arange(len(dests), dtype=np.int64)[::-3], backend)


@pytest.mark.parametrize("backend", SLOT_TIERS)
def test_level_zero_only_and_unreachable_destinations(backend):
    # 0 -> {1, 2} and 3 -> 4 are two components; 5 is isolated, so its
    # structure is level 0 alone and every other node is unreachable
    graph = _graph(6, customer_provider=[(0, 1), (0, 2), (3, 4)])
    dests = [5, 1, 4, 0]
    for policy in POLICIES:
        _assert_parity(graph, policy, dests, [0, 1, 2, 3], backend)
        _assert_parity(graph, policy, dests, [0], backend)

    # and both agree with the per-destination resolver
    secure, breaks, weights = _state(graph.n)
    _, arena = _arenas(graph, "security_3rd", dests, backend, secure, breaks)
    slots = np.arange(len(dests), dtype=np.int64)
    bt = compute_trees_batched(arena, slots, secure, breaks)
    w = subtree_weights_batched(arena, slots, bt.choice, weights)
    for k in range(len(dests)):
        dr = arena.view(k)
        tree = compute_tree(dr, secure, breaks)
        assert bt.choice[k].tobytes() == tree.choice.tobytes()
        assert bt.secure[k].tobytes() == tree.secure.tobytes()
        assert w[k].tobytes() == subtree_weights(dr, tree, weights).tobytes()
    assert (bt.choice[0] == -1).all()  # the isolated destination chooses nothing
    assert not w[0].any()


@pytest.mark.parametrize("backend", SLOT_TIERS)
@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    case=graphs_with_security(min_nodes=1, max_nodes=16),
    policy=st.sampled_from(POLICIES),
    data=st.data(),
)
def test_generated_graphs_bit_identical(backend, case, policy, data):
    graph, secure_nodes = case
    secure = np.zeros(graph.n, dtype=bool)
    secure[secure_nodes] = True
    breaks = secure.copy()
    weights = 1.0 + (np.arange(graph.n) % 7) / 3.0
    dests = list(range(graph.n))
    ref, alt = _arenas(graph, policy, dests, backend, secure, breaks)
    slots = np.asarray(
        data.draw(st.lists(st.integers(0, graph.n - 1), max_size=2 * graph.n)),
        dtype=np.int64,
    )
    for chosen in (ref.all_slots(), slots):
        want = _resolve(ref, chosen, secure, breaks, weights)
        got = _resolve(alt, chosen, secure, breaks, weights)
        assert got == want, (policy, chosen.tolist())


@pytest.mark.parametrize("policy", POLICIES)
def test_chunked_round_kernels_equal_one_pass(small_graph, policy):
    """The degraded round (chunks of the slot vector) stitches the same
    bytes as one pass over every slot."""
    from repro.core.engine import _chunked_round_kernels

    dests = list(range(0, small_graph.n, 7))
    secure, breaks, weights = _state(small_graph.n)
    arena, _ = _arenas(small_graph, policy, dests, "python", secure, breaks)
    slots = arena.all_slots()
    want = _resolve(arena, slots, secure, breaks, weights)
    for rows in (1, 4, 7, 28):
        bt, w = _chunked_round_kernels(arena, slots, secure, breaks, weights, rows)
        got = {
            "choice": bt.choice.tobytes(),
            "secure": bt.secure.tobytes(),
            "any_secure": bt.any_secure.tobytes(),
            "weights": w.tobytes(),
        }
        assert got == want, (policy, rows)


@pytest.mark.parametrize("shape", sorted(SLOT_LISTS))
def test_numpy_plan_addresses_its_batch_rows(small_graph, shape):
    """Every level of a plan: flat indices fall in the node's batch row,
    ``starts`` and ``row_of_edge`` describe the same segments, and the
    candidates sit one path-length level above their node."""
    dests = list(range(0, small_graph.n, 7))
    secure, breaks, _ = _state(small_graph.n)
    arena, _ = _arenas(small_graph, "security_3rd", dests, "python", secure, breaks)
    slots = np.asarray(SLOT_LISTS[shape], dtype=np.int64)
    n = arena.graph_n
    plan = arena._plan(slots)
    assert sum(len(level[0]) for level in plan) == sum(
        int(arena.order_ptr[k + 1] - arena.order_ptr[k]) - 1 for k in slots
    )
    for nodes, node_flat, starts, row_of_edge, keys, edge_flat in plan:
        rows = node_flat // n
        assert (node_flat % n == nodes).all()
        assert ((0 <= rows) & (rows < len(slots))).all()
        sizes = np.diff(np.append(starts, len(edge_flat)))
        assert starts[0] == 0 and (sizes > 0).all()
        assert (row_of_edge == np.repeat(np.arange(len(nodes)), sizes)).all()
        assert (edge_flat // n == rows[row_of_edge]).all()
        assert len(keys) == len(edge_flat)
        lengths = arena.lengths[slots[rows], nodes]
        cand_lengths = arena.lengths[slots[rows[row_of_edge]], edge_flat % n]
        assert (cand_lengths == lengths[row_of_edge] - 1).all()
    nodes_only = arena._plan(slots, edges=False)
    assert [len(level) for level in nodes_only] == [2] * len(plan)
    for full, short in zip(plan, nodes_only):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(full[:2], short))


def test_numpy_mirror_is_no_larger_than_the_per_level_layout(small_graph):
    """The mirror holds 20 bytes per stacked node and per stacked edge
    plus two offset tables, less than the per-level slices it replaced
    (24 per node, 20 per edge, the same tables)."""
    dests = list(range(0, small_graph.n, 7))
    secure, breaks, _ = _state(small_graph.n)
    arena, _ = _arenas(small_graph, "security_3rd", dests, "python", secure, breaks)
    mirror = arena._level_major()
    nodes, edges = len(mirror.nodes), len(mirror.keys)
    tables = 2 * 8 * (arena.num_dests + 1) * mirror.num_levels
    assert mirror.nbytes == 20 * nodes + 20 * edges + tables
    assert mirror.nbytes < 24 * nodes + 20 * edges + tables


class TestCextWrapper:
    """The C code trusts its indices, so the ctypes wrapper checks them."""

    @pytest.fixture
    def call(self, small_graph):
        if not _loads("cext"):
            pytest.skip("cext backend unusable here")
        _, kernels = kb.kernels_for("cext")
        secure, breaks, weights = _state(small_graph.n)
        _, arena = _arenas(small_graph, "security_3rd", [0, 7, 14], "cext",
                           secure, breaks)
        n = small_graph.n

        def trees(slots, choice=None, node_secure=secure):
            B = len(slots)
            kernels.trees_slots(
                slots, arena.order_ptr, arena.order_pool, arena.level_ptr,
                arena.level_pool, arena.indptr_ptr, arena.indptr_pool,
                arena.cand_ptr, arena.cands_pool, arena.keys_pool,
                node_secure, breaks,
                np.full((B, n), -1, np.int32) if choice is None else choice,
                np.zeros((B, n), bool), np.zeros((B, n), bool),
            )

        def weights_call(slots, w=None, node_weights=weights):
            B = len(slots)
            kernels.weights_slots(
                slots, arena.order_ptr, arena.order_pool, arena.level_ptr,
                arena.level_pool, np.full((B, n), -1, np.int32), node_weights,
                np.zeros((B, n)) if w is None else w,
            )

        return trees, weights_call, n

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_rejects_out_of_range_slots(self, call, bad):
        trees, weights_call, _ = call
        trees(np.array([0, 2], np.int64))  # in range: accepted
        with pytest.raises(ValueError, match="outside"):
            trees(np.array([0, bad], np.int64))
        with pytest.raises(ValueError, match="outside"):
            weights_call(np.array([bad], np.int64))

    def test_rejects_wrong_dtypes(self, call):
        trees, weights_call, n = call
        with pytest.raises(TypeError, match="int64"):
            trees(np.array([0, 1], np.int32))
        with pytest.raises(TypeError, match="int32"):
            trees(np.array([0], np.int64), choice=np.full((1, n), -1, np.int64))
        with pytest.raises(TypeError, match="float64"):
            weights_call(np.array([0], np.int64),
                         node_weights=np.ones(n, np.float32))

    def test_rejects_mis_shaped_outputs(self, call):
        trees, weights_call, n = call
        with pytest.raises(ValueError, match="choice has shape"):
            trees(np.array([0, 1], np.int64), choice=np.full((1, n), -1, np.int32))
        with pytest.raises(ValueError, match="lengths differ"):
            trees(np.array([0], np.int64), node_secure=np.zeros(n + 1, bool))
        with pytest.raises(ValueError, match="w has shape"):
            weights_call(np.array([0], np.int64), w=np.zeros((1, n - 1)))
