"""The per-slot resolve kernels: bit-identity with numpy on every tier.

``compute_trees_batched`` / ``subtree_weights_batched`` resolve a slot
list in one ``trees_slots`` / ``weights_slots`` call on the loop tiers
(``python``, the loop body numba compiles, and every compiled tier),
walking each destination's own arena segments.  numpy keeps the stacked
level-major path and is the ground truth: ``choice``, ``secure``,
``any_secure`` and the subtree weights must agree byte for byte, for
any slot list (empty, single, unsorted, repeated, full) and every
policy.  The cext wrapper must refuse what its C code would read out of
bounds.
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
