"""Tests for deployment state and simplex-stub derivation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.state import DeploymentState, StateDeriver
from repro.topology.graph import ASGraph


@pytest.fixture()
def star_graph() -> ASGraph:
    """ISPs 1 and 2 share multihomed stub 10; 1 also owns stub 11."""
    g = ASGraph(cp_asns=[5])
    for asn in (1, 2, 5, 10, 11):
        g.add_as(asn)
    g.add_customer_provider(provider=1, customer=10)
    g.add_customer_provider(provider=2, customer=10)
    g.add_customer_provider(provider=1, customer=11)
    g.add_customer_provider(provider=1, customer=5)
    return g


class TestDeploymentState:
    def test_initial_state(self):
        s = DeploymentState.initial([3, 4])
        assert s.deployers == {3, 4}
        assert s.early_adopters == {3, 4}

    def test_with_flips(self):
        s = DeploymentState.initial([1])
        s2 = s.with_flips(turn_on=[2, 3])
        assert s2.deployers == {1, 2, 3}
        s3 = s2.with_flips(turn_off=[2])
        assert s3.deployers == {1, 3}

    def test_early_adopters_pinned(self):
        s = DeploymentState.initial([1]).with_flips(turn_off=[1])
        assert 1 in s.deployers

    def test_immutability(self):
        s = DeploymentState.initial([1])
        s.with_flips(turn_on=[9])
        assert s.deployers == {1}

    def test_is_deployer(self):
        s = DeploymentState.initial([1])
        assert s.is_deployer(1)
        assert not s.is_deployer(2)


class TestStateDeriver:
    def test_stub_secured_by_any_provider(self, star_graph):
        d = StateDeriver(star_graph)
        state = DeploymentState.initial([star_graph.index(2)])
        secure = d.node_secure(state)
        assert secure[star_graph.index(10)]       # multihomed: 2 secures it
        assert not secure[star_graph.index(11)]   # 1 is insecure

    def test_cp_not_secured_by_provider(self, star_graph):
        """Simplex upgrades apply to stubs only; CPs need to be adopters."""
        d = StateDeriver(star_graph)
        state = DeploymentState.initial([star_graph.index(1)])
        secure = d.node_secure(state)
        assert not secure[star_graph.index(5)]

    def test_early_adopter_stub_secure_alone(self, star_graph):
        d = StateDeriver(star_graph)
        state = DeploymentState.initial([star_graph.index(11)])
        assert d.node_secure(state)[star_graph.index(11)]

    def test_empty_state_all_insecure(self, star_graph):
        d = StateDeriver(star_graph)
        state = DeploymentState(frozenset(), frozenset())
        assert not d.node_secure(state).any()

    def test_breaks_ties_stub_policy(self, star_graph):
        state = DeploymentState.initial([star_graph.index(1)])
        with_stub = StateDeriver(star_graph, stub_breaks_ties=True)
        without = StateDeriver(star_graph, stub_breaks_ties=False)
        sec = with_stub.node_secure(state)
        assert with_stub.breaks_ties(sec)[star_graph.index(10)]
        assert not without.breaks_ties(without.node_secure(state))[star_graph.index(10)]
        # ISPs always break ties when secure
        assert without.breaks_ties(sec)[star_graph.index(1)]

    def test_newly_secured_stubs(self, star_graph):
        d = StateDeriver(star_graph)
        state = DeploymentState.initial([star_graph.index(2)])
        new = d.newly_secured_stubs(state, star_graph.index(1))
        assert new == [star_graph.index(11)]  # 10 already secure via 2

    def test_newly_secured_stubs_from_a_given_secure_vector(self, small_graph):
        """Passing the state's derived vector gives the same stubs in the
        same order as deriving it inside the call."""
        d = StateDeriver(small_graph)
        isps = np.flatnonzero(d.is_isp)
        rng = np.random.default_rng(3)
        states = [DeploymentState(frozenset(), frozenset())] + [
            DeploymentState.initial(
                rng.choice(small_graph.n, size=size, replace=False).tolist()
            )
            for size in (1, 5, 20, small_graph.n // 2)
        ]
        compared = 0
        for state in states:
            secure = d.node_secure(state)
            for isp in isps:
                want = d.newly_secured_stubs(state, int(isp))
                assert d.newly_secured_stubs(state, int(isp), secure) == want
                compared += len(want)
        assert compared  # some ISP had stubs left to secure

    def test_orphaned_stubs(self, star_graph):
        d = StateDeriver(star_graph)
        i1, i2 = star_graph.index(1), star_graph.index(2)
        state = DeploymentState(frozenset({i1, i2}), frozenset())
        # turning 1 off orphans 11 but not the multihomed 10
        assert d.orphaned_stubs(state, i1) == [star_graph.index(11)]
        assert d.orphaned_stubs(state, i2) == []

    def test_orphaned_stubs_for_non_deployer(self, star_graph):
        d = StateDeriver(star_graph)
        state = DeploymentState(frozenset(), frozenset())
        assert d.orphaned_stubs(state, star_graph.index(1)) == []
