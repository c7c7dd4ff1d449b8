"""Deployment state (Section 3.2).

A state ``S`` is the set of ASes that have *deliberately* deployed
S*BGP: the early adopters (ISPs, CPs, or stubs), plus every ISP that
chose to deploy in some round.  Stub security is *derived*: a stub runs
simplex S*BGP exactly when it is an early adopter or at least one of
its providers is a secure ISP ("once an ISP becomes secure, it deploys
simplex S*BGP at all its stub customers", §2.3) — and loses it again if
every such provider turns S*BGP off.

CPs deploy only if they are early adopters (they have no transit
revenue to compete for); ISPs are the only ASes that make round-by-
round decisions.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

import numpy as np

from repro.routing.compiled import CompiledGraph, gather_neighbors
from repro.topology.graph import ASGraph
from repro.topology.relationships import ASRole


@dataclasses.dataclass(frozen=True)
class DeploymentState:
    """Immutable deployment state over dense node indices.

    ``deployers`` holds the deliberate S*BGP deployers.  Use
    :func:`derive_security` (or :class:`StateDeriver`) for the full
    per-node security flags including simplex stubs.
    """

    deployers: frozenset[int]
    early_adopters: frozenset[int]

    def with_flips(self, turn_on: Iterable[int] = (), turn_off: Iterable[int] = ()) -> "DeploymentState":
        """New state with the given deployers added / removed."""
        new = set(self.deployers)
        new.update(turn_on)
        new.difference_update(turn_off)
        new.update(self.early_adopters)  # early adopters are pinned
        return DeploymentState(frozenset(new), self.early_adopters)

    def is_deployer(self, node: int) -> bool:
        """True if ``node`` deliberately runs S*BGP in this state."""
        return node in self.deployers

    @classmethod
    def initial(cls, early_adopters: Iterable[int]) -> "DeploymentState":
        """The paper's initial state: exactly the early adopters deploy."""
        ea = frozenset(early_adopters)
        return cls(deployers=ea, early_adopters=ea)


class StateDeriver:
    """Derives per-node security and tie-breaking flags from a state.

    Bound to one graph; reusable across states and rounds.

    Parameters
    ----------
    graph:
        The AS topology.
    stub_breaks_ties:
        Whether stubs running simplex S*BGP apply the SecP tie-break
        (§6.7 evaluates both settings and finds the results insensitive).
    compiled:
        Optional pre-built :class:`CompiledGraph` to share with a cache.
    """

    def __init__(
        self,
        graph: ASGraph,
        stub_breaks_ties: bool = True,
        compiled: CompiledGraph | None = None,
    ):
        self.graph = graph
        self.compiled = compiled or CompiledGraph.from_graph(graph)
        roles = graph.roles
        self.is_stub = roles == int(ASRole.STUB)
        self.is_isp = roles == int(ASRole.ISP)
        self.is_cp = roles == int(ASRole.CP)
        self.stub_indices = np.flatnonzero(self.is_stub)
        #: static policy: which nodes would apply SecP *if* secure
        self.break_policy = ~self.is_stub | bool(stub_breaks_ties)

    def node_secure(self, state: DeploymentState) -> np.ndarray:
        """bool[n]: deliberate deployers plus derived simplex stubs."""
        n = self.graph.n
        secure = np.zeros(n, dtype=bool)
        if state.deployers:
            secure[list(state.deployers)] = True
        # a stub is secure iff it deployed itself (early adopter) or has
        # a provider that deploys
        prov_indptr, prov_idx = self.compiled.prov_indptr, self.compiled.prov_idx
        stubs = self.stub_indices
        if len(stubs):
            provs = gather_neighbors(prov_indptr, prov_idx, stubs)
            counts = (prov_indptr[stubs + 1] - prov_indptr[stubs]).astype(np.int64)
            rows = np.repeat(np.arange(len(stubs), dtype=np.int64), counts)
            has_secure_prov = np.zeros(len(stubs), dtype=bool)
            np.logical_or.at(has_secure_prov, rows, secure[provs])
            secure[stubs] |= has_secure_prov
        return secure

    def breaks_ties(self, node_secure: np.ndarray) -> np.ndarray:
        """bool[n]: nodes that actually apply the SecP criterion."""
        return node_secure & self.break_policy

    def stubs_of(self, isp: int) -> np.ndarray:
        """Dense indices of ``isp``'s stub customers."""
        cust = self.compiled
        members = gather_neighbors(cust.cust_indptr, cust.cust_idx, np.array([isp]))
        return members[self.is_stub[members]]

    def newly_secured_stubs(
        self,
        state: DeploymentState,
        isp: int,
        node_secure: np.ndarray | None = None,
    ) -> list[int]:
        """Stubs that would *become* secure if ``isp`` deployed.

        ``node_secure`` is ``self.node_secure(state)`` when the caller
        already holds it (a round does); otherwise it is derived here.
        """
        secure = self.node_secure(state) if node_secure is None else node_secure
        return [int(s) for s in self.stubs_of(isp) if not secure[s]]

    def orphaned_stubs(self, state: DeploymentState, isp: int) -> list[int]:
        """Stubs that would *lose* security if ``isp`` turned S*BGP off."""
        if isp not in state.deployers:
            return []
        after = state.with_flips(turn_off=[isp])
        secure_after = self.node_secure(after)
        return [int(s) for s in self.stubs_of(isp) if not secure_after[s]]
