"""The deployment game loop (Sections 3.2-3.3).

Each round, every ISP evaluates the myopic best-response rule (3):

    flip  iff  u_n(~S_n, S_-n) > (1 + theta) * u_n(S)

All ISPs that want to flip do so *simultaneously* (which is why
projected utility can differ from realised utility — Figure 14 / §8.1);
then stub security is re-derived and the next round begins.  The
process ends at a stable state (no ISP wants to move), when a state
repeats (an oscillation, possible only under the incoming model —
Theorem 7.1), or at the round cap.
"""

from __future__ import annotations

import dataclasses
import enum
import time
from typing import Iterable, Sequence

import numpy as np

from pathlib import Path

from repro.core.config import SimulationConfig
from repro.core.engine import RoundData, compute_round_data
from repro.core.pricing import LINEAR_PRICING, Pricing
from repro.core.projection import Projection
from repro.core.state import DeploymentState, StateDeriver
from repro.routing.cache import RoutingCache
from repro.routing.policy import DEFAULT_POLICY
from repro.runtime.guard import current_guard
from repro.runtime.journal import RunJournal, coerce_journal
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import get_tracer
from repro.topology.graph import ASGraph
from repro.topology.relationships import ASRole

#: journal ``kind`` for single-simulation round traces
SIMULATION_JOURNAL_KIND = "simulation"


class Outcome(enum.Enum):
    """How a simulation ended."""

    STABLE = "stable"
    OSCILLATION = "oscillation"
    MAX_ROUNDS = "max-rounds"


@dataclasses.dataclass
class RoundRecord:
    """What happened in one round (state *entering* the round)."""

    index: int
    state: DeploymentState
    node_secure: np.ndarray
    utilities: np.ndarray | None
    projections: dict[int, Projection]
    turned_on: list[int]
    turned_off: list[int]

    @property
    def num_secure_ases(self) -> int:
        """ASes secure at the start of this round (full or simplex)."""
        return int(self.node_secure.sum())


@dataclasses.dataclass
class SimulationResult:
    """Full trace of a deployment simulation."""

    graph: ASGraph
    config: SimulationConfig
    early_adopters: frozenset[int]
    rounds: list[RoundRecord]
    final_state: DeploymentState
    final_node_secure: np.ndarray
    final_utilities: np.ndarray
    starting_utilities: np.ndarray
    outcome: Outcome

    @property
    def num_rounds(self) -> int:
        """Rounds in which decisions were evaluated."""
        return len(self.rounds)

    def secure_ases_per_round(self) -> list[int]:
        """Cumulative count of secure ASes entering each round + final."""
        counts = [r.num_secure_ases for r in self.rounds]
        counts.append(int(self.final_node_secure.sum()))
        return counts

    def newly_secure_per_round(self) -> list[int]:
        """Fig. 3: newly secure ASes per round (simplex stubs included)."""
        cumulative = self.secure_ases_per_round()
        return [b - a for a, b in zip(cumulative, cumulative[1:])]

    def adopting_isps_per_round(self) -> list[int]:
        """Fig. 3: ISPs that deployed S*BGP in each round."""
        return [len(r.turned_on) for r in self.rounds]

    def utility_history(self, node: int) -> list[float]:
        """Per-round utility of ``node`` (requires record_utilities)."""
        out = []
        for r in self.rounds:
            if r.utilities is None:
                raise ValueError("utilities were not recorded; set record_utilities")
            out.append(float(r.utilities[node]))
        out.append(float(self.final_utilities[node]))
        return out

    def adoption_round(self, node: int) -> int | None:
        """Round in which ``node`` deployed (None if never / initial)."""
        for r in self.rounds:
            if node in r.turned_on:
                return r.index
        return None


class DeploymentSimulation:
    """Drives the myopic best-response dynamics over an AS graph.

    Parameters
    ----------
    graph:
        Topology with weights already assigned (see
        :func:`repro.topology.apply_traffic_model`).
    early_adopter_asns:
        AS numbers of the early adopters (ISPs, CPs or stubs).
    config:
        Game parameters; defaults to :class:`SimulationConfig()`.
    cache:
        Optional shared :class:`RoutingCache` (reusable across runs on
        the same graph — by far the dominant setup cost).
    player_asns:
        Restrict the decision makers to these ISPs (default: every
        ISP).  Used by the theory gadgets, whose constructions hold a
        scaffold of "fixed" nodes still while two strategic nodes play
        (Appendix K: "there are many simple gadgets we could construct
        to ensure a particular node remains stuck; to reduce clutter we
        omit these").
    thresholds:
        Optional per-node threshold array overriding ``config.theta``
        (see :mod:`repro.core.thresholds`, §8.2).
    pricing:
        Optional :class:`~repro.core.pricing.Pricing` mapping traffic
        to revenue before the update rule compares utilities (§8.4);
        defaults to the paper's linear model.
    """

    def __init__(
        self,
        graph: ASGraph,
        early_adopter_asns: Iterable[int],
        config: SimulationConfig | None = None,
        cache: RoutingCache | None = None,
        player_asns: Iterable[int] | None = None,
        thresholds: np.ndarray | None = None,
        pricing: Pricing | None = None,
    ):
        self.graph = graph
        self.config = config or SimulationConfig()
        if cache is not None and cache.policy_name != self.config.policy:
            # a shared cache is authoritative for its routing structures;
            # silently honouring a *different* explicit config.policy would
            # mix rankings, so that combination is rejected outright
            if self.config.policy != DEFAULT_POLICY:
                raise ValueError(
                    f"config.policy={self.config.policy!r} conflicts with the "
                    f"shared cache's policy {cache.policy_name!r}; pass a cache "
                    "built with the same policy (or drop one of the two)"
                )
            self.config = dataclasses.replace(self.config, policy=cache.policy_name)
        self.cache = cache or RoutingCache(graph, policy=self.config.policy)
        self.deriver = StateDeriver(
            graph,
            stub_breaks_ties=self.config.stub_breaks_ties,
            compiled=self.cache.compiled,
        )
        if thresholds is not None and len(thresholds) != graph.n:
            raise ValueError(
                f"thresholds must have length {graph.n}, got {len(thresholds)}"
            )
        self.thresholds = thresholds
        self.pricing = pricing or LINEAR_PRICING
        adopters = frozenset(graph.index(asn) for asn in early_adopter_asns)
        self.state = DeploymentState.initial(adopters)
        roles = graph.roles
        self._isp_indices = np.flatnonzero(roles == int(ASRole.ISP))
        if player_asns is not None:
            players = {graph.index(asn) for asn in player_asns}
            self._isp_indices = np.asarray(
                [i for i in self._isp_indices if i in players], dtype=np.int64
            )

    def run(self, journal: RunJournal | str | Path | None = None) -> SimulationResult:
        """Run rounds until stability, oscillation, or the round cap.

        A single long simulation (hours at paper scale) can journal its
        progress: pass a :class:`~repro.runtime.journal.RunJournal` (or
        path) and a compact summary of every completed round — plus a
        final outcome record — is durably appended, so a crash leaves a
        readable trace of how far the game got (Fig-3-style per-round
        series are recoverable from it).
        """
        cfg = self.config
        registry = get_registry()
        tracer = get_tracer()
        journal = coerce_journal(journal)
        if journal is not None:
            journal.ensure_header(SIMULATION_JOURNAL_KIND, self._journal_meta())
        starting = self._starting_utilities()
        rounds: list[RoundRecord] = []
        seen_states: dict[frozenset[int], int] = {self.state.deployers: 0}
        outcome = Outcome.MAX_ROUNDS
        round_timer = registry.histogram("sim.round_seconds")
        guard = current_guard()
        with tracer.span("simulation", n=self.graph.n, theta=cfg.theta):
            rd = compute_round_data(self.cache, self.deriver, self.state, cfg.utility_model)

            for index in range(1, cfg.max_rounds + 1):
                # round boundary: every completed round is already
                # journaled, so an expired budget loses no work
                guard.check_deadline(f"simulation round {index}")
                with tracer.span("round", index=index), round_timer.time():
                    record = self._play_round(index, rd)
                    rounds.append(record)
                    if journal is not None:
                        journal.append(self._round_summary(record))
                    if not record.turned_on and not record.turned_off:
                        outcome = Outcome.STABLE
                        break
                    self.state = self.state.with_flips(
                        turn_on=record.turned_on, turn_off=record.turned_off
                    )
                    rd = compute_round_data(
                        self.cache, self.deriver, self.state, cfg.utility_model
                    )
                    key = self.state.deployers
                    if key in seen_states:
                        outcome = Outcome.OSCILLATION
                        break
                    seen_states[key] = index

        if journal is not None:
            journal.append({
                "type": "final",
                "outcome": outcome.value,
                "num_rounds": len(rounds),
                "final_secure_ases": int(rd.node_secure.sum()),
            })
        return SimulationResult(
            graph=self.graph,
            config=cfg,
            early_adopters=self.state.early_adopters,
            rounds=rounds,
            final_state=self.state,
            final_node_secure=rd.node_secure,
            final_utilities=rd.utilities,
            starting_utilities=starting,
            outcome=outcome,
        )

    def _journal_meta(self) -> dict:
        graph = self.graph
        return {
            "num_ases": graph.n,
            "theta": self.config.theta,
            "utility_model": self.config.utility_model.value,
            "stub_breaks_ties": self.config.stub_breaks_ties,
            "policy": self.cache.policy_name,
            "max_rounds": self.config.max_rounds,
            "early_adopters": sorted(
                graph.asn(i) for i in self.state.early_adopters
            ),
        }

    def _round_summary(self, record: RoundRecord) -> dict:
        graph = self.graph
        return {
            "type": "round",
            "index": record.index,
            "secure_ases": record.num_secure_ases,
            "turned_on": sorted(graph.asn(i) for i in record.turned_on),
            "turned_off": sorted(graph.asn(i) for i in record.turned_off),
        }

    def _theta_of(self, isp: int) -> float:
        if self.thresholds is not None:
            return float(self.thresholds[isp])
        return self.config.theta

    def _wants_flip(self, isp: int, rd: RoundData, proj: Projection) -> bool:
        return self.pricing.improves(
            float(rd.utilities[isp]), proj.utility, self._theta_of(isp)
        )

    def _play_round(self, index: int, rd: RoundData) -> RoundRecord:
        cfg = self.config
        registry = get_registry()
        projections: dict[int, Projection] = {}
        turned_on: list[int] = []
        turned_off: list[int] = []
        proj_start = time.perf_counter() if registry.enabled else 0.0

        jobs: list[tuple[int, bool]] = [
            (int(isp), True) for isp in self._decision_makers(turning_on=True)
        ]
        if cfg.turn_off_enabled:
            jobs.extend(
                (int(isp), False) for isp in self._decision_makers(turning_on=False)
            )

        for (isp, turning_on), proj in zip(jobs, self._project_jobs(rd, jobs)):
            projections[isp] = proj
            if self._wants_flip(isp, rd, proj):
                (turned_on if turning_on else turned_off).append(isp)

        if registry.enabled:
            registry.histogram("sim.projection_seconds").observe(
                time.perf_counter() - proj_start
            )
            registry.counter("sim.rounds").inc()
            registry.counter("sim.decision_makers_evaluated").inc(len(projections))
            registry.counter("sim.flips_on").inc(len(turned_on))
            registry.counter("sim.flips_off").inc(len(turned_off))

        return RoundRecord(
            index=index,
            state=rd.state,
            node_secure=rd.node_secure,
            utilities=rd.utilities.copy() if cfg.record_utilities else None,
            projections=projections,
            turned_on=turned_on,
            turned_off=turned_off,
        )

    def _project_jobs(self, rd: RoundData, jobs: list[tuple[int, bool]]) -> list[Projection]:
        """Evaluate the round's flip projections in this process.

        Goes through :func:`repro.parallel.engine.parallel_project_flips`,
        whose name predates its single code path: projections once
        forked over ``config.workers`` processes, which measured slower
        than running them here once the per-destination resolve was one
        compiled call, so ``workers`` no longer reaches this step.
        """
        from repro.parallel.engine import parallel_project_flips

        cfg = self.config
        return parallel_project_flips(
            self.cache, self.deriver, rd, jobs,
            model=cfg.utility_model, projection=cfg.projection,
        )

    def _decision_makers(self, turning_on: bool) -> Sequence[int]:
        deployers = self.state.deployers
        if turning_on:
            return [i for i in self._isp_indices if i not in deployers]
        # Theorem 6.2 is enforced by turn_off_enabled; early adopters
        # are pinned and never reconsider.
        return [
            i for i in self._isp_indices
            if i in deployers and i not in self.state.early_adopters
        ]

    def _starting_utilities(self) -> np.ndarray:
        """Utilities before the process began (nobody secure, §5.5)."""
        empty = DeploymentState(frozenset(), frozenset())
        rd = compute_round_data(self.cache, self.deriver, empty, self.config.utility_model)
        return rd.utilities


def run_deployment(
    graph: ASGraph,
    early_adopter_asns: Iterable[int],
    config: SimulationConfig | None = None,
    cache: RoutingCache | None = None,
    player_asns: Iterable[int] | None = None,
    thresholds: np.ndarray | None = None,
    pricing: Pricing | None = None,
    journal: RunJournal | str | Path | None = None,
) -> SimulationResult:
    """One-call wrapper around :class:`DeploymentSimulation`."""
    sim = DeploymentSimulation(
        graph, early_adopter_asns, config, cache, player_asns, thresholds, pricing
    )
    return sim.run(journal=journal)
