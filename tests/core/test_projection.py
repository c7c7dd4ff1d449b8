"""Projection engines must equal brute-force flipped-state utilities."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ProjectionEngine, UtilityModel
from repro.core.engine import compute_round_data
from repro.core.projection import per_destination_turn_off_gains, project_flip
from repro.core.state import DeploymentState, StateDeriver
from repro.routing.cache import RoutingCache
from repro.topology.generator import generate_topology
from repro.topology.traffic import apply_traffic_model


def brute_force_utility(cache, deriver, state, isp, turning_on, model) -> float:
    flipped = (
        state.with_flips(turn_on=[isp])
        if turning_on
        else state.with_flips(turn_off=[isp])
    )
    rd = compute_round_data(cache, deriver, flipped, model)
    return float(rd.utilities[isp])


@pytest.fixture(scope="module")
def setup():
    top = generate_topology(n=160, seed=21)
    g = top.graph
    apply_traffic_model(g, 0.10)
    cache = RoutingCache(g)
    cache.warm()
    return g, cache


@pytest.mark.parametrize("model", [UtilityModel.OUTGOING, UtilityModel.INCOMING])
@pytest.mark.parametrize("stub_breaks", [True, False])
def test_projection_equals_ground_truth(setup, model, stub_breaks):
    g, cache = setup
    deriver = StateDeriver(g, stub_breaks_ties=stub_breaks, compiled=cache.compiled)
    rng = random.Random(5)
    isps = g.isp_indices
    ea = frozenset(rng.sample(isps, 3))
    extra = [i for i in rng.sample(isps, 12) if i not in ea][:6]
    state = DeploymentState.initial(ea).with_flips(turn_on=extra)
    rd = compute_round_data(cache, deriver, state, model)

    on_candidates = [i for i in isps if i not in state.deployers][:10]
    off_candidates = extra
    for isp, on in [(i, True) for i in on_candidates] + [(i, False) for i in off_candidates]:
        truth = brute_force_utility(cache, deriver, state, isp, on, model)
        for engine in (ProjectionEngine.INCREMENTAL, ProjectionEngine.FULL):
            proj = project_flip(cache, deriver, rd, isp, on, model, engine)
            assert proj.utility == pytest.approx(truth, abs=1e-6), (
                isp, on, model, engine
            )


def test_projection_reports_flips(setup):
    g, cache = setup
    deriver = StateDeriver(g, compiled=cache.compiled)
    state = DeploymentState(frozenset(), frozenset())
    rd = compute_round_data(cache, deriver, state, UtilityModel.OUTGOING)
    isp = g.isp_indices[0]
    proj = project_flip(cache, deriver, rd, isp, True, UtilityModel.OUTGOING)
    assert proj.flips[isp] is True
    stubs = deriver.stubs_of(isp)
    for s in stubs:
        assert proj.flips.get(int(s)) is True


def test_turn_on_never_hurts_outgoing(setup):
    """Theorem H.1's flip side: deploying cannot lose outgoing traffic."""
    g, cache = setup
    deriver = StateDeriver(g, compiled=cache.compiled)
    rng = random.Random(11)
    state = DeploymentState.initial(frozenset(rng.sample(g.isp_indices, 5)))
    rd = compute_round_data(cache, deriver, state, UtilityModel.OUTGOING)
    for isp in [i for i in g.isp_indices if i not in state.deployers][:20]:
        proj = project_flip(cache, deriver, rd, isp, True, UtilityModel.OUTGOING)
        assert proj.utility >= float(rd.utilities[isp]) - 1e-9


def test_per_destination_turn_off_gains(setup):
    g, cache = setup
    deriver = StateDeriver(g, stub_breaks_ties=False, compiled=cache.compiled)
    rng = random.Random(3)
    deployers = frozenset(rng.sample(g.isp_indices, 8))
    state = DeploymentState(deployers, frozenset())
    rd = compute_round_data(cache, deriver, state, UtilityModel.INCOMING)
    for isp in list(deployers)[:5]:
        gains = per_destination_turn_off_gains(cache, deriver, rd, isp)
        for dest, gain in gains.items():
            assert gain > 0
            assert dest != isp


def test_state_dependent_projection_runs_on_cache_backend(monkeypatch):
    """A cext cache's security_2nd projections rebuild on the cext kernels:
    the flip projection and the per-destination turn-off gains both."""
    from repro.routing import backends as kernel_backends
    from repro.routing import fixpoint
    from repro.routing.errors import BackendUnavailable

    try:
        kernel_backends.load_backend("cext")
    except BackendUnavailable:
        pytest.skip("cext backend unusable here")
    g = generate_topology(n=80, seed=4).graph
    apply_traffic_model(g, 0.10)
    cache = RoutingCache(g, policy="security_2nd", backend="cext")
    deriver = StateDeriver(g, compiled=cache.compiled)
    isps = g.isp_indices
    state = DeploymentState.initial(frozenset(isps[:2]))
    rd = compute_round_data(cache, deriver, state, UtilityModel.OUTGOING)

    seen: list[str | None] = []
    real = fixpoint.fixpoint_dest_routings

    def spy(*args, **kwargs):
        seen.append(kwargs.get("backend"))
        return real(*args, **kwargs)

    monkeypatch.setattr(fixpoint, "fixpoint_dest_routings", spy)
    proj = project_flip(cache, deriver, rd, isps[2], True, UtilityModel.OUTGOING)
    assert proj.dests_recomputed > 0
    assert seen and set(seen) == {"cext"}

    seen.clear()
    per_destination_turn_off_gains(cache, deriver, rd, isps[0])
    assert seen and set(seen) == {"cext"}
