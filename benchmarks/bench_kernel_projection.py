"""Kernel ablation: incremental vs full projected-utility engines.

DESIGN.md calls this out: both produce identical values (tests assert
it).  The incremental engine prunes non-reactive destinations and
propagates deltas per node in Python; the full engine re-resolves every
relevant destination in one batched kernel call.  End to end the full
engine wins (about 3x at N=2000 on both numpy and cext), so it is the
default of ``SimulationConfig`` and ``project_flip`` alike; these
benches keep the per-call comparison visible.
"""

from __future__ import annotations

import pytest

from repro.core.config import ProjectionEngine, UtilityModel
from repro.core.engine import compute_round_data
from repro.core.projection import project_flip
from repro.core.state import DeploymentState, StateDeriver


@pytest.fixture(scope="module")
def game_state(env):
    deriver = StateDeriver(env.graph, compiled=env.cache.compiled)
    adopters = frozenset(env.graph.index(a) for a in env.case_study_adopters())
    state = DeploymentState.initial(adopters)
    rd = compute_round_data(env.cache, deriver, state, UtilityModel.OUTGOING)
    isp = next(i for i in env.graph.isp_indices if i not in adopters)
    return deriver, rd, isp


def test_kernel_projection_incremental(benchmark, env, game_state):
    deriver, rd, isp = game_state
    proj = benchmark(
        lambda: project_flip(
            env.cache, deriver, rd, isp, True, UtilityModel.OUTGOING,
            ProjectionEngine.INCREMENTAL,
        )
    )
    assert proj.utility >= 0


def test_kernel_projection_full(benchmark, env, game_state):
    deriver, rd, isp = game_state
    proj = benchmark(
        lambda: project_flip(
            env.cache, deriver, rd, isp, True, UtilityModel.OUTGOING,
            ProjectionEngine.FULL,
        )
    )
    assert proj.utility >= 0


def test_kernel_engines_identical(env, game_state):
    deriver, rd, isp = game_state
    inc = project_flip(env.cache, deriver, rd, isp, True,
                       UtilityModel.OUTGOING, ProjectionEngine.INCREMENTAL)
    full = project_flip(env.cache, deriver, rd, isp, True,
                        UtilityModel.OUTGOING, ProjectionEngine.FULL)
    assert inc.utility == pytest.approx(full.utility)
