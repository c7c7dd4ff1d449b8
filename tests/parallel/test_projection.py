"""Round projections run in the calling process, at any worker count.

``parallel_project_flips`` keeps its name (callers and profilers bind
it), but no longer fans out: every job runs here, in order, with the
guard's deadline checked between jobs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ProjectionEngine, SimulationConfig, UtilityModel
from repro.core.dynamics import DeploymentSimulation
from repro.core.engine import compute_round_data
from repro.core.projection import project_flip
from repro.core.state import DeploymentState, StateDeriver
from repro.experiments.case_study import run_case_study
from repro.experiments.setup import build_environment
from repro.parallel.engine import ProcessEngine, parallel_project_flips
from repro.runtime.errors import DeadlineExceeded
from repro.runtime.guard import Deadline, RuntimeGuard, use_guard


def _round(env):
    cache, graph = env.cache, env.graph
    deriver = StateDeriver(graph, compiled=cache.compiled)
    state = DeploymentState.initial(
        frozenset(graph.index(a) for a in env.case_study_adopters())
    )
    rd = compute_round_data(cache, deriver, state, UtilityModel.OUTGOING)
    jobs = [(int(i), True) for i in graph.isp_indices[:12]]
    return deriver, rd, jobs


class TestParallelProjection:
    def test_simulation_agrees_with_serial(self, medium_env):
        adopters = medium_env.case_study_adopters()
        results = []
        for workers in (1, 2):
            config = SimulationConfig(theta=0.02, max_rounds=6, workers=workers)
            sim = DeploymentSimulation(
                medium_env.graph, adopters, config, medium_env.cache
            )
            results.append(sim.run())
        serial, parallel = results
        assert serial.outcome == parallel.outcome
        assert [r.turned_on for r in serial.rounds] == [
            r.turned_on for r in parallel.rounds
        ]
        assert [r.turned_off for r in serial.rounds] == [
            r.turned_off for r in parallel.rounds
        ]
        np.testing.assert_array_equal(
            serial.final_utilities, parallel.final_utilities
        )

    def test_projection_values_identical(self, medium_env):
        """The batch entry point returns exactly the one-by-one projections."""
        cache = medium_env.cache
        deriver, rd, jobs = _round(medium_env)
        for engine in (ProjectionEngine.FULL, ProjectionEngine.INCREMENTAL):
            batch = parallel_project_flips(
                cache, deriver, rd, jobs,
                model=UtilityModel.OUTGOING, projection=engine,
            )
            single = [
                project_flip(cache, deriver, rd, isp, on,
                             UtilityModel.OUTGOING, engine)
                for isp, on in jobs
            ]
            assert [p.utility for p in batch] == [p.utility for p in single]
            assert [p.flips for p in batch] == [p.flips for p in single]
            assert [p.isp for p in batch] == [isp for isp, _ in jobs]


@pytest.mark.parametrize("backend", ["numpy", "cext"])
def test_two_worker_case_study_starts_no_process(backend, monkeypatch):
    env = build_environment(
        n=150, seed=5, x=0.10, warm=True, workers=2, backend=backend
    )

    def no_fork(self, fn, items):
        raise AssertionError("a projection started a worker process")

    monkeypatch.setattr(ProcessEngine, "map", no_fork)
    report = run_case_study(
        env, config=SimulationConfig(theta=0.02, max_rounds=4, workers=2)
    )
    assert report.result.num_rounds >= 1
    assert any(len(r.projections) > 1 for r in report.result.rounds)


class _TickClock:
    """Advances one second per reading: the n-th deadline check sees n."""

    def __init__(self) -> None:
        self.now = -1.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_deadline_fires_between_projections(medium_env, monkeypatch):
    """An expired budget stops a round's projections mid-way."""
    import repro.core.projection as projection

    deriver, rd, jobs = _round(medium_env)
    done: list[int] = []
    real = projection.project_flip

    def counting(*args, **kwargs):
        proj = real(*args, **kwargs)
        done.append(proj.isp)
        return proj

    monkeypatch.setattr(projection, "project_flip", counting)
    # the fourth check (before the fourth job) sees the budget gone
    guard = RuntimeGuard(deadline=Deadline(3.5, clock=_TickClock()))
    with use_guard(guard), pytest.raises(DeadlineExceeded, match="projection 4/12"):
        parallel_project_flips(
            medium_env.cache, deriver, rd, jobs,
            model=UtilityModel.OUTGOING, projection=ProjectionEngine.FULL,
        )
    assert done == [isp for isp, _ in jobs[:3]]


def test_deadline_interrupts_a_simulation_round(medium_env):
    """The round boundary passes; a check between its projections fires."""
    sim = DeploymentSimulation(
        medium_env.graph, medium_env.case_study_adopters(),
        SimulationConfig(theta=0.02, max_rounds=6, workers=2), medium_env.cache,
    )
    guard = RuntimeGuard(deadline=Deadline(3.5, clock=_TickClock()))
    with use_guard(guard), pytest.raises(DeadlineExceeded, match=r"projection \d+/\d+"):
        sim.run()
