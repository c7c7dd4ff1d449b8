"""The benchmark's seeded workloads and the output check behind them.

Every workload builds its environment with ``build_environment`` and
runs one public experiment entry point (``run_case_study``,
``run_sweep`` or ``run_attack_matrix``).  The seed feeds the topology
generator, the attack pair sample and the ``random`` deployment
strategy; the program only ever sees the generated inputs.

:func:`digest` reduces a run's result to a canonical record (per-round
secure-AS counts, the final state, sweep cells, matrix cells with their
``no-convergence`` outcomes) and hashes it.  A timed run passes its
output check when its hash equals the hash of the same workload and
seed run on the ``numpy`` backend with one worker.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

#: floats enter the digest at this many significant digits, fixed
#: before any run: the kernel backends are bit-identical, so this
#: tolerance only absorbs formatting, never a real difference
DIGEST_DIGITS = 12

#: the deployment strategies of the attack matrix (``market_rounds``
#: replays a whole simulation and would make the workload a case study)
MATRIX_STRATEGIES = ("top_isp_first", "random", "stub_first")
MATRIX_LEVELS = (0.0, 0.5, 1.0)
MATRIX_PAIRS = 32

SWEEP_ADOPTERS = ("top-5", "cps+top-5")
SWEEP_THETAS = (0.05, 0.20)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: sizes, backend, worker count, experiment."""

    name: str
    experiment: str  # "case_study" | "sweep" | "attack_matrix"
    n: int
    backend: str
    workers: int
    topologies: int
    policy: str = "security_3rd"
    warm: bool = True

    @property
    def is_ground_truth_config(self) -> bool:
        """True when the timed configuration is itself the reference one."""
        return self.backend == "numpy" and self.workers == 1


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="case_study",
            experiment="case_study",
            n=600,
            topologies=8,
            backend="cext",
            workers=2,
        ),
        Workload(
            name="sweep",
            experiment="sweep",
            n=250,
            topologies=16,
            backend="numpy",
            workers=1,
        ),
        Workload(
            name="attack_matrix",
            experiment="attack_matrix",
            n=400,
            topologies=2,
            backend="cext",
            workers=1,
            warm=False,
        ),
        Workload(
            name="policy_sd",
            experiment="case_study",
            n=120,
            topologies=12,
            backend="cext",
            workers=1,
            policy="security_2nd",
        ),
    )
}


def setup(workload: Workload, seed: int, backend: str, workers: int):
    """``build_environment`` for ``workload`` (the timed set-up)."""
    from repro.experiments.setup import build_environment

    return build_environment(
        n=workload.n,
        seed=seed,
        x=0.10,
        warm=workload.warm,
        workers=workers,
        policy=workload.policy,
        backend=backend,
    )


def run(workload: Workload, env, seed: int, backend: str, workers: int):
    """Run the workload's experiment on ``env`` (the timed run)."""
    if workload.experiment == "case_study":
        from repro.core.config import SimulationConfig
        from repro.experiments.case_study import run_case_study

        config = SimulationConfig(theta=0.05, policy=workload.policy, workers=workers)
        return run_case_study(env, config=config)
    if workload.experiment == "sweep":
        from repro.experiments.sweeps import run_sweep

        menu = env.adopter_sets()
        return run_sweep(
            env,
            thetas=SWEEP_THETAS,
            adopter_sets={name: menu[name] for name in SWEEP_ADOPTERS},
        )
    if workload.experiment == "attack_matrix":
        from repro.experiments.attack_matrix import run_attack_matrix

        return run_attack_matrix(
            env,
            strategies=MATRIX_STRATEGIES,
            levels=MATRIX_LEVELS,
            samples=MATRIX_PAIRS,
            seed=seed,
            backend=backend,
        )
    raise ValueError(f"unknown experiment {workload.experiment!r}")


def cells(workload: Workload, result) -> int:
    """Experiment cells the run produced (one per simulation in a case study)."""
    return 1 if workload.experiment == "case_study" else len(result)


def no_convergence_cells(workload: Workload, result) -> int:
    """Attack-matrix cells whose policy did not converge (a legal outcome)."""
    if workload.experiment != "attack_matrix":
        return 0
    return sum(cell.outcome == "no-convergence" for cell in result)


def _record(workload: Workload, result) -> Any:
    if workload.experiment == "case_study":
        sim = result.result
        return {
            "secure_per_round": sim.secure_ases_per_round(),
            "adopting_isps_per_round": sim.adopting_isps_per_round(),
            "final_deployers": sorted(sim.final_state.deployers),
            "final_secure": [int(i) for i in sim.final_node_secure.nonzero()[0]],
            "final_utilities": [float(u) for u in sim.final_utilities],
            "outcome": sim.outcome.value,
        }
    if workload.experiment == "sweep":
        from repro.experiments.sweeps import cell_to_dict
    else:
        from repro.experiments.attack_matrix import cell_to_dict
    return [cell_to_dict(cell) for cell in result]


def _canonical(value: Any) -> Any:
    if isinstance(value, float):
        return format(value, f".{DIGEST_DIGITS}g")
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def digest(workload: Workload, result) -> str:
    """Hash of the run's canonical result record."""
    text = json.dumps(_canonical(_record(workload, result)), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
