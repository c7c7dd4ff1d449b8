"""The per-layer ledger: spans around each layer's public functions.

:func:`install` rebinds the public functions of the ``topology``,
``routing``, ``parallel``, ``core``, ``security`` and ``experiments``
layers, at every module-level name their callers use, to wrappers that
record a span per call.  Nothing under ``src/`` changes; the rebinding
lives in the benchmark's own process, and only in traced runs.

A span's self time is its duration minus the durations of the spans
it directly contains, so the self times of all spans add up to the
time covered by the outermost spans.  ``ledger.unattributed_frac`` is
what they leave of the run's wall time.

Projections run in forked workers under ``workers > 1``.  Their spans
die with the worker, so the worker-side wrapper attaches the call's
duration and self time to the returned projection, and the parent's
``parallel_project_flips`` span harvests them: the worker time lands
in the ``core.projection_*`` metrics, while the parent's ledger
attributes the same wall time to ``parallel.project`` once.
"""

from __future__ import annotations

import collections
import functools
import importlib
import os
import statistics
import sys
import time
from typing import Callable

#: attribute a forked worker's projection span travels back under
_REMOTE_SPAN = "_perfbench_span"


class Ledger:
    """In-memory span and count store for one traced process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._stack: list[list[float]] = []  # [start, time in child spans]
        self.self_s: dict[str, float] = collections.defaultdict(float)
        self.total_s: dict[str, float] = collections.defaultdict(float)
        self.durations: dict[str, list[float]] = collections.defaultdict(list)
        self.counts: collections.Counter[str] = collections.Counter()
        #: self time of projections run in forked workers (not in the
        #: ledger: the parent's ``parallel.project`` span covers it)
        self.remote_projection_self_s = 0.0

    def span(self, layer: str, fn: Callable, count: Callable | None = None) -> Callable:
        """Wrap ``fn`` so each call records a ``layer`` span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[0]
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += duration
                own = duration - frame[1]
                self.self_s[layer] += own
                self.total_s[layer] += duration
                self.durations[layer].append(duration)
            if count is not None:
                count(self, args, result)
            if layer == "core.projection" and os.getpid() != self.pid:
                object.__setattr__(result, _REMOTE_SPAN, (duration, own))
            return result

        return traced

    def harvest_remote_projections(self, projections) -> None:
        """Fold spans that forked workers attached to their projections."""
        for proj in projections:
            remote = getattr(proj, _REMOTE_SPAN, None)
            if remote is None:
                continue  # projected in this process: already recorded
            duration, own = remote
            self.total_s["core.projection"] += duration
            self.durations["core.projection"].append(duration)
            self.remote_projection_self_s += own
            self.counts["core.dests_recomputed"] += proj.dests_recomputed

    def attributed_s(self) -> float:
        """Sum of self times over every span recorded in this process."""
        return sum(self.self_s.values())


def _count_arg(key: str, index: int) -> Callable:
    def count(ledger: Ledger, args, result) -> None:
        ledger.counts[key] += len(args[index])

    return count


def _count_projection(ledger: Ledger, args, result) -> None:
    ledger.counts["core.dests_recomputed"] += result.dests_recomputed


def _count_fanout(ledger: Ledger, args, result) -> None:
    ledger.harvest_remote_projections(result)


#: (defining module, function or Class.method, layer span, count hook)
SPANS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.topology.generator", "generate_topology", "topology.generate", None),
    ("repro.topology.traffic", "apply_traffic_model", "topology.generate", None),
    ("repro.routing.cache", "RoutingCache.__init__", "routing.csr_compile", None),
    ("repro.routing.cache", "RoutingCache.warm", "routing.structure_build", None),
    ("repro.routing.policy", "RoutingPolicy.build_many", "routing.structure_build", None),
    ("repro.routing.cache", "RoutingCache.ensure_arena", "routing.arena_pack", None),
    ("repro.routing.arena", "compute_trees_batched", "routing.trees_batched",
     _count_arg("routing.trees_batched_rows", 1)),
    ("repro.routing.arena", "subtree_weights_batched", "routing.weights_batched", None),
    ("repro.routing.fixpoint", "fixpoint_dest_routings", "routing.fixpoint",
     _count_arg("routing.fixpoint_dests", 1)),
    ("repro.parallel.engine", "parallel_warm_cache", "parallel.warm", None),
    ("repro.parallel.engine", "parallel_project_flips", "parallel.project", _count_fanout),
    ("repro.core.engine", "compute_round_data", "core.round", None),
    ("repro.core.projection", "project_flip", "core.projection", _count_projection),
    ("repro.security.hijack", "simulate_attacks_batched", "security.attack",
     _count_arg("security.attack_pairs", 1)),
    ("repro.security.scenarios", "DeploymentStrategy.states", "security.strategy_states", None),
    ("repro.experiments.case_study", "build_report", "experiments.report", None),
    ("repro.core.metrics", "deployment_outcome", "experiments.report", None),
    ("repro.core.metrics", "security_snapshot", "experiments.report", None),
    ("repro.core.metrics", "projection_accuracy", "experiments.report", None),
    ("repro.security.metrics", "impact_from_outcomes", "experiments.report", None),
)


def install(ledger: Ledger) -> None:
    """Rebind every function in :data:`SPANS` to its traced wrapper.

    A method is replaced on its class.  A function is replaced in every
    loaded ``repro`` module that binds it by name, so ``from x import f``
    call sites see the wrapper as well as lazy imports made later.
    """
    for module_name, qualname, layer, count in SPANS:
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, attr, ledger.span(layer, cls.__dict__[attr], count))
            continue
        original = getattr(module, qualname)
        wrapped = ledger.span(layer, original, count)
        for name, loaded in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and getattr(
                loaded, qualname, None
            ) is original:
                setattr(loaded, qualname, wrapped)


def tail_ms(durations: list[float]) -> tuple[float, float]:
    """``(percentile, value in ms)`` of the highest percentile that keeps
    at least ten samples above it; the median while that percentile
    would lie below it (fewer than 21 samples)."""
    ordered = sorted(durations)
    if len(ordered) < 21:
        return 50.0, 1000.0 * statistics.median(ordered) if ordered else 0.0
    k = len(ordered) - 11  # ten samples lie strictly beyond index k
    return 100.0 * (k + 1) / len(ordered), 1000.0 * ordered[k]


def layer_metrics(ledger: Ledger, wall_s: float, setup_stats, final_stats,
                  n: int, cells: int, no_convergence: int) -> dict[str, float]:
    """Every per-layer metric of one traced run, by name.

    ``setup_stats`` / ``final_stats`` are ``RoutingCache.stats()`` right
    after set-up and after the run; ``wall_s`` is set-up plus run.
    """
    s, t, c, d = ledger.self_s, ledger.total_s, ledger.counts, ledger.durations
    structures = final_stats.builds + final_stats.installs
    warmed = setup_stats.builds + setup_stats.installs
    pairs = c["security.attack_pairs"]
    arena_cells = final_stats.total * n
    projections = d["core.projection"]
    return {
        "topology.generate_s": s["topology.generate"],
        "routing.csr_compile_s": s["routing.csr_compile"],
        "routing.structure_build_s": s["routing.structure_build"],
        "routing.structure_build_ms_per_dest":
            1000.0 * t["parallel.warm"] / warmed if warmed else 0.0,
        "routing.structures_built": structures,
        "routing.arena_pack_s": s["routing.arena_pack"],
        "routing.arena_mb": final_stats.arena_bytes / 2**20,
        "routing.arena_bytes_per_dest_node":
            final_stats.arena_bytes / arena_cells if arena_cells else 0.0,
        "routing.trees_batched_s": s["routing.trees_batched"],
        "routing.trees_batched_rows": c["routing.trees_batched_rows"],
        "routing.weights_batched_s": s["routing.weights_batched"],
        "routing.fixpoint_s": s["routing.fixpoint"],
        "routing.fixpoint_dests": c["routing.fixpoint_dests"],
        "routing.state_rebuilds": final_stats.state_rebuilds,
        "parallel.warm_s": s["parallel.warm"],
        "parallel.project_s": s["parallel.project"],
        "parallel.project_calls": len(d["parallel.project"]),
        "core.round_s": t["core.round"],
        "core.round_self_s": s["core.round"],
        "core.rounds": len(d["core.round"]),
        "core.round_ms.p50":
            1000.0 * statistics.median(d["core.round"]) if d["core.round"] else 0.0,
        "core.projection_s": t["core.projection"],
        "core.projection_self_s":
            s["core.projection"] + ledger.remote_projection_self_s,
        "core.projections": len(projections),
        "core.projection_ms.p50":
            1000.0 * statistics.median(projections) if projections else 0.0,
        "core.projection_ms.tail": tail_ms(projections)[1],
        "core.dests_recomputed": c["core.dests_recomputed"],
        "security.attack_s": t["security.attack"],
        "security.attack_pairs": pairs,
        "security.attack_ms_per_pair":
            1000.0 * t["security.attack"] / pairs if pairs else 0.0,
        "security.no_convergence_cells": no_convergence,
        "security.strategy_states_s": s["security.strategy_states"],
        "experiments.report_s": s["experiments.report"],
        "experiments.cells": cells,
        "ledger.unattributed_frac": (wall_s - ledger.attributed_s()) / wall_s,
    }


#: counts that must repeat exactly across runs of one workload and seed
DETERMINISTIC_COUNTS = (
    "core.rounds",
    "core.projections",
    "core.dests_recomputed",
    "routing.structures_built",
    "routing.trees_batched_rows",
    "security.attack_pairs",
    "experiments.cells",
)

#: unit of every per-layer metric, in report order
#: (``trace.overhead_frac`` compares traced with untraced runs, so it
#: comes from the runner, not from one ledger)
UNITS: dict[str, str] = {
    "topology.generate_s": "s",
    "routing.csr_compile_s": "s",
    "routing.structure_build_s": "s",
    "routing.structure_build_ms_per_dest": "ms",
    "routing.structures_built": "count",
    "routing.arena_pack_s": "s",
    "routing.arena_mb": "MiB",
    "routing.arena_bytes_per_dest_node": "B",
    "routing.trees_batched_s": "s",
    "routing.trees_batched_rows": "count",
    "routing.weights_batched_s": "s",
    "routing.fixpoint_s": "s",
    "routing.fixpoint_dests": "count",
    "routing.state_rebuilds": "count",
    "parallel.warm_s": "s",
    "parallel.project_s": "s",
    "parallel.project_calls": "count",
    "core.round_s": "s",
    "core.round_self_s": "s",
    "core.rounds": "count",
    "core.round_ms.p50": "ms",
    "core.projection_s": "s",
    "core.projection_self_s": "s",
    "core.projections": "count",
    "core.projection_ms.p50": "ms",
    "core.projection_ms.tail": "ms",
    "core.dests_recomputed": "count",
    "security.attack_s": "s",
    "security.attack_pairs": "count",
    "security.attack_ms_per_pair": "ms",
    "security.no_convergence_cells": "count",
    "security.strategy_states_s": "s",
    "experiments.report_s": "s",
    "experiments.cells": "count",
    "ledger.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}
