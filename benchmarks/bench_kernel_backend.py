"""Backend tier benchmarks: numpy vs compiled kernels, same inputs.

One parametrised set of benches per loadable backend, same arena and
security state, so the per-backend numbers in the snapshot are directly
comparable.  ``make bench-compare`` asserts the compiled tier's
headline claim — batched all-destination trees at least 3x faster than
numpy — against the committed ``BENCH_*_kernel_compiled.json``
snapshot, so a regression that erodes the compiled speedup fails CI the
same way a numpy kernel regression does.

Scale: ``REPRO_BENCH_BACKEND_N`` ASes (default 4000 — the CI smoke
size; the committed snapshot is recorded at 12000, the size the >= 3x
acceptance gate is specified at).  Destinations are sampled, as at
paper scale: the kernels stream over ``[num_dests, n]`` blocks either
way, so per-call cost scales with both knobs independently.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.experiments.setup import build_environment
from repro.routing import backends as kernel_backends
from repro.routing.arena import compute_trees_batched, subtree_weights_batched
from repro.routing.errors import BackendUnavailable
from repro.routing.policy import get_policy

BACKEND_N = int(os.environ.get("REPRO_BENCH_BACKEND_N", "4000"))
BACKEND_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2011"))
NUM_DESTS = 64
FIXPOINT_DESTS = 16
#: destinations one flip projection typically re-resolves
SUBSET_SLOTS = 8


def _loadable() -> list[str]:
    out = []
    for name in kernel_backends.usable_backends():
        try:
            kernel_backends.load_backend(name)
        except BackendUnavailable:
            continue
        out.append(name)
    return out


BACKENDS = _loadable()

_cache: dict[str, object] = {}


def _env():
    if "env" not in _cache:
        _cache["env"] = build_environment(
            n=BACKEND_N, seed=BACKEND_SEED, x=0.10, warm=True,
            sample_destinations=NUM_DESTS,
        )
    return _cache["env"]


@pytest.fixture(scope="module")
def bench_env():
    return _env()


@pytest.fixture(scope="module")
def bench_state(bench_env):
    secure = np.zeros(bench_env.graph.n, dtype=bool)
    secure[::3] = True
    return secure


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_backend_trees(benchmark, bench_env, bench_state, backend):
    """Batched all-destination tree resolution — the headline kernel."""
    arena = bench_env.cache.ensure_arena()
    arena.backend = backend
    slots = arena.all_slots()
    # warm outside the timer: numpy's first call pays the lazy
    # level-major stacking
    compute_trees_batched(arena, slots, bench_state, bench_state)
    bt = benchmark(
        lambda: compute_trees_batched(arena, slots, bench_state, bench_state)
    )
    assert bt.choice.shape == (len(slots), bench_env.graph.n)


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_backend_subset_trees(benchmark, bench_env, bench_state, backend):
    """Projection-shaped: trees then weights of a few unsorted slots.

    A flip projection re-resolves only the destinations the flip can
    move, a handful per call, so this is where per-call overhead (the
    numpy tier's per-level gathers) shows against the kernel itself.
    """
    arena = bench_env.cache.ensure_arena()
    arena.backend = backend
    slots = np.arange(arena.num_dests, dtype=np.int64)[::-8][:SUBSET_SLOTS]
    weights = bench_env.graph.weights

    def project():
        bt = compute_trees_batched(arena, slots, bench_state, bench_state)
        return subtree_weights_batched(arena, slots, bt.choice, weights)

    project()  # numpy: the first call pays the lazy level-major stacking
    w = benchmark(project)
    assert w.shape == (SUBSET_SLOTS, bench_env.graph.n)


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_backend_weights(benchmark, bench_env, bench_state, backend):
    arena = bench_env.cache.ensure_arena()
    arena.backend = backend
    slots = arena.all_slots()
    bt = compute_trees_batched(arena, slots, bench_state, bench_state)
    w = benchmark(
        lambda: subtree_weights_batched(
            arena, slots, bt.choice, bench_env.graph.weights
        )
    )
    assert w.shape == bt.choice.shape


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_backend_fixpoint(benchmark, bench_env, bench_state, backend):
    """Synchronous-Jacobi structure build (state-dependent policy)."""
    pol = get_policy("security_2nd")
    dests = list(bench_env.cache.destinations[:FIXPOINT_DESTS])
    routings = benchmark(
        lambda: pol.build_many(
            bench_env.graph, dests, bench_env.cache.compiled,
            node_secure=bench_state, breaks_ties=bench_state,
            backend=backend,
        )
    )
    assert len(routings) == len(dests)
