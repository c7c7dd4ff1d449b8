"""Kernel backend registry: one namespace, several implementations.

The five hot kernels — the per-destination structure build (three
passes plus the tiebreak CSR, one chunk of destinations per call), the
batched tree resolver, the batched subtree weights, the
synchronous-Jacobi fixpoint sweep, and its multi-origin attack variant —
exist in multiple implementations ("backends") behind this registry.
The tree resolver and subtree weights come in two shapes: the loop
tiers expose ``trees_slots`` / ``weights_slots``, which resolve a whole
slot list in one call over the arena's pools, and numpy exposes
``trees_level`` / ``weights_level``, one stacked global level per call
(:func:`~repro.routing.arena.compute_trees_batched` picks by which the
tier has):

- ``numpy``: the original vectorised code, moved verbatim into
  :mod:`repro.routing.backends.numpy_impl` (its structure build loops
  over :func:`~repro.routing.tree.compute_dest_routing`).  It is the
  **differential ground truth**: every other backend must produce
  bit-identical outputs (asserted by ``tests/routing/test_backends.py``
  and ``tests/routing/test_structure_build.py``).
- ``numba``: ``@njit``-compiled loops over the arena's flat CSR
  pools (:mod:`repro.routing.backends.numba_impl`).  Numba is an
  *optional* dependency (the ``compiled`` extra); the module is only
  imported when the backend is requested, compiles with ``cache=True``
  so warm processes skip recompilation, and warms up on tiny inputs at
  load so the first real kernel call never pays the JIT.
- ``cext``: the same loops as a small C translation unit, compiled once
  per source digest with the system C compiler and bound through
  ``ctypes`` (:mod:`repro.routing.backends.cext_impl`).  No build-time
  dependency beyond ``cc``; the shared object is cached on disk.
- ``python``: the pure-Python loop bodies that ``numba`` compiles
  (:mod:`repro.routing.backends._loops`), registered *hidden* so the
  parity suite can exercise the exact compiled control flow without a
  JIT.  Far too slow for real runs; never selected by ``auto``.

Selection: explicit name > ``SBGP_KERNEL_BACKEND`` env var > ``numpy``.
``auto`` picks the fastest *usable* compiled backend.  An explicitly
requested backend that cannot load **degrades** to numpy through the
resource guard's ``compiled_to_numpy`` ladder rung — a counted,
observable event, never an error — so a run specced for numba still
completes on a box without it.

Kernel *implementation* modules must never be imported outside this
package (lint rule RPR013): consumers go through
:func:`resolve_backend` / :func:`kernels_for` so the fallback and the
telemetry stay on the only path.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import os
import shutil
import threading
import time
from typing import Any

import numpy as np

from repro.routing.errors import BackendUnavailable
from repro.runtime.guard import current_guard
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import get_tracer

__all__ = [
    "AUTO",
    "BackendUnavailable",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "KernelBackend",
    "available_backends",
    "backend_status",
    "default_backend_name",
    "get_backend",
    "kernels_for",
    "load_backend",
    "probe",
    "register_backend",
    "resolve_backend",
    "structure_capacity",
    "usable_backends",
]

#: Environment variable consulted when no backend is named explicitly.
ENV_VAR = "SBGP_KERNEL_BACKEND"

#: The differential ground truth and universal fallback.
DEFAULT_BACKEND = "numpy"

#: Pseudo-name: pick the best usable compiled backend, else numpy.
AUTO = "auto"

#: ``auto`` preference order among compiled backends.
_COMPILED_PREFERENCE = ("numba", "cext")


@dataclasses.dataclass(frozen=True)
class KernelBackend:
    """Registry descriptor for one kernel implementation tier.

    ``module`` is imported lazily on first use; ``requires`` lists
    third-party modules that must be importable (checked cheaply with
    ``find_spec`` by :func:`probe`, without triggering compilation);
    ``needs_cc`` marks backends that additionally want a C compiler on
    PATH.  ``hidden`` keeps test-only backends out of user-facing
    listings (CLI choices, ``/healthz``) while leaving them resolvable
    by exact name.  ``structure_warm`` lets the routing cache's warm run
    this tier's ``structure_build`` kernel (set only where that kernel
    has been parity-checked against numpy).
    """

    name: str
    description: str
    module: str
    compiled: bool = False
    requires: tuple[str, ...] = ()
    needs_cc: bool = False
    hidden: bool = False
    structure_warm: bool = False


_REGISTRY: dict[str, KernelBackend] = {}
_IMPLS: dict[str, Any] = {}
_FAILURES: dict[str, str] = {}
#: Serialises the import/compile slow path of :func:`load_backend`.
_LOAD_LOCK = threading.Lock()


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add ``backend`` to the registry (idempotent for equal specs)."""
    existing = _REGISTRY.get(backend.name)
    if existing is not None and existing != backend:
        raise ValueError(
            f"kernel backend {backend.name!r} already registered with a "
            f"different spec"
        )
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> KernelBackend:
    """The descriptor for ``name``; raises ``ValueError`` when unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; registered: "
            f"{', '.join(available_backends())} (or {AUTO!r})"
        ) from None


def available_backends() -> list[str]:
    """Registered, user-facing backend names (sorted; hidden excluded)."""
    return sorted(n for n, b in _REGISTRY.items() if not b.hidden)


def _have_compiler() -> bool:
    cc = os.environ.get("CC") or "cc"
    return shutil.which(cc) is not None or shutil.which("gcc") is not None


def probe(name: str) -> bool:
    """Cheap availability check — no import, no JIT, no compilation.

    Used by the daemon's ``/healthz`` and by ``auto`` selection, so it
    must stay O(find_spec).  A ``True`` is a *prediction*; the load can
    still fail, in which case the caller degrades.
    """
    if name in _IMPLS:
        return True
    if name in _FAILURES:
        return False
    backend = _REGISTRY.get(name)
    if backend is None:
        return False
    try:
        for module in backend.requires:
            if importlib.util.find_spec(module) is None:
                return False
    except (ImportError, ValueError):
        return False
    if backend.needs_cc and not _have_compiler():
        return False
    return True


def usable_backends() -> list[str]:
    """Registered user-facing backends that :func:`probe` accepts."""
    return [name for name in available_backends() if probe(name)]


def backend_status() -> dict[str, str]:
    """``{name: loaded|available|unavailable}`` for every visible backend."""
    out: dict[str, str] = {}
    for name in available_backends():
        if name in _IMPLS:
            out[name] = "loaded"
        elif probe(name):
            out[name] = "available"
        else:
            out[name] = "unavailable"
    return out


def load_backend(name: str) -> Any:
    """Import (and for compiled tiers, compile + warm) backend ``name``.

    Returns the implementation module exposing ``structure_build``,
    ``trees_slots`` and ``weights_slots`` (numpy: ``trees_level`` and
    ``weights_level``), ``fixpoint_sweep`` and ``attack_sweep``.  Load
    results are cached both ways: a success is never re-imported, a
    failure is never retried within the process (compilation attempts
    are expensive and deterministic).
    """
    impl = _IMPLS.get(name)
    if impl is not None:
        return impl
    # Double-checked: the fast path above is lock-free; the slow path is
    # serialised so concurrent scheduler threads cannot race a compile
    # and double-import the same tier.
    with _LOAD_LOCK:
        impl = _IMPLS.get(name)
        if impl is not None:
            return impl
        if name in _FAILURES:
            raise BackendUnavailable(
                f"kernel backend {name!r} unavailable: {_FAILURES[name]}"
            )
        backend = get_backend(name)
        registry = get_registry()
        started = time.perf_counter()
        try:
            with get_tracer().span(f"backend.load.{name}"):
                impl = importlib.import_module(backend.module)
        except (ImportError, OSError, RuntimeError) as exc:
            _FAILURES[name] = str(exc) or type(exc).__name__
            registry.counter(f"routing.backend.load_failures.{name}").inc()
            raise BackendUnavailable(
                f"kernel backend {name!r} unavailable: {exc}"
            ) from exc
        if backend.compiled:
            # JIT/cc time for the whole tier (cache hits land near zero, so
            # the histogram doubles as a compile-cache effectiveness probe).
            registry.histogram("routing.backend.compile_seconds").observe(
                time.perf_counter() - started
            )
        _IMPLS[name] = impl
        return impl


def _note_active(name: str) -> None:
    registry = get_registry()
    if not registry.enabled:
        return
    for other in available_backends():
        registry.gauge(f"routing.backend.active.{other}").set(
            1.0 if other == name else 0.0
        )


def default_backend_name() -> str:
    """The name selection falls back to: env var, else ``numpy``."""
    return os.environ.get(ENV_VAR, "").strip() or DEFAULT_BACKEND


def resolve_backend(name: str | None = None) -> str:
    """Resolve a requested backend to a *loaded*, usable backend name.

    ``None`` defers to :func:`default_backend_name`; ``auto`` picks the
    first loadable entry of ``numba > cext``, else numpy.  An explicit
    name that is registered but will not load degrades to numpy via the
    guard's ``compiled_to_numpy`` rung.  Only a name that is not
    registered at all raises (that is a spelling error, not a resource
    condition).
    """
    requested = name if name is not None else default_backend_name()
    if requested == AUTO:
        for candidate in _COMPILED_PREFERENCE:
            if candidate in _REGISTRY and probe(candidate):
                try:
                    load_backend(candidate)
                except BackendUnavailable:
                    continue
                _note_active(candidate)
                return candidate
        load_backend(DEFAULT_BACKEND)
        _note_active(DEFAULT_BACKEND)
        return DEFAULT_BACKEND
    backend = get_backend(requested)
    try:
        load_backend(backend.name)
    except BackendUnavailable as exc:
        current_guard().degrade(
            "compiled_to_numpy",
            f"kernel backend {requested!r} unavailable ({exc}); "
            f"running on the numpy tier",
        )
        load_backend(DEFAULT_BACKEND)
        _note_active(DEFAULT_BACKEND)
        return DEFAULT_BACKEND
    _note_active(backend.name)
    return backend.name


def structure_capacity(
    num_dests: int,
    n: int,
    cust_indptr: np.ndarray,
    peer_indptr: np.ndarray,
    prov_indptr: np.ndarray,
) -> tuple[int, int, int, int]:
    """Pool sizes that always hold a ``structure_build`` chunk.

    ``(order, levels, indptr, cands)`` for ``num_dests`` destinations:
    at most ``n`` reachable rows, ``n + 1`` level starts and ``n + 1``
    row offsets each, and at most one candidate per entry of each node's
    longest adjacency list (a node's tiebreak set comes from the single
    list its route class allows).  ``keys`` is sized like ``cands``.
    """
    per_node = np.maximum(
        np.maximum(np.diff(cust_indptr), np.diff(peer_indptr)),
        np.diff(prov_indptr),
    )
    return (
        num_dests * n,
        num_dests * (n + 1),
        num_dests * (n + 1),
        num_dests * int(per_node.sum()),
    )


def kernels_for(name: str) -> tuple[str, Any]:
    """``(resolved name, impl module)`` for a kernel call site.

    The call-time companion of :func:`resolve_backend`: arenas carry a
    backend *name* (it travels through shared memory and job specs as
    plain data), and the consuming process may lack that backend — so
    the dispatcher, not the producer, owns the degradation.
    """
    try:
        return name, load_backend(name)
    except (BackendUnavailable, ValueError) as exc:
        if name == DEFAULT_BACKEND:
            raise
        current_guard().degrade(
            "compiled_to_numpy",
            f"kernel backend {name!r} unusable at call time ({exc}); "
            f"running on the numpy tier",
        )
        return DEFAULT_BACKEND, load_backend(DEFAULT_BACKEND)


register_backend(
    KernelBackend(
        name="numpy",
        description="vectorised numpy kernels (differential ground truth)",
        module="repro.routing.backends.numpy_impl",
    )
)
register_backend(
    KernelBackend(
        name="numba",
        description="@njit-compiled loops (optional 'compiled' extra)",
        module="repro.routing.backends.numba_impl",
        compiled=True,
        requires=("numba",),
    )
)
register_backend(
    KernelBackend(
        name="cext",
        description="C translation unit compiled with the system cc, via ctypes",
        module="repro.routing.backends.cext_impl",
        compiled=True,
        needs_cc=True,
        structure_warm=True,
    )
)
register_backend(
    KernelBackend(
        name="python",
        description="pure-Python loop bodies (numba's source; parity tests only)",
        module="repro.routing.backends._loops",
        hidden=True,
    )
)
