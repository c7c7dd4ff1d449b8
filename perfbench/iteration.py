"""Benchmark iterations, each in a fresh process forked from one server.

``run.py`` starts one server per run.  The server imports the package
and loads the kernel backend (compiling it once per source revision)
before anything is timed, prints ``{"backend_load_s": ...}``, then
serves one JSON command per line of standard input::

    {"seed": 7, "trace": 0}          a timed iteration
    {"seed": 7, "truth_only": true}  digest of a numpy, one-worker run

For each command it forks a child that has never built an environment,
so set-up time and peak memory never inherit an earlier iteration's
caches, and prints the child's record as one JSON line.  A record with
an ``error`` key is a failed iteration.  Run by hand::

    echo '{"seed": 7, "trace": 1}' | python3 perfbench/iteration.py \
        --root . --workload policy_sd --backend cext --workers 1

A timed child first times :func:`host_probe`, a fixed piece of work
that runs no program code, so the runner can tell a slow host from a
slow program.  With ``"trace": 1`` the ledger's spans are installed in
the child before set-up and every per-layer metric is reported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _import_checkout(root: Path) -> None:
    """Import ``repro`` from ``root/src`` and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import repro

    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"repro imported from {origin}, not from {src}")


def host_probe() -> float:
    """Seconds a fixed mix of interpreter and numpy work takes right now."""
    import numpy as np

    started = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(60_000):
        table[i % 1009] = table.get(i % 1009, 0) + i
    values = np.arange(100_000, dtype=np.float64)
    for _ in range(20):
        values = np.sqrt(values * 1.0001 + 1.0)
        np.argsort(values[::97])
    return time.perf_counter() - started


def timed_iteration(workload, seed: int, backend: str, workers: int,
                    trace: bool) -> dict:
    """Set up and run ``workload`` once: the iteration's record."""
    import workloads

    spans = None
    if trace:
        import ledger

        spans = ledger.Ledger()
        ledger.install(spans)

    probe_s = host_probe()
    t0 = time.perf_counter()
    env = workloads.setup(workload, seed, backend, workers)
    t1 = time.perf_counter()
    setup_stats = env.cache.stats()
    t2 = time.perf_counter()
    result = workloads.run(workload, env, seed, backend, workers)
    t3 = time.perf_counter()

    if env.cache.backend_name != backend:
        raise RuntimeError(f"cache runs on {env.cache.backend_name!r}, not {backend!r}")
    # this process's peak plus the largest of its reaped fork workers
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    record = {
        "setup_s": t1 - t0,
        "run_s": t3 - t2,
        "peak_rss_mb": kib / 1024.0,
        "probe_s": probe_s,
        "digest": workloads.digest(workload, result),
    }
    if spans is not None:
        record["layers"] = ledger.layer_metrics(
            spans,
            wall_s=(t1 - t0) + (t3 - t2),
            setup_stats=setup_stats,
            final_stats=env.cache.stats(),
            n=env.graph.n,
            cells=workloads.cells(workload, result),
            no_convergence=workloads.no_convergence_cells(workload, result),
        )
        record["projection_tail_pct"] = ledger.tail_ms(
            spans.durations["core.projection"]
        )[0]
    return record


def truth_digest(workload, seed: int) -> dict:
    """Digest of ``workload`` run on numpy with one worker (the reference)."""
    import workloads

    env = workloads.setup(workload, seed, "numpy", 1)
    return {"digest": workloads.digest(workload, workloads.run(workload, env, seed, "numpy", 1))}


def serve_one(command: dict, workload, backend: str, workers: int) -> dict:
    """Run ``command`` in a forked child and return the record it sends back."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: one iteration, then exit without cleanup
        os.close(read_fd)
        code = 0
        try:
            if command.get("truth_only"):
                record = truth_digest(workload, command["seed"])
            else:
                record = timed_iteration(workload, command["seed"], backend,
                                         workers, bool(command.get("trace")))
        except BaseException as exc:  # reported to the runner as a failure
            last = traceback.format_exception_only(type(exc), exc)[-1].strip()
            record, code = {"error": last}, 1
        with os.fdopen(write_fd, "w") as pipe:
            pipe.write(json.dumps(record))
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if not text:
        return {"error": f"iteration process ended with status {status} and no record"}
    return json.loads(text)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--backend", required=True)
    parser.add_argument("--workers", type=int, required=True)
    args = parser.parse_args()

    import workloads  # the script's own directory is on sys.path

    workload = workloads.WORKLOADS[args.workload]
    started = time.perf_counter()
    _import_checkout(args.root)
    # everything the timed region touches, imported and loaded up front
    import repro.experiments.attack_matrix  # noqa: F401
    import repro.experiments.case_study  # noqa: F401
    import repro.experiments.setup  # noqa: F401
    import repro.experiments.sweeps  # noqa: F401
    from repro.routing.backends import load_backend

    load_backend(args.backend)  # raises if the backend cannot load
    import ledger  # noqa: F401  (loaded once here, installed per child)

    # keep the collector off the server's objects, so a child copies no
    # page it does not write itself
    gc.collect()
    gc.freeze()
    print(json.dumps({"backend_load_s": time.perf_counter() - started}), flush=True)
    for line in sys.stdin:
        record = serve_one(json.loads(line), workload, args.backend, args.workers)
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
