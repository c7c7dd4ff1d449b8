"""End-to-end benchmark of the S*BGP deployment simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload case_study --seed 2011 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

A run covers a fixed set of topologies derived from ``--seed``.  It
first computes their ground-truth digests, untimed, then visits the
topologies in turn until ``--seconds`` have passed.  Every iteration is
a fresh process forked from one server (``iteration.py``) that has
imported the package and loaded the backend but never built an
environment, so set-up time and peak memory never inherit an earlier
iteration's caches.  A time metric is the fastest of one topology's
iterations, averaged over the topologies and scaled to a reference
host speed by a probe each iteration times first; peak memory is the
median of a topology's iterations, averaged the same way.  ``--trace 1`` runs an untraced and a traced iteration per
visit and reports the per-layer ledger instead (see
``perfbench/README.md``).

Every iteration's output is checked against the digest of the same
workload and seed run on the numpy backend with one worker, and the
counts the ledger reports must repeat exactly across runs of one
workload and seed.  Both references are kept under ``.perfbench_cache/``
keyed by a digest of the sources.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ledger  # perfbench/ is first on sys.path when run as a script
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"

#: one run (ground truth included) must end within this many seconds
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}

#: fastest time of ``iteration.host_probe`` on the reference host (a
#: 2-vCPU Xeon VM); end-to-end times are reported at the host speed at
#: which the probe's fastest run in the window takes this long
PROBE_REF_S = 0.017


def log(message: str) -> None:
    print(message, flush=True)


def source_digest() -> str:
    """Digest of the program and benchmark sources (keys the references)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def topology_seeds(seed: int, count: int) -> list[int]:
    """The topology seeds of one run, derived from the benchmark seed."""
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


class Deadline(Exception):
    """The run's time budget ran out while an iteration was in flight."""


class Server:
    """The run's iteration server (``iteration.py``) in its own process group.

    Every iteration is a child the server forks, so killing the group
    stops the server, its iterations and their fork workers at once.
    """

    def __init__(self, workload: Workload, deadline: float):
        self.deadline = deadline
        cmd = [
            sys.executable, str(HERE / "iteration.py"), "--root", str(ROOT),
            "--workload", workload.name, "--backend", workload.backend,
            "--workers", str(workload.workers),
        ]
        env = dict(os.environ, SBGP_KERNEL_CACHE=str(CACHE / "kernels"))
        env.pop("SBGP_KERNEL_BACKEND", None)
        self.proc = subprocess.Popen(
            cmd, env=env, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, start_new_session=True,
        )

    def read(self) -> dict:
        """The server's next record; an ``error`` record if it exited."""
        remaining = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0.0))
        if not ready:
            raise Deadline
        line = self.proc.stdout.readline()
        if not line:
            return {"error": f"iteration server exited with status {self.proc.wait()}"}
        return json.loads(line)

    def request(self, command: dict) -> dict:
        """Run one command (an iteration or a reference) and return its record."""
        try:
            self.proc.stdin.write(json.dumps(command) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return {"error": f"iteration server exited with status {self.proc.wait()}"}
        return self.read()

    def close(self) -> None:
        """Stop the server and wait until it and every child have ended."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)  # any straggling child
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()


class References:
    """Ground-truth digest and reference counts of one workload and seed."""

    def __init__(self, workload: Workload, seed: int, sources: str):
        self.workload = workload
        self.path = CACHE / "truth" / sources / f"{workload.name}-{seed}.json"
        self.data: dict = json.loads(self.path.read_text()) if self.path.exists() else {}

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, sort_keys=True))
        os.replace(tmp, self.path)

    def adopt(self, key: str, value) -> bool:
        """Record ``value`` as the reference if none exists; True if it matches."""
        if key not in self.data:
            self.data[key] = value
            self.save()
        return self.data[key] == value

    def check(self, record: dict, traced: bool) -> str:
        """Why ``record`` fails its output or count check ("" if it passes).

        Only a numpy, one-worker run sets the reference digest: a timed
        record when that is the workload's own configuration, a
        ``truth_only`` record otherwise.
        """
        if self.workload.is_ground_truth_config:
            self.adopt("digest", record["digest"])
        if "digest" not in self.data:
            return "no ground-truth digest to compare with"
        if record["digest"] != self.data["digest"]:
            return (f"output digest {record['digest'][:12]} differs from "
                    f"ground truth {self.data['digest'][:12]}")
        if traced:
            counts = {k: record["layers"][k] for k in ledger.DETERMINISTIC_COUNTS}
            if not self.adopt("counts", counts):
                return f"counts {counts} differ from reference {self.data['counts']}"
        return ""


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of ``workload``: the result object to print."""
    started = time.monotonic()
    server = Server(workload, deadline=started + RUN_BUDGET_S)
    try:
        return _measure(server, workload, seed, seconds, trace, started)
    except Deadline:
        log(f"[{workload.name}] FAILED: run budget of {RUN_BUDGET_S:.0f}s exceeded")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    finally:
        server.close()


def _measure(server: Server, workload: Workload, seed: int, seconds: float,
             trace: bool, started: float) -> dict:
    """Body of :func:`measure`.

    Ground-truth digests are computed first, outside the timed window.
    The window then visits the run's topologies in turn, in passes,
    until ``seconds`` have passed and every topology has been visited
    once.  A traced run makes one pair of an untraced and a traced
    iteration per visit, in alternating order, and needs two visits.
    """
    loaded = server.read()
    if "error" in loaded:
        log(f"[{workload.name}] backend {workload.backend} failed to load: "
            f"{loaded['error']}")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}

    sources = source_digest()
    seeds = topology_seeds(seed, workload.topologies)
    refs = {s: References(workload, s, sources) for s in seeds}
    attempted = failed = 0
    for s in seeds:
        if workload.is_ground_truth_config or "digest" in refs[s].data:
            continue
        record = server.request({"seed": s, "truth_only": True})
        if "error" in record:
            attempted += 1
            failed += 1
            log(f"[{workload.name}] seed {s} (reference) FAILED: {record['error']}")
        else:
            refs[s].adopt("digest", record["digest"])
    reference_s = time.monotonic() - started

    samples: dict[bool, dict[int, list[dict]]] = {False: {}, True: {}}
    overheads: list[float] = []  # traced run_s / untraced run_s - 1, per pair
    window_start = time.monotonic()
    visits = 0
    while failed == 0:
        s = seeds[visits % len(seeds)]
        kinds = ((False, True) if visits % 2 == 0 else (True, False)) if trace else (False,)
        pair = {}
        for want_trace in kinds:
            record = server.request({"seed": s, "trace": int(want_trace)})
            attempted += 1
            error = record.get("error") or refs[s].check(record, want_trace)
            kind = "traced" if want_trace else "plain"
            if error:
                failed += 1
                log(f"[{workload.name}] seed {s} ({kind}) FAILED: {error}")
                break
            samples[want_trace].setdefault(s, []).append(record)
            pair[want_trace] = record["run_s"]
            log(f"[{workload.name}] seed {s} ({kind}): "
                f"setup {record['setup_s']:.4f}s run {record['run_s']:.4f}s "
                f"rss {record['peak_rss_mb']:.1f}MiB probe "
                f"{record['probe_s'] * 1000:.2f}ms")
        if len(pair) == 2:
            overheads.append(pair[True] / pair[False] - 1.0)
        visits += 1
        elapsed = time.monotonic() - window_start
        if elapsed >= seconds and visits >= (2 if trace else len(seeds)):
            break
        if time.monotonic() - started > 0.8 * RUN_BUDGET_S:
            log(f"[{workload.name}] stopping early: run budget nearly spent")
            break

    metrics: dict[str, dict] = {}
    if failed == 0 and trace:
        traced = samples[True]
        for name, unit in ledger.UNITS.items():
            if name == "trace.overhead_frac":
                value = statistics.median(overheads)
            else:
                value = statistics.fmean(
                    statistics.median(r["layers"][name] for r in records)
                    for records in traced.values()
                )
            metrics[name] = {"value": value, "unit": unit}
        log(f"[{workload.name}] ledger.unattributed_frac "
            f"{metrics['ledger.unattributed_frac']['value']:.3f} (target <= 0.05); "
            "core.projection_ms.tail percentiles " + ", ".join(
                f"p{records[0]['projection_tail_pct']:.1f}"
                for records in traced.values()))
    elif failed == 0:
        plain = samples[False]
        probe_s = min(r["probe_s"] for records in plain.values() for r in records)
        for name, unit in END_TO_END_UNITS.items():
            if unit == "s":  # the fastest iteration: interference only adds time
                raw = statistics.fmean(
                    min(r[name] for r in records) for records in plain.values()
                )
                value = raw * PROBE_REF_S / probe_s
                log(f"[{workload.name}] {name}: fastest {raw:.4f}s as timed, "
                    f"host probe {probe_s * 1000:.2f}ms, {value:.4f}s at "
                    f"reference speed")
            else:
                value = statistics.fmean(
                    statistics.median(r[name] for r in records)
                    for records in plain.values()
                )
            metrics[name] = {"value": value, "unit": unit}
    log(f"[{workload.name}] {len(samples[trace])} topologies, {attempted} "
        f"iterations, error_rate {failed / max(attempted, 1):.3f}; backend load "
        f"(untimed) {loaded['backend_load_s']:.3f}s; references (untimed) "
        f"{reference_s:.1f}s")
    return {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    for name, res in results.items():
        rate = res["failed"] / res["attempted"]
        log(f"{name:>14}  error_rate {rate:.3f} ratio")
        for metric, m in res["metrics"].items():
            log(f"{name:>14}  {metric} {m['value']:.6g} {m['unit']}")
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": m
                for name, res in results.items()
                for metric, m in res["metrics"].items()
            },
        }
    else:
        final = results[args.workload]
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
