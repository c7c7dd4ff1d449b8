"""Dispatches the workers: `.map` / `.submit` first-arg and `Thread(target=...)`."""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.fixture016.worker import record, record_submitted


class MiniEngine:
    def map(self, fn, items):
        return [fn(item) for item in items]


def run_pool() -> None:
    engine = MiniEngine()
    engine.map(record, ["a", "b"])


def run_thread() -> threading.Thread:
    thread = threading.Thread(target=record, args=("t",))
    thread.start()
    return thread


def run_executor() -> None:
    with ThreadPoolExecutor(max_workers=2) as pool:
        pool.submit(record_submitted, "s").result()
