"""The load generator: closed and open loops over at most two threads.

Both loops run in the calling process with the calling thread plus at
most one helper thread, each holding at most one connection at a time
(the service answers HTTP/1.0, so every request opens its own
connection).  ``clock`` and ``sleep`` are injectable so the self-tests
can drive an open loop with a fake clock.
"""

from __future__ import annotations

import http.client
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

#: Most threads (the caller's included) a loop may use.
MAX_THREADS = 2


@dataclass(frozen=True)
class Sample:
    """One request as the generator saw it.

    ``due`` is when it should have been sent (the send time for a
    closed loop), ``sent`` when it was, ``end`` when its response was
    fully read; all on the ``clock`` the loop ran with.
    """

    index: int
    due: float
    sent: float
    end: float
    outcome: Any

    @property
    def latency(self) -> float:
        """Seconds from due to response (a stall delays later requests)."""
        return self.end - self.due

    @property
    def lag(self) -> float:
        """Seconds the generator sent late."""
        return self.sent - self.due


def _run_threads(body: Callable[[], None], threads: int) -> None:
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"threads must be 1..{MAX_THREADS}, got {threads}")
    helpers = [threading.Thread(target=body) for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    try:
        body()
    finally:
        for helper in helpers:
            helper.join()


def closed_loop(
    send: Callable[[int], Any],
    seconds: float,
    clients: int = 2,
    clock: Callable[[], float] = time.perf_counter,
) -> list[Sample]:
    """Each client sends its next request only after the last returned.

    ``send(i)`` performs request ``i`` (numbered in send order) and
    returns its outcome.  Clients stop starting requests once
    ``seconds`` have passed.
    """
    lock = threading.Lock()
    samples: list[Sample] = []
    counter = iter(range(1 << 62))
    stop_at = clock() + seconds

    def client() -> None:
        while True:
            sent = clock()
            if sent >= stop_at:
                return
            with lock:
                index = next(counter)
            outcome = send(index)
            end = clock()
            with lock:
                samples.append(Sample(index, sent, sent, end, outcome))

    _run_threads(client, clients)
    samples.sort(key=lambda sample: sample.index)
    return samples


def open_loop(
    due_offsets: list[float],
    send: Callable[[int], Any],
    workers: int = 2,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Sample]:
    """Send request ``i`` at ``due_offsets[i]`` seconds after the start.

    Requests go out in due order on whichever worker is free; when both
    are busy a request waits, and its latency still counts from its due
    time.
    """
    lock = threading.Lock()
    start = clock()
    counter = iter(range(len(due_offsets)))
    samples: list[Sample | None] = [None] * len(due_offsets)

    def worker() -> None:
        while True:
            with lock:
                index = next(counter, None)
            if index is None:
                return
            due = start + due_offsets[index]
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            sent = clock()
            outcome = send(index)
            samples[index] = Sample(index, due, sent, clock(), outcome)

    _run_threads(worker, workers)
    return [sample for sample in samples if sample is not None]


def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes | None = None,
    timeout: float = 60.0,
) -> tuple[int, bytes]:
    """One HTTP exchange on a fresh connection; ``(status, body)``."""
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()
