"""HTTP load: open and closed loops over ``SegmentClient``.

All load comes from this one process, over at most ``connections`` threads,
each holding one connection (or opening one per request when
``fresh_connections`` is set, which lets ``SO_REUSEPORT`` spread a fleet's
load).  Every answer is checked against its reference digest as it arrives;
a wrong label map is a failed operation, not a crash.

* **Open loop**: request ``i`` is due at ``t0 + i / rate`` whatever happened
  before it.  Latency is timed from the due time, so a stall charges every
  request queued behind it.  The generator's lateness (send time minus due
  time) and the backlog (due but not yet sent) are recorded.
* **Closed loop**: each connection sends its next request as soon as the
  previous one is answered, until the phase time is up or the items run out.

With a ``recorder`` every request carries an ``X-Repro-Trace-Id``; its
client wall time becomes a ``serve.http_client`` span, and the server's
trace is fetched right after the phase (the server keeps only its last 256
traces per worker, so a traced closed loop fetches after every window).
"""

from __future__ import annotations

import io
import json
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from inputs import label_digest

@dataclass
class Item:
    """One request: the image, its reference digest, an optional stream ID."""

    image: np.ndarray
    digest: str
    stream_id: Optional[str] = None
    key: int = 0


@dataclass
class Outcome:
    status: str  # "ok" | "wrong" | "error"
    latency: float  # seconds; from the due time in an open loop
    wall: float  # seconds from send to parsed answer
    lateness: float = 0.0
    backlog: int = 0
    trace_id: Optional[str] = None
    sent_at: float = 0.0
    key: int = 0
    error: str = ""


def _segment_stream(client, image: np.ndarray, stream_id: str, trace_id: Optional[str]):
    """``SegmentClient.segment`` with default options plus ``X-Repro-Stream-Id``."""
    from repro.serve import SegmentClient

    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(image), allow_pickle=False)
    headers = {"Content-Type": "application/x-npy", "X-Repro-Stream-Id": stream_id}
    if trace_id is not None:
        headers["X-Repro-Trace-Id"] = trace_id
    response, payload = client._request("POST", "/v1/segment", buffer.getvalue(), headers)
    client._raise_for_status(response, payload)
    return SegmentClient._result_from_document(json.loads(payload.decode("utf-8")))


class HttpLoad:
    """Load generator against one ``HOST:PORT``."""

    def __init__(
        self,
        host: str,
        port: int,
        connections: int = 2,
        fresh_connections: bool = False,
        recorder=None,
        trace_lookup: Optional[Callable[[str], Optional[Dict]]] = None,
    ):
        self.host = host
        self.port = int(port)
        self.connections = int(connections)
        self.fresh = bool(fresh_connections)
        self.recorder = recorder
        self.trace_lookup = trace_lookup
        #: Keys of the items answered, and the first wrong label map per key
        #: (for quality scoring after the run).
        self.served_keys: Set[int] = set()
        self.wrong_labels: Dict[int, np.ndarray] = {}
        self.bytes_out: List[int] = []
        #: Off during the untraced windows of an interleaved closed loop.
        self.tracing = recorder is not None
        self._trace_seq = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def _client(self):
        from repro.serve import SegmentClient

        client = SegmentClient(self.host, self.port, timeout=60.0)
        if self.recorder is not None:
            # Count the exact response body bytes at the transport call.
            transport = client._request

            def counted(method, path, body=None, headers=None):
                response, payload = transport(method, path, body, headers)
                if path == "/v1/segment" and self.tracing:
                    with self._lock:
                        self.bytes_out.append(len(payload))
                return response, payload

            client._request = counted
        return client

    def _next_trace_id(self) -> Optional[str]:
        if not self.tracing:
            return None
        with self._lock:
            self._trace_seq += 1
            return f"b{self._trace_seq:015x}"

    def _send(self, client, item: Item, due: float) -> Outcome:
        trace_id = self._next_trace_id()
        sent = time.perf_counter()
        try:
            if item.stream_id is None:
                result = client.segment(item.image, trace_id=trace_id)
            else:
                result = _segment_stream(client, item.image, item.stream_id, trace_id)
            done = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - every failure is a counted operation
            done = time.perf_counter()
            error = f"{type(exc).__name__}: {exc}"
            return Outcome(
                "error", done - due, done - sent, sent - due, 0, trace_id, sent, item.key, error
            )
        status = "ok" if label_digest(result.labels) == item.digest else "wrong"
        with self._lock:
            self.served_keys.add(item.key)
            if status == "wrong":
                self.wrong_labels.setdefault(item.key, result.labels)
        return Outcome(status, done - due, done - sent, sent - due, 0, trace_id, sent, item.key)

    def _run_threads(self, worker) -> None:
        threads = [
            threading.Thread(target=worker, name=f"bench-load-{i}", daemon=True)
            for i in range(self.connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def _thread_client(self, local):
        if self.fresh:
            return self._client()
        if getattr(local, "client", None) is None:
            local.client = self._client()
        return local.client

    # ------------------------------------------------------------------ #
    def open_loop(self, items: Sequence[Item], rate: float) -> Dict:
        """Send ``items`` at a fixed ``rate``; returns outcomes and validity figures."""
        outcomes: List[Optional[Outcome]] = [None] * len(items)
        cursor = [0]
        clients: List = []
        t0 = time.perf_counter() + 0.05

        def worker():
            local = threading.local()
            while True:
                with self._lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(items):
                    break
                due = t0 + index / rate
                now = time.perf_counter()
                backlog = max(0, int((now - t0) * rate) + 1 - index)
                if due > now:
                    time.sleep(due - now)
                client = self._thread_client(local)
                outcome = self._send(client, items[index], due)
                outcome.backlog = backlog
                outcomes[index] = outcome
                if self.fresh:
                    client.close()
            if getattr(local, "client", None) is not None:
                clients.append(local.client)

        self._run_threads(worker)
        for client in clients:
            client.close()
        done = [o for o in outcomes if o is not None]
        quarter = max(1, len(done) // 4)
        first = [o.backlog for o in done[:quarter]]
        last = [o.backlog for o in done[-quarter:]]
        return {
            "outcomes": done,
            "offered_rate": rate,
            "connections": self.connections,
            "lateness": [o.lateness for o in done],
            "backlog_first_quarter_mean": sum(first) / len(first),
            "backlog_last_quarter_mean": sum(last) / len(last),
            "backlog_grew": sum(last) / len(last) > sum(first) / len(first) + 1.0,
        }

    def closed_loop(self, items: Sequence[Item], seconds: float) -> Dict:
        """Send ``items`` back to back on every connection for ``seconds``."""
        outcomes: List[Outcome] = []
        cursor = [0]
        clients: List = []
        start = time.perf_counter()
        deadline = start + seconds
        last_done = [start]

        def worker():
            local = threading.local()
            while time.perf_counter() < deadline:
                with self._lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(items):
                    break
                client = self._thread_client(local)
                outcome = self._send(client, items[index], time.perf_counter())
                if self.fresh:
                    client.close()
                with self._lock:
                    outcomes.append(outcome)
                    last_done[0] = max(last_done[0], outcome.sent_at + outcome.wall)
            if getattr(local, "client", None) is not None:
                clients.append(local.client)

        self._run_threads(worker)
        for client in clients:
            client.close()
        elapsed = last_done[0] - start
        return {
            "outcomes": outcomes,
            "elapsed": elapsed,
            "items_per_s": len(outcomes) / elapsed if elapsed > 0 else 0.0,
            "connections": self.connections,
        }

    def windowed_closed_loop(self, items: Sequence[Item], seconds: float, windows: int) -> Dict:
        """A closed loop cut into ``windows`` equal time windows.

        Every window starts all connections together, and the reported rate
        is the median window rate, so one stall or one unlucky batching
        rhythm between the connections moves it less.  With a recorder the
        windows alternate untraced and traced (each traced window's traces
        are fetched off the clock), so the tracing overhead compares windows
        of one server at nearly the same moment.
        """
        outcomes: List[Outcome] = []
        rates: Dict[bool, List[float]] = {False: [], True: []}
        elapsed = 0.0
        offset = 0
        for index in range(int(windows)):
            self.tracing = self.recorder is not None and index % 2 == 1
            window = self.closed_loop(items[offset:], seconds / windows)
            if not window["outcomes"]:
                break
            offset += len(window["outcomes"])
            elapsed += window["elapsed"]
            rates[self.tracing].append(window["items_per_s"])
            if self.tracing:
                self.collect_traces(window["outcomes"])
            outcomes.extend(window["outcomes"])
        self.tracing = self.recorder is not None

        def median_rate(values):
            return statistics.median(values) if values else 0.0

        return {
            "outcomes": outcomes,
            "elapsed": elapsed,
            "window_rates": rates[False] + rates[True],
            "items_per_s": median_rate(rates[False]),
            "traced_items_per_s": median_rate(rates[True]),
            "connections": self.connections,
            "items_exhausted": offset >= len(items),
        }

    def collect_traces(self, outcomes: Sequence[Outcome]) -> int:
        """Record each outcome's client span and adopt its server trace."""
        missing = 0
        for outcome in outcomes:
            if outcome.trace_id is None:
                continue
            end = outcome.sent_at + outcome.wall
            self.recorder.add(
                "serve.http_client", outcome.sent_at, end, request_id=outcome.trace_id
            )
            document = self.trace_lookup(outcome.trace_id)
            if document is None:
                missing += 1
                continue
            self.recorder.add_server_trace(document, outcome.sent_at, end)
        return missing


def trace_fetcher(host: str, port: int, attempts: int) -> Callable[[str], Optional[Dict]]:
    """``GET /v1/trace/<id>``, each attempt on a fresh connection.

    Behind ``SO_REUSEPORT`` a fresh connection lands on an arbitrary worker,
    so a fleet lookup retries until the worker holding the trace answers.
    """
    from repro.serve import SegmentClient

    def fetch(trace_id: str) -> Optional[Dict]:
        for _ in range(attempts):
            with SegmentClient(host, port, timeout=10.0) as client:
                document = client.trace(trace_id)
            if document is not None:
                return document
        return None

    return fetch
