"""Benchmark of the IQFT segmentation stack: offline eval, HTTP, fleet, streams.

Usage (from the root of a checkout)::

    python3 iqftbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` lists the measured ones and why each was chosen):

* ``eval-voc`` -- the paper's offline use: ``BatchSegmentationEngine.map``
  over distinct quantized 375x500 VOC-like images, in a fresh process.
* ``fleet-zipf-warm`` -- a 2-worker fleet with a ``--cache-dir`` (and so the
  default shm ring); Zipf-popular repeats of 60 images, one connection per
  request, after every image has been served once.
* ``stream-delta`` -- 90%-static 256x256 RGB streams with
  ``X-Repro-Stream-Id`` to the single-process server, each stream opened
  before the clock: only dirty-tile reuse saves work.
* ``http-cold`` -- the single-process server; every request is a distinct
  128x128 image, so every request computes.  It runs by hand but is not in
  ``BENCHMARK.json``: the layers it loads are measured on ``stream-delta``,
  and leaving it out pays for longer, steadier runs of the others.

Servers are started through the CLI exactly as shipped (no tuning flags).
Inputs and matrix-path reference digests are made from ``--seed`` before any
clock starts.  Every answer is checked; a wrong label map is a failed
operation.  The system is launched three times; set-up is timed on each
launch and the median reported.  A server launch is measured for a third of
``--seconds``: an open loop at the workload's fixed rate for two thirds of
that time, then a closed loop over 2 connections for the rest, cut into
half-second windows.  ``p50_ms`` and ``tail_ms`` are medians over the
launches of each launch's figure, and ``items_per_s`` is the median of all
windows, so one launch on a briefly busy host moves none of them much.
(``eval-voc`` launches are processes that each segment the same 24 images
at 20 s; its latencies are pooled over the three.)

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics and the breakdown table from one traced launch: a traced
open loop, then closed-loop windows that alternate untraced and traced (for
``eval-voc``, one untraced and one traced process over the same images).
Server counters in the per-layer metrics cover the whole traced launch.
The last line of stdout is the JSON result.  Reports and spans are written
under ``.bench_build/iqftbench/``.

``success_share`` is 1 - ``failed_share``: failed, refused or wrong-label
operations over those attempted.  It is reported as a success share so that
it is never 0.  ``miou`` scores the served labels by the paper's protocol
against the ground-truth masks of the distinct images served; the random
frames of ``stream-delta`` have no annotation, so there it is the share of
frames whose labels equal the reference (1 when all are right).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 3
OPEN_SHARE = 2.0 / 3.0  # of each launch's measured time; the closed loop has the rest
WINDOW_S = 0.5  # closed-loop window of an untraced run
CONNECTIONS = 2  # load threads and connections: the 2 CPUs the benchmark is sized for

#: Per-workload fixed parameters.  ``rate`` is the open-loop offered rate
#: (requests/s, light: requests mostly arrive alone), ``limit_ms`` the latency
#: limit behind ``slo_share``, ``closed_per_s`` the closed-loop requests
#: prepared per second of the loop (more than the seed code completes), and
#: ``images_per_second`` the eval-voc images per second of ``--seconds`` that
#: each launch segments (24 at 20 s; every launch segments the same images,
#: because generating them costs more than segmenting them).
WORKLOADS = {
    "eval-voc": {"shape": (375, 500), "images_per_second": 1.2, "limit_ms": 300.0},
    "http-cold": {"shape": (128, 128), "rate": 15.0, "limit_ms": 150.0, "closed_per_s": 60},
    "fleet-zipf-warm": {
        "shape": (128, 128),
        "rate": 40.0,
        "limit_ms": 60.0,
        "population": 60,
        "closed_per_s": 400,
    },
    "stream-delta": {
        "shape": (256, 256),
        "tile": (64, 64),
        "streams": 4,
        "rate": 10.0,
        "limit_ms": 150.0,
        "closed_per_s": 30,
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "slo_share": "ratio",
    "success_share": "ratio",
    "rss_mb": "MiB",
    "miou": "ratio",
}

PER_LAYER_UNITS = {
    "serve.http_client.request_ms": "ms",
    "serve.http.outside_ms": "ms",
    "serve.http.parse_ms": "ms",
    "serve.http.encode_ms": "ms",
    "serve.http.bytes_out": "bytes",
    "serve.http.request_errors": "count",
    "serve.aio.queue_wait_ms": "ms",
    "serve.aio.batch_fill_ms": "ms",
    "serve.aio.batch_size_mean": "count",
    "serve.aio.shed": "count",
    "serve.aio.coalesced": "count",
    "serve.cache.l1_hit_share": "ratio",
    "serve.cache.shm_hit_share": "ratio",
    "serve.cache.l2_hit_share": "ratio",
    "serve.cache.miss_share": "ratio",
    "serve.cache.l1_probe_ms": "ms",
    "serve.cache.shm_probe_ms": "ms",
    "serve.cache.l2_probe_ms": "ms",
    "serve.cache.stores": "count",
    "serve.cache.shm_evictions": "count",
    "serve.cache.shm_torn_reads": "count",
    "serve.fleet.worker_share_max": "ratio",
    "serve.fleet.scrape_failures": "count",
    "engine.compute_ms": "ms",
    "engine.fast_path.lut": "ratio",
    "engine.fast_path.palette-lut": "ratio",
    "engine.fast_path.tiled": "ratio",
    "engine.fast_path.direct": "ratio",
    "engine.fast_path.delta": "ratio",
    "engine.fast_path.delta-cold": "ratio",
    "engine.delta.reuse_ratio": "ratio",
    "engine.delta.tiles_recomputed": "count",
    "engine.delta.compute_ms": "ms",
    "core.lut.colours_classified": "count",
    "core.lut.palette_hit_share": "ratio",
    "core.labels.score_ms": "ms",
    "obs.trace_overhead_share": "ratio",
}


#: Engine strategies reported in ``extras["fast_path"]`` and trace spans.
STRATEGIES = ("lut", "palette-lut", "tiled", "direct", "delta", "delta-cold")


class BenchError(RuntimeError):
    """The system under test could not be set up or driven."""


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


# --------------------------------------------------------------------------- #
# the server under test
# --------------------------------------------------------------------------- #
class Server:
    """One ``repro-segment serve --http`` launch (single process or fleet)."""

    def __init__(self, workdir: Path, tag: str, workers: int = 0):
        self.tag = tag
        self.workers = workers
        self.report_path = workdir / f"server-{tag}.json"
        self.cache_dir = workdir / f"cache-{tag}" if workers else None
        self.port: Optional[int] = None
        self.pre_rss_kb: Optional[int] = None
        self.worker_pids: List[int] = []
        self.setup_s: Optional[float] = None
        self._ready = threading.Event()
        self._tail: List[str] = []
        self._proc: Optional[subprocess.Popen] = None
        self._reader: Optional[threading.Thread] = None

    def _read_stderr(self) -> None:
        for line in self._proc.stderr:
            self._tail = (self._tail + [line])[-40:]
            if line.startswith("bench-sut: pre_rss_kb="):
                self.pre_rss_kb = int(line.split("=", 1)[1])
            match = re.search(r"listening on http://[^\s:]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))
                if not self.workers:
                    self._ready.set()
            match = re.search(r"worker slot=\d+ pid=(\d+)", line)
            if match:
                self.worker_pids.append(int(match.group(1)))
                if len(self.worker_pids) >= self.workers:
                    self._ready.set()
        self._ready.set()

    def start(self, warm_item) -> None:
        """Launch, then send the warm-up request; sets :attr:`setup_s`."""
        from load import HttpLoad

        argv = [sys.executable, str(HERE / "sut.py"), "serve", "--http", "127.0.0.1:0"]
        argv += ["--report", str(self.report_path)]
        if self.workers:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            argv += ["--workers", str(self.workers), "--cache-dir", str(self.cache_dir)]
        start = time.perf_counter()
        self._proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        if not self._ready.wait(120) or self.port is None or self._proc.poll() is not None:
            self.stop()
            raise BenchError(f"server {self.tag} did not start:\n" + "".join(self._tail))
        load = HttpLoad("127.0.0.1", self.port, connections=1, fresh_connections=True)
        outcome = load.closed_loop([warm_item], 60.0)["outcomes"][0]
        if outcome.status != "ok":
            self.stop()
            raise BenchError(f"warm-up request failed: {outcome.status} {outcome.error}")
        self.setup_s = time.perf_counter() - start

    def peak_rss_mb(self) -> float:
        """Summed peak resident memory above the pre-setup level, in MiB."""
        from sut import status_kb

        total = 0
        for pid in [self._proc.pid] + self.worker_pids:
            total += status_kb("VmHWM", pid) - (self.pre_rss_kb or 0)
        return total / 1024.0

    def stop(self) -> Dict:
        """SIGTERM (the CLI drains and writes its report), wait, clean up.

        Every descendant (fleet workers, multiprocessing's resource tracker)
        is noted first and waited for after the server exits.
        """
        report: Dict = {}
        if self._proc is not None:
            family = _descendants(self._proc.pid)
            if self._proc.poll() is None:
                self._proc.send_signal(signal.SIGTERM)
            try:
                self._proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
            self._reader.join(timeout=10)
            self._proc.stderr.close()
            for pid in family:
                _wait_gone(pid)
            self._proc = None
        if self.report_path.exists():
            report = json.loads(self.report_path.read_text(encoding="utf-8"))
            self.report_path.unlink()
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        return report


def _descendants(root: int) -> List[int]:
    """PIDs of every live descendant of ``root`` (from ``/proc/*/stat``)."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                    stat = fh.read()
            except OSError:
                continue
            parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = [], [root]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parents.items() if ppid == parent]
        found += children
        frontier += children
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _wait_gone(pid: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    if _alive(pid):
        os.kill(pid, signal.SIGKILL)


# --------------------------------------------------------------------------- #
# workload inputs
# --------------------------------------------------------------------------- #
def http_inputs(
    name: str, cfg: Dict, seed: int, open_s: float, closed_s: float, launches: int
) -> Dict:
    """Warm-up item, open-loop items per launch, closed-loop items, input properties.

    ``open_s`` and ``closed_s`` are the lengths in seconds of one launch's
    loops.  Every launch sends the same closed-loop items; VOC workloads give
    each launch its own open-loop items, so the latencies and ``miou`` cover
    more images at little generation cost.
    """
    import numpy as np

    import inputs
    from load import Item

    n_open = max(10, int(round(cfg["rate"] * open_s)))
    n_closed = max(10, int(round(cfg["closed_per_s"] * closed_s)))

    def voc_items(salt: int, count: int):
        data = inputs.voc_set(inputs.voc_seed(seed, salt), count, cfg["shape"], True)
        pairs = enumerate(zip(data["images"], data["digests"]))
        return data, [Item(image, digest, key=i) for i, (image, digest) in pairs]

    if name == "http-cold":
        data, items = voc_items(2, 1 + launches * n_open + n_closed)
        return {
            "warm": items[0],
            "open": [items[1 + i * n_open : 1 + (i + 1) * n_open] for i in range(launches)],
            "closed": items[1 + launches * n_open :],
            "voc": data,
            "properties": {
                **inputs.colour_properties(data["images"][1:]),
                **inputs.repeat_properties([it.key for it in items[1:]]),
            },
        }
    if name == "fleet-zipf-warm":
        population = cfg["population"]
        data, pool = voc_items(3, population + 1)
        sequence = inputs.zipf_sequence(seed, population, launches * n_open + n_closed)
        requests = [pool[int(k)] for k in sequence]
        return {
            "warm": pool[population],
            "prewarm": pool[:population],
            "open": [requests[i * n_open : (i + 1) * n_open] for i in range(launches)],
            "closed": requests[launches * n_open :],
            "voc": data,
            "properties": {
                **inputs.colour_properties(data["images"][:population]),
                **inputs.repeat_properties(sequence),
            },
        }
    from loadgen import make_frame

    streams = cfg["streams"]
    events = inputs.stream_events(
        seed, streams + n_open + n_closed, cfg["shape"], cfg["tile"], streams
    )
    warm_frame = make_frame(np.random.default_rng(inputs.voc_seed(seed, 5)), cfg["shape"], 3)
    digests = inputs.frame_references([warm_frame] + [e.frame for e in events])
    items = [
        Item(e.frame, d, stream_id=e.stream_id, key=i)
        for i, (e, d) in enumerate(zip(events, digests[1:]))
    ]
    # Each stream's first frame opens it with a full compute; it is sent
    # before the clock, so every timed frame is a delta frame of a live stream.
    first = {}
    for item in items:
        first.setdefault(item.stream_id, item)
    timed = [item for item in items if first[item.stream_id] is not item]
    return {
        "warm": Item(warm_frame, digests[0], key=-1),
        "prewarm": list(first.values()),
        "open": [timed[:n_open]] * launches,
        "closed": timed[n_open:],
        "properties": {
            **inputs.static_tile_share(events, cfg["tile"]),
            **inputs.colour_properties([e.frame for e in events[:8]]),
        },
    }


# --------------------------------------------------------------------------- #
# end-to-end figures
# --------------------------------------------------------------------------- #
def latency_figures(latencies_s: List[float], statuses: List[str], limit_ms: float) -> Dict:
    from spans import median, tail

    ms = [1e3 * v for v in latencies_s]
    tail_ms, pct, n = tail(ms)
    within = sum(s == "ok" and v <= limit_ms for s, v in zip(statuses, ms))
    return {
        "p50_ms": median(ms),
        "tail_ms": tail_ms,
        "tail_percentile": pct,
        "samples": n,
        "slo_share": within / len(ms) if ms else 0.0,
        "limit_ms": limit_ms,
    }


def voc_quality(data: Dict, served_keys, wrong_labels: Dict) -> float:
    """Mean IoU of the served labels by the paper's protocol, per distinct image.

    A right answer's labels are the reference's, so it scores the reference
    mIoU; only the images answered wrongly are scored again.
    """
    from repro.base import SegmentationResult
    from repro.core.pipeline import SegmentationPipeline

    import inputs

    pipeline = SegmentationPipeline(inputs.segmenter())
    scores = []
    for key in sorted(served_keys):
        if key not in wrong_labels:
            scores.append(data["mious"][key])
            continue
        result = SegmentationResult(labels=wrong_labels[key], num_segments=0)
        scored = pipeline.score(result, data["masks"][key], data["voids"][key])
        scores.append(float(scored.metrics["miou"]))
    return statistics.fmean(scores) if scores else 0.0


def run_http(name: str, cfg: Dict, args, workdir: Path) -> Dict:
    from load import HttpLoad, trace_fetcher
    from spans import SpanRecorder, median, tail

    # Untraced: three launches share the time; traced: one launch has it all.
    launches = 1 if args.trace else SETUP_LAUNCHES
    open_s = args.seconds * OPEN_SHARE / launches
    closed_s = args.seconds * (1.0 - OPEN_SHARE) / launches
    data = http_inputs(name, cfg, args.seed, open_s, closed_s, launches)
    workers = 2 if name == "fleet-zipf-warm" else 0
    fresh = name == "fleet-zipf-warm"
    out: Dict = {"inputs": data["properties"]}
    served_keys: set = set()  # distinct VOC images answered, for miou
    wrong_labels: Dict = {}

    def absorb(load: HttpLoad) -> None:
        served_keys.update(load.served_keys)
        for key, labels in load.wrong_labels.items():
            wrong_labels.setdefault(key, labels)

    def launch(tag: str) -> Server:
        server = Server(workdir, tag, workers)
        server.start(data["warm"])
        if "prewarm" in data:
            prewarm = HttpLoad("127.0.0.1", server.port, CONNECTIONS, fresh_connections=True)
            result = prewarm.closed_loop(data["prewarm"], 120.0)
            if any(o.status != "ok" for o in result["outcomes"]):
                server.stop()
                raise BenchError("pre-warm requests failed")
            absorb(prewarm)
        return server

    if not args.trace:
        windows = max(1, int(round(closed_s / WINDOW_S)))
        setups, rss, opens, rates, outcomes, completed = [], [], [], [], [], []
        exhausted = False
        for index in range(SETUP_LAUNCHES):
            server = launch(f"launch{index}")
            setups.append(server.setup_s)
            try:
                load = HttpLoad("127.0.0.1", server.port, CONNECTIONS, fresh)
                opened = load.open_loop(data["open"][index], cfg["rate"])
                # Peak over set-up plus the fixed, seeded open-loop sequence; the
                # closed loop's request count depends on speed, and so would its
                # cache footprint.
                rss.append(server.peak_rss_mb())
                closed = load.windowed_closed_loop(data["closed"], closed_s, windows)
            finally:
                report = server.stop()
            absorb(load)
            opens.append(opened)
            rates += closed["window_rates"]
            exhausted = exhausted or closed["items_exhausted"]
            outcomes += opened["outcomes"] + closed["outcomes"]
            completed.append((report.get("metrics") or {}).get("completed"))
        open_outcomes = [o for opened in opens for o in opened["outcomes"]]
        failed = sum(o.status != "ok" for o in outcomes)
        wrong = sum(o.status == "wrong" for o in outcomes)
        # p50 and tail are medians over the launches of each launch's figure,
        # so one launch on a briefly busy host moves neither.
        per_launch = [
            latency_figures(
                [o.latency for o in opened["outcomes"]],
                [o.status for o in opened["outcomes"]],
                cfg["limit_ms"],
            )
            for opened in opens
        ]
        figures = latency_figures(
            [o.latency for o in open_outcomes],
            [o.status for o in open_outcomes],
            cfg["limit_ms"],
        )
        figures.update(
            p50_ms=statistics.median(f["p50_ms"] for f in per_launch),
            tail_ms=statistics.median(f["tail_ms"] for f in per_launch),
            tail_percentile=per_launch[0]["tail_percentile"],
            samples=per_launch[0]["samples"],
            launches=len(per_launch),
            p50_ms_per_launch=[f["p50_ms"] for f in per_launch],
            tail_ms_per_launch=[f["tail_ms"] for f in per_launch],
        )
        if "voc" in data:
            miou = voc_quality(data["voc"], served_keys, wrong_labels)
        else:
            # No annotations for random frames: score agreement with the
            # reference, which reads 1 exactly when every frame was right.
            miou = 1.0 - wrong / len(outcomes)
        lateness_ms = [1e3 * o.lateness for o in open_outcomes]
        late_tail, late_pct, _ = tail(lateness_ms)
        out.update(
            setup_runs=setups,
            metrics={
                "setup_s": statistics.median(setups),
                "items_per_s": median(rates),
                "p50_ms": figures["p50_ms"],
                "tail_ms": figures["tail_ms"],
                "slo_share": figures["slo_share"],
                "success_share": 1.0 - failed / len(outcomes),
                "rss_mb": statistics.median(rss),
                "miou": miou,
            },
            latency=figures,
            open_loop={
                "offered_rate": cfg["rate"],
                "connections": CONNECTIONS,
                "fresh_connection_per_request": fresh,
                "launches": SETUP_LAUNCHES,
                "requests_per_launch": len(data["open"][0]),
                "lateness_p50_ms": median(lateness_ms),
                "lateness_tail_ms": late_tail,
                "lateness_tail_percentile": late_pct,
                "backlog_first_quarter_mean": [o["backlog_first_quarter_mean"] for o in opens],
                "backlog_last_quarter_mean": [o["backlog_last_quarter_mean"] for o in opens],
                "backlog_grew": any(o["backlog_grew"] for o in opens),
            },
            closed_loop={
                "connections": CONNECTIONS,
                "requests": len(outcomes) - len(open_outcomes),
                "window_s": closed_s / windows,
                "window_rates": rates,
                "items_per_launch": len(data["closed"]),
                "items_exhausted": exhausted,
            },
            rss_runs=rss,
            attempted=len(outcomes),
            failed=failed,
            wrong=wrong,
            errors=sorted({o.error for o in outcomes if o.error})[:5],
            server_completed=completed,
        )
        return out

    # Traced run: one launch; its closed-loop windows alternate untraced and
    # traced, which gives the tracing overhead.
    recorder = SpanRecorder()
    server = launch("traced")
    try:
        lookup = trace_fetcher("127.0.0.1", server.port, attempts=40 if workers else 1)
        load = HttpLoad("127.0.0.1", server.port, CONNECTIONS, fresh, recorder, lookup)
        opened = load.open_loop(data["open"][0], cfg["rate"])
        missing = load.collect_traces(opened["outcomes"])
        windows = 2 * max(1, int(round(closed_s / 2.0)))  # 1-s windows, alternately traced
        closed = load.windowed_closed_loop(data["closed"], closed_s, windows)
    finally:
        report = server.stop()
    outcomes = opened["outcomes"] + closed["outcomes"]
    overhead = 1.0 - closed["traced_items_per_s"] / closed["items_per_s"]
    out.update(
        layers=http_layers(recorder, load, report, overhead),
        recorder=recorder,
        untraced_items_per_s=closed["items_per_s"],
        traced_items_per_s=closed["traced_items_per_s"],
        overhead=overhead,
        missing_traces=missing,
        attempted=len(outcomes),
        failed=sum(o.status != "ok" for o in outcomes),
        wrong=sum(o.status == "wrong" for o in outcomes),
    )
    return out


# --------------------------------------------------------------------------- #
# per-layer figures
# --------------------------------------------------------------------------- #
def _layer(value: float, samples: int) -> Dict:
    return {"value": float(value), "samples": int(samples)}


def _span_ms(spans) -> Dict:
    from spans import median

    return _layer(1e3 * median(s.duration for s in spans), len(spans))


def http_layers(recorder, load, report: Dict, overhead: float) -> Dict:
    from spans import median

    layers = {name: _layer(0.0, 0) for name in PER_LAYER_UNITS}
    by_request = recorder.by_request()
    client = recorder.named("serve.http_client")
    outside = []
    tiers = {"l1": 0, "shm": 0, "l2": 0, "miss": 0}
    for spans in by_request.values():
        total = [s for s in spans if s.name == "serve.http_client"]
        request = [s for s in spans if s.name == "request"]
        if total and request:
            outside.append(total[0].duration - request[0].duration)
        if not request:
            continue
        probes = sorted(
            (s for s in spans if s.name in ("cache.memory", "cache.l1", "cache.shm", "cache.l2")),
            key=lambda s: s.start,
        )
        hit = next((s for s in probes if s.fields.get("hit")), None)
        tier = "miss" if hit is None else {"cache.memory": "l1"}.get(hit.name, hit.name[6:])
        tiers[tier] += 1
    answered = sum(tiers.values())
    layers["serve.http_client.request_ms"] = _span_ms(client)
    layers["serve.http.outside_ms"] = _layer(1e3 * median(outside), len(outside))
    layers["serve.http.parse_ms"] = _span_ms(recorder.named("ingress.parse"))
    layers["serve.http.encode_ms"] = _span_ms(recorder.named("response.encode"))
    if load.bytes_out:
        layers["serve.http.bytes_out"] = _layer(
            sum(load.bytes_out) / len(load.bytes_out), len(load.bytes_out)
        )
    layers["serve.aio.queue_wait_ms"] = _span_ms(recorder.named("queue.wait"))
    layers["serve.aio.batch_fill_ms"] = _span_ms(recorder.named("batch.assemble"))
    for tier in ("l1", "shm", "l2", "miss"):
        layers[f"serve.cache.{tier}_hit_share" if tier != "miss" else "serve.cache.miss_share"] = (
            _layer(tiers[tier] / answered if answered else 0.0, answered)
        )
    layers["serve.cache.l1_probe_ms"] = _span_ms(
        recorder.named("cache.l1") + recorder.named("cache.memory")
    )
    layers["serve.cache.shm_probe_ms"] = _span_ms(recorder.named("cache.shm"))
    layers["serve.cache.l2_probe_ms"] = _span_ms(recorder.named("cache.l2"))
    compute = recorder.named("engine.compute")
    delta = [s for s in compute if "tiles_recomputed" in s.fields]
    layers["engine.compute_ms"] = _span_ms(compute)
    for strategy in STRATEGIES:
        share = sum(s.fields.get("strategy") == strategy for s in compute)
        layers[f"engine.fast_path.{strategy}"] = _layer(
            share / len(compute) if compute else 0.0, len(compute)
        )
    if delta:
        reused = sum(int(s.fields["tiles_reused"]) for s in delta)
        recomputed = sum(int(s.fields["tiles_recomputed"]) for s in delta)
        layers["engine.delta.reuse_ratio"] = _layer(
            reused / (reused + recomputed) if reused + recomputed else 0.0, len(delta)
        )
        layers["engine.delta.tiles_recomputed"] = _layer(recomputed, len(delta))
        layers["engine.delta.compute_ms"] = _span_ms(delta)
    layers["core.labels.score_ms"] = _span_ms(recorder.named("scoring"))

    metrics = report.get("metrics") or {}
    workers = metrics.get("workers") or []
    if workers:
        errors = sum(int((w.get("http") or {}).get("request_errors", 0)) for w in workers)
        completed = [int((w.get("metrics") or {}).get("completed", 0)) for w in workers]
    else:
        errors = int((report.get("http") or {}).get("request_errors", 0))
        completed = [int(metrics.get("completed", 0))]
    shed = metrics.get("shed") or {}
    cache = metrics.get("cache") or {}
    if "l2" in cache:
        stores = int(cache["l2"].get("stores", 0))
    else:
        memory = cache.get("l1", cache)
        stores = sum(int(memory.get(k, 0)) for k in ("currsize", "evictions", "expirations"))
    shm = cache.get("shm") or {}
    layers["serve.http.request_errors"] = _layer(errors, 1)
    layers["serve.aio.batch_size_mean"] = _layer(
        metrics.get("mean_batch_size", 0.0), metrics.get("batches", 0)
    )
    layers["serve.aio.shed"] = _layer(sum(int(v) for v in shed.values()), 1)
    layers["serve.aio.coalesced"] = _layer(metrics.get("coalesced", 0), 1)
    layers["serve.cache.stores"] = _layer(stores, 1)
    layers["serve.cache.shm_evictions"] = _layer(shm.get("evictions", 0), 1 if shm else 0)
    layers["serve.cache.shm_torn_reads"] = _layer(shm.get("torn_reads", 0), 1 if shm else 0)
    layers["serve.fleet.worker_share_max"] = _layer(
        max(completed) / sum(completed) if sum(completed) else 0.0, sum(completed)
    )
    layers["serve.fleet.scrape_failures"] = _layer(
        int((metrics.get("fleet") or {}).get("scrape_failures", 0)), 1 if workers else 0
    )
    layers["obs.trace_overhead_share"] = _layer(overhead, 2)
    return layers


# --------------------------------------------------------------------------- #
# eval-voc
# --------------------------------------------------------------------------- #
def run_eval(cfg: Dict, args, workdir: Path) -> Dict:
    import numpy as np

    import inputs
    from spans import Span, SpanRecorder

    count = max(6, int(round(cfg["images_per_second"] * args.seconds)))
    launches = 2 if args.trace else SETUP_LAUNCHES
    data = inputs.voc_set(inputs.voc_seed(args.seed, 1), count + 1, cfg["shape"], True)
    out: Dict = {"inputs": inputs.colour_properties(data["images"][:count])}
    npz = workdir / "eval-inputs.npz"
    np.savez(
        npz,
        images=np.stack(data["images"][:count]),
        masks=np.stack(data["masks"][:count]),
        voids=np.stack(data["voids"][:count]),
        digests=np.array(data["digests"][:count]),
        mious=np.array(data["mious"][:count]),
        warm_image=data["images"][count],
        warm_mask=data["masks"][count],
        warm_void=data["voids"][count],
        warm_digest=np.array(data["digests"][count]),
    )

    def one(index: int, traced: bool) -> Dict:
        path = workdir / f"eval-{index}.json"
        argv = [sys.executable, str(HERE / "evalsut.py"), str(npz), str(path), str(int(traced))]
        subprocess.run(
            argv, cwd=ROOT, env=_env(), check=True, timeout=170, stdin=subprocess.DEVNULL
        )
        doc = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
        return doc

    # Every launch is a fresh process over the same images, so its table
    # caches start cold and every launch (traced or not) does equal work.
    try:
        runs = [one(i, args.trace and i == 1) for i in range(launches)]
    finally:
        npz.unlink()
    latencies = [v for run in runs for v in run["latencies"]]
    statuses = [s for run in runs for s in run["statuses"]]
    failed = sum(s != "ok" for s in statuses)
    miou = statistics.fmean(runs[0]["miou"])
    reference_miou = statistics.fmean(data["mious"][:count])
    out.update(
        attempted=len(statuses),
        failed=failed,
        wrong=failed,
        reference_miou=reference_miou,
        miou_matches=all(run["miou"] == data["mious"][:count] for run in runs),
    )
    if not args.trace:
        figures = latency_figures(latencies, statuses, cfg["limit_ms"])
        out.update(
            setup_runs=[run["setup_s"] for run in runs],
            latency=figures,
            metrics={
                "setup_s": statistics.median(run["setup_s"] for run in runs),
                "items_per_s": len(latencies) / sum(latencies),
                "p50_ms": figures["p50_ms"],
                "tail_ms": figures["tail_ms"],
                "slo_share": figures["slo_share"],
                "success_share": 1.0 - failed / len(statuses),
                "rss_mb": statistics.median(run["rss_mb"] for run in runs),
                "miou": miou,
            },
        )
        return out
    untraced, traced = runs
    rate = {
        key: len(run["latencies"]) / sum(run["latencies"])
        for key, run in (("untraced", untraced), ("traced", traced))
    }
    overhead = 1.0 - rate["traced"] / rate["untraced"]
    recorder = SpanRecorder()
    recorder.spans = [
        Span(s["name"], s["start"], s["end"], s["parent"], s["request_id"], s["fields"])
        for s in traced["spans"]
    ]
    layers = {name: _layer(0.0, 0) for name in PER_LAYER_UNITS}
    segments = recorder.named("engine.segment")
    layers["engine.compute_ms"] = _span_ms(segments)
    for strategy in STRATEGIES:
        share = sum(s.fields.get("strategy") == strategy for s in segments)
        layers[f"engine.fast_path.{strategy}"] = _layer(share / len(segments), len(segments))
    layers["core.labels.score_ms"] = _span_ms(recorder.named("pipeline.score"))
    layers["core.lut.colours_classified"] = _layer(traced["colours_classified"], len(segments))
    lookups = traced["palette_lookups"]
    layers["core.lut.palette_hit_share"] = _layer(
        traced["palette_hits"] / lookups if lookups else 0.0, lookups
    )
    layers["obs.trace_overhead_share"] = _layer(overhead, 2)
    out.update(
        layers=layers,
        recorder=recorder,
        overhead=overhead,
        untraced_items_per_s=rate["untraced"],
        traced_items_per_s=rate["traced"],
    )
    return out


# --------------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------------- #
def roadmap_row(layers: Dict, recorder) -> Optional[Dict]:
    """The ROADMAP item-1 row: p50 ms of client, server trace and key spans."""
    from spans import median

    client = layers["serve.http_client.request_ms"]
    if not client["samples"]:
        return None
    return {
        "client": client["value"],
        "server": 1e3 * median(s.duration for s in recorder.named("request")),
        "compute": layers["engine.compute_ms"]["value"],
        "queue": layers["serve.aio.queue_wait_ms"]["value"],
        "fill": layers["serve.aio.batch_fill_ms"]["value"],
        "encode": layers["serve.http.encode_ms"]["value"],
        "outside": layers["serve.http.outside_ms"]["value"],
        "samples": client["samples"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

    workdir = ROOT / ".bench_build" / "iqftbench"
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = WORKLOADS[args.workload]
    if args.workload == "eval-voc":
        result = run_eval(cfg, args, workdir)
    else:
        result = run_http(args.workload, cfg, args, workdir)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    recorder = result.pop("recorder", None)
    correct = result["wrong"] == 0 and result.get("miou_matches", True)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}")
    print("inputs: " + json.dumps(result["inputs"], sort_keys=True))
    if not args.trace:
        metrics = {
            name: {"value": float(result["metrics"][name]), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
        lat = result["latency"]
        for name, metric in metrics.items():
            print(f"  {name:<14} {metric['value']:>12.4f} {metric['unit']}")
        basis = f"p{lat['tail_percentile']:.1f} of {lat['samples']} samples"
        if "launches" in lat:
            basis = f"the median over {lat['launches']} launches of {basis} each"
        print(
            f"  tail_ms is {basis}; slo limit {lat['limit_ms']:g} ms; "
            f"set-up runs {result['setup_runs']}"
        )
        print(
            f"  failed_share {result['failed'] / result['attempted']:.4f} "
            f"({result['failed']} of {result['attempted']}, {result['wrong']} wrong labels)"
        )
        for key in ("open_loop", "closed_loop"):
            if key in result:
                print(f"  {key}: " + json.dumps(result[key], sort_keys=True))
    else:
        from spans import format_breakdown, layer_breakdown

        layers = result["layers"]
        metrics = {
            name: {"value": float(layers[name]["value"]), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
        for name, unit in PER_LAYER_UNITS.items():
            print(
                f"  {name:<32} {layers[name]['value']:>12.4f} {unit:<6} "
                f"samples={layers[name]['samples']}"
            )
        rows = layer_breakdown(recorder)
        summary = roadmap_row(layers, recorder)
        print(format_breakdown(args.workload, rows, summary, result["overhead"]))
        recorder.dump(workdir / f"spans-{tag}.json")
    (workdir / f"report-{tag}.json").write_text(
        json.dumps({"result": result, "metrics": metrics}, default=str, indent=1),
        encoding="utf-8",
    )
    line = {
        "correct": bool(correct),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
