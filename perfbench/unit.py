"""One unit of benchmark work, run in a fresh interpreter.

Started by ``run.py`` as ``python3 perfbench/unit.py`` with a JSON job
on stdin.  Each unit is a new process — what a user gets from one
``repro batch`` or ``repro serve`` invocation — so no in-process memo
(trace buffers, runners) carries from one unit into the next.

A unit prints ``ready`` once it has built what its first submit needs
(imports, the scheduler or server, the cache directory): the parent
times set-up from process start to that line.  The unit's measurements
follow as the last stdout line.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _peak_rss_mb() -> float:
    """The larger of this process's and its reaped children's max RSS.

    This process's own peak is ``VmHWM``, not ``RUSAGE_SELF``: Linux
    carries ``ru_maxrss`` across ``exec``, so it would report the
    benchmark parent's memory whenever that is the larger.
    """
    import re
    import resource

    try:
        status = Path("/proc/self/status").read_text()
        own = int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1))
    except (OSError, AttributeError):
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _ready() -> None:
    print("ready", flush=True)


def _batch(job: dict, out: dict) -> None:
    """Closed loop: submit every spec, wait for every result."""
    import threading
    import time

    from repro.api import BatchScheduler, RunSpec, result_summary

    specs = [RunSpec.from_dict(spec) for spec in job["specs"]]
    scheduler = BatchScheduler(jobs=job["jobs"], cache_dir=job["cache_dir"])
    _ready()
    done = [0.0] * len(specs)
    finished = threading.Event()
    remaining = [len(specs)]
    lock = threading.Lock()

    def on_done(index: int, future) -> None:
        done[index] = time.perf_counter()
        with lock:
            remaining[0] -= 1
            if not remaining[0]:
                finished.set()

    try:
        start = time.perf_counter()
        futures = [scheduler.submit(spec) for spec in specs]
        for index, future in enumerate(futures):
            future.add_done_callback(lambda f, index=index: on_done(index, f))
        finished.wait()
        end = max(done)
    finally:
        scheduler.close(drain=True)
    out["wall_s"] = end - start
    out["latency_ms"] = [1000.0 * (t - start) for t in done]
    digests = []
    for future in futures:
        try:
            digests.append(result_summary(future.result())["digest"])
        except Exception as exc:  # noqa: BLE001 - a failed cell is a counted failure
            digests.append(f"error: {type(exc).__name__}: {exc}")
    out["digests"] = digests


def _waysweep(job: dict, out: dict) -> None:
    """Closed loop: the Figure 1 sweep, one benchmark per call."""
    import time

    from suite import waysweep_digest

    _ready()
    start = time.perf_counter()
    latencies, digests = [], []
    for code in job["codes"]:
        digests.append(waysweep_digest(code, job["ways"], job["quota"]))
        latencies.append(1000.0 * (time.perf_counter() - start))
    out["wall_s"] = time.perf_counter() - start
    out["latency_ms"] = latencies
    out["digests"] = digests


def _serve(job: dict, out: dict, server) -> None:
    """Open loop: send each request at its due time, at most two in flight.

    The window's length is fixed by the schedule, so its wall time says
    nothing about the program.  ``wall_s`` is the time requests spent
    in the program instead — the sum of their latencies — and ``sim_s``
    that of the fresh requests, which simulate; repeats do not.
    """
    import http.client
    import threading
    import time

    port = server.server_address[1]
    bodies = [json.dumps([{"spec": spec}]).encode() for spec in job["specs"]]
    due = job["due"]
    count = len(bodies)
    records: list = [None] * count
    cursor = [0]
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def client() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= count:
                return
            deadline = start + due[index]
            delay = deadline - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            status, record = 0, None
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            try:
                conn.request(
                    "POST", "/batch", bodies[index], {"Content-Type": "application/json"}
                )
                response = conn.getresponse()
                status = response.status
                payload = json.loads(response.read() or b"null")
                if isinstance(payload, list) and payload:
                    record = payload[0]
            except (OSError, ValueError, http.client.HTTPException) as exc:
                record = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            finally:
                conn.close()
            finished = time.perf_counter()
            ok = status == 200 and isinstance(record, dict) and record.get("ok") is True
            records[index] = {
                "latency_ms": 1000.0 * (finished - deadline),
                "late_ms": 1000.0 * max(0.0, sent - deadline),
                "status": status,
                "digest": record.get("digest") if ok else f"error: {status} {record}",
            }

    threads = [threading.Thread(target=client) for _ in range(job["connections"])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    first = {body: index for index, body in reversed(list(enumerate(bodies)))}
    latencies = [r["latency_ms"] for r in records]
    out["wall_s"] = sum(latencies) / 1000.0
    out["sim_s"] = sum(latencies[index] for index in first.values()) / 1000.0
    out["latency_ms"] = latencies
    out["late_ms"] = [r["late_ms"] for r in records]
    out["status"] = [r["status"] for r in records]
    out["digests"] = [r["digest"] for r in records]


def _start_server(job: dict):
    import threading

    from repro.api import BatchScheduler
    from repro.service.serve import BatchHTTPServer

    scheduler = BatchScheduler(jobs=job["jobs"], cache_dir=job["cache_dir"])
    server = BatchHTTPServer(("127.0.0.1", 0), scheduler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    return scheduler, server, thread


def _stop_server(scheduler, server, thread) -> None:
    server.shutdown()
    thread.join()
    server.server_close()
    scheduler.close(drain=True)


def unit(job: dict) -> dict:
    tracer = None
    if job["traced"]:
        from layers import LayerTracer

        tracer = LayerTracer().install()
    out: dict = {}
    workload = job["workload"]
    if workload == "serve":
        handles = _start_server(job)
        _ready()
        try:
            _serve(job, out, handles[1])
        finally:
            _stop_server(*handles)
    elif workload == "waysweep":
        _waysweep(job, out)
    else:
        _batch(job, out)
    out["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        out["layers"] = tracer.snapshot()
        tracer.write_spans(job["spans"])
    return out


def main() -> int:
    job = json.loads(sys.stdin.read())
    print(json.dumps(unit(job)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
