"""Cluster worker: executes leased cells and streams results home.

:class:`WorkerClient` is the remote half of the cluster tier — one
process per host (or several), each connecting to the coordinator with
``repro worker --connect HOST:PORT --slots K``.  A worker:

1. connects and sends a ``hello`` capability handshake (protocol
   version, slot count, cache backend, trace-cache availability);
2. waits for ``welcome`` — a structured ``reject`` (e.g. protocol
   mismatch) raises :class:`WorkerRejected` with the taxonomy code
   instead of a traceback;
3. executes ``lease`` frames on a ``slots``-wide thread pool through
   the *same* worker entry point the local pool uses
   (:func:`repro.experiments.runner.run_payload`), so trace
   materialisation, fault injection and simulation semantics are
   identical wherever a cell lands;
4. streams each outcome back as a ``result`` (pickled
   :class:`~repro.sim.results.SystemResult`) or ``error`` frame, and
   heartbeats between frames so the coordinator can tell a busy worker
   from a dead one;
5. exits cleanly on a ``shutdown`` frame or when the coordinator goes
   away.

Each lease executes in its own thread; the simulation itself runs
single-threaded per cell exactly as it does under the local pool, so
results are bit-identical by construction.  ``in_process_faults=True``
(used by in-process loopback workers in tests) downgrades hard death
faults so an injected ``die`` cannot kill the test process.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.service import wire

#: Seconds between heartbeat frames.  Coordinators judge staleness
#: against their ``hang_grace``, which should comfortably exceed this.
DEFAULT_HEARTBEAT_INTERVAL = 0.2


class WorkerRejected(RuntimeError):
    """The coordinator refused this worker's handshake."""

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        super().__init__(f"coordinator rejected worker ({code}): {message}")


class WorkerClient:
    """One worker process's connection to a coordinator.

    ``slots`` bounds how many leases execute concurrently.  ``run()``
    blocks until the coordinator shuts the worker down (or the
    connection dies) and returns the number of leases completed.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        slots: int = 1,
        name: Optional[str] = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        in_process_faults: bool = False,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.slots = max(1, int(slots))
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.heartbeat_interval = max(0.05, float(heartbeat_interval))
        self.in_process_faults = in_process_faults
        self.completed = 0
        self.errors = 0
        self._sock: Optional[socket.socket] = None
        self._wfile = None
        self._send_lock = threading.Lock()
        self._stop = threading.Event()
        self._busy = 0
        self._busy_lock = threading.Lock()

    # -- wire helpers --------------------------------------------------- #

    def _send(self, frame: dict) -> None:
        with self._send_lock:
            if self._wfile is None:
                raise OSError("not connected")
            wire.write_frame(self._wfile, frame)

    def _capabilities(self) -> dict:
        from repro.workloads.trace_cache import env_enabled

        return {
            "worker": self.name,
            "slots": self.slots,
            "backend": os.environ.get("REPRO_CACHE_BACKEND", "slot"),
            "trace_cache": env_enabled(),
            "pid": os.getpid(),
        }

    # -- lifecycle ------------------------------------------------------ #

    def connect(self) -> None:
        """Dial the coordinator and complete the capability handshake."""
        sock = socket.create_connection((self.host, self.port))
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._wfile = sock.makefile("wb")
        self._send(wire.make_frame("hello", **self._capabilities()))
        frame = wire.read_frame(self._rfile)
        if frame is None:
            raise WorkerRejected("internal", "coordinator hung up mid-handshake")
        if frame.get("type") == "reject":
            raise WorkerRejected(
                str(frame.get("code", "internal")),
                str(frame.get("error", "no reason given")),
            )
        wire.check_frame(frame, expect="welcome")
        self.coordinator = frame.get("coordinator", "")

    def run(self) -> int:
        """Serve leases until shutdown/disconnect; returns leases done."""
        if self._sock is None:
            self.connect()
        heartbeats = threading.Thread(
            target=self._heartbeat_loop, name="repro-worker-heartbeat", daemon=True
        )
        heartbeats.start()
        pool = ThreadPoolExecutor(
            max_workers=self.slots, thread_name_prefix="repro-worker-slot"
        )
        try:
            while not self._stop.is_set():
                try:
                    frame = wire.read_frame(self._rfile)
                except (wire.WireError, OSError):
                    break
                if frame is None:
                    break  # coordinator went away
                kind = frame.get("type")
                if kind == "lease":
                    pool.submit(self._execute, frame)
                elif kind == "shutdown":
                    try:
                        self._send(wire.make_frame("goodbye"))
                    except OSError:
                        pass
                    break
        finally:
            self._stop.set()
            # Don't wait on leases mid-flight: with the connection gone
            # their results have nowhere to go, and a hung simulation
            # (injected or real) must not pin the process open.
            pool.shutdown(wait=False, cancel_futures=True)
            self.close()
        return self.completed

    def stop(self) -> None:
        """Ask ``run`` to wind down (used by in-process test workers)."""
        self._stop.set()
        self.close()

    def kill(self) -> None:
        """Abruptly sever the connection — simulates a worker death."""
        self._stop.set()
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self.close()

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    # -- internals ------------------------------------------------------ #

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            try:
                with self._busy_lock:
                    busy = self._busy
                self._send(wire.make_frame("heartbeat", busy=busy))
            except OSError:
                return

    def _execute(self, frame: dict) -> None:
        """Run one lease and stream its outcome back."""
        from repro.experiments.runner import run_payload

        lease = frame.get("lease")
        payload = dict(frame.get("payload") or {})
        # The coordinator's lease-span context, when it traces.  Workers
        # run no tracer of their own: the execute span goes home as a
        # completed record inside the result/error frame and the
        # coordinator adopts it into its trace.  Popped so the spec
        # payload stays exactly what the local pool would see.
        trace_ctx = payload.pop("trace", None)
        if self.in_process_faults and "fault" in payload:
            payload["fault_in_process"] = True
        with self._busy_lock:
            self._busy += 1
        started = time.monotonic()
        wall = time.time()
        try:
            _, result = run_payload(payload)
        except BaseException as exc:  # noqa: BLE001 - streamed, not raised
            self.errors += 1
            try:
                self._send(
                    wire.make_frame(
                        "error",
                        lease=lease,
                        error=f"{type(exc).__name__}: {exc}",
                        **self._span_records(
                            trace_ctx, wall, started, status="error"
                        ),
                    )
                )
            except OSError:
                pass
            return
        finally:
            with self._busy_lock:
                self._busy -= 1
        try:
            self._send(
                wire.make_frame(
                    "result",
                    lease=lease,
                    result=wire.encode_result(result),
                    duration=round(time.monotonic() - started, 6),
                    **self._span_records(trace_ctx, wall, started, status="ok"),
                )
            )
            self.completed += 1
        except OSError:
            pass

    def _span_records(self, trace_ctx, wall, started, *, status) -> dict:
        """``{"spans": [...]}`` for an outcome frame, or ``{}`` untraced."""
        if trace_ctx is None:
            return {}
        from repro.obs.spans import completed_span

        return {
            "spans": [
                completed_span(
                    trace_ctx,
                    "execute",
                    wall=wall,
                    duration=time.monotonic() - started,
                    status=status,
                    worker=self.name,
                )
            ]
        }


def run_worker(
    connect: str,
    *,
    slots: int = 1,
    name: Optional[str] = None,
    stream=None,
) -> int:
    """CLI body of ``repro worker``: serve one coordinator, then exit.

    Returns the process exit code: 0 after a clean shutdown or
    coordinator disconnect, 2 if the handshake was rejected.
    """
    from repro.cluster.coordinator import parse_address

    stream = stream if stream is not None else sys.stderr
    host, port = parse_address(connect)
    client = WorkerClient(host, port, slots=slots, name=name)
    try:
        client.connect()
    except WorkerRejected as exc:
        print(f"repro worker: {exc}", file=stream)
        return 2
    except OSError as exc:
        print(f"repro worker: cannot reach {host}:{port}: {exc}", file=stream)
        return 2
    print(
        f"repro worker: {client.name} serving {client.coordinator or connect} "
        f"with {client.slots} slot(s)",
        file=stream,
    )
    completed = client.run()
    print(
        f"repro worker: done — {completed} lease(s) completed, "
        f"{client.errors} error(s)",
        file=stream,
    )
    return 0
