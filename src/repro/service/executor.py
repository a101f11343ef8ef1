"""The :class:`Executor` protocol — pluggable batch execution backends.

Before this module the :class:`~repro.service.scheduler.BatchScheduler`
reached directly into :class:`~repro.experiments.supervision.Supervisor`
— construction, kwargs, exception types and stop protocol were all
hard-wired, so "run this batch somewhere else" meant rewriting the
scheduler.  The redesign extracts the scheduler's actual needs into a
four-method contract:

* :meth:`Executor.submit` — buffer one ``(spec, payload)`` for the next
  drain;
* :meth:`Executor.drain` — execute everything buffered, delivering each
  result through the bound ``on_result`` callback the moment it exists,
  and raise :class:`ExecutorError` for specs that exhausted retries;
* :meth:`Executor.cancel` — stop at the next cell boundary (the SIGINT
  / ``close(drain=False)`` path);
* :meth:`Executor.stats` — a :class:`ExecutorStats` snapshot folded
  into the service's metrics.

Backends are interchangeable by construction:

* :class:`LocalPoolExecutor` runs each drain under a
  :class:`Supervisor` over a local process pool it keeps warm from
  drain to drain — the only place one is built, for the batch scheduler
  and the experiment runner's ``prewarm`` alike, so ``--executor local``
  stays bit-identical (the golden-digest tests run unchanged against
  it).
* :class:`~repro.cluster.ClusterExecutor` (see :mod:`repro.cluster`)
  fans the same payloads out to worker processes on other hosts over
  the length-prefixed wire protocol.

Every backend runs the same worker entry point,
:func:`repro.experiments.runner.run_payload`, and accepts only results
that pass :meth:`Executor.validate`.  The scheduler keeps owning
everything above execution — dedup, the priority queue, journal,
admission, breaker, deadlines — which is what makes the acceptance
property cheap to state: an executor only decides *where* a cell
simulates, never *what* it computes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional

from repro.experiments.runner import run_payload
from repro.experiments.supervision import (
    ExecutorConfig,
    RunReport,
    SupervisionError,
    Supervisor,
    cell_name,
    kill_pool,
    spawn_pool,
)
from repro.sim.results import SystemResult
from repro.workloads.trace_cache import get_trace_cache

#: Distinguishes "kwarg not passed" from an explicit ``None``.
_UNSET = object()

class ExecutorError(SupervisionError):
    """Specs exhausted their retry budget under some executor.

    Subclasses :class:`SupervisionError` so every existing catch site —
    the scheduler's, tests', callers' — handles cluster failures the
    same way it already handles local ones.  ``failed`` maps spec to
    failure kind, exactly like the parent.
    """


@dataclass(frozen=True)
class ExecutorStats:
    """One backend's execution counters, folded into the service stats."""

    kind: str = "local"
    #: Live remote workers (0 for the local pool — its workers are
    #: child processes, not registered peers).
    workers_connected: int = 0
    #: Remote worker slots currently holding a lease.
    leases_active: int = 0
    #: Leases lost to worker death/hang and dispatched again.
    redispatches: int = 0


class Executor:
    """Abstract execution backend for the batch scheduler.

    Lifecycle: construct → :meth:`bind` once (the caller wires in its
    completion plumbing) → any number of ``submit×N; drain()`` rounds
    → :meth:`close`.  :meth:`cancel` may
    arrive from another thread at any point and must make the active
    (or next) drain wind down at a cell boundary and raise
    :class:`KeyboardInterrupt`, matching the Supervisor stop protocol
    the scheduler's interrupt path is built on.
    """

    kind = "abstract"

    def __init__(self, config: Optional[ExecutorConfig] = None) -> None:
        self.config = config if config is not None else ExecutorConfig()
        self._on_result: Optional[Callable] = None
        self._report: Optional[RunReport] = None
        self._report_path = None
        self._tracer = None

    def bind(
        self,
        *,
        on_result: Callable,
        report: Optional[RunReport] = None,
        report_path=None,
        tracer=None,
    ) -> "Executor":
        """Wire in the caller's result plumbing.

        ``on_result(cell, result)`` receives each finished cell;
        ``tracer`` is the scheduler's :class:`~repro.obs.spans.SpanTracer`
        or ``None``; backends emit attempt/lease spans only when set.
        """
        self._on_result = on_result
        self._report = report
        self._report_path = report_path
        self._tracer = tracer
        return self

    @staticmethod
    def validate(result) -> bool:
        """Whether a worker's return is a usable result (else retried)."""
        return isinstance(result, SystemResult)

    # -- the protocol --------------------------------------------------- #

    def submit(self, cell, payload: dict) -> None:
        """Buffer one cell and its worker payload for the next drain."""
        raise NotImplementedError

    def drain(self, timeout=_UNSET) -> dict:
        """Execute everything buffered; return ``{cell: result}``.

        ``timeout`` overrides the configured per-cell timeout for this
        round only (the scheduler tightens it to the batch's nearest
        deadline).  Completed cells reach ``on_result`` immediately;
        cells that exhaust retries are raised in an
        :class:`ExecutorError` at the end.  Raises
        :class:`KeyboardInterrupt` if cancelled mid-drain.
        """
        raise NotImplementedError

    def cancel(self) -> None:
        """Stop the active (or next) drain at the next cell boundary."""
        raise NotImplementedError

    def stats(self) -> ExecutorStats:
        return ExecutorStats(kind=self.kind)

    def close(self) -> None:
        """Release backend resources (listeners, connections, pools)."""


class LocalPoolExecutor(Executor):
    """The local process pool behind the protocol.

    Each drain constructs a :class:`Supervisor` from the config and runs
    the buffered cells through :func:`run_payload`; payloads, retry
    charging, pool recovery, the report and the stop protocol are all
    the Supervisor's.  Cells are opaque keys — the scheduler submits
    :class:`~repro.api.spec.RunSpec` objects, the experiment runner
    ``(codes, scheme)`` tuples.

    With ``jobs > 1`` the executor owns one process pool for its
    lifetime and lends it to every drain's Supervisor, so a drain round
    costs a submit, not a pool spawn and shutdown.  The Supervisor's
    recovery is unchanged: a stop, a timeout recycle or a broken pool
    (including an idle worker that died between drains, which surfaces
    at the next submit) kills and respawns the pool inside the run, and
    the survivor comes back.  Forked workers hold only the trace streams
    the parent had when they forked, so the pool is re-forked before a
    drain whenever the parent's trace memo has taken in a stream since
    (see :meth:`_lend_pool`).  :meth:`close` shuts the pool down, or
    terminates it after :meth:`cancel`.
    """

    kind = "local"

    def __init__(self, config: Optional[ExecutorConfig] = None) -> None:
        super().__init__(config)
        self._lock = threading.Lock()
        self._buffer: dict = {}
        self._active: Optional[Supervisor] = None
        self._cancelled = False
        self._closed = False
        #: The warm pool between drains (``None`` while lent or unbuilt)
        #: and the trace-memo state its workers forked with.
        self._pool = None
        self._pool_streams: Optional[tuple] = None

    def submit(self, cell, payload: dict) -> None:
        self._buffer[cell] = payload

    def drain(self, timeout=_UNSET) -> dict:
        if self._on_result is None:
            raise RuntimeError("executor is not bound; call bind() first")
        buffer, self._buffer = self._buffer, {}
        if not buffer:
            return {}
        tracer = self._tracer
        payload_fn = buffer.__getitem__
        on_result = self._on_result
        spans: dict = {}
        if tracer is not None:
            # One attempt span per try, parented under the cell span's
            # context riding in the payload.  The Supervisor asks for a
            # cell's payload at every dispatch, so that is where a try
            # begins; a cell dispatched again while its previous span is
            # still open was retried (or requeued by a pool recycle).
            tries: dict = {}

            def payload_fn(cell):
                payload = buffer[cell]
                previous = spans.get(cell)
                if previous is not None:
                    tracer.finish(previous, status="retry")
                tries[cell] = tries.get(cell, 0) + 1
                spans[cell] = tracer.begin(
                    "attempt",
                    payload.get("trace"),
                    cell=cell_name(cell),
                    attempt=tries[cell],
                    executor="local",
                )
                return payload

            inner = self._on_result

            def on_result(cell, result):
                span = spans.pop(cell, None)
                if span is not None:
                    tracer.finish(span, status="ok")
                inner(cell, result)

        supervisor = Supervisor(
            run_payload,
            payload_fn,
            pool=self._lend_pool() if self.config.jobs > 1 else None,
            jobs=self.config.jobs,
            timeout=self.config.timeout if timeout is _UNSET else timeout,
            retries=self.config.retries,
            backoff=self.config.backoff,
            fault_plan=self.config.fault_plan,
            hang_grace=self.config.hang_grace,
            validate=self.validate,
            on_result=on_result,
            report=self._report,
            report_path=self._report_path,
        )
        with self._lock:
            self._active = supervisor
            if self._cancelled:
                supervisor.request_stop()
        try:
            return supervisor.run(list(buffer))
        finally:
            with self._lock:
                self._active = None
                pool, closed = supervisor.pool, self._closed
                if not closed:
                    self._pool = pool
            if closed and pool is not None:
                pool.shutdown(wait=True)
            if tracer is not None:
                for span in spans.values():
                    tracer.finish(span, status="failed")

    def _lend_pool(self):
        """The warm pool for the next drain, re-forked if it is stale.

        A pool's workers must hold every trace stream the drain
        replays, and forked workers hold only what the parent's memo
        had when they forked.  The memo's ``materialized`` and
        ``disk_hits`` counters grow exactly when it takes in a stream,
        so a pool whose workers forked at an older count (or under a
        replaced global cache) is shut down and a fresh one spawned.
        Re-forking (~11 ms) is cheaper than the alternatives: every
        worker loading the stream from the disk layer or regenerating it.
        """
        cache = get_trace_cache()
        streams = (id(cache), cache.stats["materialized"] + cache.stats["disk_hits"])
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None and streams != self._pool_streams:
            pool.shutdown(wait=True)  # idle between drains: nothing to wait on
            pool = None
        if pool is None:
            pool = spawn_pool(self.config.jobs)
        self._pool_streams = streams
        return pool

    def cancel(self) -> None:
        with self._lock:
            self._cancelled = True
            if self._active is not None:
                self._active.request_stop()

    def stats(self) -> ExecutorStats:
        return ExecutorStats(kind=self.kind)

    def close(self) -> None:
        """Shut the warm pool down; terminate it if cancelled.

        A drain still running (a caller that gave up waiting) shuts its
        pool down itself when it finishes.
        """
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is None:
            return
        if self._cancelled:
            kill_pool(pool)
        else:
            pool.shutdown(wait=True)


def make_executor(
    executor, config: Optional[ExecutorConfig] = None, **options
) -> Executor:
    """Resolve the scheduler's ``executor=`` argument to a backend.

    Accepts a ready :class:`Executor` instance (adopted as-is; its
    config is replaced only if one is given here), or a kind string:
    ``"local"`` → :class:`LocalPoolExecutor`, ``"cluster"`` →
    :class:`~repro.cluster.ClusterExecutor` (imported lazily so the
    service works without the cluster tier loaded).  ``options`` are
    backend-specific constructor kwargs — e.g. ``listen="host:port"``
    for the cluster coordinator.
    """
    if isinstance(executor, Executor):
        if config is not None:
            executor.config = config
        return executor
    if executor == "local":
        if options:
            raise TypeError(
                f"local executor takes no options, got {sorted(options)}"
            )
        return LocalPoolExecutor(config)
    if executor == "cluster":
        from repro.cluster import ClusterExecutor

        return ClusterExecutor(config, **options)
    raise ValueError(
        f"unknown executor {executor!r}; expected 'local', 'cluster' "
        f"or an Executor instance"
    )
