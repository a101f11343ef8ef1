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

* :class:`LocalPoolExecutor` is today's behaviour, verbatim — each
  drain builds a :class:`Supervisor` with exactly the kwargs the
  scheduler used to pass, so ``--executor local`` stays bit-identical
  (the golden-digest tests run unchanged against it).
* :class:`~repro.cluster.ClusterExecutor` (see :mod:`repro.cluster`)
  fans the same payloads out to worker processes on other hosts over
  the length-prefixed wire protocol.

The scheduler keeps owning everything above execution — dedup, the
priority queue, journal, admission, breaker, deadlines — which is what
makes the acceptance property cheap to state: an executor only decides
*where* a cell simulates, never *what* it computes.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.experiments.faults import FaultPlan
from repro.experiments.supervision import (
    RunReport,
    SupervisionError,
    Supervisor,
    cell_name,
)

#: Distinguishes "kwarg not passed" from an explicit ``None``.
_UNSET = object()

#: The release that deletes the legacy kwargs this module still shims.
#: Named in every deprecation message so callers know their horizon.
REMOVAL_VERSION = "repro 2.0"

#: Once-per-process latch for legacy-kwarg deprecation warnings (same
#: policy as :mod:`repro.experiments.runner`): the first legacy use
#: warns with migration guidance, the rest stay quiet so a sweep over
#: thousands of specs does not drown its own output.
_DEPRECATION_WARNED: set = set()


def warn_legacy(name: str, replacement: str) -> None:
    """Emit one :class:`DeprecationWarning` per process per kwarg."""
    if name in _DEPRECATION_WARNED:
        return
    _DEPRECATION_WARNED.add(name)
    warnings.warn(
        f"{name} is deprecated and will be removed in {REMOVAL_VERSION}; "
        f"{replacement}",
        DeprecationWarning,
        stacklevel=3,
    )


class ExecutorError(SupervisionError):
    """Specs exhausted their retry budget under some executor.

    Subclasses :class:`SupervisionError` so every existing catch site —
    the scheduler's, tests', callers' — handles cluster failures the
    same way it already handles local ones.  ``failed`` maps spec to
    failure kind, exactly like the parent.
    """


@dataclass(frozen=True)
class ExecutorConfig:
    """Execution policy shared by every backend.

    These are the knobs the scheduler used to pass straight into
    :class:`Supervisor`; an executor interprets them in its own terms
    (``jobs`` is pool width locally, irrelevant to a cluster whose
    width is whatever workers connect; ``hang_grace`` arms the local
    heartbeat watchdog or the remote-lease staleness check).
    """

    jobs: int = 1
    timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.25
    hang_grace: Optional[float] = None
    fault_plan: Optional[FaultPlan] = None

    def with_timeout(self, timeout: Optional[float]) -> "ExecutorConfig":
        return replace(self, timeout=timeout)


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

    Lifecycle: construct → :meth:`bind` once (the scheduler wires in
    its worker callable and completion plumbing) → any number of
    ``submit×N; drain()`` rounds → :meth:`close`.  :meth:`cancel` may
    arrive from another thread at any point and must make the active
    (or next) drain wind down at a cell boundary and raise
    :class:`KeyboardInterrupt`, matching the Supervisor stop protocol
    the scheduler's interrupt path is built on.
    """

    kind = "abstract"

    def __init__(self, config: Optional[ExecutorConfig] = None) -> None:
        self.config = config if config is not None else ExecutorConfig()
        self._worker: Optional[Callable] = None
        self._validate: Optional[Callable] = None
        self._on_result: Optional[Callable] = None
        self._report: Optional[RunReport] = None
        self._report_path = None
        self._tracer = None

    def bind(
        self,
        *,
        worker: Callable,
        validate: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
        report: Optional[RunReport] = None,
        report_path=None,
        tracer=None,
    ) -> "Executor":
        """Wire in the scheduler's worker callable and result plumbing.

        ``tracer`` is the scheduler's :class:`~repro.obs.spans.SpanTracer`
        or ``None``; backends emit attempt/lease spans only when set.
        """
        self._worker = worker
        self._validate = validate
        self._on_result = on_result
        self._report = report
        self._report_path = report_path
        self._tracer = tracer
        return self

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

    # Supervisor-compatible alias: the scheduler's abort path predates
    # the protocol and anything holding a backend reference may still
    # speak the old verb.
    def request_stop(self) -> None:
        self.cancel()


class LocalPoolExecutor(Executor):
    """Today's execution path behind the protocol — bit-identical.

    Each drain constructs a :class:`Supervisor` with exactly the kwargs
    the scheduler passed before the refactor and runs the buffered
    cells through it; payloads, retry charging, pool recovery, the
    report and the stop protocol are all the Supervisor's, untouched.
    """

    kind = "local"

    def __init__(self, config: Optional[ExecutorConfig] = None) -> None:
        super().__init__(config)
        self._lock = threading.Lock()
        self._buffer: dict = {}
        self._active: Optional[Supervisor] = None
        self._cancelled = False

    def submit(self, cell, payload: dict) -> None:
        self._buffer[cell] = payload

    def drain(self, timeout=_UNSET) -> dict:
        if self._worker is None:
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
                if inner is not None:
                    inner(cell, result)

        supervisor = Supervisor(
            self._worker,
            payload_fn,
            jobs=self.config.jobs,
            timeout=self.config.timeout if timeout is _UNSET else timeout,
            retries=self.config.retries,
            backoff=self.config.backoff,
            fault_plan=self.config.fault_plan,
            hang_grace=self.config.hang_grace,
            validate=self._validate,
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
            if tracer is not None:
                for span in spans.values():
                    tracer.finish(span, status="failed")

    def cancel(self) -> None:
        with self._lock:
            self._cancelled = True
            if self._active is not None:
                self._active.request_stop()

    def stats(self) -> ExecutorStats:
        return ExecutorStats(kind=self.kind)


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
