""":class:`BatchScheduler` — a long-running batch simulation service.

Large cache-simulation campaigns are throughput problems: thousands of
independent ``(mix, scheme, parameters)`` cells whose only coupling is
the shared result cache.  The scheduler turns the existing supervised
pool into a *service* for them:

* **Submission** — ``submit(spec, priority=...)`` returns a
  :class:`concurrent.futures.Future` immediately; callers block on it,
  attach callbacks, or go through the :mod:`repro.service.aio` adapter
  (``await client.run(spec)``).
* **Deduplication** — a submission identical to a *pending or
  in-flight* spec joins its execution (two futures, one simulation);
  one identical to a finished spec resolves from memory; and the
  content-addressed :class:`~repro.experiments.parallel.ResultCache`
  (keyed by the canonical :meth:`RunSpec.cache_key`) is consulted
  before simulating, so results computed by *any* past run — serial
  runner, parallel sweep or another service instance — are hits here.
* **Prioritisation** — lower ``priority`` values run earlier (ties in
  submission order); a duplicate submission at a more urgent priority
  promotes the queued spec.
* **Supervised fan-out** — execution goes through the existing
  :class:`~repro.experiments.supervision.Supervisor`: worker pool,
  per-spec timeouts, bounded retry, pool-death recovery.  The specs
  themselves are the supervisor's cells, so one drained batch can mix
  quotas, scales and cache sizes freely.
* **Graceful shutdown** — ``close(drain=True)`` finishes everything
  queued; ``close(drain=False)`` (the SIGINT path of ``repro serve`` /
  ``repro batch``) cancels queued work, stops the in-flight batch at
  the next cell boundary, and still writes the cumulative
  :class:`~repro.experiments.supervision.RunReport`.

Simulations are deterministic functions of their spec, so results are
bit-identical to the serial ``run_mix`` path — the dedup/scheduling
layer only changes *when* a cell runs, never what it computes.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from heapq import heappop, heappush
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.api.spec import RunSpec
from repro.experiments.faults import fault_plan_from_env
from repro.experiments.parallel import ResultCache
from repro.experiments.runner import simulate_spec
from repro.experiments.supervision import RunReport, SupervisionError
from repro.service.executor import (
    _UNSET,
    ExecutorConfig,
    make_executor,
    warn_legacy,
)
from repro.service.durability import (
    AdmissionController,
    AdmissionRejected,
    BatchJournal,
    BreakerOpen,
    CircuitBreaker,
    DeadlineExceeded,
    JournalError,
)
from repro.sim.results import SystemResult
from repro.sim.config import ScaleModel
from repro.workloads.mixes import make_workloads
from repro.workloads.trace_cache import env_enabled, get_trace_cache


class JobFailed(RuntimeError):
    """A submitted spec exhausted its retries; set on its futures."""

    def __init__(self, spec: RunSpec, kind: str) -> None:
        self.spec = spec
        self.kind = kind
        super().__init__(f"{spec.name} failed after retries: {kind}")


class SchedulerClosed(RuntimeError):
    """``submit`` was called on a scheduler that stopped accepting work."""


#: Version of the :meth:`ServiceStats.to_dict` record shape.  Bump on
#: any incompatible change (renamed/retyped keys); additive keys keep
#: the version.  v1: the PR-9 counters plus ``spans``/``span_phases``.
#: v2: ``shm_swept`` removed (traces no longer travel through /dev/shm).
STATS_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class ServiceStats:
    """A consistent snapshot of the scheduler's counters.

    ``latency`` maps scheme name to the summary quantiles (p50/p90/p99,
    count, sum, max) of submit-to-result latency for *executed* specs;
    cache and dedup hits resolve too fast to be interesting.

    The one serialised shape is :meth:`to_dict` — ``/healthz``, the
    ``/metrics`` exporter and :func:`repro.service.wire.stats_record`
    all consume it, so a counter added here reaches every surface.
    """

    submitted: int
    dedup_hits: int
    cache_hits: int
    executed: int
    failed: int
    cancelled: int
    queue_depth: int
    inflight: int
    latency: dict = field(default_factory=dict)
    #: Submissions refused (or victims dropped) by admission control.
    shed: int = 0
    #: Specs re-enqueued from the journal by ``recover``/``--resume``.
    recovered: int = 0
    #: Hung workers SIGKILLed by the heartbeat watchdog.
    watchdog_kills: int = 0
    #: Submissions refused because their scheme's breaker was open.
    breaker_rejected: int = 0
    #: ``{scheme: state}`` snapshot of the per-scheme circuit breaker.
    breaker: dict = field(default_factory=dict)
    #: Result-cache self-healing counters (quarantined entries, stale
    #: tmp files swept at open).
    cache_quarantined: int = 0
    cache_tmp_swept: int = 0
    #: Execution backend kind (``local`` or ``cluster``) and the
    #: cluster gauges — zero under the local pool.
    executor: str = "local"
    workers_connected: int = 0
    leases_active: int = 0
    redispatches: int = 0
    #: Span-tracer counters (``started``/``finished``/``adopted``/
    #: ``dropped``) — empty when tracing is off.
    spans: dict = field(default_factory=dict)
    #: ``{phase: quantile summary}`` of span durations — empty when
    #: tracing is off.
    span_phases: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The versioned stats record every surface consumes."""
        from dataclasses import asdict

        return {"stats_version": STATS_SCHEMA_VERSION, **asdict(self)}

    def to_prometheus(self) -> str:
        from repro.obs.metrics import service_to_prometheus

        return service_to_prometheus(self)


class _Entry:
    """One unique spec's lifecycle: its futures and queue state."""

    __slots__ = (
        "spec",
        "priority",
        "seq",
        "futures",
        "created",
        "state",
        "key",
        "size",
        "deadline",
        "deadline_s",
        "span",
    )

    def __init__(self, spec: RunSpec, priority: int, seq: int) -> None:
        self.spec = spec
        self.priority = priority
        self.seq = seq
        self.futures: list[Future] = []
        self.created = time.monotonic()
        self.state = "queued"  # queued | inflight | done
        self.key: Optional[str] = None  # cache key, set when journaling
        self.size = 0  # serialized spec bytes (admission accounting)
        self.deadline: Optional[float] = None  # absolute monotonic
        self.deadline_s: Optional[float] = None  # requested budget
        self.span = None  # live cell span, only when tracing is on


def _run_spec(payload: dict):
    """Worker entry point: rebuild the spec and simulate it.

    Module-level and primitive-parameterised (picklable under any
    multiprocessing start method).  Honours an injected fault payload
    like the parallel runner's worker, so chaos plans cover the service
    path too.
    """
    spec = RunSpec.from_dict(payload["spec"])
    heartbeat = payload.get("heartbeat")
    if heartbeat:
        from repro.service.durability import beat

        beat(heartbeat)
    try:
        fault = payload.get("fault")
        if fault is not None:
            from repro.experiments.faults import apply_fault

            injected = apply_fault(
                fault,
                in_process=payload.get("fault_in_process", False),
                heartbeat=heartbeat,
            )
            if injected is not None:
                return spec, injected
        return spec, simulate_spec(spec)
    finally:
        if heartbeat:
            from repro.service.durability import HEARTBEAT_IDLE, beat

            beat(heartbeat, HEARTBEAT_IDLE)


def _notify_cancel(future: Future) -> None:
    """Cancel a future *and complete the handshake*.

    ``Future.cancel()`` alone leaves the state at ``CANCELLED``;
    ``concurrent.futures.wait``/``as_completed`` only treat
    ``CANCELLED_AND_NOTIFIED`` as done, and that transition normally
    belongs to the executor that owns the future.  This scheduler is
    that executor, so it must perform it — otherwise a front-end
    blocked in ``wait()`` hangs forever after ``close(drain=False)``.
    """
    if future.cancel():
        try:
            future.set_running_or_notify_cancel()
        except Exception:  # noqa: BLE001 - already notified elsewhere
            pass


class BatchScheduler:
    """Asynchronous batch scheduler over the supervised worker pool.

    Parameters mirror the CLI orchestration flags.  With
    ``start=False`` the scheduler queues submissions without executing
    until :meth:`start` is called — deterministic for tests and for
    front-ends that want to enqueue a whole file before work begins.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache_dir: str | os.PathLike | None = None,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff=_UNSET,
        report_path: str | os.PathLike | None = None,
        metrics_path: str | os.PathLike | None = None,
        journal_dir: str | os.PathLike | None = None,
        journal: bool = True,
        fault_plan=_UNSET,
        hang_grace=_UNSET,
        max_queue_depth: Optional[int] = None,
        max_bytes: Optional[int] = None,
        shed_policy: str = "reject",
        breaker_threshold: Optional[int] = None,
        breaker_reset: float = 30.0,
        start: bool = True,
        executor="local",
        executor_options: Optional[dict] = None,
        spans_path: str | os.PathLike | None = None,
        tracer=None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.timeout = timeout
        self.retries = retries
        # Request-path tracing is opt-in: a --spans path (or an explicit
        # tracer) turns it on; otherwise ``self.tracer`` stays None and
        # every emission site below is a single pointer test.
        if tracer is None and spans_path is not None:
            from repro.obs.spans import SpanTracer

            tracer = SpanTracer()
        self.tracer = tracer
        self.spans_path = spans_path
        self._span_specs: dict[str, RunSpec] = {}  # cell span_id -> spec
        # Legacy execution-policy kwargs (pre-Executor API): honoured,
        # but deprecated in favour of ``executor_options`` — the same
        # once-per-process warning policy as the runner's legacy shims.
        options = dict(executor_options or {})
        for name, value in (
            ("backoff", backoff),
            ("fault_plan", fault_plan),
            ("hang_grace", hang_grace),
        ):
            if value is not _UNSET:
                warn_legacy(
                    f"BatchScheduler({name}=...)",
                    f"pass executor_options={{'{name}': ...}} instead",
                )
                options.setdefault(name, value)
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        if cache_dir is not None and env_enabled():
            # Share one disk root with the result cache: trace buffers
            # live under ``<cache_dir>/_traces`` (see parallel.ResultCache).
            get_trace_cache().set_cache_dir(cache_dir)
        if report_path is None and cache_dir is not None:
            report_path = Path(cache_dir) / "run_report.json"
        self.report_path = report_path
        self.metrics_path = metrics_path
        # The write-ahead journal lives next to the result cache by
        # default — one root for everything a resume needs.
        if journal_dir is None and journal and cache_dir is not None:
            journal_dir = cache_dir
        self._journal = (
            BatchJournal(journal_dir) if journal and journal_dir is not None else None
        )
        self._journal_closed = False
        plan = options.pop("fault_plan", None)
        if plan is None:
            plan = fault_plan_from_env()
        config = ExecutorConfig(
            jobs=self.jobs,
            timeout=timeout,
            retries=retries,
            backoff=options.pop("backoff", 0.25),
            hang_grace=options.pop("hang_grace", None),
            fault_plan=plan,
        )
        self.executor = make_executor(executor, config, **options)
        self.admission = (
            AdmissionController(max_queue_depth, max_bytes, shed_policy)
            if max_queue_depth is not None or max_bytes is not None
            else None
        )
        self.breaker = (
            CircuitBreaker(breaker_threshold, breaker_reset)
            if breaker_threshold is not None
            else None
        )
        #: Cumulative report across every batch this scheduler drains.
        self.report = RunReport(
            config={
                "jobs": self.jobs,
                "timeout": timeout,
                "retries": retries,
                "executor": self.executor.kind,
            }
        )
        self.executor.bind(
            worker=_run_spec,
            validate=lambda result: isinstance(result, SystemResult),
            on_result=lambda spec, result: self._resolve(
                spec, result, simulated=True
            ),
            report=self.report,
            report_path=self.report_path,
            tracer=self.tracer,
        )

        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._queue: list[tuple[int, int, RunSpec]] = []  # (priority, seq, spec)
        self._entries: dict[RunSpec, _Entry] = {}
        self._results: dict[RunSpec, SystemResult] = {}
        self._seq = itertools.count()
        self._closing = False
        self._abort = False
        self._batch_started: dict[RunSpec, float] = {}

        self.submitted = 0
        self.dedup_hits = 0
        self.cache_hits = 0
        self.executed = 0
        self.failed = 0
        self.cancelled = 0
        self.shed = 0
        self.recovered = 0
        self._pending_bytes = 0
        self._latencies: dict[str, list[float]] = {}

        self._thread: Optional[threading.Thread] = None
        if start:
            self.start()

    # Legacy attribute views: execution policy now lives on the
    # executor's config, but pre-Executor callers read it off the
    # scheduler directly.
    @property
    def backoff(self) -> float:
        return self.executor.config.backoff

    @property
    def fault_plan(self):
        return self.executor.config.fault_plan

    @property
    def hang_grace(self) -> Optional[float]:
        return self.executor.config.hang_grace

    # ------------------------------------------------------------------ #
    # Submission side
    # ------------------------------------------------------------------ #

    def submit(
        self,
        spec: RunSpec,
        priority: int = 0,
        deadline: Optional[float] = None,
        trace=None,
    ) -> Future:
        """Queue one spec; the returned future resolves to its result.

        Lower ``priority`` runs earlier.  ``deadline`` (seconds from
        now; defaults to the spec's own ``deadline`` field) bounds how
        long the spec may wait *and* run — an expired spec fails with
        :class:`~repro.service.durability.DeadlineExceeded` instead of
        occupying a worker.  ``trace`` is an optional inbound span
        context (``{"trace_id", "span_id"}``): when tracing is on, the
        cell span roots under it instead of starting a fresh trace.
        Raises :class:`~repro.api.spec.SpecError` on an invalid spec,
        :class:`SchedulerClosed` after :meth:`close`,
        :class:`~repro.service.durability.AdmissionRejected` when shed
        by admission control, and
        :class:`~repro.service.durability.BreakerOpen` while the spec's
        scheme is circuit-broken.
        """
        spec.validate()
        future: Future = Future()
        with self._lock:
            if self._closing:
                raise SchedulerClosed("scheduler is closed to new submissions")
            self.submitted += 1
            done = self._results.get(spec)
            if done is not None:
                self.cache_hits += 1
                if self.tracer is not None:
                    self.tracer.event(
                        "dedup", trace, cell=spec.name, source="memory"
                    )
                future.set_result(done)
                return future
            entry = self._entries.get(spec)
            if entry is not None:
                # In-flight dedup: identical pending/executing spec —
                # share its execution, promote its priority if ours is
                # more urgent and it has not been picked up yet.
                self.dedup_hits += 1
                entry.futures.append(future)
                if self.tracer is not None:
                    self.tracer.event(
                        "dedup",
                        trace if trace is not None else entry.span,
                        cell=spec.name,
                        source="inflight",
                    )
                if entry.state == "queued" and priority < entry.priority:
                    entry.priority = priority
                    heappush(self._queue, (priority, entry.seq, spec))
                return future
            # Genuinely new work from here on: it must pass the breaker
            # and admission control (dedup joins and memory hits above
            # add no load, so they are always admitted).
            if self.breaker is not None:
                self.breaker.allow(spec.scheme)
            size = 0
            if self.admission is not None:
                size = len(
                    json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
                )
                queued = [e for e in self._entries.values() if e.state == "queued"]
                try:
                    victim = self.admission.admit(
                        len(queued),
                        self._pending_bytes,
                        size,
                        priority,
                        queued,
                        self._retry_after_locked(),
                    )
                except AdmissionRejected:
                    self.shed += 1
                    raise
                if victim is not None:
                    self.shed += 1
                    self._shed_entry_locked(victim)
            entry = _Entry(spec, priority, next(self._seq))
            entry.futures.append(future)
            entry.size = size
            if self.tracer is not None:
                entry.span = self.tracer.begin(
                    "cell", trace, cell=spec.name, scheme=spec.scheme
                )
                self._span_specs[entry.span.span_id] = spec
            self._pending_bytes += size
            budget = deadline if deadline is not None else spec.deadline
            if budget is not None:
                entry.deadline_s = float(budget)
                entry.deadline = time.monotonic() + entry.deadline_s
            if self._journal is not None:
                entry.key = spec.cache_key()
                self._journal.append(
                    "submitted", entry.key, spec=spec.to_dict(), priority=priority
                )
            self._entries[spec] = entry
            heappush(self._queue, (priority, entry.seq, spec))
            self._wake.notify_all()
        return future

    def _retry_after_locked(self) -> float:
        """Load-based retry hint: median spec latency × backlog ÷ jobs."""
        samples = [s for values in self._latencies.values() for s in values]
        per_spec = sorted(samples)[len(samples) // 2] if samples else 1.0
        backlog = len(self._entries)
        return min(60.0, max(1.0, per_spec * (1 + backlog) / self.jobs))

    def _shed_entry_locked(self, entry: _Entry) -> None:
        """Drop a queued victim to admit a more urgent submission."""
        entry.state = "done"
        self._entries.pop(entry.spec, None)
        self._pending_bytes -= entry.size
        self.cancelled += 1
        self._finish_cell_span(entry, "shed")
        if self._journal is not None and entry.key is not None:
            self._journal.append("cancelled", entry.key, detail="shed")
        for future in entry.futures:
            _notify_cancel(future)

    def map(self, specs: Iterable[RunSpec], priority: int = 0) -> list[Future]:
        """Submit a whole batch; futures in submission order."""
        return [self.submit(spec, priority=priority) for spec in specs]

    # ------------------------------------------------------------------ #
    # Crash recovery
    # ------------------------------------------------------------------ #

    @classmethod
    def recover(
        cls, journal_dir: str | os.PathLike, **scheduler_kwargs
    ) -> "BatchScheduler":
        """Build a scheduler on an existing journal and resume its work.

        ``journal_dir`` doubles as the default ``cache_dir`` (they share
        a root unless told otherwise), so specs whose results landed in
        the disk cache before the crash resolve from it without
        re-simulation; only genuinely unfinished work re-executes.  The
        replay summary is left on ``scheduler.resume_summary``.
        """
        scheduler_kwargs.setdefault("cache_dir", journal_dir)
        scheduler_kwargs["journal_dir"] = journal_dir
        scheduler_kwargs["journal"] = True
        scheduler = cls(**scheduler_kwargs)
        scheduler.resume_summary = scheduler.resume_from_journal()
        return scheduler

    def resume_from_journal(self) -> dict:
        """Replay the journal; re-enqueue every outstanding spec.

        Returns a summary dict: ``pending`` (outstanding records found),
        ``resumed`` (re-enqueued here), ``cache_resident`` (of those,
        already content-addressed on disk — they will resolve from the
        cache, not re-simulate), ``done`` (journaled terminal),
        ``corrupt_lines`` (torn/invalid lines skipped), and ``futures``
        (``(spec, Future)`` pairs for the re-enqueued work, in replay
        order, so front-ends can await and print per-spec outcomes).
        """
        if self._journal is None:
            raise JournalError(
                "scheduler has no journal; pass cache_dir or journal_dir"
            )
        replay = self._journal.replay()
        cache_resident = 0
        futures: list = []
        for key, spec_dict, priority in replay.pending:
            spec = RunSpec.from_dict(spec_dict)
            if self.cache is not None and self.cache.contains(key):
                cache_resident += 1
            futures.append((spec, self.submit(spec, priority=priority)))
        with self._lock:
            self.recovered += len(futures)
        return {
            "pending": len(replay.pending),
            "resumed": len(futures),
            "cache_resident": cache_resident,
            "done": len(replay.done_keys),
            "corrupt_lines": replay.corrupt_lines,
            "futures": futures,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "BatchScheduler":
        """Start the scheduler thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="repro-batch-scheduler", daemon=True
            )
            self._thread.start()
        return self

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until nothing is queued or in flight; True on success."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._entries or self._queue:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining if remaining is not None else 0.5)
        return True

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting work; finish or cancel what's queued.

        ``drain=True`` completes everything already submitted.
        ``drain=False`` — the interrupt path — cancels queued specs
        (their futures report cancelled), asks the in-flight supervisor
        to stop at the next cell boundary, and returns once the
        scheduler thread exits.  Both paths write the cumulative run
        report (and the metrics file, when configured).
        """
        with self._lock:
            self._closing = True
            if not drain:
                self._abort = True
                self.executor.cancel()
                # Cancelled-by-abort specs keep their ``submitted``
                # journal records: an aborted batch is exactly what
                # ``--resume`` is for.
                self._cancel_queued_locked(journal=False)
            self._wake.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
        self.executor.close()
        if self._journal is not None and not self._journal_closed:
            self._journal_closed = True
            # A drained close replays to an empty work set, so compaction
            # truncates the journal; an abort keeps it for resumption.
            self._journal.close(compact=drain and not self._abort)
        self._write_outputs()

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> ServiceStats:
        from repro.obs.metrics import latency_quantiles

        xstats = self.executor.stats()
        span_counters: dict = {}
        span_phases: dict = {}
        if self.tracer is not None:
            span_counters = self.tracer.counters()
            span_phases = self.tracer.phase_quantiles()
        with self._lock:
            queued = sum(1 for e in self._entries.values() if e.state == "queued")
            inflight = sum(1 for e in self._entries.values() if e.state == "inflight")
            return ServiceStats(
                submitted=self.submitted,
                dedup_hits=self.dedup_hits,
                cache_hits=self.cache_hits,
                executed=self.executed,
                failed=self.failed,
                cancelled=self.cancelled,
                queue_depth=queued,
                inflight=inflight,
                latency={
                    scheme: latency_quantiles(samples)
                    for scheme, samples in self._latencies.items()
                },
                shed=self.shed,
                recovered=self.recovered,
                watchdog_kills=self.report.watchdog_kills,
                breaker_rejected=(
                    self.breaker.rejected if self.breaker is not None else 0
                ),
                breaker=self.breaker.states() if self.breaker is not None else {},
                cache_quarantined=self.cache.quarantined if self.cache else 0,
                cache_tmp_swept=self.cache.tmp_swept if self.cache else 0,
                executor=xstats.kind,
                workers_connected=xstats.workers_connected,
                leases_active=xstats.leases_active,
                redispatches=xstats.redispatches,
                spans=span_counters,
                span_phases=span_phases,
            )

    # ------------------------------------------------------------------ #
    # Scheduler thread
    # ------------------------------------------------------------------ #

    def _loop(self) -> None:
        while True:
            with self._wake:
                while not self._queue and not self._closing:
                    self._wake.wait(0.1)
                if self._abort:
                    self._cancel_queued_locked(journal=False)
                if not self._queue and self._closing:
                    self._idle.notify_all()
                    return
                batch = self._pop_batch_locked()
            if not batch:
                with self._idle:
                    if not self._entries and not self._queue:
                        self._idle.notify_all()
                continue
            self._execute(batch)
            with self._idle:
                if not self._entries and not self._queue:
                    self._idle.notify_all()

    def _pop_batch_locked(self) -> list[_Entry]:
        """Drain the priority queue into an ordered, deduplicated batch."""
        batch: list[_Entry] = []
        seen: set[RunSpec] = set()
        while self._queue:
            _priority, _seq, spec = heappop(self._queue)
            entry = self._entries.get(spec)
            if entry is None or entry.state != "queued" or spec in seen:
                continue  # stale heap tuple (promoted, resolved, cancelled)
            if all(f.cancelled() for f in entry.futures):
                entry.state = "done"
                del self._entries[spec]
                self._pending_bytes -= entry.size
                self.cancelled += 1
                self._finish_cell_span(entry, "cancelled")
                if self._journal is not None and entry.key is not None:
                    self._journal.append("cancelled", entry.key)
                for future in entry.futures:
                    _notify_cancel(future)
                continue
            entry.state = "inflight"
            seen.add(spec)
            batch.append(entry)
        return batch

    def _execute(self, batch: list[_Entry]) -> None:
        batch_span = None
        if self.tracer is not None:
            batch_span = self.tracer.begin("batch", cells=len(batch))
        # Disk-cache pass first: anything already content-addressed on
        # disk resolves without occupying a worker.
        todo: list[_Entry] = []
        for entry in batch:
            if self.tracer is not None and entry.span is not None:
                # Cells submitted without an inbound context root under
                # this drain round's batch span; cells carrying a
                # caller's trace keep it (reparent is a no-op).  The
                # queue phase is recorded in hindsight — created after
                # reparenting so it lands in the cell's final trace.
                self.tracer.reparent(entry.span, batch_span)
                self.tracer.complete(
                    "queue",
                    entry.span,
                    duration=time.monotonic() - entry.created,
                )
            if self.cache is not None:
                lookup_started = time.monotonic()
                found = self.cache.get(entry.spec.cache_key())
                if self.tracer is not None and entry.span is not None:
                    self.tracer.complete(
                        "cache",
                        entry.span,
                        duration=time.monotonic() - lookup_started,
                        hit=found is not None,
                    )
                if found is not None:
                    with self._lock:
                        self.cache_hits += 1
                    self.report.mark_hit(entry.spec, "cache")
                    self._resolve(entry.spec, found, simulated=False)
                    continue
            todo.append(entry)

        # Expired deadlines fail fast instead of occupying a worker.
        now = time.monotonic()
        expired = [
            entry for entry in todo if entry.deadline is not None and now >= entry.deadline
        ]
        for entry in expired:
            self._fail(
                entry.spec, DeadlineExceeded(entry.spec.name, entry.deadline_s or 0.0)
            )
        if expired:
            todo = [entry for entry in todo if entry not in expired]
        if not todo:
            if batch_span is not None:
                self.tracer.finish(batch_span, executed=0)
            self._flush_report()
            return

        # Durability point: every spec this batch will run is on disk as
        # ``submitted``+``started`` before any work begins — one fsync
        # for the whole batch, nothing on the simulation hot path.
        if self._journal is not None:
            journal_span = None
            if self.tracer is not None:
                journal_span = self.tracer.begin("journal", batch_span)
            for entry in todo:
                self._journal.append("started", entry.key)
            self._journal.flush()
            if journal_span is not None:
                self.tracer.finish(journal_span, records=len(todo))

        started = time.monotonic()
        self._batch_started = {entry.spec: started for entry in todo}

        # Materialize each distinct workload's record streams once before
        # the fan-out; specs differing only in scheme or cache size share
        # buffers (content digests dedup them).  The local pool forks
        # after this point, so its workers inherit the memo; remote
        # workers regenerate, bit-identical because traces are
        # deterministic functions of the spec.
        if env_enabled():
            trace_cache = get_trace_cache()
            materialize_span = None
            if self.tracer is not None:
                materialize_span = self.tracer.begin("materialize", batch_span)
            streams = dict.fromkeys(
                (spec.mix, spec.scale, spec.seed, spec.quota, spec.warmup)
                for spec in (entry.spec for entry in todo)
                if spec.trace_cache is not False
            )
            for mix, scale, seed, quota, warmup in streams:
                trace_cache.materialize_for_run(
                    make_workloads(mix, ScaleModel(scale)), seed, quota, warmup
                )
            trace_cache.persist()
            if materialize_span is not None:
                self.tracer.finish(materialize_span, streams=len(streams))

        # The tightest deadline in the batch caps the per-cell timeout:
        # a spec that cannot finish inside its budget should time out
        # (and fail) rather than run long past the caller's patience.
        timeout = self.timeout
        deadlines = [e.deadline for e in todo if e.deadline is not None]
        if deadlines:
            remaining = max(0.1, min(deadlines) - time.monotonic())
            timeout = remaining if timeout is None else min(timeout, remaining)

        for entry in todo:
            payload = {"spec": entry.spec.to_dict()}
            if self.tracer is not None and entry.span is not None:
                # The cell's context rides the payload: the executor
                # parents its attempt/lease spans under it, and a remote
                # worker's execute span stitches home through it.
                payload["trace"] = entry.span.context()
            self.executor.submit(entry.spec, payload)
        with self._lock:
            if self._abort:
                self.executor.cancel()
        interrupted = False
        try:
            self.executor.drain(timeout=timeout)
        except SupervisionError as exc:
            # ExecutorError subclasses SupervisionError, so local and
            # cluster retry exhaustion land here identically.
            for spec, kind in exc.failed.items():
                self._fail(spec, JobFailed(spec, kind))
        except KeyboardInterrupt:
            interrupted = True
        if interrupted:
            # Cells the stopped supervisor never reached: cancel their
            # futures but keep their journal records — an interrupted
            # batch is resumable by definition.
            for entry in todo:
                self._cancel_entry(entry.spec, journal=False)
        if batch_span is not None:
            self.tracer.finish(
                batch_span, executed=len(todo), interrupted=interrupted
            )
        if self._journal is not None:
            self._journal.flush()
        self._flush_report()

    # ------------------------------------------------------------------ #
    # Completion plumbing
    # ------------------------------------------------------------------ #

    def _finish_cell_span(self, entry: Optional[_Entry], status: str, **attrs) -> None:
        """Finish an entry's cell span at a terminal transition (no-op
        when tracing is off or the entry never had a span)."""
        if self.tracer is None or entry is None or entry.span is None:
            return
        self.tracer.finish(entry.span, status=status, **attrs)

    def _resolve(self, spec: RunSpec, result: SystemResult, *, simulated: bool) -> None:
        # Order matters for crash safety: the result reaches the
        # content-addressed cache *before* its ``done`` record, so a
        # crash in between just replays a pending spec the disk pre-pass
        # resolves without re-simulation.
        if self.cache is not None and simulated:
            self.cache.put(spec.cache_key(), result)
        with self._lock:
            entry = self._entries.pop(spec, None)
            self._results[spec] = result
            if entry is not None:
                self._pending_bytes -= entry.size
            if simulated:
                self.executed += 1
                if entry is not None:
                    started = self._batch_started.get(spec, entry.created)
                    self._latencies.setdefault(spec.scheme, []).append(
                        time.monotonic() - started
                    )
            futures = list(entry.futures) if entry is not None else []
            if entry is not None:
                entry.state = "done"
        self._finish_cell_span(
            entry, "ok", source="simulated" if simulated else "cache"
        )
        if entry is not None and self._journal is not None and entry.key is not None:
            self._journal.append(
                "done", entry.key, detail="simulated" if simulated else "cache"
            )
        if simulated and self.breaker is not None:
            self.breaker.record_success(spec.scheme)
        for future in futures:
            if not future.cancelled():
                future.set_result(result)

    def _fail(self, spec: RunSpec, error: Exception) -> None:
        with self._lock:
            entry = self._entries.pop(spec, None)
            self.failed += 1
            if entry is not None:
                self._pending_bytes -= entry.size
            futures = list(entry.futures) if entry is not None else []
            if entry is not None:
                entry.state = "done"
        self._finish_cell_span(entry, "failed", error=type(error).__name__)
        if entry is not None and self._journal is not None and entry.key is not None:
            self._journal.append("failed", entry.key, detail=str(error))
        if self.breaker is not None and isinstance(error, JobFailed):
            # Only genuine execution failures trip the breaker; expired
            # deadlines say nothing about the scheme's health.
            self.breaker.record_failure(spec.scheme)
        for future in futures:
            if not future.cancelled():
                future.set_exception(error)

    def _cancel_entry(self, spec: RunSpec, journal: bool = True) -> None:
        with self._lock:
            entry = self._entries.pop(spec, None)
            if entry is None:
                return
            entry.state = "done"
            self._pending_bytes -= entry.size
            self.cancelled += 1
            futures = list(entry.futures)
        self._finish_cell_span(entry, "cancelled")
        if journal and self._journal is not None and entry.key is not None:
            self._journal.append("cancelled", entry.key)
        for future in futures:
            _notify_cancel(future)

    def _cancel_queued_locked(self, journal: bool = True) -> None:
        for spec, entry in list(self._entries.items()):
            if entry.state != "queued":
                continue
            entry.state = "done"
            del self._entries[spec]
            self._pending_bytes -= entry.size
            self.cancelled += 1
            self._finish_cell_span(entry, "cancelled")
            if journal and self._journal is not None and entry.key is not None:
                self._journal.append("cancelled", entry.key)
            for future in entry.futures:
                _notify_cancel(future)
        self._queue.clear()

    def _flush_report(self) -> None:
        if self.cache is not None:
            self.report.cache_hits = self.cache.hits
            self.report.cache_misses = self.cache.misses
            self.report.cache_quarantined = self.cache.quarantined
        if self.tracer is not None:
            # Fold the tracer's per-cell phase totals into existing
            # report records (RunReport v4).  Only existing records:
            # creating one here would invent "pending" cells the report
            # never executed.
            for span_id, phases in self.tracer.rollup().items():
                spec = self._span_specs.get(span_id)
                if spec is None:
                    continue
                record = self.report.records.get(spec)
                if record is not None:
                    record.phases = phases
        self.report.finalize()
        if self.report_path is not None:
            self.report.write(self.report_path)

    def _write_outputs(self) -> None:
        self._flush_report()
        if self.metrics_path is not None:
            path = Path(self.metrics_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                self.stats().to_prometheus() + self.report.to_prometheus()
            )
        if self.tracer is not None and self.spans_path is not None:
            path = Path(self.spans_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w", encoding="utf-8") as stream:
                self.tracer.write_jsonl(stream)


def run_batch(
    specs: Sequence[RunSpec],
    *,
    priorities: Optional[Sequence[int]] = None,
    **scheduler_kwargs,
) -> tuple[list, ServiceStats, RunReport]:
    """One-shot convenience: schedule ``specs``, wait, return everything.

    Returns ``(outcomes, stats, report)`` where ``outcomes[i]`` is the
    :class:`SystemResult` for ``specs[i]`` (or the exception it failed
    with).  Used by ``repro batch`` and the service smoke tests.
    """
    scheduler = BatchScheduler(**scheduler_kwargs)
    try:
        futures = [
            scheduler.submit(
                spec, priority=priorities[i] if priorities is not None else 0
            )
            for i, spec in enumerate(specs)
        ]
        outcomes: list = []
        for future in futures:
            try:
                outcomes.append(future.result())
            except Exception as exc:  # noqa: BLE001 - surfaced per spec
                outcomes.append(exc)
        scheduler.close(drain=True)
    except BaseException:
        scheduler.close(drain=False)
        raise
    return outcomes, scheduler.stats(), scheduler.report
