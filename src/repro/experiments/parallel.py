"""Parallel, disk-cached, fault-tolerant experiment execution.

Every paper figure is a (mix x scheme) matrix of independent simulations:
each cell depends only on the runner's configuration and its ``(codes,
scheme)`` pair, never on another cell.  :class:`ParallelRunner` exploits
that three ways:

* **Fan-out** — ``prewarm`` runs the matrix's missing cells through the
  batch tier's :class:`~repro.service.executor.LocalPoolExecutor`
  (``--jobs N`` on the CLI).  Workers rebuild each cell's
  :class:`~repro.api.spec.RunSpec` and return the finished
  :class:`~repro.sim.results.SystemResult`; simulations are deterministic
  functions of the spec, so the fan-out is bit-identical to the serial
  path.
* **Disk cache** — with ``cache_dir`` set, every finished cell is pickled
  under a content-addressed key (SHA-256 over the runner parameters and
  the cell coordinates).  Re-running an experiment with the same
  configuration loads cells instead of simulating them; *any* parameter
  change (scale, quota, warmup, seed, L2 size, prefetcher, or
  :data:`~repro.api.spec.CACHE_FORMAT_VERSION`) changes the key, so
  stale results can never be served.  Entries embed a SHA-256 payload checksum verified on read;
  corrupt or truncated entries are quarantined and recomputed.  Writes
  go through a temporary file and ``os.replace`` so concurrent runners
  sharing a cache directory see only complete entries.
* **Supervision** — the executor runs each drain under a
  :class:`~repro.experiments.supervision.Supervisor`: task-level
  submission (each finished cell is stored and disk-cached immediately),
  per-cell wall-clock timeouts, bounded retry with exponential backoff,
  automatic recovery from a broken process pool (respawn, resubmit only
  the unfinished cells, degrade to in-process execution after repeated
  deaths), and graceful ``SIGINT`` that flushes completed cells and
  writes a resumable :class:`~repro.experiments.supervision.RunReport`
  next to the cache.

With ``jobs=1`` and no ``cache_dir``, behaviour (and results) match the
plain :class:`~repro.experiments.runner.ExperimentRunner` exactly.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.api.spec import RunSpec
from repro.experiments.faults import FaultPlan, fault_plan_from_env
from repro.experiments.runner import ExperimentRunner, materialize_traces
from repro.experiments.supervision import ExecutorConfig, RunReport
from repro.sim.results import SystemResult
from repro.workloads.trace_cache import env_enabled, get_trace_cache

#: A cache cell: the workload codes and the scheme simulated on them.
Cell = tuple[tuple[int, ...], str]


class ResultCache:
    """On-disk pickle store for :class:`SystemResult`, keyed by content.

    Layout: ``<root>/<key[:2]>/<key>.pkl`` (fan-out over 256 subdirectories
    keeps any one directory small).  Each entry is ``magic || sha256(payload)
    || payload``; ``get`` verifies the checksum before unpickling, so a
    truncated or bit-flipped entry can never be trusted.  Damaged entries
    are *quarantined* — moved under ``<root>/_quarantine/`` for post-mortem
    rather than silently deleted — and treated as misses, so a killed or
    corrupted run can never wedge the cache.  Init sweeps temporary files
    stranded by writers that crashed between write and rename.
    """

    #: Entry header; changing the on-disk layout changes this magic (and
    #: ``CACHE_FORMAT_VERSION``, which keys every entry).
    MAGIC = b"RPC2"

    #: Directory (under the root) quarantined entries are moved into.
    QUARANTINE = "_quarantine"

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.quarantined = 0
        self.hits = 0
        self.misses = 0
        self.tmp_swept = self._sweep_stale_tmp()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def contains(self, key: str) -> bool:
        """Cheap existence probe — no read, no counters, no verification."""
        return self._path(key).exists()

    def _sweep_stale_tmp(self) -> int:
        """Remove tmp files whose writer is gone (crashed mid-``put``).

        Tmp names embed the writer's PID; a tmp whose process no longer
        exists (or whose name does not parse) is stranded and removed.
        Live writers sharing the cache directory are left alone, and so
        is the trace store (``_traces/``), which shares the cache root
        but manages its own files.
        """
        removed = 0
        for tmp in self.root.glob("*/.*.tmp"):
            if tmp.parent.name == "_traces":
                continue  # the trace cache owns its directory
            try:
                pid = int(tmp.name.rsplit(".", 2)[-2])
            except (ValueError, IndexError):
                pid = None
            if pid is not None and pid != os.getpid() and _pid_alive(pid):
                continue  # a concurrent writer still owns it
            if pid == os.getpid():
                continue  # our own in-flight write (put cleans up after itself)
            try:
                tmp.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def _quarantine(self, path: Path) -> None:
        """Move a damaged entry aside instead of trusting or hiding it."""
        target_dir = self.root / self.QUARANTINE
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / path.name)
        except OSError:
            try:  # fall back to deletion: never leave a bad entry servable
                path.unlink()
            except OSError:
                pass
        self.quarantined += 1

    def get(self, key: str) -> Optional[SystemResult]:
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        header = len(self.MAGIC) + hashlib.sha256().digest_size
        if (
            len(data) < header
            or not data.startswith(self.MAGIC)
            or hashlib.sha256(data[header:]).digest()
            != data[len(self.MAGIC) : header]
        ):
            self._quarantine(path)
            self.misses += 1
            return None
        try:
            result = pickle.loads(data[header:])
        except Exception:
            self._quarantine(path)
            self.misses += 1
            return None
        if not isinstance(result, SystemResult):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SystemResult) -> None:
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        entry = self.MAGIC + hashlib.sha256(payload).digest() + payload
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{key}.{os.getpid()}.tmp"
        try:
            tmp.write_bytes(entry)
            os.replace(tmp, path)  # atomic: readers see old or new, never partial
        finally:
            tmp.unlink(missing_ok=True)  # crash between write and rename


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


class ParallelRunner(ExperimentRunner):
    """Experiment runner with supervised fan-out and an on-disk cache.

    Drop-in replacement for :class:`ExperimentRunner`: ``run``/``outcome``
    keep their lazy, serial semantics (plus disk-cache lookups), while
    ``prewarm``/``prewarm_cells`` — called by the experiment drivers
    before a matrix — bulk simulates whatever is missing through a
    :class:`~repro.service.executor.LocalPoolExecutor` (timeouts,
    retries, pool recovery, graceful interruption) and returns the
    :class:`~repro.experiments.supervision.RunReport`.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | os.PathLike | None = None,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.25,
        fault_plan: Optional[FaultPlan] = None,
        hang_grace: Optional[float] = None,
        report_path: str | os.PathLike | None = None,
        metrics_path: str | os.PathLike | None = None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        if cache_dir is not None and env_enabled():
            # Trace buffers persist beside the result cache (one root,
            # two stores): a later run replays streams from disk even
            # when every result cell misses (e.g. a new scheme).
            get_trace_cache().set_cache_dir(cache_dir)
        self.executor_config = ExecutorConfig(
            jobs=max(1, int(jobs)),
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            hang_grace=hang_grace,
            fault_plan=fault_plan,
        )
        if report_path is None and cache_dir is not None:
            report_path = Path(cache_dir) / "run_report.json"
        self.report_path = report_path
        #: Where ``prewarm`` drops the Prometheus text rendering of its
        #: report (``--metrics`` on the CLI); ``None`` disables it.
        self.metrics_path = metrics_path

    # ------------------------------------------------------------------ #

    def _key(self, codes: tuple[int, ...], scheme: str) -> str:
        return self.spec(codes, scheme).cache_key()

    def _store(self, cell: Cell, result: SystemResult) -> None:
        self._results[cell] = result
        if self.cache is not None:
            self.cache.put(self._key(*cell), result)

    # ------------------------------------------------------------------ #

    def run(self, codes: tuple[int, ...], scheme: str) -> SystemResult:
        cell: Cell = (tuple(codes), scheme)
        found = self._results.get(cell)
        if found is not None:
            return found
        if self.cache is not None:
            found = self.cache.get(self._key(*cell))
            if found is not None:
                self._results[cell] = found
                return found
        result = self._simulate(*cell)
        self._store(cell, result)
        if self.cache is not None:
            get_trace_cache().persist()
        return result

    def prewarm_cells(self, cells: Iterable[tuple[Sequence[int], str]]) -> RunReport:
        """Simulate the missing ones of ``cells`` under supervision.

        Besides each ``(codes, scheme)`` cell this covers what
        ``outcome`` will ask for next: the mix's baseline and every
        member's stand-alone baseline run.  All of them go through one
        executor drain, on one process pool that is shut down before
        this returns.  Finished cells are stored (and disk-cached) the
        moment they complete, so an interrupted sweep resumes from the
        cache; the returned :class:`RunReport` (also written as JSON next
        to the cache) records per-cell attempts, sources and failures.
        """
        by_mix: dict[tuple[int, ...], list[str]] = {}
        for codes, scheme in cells:
            by_mix.setdefault(tuple(codes), []).append(scheme)
        wanted: dict[Cell, None] = {}  # insertion-ordered set
        for codes, schemes in by_mix.items():
            for scheme in schemes:
                wanted[(codes, scheme)] = None
            wanted[(codes, "baseline")] = None
            for code in codes:
                wanted[((code,), "baseline")] = None

        config = self.executor_config
        report = RunReport(
            config={
                "jobs": config.jobs,
                "timeout": config.timeout,
                "retries": config.retries,
                "fingerprint": list(self.spec((), "baseline").runner_key()),
            }
        )
        cache = self.cache
        base = (
            (cache.hits, cache.misses, cache.quarantined)
            if cache is not None
            else (0, 0, 0)
        )

        missing: dict[Cell, RunSpec] = {}
        for cell in wanted:
            if cell in self._results:
                report.mark_hit(cell, "memory")
                continue
            spec = self.spec(*cell)
            if cache is not None:
                found = cache.get(spec.cache_key())
                if found is not None:
                    self._results[cell] = found
                    report.mark_hit(cell, "cache")
                    continue
            missing[cell] = spec

        if cache is not None:
            # All of prewarm's disk lookups happen in the scan above, so
            # the deltas are final before anything gets written.
            report.cache_hits = cache.hits - base[0]
            report.cache_misses = cache.misses - base[1]
            report.cache_quarantined = cache.quarantined - base[2]

        try:
            if missing:
                # Import here: the service package imports this module.
                from repro.service.executor import LocalPoolExecutor

                materialize_traces(missing.values())
                executor = LocalPoolExecutor(config).bind(
                    on_result=self._store,
                    report=report,
                    report_path=self.report_path,
                )
                for cell, spec in missing.items():
                    executor.submit(cell, {"spec": spec.to_dict()})
                try:
                    executor.drain()
                finally:
                    executor.close()
            else:
                report.finalize()
                if self.report_path is not None:
                    report.write(self.report_path)
        finally:
            # Interrupted or failed sweeps still leave their metrics, like
            # the JSON report the supervisor writes on the same paths.
            self._write_metrics(report)
        return report

    def _write_metrics(self, report: RunReport) -> None:
        if self.metrics_path is None:
            return
        path = Path(self.metrics_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report.to_prometheus())


def make_runner(
    jobs: int = 1,
    cache_dir: str | os.PathLike | None = None,
    timeout: Optional[float] = None,
    retries: int = 2,
    fault_plan: Optional[FaultPlan] = None,
    hang_grace: Optional[float] = None,
    report_path: str | os.PathLike | None = None,
    metrics_path: str | os.PathLike | None = None,
    **kwargs,
) -> ExperimentRunner:
    """Build the cheapest runner that honours the orchestration knobs.

    A :class:`ParallelRunner` is returned whenever fan-out, caching,
    supervision flags, or a fault plan (explicit or via the hidden
    ``REPRO_FAULT_PLAN`` chaos knob) are in play; otherwise the plain
    serial :class:`ExperimentRunner`.
    """
    if fault_plan is None:
        fault_plan = fault_plan_from_env()
    supervised = (
        jobs > 1
        or cache_dir is not None
        or timeout is not None
        or fault_plan is not None
        or hang_grace is not None
        or report_path is not None
        or metrics_path is not None
    )
    if not supervised:
        return ExperimentRunner(**kwargs)
    return ParallelRunner(
        jobs=jobs,
        cache_dir=cache_dir,
        timeout=timeout,
        retries=retries,
        fault_plan=fault_plan,
        hang_grace=hang_grace,
        report_path=report_path,
        metrics_path=metrics_path,
        **kwargs,
    )
