"""Materialized trace layer: generate once, replay everywhere.

Synthetic benchmark traces are pure functions of ``(benchmark model,
address base, scale, per-core RNG seed)`` — yet the simulator used to
regenerate them record by record for every run, every benchmark repeat and
every ``ParallelRunner``/``BatchScheduler`` worker, even when a sweep
(fig1 ways, tab4 sizes) replays the *same* stream against dozens of cache
configurations.  This module drains each generator once into a compact
record buffer and replays it at C speed afterwards:

* :class:`MaterializedTrace` — one per-core record stream: a growing list
  of ``(gap, pc, addr, is_write)`` tuples plus the live generator that
  extends it on demand.  Replay iterators are ``chain(islice(list_iter),
  tail)`` — the materialized prefix is consumed by C iterators with zero
  per-record Python work, and only the (rare) overflow past the prefix
  falls back to generation.
* :class:`TraceCache` — the process-wide store: an in-process memo keyed
  by content digest and optional persistence as ``array('q')`` blocks
  beside the result cache (``<cache_dir>/_traces/``).

Pool workers get their streams from the same store, without a hand-off
of their own: the pool forks after the parent has materialized a run's
streams, so each worker inherits the parent's memo (and its
``cache_dir``, so a memo miss reads the disk layer).  Where ``fork`` is
unavailable, or on a remote cluster worker, the stream regenerates from
its seed — slower, bit-identical.

Everything is bit-identical by construction: buffers hold exactly the
tuples the generator yielded, the content digest covers every parameter
the stream depends on, and overflow continues the original generator (or
an identically seeded rebuild, fast-forwarded past the prefix).

Workloads opt in by exposing ``trace_signature()`` (a stable description
of their deterministic stream — see
:meth:`repro.workloads.spec2006.BenchmarkInstance.trace_signature`);
workloads without it (multithreaded kernels share one RNG across
components and hash process-dependent PC bases) keep the generator path.
"""

from __future__ import annotations

import hashlib
import os
import struct
from array import array
from collections import OrderedDict
from itertools import chain, islice
from pathlib import Path
from random import Random
from typing import Iterator, Optional

#: Bump when the record layout or the digest inputs change.
TRACE_FORMAT_VERSION = 1

#: Serialized buffer magic ("Repro TRace v1").
_MAGIC = b"RTR1"
_HEADER = struct.Struct("<4sQ")

#: Records appended per extension pull once a replay overruns the buffer.
_EXTEND_CHUNK = 32_768

#: In-process memo bound: streams beyond this are dropped LRU-first.
_DEFAULT_MAX_STREAMS = 128

#: Environment kill-switch (``REPRO_TRACE_CACHE=0`` disables the layer).
ENV_FLAG = "REPRO_TRACE_CACHE"

def env_enabled() -> bool:
    """Whether the trace cache is enabled by default in this process."""
    return os.environ.get(ENV_FLAG, "1") not in ("0", "false", "no", "off")


class MaterializedTrace:
    """One benchmark's per-core record stream, drained into a buffer.

    ``records`` holds the stream prefix produced so far; ``iterator``
    replays it and transparently extends past the end by continuing the
    original generator (kept live in-process) or an identically seeded
    rebuild fast-forwarded past the prefix (after a disk round trip).
    """

    __slots__ = ("digest", "records", "_source", "_factory", "persisted_len")

    def __init__(
        self,
        digest: str,
        factory,
        records: Optional[list] = None,
        source: Optional[Iterator] = None,
    ) -> None:
        self.digest = digest
        self.records: list[tuple[int, int, int, bool]] = records if records is not None else []
        #: Live generator positioned exactly at ``len(records)`` draws, or
        #: ``None`` when the buffer was loaded without one.
        self._source = source
        #: Zero-argument callable producing a fresh, identically seeded
        #: generator (used to rebuild ``_source`` after a load).
        self._factory = factory
        #: Buffer length already on disk (skip rewrites that add nothing).
        self.persisted_len = len(self.records)

    def ensure(self, n: int) -> None:
        """Extend the buffer to at least ``n`` records."""
        records = self.records
        if len(records) >= n:
            return
        source = self._source
        if source is None:
            # Rebuild the generator and fast-forward past the prefix: the
            # stream is deterministic, so skipping len(records) draws
            # resumes exactly where the buffer ends.
            source = self._factory()
            skip = len(records)
            if skip:
                next(islice(source, skip - 1, skip), None)
            self._source = source
        while len(records) < n:
            before = len(records)
            records.extend(islice(source, _EXTEND_CHUNK))
            if len(records) == before:  # finite source drained
                break

    def iterator(self) -> Iterator[tuple[int, int, int, bool]]:
        """An engine-facing trace: replay the buffer, then keep generating."""
        n0 = len(self.records)
        # islice bounds the list iterator to the current prefix so records
        # appended by the tail are never yielded twice.
        return chain(islice(iter(self.records), n0), self._tail(n0))

    def _tail(self, start: int) -> Iterator[tuple[int, int, int, bool]]:
        records = self.records
        i = start
        while True:
            n = len(records)
            if i >= n:
                self.ensure(n + _EXTEND_CHUNK)
                if len(records) <= i:  # finite source: stop replaying
                    return
                n = len(records)
            while i < n:
                yield records[i]
                i += 1

    # ------------------------------------------------------------------ #
    # Serialization (the disk layer's file format)
    # ------------------------------------------------------------------ #

    def to_bytes(self) -> bytes:
        """Serialize the buffer: header + four int64 blocks (gap/pc/addr/w)."""
        records = self.records
        if records:
            gaps, pcs, addrs, writes = zip(*records)
        else:
            gaps = pcs = addrs = writes = ()
        parts = [_HEADER.pack(_MAGIC, len(records))]
        for column in (gaps, pcs, addrs):
            parts.append(array("q", column).tobytes())
        parts.append(array("q", map(int, writes)).tobytes())
        return b"".join(parts)

    @staticmethod
    def decode(payload) -> list[tuple[int, int, int, bool]]:
        """Parse :meth:`to_bytes` output back into record tuples."""
        magic, count = _HEADER.unpack_from(payload, 0)
        if magic != _MAGIC:
            raise ValueError(f"bad trace buffer magic {magic!r}")
        offset = _HEADER.size
        block = count * 8
        columns = []
        for i in range(4):
            col = array("q")
            col.frombytes(bytes(payload[offset + i * block: offset + (i + 1) * block]))
            if len(col) != count:
                raise ValueError("truncated trace buffer")
            columns.append(col.tolist())
        gaps, pcs, addrs, writes = columns
        return list(zip(gaps, pcs, addrs, map(bool, writes)))


class _CachedTraceWorkload:
    """A workload whose ``trace()`` replays a materialized buffer.

    Proxies ``name``/``timing`` (all the engine reads) and ignores the
    engine's RNG: the buffer was produced by a generator seeded with the
    identical ``Random((seed << 8) + core_id)``, so replay is bit-identical
    to handing that RNG to the raw workload.
    """

    __slots__ = ("inner", "materialized", "name", "timing")

    def __init__(self, inner, materialized: MaterializedTrace) -> None:
        self.inner = inner
        self.materialized = materialized
        self.name = inner.name
        self.timing = inner.timing

    def trace(self, rng: Random) -> Iterator[tuple[int, int, int, bool]]:
        return self.materialized.iterator()


class TraceCache:
    """Process-wide store of materialized traces.

    Layers, consulted in order: in-process memo, then the on-disk store
    under ``<cache_dir>/_traces/``.  A miss in both materializes lazily
    from the workload's generator.
    """

    def __init__(
        self,
        cache_dir: Optional[os.PathLike] = None,
        max_streams: int = _DEFAULT_MAX_STREAMS,
    ) -> None:
        self._memo: OrderedDict[str, MaterializedTrace] = OrderedDict()
        self._max_streams = max_streams
        self.cache_dir: Optional[Path] = None
        self.stats = {
            "memo_hits": 0,
            "disk_hits": 0,
            "materialized": 0,
        }
        if cache_dir is not None:
            self.set_cache_dir(cache_dir)

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #

    def set_cache_dir(self, cache_dir: Optional[os.PathLike]) -> None:
        """Point the disk layer at ``<cache_dir>/_traces`` (``None`` disables)."""
        if cache_dir is None:
            self.cache_dir = None
        else:
            self.cache_dir = Path(cache_dir) / "_traces"

    # ------------------------------------------------------------------ #
    # Lookup / materialization
    # ------------------------------------------------------------------ #

    @staticmethod
    def digest_for(signature, core_seed: int, quota: int, warmup: int) -> str:
        """Content address of one per-core stream.

        ``signature`` is the workload's stable stream description;
        ``core_seed`` is the exact engine RNG seed ``(seed << 8) + core``.
        ``quota``/``warmup`` join the address (per the content-addressing
        contract) even though the stream itself is run-length-agnostic.
        """
        payload = repr((TRACE_FORMAT_VERSION, signature, core_seed, quota, warmup))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def get(
        self, workload, core_id: int, seed: int, quota: int, warmup: int
    ) -> Optional[MaterializedTrace]:
        """The materialized stream for one core, or ``None`` if the
        workload does not expose a deterministic trace signature."""
        signature_fn = getattr(workload, "trace_signature", None)
        if signature_fn is None:
            return None
        core_seed = (seed << 8) + core_id
        digest = self.digest_for(signature_fn(), core_seed, quota, warmup)
        memo = self._memo
        entry = memo.get(digest)
        if entry is not None:
            memo.move_to_end(digest)
            self.stats["memo_hits"] += 1
            return entry
        factory = self._factory(workload, core_seed)
        records = self._load_disk(digest)
        if records is None:
            self.stats["materialized"] += 1
            entry = MaterializedTrace(digest, factory, source=factory())
        else:
            entry = MaterializedTrace(digest, factory, records=records)
        memo[digest] = entry
        while len(memo) > self._max_streams:
            memo.popitem(last=False)
        return entry

    @staticmethod
    def _factory(workload, core_seed: int):
        return lambda: iter(workload.trace(Random(core_seed)))

    def wrap_workloads(
        self, workloads: list, seed: int, quota: int, warmup: int
    ) -> list:
        """Replace materializable workloads with buffer-replaying proxies.

        Position in the list is the engine core id; workloads without a
        trace signature pass through untouched (generator path).
        """
        wrapped = []
        for core_id, workload in enumerate(workloads):
            entry = self.get(workload, core_id, seed, quota, warmup)
            if entry is None:
                wrapped.append(workload)
            else:
                wrapped.append(_CachedTraceWorkload(workload, entry))
        return wrapped

    def materialize_for_run(
        self, workloads: list, seed: int, quota: int, warmup: int, slack: float = 1.4
    ) -> list[MaterializedTrace]:
        """Eagerly generate the buffers one run of ``workloads`` will replay.

        Used by fan-out parents before the pool forks: workers inherit
        the buffer, but what a worker appends stays in that worker, so
        the prefix should already cover the run.  The record-count
        estimate is the committed-instruction budget over the smallest
        possible per-record commit (``gap_min + 1``) times ``slack`` (the
        post-quota keep-running phase); a run that still outlives the
        prefix falls back to generation in the worker — slower, never
        wrong.
        """
        entries = []
        for core_id, workload in enumerate(workloads):
            entry = self.get(workload, core_id, seed, quota, warmup)
            if entry is None:
                continue
            gap = getattr(getattr(workload, "spec", None), "gap", None)
            gap_min = gap[0] if gap else 1
            entry.ensure(int((quota + warmup) / (gap_min + 1) * slack) + 1024)
            entries.append(entry)
        return entries

    # ------------------------------------------------------------------ #
    # Disk layer
    # ------------------------------------------------------------------ #

    def _path(self, digest: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{digest}.trc"

    def _load_disk(self, digest: str) -> Optional[list]:
        if self.cache_dir is None:
            return None
        path = self._path(digest)
        try:
            payload = path.read_bytes()
        except OSError:
            return None
        try:
            records = MaterializedTrace.decode(payload)
        except (ValueError, struct.error):
            # A torn or foreign file is not worth failing a run over; the
            # stream regenerates and the file is rewritten by persist().
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats["disk_hits"] += 1
        return records

    def persist(self) -> int:
        """Write grown buffers to the disk layer; returns files written.

        Files are written via a same-directory temp name + atomic rename,
        mirroring the result cache's torn-write discipline.
        """
        if self.cache_dir is None:
            return 0
        written = 0
        # Snapshot: another scheduler thread sharing the process-global
        # cache may be materializing (inserting) concurrently.
        for entry in list(self._memo.values()):
            if len(entry.records) <= entry.persisted_len and entry.persisted_len > 0:
                continue
            if not entry.records:
                continue
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            path = self._path(entry.digest)
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            tmp.write_bytes(entry.to_bytes())
            os.replace(tmp, path)
            entry.persisted_len = len(entry.records)
            written += 1
        return written

    # ------------------------------------------------------------------ #

    def clear(self) -> None:
        """Drop the memo (tests)."""
        self._memo.clear()


#: The process-global cache ``simulate_spec`` and the runners share.
_GLOBAL: Optional[TraceCache] = None


def get_trace_cache() -> TraceCache:
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = TraceCache()
    return _GLOBAL


def reset_trace_cache() -> None:
    """Tests: forget the global cache."""
    global _GLOBAL
    _GLOBAL = None
