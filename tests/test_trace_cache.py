"""The materialized trace layer: memo, disk, fork inheritance, bit-identity.

The contract under test is the one every speedup in the layer rests on:
a materialized stream replayed through any storage hop (in-process memo,
``array('q')`` disk blocks, a forked pool worker's inherited memo)
yields exactly the records the raw generator would have produced with
the engine's RNG seeding, record for record.
"""

import multiprocessing
from itertools import islice
from random import Random

import pytest

from repro.api.spec import RunSpec
from repro.experiments.supervision import Supervisor
from repro.workloads.mixes import make_workloads
from repro.workloads.trace_cache import (
    MaterializedTrace,
    TraceCache,
    env_enabled,
    get_trace_cache,
    reset_trace_cache,
)

MIX = (471, 444)
SEED = 7
QUOTA = 4_000
WARMUP = 2_000
K = 3_000  # records compared per stream


def _reference(workload, core_id: int) -> list:
    """What the engine would consume without the trace layer."""
    rng = Random((SEED << 8) + core_id)
    return list(islice(iter(workload.trace(rng)), K))


@pytest.fixture()
def workloads():
    return make_workloads(MIX)


def test_replay_equals_generator_output(workloads):
    cache = TraceCache()
    wrapped = cache.wrap_workloads(workloads, SEED, QUOTA, WARMUP)
    for core_id, (raw, proxy) in enumerate(zip(workloads, wrapped)):
        assert proxy is not raw  # benchmark instances are materializable
        assert proxy.name == raw.name and proxy.timing is raw.timing
        replayed = list(islice(proxy.trace(Random(0)), K))  # rng is ignored
        assert replayed == _reference(raw, core_id)


def test_memo_hit_returns_same_buffer(workloads):
    cache = TraceCache()
    first = cache.get(workloads[0], 0, SEED, QUOTA, WARMUP)
    again = cache.get(workloads[0], 0, SEED, QUOTA, WARMUP)
    assert again is first
    assert cache.stats["memo_hits"] == 1
    assert cache.stats["materialized"] == 1
    # A different core seed is a different stream, not a memo hit.
    other = cache.get(workloads[0], 1, SEED, QUOTA, WARMUP)
    assert other is not first
    assert cache.stats["materialized"] == 2


def test_distinct_parameters_distinct_digests(workloads):
    cache = TraceCache()
    base = cache.get(workloads[0], 0, SEED, QUOTA, WARMUP).digest
    assert cache.get(workloads[0], 0, SEED + 1, QUOTA, WARMUP).digest != base
    assert cache.get(workloads[0], 0, SEED, QUOTA + 1, WARMUP).digest != base
    assert cache.get(workloads[0], 0, SEED, QUOTA, WARMUP + 1).digest != base


def test_serialization_round_trip(workloads):
    cache = TraceCache()
    entry = cache.get(workloads[0], 0, SEED, QUOTA, WARMUP)
    entry.ensure(K)
    assert MaterializedTrace.decode(entry.to_bytes()) == entry.records
    empty = MaterializedTrace("d", lambda: iter(()))
    assert MaterializedTrace.decode(empty.to_bytes()) == []


def test_disk_round_trip(tmp_path, workloads):
    writer = TraceCache(cache_dir=tmp_path)
    entry = writer.get(workloads[0], 0, SEED, QUOTA, WARMUP)
    entry.ensure(K)
    assert writer.persist() == 1
    assert writer.persist() == 0  # unchanged buffers are not rewritten

    reader = TraceCache(cache_dir=tmp_path)
    loaded = reader.get(workloads[0], 0, SEED, QUOTA, WARMUP)
    assert reader.stats["disk_hits"] == 1
    assert reader.stats["materialized"] == 0
    assert loaded.records[:K] == entry.records[:K]
    # Replay past the persisted prefix continues via a seeded rebuild.
    replayed = list(islice(loaded.iterator(), K + 500))
    raw = Random((SEED << 8) + 0)
    expected = list(islice(iter(workloads[0].trace(raw)), K + 500))
    assert replayed == expected


def test_corrupt_disk_entry_regenerates(tmp_path, workloads):
    writer = TraceCache(cache_dir=tmp_path)
    entry = writer.get(workloads[0], 0, SEED, QUOTA, WARMUP)
    entry.ensure(256)
    writer.persist()
    (path,) = (tmp_path / "_traces").glob("*.trc")
    path.write_bytes(b"torn" + path.read_bytes()[:32])

    reader = TraceCache(cache_dir=tmp_path)
    loaded = reader.get(workloads[0], 0, SEED, QUOTA, WARMUP)
    assert reader.stats["disk_hits"] == 0
    assert reader.stats["materialized"] == 1
    assert not path.exists()  # torn file dropped, not trusted
    assert list(islice(loaded.iterator(), 256)) == _reference(workloads[0], 0)[:256]


def _probe_inherited_stream(payload: dict):
    """Pool worker: read one core's stream from the process-global cache
    and report the cache's stats around the lookup."""
    core_id = payload["core"]
    cache = get_trace_cache()
    before = dict(cache.stats)
    entry = cache.get(make_workloads(MIX)[core_id], core_id, SEED, QUOTA, WARMUP)
    records = list(islice(entry.iterator(), K))
    return core_id, (before, dict(cache.stats), records)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool workers inherit the parent's memo only under fork",
)
def test_forked_pool_workers_inherit_the_parents_memo(workloads):
    reset_trace_cache()
    try:
        parent = get_trace_cache()  # no cache_dir: the memo is the only source
        parent.materialize_for_run(workloads, SEED, QUOTA, WARMUP)
        materialized = parent.stats["materialized"]
        assert materialized == len(workloads)
        supervisor = Supervisor(
            _probe_inherited_stream,
            lambda core_id: {"core": core_id},
            jobs=2,
            retries=0,
        )
        results = supervisor.run(range(len(workloads)))
        assert sorted(results) == list(range(len(workloads)))
        for core_id, (before, after, records) in results.items():
            assert after["memo_hits"] == before["memo_hits"] + 1
            assert after["materialized"] == materialized
            assert records == _reference(workloads[core_id], core_id)
    finally:
        reset_trace_cache()


def test_finite_source_replay_terminates():
    finite = [(0, 1, 2, False), (1, 3, 4, True)]
    trace = MaterializedTrace("d", lambda: iter(finite), source=iter(finite))
    assert list(trace.iterator()) == finite
    assert list(trace.iterator()) == finite  # replays, does not re-drain


def test_non_materializable_workloads_pass_through():
    class Opaque:
        name = "opaque"
        timing = None

        def trace(self, rng):  # pragma: no cover - never drained here
            return iter(())

    cache = TraceCache()
    opaque = Opaque()
    assert cache.get(opaque, 0, SEED, QUOTA, WARMUP) is None
    assert cache.wrap_workloads([opaque], SEED, QUOTA, WARMUP) == [opaque]


def test_trace_cache_knob_outside_result_cache_key():
    on = RunSpec(mix=MIX, trace_cache=True)
    off = RunSpec(mix=MIX, trace_cache=False)
    default = RunSpec(mix=MIX)
    assert on.cache_key() == off.cache_key() == default.cache_key()
    assert on.key_tuple() == off.key_tuple()
    # ...but the knob itself survives a serialization round trip.
    assert RunSpec.from_dict(on.to_dict()).trace_cache is True
    assert RunSpec.from_dict(off.to_dict()).trace_cache is False
    assert RunSpec.from_dict(default.to_dict()).trace_cache is None


def test_env_flag_parsing(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    assert env_enabled()
    for off in ("0", "false", "no", "off"):
        monkeypatch.setenv("REPRO_TRACE_CACHE", off)
        assert not env_enabled()
    monkeypatch.setenv("REPRO_TRACE_CACHE", "1")
    assert env_enabled()


def test_result_cache_sweep_leaves_trace_files_alone(tmp_path):
    from repro.experiments.parallel import ResultCache

    traces = tmp_path / "_traces"
    traces.mkdir()
    keep = traces / ".deadbeef.trc.99999999.tmp"
    keep.write_bytes(b"in-flight trace write")
    stale_dir = tmp_path / "ab"
    stale_dir.mkdir()
    stale = stale_dir / ".abcd.pkl.99999999.tmp"
    stale.write_bytes(b"stranded result write")

    ResultCache(tmp_path)  # init sweeps stale result tmp files

    assert keep.exists(), "sweep must not touch the trace store"
    assert not stale.exists(), "stranded result tmp files are swept"
