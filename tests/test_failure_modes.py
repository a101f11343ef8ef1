"""End-to-end failure modes on the real (tiny) simulation stack.

Acceptance bar for the fault-tolerant orchestration layer: every injected
failure — a worker dying hard mid-``prewarm``, a cell hanging past its
timeout, a corrupted cache entry — must leave the sweep *complete* with
results identical to a fault-free run, and the :class:`RunReport` must
account for the recovery.
"""

import json
import pickle

import pytest

from repro.experiments.faults import Fault, FaultPlan
from repro.experiments.parallel import ParallelRunner, ResultCache
from repro.experiments.runner import ExperimentRunner
from repro.experiments.supervision import SupervisionError
from repro.sim.config import ScaleModel

MIX = (471, 444)
SCHEME = "ascc"
PARAMS = dict(scale=ScaleModel(1 / 32), quota=3_000, warmup=1_000, seed=7)

#: Every cell ``prewarm`` covers for one (mix, scheme) request, in
#: submission order.
CELLS = [
    (MIX, SCHEME),
    (MIX, "baseline"),
    ((471,), "baseline"),
    ((444,), "baseline"),
]


@pytest.fixture(scope="module")
def fault_free_pickles():
    runner = ExperimentRunner(**PARAMS)
    return {cell: pickle.dumps(runner.run(*cell)) for cell in CELLS}


def chaos_runner(tmp_path, plan, **overrides):
    kwargs = dict(
        jobs=2, cache_dir=tmp_path, retries=2, backoff=0.01, fault_plan=plan
    )
    kwargs.update(overrides)
    return ParallelRunner(**kwargs, **PARAMS)


def assert_matches_fault_free(runner, fault_free_pickles):
    for cell in CELLS:
        assert pickle.dumps(runner.run(*cell)) == fault_free_pickles[cell], cell


def test_worker_killed_mid_prewarm_recovers(tmp_path, fault_free_pickles):
    plan = FaultPlan({CELLS[2]: Fault("die")})
    runner = chaos_runner(tmp_path, plan)
    report = runner.prewarm([MIX], [SCHEME])
    assert report.pool_deaths >= 1
    assert report.counts["simulated"] == 4 and report.counts["failed"] == 0
    assert_matches_fault_free(runner, fault_free_pickles)


def test_hung_cell_hits_timeout_and_is_recomputed(tmp_path, fault_free_pickles):
    plan = FaultPlan({CELLS[1]: Fault("hang", seconds=30.0)})
    runner = chaos_runner(tmp_path, plan, timeout=2.0)
    report = runner.prewarm([MIX], [SCHEME])
    assert report.timeouts == 1
    assert report.counts["simulated"] == 4 and report.counts["failed"] == 0
    assert_matches_fault_free(runner, fault_free_pickles)


def test_seeded_chaos_sweep_completes_with_accurate_report(
    tmp_path, fault_free_pickles
):
    plan = FaultPlan.from_spec("crash=1,hang=1,corrupt=1", seed=3, hang_seconds=30.0)
    runner = chaos_runner(tmp_path, plan, timeout=2.0)
    report = runner.prewarm([MIX], [SCHEME])
    assert report.counts["simulated"] == 4 and report.counts["failed"] == 0
    # Three cells each needed one recovery attempt, all accounted for.
    assert report.retried + report.pool_deaths >= 3
    assert report.total_attempts >= 4 + 3 - report.pool_deaths
    assert_matches_fault_free(runner, fault_free_pickles)
    # The JSON manifest next to the cache tells the same story.
    manifest = json.loads((tmp_path / "run_report.json").read_text())
    assert manifest["counts"] == report.counts
    errors = [err for cell in manifest["cells"] for err in cell["errors"]]
    assert errors, "recoveries must be recorded per cell"


def test_corrupted_cache_entry_is_quarantined_and_recomputed(
    tmp_path, fault_free_pickles
):
    runner = chaos_runner(tmp_path, plan=None, jobs=1)
    runner.prewarm([MIX], [SCHEME])
    # Flip bytes inside one entry's payload (checksum now mismatches).
    key = runner.spec(*CELLS[0]).cache_key()
    path = tmp_path / key[:2] / f"{key}.pkl"
    data = bytearray(path.read_bytes())
    data[-10] ^= 0xFF
    path.write_bytes(bytes(data))

    fresh = chaos_runner(tmp_path, plan=None, jobs=1)
    report = fresh.prewarm([MIX], [SCHEME])
    assert fresh.cache.quarantined == 1
    assert (tmp_path / ResultCache.QUARANTINE / path.name).exists()
    assert report.counts["cache"] == 3 and report.counts["simulated"] == 1
    assert_matches_fault_free(fresh, fault_free_pickles)


def test_prewarm_preserves_completed_cells_when_a_later_cell_fails(
    tmp_path, fault_free_pickles
):
    # retries=0 + a crash on the last-submitted cell: the sweep fails,
    # but the three cells that finished first must already be on disk.
    plan = FaultPlan({CELLS[3]: Fault("crash")})
    runner = chaos_runner(tmp_path, plan, jobs=1, retries=0)
    with pytest.raises(SupervisionError) as excinfo:
        runner.prewarm([MIX], [SCHEME])
    assert list(excinfo.value.failed) == [CELLS[3]]

    resumed = chaos_runner(tmp_path, plan=None, jobs=1)
    report = resumed.prewarm([MIX], [SCHEME])
    assert report.counts["cache"] == 3 and report.counts["simulated"] == 1
    assert report.counts["failed"] == 0
    assert_matches_fault_free(resumed, fault_free_pickles)


def test_interrupted_sweep_resumes_from_cache(tmp_path, fault_free_pickles):
    # First invocation completes only part of the matrix (simulating the
    # state an interrupt leaves behind: completed cells flushed to disk).
    partial = chaos_runner(tmp_path, plan=None, jobs=1)
    partial.prewarm([[471]], ["baseline"])

    resumed = chaos_runner(tmp_path, plan=None, jobs=1)
    report = resumed.prewarm([MIX], [SCHEME])
    assert report.counts["cache"] == 1
    assert report.counts["simulated"] == 3
    assert report.counts["hits"] == 1
    assert_matches_fault_free(resumed, fault_free_pickles)
