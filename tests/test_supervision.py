"""Supervisor: retries, timeouts, pool recovery, degradation, interruption.

These tests drive the supervisor with a trivial picklable worker instead
of real simulations, so every failure mode — injected via
:class:`~repro.experiments.faults.FaultPlan` — is exercised in well under
a second.  Real-simulation failure modes live in
``test_failure_modes.py``.  The last section drives the warm pool a
:class:`~repro.service.executor.LocalPoolExecutor` keeps across drains
with small real simulations: reuse, the re-fork rule, recovery of an
idle worker's death, the re-armed watchdog and clean shutdown.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

import repro.service.executor as executor_module
from repro.api import RunSpec, result_digest
from repro.experiments.faults import Fault, FaultPlan, apply_fault
from repro.experiments.runner import materialize_traces, run_payload, simulate_spec
from repro.experiments.supervision import (
    ExecutorConfig,
    RunReport,
    SupervisionError,
    Supervisor,
    cell_name,
)
from repro.service import BatchScheduler
from repro.service.executor import LocalPoolExecutor
from repro.workloads.trace_cache import get_trace_cache, reset_trace_cache

CELLS = [((code,), "s") for code in (1, 2, 3, 4)]


def toy_worker(payload):
    """Return a deterministic value; honour injected faults."""
    cell = (tuple(payload["codes"]), payload["scheme"])
    fault = payload.get("fault")
    if fault is not None:
        out = apply_fault(fault, in_process=payload.get("fault_in_process", False))
        if out is not None:
            return cell, out
    if payload.get("always_crash"):
        raise RuntimeError("permanent failure")
    return cell, payload["codes"][0] * 10


def payload_for(cell, **extra):
    codes, scheme = cell
    return {"codes": codes, "scheme": scheme, **extra}


def make_supervisor(**kwargs):
    kwargs.setdefault("backoff", 0.0)
    kwargs.setdefault("validate", lambda result: isinstance(result, int))
    return Supervisor(toy_worker, payload_for, **kwargs)


def expected_results():
    return {cell: cell[0][0] * 10 for cell in CELLS}


# --------------------------------------------------------------------- #
# Serial mode
# --------------------------------------------------------------------- #


def test_serial_success_delivers_every_result_immediately():
    delivered = {}
    sup = make_supervisor(jobs=1, on_result=delivered.__setitem__)
    results = sup.run(CELLS)
    assert results == expected_results() == delivered
    counts = sup.report.counts
    assert counts["simulated"] == 4 and counts["failed"] == 0
    assert sup.report.total_attempts == 4


def test_serial_crash_is_retried_and_recovers():
    plan = FaultPlan({CELLS[1]: Fault("crash")})
    sup = make_supervisor(jobs=1, retries=2, fault_plan=plan)
    assert sup.run(CELLS) == expected_results()
    rec = sup.report.record(CELLS[1])
    assert rec.attempts == 2 and rec.status == "ok"
    assert sup.report.retried == 1
    assert any("InjectedCrash" in err for err in rec.errors)


def test_serial_corrupt_result_is_rejected_and_retried():
    plan = FaultPlan({CELLS[0]: Fault("corrupt")})
    sup = make_supervisor(jobs=1, retries=1, fault_plan=plan)
    assert sup.run(CELLS) == expected_results()
    assert sup.report.record(CELLS[0]).errors == ["invalid-result"]


def test_exhausted_retries_raise_but_keep_completed_cells():
    delivered = {}

    def payloads(cell):
        return payload_for(cell, always_crash=(cell == CELLS[3]))

    sup = Supervisor(
        toy_worker,
        payloads,
        jobs=1,
        retries=1,
        backoff=0.0,
        on_result=delivered.__setitem__,
    )
    with pytest.raises(SupervisionError) as excinfo:
        sup.run(CELLS)
    # Every other cell completed and was delivered before the error.
    good = {cell: value for cell, value in expected_results().items() if cell != CELLS[3]}
    assert delivered == good
    assert list(excinfo.value.failed) == [CELLS[3]]
    assert cell_name(CELLS[3]) in str(excinfo.value)
    rec = sup.report.record(CELLS[3])
    assert rec.status == "failed" and rec.attempts == 2


def test_sigint_flushes_completed_and_reports_resumable(tmp_path, capsys):
    delivered = {}
    report_path = tmp_path / "report.json"
    sup = make_supervisor(jobs=1, report_path=report_path)

    def deliver_then_interrupt(cell, value):
        delivered[cell] = value
        if len(delivered) == 2:
            os.kill(os.getpid(), signal.SIGINT)

    sup.on_result = deliver_then_interrupt
    with pytest.raises(KeyboardInterrupt):
        sup.run(CELLS)
    assert len(delivered) == 2  # completed cells flushed, rest untouched
    data = json.loads(report_path.read_text())
    assert data["interrupted"] is True
    assert data["counts"]["simulated"] == 2 and data["counts"]["pending"] == 2
    assert "re-run the same command" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# Pool mode
# --------------------------------------------------------------------- #


def test_pool_success_matches_serial():
    sup = make_supervisor(jobs=2)
    assert sup.run(CELLS) == expected_results()
    assert sup.report.counts["simulated"] == 4


def test_pool_crash_is_retried_and_recovers():
    plan = FaultPlan({CELLS[2]: Fault("crash")})
    sup = make_supervisor(jobs=2, retries=2, fault_plan=plan)
    assert sup.run(CELLS) == expected_results()
    assert sup.report.record(CELLS[2]).status == "ok"
    assert sup.report.retried >= 1


def test_pool_death_respawns_and_resubmits_unfinished():
    plan = FaultPlan({CELLS[0]: Fault("die")})
    sup = make_supervisor(jobs=2, retries=2, fault_plan=plan)
    assert sup.run(CELLS) == expected_results()
    assert sup.report.pool_deaths >= 1
    assert sup.report.counts["failed"] == 0


def test_hung_cell_trips_timeout_and_recovers():
    plan = FaultPlan({CELLS[1]: Fault("hang", seconds=10.0)})
    sup = make_supervisor(jobs=2, retries=2, timeout=0.5, fault_plan=plan)
    assert sup.run(CELLS) == expected_results()
    assert sup.report.timeouts == 1
    rec = sup.report.record(CELLS[1])
    assert rec.status == "ok" and any("timeout" in err for err in rec.errors)


def test_repeated_pool_deaths_degrade_to_serial():
    plan = FaultPlan({CELLS[0]: Fault("die")})
    sup = make_supervisor(jobs=2, retries=2, max_pool_deaths=0, fault_plan=plan)
    assert sup.run(CELLS) == expected_results()
    assert sup.report.degraded_serial is True
    assert sup.report.counts["failed"] == 0


# --------------------------------------------------------------------- #
# RunReport
# --------------------------------------------------------------------- #


def test_report_roundtrip_and_summary(tmp_path):
    report = RunReport(config={"jobs": 2})
    report.mark_hit(CELLS[0], "cache")
    report.mark_ok(CELLS[1], 0.25)
    report.record(CELLS[2])
    report.finalize()
    path = report.write(tmp_path / "r.json")
    data = json.loads(path.read_text())
    assert data["version"] == RunReport.VERSION
    assert data["config"] == {"jobs": 2}
    assert data["counts"] == {
        "total": 3,
        "memory": 0,
        "cache": 1,
        "simulated": 1,
        "failed": 0,
        "pending": 1,
        "hits": 1,
    }
    by_status = {tuple(c["codes"]): c["status"] for c in data["cells"]}
    assert by_status == {(1,): "ok", (2,): "ok", (3,): "pending"}
    assert "3 cells" in report.summary()


# --------------------------------------------------------------------- #
# Warm local pool: one LocalPoolExecutor, many drains
# --------------------------------------------------------------------- #

WARM = RunSpec(mix=(471, 444), scheme="avgcc", quota=1_500, warmup=500)


@pytest.fixture()
def fresh_trace_cache():
    reset_trace_cache()  # no cache_dir: the inherited memo is the only source
    yield get_trace_cache()
    reset_trace_cache()


def local_executor(report=None, **config):
    delivered = {}
    executor = LocalPoolExecutor(ExecutorConfig(jobs=2, backoff=0.0, **config))
    executor.bind(on_result=delivered.__setitem__, report=report)
    return executor, delivered


def drain_one(executor, spec):
    """One drain round as the scheduler runs it: materialize, submit, drain."""
    materialize_traces([spec])
    executor.submit(spec, {"spec": spec.to_dict()})
    return executor.drain()[spec]


def _probe_run_payload(payload):
    """Pool worker: ``run_payload`` plus the trace memo's stats around it."""
    stats = get_trace_cache().stats
    before = dict(stats)
    spec, result = run_payload(payload)
    result.probe = (before, dict(stats))
    return spec, result


def test_drains_without_a_new_stream_reuse_one_pool(pools_built, fresh_trace_cache):
    executor, delivered = local_executor()
    try:
        specs = [WARM, WARM.replace(scheme="dsr"), WARM.replace(scheme="baseline")]
        for spec in specs:  # one stream: the schemes share the mix's trace
            drain_one(executor, spec)
        assert len(pools_built) == 1
    finally:
        executor.close()
    for spec in specs:
        assert result_digest(delivered[spec]) == result_digest(simulate_spec(spec))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool workers inherit the parent's memo only under fork",
)
def test_new_stream_reforks_and_workers_hit_the_inherited_memo(
    monkeypatch, pools_built, fresh_trace_cache
):
    monkeypatch.setattr(executor_module, "run_payload", _probe_run_payload)
    executor, _ = local_executor()
    other = WARM.replace(mix=(444, 445))
    try:
        drain_one(executor, WARM)
        assert len(pools_built) == 1
        result = drain_one(executor, other)  # two new per-core streams
        assert len(pools_built) == 2
        before, after = result.probe
        assert after["memo_hits"] == before["memo_hits"] + len(other.mix)
        assert after["materialized"] == before["materialized"]
        drain_one(executor, other.replace(scheme="dsr"))  # nothing new
        assert len(pools_built) == 2
    finally:
        executor.close()


def test_idle_worker_killed_between_drains_is_recovered(pools_built, fresh_trace_cache):
    report = RunReport()
    executor, delivered = local_executor(report=report)
    try:
        drain_one(executor, WARM)
        pool = executor._pool
        victim = next(iter(pool._processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        again = WARM.replace(scheme="dsr")
        drain_one(executor, again)
    finally:
        executor.close()
    assert report.pool_deaths == 1
    assert len(pools_built) == 2
    for spec in (WARM, again):
        assert result_digest(delivered[spec]) == result_digest(simulate_spec(spec))


def test_watchdog_rearms_on_a_reused_pool(pools_built, fresh_trace_cache):
    hung = WARM.replace(scheme="dsr")
    report = RunReport()
    executor, delivered = local_executor(
        report=report,
        hang_grace=0.3,
        fault_plan=FaultPlan({hung: Fault("hang", seconds=60.0)}),
    )
    try:
        drain_one(executor, WARM)
        assert len(pools_built) == 1
        started = time.monotonic()
        drain_one(executor, hung)  # runs on the reused pool
        assert time.monotonic() - started < 30
    finally:
        executor.close()
    assert report.watchdog_kills == 1
    assert len(pools_built) == 2  # the reused pool, then its respawn
    assert report.record(hung).status == "ok"
    assert result_digest(delivered[hung]) == result_digest(simulate_spec(hung))


@pytest.mark.parametrize("drain", [True, False])
def test_closed_scheduler_leaves_no_worker(drain):
    before = set(multiprocessing.active_children())
    scheduler = BatchScheduler(jobs=2)
    try:
        assert scheduler.submit(WARM).result(timeout=120).scheme == "avgcc"
    finally:
        scheduler.close(drain=drain)
    assert not set(multiprocessing.active_children()) - before
