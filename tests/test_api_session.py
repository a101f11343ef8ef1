"""Session façade: spec-driven results, batches, observers, digests."""

import json

import pytest

from repro.api import RunSpec, Session, result_digest, result_summary
from repro.experiments.runner import ExperimentRunner

SPEC = RunSpec(mix=(471, 444), quota=2_000, warmup=1_000)


def test_result_matches_direct_runner():
    runner = ExperimentRunner(quota=2_000, warmup=1_000)
    direct = runner.run((471, 444), "avgcc")
    via_session = Session().result(SPEC)
    assert result_digest(direct) == result_digest(via_session)


def test_outcome_normalises_against_baseline():
    outcome = Session().outcome(SPEC)
    assert outcome.result.scheme == "avgcc"
    assert isinstance(outcome.speedup_improvement, float)


def test_adopt_reuses_the_runner_memory():
    runner = ExperimentRunner(quota=2_000, warmup=1_000)
    runner.run((471, 444), "avgcc")
    session = Session.adopt(runner)
    assert session.runner_for(runner.spec((471, 444), "avgcc")) is runner


def test_runner_for_groups_by_parameters():
    session = Session()
    a = session.runner_for(SPEC)
    assert session.runner_for(SPEC.replace(scheme="baseline")) is a
    assert session.runner_for(SPEC.replace(quota=3_000)) is not a


def test_prewarm_full_product_and_ragged_batches(tmp_path, pools_built):
    session = Session(cache_dir=tmp_path / "cells")
    full = [
        SPEC, SPEC.replace(scheme="baseline"),
        SPEC.replace(mix=(444, 445)),
        SPEC.replace(mix=(444, 445), scheme="baseline"),
    ]
    session.prewarm(full)
    # Ragged: one scheme only for the second mix.
    ragged = [SPEC, SPEC.replace(mix=(444, 445), scheme="dsr")]
    session.prewarm(ragged)
    for spec in full + ragged:
        assert session.result(spec).workload == "+".join(str(c) for c in spec.mix)

    # A ragged group fans out in one drain, on one pool, simulating
    # exactly its cells: 2 specs, 2 mix baselines, 3 stand-alone runs.
    assert not pools_built  # the serial session above built none
    reports = Session(jobs=2, cache_dir=tmp_path / "ragged").prewarm(ragged)
    assert len(pools_built) == 1
    assert [report.counts["simulated"] for report in reports] == [7]


def test_run_many_yields_in_submission_order():
    session = Session()
    specs = [SPEC, SPEC.replace(scheme="baseline")]
    seen = [spec.name for spec, _result in session.run_many(specs)]
    assert seen == ["471+444/avgcc", "471+444/baseline"]


def test_session_validates_specs():
    from repro.api import SpecError

    with pytest.raises(SpecError):
        Session().result(SPEC.replace(quota=0))


def test_stats_and_trace_are_bit_identical_to_plain_run():
    from repro.experiments.runner import simulate_spec

    plain = result_digest(simulate_spec(SPEC))
    session = Session()
    recorder = session.stats(SPEC, interval=500)
    assert recorder.samples, "no interval samples recorded"
    tracer = session.trace(SPEC.replace(events=("spill", "swap")), capacity=64)
    assert result_digest(simulate_spec(SPEC)) == plain
    assert tracer.emitted >= 0  # tracer attached and ran


def test_result_summary_is_json_ready_and_carries_digest():
    result = Session().result(SPEC)
    summary = result_summary(result)
    encoded = json.loads(json.dumps(summary))
    assert encoded["digest"] == result_digest(result)
    assert encoded["workload"] == "471+444"
    assert len(encoded["cores"]) == 2 and "mpki" in encoded["cores"][0]


def test_result_digest_matches_golden_formula():
    """Session's digest must stay interchangeable with the golden tests'."""
    from tests.test_golden_digests import digest

    result = Session().result(SPEC)
    assert result_digest(result) == digest(result)
