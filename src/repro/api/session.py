""":class:`Session` — the one façade over the simulation stack.

A session owns the orchestration knobs (worker processes, disk cache,
timeouts, retries, reporting) once, then answers any
:class:`~repro.api.spec.RunSpec`:

* ``result(spec)`` / ``outcome(spec)`` — one cell, lazily, through a
  cached :class:`~repro.experiments.runner.ExperimentRunner` (or its
  supervised parallel subclass when any knob is set);
* ``prewarm(specs)`` — a whole batch at once: the specs are grouped by
  their simulation parameters, each group fanned out in one drain of
  the supervised pool, baselines and stand-alone runs included;
* ``stats(spec)`` / ``trace(spec)`` — the same simulation with interval
  telemetry or event tracing attached (bit-identical by the observer
  contract).

Specs with different parameters (quota, scale, L2 size, prefetcher...)
can share one session: runners are keyed by
:meth:`RunSpec.runner_key` and built on demand, all sharing the same
disk cache directory — the canonical :meth:`RunSpec.cache_key` makes
their entries mutually reusable.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, Optional

from repro.api.spec import RunSpec
from repro.experiments.runner import ExperimentRunner, MixOutcome, simulate_spec
from repro.sim.results import SystemResult


def result_digest(result: SystemResult) -> str:
    """SHA-256 over every counter a behaviour change could disturb.

    The same formula as the golden-digest regression tests: two results
    digest equal iff every per-core counter (including float cycle
    counts) and the bus traffic are bit-equal.
    """
    import hashlib
    from dataclasses import astuple

    snapshot = (
        result.scheme,
        result.workload,
        [astuple(stats) for stats in result.cores],
        astuple(result.traffic),
    )
    return hashlib.sha256(repr(snapshot).encode("utf-8")).hexdigest()


def result_summary(result: SystemResult) -> dict:
    """JSON-ready headline view of a :class:`SystemResult`.

    What the batch CLI and the service protocol return per spec: the
    identifying digest plus the metrics a consumer usually wants without
    unpickling the full result.
    """
    return {
        "scheme": result.scheme,
        "workload": result.workload,
        "digest": result_digest(result),
        "spills": result.total_spills,
        "offchip_accesses": result.total_offchip_accesses,
        "cores": [
            {
                "core": stats.core_id,
                "ipc": stats.ipc,
                "cpi": stats.cpi,
                "mpki": stats.mpki,
                "offchip_mpki": stats.offchip_mpki,
            }
            for stats in result.cores
        ],
    }


class Session:
    """Answers :class:`RunSpec` requests; owns runners and their knobs.

    ``jobs``/``cache_dir``/``timeout``/``retries``/``report_path``/
    ``metrics_path`` mirror the CLI orchestration flags and are passed
    to :func:`repro.experiments.parallel.make_runner` for every runner
    the session builds.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache_dir: str | os.PathLike | None = None,
        timeout: Optional[float] = None,
        retries: int = 2,
        report_path: str | os.PathLike | None = None,
        metrics_path: str | os.PathLike | None = None,
    ) -> None:
        self._knobs = dict(
            jobs=jobs,
            cache_dir=cache_dir,
            timeout=timeout,
            retries=retries,
            report_path=report_path,
            metrics_path=metrics_path,
        )
        self._runners: dict[tuple, ExperimentRunner] = {}

    # ------------------------------------------------------------------ #

    @classmethod
    def adopt(cls, runner: Optional[ExperimentRunner] = None) -> "Session":
        """A session that routes matching specs through ``runner``.

        Lets spec-based callers (the experiment grids, ``run_mix``)
        reuse a runner the caller already holds — including its warm
        in-memory results — instead of simulating afresh.
        """
        session = cls()
        if runner is not None:
            session._runners[_runner_key(runner)] = runner
        return session

    def runner_for(self, spec: RunSpec) -> ExperimentRunner:
        """The (cached) runner whose parameters match ``spec``."""
        from repro.experiments.parallel import make_runner

        key = spec.runner_key()
        runner = self._runners.get(key)
        if runner is None:
            runner = make_runner(**self._knobs, **spec.runner_params())
            self._runners[key] = runner
        return runner

    # ------------------------------------------------------------------ #
    # Single cells
    # ------------------------------------------------------------------ #

    def result(self, spec: RunSpec) -> SystemResult:
        """Simulate (or fetch) one spec's raw :class:`SystemResult`."""
        spec.validate()
        return self.runner_for(spec).run(spec.mix, spec.scheme)

    def outcome(self, spec: RunSpec) -> MixOutcome:
        """One spec's result normalised against baseline/stand-alone runs."""
        spec.validate()
        return self.runner_for(spec).outcome(spec.mix, spec.scheme)

    # ------------------------------------------------------------------ #
    # Batches
    # ------------------------------------------------------------------ #

    def prewarm(self, specs: Iterable[RunSpec]) -> list:
        """Bulk-simulate a batch of specs (plus their baselines).

        Specs are grouped by simulation parameters; each group's exact
        cells go through its runner's ``prewarm_cells`` (one supervised
        drain on a parallel runner), so a ragged batch simulates no cell
        it did not ask for.  Returns one report per group —
        :class:`~repro.experiments.supervision.RunReport` instances for
        supervised runners, ``None`` for plain serial ones.
        """
        return [
            runner.prewarm_cells((spec.mix, spec.scheme) for spec in group)
            for runner, group in self._grouped(specs)
        ]

    def run_many(
        self, specs: Iterable[RunSpec]
    ) -> Iterator[tuple[RunSpec, SystemResult]]:
        """Prewarm a batch, then yield each ``(spec, result)`` in order."""
        specs = list(specs)
        self.prewarm(specs)
        for spec in specs:
            yield spec, self.result(spec)

    def _grouped(self, specs: Iterable[RunSpec]):
        groups: dict[tuple, list[RunSpec]] = {}
        for spec in specs:
            groups.setdefault(spec.runner_key(), []).append(spec.validate())
        for key, group in groups.items():
            yield self.runner_for(group[0]), group

    # ------------------------------------------------------------------ #
    # Observed runs
    # ------------------------------------------------------------------ #

    def stats(self, spec: RunSpec, interval: int = 10_000):
        """Simulate ``spec`` with interval telemetry; return the recorder."""
        from repro.obs import IntervalRecorder

        spec.validate()
        recorder = IntervalRecorder(interval=interval)
        simulate_spec(spec, observer=recorder)
        return recorder

    def trace(self, spec: RunSpec, capacity: int = 65_536):
        """Simulate ``spec`` with event tracing; return the tracer.

        The spec's ``events`` field selects the kinds kept (``None`` =
        all) — the one consumer of that field.
        """
        from repro.obs import EventTracer

        spec.validate()
        tracer = EventTracer(capacity=capacity, kinds=spec.events)
        simulate_spec(spec, observer=tracer)
        return tracer


def _runner_key(runner: ExperimentRunner) -> tuple:
    pf = runner.prefetch
    return (
        runner.quota,
        runner.warmup,
        runner.seed,
        runner.scale.scale,
        runner.l2_paper_bytes,
        None if pf is None else (pf.table_entries, pf.degree, pf.confidence_threshold),
    )
