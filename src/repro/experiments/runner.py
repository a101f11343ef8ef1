"""Experiment runner: (mix x scheme) simulations with shared baselines.

Every paper figure compares schemes against the private-LRU baseline and
normalises per-application IPCs by stand-alone runs.  The runner caches
both — each mix's baseline result and each benchmark's stand-alone IPC —
so a figure's scheme sweep reuses them.

``scheme`` names come from :mod:`repro.policies.registry`; the special name
``"shared"`` builds the Section 6.1 banked shared LLC instead of private
caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from repro.api.spec import RunSpec
from repro.experiments.faults import apply_fault
from repro.metrics.latency import LatencyBreakdown, latency_breakdown
from repro.metrics.speedup import (
    harmonic_mean_speedup,
    improvement,
    weighted_speedup,
)
from repro.policies.registry import make_policy
from repro.sim.config import PAPER_L2, PrefetchConfig, ScaleModel, default_config
from repro.sim.engine import Engine
from repro.sim.results import SystemResult
from repro.sim.system import PrivateHierarchy, SharedHierarchy
from repro.workloads.mixes import make_workloads, mix_name
from repro.workloads.trace_cache import env_enabled, get_trace_cache

#: Scheme name handled by the runner rather than the policy registry.
SHARED_SCHEME = "shared"


def replays_traces(spec: RunSpec) -> bool:
    """Whether ``spec`` replays materialized record buffers.

    The spec's own ``trace_cache`` field wins; unset, the
    ``REPRO_TRACE_CACHE`` environment default decides.  The one rule
    behind both the replay in :func:`simulate_spec` and the parent-side
    :func:`materialize_traces`, so a parent never skips a stream its
    workers will replay (or builds one they will not).
    """
    return spec.trace_cache if spec.trace_cache is not None else env_enabled()


def materialize_traces(specs: Iterable[RunSpec]) -> int:
    """Materialize and persist the distinct record streams of ``specs``.

    Fan-out parents call this before the pool forks, so N workers
    replay the inherited buffers instead of generating N copies
    (disk-backed streams load instead of generating).  Specs differing
    only in scheme or cache size share a stream, and specs that do not
    replay traces are skipped.  Returns the number of distinct streams.
    """
    streams = dict.fromkeys(
        (spec.mix, spec.scale, spec.seed, spec.quota, spec.warmup)
        for spec in specs
        if replays_traces(spec)
    )
    if not streams:
        return 0
    trace_cache = get_trace_cache()
    for mix, scale, seed, quota, warmup in streams:
        trace_cache.materialize_for_run(
            make_workloads(mix, ScaleModel(scale)), seed, quota, warmup
        )
    trace_cache.persist()
    return len(streams)


def simulate_spec(spec: RunSpec, observer=None) -> SystemResult:
    """Simulate one :class:`~repro.api.spec.RunSpec` cell.

    The single entry point behind :class:`ExperimentRunner`, the batch
    service workers and the observability CLI (``repro stats`` /
    ``repro trace``): with ``observer=None`` the run is bit-identical to
    the runner's cached path for the same parameters; passing an
    :class:`~repro.obs.observer.Observer` taps the same simulation for
    interval telemetry or event traces without perturbing it.
    """
    params = spec.runner_params()
    scale: ScaleModel = params["scale"]
    codes = spec.mix
    workloads = make_workloads(codes, scale)
    if replays_traces(spec):
        # Replace each benchmark's generator with a replay of its
        # materialized record buffer (generated once per process, shared
        # across schemes/sizes/repeats).  Bit-identical by construction;
        # workloads without a trace signature fall through untouched.
        workloads = get_trace_cache().wrap_workloads(
            workloads, spec.seed, spec.quota, spec.warmup
        )
    config = default_config(
        num_cores=len(codes),
        scale=scale,
        quota=spec.quota,
        seed=spec.seed,
        l2_paper_bytes=spec.l2_paper_bytes,
        prefetch=params["prefetch"],
    )
    if spec.scheme == SHARED_SCHEME:
        hierarchy: PrivateHierarchy | SharedHierarchy = SharedHierarchy(config)
    else:
        hierarchy = PrivateHierarchy(config, make_policy(spec.scheme))
        sanitize = spec.sanitize
        if sanitize is None:
            from repro.verify.sanitizer import env_sanitize_enabled

            sanitize = env_sanitize_enabled()
        if sanitize:
            # Read-only invariant checking: the sanitized run stays
            # bit-identical to a plain run (see repro.verify.sanitizer).
            from repro.verify.sanitizer import attach_sanitizer

            attach_sanitizer(hierarchy)
    engine = Engine(
        hierarchy,
        workloads,
        config.quota,
        config.seed,
        spec.warmup,
        observer=observer,
    )
    engine.run()
    return SystemResult(
        scheme=spec.scheme,
        workload=mix_name(codes),
        cores=hierarchy.stats,
        traffic=hierarchy.traffic,
        latencies=config.latencies,
    )


def run_payload(payload: dict) -> tuple[RunSpec, SystemResult]:
    """Worker entry point: rebuild the spec and simulate it.

    The one function every pool worker and cluster worker enters
    through.  Module-level and parameterised by a JSON-style
    :class:`RunSpec` dict only, so it works under any multiprocessing
    start method.  Beats the heartbeat file while the cell runs (when
    the watchdog is armed) and fires an injected fault (see
    :mod:`repro.experiments.faults`) before the simulation.  The
    supervisor keys results by its own cell, so the returned spec is
    informational.
    """
    spec = RunSpec.from_dict(payload["spec"])
    heartbeat = payload.get("heartbeat")
    if heartbeat:
        from repro.service.durability import HEARTBEAT_IDLE, beat

        beat(heartbeat)
    try:
        fault = payload.get("fault")
        if fault is not None:
            injected = apply_fault(
                fault,
                in_process=payload.get("fault_in_process", False),
                heartbeat=heartbeat,
            )
            if injected is not None:  # a corrupted-result sentinel
                return spec, injected
        return spec, simulate_spec(spec)
    finally:
        if heartbeat:
            beat(heartbeat, HEARTBEAT_IDLE)


@dataclass
class MixOutcome:
    """A scheme's result on one mix, normalised against the baseline.

    The derived metrics are ``cached_property``s (so the class is not
    frozen): figures read the same improvement several times — table cell,
    geomean, formatting — and each evaluation walks every core's counters.
    The underlying results are never mutated, so caching is safe.
    """

    result: SystemResult
    baseline: SystemResult
    alone_ipcs: tuple[float, ...]

    @cached_property
    def speedup_improvement(self) -> float:
        """Weighted-speedup gain over the baseline (0.078 = +7.8 %)."""
        alone = list(self.alone_ipcs)
        ws = weighted_speedup(self.result, alone)
        ws_base = weighted_speedup(self.baseline, alone)
        return improvement(ws, ws_base)

    @cached_property
    def fairness_improvement(self) -> float:
        """Harmonic-mean-of-IPCs gain over the baseline (Figure 9)."""
        alone = list(self.alone_ipcs)
        hm = harmonic_mean_speedup(self.result, alone)
        hm_base = harmonic_mean_speedup(self.baseline, alone)
        return improvement(hm, hm_base)

    @cached_property
    def latency(self) -> LatencyBreakdown:
        return latency_breakdown(self.result, self.baseline)

    @property
    def aml_improvement(self) -> float:
        """Average-memory-latency reduction over the baseline (Figure 10)."""
        return self.latency.improvement

    @property
    def offchip_reduction(self) -> float:
        """Reduction in off-chip accesses (Table 4's metric)."""
        base = self.baseline.total_offchip_accesses
        if base == 0:
            return 0.0
        return 1.0 - self.result.total_offchip_accesses / base


class ExperimentRunner:
    """Runs and caches the simulations behind the paper's figures."""

    def __init__(
        self,
        scale: ScaleModel = ScaleModel(),
        quota: int = 150_000,
        warmup: int = 150_000,
        seed: int = 7,
        l2_paper_bytes: int = PAPER_L2.size_bytes,
        prefetch: Optional[PrefetchConfig] = None,
    ) -> None:
        self.scale = scale
        self.quota = quota
        self.warmup = warmup
        self.seed = seed
        self.l2_paper_bytes = l2_paper_bytes
        self.prefetch = prefetch
        self._alone_ipc: dict[int, float] = {}
        self._results: dict[tuple[tuple[int, ...], str], SystemResult] = {}

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #

    def run(self, codes: tuple[int, ...], scheme: str) -> SystemResult:
        """Simulate a mix under a scheme (cached)."""
        key = (tuple(codes), scheme)
        if key not in self._results:
            self._results[key] = self._simulate(tuple(codes), scheme)
        return self._results[key]

    def outcome(self, codes: tuple[int, ...], scheme: str) -> MixOutcome:
        """Scheme result with baseline and stand-alone normalisation."""
        codes = tuple(codes)
        return MixOutcome(
            result=self.run(codes, scheme),
            baseline=self.run(codes, "baseline"),
            alone_ipcs=tuple(self.alone_ipc(code) for code in codes),
        )

    def alone_ipc(self, code: int) -> float:
        """Stand-alone IPC of a benchmark on the baseline machine."""
        if code not in self._alone_ipc:
            # Through ``run`` so the result lands in ``_results`` (and in
            # subclasses' disk caches) instead of being simulated afresh
            # by every caller that also wants the full stand-alone result.
            result = self.run((code,), "baseline")
            self._alone_ipc[code] = result.cores[0].ipc
        return self._alone_ipc[code]

    def prewarm(self, mixes: Iterable[Sequence[int]], schemes: Iterable[str]):
        """Hint that a (mix x scheme) matrix is about to be evaluated.

        The full product is one case of :meth:`prewarm_cells`.
        """
        schemes = list(schemes)
        return self.prewarm_cells(
            (tuple(mix), scheme) for mix in mixes for scheme in schemes
        )

    def prewarm_cells(self, cells: Iterable[tuple[Sequence[int], str]]):
        """Hint that these ``(codes, scheme)`` cells are about to be evaluated.

        The serial runner computes cells lazily, so this is a no-op
        returning ``None``; :class:`repro.experiments.parallel.ParallelRunner`
        overrides it to fan the missing cells out across supervised worker
        processes in one drain and returns the run's
        :class:`~repro.experiments.supervision.RunReport`.
        """
        return None

    # ------------------------------------------------------------------ #

    def spec(self, codes: Sequence[int], scheme: str) -> RunSpec:
        """The :class:`RunSpec` this runner would simulate for a cell."""
        pf = self.prefetch
        return RunSpec(
            mix=tuple(codes),
            scheme=scheme,
            quota=self.quota,
            warmup=self.warmup,
            seed=self.seed,
            scale=self.scale.scale,
            l2_paper_bytes=self.l2_paper_bytes,
            prefetch=None
            if pf is None
            else (pf.table_entries, pf.degree, pf.confidence_threshold),
        )

    def _simulate(self, codes: tuple[int, ...], scheme: str) -> SystemResult:
        return simulate_spec(self.spec(codes, scheme))


def run_mix(spec: RunSpec, runner: Optional[ExperimentRunner] = None) -> MixOutcome:
    """One-shot convenience wrapper around :class:`ExperimentRunner`.

    ``run_mix(RunSpec(mix=(471, 444)))`` resolves the spec's outcome
    against its baseline and stand-alone runs, on ``runner`` when one is
    passed and otherwise on a runner built to the spec's parameters.
    """
    if runner is None:
        runner = ExperimentRunner(**spec.runner_params())
    return runner.outcome(spec.mix, spec.scheme)
