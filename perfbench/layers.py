"""Traced mode: time each layer from outside by wrapping its public calls.

Nothing in ``src/`` changes.  :class:`LayerTracer` replaces a layer's
public function or method with a wrapper that times it, and records

* one :class:`repro.api.SpanTracer` span per call of a coarse layer
  (trace materialization, result cache, journal flush, supervision,
  wire, HTTP handler, way points, ``Engine.run``), parented under the
  innermost open span of the same thread — so a serve request's parse
  and record spans sit under its handler span, and a way point's engine
  run under the point;
* call counts and busy time for the hot layers — ``PrivateHierarchy``
  ``access``/``write_through`` and the policy hooks — which run up to a
  million times per cell: a span per call would cost more than the call,
  so each ``Engine.run`` span gets one summary child per hot layer
  carrying its time and call count.

Wrappers live only in the process that installs them.  Pool workers are
forked from it but report nothing back, so a layer that runs only in
workers (the engine under ``jobs=2``) reads zero on that workload.

Metric names are ``<module>.<metric>``; :data:`MOVES` says which
end-to-end metric each should move, and on which workload.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time

from repro.api import SpanTracer

#: Per-layer metric -> (end-to-end metric it should move, workloads).
MOVES = {
    "workloads.trace_materialize_s": ("wall_s", "fresh"),
    "workloads.trace_materialize_calls": ("wall_s", "fresh"),
    "workloads.trace_persist_s": ("wall_s", "fresh"),
    "workloads.trace_export_s": ("wall_s", "fresh"),
    "sim.engine.self_s": ("sim_instr_per_s", "sweep, waysweep"),
    "sim.engine.records": ("sim_instr_per_s", "sweep, waysweep"),
    "sim.engine.ns_per_record": ("sim_instr_per_s", "sweep, waysweep"),
    "sim.system.access_s": ("sim_instr_per_s", "sweep"),
    "sim.system.access_calls": ("sim_instr_per_s", "sweep"),
    "sim.system.ns_per_access": ("sim_instr_per_s", "sweep"),
    "sim.system.write_through_s": ("sim_instr_per_s", "sweep"),
    "sim.system.write_through_calls": ("sim_instr_per_s", "sweep"),
    "policies.hook_s": ("sim_instr_per_s", "sweep"),
    "policies.hook_calls": ("sim_instr_per_s", "sweep"),
    "experiments.supervision.pools_created": ("req_p50_ms, req_p90_ms, wall_s", "serve, fresh"),
    "experiments.supervision.run_s": ("req_p50_ms, req_p90_ms, wall_s", "serve, fresh"),
    "experiments.parallel.result_get_s": ("req_p50_ms", "serve"),
    "experiments.parallel.result_hit_ratio": ("req_p50_ms", "serve"),
    "experiments.parallel.result_put_s": ("req_p50_ms", "serve"),
    "service.durability.journal_flush_s": ("req_p90_ms, wall_s", "serve, fresh"),
    "service.durability.journal_flush_calls": ("req_p90_ms, wall_s", "serve, fresh"),
    "service.wire.parse_s": ("req_p50_ms", "serve"),
    "service.wire.record_s": ("req_p50_ms", "serve"),
    "service.serve.handler_s": ("req_p50_ms", "serve"),
    "analysis.waysweep.points": ("wall_s", "waysweep"),
    "analysis.waysweep.point_s": ("wall_s", "waysweep"),
    "tracing_overhead_frac": ("(none: cost of traced mode)", "all"),
    "bench.gen_late_p90_ms": ("(none: validity of the serve schedule)", "serve"),
}

#: Policy hooks timed as ``policies.hook``.
POLICY_HOOKS = ("on_access", "should_spill", "select_receiver", "tick")

#: Hot layers: counted and timed, summarised per ``Engine.run`` span.
HOT = ("sim.system.access", "sim.system.write_through", "policies.hook")


class LayerTracer:
    """Installs the wrappers and collects spans and per-layer totals."""

    def __init__(self, capacity: int = 200_000) -> None:
        self.spans = SpanTracer(capacity=capacity)
        #: layer -> [calls, seconds]; hot entries are bumped lock-free
        #: because only one thread runs the engine in a traced process.
        self.totals: dict[str, list] = {}
        self.counters = {"result_hits": 0, "engine_records": 0, "engine_self_s": 0.0}
        self.missing: list[str] = []
        self._origins: dict = {}  # spec -> context of the span that submitted it
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------ #

    def _cell(self, name: str) -> list:
        return self.totals.setdefault(name, [0, 0.0])

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _replace(self, owner, attr: str, name: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        setattr(owner, attr, make(original))

    def span(
        self, owner, attr: str, name: str, before=None, after=None, parent=None
    ) -> None:
        """Wrap ``owner.attr``: one span per call.

        The span's parent is the innermost open span of the calling
        thread, else ``parent(args)`` (a context or ``None``: a new
        trace).  ``before(args)`` returns a token; ``after(span, args,
        result, token)`` may add attributes or counters before the span
        ends.
        """
        tracer = self.spans
        cell = self._cell(name)
        lock = self._lock
        stack_of = self._stack

        def make(fn):
            def wrapper(*args, **kwargs):
                stack = stack_of()
                if stack:
                    span = tracer.begin(name, stack[-1])
                else:
                    span = tracer.begin(name, parent(args) if parent is not None else None)
                token = before(args) if before is not None else None
                stack.append(span)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    stack.pop()
                    if after is not None:
                        after(span, args, result, token)
                    tracer.finish(span)
                    with lock:
                        cell[0] += 1
                        cell[1] += span.duration

            return wrapper

        self._replace(owner, attr, name, make)

    @staticmethod
    def _hot(fn, cell: list):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += clock() - started

        return wrapper

    # ------------------------------------------------------------------ #

    def install(self) -> "LayerTracer":
        """Wrap every measured layer (absent ones are listed in ``missing``)."""
        from repro.analysis import waysweep
        from repro.experiments import parallel, supervision
        from repro.service import durability, scheduler, serve, wire
        from repro.sim import engine, system
        from repro.workloads import trace_cache

        # One trace per drain round: the scheduler thread's layer calls
        # nest under it, and the round joins the trace of the request
        # that submitted its first spec (a serve handler span).
        batch = scheduler.BatchScheduler
        self._replace(batch, "submit", "service.scheduler.submit", self._remember_origin)
        self.span(batch, "_execute", "service.scheduler.drain", parent=self._drain_origin)
        cache = trace_cache.TraceCache
        self.span(cache, "materialize_for_run", "workloads.trace_materialize")
        self.span(cache, "persist", "workloads.trace_persist")
        self.span(cache, "export_shared", "workloads.trace_export")
        self.span(supervision.Supervisor, "run", "experiments.supervision.run")
        self.span(parallel.ResultCache, "get", "experiments.parallel.result_get",
                  after=self._count_hit)
        self.span(parallel.ResultCache, "put", "experiments.parallel.result_put")
        self.span(durability.BatchJournal, "flush", "service.durability.journal_flush")
        self.span(wire, "parse_request", "service.wire.parse")
        self.span(wire, "result_record", "service.wire.record")
        self.span(serve.BatchHTTPServer, "finish_request", "service.serve.handler")
        self.span(waysweep, "run_way_point", "analysis.waysweep.point")
        self.span(
            engine.Engine, "run", "sim.engine",
            before=lambda args: self._hot_snapshot(), after=self._engine_done,
        )

        pools = self._cell("experiments.supervision.pools")
        self._replace(
            concurrent.futures.ProcessPoolExecutor, "__init__",
            "experiments.supervision.pools", lambda fn: self._hot(fn, pools),
        )
        access = self._cell("sim.system.access")
        write_through = self._cell("sim.system.write_through")
        hooks = self._cell("policies.hook")
        hierarchy = system.PrivateHierarchy
        self._replace(hierarchy, "access", "sim.system.access",
                      lambda fn: self._hot(fn, access))
        self._replace(hierarchy, "write_through", "sim.system.write_through",
                      lambda fn: self._hot(fn, write_through))

        def wrap_policy(init):
            # The hierarchy binds ``policy.on_access`` in its constructor,
            # so the hooks are wrapped on the policy instance first.
            def wrapper(hierarchy_self, config, policy, *args, **kwargs):
                for hook in POLICY_HOOKS:
                    method = getattr(policy, hook, None)
                    if method is not None:
                        setattr(policy, hook, self._hot(method, hooks))
                return init(hierarchy_self, config, policy, *args, **kwargs)

            return wrapper

        self._replace(hierarchy, "__init__", "policies.hook", wrap_policy)
        return self

    def _remember_origin(self, submit):
        def wrapper(scheduler, spec, *args, **kwargs):
            stack = self._stack()
            if stack:
                self._origins[spec] = stack[-1].context()
            return submit(scheduler, spec, *args, **kwargs)

        return wrapper

    def _drain_origin(self, args):
        contexts = [
            self._origins.pop(getattr(entry, "spec", None), None)
            for entry in args[1]  # _execute(self, batch)
        ]
        return next((context for context in contexts if context), None)

    def _count_hit(self, span, args, result, token) -> None:
        span.attrs["hit"] = result is not None
        if result is not None:
            with self._lock:
                self.counters["result_hits"] += 1

    def _hot_snapshot(self) -> tuple:
        return tuple(tuple(self._cell(name)) for name in HOT)

    def _engine_done(self, span, args, result, before) -> None:
        engine = args[0]
        after = self._hot_snapshot()
        elapsed = time.monotonic() - span.start
        inner = 0.0
        for name, (calls0, secs0), (calls1, secs1) in zip(HOT, before, after):
            seconds = secs1 - secs0
            if name != "policies.hook":  # hooks run inside access
                inner += seconds
            self.spans.complete(name, span, duration=seconds, calls=calls1 - calls0)
        records = sum(l1.hits + l1.misses for l1 in getattr(engine.hierarchy, "l1s", ()))
        span.attrs["records"] = records
        with self._lock:
            self.counters["engine_records"] += records
            self.counters["engine_self_s"] += max(0.0, elapsed - inner)

    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """Plain totals for the parent process to sum across units."""
        return {
            "totals": {name: list(cell) for name, cell in self.totals.items()},
            "counters": dict(self.counters),
            "missing": list(self.missing),
        }

    def write_spans(self, path) -> int:
        with open(path, "a", encoding="utf-8") as stream:
            return self.spans.write_jsonl(stream)


def layer_metrics(totals: dict, counters: dict, units: int) -> dict:
    """Per-layer metrics, per work unit, from summed unit snapshots."""
    units = max(1, units)

    def calls(name):
        return totals.get(name, [0, 0.0])[0] / units

    def seconds(name):
        return totals.get(name, [0, 0.0])[1] / units

    def ns_per(secs, count):
        return 1e9 * secs / count if count else 0.0

    records = counters.get("engine_records", 0) / units
    engine_self = counters.get("engine_self_s", 0.0) / units
    gets = calls("experiments.parallel.result_get")
    return {
        "workloads.trace_materialize_s": seconds("workloads.trace_materialize"),
        "workloads.trace_materialize_calls": calls("workloads.trace_materialize"),
        "workloads.trace_persist_s": seconds("workloads.trace_persist"),
        "workloads.trace_export_s": seconds("workloads.trace_export"),
        "sim.engine.self_s": engine_self,
        "sim.engine.records": records,
        "sim.engine.ns_per_record": ns_per(engine_self, records),
        "sim.system.access_s": seconds("sim.system.access"),
        "sim.system.access_calls": calls("sim.system.access"),
        "sim.system.ns_per_access": ns_per(
            seconds("sim.system.access"), calls("sim.system.access")
        ),
        "sim.system.write_through_s": seconds("sim.system.write_through"),
        "sim.system.write_through_calls": calls("sim.system.write_through"),
        "policies.hook_s": seconds("policies.hook"),
        "policies.hook_calls": calls("policies.hook"),
        "experiments.supervision.pools_created": calls("experiments.supervision.pools"),
        "experiments.supervision.run_s": seconds("experiments.supervision.run"),
        "experiments.parallel.result_get_s": seconds("experiments.parallel.result_get"),
        "experiments.parallel.result_hit_ratio": (
            counters.get("result_hits", 0) / units / gets if gets else 0.0
        ),
        "experiments.parallel.result_put_s": seconds("experiments.parallel.result_put"),
        "service.durability.journal_flush_s": seconds("service.durability.journal_flush"),
        "service.durability.journal_flush_calls": calls("service.durability.journal_flush"),
        "service.wire.parse_s": seconds("service.wire.parse"),
        "service.wire.record_s": seconds("service.wire.record"),
        "service.serve.handler_s": seconds("service.serve.handler"),
        "analysis.waysweep.points": calls("analysis.waysweep.point"),
        "analysis.waysweep.point_s": seconds("analysis.waysweep.point"),
    }
