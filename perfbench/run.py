"""The repository benchmark: four workloads, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced and traced units and reports the
per-layer metrics, ``tracing_overhead_frac`` and a span file under
``.perfbench-work/``.  Every result is checked: digests against
``reference.json`` where it pins them, against each other when a spec
runs twice, and against an untimed recomputation without the trace
cache for a seeded sample.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
print the same metrics for people.

The work is done by ``unit.py`` in fresh interpreters, one per unit;
this process only plans, times each unit's set-up, times the host's
speed between units (``calibrate.py``), checks and summarises.  See
``README.md`` for what each workload and metric stands for.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

#: Fewest units a closed-loop run measures, however long they take.
MIN_UNITS = 5
#: Specs per run recomputed without the trace cache when no reference pins them.
SAMPLE_CHECKS = 2
#: Concurrent client connections of the serve generator: no more than the
#: two CPUs the benchmark was sized for.
CONNECTIONS = 2
#: Open-loop windows of a ``serve`` run, each a fresh server: set-up is
#: timed once per window.
SERVE_WINDOWS = 8
UNIT_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_instr_per_s": "instr/s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> "NoReturn":  # noqa: F821 - annotation only
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    _fail(f"no repro sources under {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import suite  # noqa: E402  (needs src/ on the path)
from repro.api import RunSpec  # noqa: E402
from layers import MOVES, layer_metrics  # noqa: E402


def percentile(values: list, q: int) -> float:
    """The ``q``-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if ".ns_per_" in metric:
        return "ns"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------- #
# Planning
# ---------------------------------------------------------------------- #


class Plan:
    """Everything one run submits, made from ``--seed``."""

    def __init__(self, workload: str, seed: int, sizes: suite.Sizes) -> None:
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.specs = []
        self.codes = []
        if workload == "sweep":
            self.specs = suite.sweep_specs(seed, sizes)
        elif workload == "fresh":
            self.specs = suite.fresh_specs(seed, sizes)
        elif workload == "waysweep":
            self.codes = list(sizes.waysweep_codes)

    @property
    def jobs(self) -> int:
        return 1 if self.workload == "sweep" else 2

    def job(self, *, traced: bool = False, window: int = 0, seconds: float = 0.0) -> dict:
        """One unit's job; ``serve`` sends window ``window``, ``seconds`` long."""
        job = {"workload": self.workload, "jobs": self.jobs, "traced": traced}
        if self.workload == "waysweep":
            job.update(
                codes=self.codes,
                ways=list(self.sizes.waysweep_ways),
                quota=self.sizes.waysweep_quota,
            )
        elif self.workload == "serve":
            schedule = suite.serve_window(self.seed, self.sizes, seconds, window)
            job.update(
                specs=[spec.to_dict() for spec in schedule.specs],
                due=schedule.due,
                connections=CONNECTIONS,
            )
        else:
            job["specs"] = [spec.to_dict() for spec in self.specs]
        return job

    def work(self, job: dict) -> list:
        """``(item, spec or benchmark code)`` per digest of ``job``, in its order."""
        if self.workload == "waysweep":
            return [(suite.waysweep_key(code, self.sizes), code) for code in job["codes"]]
        specs = [RunSpec.from_dict(spec) for spec in job["specs"]]
        return [(suite.spec_key(spec), spec) for spec in specs]

    def instructions(self, job: dict) -> int:
        """Simulated instructions of ``job`` (repeated specs count once)."""
        if self.workload == "waysweep":
            return suite.waysweep_instructions(self.sizes, job["codes"])
        work = dict(self.work(job))
        return sum(suite.instructions(spec) for spec in work.values())


# ---------------------------------------------------------------------- #
# Child processes
# ---------------------------------------------------------------------- #


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_unit(job: dict, cache_dir: Path) -> dict:
    """Run one unit; add ``setup_s``, from process start to its ``ready`` line."""
    job = dict(job, cache_dir=str(cache_dir))
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "unit.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_child_env(),
    )
    watchdog = threading.Timer(UNIT_TIMEOUT_S, child.kill)
    watchdog.start()
    output = []
    try:
        with contextlib.suppress(BrokenPipeError):  # a child that died early
            child.stdin.write(json.dumps(job))
            child.stdin.close()
        for line in child.stdout:
            if line.strip() == "ready":
                break
            output.append(line)
        setup_s = time.perf_counter() - started
        output.extend(child.stdout)
    finally:
        watchdog.cancel()
        if child.poll() is None:
            child.kill()
        child.wait()
        child.stdout.close()
        shutil.rmtree(cache_dir, ignore_errors=True)
    if child.returncode != 0 or not output:
        sys.stderr.write("".join(output)[-4000:])
        _fail(f"{job['workload']} unit exited {child.returncode}")
    return dict(json.loads(output[-1]), setup_s=setup_s)


class Paced:
    """Runs units with reference-loop gaps before, between and after them.

    ``speed`` is how fast the host ran the loop over the run, as a share
    of the reference host's (see ``calibrate.py``); every time the run
    reports is multiplied by it, so reads as reference-host time.
    """

    def __init__(self) -> None:
        self.loops = calibrate.gap()

    def run(self, job: dict, cache_dir: Path) -> dict:
        unit = run_unit(job, cache_dir)
        self.loops.extend(calibrate.gap())
        return unit

    @property
    def speed(self) -> float:
        return calibrate.speed(self.loops)


# ---------------------------------------------------------------------- #
# Correctness
# ---------------------------------------------------------------------- #


def recompute(plan: Plan, work) -> str:
    """Untimed digest of ``work``, from scratch and without the trace cache."""
    if plan.workload == "waysweep":
        sizes = plan.sizes
        return suite.waysweep_digest(work, sizes.waysweep_ways, sizes.waysweep_quota)
    return suite.digest_of_spec(work)


def load_reference() -> dict:
    """Item name -> digest the default seed must reproduce (see make_reference.py)."""
    return json.loads((HERE / "reference.json").read_text())


def check(plan: Plan, units: list, reference: dict) -> tuple[int, int, list]:
    """Count attempted and failed operations of ``[(job, unit_result)]``.

    Returns them with a note per failed item.

    An item (a cell, a request's spec, a benchmark's way sweep) fails —
    every operation of it — when any of its results is an error, when
    its runs disagree, when it differs from ``reference``, or when it is
    in the seeded sample and differs from an untimed recomputation.
    """
    observed: dict = {}  # item -> every digest it produced, across units
    work: dict = {}  # item -> what to recompute it from
    for job, unit in units:
        for (item, what), digest in zip(plan.work(job), unit["digests"]):
            observed.setdefault(item, []).append(digest)
            work[item] = what
    notes = {}
    for item, digests in observed.items():
        errors = sorted(d for d in digests if d.startswith("error"))
        if errors:
            notes[item] = errors[0]
        elif len(set(digests)) > 1:
            notes[item] = f"runs disagree ({len(set(digests))} digests)"
        elif item in reference and reference[item] != digests[0]:
            notes[item] = "digest differs from reference.json"
    unpinned = sorted(item for item in observed if item not in reference and item not in notes)
    rng = random.Random(f"check:{plan.workload}:{plan.seed}")
    for item in rng.sample(unpinned, min(SAMPLE_CHECKS, len(unpinned))):
        if recompute(plan, work[item]) != observed[item][0]:
            notes[item] = "differs from a run without the trace cache"
    attempted = sum(len(digests) for digests in observed.values())
    failed = sum(len(observed[item]) for item in notes)
    return attempted, failed, [f"{item}: {note}" for item, note in notes.items()]


# ---------------------------------------------------------------------- #
# Measuring
# ---------------------------------------------------------------------- #


def measure_units(plan: Plan, seconds: float, traced_every: int, cache_root: Path) -> tuple:
    """Closed loop: run units back to back until ``seconds`` have passed.

    With ``traced_every=2`` every other unit runs traced (trace mode);
    with 0 none does.  Returns ``[(traced, job, unit_result)]`` and the
    host speed over the run.
    """
    results = []
    paced = Paced()
    started = time.perf_counter()
    minimum = MIN_UNITS if not traced_every else 2 * traced_every
    previous = 0.0  # duration of the last unit, as the estimate of the next
    while True:
        elapsed = time.perf_counter() - started
        if len(results) >= minimum and elapsed + previous > seconds:
            return results, paced.speed
        traced = bool(traced_every) and len(results) % traced_every == 1
        job = plan.job(traced=traced)
        job["spans"] = str(WORK / f"spans-{plan.workload}.jsonl")
        results.append((traced, job, paced.run(job, cache_root / f"u{len(results)}")))
        previous = time.perf_counter() - started - elapsed


def measure_serve(plan: Plan, seconds: float, traced: bool, cache_root: Path) -> tuple:
    """Open loop: ``SERVE_WINDOWS`` windows filling ``seconds``, one server each.

    Untraced, the windows each send their own schedule.  Traced, the
    first half of them run twice, untraced then traced, so the two
    halves send the same requests.  Returns ``[(traced, job, unit_result)]``
    and the host speed over the run.
    """
    window_s = seconds / SERVE_WINDOWS
    if traced:
        windows = [(on, n) for n in range(SERVE_WINDOWS // 2) for on in (False, True)]
    else:
        windows = [(False, n) for n in range(SERVE_WINDOWS)]
    results = []
    paced = Paced()
    for traced_window, n in windows:
        job = plan.job(traced=traced_window, window=n, seconds=window_s)
        job["spans"] = str(WORK / f"spans-{plan.workload}.jsonl")
        results.append((traced_window, job, paced.run(job, cache_root / f"u{len(results)}")))
    return results, paced.speed


def request_time(workload: str, units: list) -> float:
    """``wall_s`` of a set of units in host seconds: the mean unit's, or
    on ``serve`` the time all requests of the windows spent in the program."""
    walls = [unit["wall_s"] for unit in units]
    return sum(walls) if workload == "serve" else statistics.fmean(walls)


def end_to_end(plan: Plan, plain: list, speed: float) -> dict:
    """End-to-end metrics of the untraced ``[(job, unit_result)]``.

    Times are reference-host times: the run's means multiplied by the
    host ``speed`` over the run (see ``Paced``).  A mean over the units
    tracks that speed the way the mean reference loop does, so the two
    cancel; the fastest or the median unit cancels less (README.md).
    ``setup_s`` is the median of the run's set-ups.  Closed loops take
    request percentiles within a unit, then the mean.  ``serve`` pools
    its windows: percentiles over every request, ``wall_s`` the
    requests' summed latency and ``sim_instr_per_s`` the fresh
    requests' instructions over their summed latency (see
    ``unit._serve``).
    """
    units = [unit for _, unit in plain]
    values = {
        "setup_s": speed * statistics.median(unit["setup_s"] for unit in units),
        "wall_s": speed * request_time(plan.workload, units),
        "peak_rss_mb": max(unit["peak_rss_mb"] for unit in units),
    }
    if plan.workload == "serve":
        latencies = [speed * ms for unit in units for ms in unit["latency_ms"]]
        instructions = sum(plan.instructions(job) for job, _ in plain)
        sim_s = speed * sum(unit["sim_s"] for unit in units)
        values["sim_instr_per_s"] = instructions / sim_s
        values["req_p50_ms"] = percentile(latencies, 50)
        values["req_p90_ms"] = percentile(latencies, 90)
    else:
        values["sim_instr_per_s"] = plan.instructions(plain[0][0]) / values["wall_s"]
        for q in (50, 90):
            values[f"req_p{q}_ms"] = speed * statistics.fmean(
                percentile(unit["latency_ms"], q) for unit in units
            )
    return values


def late_p90_ms(units: list) -> float:
    """How late the serve generator sent, p90 over every request."""
    return percentile([ms for unit in units for ms in unit["late_ms"]], 90)


def traced_metrics(workload: str, plain: list, traced: list, speed: float) -> dict:
    """Per-layer metrics of the traced units; prints which layers ran here."""
    totals: dict = {}
    counters: dict = {}
    missing = set()
    for unit in traced:
        layers = unit["layers"]
        for name, (calls, seconds) in layers["totals"].items():
            cell = totals.setdefault(name, [0, 0.0])
            cell[0] += calls
            cell[1] += seconds * speed
        for name, value in layers["counters"].items():
            counters[name] = counters.get(name, 0) + value
        missing.update(layers["missing"])
    values = layer_metrics(totals, counters, len(traced))
    overhead = request_time(workload, traced) / request_time(workload, plain)
    values["tracing_overhead_frac"] = overhead - 1.0
    values["bench.gen_late_p90_ms"] = late_p90_ms(plain) if workload == "serve" else 0.0
    covered = sorted(name for name, (calls, _) in totals.items() if calls)
    print(f"# {workload}: layers measured in this process: {', '.join(covered)}")
    if workload in ("fresh", "serve"):
        print("# engine, hierarchy and policy layers run in pool workers: not traced here")
    for name in sorted(missing):
        print(f"# layer {name}: function not found, reported as 0")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=suite.WORKLOADS)
    parser.add_argument("--seed", type=int, default=suite.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smoke-test sizes (results are not representative)"
    )
    args = parser.parse_args(argv)

    sizes = suite.TINY if args.tiny else suite.FULL
    plan = Plan(args.workload, args.seed, sizes)
    reference = load_reference()
    cache_root = WORK / f"{args.workload}-{os.getpid()}"
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}.jsonl"
    if args.trace:
        spans_path.write_text("")

    try:
        if args.workload == "serve":
            runs, speed = measure_serve(plan, args.seconds, bool(args.trace), cache_root)
        else:
            runs, speed = measure_units(plan, args.seconds, 2 if args.trace else 0, cache_root)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)

    attempted, failed, notes = check(plan, [(job, unit) for _, job, unit in runs], reference)
    for note in notes:
        print(f"# check failed: {note}")
    plain = [(job, unit) for traced, job, unit in runs if not traced]
    traced_units = [unit for traced, _, unit in runs if traced]

    if args.trace:
        values = traced_metrics(args.workload, [unit for _, unit in plain], traced_units, speed)
        print(f"# spans: {spans_path.relative_to(ROOT)} (read with: repro spans PATH)")
        metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    else:
        values = end_to_end(plan, plain, speed)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        units = [unit for _, unit in plain]
        samples = sum(len(unit["latency_ms"]) for unit in units)
        print(f"# {args.workload}: {len(units)} units, {samples} latency samples")
        print(f"# host speed over the run: {speed:.4f} of the reference host")
        for key in ("wall_s", "setup_s"):
            print(f"# {key} per unit (host): " + " ".join(f"{unit[key]:.4f}" for unit in units))
        if args.workload == "serve":
            print(f"# gen_late_p90_ms {late_p90_ms(units):.3f} ms")
    print(f"# failed_frac {failed / max(1, attempted):.4f} ratio ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        moves = MOVES.get(name)
        hint = f"  (moves {moves[0]} on {moves[1]})" if moves else ""
        print(f"{name} {value:.6g} {unit}{hint}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
