"""Workload definitions: what each benchmark workload submits, made from a seed.

The seed picks mix order, cell seeds, which specs repeat and the arrival
times; the program only ever receives the generated specs.  ``waysweep``
ignores it: Figure 1 pins its own simulation seed, and a seeded order of
benchmarks would move the latency percentiles without changing the work.  Each
workload keeps the *amount* of work fixed across seeds (the same mixes,
schemes, sizes and quotas), so a seed changes which inputs run, not how
many — that keeps run-to-run spread down to the host's own noise.

Two sizes exist: ``FULL`` is what the benchmark measures; ``TINY`` runs
the same code paths in about a second per unit for the smoke tests.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace

from repro.analysis.waysweep import FIGURE1_WAYS
from repro.api import RunSpec, result_summary
from repro.experiments import fig1_ways
from repro.experiments.runner import simulate_spec
from repro.workloads.mixes import MIX2, MIX4
from repro.workloads.spec2006 import FIGURE1_CODES

#: The seed whose results ``reference.json`` pins digest by digest.
DEFAULT_SEED = 1

WORKLOADS = ("sweep", "fresh", "serve", "waysweep")

MB = 1 << 20
SCHEMES = ("baseline", "ascc", "avgcc", "dsr")
#: Share of ``serve`` requests that repeat a spec an earlier request sent.
#: Below one half, so the median request is a fresh one.
SERVE_REPEAT_FRAC = 0.4
#: Distinct traces (2-core mix, cell seed) the fresh requests of one
#: ``serve`` window share.
SERVE_TRACES = 2


@dataclass(frozen=True)
class Sizes:
    """Every knob that sets how much work one unit of a workload does."""

    sweep_quota: int
    sweep_sizes_mb: tuple[int, ...]
    sweep_schemes: tuple[str, ...]
    fresh_quota: int
    fresh_mixes: int  # distinct 2-core mixes; each runs in both core orders
    serve_quota: int
    serve_mixes: int  # 2-core mixes behind the fresh-spec pool
    serve_rate: float  # requests per second
    waysweep_codes: tuple[int, ...]
    waysweep_ways: tuple[int, ...]
    waysweep_quota: int


FULL = Sizes(
    sweep_quota=20_000,
    sweep_sizes_mb=(1, 2, 4),
    sweep_schemes=SCHEMES,
    fresh_quota=5_000,
    fresh_mixes=12,
    serve_quota=4_000,
    serve_mixes=5,
    serve_rate=4.0,
    waysweep_codes=tuple(FIGURE1_CODES[:6]),
    waysweep_ways=tuple(FIGURE1_WAYS),
    waysweep_quota=40_000,
)

TINY = Sizes(
    sweep_quota=1_000,
    sweep_sizes_mb=(1,),
    sweep_schemes=("baseline", "avgcc"),
    fresh_quota=1_000,
    fresh_mixes=2,
    serve_quota=1_000,
    serve_mixes=2,
    serve_rate=10.0,
    waysweep_codes=tuple(FIGURE1_CODES[:1]),
    waysweep_ways=(2, 16),
    waysweep_quota=2_000,
)


def _spec(mix, scheme, quota, seed, size_mb=None) -> RunSpec:
    kwargs = {} if size_mb is None else {"l2_paper_bytes": size_mb * MB}
    return RunSpec(
        mix=tuple(mix), scheme=scheme, quota=quota, warmup=quota // 2, seed=seed, **kwargs
    )


def _cell_seed(rng: random.Random) -> int:
    return rng.randrange(1, 1 << 20)


def sweep_specs(seed: int, sizes: Sizes) -> list[RunSpec]:
    """A Table-4-style grid: one 4-core mix x schemes x L2 sizes, one trace."""
    rng = random.Random(f"sweep:{seed}")
    mix = list(MIX4[0])
    rng.shuffle(mix)
    cell_seed = _cell_seed(rng)
    return [
        _spec(mix, scheme, sizes.sweep_quota, cell_seed, size)
        for scheme in sizes.sweep_schemes
        for size in sizes.sweep_sizes_mb
    ]


def fresh_specs(seed: int, sizes: Sizes) -> list[RunSpec]:
    """Distinct avgcc cells, each its own (2-core mix, seed): no shared trace."""
    rng = random.Random(f"fresh:{seed}")
    mixes = [m for pair in MIX2[: sizes.fresh_mixes] for m in (pair, pair[::-1])]
    rng.shuffle(mixes)
    return [_spec(mix, "avgcc", sizes.fresh_quota, _cell_seed(rng)) for mix in mixes]


@dataclass(frozen=True)
class ServePlan:
    """The open-loop schedule: request ``i`` sends ``specs[i]`` at ``due[i]``."""

    specs: list[RunSpec]
    due: list[float]  # seconds after the window opens


def serve_pool(seed: int, sizes: Sizes) -> list[RunSpec]:
    """Every spec ``serve`` may send fresh, in a seeded order.

    A few 2-core mixes x schemes x L2 sizes: the specs are distinct (each
    a result-cache miss) but share a few traces, so the trace memo stays
    small however many requests a window holds.
    """
    rng = random.Random(f"serve-pool:{seed}")
    pool = []
    for pair in MIX2[: sizes.serve_mixes]:
        mix = pair if rng.random() < 0.5 else pair[::-1]
        cell_seed = _cell_seed(rng)
        for scheme in SCHEMES:
            for size in (1, 2, 4):
                pool.append(_spec(mix, scheme, sizes.serve_quota, cell_seed, size))
    rng.shuffle(pool)
    return pool


def serve_window(seed: int, sizes: Sizes, seconds: float, index: int) -> ServePlan:
    """Window ``index`` of a run: seeded Poisson arrivals at ``serve_rate``.

    The arrival count is fixed at ``rate * seconds``, rounded up, and the
    gaps between arrivals are exponential, rescaled to span exactly the
    window, so every seed offers the same load.  The gaps are stratified:
    one from each of ``count`` equal-probability slices of the exponential
    distribution, in a seeded order.  Drawn independently, a seed's few
    dozen gaps would set how bursty its run is, and with it much of the
    run-to-run spread of the queueing delay; stratified, every seed has
    the same gap sizes and picks only where the bursts fall.

    Fresh requests take :func:`serve_pool` specs of the window's own
    :data:`SERVE_TRACES` mixes, in turn, so every window generates and
    exports the same number of traces whatever the seed; repeats re-send
    a spec an earlier request of the same window sent, so a fresh server
    answers them from its results.
    """
    rng = random.Random(f"serve:{seed}:{index}")
    count = max(2, math.ceil(sizes.serve_rate * seconds))
    groups: dict = {}  # mix -> its pool specs, in pool order
    for spec in serve_pool(seed, sizes):
        groups.setdefault(spec.mix, []).append(spec)
    mixes = list(groups.values())
    own = [mixes[(SERVE_TRACES * index + k) % len(mixes)] for k in range(SERVE_TRACES)]
    fresh = min(sum(map(len, own)), count - round(SERVE_REPEAT_FRAC * count))
    per_mix = math.ceil(fresh / SERVE_TRACES)
    pool = [
        group[(index * per_mix + n) % len(group)] for n in range(per_mix) for group in own
    ][:fresh]
    rng.shuffle(pool)
    repeats = set(rng.sample(range(1, count), count - fresh))
    specs: list[RunSpec] = []
    for request in range(count):
        specs.append(rng.choice(specs) if request in repeats else pool.pop())
    gaps = [-math.log1p(-(slice_ + 0.5) / count) for slice_ in range(count)]
    rng.shuffle(gaps)
    scale = seconds / sum(gaps)
    due, clock = [], 0.0
    for gap in gaps:
        clock += gap * scale
        due.append(clock)
    return ServePlan(specs=specs, due=due)


def sweep_digest(points) -> str:
    """SHA-256 over each way point's MPKI, CPI and per-set miss counts."""
    snapshot = [(p.ways, p.full_assoc, p.mpki, p.cpi, p.set_misses) for p in points]
    return hashlib.sha256(repr(snapshot).encode("utf-8")).hexdigest()


def waysweep_digest(code: int, ways: list[int], quota: int) -> str:
    """Run the Figure 1 way sweep of one benchmark and digest its points."""
    result = fig1_ways.run(codes=[code], ways_list=list(ways), quota=quota, warmup=quota // 2)
    return sweep_digest(result.points[code])


def digest_of_spec(spec: RunSpec) -> str:
    """A cell's digest, simulated from scratch without the trace cache."""
    return result_summary(simulate_spec(replace(spec, trace_cache=False)))["digest"]


def spec_key(spec: RunSpec) -> str:
    """A spec's name in ``reference.json``: the fields this suite sets.

    Not :meth:`RunSpec.cache_key`, which changes with the result-cache
    format even when the simulated result does not.
    """
    mix = "+".join(map(str, spec.mix))
    return f"{mix}/{spec.scheme}/q{spec.quota}/w{spec.warmup}/s{spec.seed}/l2={spec.l2_paper_bytes}"


def waysweep_key(code: int, sizes: Sizes) -> str:
    ways = ",".join(map(str, sizes.waysweep_ways))
    return f"{code}/q{sizes.waysweep_quota}/ways={ways}+full"


def instructions(spec: RunSpec) -> int:
    """Simulated instructions of one cell: warmup plus quota, per core."""
    return (spec.warmup + spec.quota) * len(spec.mix)


def waysweep_instructions(sizes: Sizes, codes: list[int]) -> int:
    """One single-core run per way count plus the full-associativity point."""
    points = len(sizes.waysweep_ways) + 1
    quota = sizes.waysweep_quota
    return len(codes) * points * (quota + quota // 2)
