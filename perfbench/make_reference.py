"""Rebuild ``reference.json``: the digests the default seed must reproduce.

Every cell is simulated from scratch, in this process, without the trace
cache or the batch service — the slow, simple path the timed runs are
checked against.  Run from the repository root after a change that is
meant to alter simulated results::

    python3 perfbench/make_reference.py

and review the diff of ``perfbench/reference.json`` with the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import suite  # noqa: E402


def main() -> int:
    seed, sizes = suite.DEFAULT_SEED, suite.FULL
    specs = (
        suite.sweep_specs(seed, sizes)
        + suite.fresh_specs(seed, sizes)
        + suite.serve_pool(seed, sizes)
    )
    reference = {suite.spec_key(spec): suite.digest_of_spec(spec) for spec in dict.fromkeys(specs)}
    for code in sizes.waysweep_codes:
        reference[suite.waysweep_key(code, sizes)] = suite.waysweep_digest(
            code, sizes.waysweep_ways, sizes.waysweep_quota
        )
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} digests to {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
