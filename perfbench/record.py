"""Record the reference digest of every operation any seed can draw.

    python3 perfbench/record.py            # rewrites perfbench/reference.json

Each workload's operations come from a finite set (see
``workloads.space``), so the table covers every seed, held-out seeds
included.  An output is recorded only if it passes the independent
closed-form checks.  Re-record only when the rendered output is meant
to change; the benchmark exists to catch changes nobody meant.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
import worker  # noqa: E402


def main() -> int:
    engine = worker.Engine()
    checks = worker.manifest_checks()
    table: dict[str, str] = {}
    for size in workloads.SIZES:
        for name in workloads.NAMES:
            t0 = perf_counter()
            units = workloads.space(name, size, checks)
            for unit in units:
                prev_text, prev_key = None, None
                for op in unit:
                    key = workloads.op_key(op, prev_key)
                    text, result = engine.run(op, prev_text)
                    problems = engine.check(op, text, result)
                    if problems:
                        print(f"refusing to record {op}: {problems}", file=sys.stderr)
                        return 1
                    table[key] = worker.digest(text)
                    prev_text, prev_key = text, key
            print(f"{size:5s} {name:17s} {len(units):3d} units "
                  f"in {perf_counter() - t0:6.1f} s", flush=True)
    out = HERE / "reference.json"
    out.write_text(json.dumps(dict(sorted(table.items())), indent=0) + "\n")
    print(f"wrote {len(table)} digests to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
