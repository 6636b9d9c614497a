"""The multitrace benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload product_full --seed 1 --seconds 40 --trace 0

Run it from anywhere inside a checkout; it measures the engine under
``src/`` of the checkout it lives in.  With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
separate traced run.  Either way the last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Set-up is timed in several fresh processes and reported as their
median; the measuring process is fresh too, so its peak resident
memory belongs to this workload alone.  All timers are the processes'
own (``perf_counter``, ``getrusage``); nothing traces the machine.
Times are scaled to a reference machine speed, read from a fixed loop
run between the measured operations (``speed.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

REFERENCE = "perfbench/reference.json"
SETUP_PROBES = 6        # set-up-only processes, besides the measuring one
DEADLINE_S = 170        # the whole run, probes included
# The operation list repeats, so the latencies fall in one cluster per
# position of the list.  The latency metrics are taken over positions:
# each position's mean latency over the run, then the Harrell-Davis
# median and the nearest-rank p95 of those means.  A percentile of the
# raw samples ("the highest percentile with ten samples beyond it")
# picks a different cluster whenever the sample count changes; it is
# printed as well.  Every time is scaled to the reference speed (see
# speed.py); raw figures are printed beside the scaled ones.
TAIL_PCT = 95


def harrell_davis_median(values: list[float]) -> float:
    """The Harrell-Davis estimate of the median: a Beta-weighted mean of the
    order statistics.  Unlike a nearest-rank median, it moves smoothly when
    two values near the middle swap places."""
    ordered = sorted(values)
    n = len(ordered)
    shape = (n + 1) / 2
    steps = 400 * n
    density = [(k / steps * (1 - k / steps)) ** (shape - 1) for k in range(steps + 1)]
    cumulative = [0.0]
    for k in range(steps):
        cumulative.append(cumulative[-1] + (density[k] + density[k + 1]) / 2)
    weights = [cumulative[(i + 1) * 400] - cumulative[i * 400] for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / cumulative[-1]


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def spawn(config: dict, deadline: float) -> dict:
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise TimeoutError("out of time before starting a worker")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(config)],
                          cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def main() -> int:
    start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="tiny is for the self-test")
    args = parser.parse_args()

    for needed in ("src/multitrace/__init__.py", workloads.MANIFEST, REFERENCE):
        if not (ROOT / needed).is_file():
            print(f"error: {ROOT / needed} is missing; run from a multitrace checkout",
                  file=sys.stderr)
            return 2

    deadline = start + DEADLINE_S
    config = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "size": args.size, "reference": REFERENCE}
    try:
        if args.trace:
            result = spawn({**config, "mode": "trace"}, deadline)
        else:
            probes = [spawn({**config, "mode": "setup"}, deadline)
                      for _ in range(SETUP_PROBES)]
            result = spawn({**config, "mode": "measure"}, deadline)
            probes.append(result)
            setups = [p["setup_s"] for p in probes]
            scaled_setups = [p["setup_s"] * p["setup_factor"] for p in probes]
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        print(f"workload {args.workload}, seed {args.seed}, size {args.size}: "
              f"{len(result['pass_s'])} traced passes of {result['ops_per_pass']} operations, "
              "one closed-loop client, one thread")
    else:
        print(f"workload {args.workload}, seed {args.seed}, size {args.size}: "
              f"{attempted} operations from a list of {result['ops_per_pass']}, "
              "one closed-loop client, one thread")
    for problem in result["problems"] + result["run_problems"]:
        print(f"  problem: {problem}")

    metrics: dict[str, dict] = {}

    def report(name: str, value: float, unit: str, note: str = "") -> None:
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:36s} {value:14.6f} {unit:6s} {note}")

    if args.trace:
        print("per-layer metrics from the traced run (own-process timers only):")
        for name, (unit, _) in LAYER_METRICS.items():
            value = result["layers"][name]
            if value is None:
                report(name, 0, unit, "ABSENT: hooked name missing in this version")
            else:
                report(name, value, unit,
                       "computed as N^legs per call, not measured"
                       if name == "oracle.grid_cells" else "")
        if result["absent"]:
            print("absent hooks: " + ", ".join(result["absent"]))
    else:
        factor = result["speed_factor"]
        raw = [statistics.fmean(samples) for samples in result["latency_ms"]]
        per_op = [x * factor for x in raw]
        flat = sorted(x for samples in result["latency_ms"] for x in samples)
        n, m = len(flat), len(per_op)
        chunks = result["chunk_s"]
        print(f"machine speed: the reference chunk took {statistics.median(chunks) * 1e3:.2f} ms "
              f"(median of {len(chunks)}; reference {speed.REFERENCE_CHUNK_S * 1e3:.2f} ms); "
              f"times below are scaled by {factor:.4f} to the reference speed, raw figures "
              "in the notes")
        report("setup_s", statistics.median(scaled_setups), "s",
               f"median of {len(setups)} fresh processes, each scaled by its own "
               f"chunks; raw median {statistics.median(setups):.4f} s")
        report("wall_s", sum(per_op) / 1e3, "s",
               f"sum over the {m} positions of their mean latency; raw {sum(raw) / 1e3:.3f} s")
        report("op_ms_p50", harrell_davis_median(per_op), "ms",
               f"Harrell-Davis median of the {m} positions' mean latencies "
               f"(n={n} samples; nearest-rank {nearest_rank(per_op, 50):.1f} ms); "
               f"raw {harrell_davis_median(raw):.1f} ms, raw p50 of the samples "
               f"{nearest_rank(flat, 50):.1f} ms")
        rule = f"p{100 - 1000 / n:.1f} = {nearest_rank(flat, 100 - 1000 / n):.1f} ms" \
            if n > 10 else "none"
        report("op_ms_tail", nearest_rank(per_op, TAIL_PCT), "ms",
               f"p{TAIL_PCT} of the same means; raw {nearest_rank(raw, TAIL_PCT):.1f} ms; "
               f"raw highest percentile of the samples with 10 beyond it: {rule}")
        report("peak_rss_mb", result["peak_rss_mb"], "MB", "measuring process")
        print(f"{'fail_ratio':36s} {failed / attempted:14.6f} {'1':6s} "
              f"{failed} of {attempted} operations failed a check or raised")
        # fail_ratio is 0 on a correct engine, so it travels as failed/attempted
        # in the result line rather than as a bounded metric.

    correct = failed == 0 and not result["run_problems"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
