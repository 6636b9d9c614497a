"""One fresh benchmark process: set up a workload, then measure or trace it.

``run.py`` starts it as ``python3 perfbench/worker.py '<json config>'``
with the keys workload, seed, seconds, size, mode ("setup", "measure"
or "trace") and reference (a digest-table path relative to the
checkout).  It prints one JSON object as its last line of output.

Set-up is everything before the first measured operation: importing
the engine (and numpy with it), generating the seeded inputs, loading
the digest table, and one warm-up pass over the tiny version of the
same workload.  One client runs the operations in a closed loop: the
next starts when the previous one has returned.  In a measured run,
reference chunks (``speed.py``) follow each operation, before its
checks, so that the run's times can be scaled to the reference speed.
"""

from time import perf_counter

T0 = perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import closed_forms  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import PREV, Op  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SPAN_DIR = ROOT / ".perfbench"
# Reference chunks run after each measured operation, as a share of its time.
CHUNK_SHARE = 0.1


class Engine:
    """The engine's modules, looked up at call time so hooks take effect."""

    def __init__(self) -> None:
        sys.path.insert(0, str(ROOT / "src"))
        pkg = importlib.import_module("multitrace")
        if not Path(pkg.__file__).resolve().is_relative_to(ROOT / "src"):
            raise ImportError(f"multitrace imported from {pkg.__file__}, not {ROOT / 'src'}")
        self.algebra = importlib.import_module("multitrace.algebra")
        self.cli = importlib.import_module("multitrace.cli")
        self.exprparse = importlib.import_module("multitrace.exprparse")
        self.observables = importlib.import_module("multitrace.observables")
        self.transport = importlib.import_module("multitrace.transport")

    def run(self, op: Op, prev: str | None):
        """Parse, compute and render one operation: (text, result or None)."""
        if op.kind == "product":
            kind, colors, a_text, b_text, cap = op.args
            mode = self.observables.Mode(kind, colors)
            a = self.exprparse.parse_series(a_text, mode)
            b = self.exprparse.parse_series(b_text, mode)
            result = self.algebra.product(a, b, max_eps_degree=cap)
            return self.exprparse.render_series(result), result
        if op.kind == "transport":
            series = self.exprparse.parse_series(op.args[0], self.observables.Mode("matrix"))
            result = self.transport.transport(series)
            text = (self.exprparse.render_series(result) + "\n"
                    + self.algebra.expectation(result).render())
            return text, result
        argv = [prev if arg == PREV else arg for arg in op.args]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.getvalue().strip()[:200]}")
        return out.getvalue().rstrip("\n"), None

    def check(self, op: Op, text: str, result) -> list[str]:
        """Independent checks: closed forms that never touch the engine."""
        problems = []
        for name, *params in op.checks:
            if name == "unit_matchings":
                a, b = params
                got = self.algebra.expectation(result).eval({"eps": 1, "hbar": 1, "g": 1})
                want = closed_forms.cross_perfect_matchings(a, b)
            elif name == "matchings":
                got = self.algebra.expectation(result).eval({"eps": 1, "hbar": 1, "F": 1})
                want = closed_forms.double_factorial_odd(params[0])
            elif name == "harer_zagier":
                unit = self.algebra.expectation(result)
                points = (Fraction(1, 2), Fraction(1, 3))
                got = [unit.eval({"eps": e, "hbar": 1, "F": 1}) for e in points]
                want = [closed_forms.harer_zagier_moment(params[0], e) for e in points]
            elif name == "verify":
                got = text.splitlines()[-1]
                want = f"{params[0]}/{params[0]} checks passed"
            else:
                raise KeyError(name)
            if got != want:
                problems.append(f"{name}{tuple(params)}: got {got}, want {want}")
        return problems


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def manifest_checks() -> int:
    with open(ROOT / workloads.MANIFEST, encoding="utf-8") as handle:
        return sum(1 for line in handle if line.lstrip().startswith("CHECK"))


def run_op(engine: Engine, op: Op, prev_text: str | None, prev_key: str | None,
           reference: dict, on_done=None):
    """Run one operation and check it: (text, key, latency in ms or None, problems).

    ``on_done(latency)`` is called as soon as the operation returns,
    before its checks.
    """
    key = workloads.op_key(op, prev_key)
    found: list[str] = []
    text = result = latency = None
    if op.chained and prev_text is None:
        found.append("input operation failed")
    else:
        t0 = perf_counter()
        try:
            text, result = engine.run(op, prev_text)
        except Exception as exc:  # an operation that raises counts as failed
            found.append(f"raised {type(exc).__name__}: {str(exc)[:200]}")
        latency = (perf_counter() - t0) * 1e3
        if on_done is not None:
            on_done(latency)
    if text is not None:
        found.extend(engine.check(op, text, result))
        want = reference.get(key)
        if want is None:
            found.append("no reference digest for this operation")
        elif digest(text) != want:
            found.append(f"digest {digest(text)} differs from reference {want}")
    return text, key, latency, found


def run_pass(engine: Engine, ops: list[Op], reference: dict, tracer=None):
    """Run the operations once; return (seconds, problems per op)."""
    problems = []
    prev_text, prev_key = None, None
    t_pass = perf_counter()
    for number, op in enumerate(ops):
        if tracer is not None and not (op.chained and prev_text is None):
            tracer.begin_op(number)
        prev_text, prev_key, _, found = run_op(
            engine, op, prev_text, prev_key, reference,
            None if tracer is None else (lambda _latency: tracer.end_op()))
        problems.append(found)
    return perf_counter() - t_pass, problems


def measure(engine: Engine, passes, reference: dict, seconds: float):
    """Closed loop over the passes' operation lists, one after the other, for ``seconds``.

    ``passes(p)`` is the operation list of pass ``p``; every list has
    the same length.  The first pass always completes; after it, an
    operation starts only if it should end, with its reference chunks,
    within ``seconds``.  Returns the latencies at each position of the
    list, the problems of every operation run, and the speed meter.
    """
    meter = speed.Meter(CHUNK_SHARE)
    ops = passes(0)
    latencies: list[list[float]] = [[] for _ in ops]
    cost = [0.0] * len(ops)
    problems = []
    start = perf_counter()
    prev_text, prev_key, number = None, None, 0
    while True:
        j = number % len(ops)
        if number >= len(ops) and perf_counter() - start + cost[j] > seconds:
            break
        if j == 0:
            ops = passes(number // len(ops))
            prev_text, prev_key = None, None
        t0 = perf_counter()

        def done(latency: float, j: int = j) -> None:
            latencies[j].append(latency)
            meter.after(latency / 1e3)

        prev_text, prev_key, _, found = run_op(engine, ops[j], prev_text, prev_key,
                                               reference, done)
        cost[j] = perf_counter() - t0
        problems.append(found)
        number += 1
    return latencies, problems, meter


def scheme_count_problems(enumerations: list[dict]) -> list[tuple[int, str]]:
    """Uncapped enumerations must yield exactly the closed-form count."""
    out = []
    for e in enumerations:
        if e["capped"]:
            continue
        if e["legs_b"] is None:
            want = closed_forms.partial_matchings(e["legs_a"])
        else:
            want = closed_forms.cross_schemes(e["legs_a"], e["legs_b"])
        if e["yielded"] != want:
            out.append((e["op"], f"enumerate({e['legs_a']}, {e['legs_b']}) yielded "
                                 f"{e['yielded']}, closed form {want}"))
    return out


def room_for_another(passes: list[float], start: float, seconds: float) -> bool:
    """Whole passes only: start one more if it should end within ``seconds``."""
    return not passes or perf_counter() - start + passes[-1] <= seconds


def main() -> int:
    cfg = json.loads(sys.argv[1])
    os.chdir(ROOT)
    engine = Engine()
    name, seed, size = cfg["workload"], cfg["seed"], cfg["size"]
    checks = manifest_checks()
    ops = workloads.build(name, seed, size, checks)
    with open(ROOT / cfg["reference"], encoding="utf-8") as handle:
        reference = json.load(handle)
    run_pass(engine, workloads.build(name, seed, "tiny", checks), reference)
    setup_s = perf_counter() - T0
    report = {"setup_s": setup_s, "setup_factor": speed.current_factor()}
    if cfg["mode"] == "setup":
        print(json.dumps(report))
        return 0

    seconds = cfg["seconds"]
    layers, absent, run_problems = None, [], []
    latencies, passes, factor, chunks = [], [], None, []
    if cfg["mode"] == "measure":
        latencies, problems, meter = measure(
            engine, lambda p: workloads.build(name, seed, size, checks, p), reference, seconds)
        factor, chunks = meter.factor(), meter.chunks
    else:
        from tracing import LAYER_METRICS, Tracer
        start = perf_counter()
        plain, problems = run_pass(engine, ops, reference)
        tracer = Tracer()
        tracer.install()
        absent = tracer.absent
        per_pass, spans = [], []
        try:
            while room_for_another(passes, start, seconds):
                tracer.reset()
                wall, found = run_pass(engine, ops, reference, tracer)
                for op, message in scheme_count_problems(tracer.enumerations):
                    found[op].append(message)
                passes.append(wall)
                problems += found
                per_pass.append(tracer.layer_values())
                spans.append(tracer.spans)
        finally:
            tracer.uninstall()
        layers = {}
        for metric, (unit, span_name) in LAYER_METRICS.items():
            if span_name is None:
                continue
            values = [p[metric] for p in per_pass]
            if values[0] is None or not tracer.layer_present(span_name):
                layers[metric] = None
            elif unit == "s":
                layers[metric] = statistics.median(values)
            else:
                if any(v != values[0] for v in values):
                    run_problems.append(f"{metric} differs between passes: {values}")
                layers[metric] = values[0]
        layers["trace.overhead_ratio"] = statistics.median(passes) / plain
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write(SPAN_DIR / f"spans-{name}-{size}-seed{seed}.jsonl", spans)

    report.update({
        "pass_s": passes,
        "ops_per_pass": len(ops),
        "latency_ms": latencies,
        "speed_factor": factor,
        "chunk_s": chunks,
        "attempted": len(problems),
        "failed": sum(1 for found in problems if found),
        "problems": [f"{message} (x{count})" for message, count in
                     Counter(p for found in problems for p in found).most_common(20)],
        "run_problems": run_problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layers,
        "absent": absent,
    })
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
