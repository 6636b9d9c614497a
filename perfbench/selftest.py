"""The benchmark's own self-test, at the tiny size (about 20 s).

    python3 perfbench/selftest.py

It checks that every workload prints every metric named in
BENCHMARK.json with its unit, that traced scheme counts equal their
closed forms, that a missing hooked name leaves the traced run going,
that a wrong reference digest drives the failure count above zero, and
that the benchmark refuses to run without the engine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import closed_forms  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402

SCRATCH = ROOT / ".perfbench" / "selftest"
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def bench(workload: str, trace: int, cwd: Path = ROOT):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    try:
        result = json.loads(last[0])
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def legs(literal: str) -> int:
    """Slot count of a generator literal such as W{Tr[x1 x2] Tr[x3]}."""
    return len(literal[2:-1].replace("Tr[", " ").replace("]", " ").split())


def expected_schemes(name: str) -> tuple[int, int]:
    """Closed-form scheme counts of one tiny pass: (uncapped products, transports)."""
    products = transported = 0
    for op in workloads.build(name, 7, "tiny", worker.manifest_checks()):
        if op.kind == "product" and op.args[4] is None:
            products += closed_forms.cross_schemes(legs(op.args[2]), legs(op.args[3]))
        elif op.kind == "transport":
            transported += closed_forms.partial_matchings(legs(op.args[0]))
    return products, transported


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    expect(closed_forms.cross_schemes(6, 6) == 13327, "13,327 schemes per 6x6 pair")
    expect(closed_forms.partial_matchings(10) == 9496, "9,496 schemes per 10-leg transport")
    expect(closed_forms.harer_zagier(5) == {0: 42, 1: 420, 2: 483},
           "Harer-Zagier 42, 420, 483 at 10 legs")

    for name in names:
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            code, result = bench(name, trace)
            got = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0 and got == wanted,
                   f"{name} --trace {trace}: correct, every metric with its unit")
            if trace and result is not None and name in ("product_full", "text_transport"):
                products, transported = expected_schemes(name)
                m = result["metrics"]
                expect(m["transport.schemes"]["value"] == transported
                       and (name != "product_full"
                            or m["ribbon.enumerate.schemes"]["value"] == products),
                       f"{name}: traced scheme counts equal the closed forms "
                       f"({products} in products, {transported} in transports)")

    reference = json.loads((HERE / "reference.json").read_text())
    engine = worker.Engine()
    del engine.cli.oracle_moment
    tracer = Tracer()
    tracer.install()
    try:
        _, problems = worker.run_pass(
            engine, workloads.build("product_full", 7, "tiny"), reference, tracer)
        values = tracer.layer_values()
    finally:
        tracer.uninstall()
    expect(tracer.absent == ["multitrace.cli.oracle_moment"]
           and not any(problems) and values["algebra.product.calls"] == 7,
           "a missing hooked name is reported absent and the traced run goes on")

    SCRATCH.mkdir(parents=True, exist_ok=True)
    wrong = {key: "0" * 32 for key in reference}
    (SCRATCH / "wrong.json").write_text(json.dumps(wrong))
    config = {"workload": "product_full", "seed": 7, "seconds": 1, "size": "tiny",
              "mode": "measure", "reference": str((SCRATCH / "wrong.json").relative_to(ROOT))}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(config)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(proc.returncode == 0 and result["failed"] / result["attempted"] > 0,
           "a wrong reference digest drives fail_ratio above 0")

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = bench("product_full", 0, cwd=bare)
    expect(code != 0 and result is None, "without the engine it exits nonzero, no result")
    shutil.rmtree(SCRATCH)

    print(f"{'all passed' if not FAILURES else f'{len(FAILURES)} failed'}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
