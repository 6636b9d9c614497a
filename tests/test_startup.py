"""The engine's commands run without numpy; only the oracle imports it."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import multitrace
from multitrace.cli import main

SRC = str(Path(multitrace.__file__).resolve().parents[1])

CALLS = [
    ("product", "W{Tr[x1 x2 x3] Tr[x4]}", "W{Tr[y1 y2] Tr[y3]}"),
    ("product", "--mode", "kernel", "W{Tr[x1 x2 x3]}", "W{Tr[y1 y2]}"),
    ("product", "--colors", "2", "W{Tr[x1@1 x2@2]}", "W{Tr[y1@2 y2@1]}"),
    ("moment", "W{Tr[x1 x2 x3]}", "W{Tr[y1 y2 y3]}"),
    ("connected", "W{Tr[x1 x2]}", "W{Tr[y1 y2]}", "W{Tr[z1 z2]}"),
    ("commutator", "W{Tr[x1 x2]}", "W{Tr[y1 y2 y3]}"),
    ("transport", "W{Tr[x1 x2 x3 x4]}"),
    ("genus-table", "W{Tr[x1 x2 x3]}", "W{Tr[y1 y2 y3]}"),
    ("scaling", "W{Tr[x1 x2 x3 x4]}", "--target", "W{Tr[y1 y2]}",
     "--connected-bound", "1,1,1"),
]

# main's status and stdout for each call; numpy cannot be imported at all
BLOCKED = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import multitrace
from multitrace.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def python(script, *args):
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script), *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=120)


def test_engine_commands_run_without_numpy(capsys):
    proc = python(BLOCKED, json.dumps(CALLS))
    assert proc.returncode == 0, proc.stderr
    normal = []
    for argv in CALLS:
        code = main(list(argv))
        normal.append([code, capsys.readouterr().out])
    assert all(code == 0 and out for code, out in normal)
    assert json.loads(proc.stdout) == normal


def test_numpy_loads_only_when_the_oracle_runs(tmp_path):
    manifest = tmp_path / "checks.txt"
    manifest.write_text("CHECK W{Tr[x1 x2]} W{Tr[y1 y2]} == 2*hbar^2*g^2 @ N=2, c=1\n")
    proc = python("""
        import contextlib, io, sys
        import multitrace, multitrace.cli
        with contextlib.redirect_stdout(io.StringIO()):
            multitrace.cli.main(["product", "W{Tr[x1 x2 x3]}", "W{Tr[y1 y2 y3]}"])
        print("numpy" in sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            code = multitrace.cli.main(["verify", sys.argv[1]])
        print(code, "numpy" in sys.modules)
        """, str(manifest))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["False", "0 True", ""]
