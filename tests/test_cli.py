"""End-to-end command coverage through ``main`` with captured output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multitrace
from multitrace import (MATRIX, RibbonError, Series, algebra, parse_series, product,
                        render_series, series_from_json)
from multitrace.cli import main, parse_manifest_line


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_product_prints_the_expansion(capsys):
    code, out, err = run(capsys, "product", "W{Tr[x1]}", "W{Tr[y1]}")
    assert code == 0
    assert out == "1*W{Tr[x1] Tr[y1]} + hbar*g*W{}\n"
    assert err == ""


def test_product_rejects_shared_labels(capsys):
    code, out, err = run(capsys, "product", "W{Tr[x1]}", "W{Tr[x1]}")
    assert code == 2
    assert out == ""
    assert "x1" in err and "error:" in err


@pytest.mark.parametrize("symbol", ["G H", "G\u00e9", "_G"])
def test_transport_refuses_a_symbol_whose_text_would_not_parse(capsys, symbol):
    for mode in ("matrix", "kernel"):
        code, out, err = run(capsys, "transport", "--mode", mode, "--symbol", symbol,
                             "W{Tr[x1 x2]}")
        assert (code, out) == (2, "")
        assert err == f"error: bad kernel symbol name {symbol!r}\n"


def test_moment_json_document(capsys):
    code, out, _ = run(capsys, "moment", "W{Tr[x1 x2]}", "W{Tr[y1 y2]}",
                       "--json")
    assert code == 0
    series = series_from_json(out)
    doc = json.loads(out)
    assert doc["version"] == "1"
    assert len(series.terms) == 1


def test_moment_hbar_off(capsys):
    code, out, _ = run(capsys, "moment", "W{Tr[x1 x2]}", "W{Tr[y1 y2]}",
                       "--hbar", "off")
    assert code == 0
    assert out == "2*g^2\n"


def test_transport_flags_and_basis_tag(capsys):
    code, out, err = run(capsys, "transport", "W{Tr[x1 x2]}",
                         "--basis", "primed")
    assert code == 0
    assert out.splitlines() == [
        "# target basis: primed",
        "eps^-1*hbar*F*W{} + 1*W{Tr[x1 x2]}",
    ]
    assert "negative-eps" in err


def test_truncation_is_reported(capsys):
    code, out, err = run(capsys, "product", "W{Tr[x1 x2]}", "W{Tr[y1 y2]}",
                         "--max-eps", "0")
    assert code == 0
    assert "truncated" in err
    assert "eps*" not in out
    # a moment keeps the flag of its product chain, on stderr and in JSON
    cubics = ("W{Tr[x1 x2 x3]}", "W{Tr[y1 y2 y3]}")
    code, out, err = run(capsys, "moment", *cubics, "--max-eps", "0")
    assert (code, out, err) == (0, "3*hbar^3*g^3\n", "flags: truncated\n")
    code, out, err = run(capsys, "moment", *cubics, "--max-eps", "0", "--json")
    assert (code, err) == (0, "") and json.loads(out)["flags"] == ["truncated"]
    assert render_series(series_from_json(out)) == "3*hbar^3*g^3*W{}"
    # uncapped, nothing was dropped and no flag is set
    code, out, err = run(capsys, "moment", *cubics)
    assert (code, out, err) == (0, "3*hbar^3*g^3 + 3*eps^2*hbar^3*g^3\n", "")
    code, out, err = run(capsys, "moment", *cubics, "--json")
    assert json.loads(out)["flags"] == []


def test_internal_errors_have_their_own_exit_code(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RibbonError("exponent mismatch")

    monkeypatch.setattr(algebra, "enumerate_pairings", broken)
    code, out, err = run(capsys, "product", "W{Tr[x1]}", "W{Tr[y1]}")
    assert code == 3
    assert out == ""
    assert err == "internal error: exponent mismatch\n"


def test_a_leading_minus_literal_is_a_series(capsys):
    code, out, err = run(capsys, "product", "-W{Tr[x1]}", "W{Tr[y1]}")
    assert (code, out, err) == (0, "-1*W{Tr[x1] Tr[y1]} - hbar*g*W{}\n", "")
    code, out, _ = run(capsys, "moment", "W{Tr[x1]}", "-hbar*W{Tr[y1]}", "--max-eps", "-1")
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, "moment", "-hbar*W{Tr[x1]}", "W{Tr[y1]}")
    assert (code, out) == (0, "-hbar^2*g\n")
    with pytest.raises(SystemExit) as help_exit:
        main(["product", "-h"])
    assert help_exit.value.code == 0 and "series literals" in capsys.readouterr().out


def test_a_rendered_negative_result_feeds_back(capsys):
    code, first, _ = run(capsys, "product", "-W{Tr[x1 x2]}", "W{Tr[y1 y2]}")
    assert code == 0 and first.startswith("-")
    code, out, _ = run(capsys, "product", first.strip(), "W{Tr[z1]}")
    want = product(parse_series(first, MATRIX), parse_series("W{Tr[z1]}", MATRIX))
    assert code == 0 and out == render_series(want) + "\n"


def test_commutator_and_poisson(capsys):
    code, out, _ = run(capsys, "commutator", "W{Tr[x1]}", "W{Tr[y1]}",
                       "--mode", "kernel")
    assert code == 0
    assert out == "(hbar*K(x1,y1) - hbar*K(y1,x1))*W{}\n"
    code, _, err = run(capsys, "commutator", "W{Tr[x1]}", "W{Tr[y1]}",
                       "--mode", "kernel", "--poisson")
    assert code == 2
    assert "not divisible" in err


def test_connected_subtracts_the_disconnected_part(capsys):
    code, out, _ = run(capsys, "connected", "W{Tr[x1]}", "W{Tr[y1]}")
    assert code == 0
    assert out == "hbar*g*W{}\n"


def test_genus_table_groups_by_degree(capsys):
    code, out, _ = run(capsys, "genus-table", "W{Tr[x1 x2]}", "W{Tr[y1 y2]}")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "eps^0: 3 schemes"
    assert "2*hbar^2*g^2*W{}" in lines[1]
    assert lines[2] == "eps^1: 4 schemes"


def test_genus_table_layers_sum_to_the_product(capsys):
    # each layer holds the schemes of its own eps degree times the input
    # coefficients, so an eps on an input shifts the layers, not the rows
    a, b = "eps*W{Tr[x1 x2]}", "W{Tr[y1 y2]}"
    code, out, _ = run(capsys, "genus-table", a, b)
    assert code == 0
    lines = out.splitlines()
    heads, layers = lines[0::2], lines[1::2]
    assert heads == ["eps^0: 3 schemes", "eps^1: 4 schemes"]
    # C(2,k)^2 k! schemes with k pairs
    assert sum(int(h.split()[1]) for h in heads) == 1 + 4 + 2 == 7
    assert layers[0] == "  eps*W{Tr[x1 x2] Tr[y1 y2]} + 2*eps*hbar^2*g^2*W{}"
    total = Series.zero(MATRIX)
    for layer in layers:
        total = total + parse_series(layer, MATRIX)
    assert total == product(parse_series(a, MATRIX), parse_series(b, MATRIX))


def test_scaling_table(capsys):
    code, out, _ = run(capsys, "scaling", "W{Tr[x1 x2 x3 x4]}")
    assert code == 0
    assert "coupling exponent: 1" in out
    code, out, _ = run(capsys, "scaling", "W{Tr[x1 x2 x3 x4]}",
                       "--target", "W{Tr[y1 y2]}",
                       "--connected-bound", "1,1,1")
    assert "flow strength exponent" in out and ": 1" in out
    assert "connected degree bound for trace counts [1, 1, 1]: 1" in out


@pytest.mark.parametrize("option, message", [
    (("--connected-bound", "1,x"),
     "error: --connected-bound expects comma-separated integer trace counts, got '1,x'\n"),
    (("--connected-bound=-1,2",), "error: trace counts must be positive\n"),
    (("--connected-bound", "3"), "error: connected bounds need at least two factors\n"),
    (("--connected-bound", ""),
     "error: --connected-bound expects comma-separated integer trace counts, got ''\n"),
    (("--target", "W{Tr["), "error: line 1 column 6: expected 'ident', found 'end of input'\n"),
])
def test_scaling_refuses_its_options_before_printing(capsys, option, message):
    code, out, err = run(capsys, "scaling", "W{Tr[x1]}", *option)
    assert (code, out, err) == (2, "", message)


def test_a_closed_stdout_is_not_bad_input():
    # the product's 223,946 bytes overflow the pipe; the reader stops after five
    src = str(Path(multitrace.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "multitrace", "product",
         "W{Tr[x1 x2 x3 x4 x5 x6]}", "W{Tr[y1 y2 y3 y4 y5 y6]}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src})
    try:
        assert proc.stdout.read(5) == b"1*W{T"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    finally:
        proc.kill()
        proc.wait()
    assert err == b""


def test_identical_runs_are_identical(capsys):
    first = run(capsys, "product", "W{Tr[x1 x2 x3]}", "W{Tr[y1 y2 y3]}")
    second = run(capsys, "product", "W{Tr[x1 x2 x3]}", "W{Tr[y1 y2 y3]}")
    assert first == second


def test_calls_in_one_process_print_what_fresh_processes_print(capsys):
    # one argument tree serves every call of a process; options set by a
    # call, and a usage error, must not leak into the next call
    calls = [
        ("product", "--mode", "kernel", "W{Tr[x1 x2]}", "W{Tr[y1 y2]}"),
        ("product", "W{Tr[x1 x2]}", "W{Tr[y1 y2]}"),
        ("transport", "--negate", "W{Tr[x1 x2 x3 x4]}"),
        ("transport", "W{Tr[x1 x2 x3 x4]}"),
        ("product", "--mode", "tensor", "W{Tr[x1]}", "W{Tr[y1]}"),
        ("moment", "W{Tr[x1 x2]}", "W{Tr[y1 y2]}"),
    ]
    in_process = []
    for argv in calls:
        try:
            in_process.append(run(capsys, *argv))
        except SystemExit as exc:   # argparse's usage error
            captured = capsys.readouterr()
            in_process.append((exc.code, captured.out, captured.err))
    src = str(Path(multitrace.__file__).resolve().parents[1])
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "multitrace", *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in in_process] == [0, 0, 0, 0, 2, 0]
    assert in_process == fresh


def test_parse_errors_exit_with_two(capsys):
    code, _, err = run(capsys, "moment", "W{Tr[]}")
    assert code == 2
    assert "empty trace" in err


def test_oversized_rational_literals_are_bad_input(capsys):
    code, out, err = run(capsys, "product", "2^20000*W{Tr[x1]}", "W{Tr[y1]}")
    assert (code, out) == (2, "")
    assert err.startswith("error: line 1 column 1: rational literal too large")


@pytest.mark.parametrize("factor, what", [
    ("2^14000*2^14000*W{Tr[x1]}", "line 1 column 9: product of rationals"),
    ("(2)^20000*W{Tr[x1]}", "line 1 column 1: scalar power"),
])
def test_oversized_built_up_rationals_are_bad_input(capsys, factor, what):
    code, out, err = run(capsys, "product", factor, "W{Tr[y1]}")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {what} too large")


def test_zero_denominators_are_bad_input(capsys):
    code, out, err = run(capsys, "product", "1/0*W{Tr[x1]}", "W{Tr[y1]}")
    assert (code, out, err) == (2, "", "error: line 1 column 1: zero denominator in 1/0\n")


class TestVerify:
    GOOD = "\n".join([
        "# a pair of squares",
        "CHECK W{Tr[x1 x2]} W{Tr[y1 y2]} == 2*hbar^2*g^2 @ N=2, c=1",
        "",
        "CHECK W{Tr[x1@1]} W{Tr[y1@1]} == hbar*s1*g @ N=2, blocks=1,1, c=1",
        "CHECK W{Tr[x1]} W{Tr[y1]} == hbar*g @ N=3, c=1/2, hbar=2",
    ]) + "\n"

    def test_passing_manifest(self, tmp_path, capsys):
        path = tmp_path / "ok.txt"
        path.write_text(self.GOOD)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert out.count("PASS") == 3
        assert "3/3 checks passed" in out

    def test_failing_line_reports_both_sides(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(
            "CHECK W{Tr[x1]} W{Tr[y1]} == 2*g @ N=2, c=1\n")
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "FAIL" in out
        assert "claimed 2" in out and "oracle 1" in out
        assert "0/1 checks passed" in out

    def test_unparseable_line_counts_as_failure(self, tmp_path, capsys):
        good = "CHECK W{Tr[x1]} W{Tr[y1]} == hbar*g @ N=2, c=1"
        bad = [
            "CHECK W{Tr[} == 1 @ N=2, c=1",
            "CHECK W{Tr[x1@1]} W{Tr[y1@1]} == hbar*s1*g @ N=3, blocks=1,1, c=1",
            "CHECK W{Tr[x1 x2 x3 x4 x5 x6]} W{Tr[y1 y2 y3 y4 y5 y6]} == 0 @ N=2, c=1",
            "CHECK W{Tr[x1]} W{Tr[y1]} == K(x1,y1) @ N=2, c=1",
            "CHECK W{Tr[x1 x2 x3 x4 x5]} W{Tr[y1 y2 y3 y4 y5]} == 0 @ N=100, c=1",
            "CHECK W{Tr[x1]} W{Tr[y1]} == hbar*g @ N=1/0, c=1",
            "CHECK W{Tr[x1]} W{Tr[y1]} == hbar*g @ N=2, c=1/0",
            "CHECK W{Tr[x1]} W{Tr[y1] == 1 @ N=2, c=1",
            "CHECK W{Tr[x1]} W{Tr[y1]} == hbar*g @ N=2, c=1, q=3",
            "CHECK W{Tr[x1]} W{Tr[y1]} == hbar*g @ N=2",
            "CHECK W{Tr[x1]} W{Tr[y1]} == hbar*g @ N=2, c=1 3",
            "CHECK == 1 @ N=2, c=1",
            "CHECK W{Tr[x1]} W{Tr[y1]} == W{Tr[z1]} @ N=2, c=1",
            "CHECK W{Tr[x1]} W{Tr[y1]} == 1 2 @ N=2, c=1",
        ]
        path = tmp_path / "ugly.txt"
        # the last line, a unit generator with no legs, passes
        path.write_text("".join(f"{line}\n{good}\n" for line in bad)
                        + "CHECK W{} == 1 @ N=2, c=1\n")
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        for number in range(1, 2 * len(bad), 2):
            assert f"FAIL line {number}: " in out
            assert f"PASS line {number + 1}: " in out
        lines = out.splitlines()
        # a malformed generator is named where it is, not as a missing configuration
        assert "FAIL line 1: line 1 column 12: expected 'ident', found '}'" in lines
        assert "FAIL line 15: line 1 column 26: expected 'Tr', found '='" in lines
        assert "FAIL line 17: line 1 column 51: unknown configuration key 'q'" in lines
        assert "FAIL line 19: line 1 column 42: configuration needs at least N and c" in lines
        assert "FAIL line 21: line 1 column 48: trailing configuration input" in lines
        assert "FAIL line 23: line 1 column 7: CHECK needs at least one generator" in lines
        assert "FAIL line 25: line 1 column 40: the claimed value must be scalar" in lines
        assert "FAIL line 27: line 1 column 32: trailing input '2'" in lines
        assert "PASS line 29: CHECK W{} == 1 @ N=2, c=1" in lines
        assert "FAIL line 3: block sizes (1, 1) do not sum" in out
        assert "FAIL line 5: 12 legs exceed the oracle cap" in out
        assert "FAIL line 7: no assignment for symbol 'K(x1,y1)'" in out
        assert "FAIL line 9: N=100 at 10 legs" in out
        assert "FAIL line 11: line 1 column 41: zero denominator in 1/0" in out
        assert "FAIL line 13: line 1 column 46: zero denominator in 1/0" in out
        assert "15/29 checks passed" in out

    def test_a_fractional_matrix_size_is_a_failed_line(self, tmp_path, capsys):
        # N=5/2 used to be truncated to N=2, where the claim holds
        path = tmp_path / "half.txt"
        path.write_text("CHECK W{Tr[x1 x2]} W{Tr[y1 y2]} == 2*hbar^2*g^2 @ N=5/2, c=1\n"
                        "CHECK W{Tr[x1 x2]} W{Tr[y1 y2]} == 2*hbar^2*g^2 @ N=4/2, c=1\n")
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert out.splitlines() == [
            "FAIL line 1: line 1 column 53: matrix size N=5/2 is not an integer",
            "PASS line 2: CHECK W{Tr[x1 x2]} W{Tr[y1 y2]} == 2*hbar^2*g^2 @ N=4/2, c=1",
            "1/2 checks passed",
        ]

    def test_a_fractional_block_size_is_a_located_failed_line(self, tmp_path, capsys):
        # block sizes read as N does: 4/2 is 2, and 3/2 fails at its own column
        path = tmp_path / "blocks.txt"
        path.write_text("CHECK W{Tr[x1@1]} W{Tr[y1@1]} == hbar*s1*g @ N=2, blocks=3/2,1/2, c=1\n"
                        "CHECK W{Tr[x1@1]} W{Tr[y1@1]} == hbar*s1*g @ N=2, blocks=1,1/2, c=1\n"
                        "CHECK W{Tr[x1@1]} W{Tr[y1@1]} == hbar*s1*g @ N=2, blocks=4/2,0, c=1\n")
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert out.splitlines() == [
            "FAIL line 1: line 1 column 58: block size 3/2 is not an integer",
            "FAIL line 2: line 1 column 60: block size 1/2 is not an integer",
            "PASS line 3: CHECK W{Tr[x1@1]} W{Tr[y1@1]} == hbar*s1*g @ N=2, blocks=4/2,0, c=1",
            "1/3 checks passed",
        ]

    def test_unreadable_manifest_is_bad_input(self, tmp_path, capsys):
        code, out, err = run(capsys, "verify", str(tmp_path / "missing.txt"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "missing.txt" in err

    def test_line_parser_requires_the_config(self):
        with pytest.raises(Exception):
            parse_manifest_line("CHECK W{Tr[x1]} W{Tr[y1]} == g")
        assert parse_manifest_line("# comment") is None
        assert parse_manifest_line("   ") is None
