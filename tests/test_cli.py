"""End-to-end command coverage through ``main`` with captured output."""

import json

import pytest

from multitrace import (MATRIX, RibbonError, Series, algebra, parse_series, product,
                        series_from_json)
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


def test_internal_errors_have_their_own_exit_code(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RibbonError("exponent mismatch")

    monkeypatch.setattr(algebra, "analyze", broken)
    code, out, err = run(capsys, "product", "W{Tr[x1]}", "W{Tr[y1]}")
    assert code == 3
    assert out == ""
    assert err == "internal error: exponent mismatch\n"


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


def test_identical_runs_are_identical(capsys):
    first = run(capsys, "product", "W{Tr[x1 x2 x3]}", "W{Tr[y1 y2 y3]}")
    second = run(capsys, "product", "W{Tr[x1 x2 x3]}", "W{Tr[y1 y2 y3]}")
    assert first == second


def test_parse_errors_exit_with_two(capsys):
    code, _, err = run(capsys, "moment", "W{Tr[]}")
    assert code == 2
    assert "empty trace" in err


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
        path = tmp_path / "ugly.txt"
        path.write_text("CHECK W{Tr[} == 1 @ N=2, c=1\n")
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "FAIL line 1" in out
        assert "0/1 checks passed" in out

    def test_line_parser_requires_the_config(self):
        with pytest.raises(Exception):
            parse_manifest_line("CHECK W{Tr[x1]} W{Tr[y1]} == g")
        assert parse_manifest_line("# comment") is None
        assert parse_manifest_line("   ") is None
