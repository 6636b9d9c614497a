"""Text and JSON forms: parsing, printing, and their round trips."""

import json
import random
from fractions import Fraction

import pytest

from multitrace import (
    Coefficient,
    KERNEL,
    KernelSymbol,
    MATRIX,
    Mode,
    ONE,
    ParseError,
    Series,
    Slot,
    make_generator,
    parse_coefficient,
    parse_series,
    product,
    render_series,
    series_from_json,
    series_to_json,
    transport,
)

from helpers import random_series, series_of


class TestParsing:
    def test_generator_literal(self):
        got = parse_series("W{Tr[x1 x2 x3] Tr[x4 x5 x6]}", MATRIX)
        assert got == series_of((3, 3))

    def test_scaled_colored_generator(self):
        mode = Mode("matrix", 2)
        got = parse_series("3/2*eps^2*W{Tr[x1@1 x2@2]}", mode)
        gen = make_generator([[Slot("x1", False, 1), Slot("x2", False, 2)]], mode)
        assert got == Series.of(gen, mode,
                                Coefficient.eps(2).scale(Fraction(3, 2)))

    def test_conjugated_slots(self):
        got = parse_series("W{Tr[~x1 y1]}", KERNEL)
        gen = make_generator([[Slot("x1", True), Slot("y1", False)]], KERNEL)
        assert got == Series.of(gen, KERNEL)

    def test_signs_and_precedence(self):
        got = parse_coefficient("-eps + 2*hbar - 1", MATRIX)
        want = -Coefficient.eps() + Coefficient.hbar().scale(Fraction(2)) - ONE
        assert got == want
        assert parse_series("W{Tr[x1]} - 2*W{Tr[x1]} + W{Tr[x1]}", MATRIX).is_zero()
        got = parse_series("eps*W{Tr[x1]} + 1 - hbar*W{Tr[x1]} + W{Tr[x1]}", MATRIX)
        gen = series_of((1,))
        assert got == gen.scale(ONE + Coefficient.eps() - Coefficient.hbar()) \
            + Series.unit(MATRIX)

    def test_parenthesized_powers(self):
        got = parse_coefficient("(1 + eps)^2", MATRIX)
        eps = Coefficient.eps()
        assert got == ONE + eps.scale(Fraction(2)) + eps * eps

    def test_negative_exponent(self):
        assert parse_coefficient("eps^-2", MATRIX) == Coefficient.eps().power(-2)

    def test_kernel_symbol_atom(self):
        got = parse_coefficient("K(x1,~y2)", KERNEL)
        sym = KernelSymbol("K", (("x1", False), ("y2", True)))
        assert got == Coefficient.kernel(sym)

    def test_comments_and_whitespace(self):
        got = parse_series("  1*W{} # the unit\n + eps*W{}", MATRIX)
        assert got == Series.unit(MATRIX).scale(ONE + Coefficient.eps())


class TestParseErrors:
    def err(self, text, mode=MATRIX):
        with pytest.raises(ParseError) as info:
            parse_series(text, mode)
        return str(info.value)

    def test_empty_trace(self):
        assert "empty trace" in self.err("W{Tr[]}")

    def test_duplicate_labels(self):
        assert "distinct" in self.err("W{Tr[x1 x1]}")
        assert "distinct" in self.err("W{Tr[x1] Tr[x1]}", KERNEL)

    def test_generator_times_generator(self):
        message = self.err("W{Tr[x1]}*W{Tr[y1]}")
        assert "product engine" in message

    def test_uncolored_block_ratio(self):
        assert "uncolored" in self.err("s1*W{}")
        assert "1..2" in self.err("s3*W{}", Mode("matrix", 2))

    def test_negative_hbar_power(self):
        message = self.err("hbar^-1")
        assert "negative powers" in message

    def test_positions_are_reported(self):
        message = self.err("1 + $")
        assert "line 1" in message and "column 5" in message

    def test_trailing_input(self):
        assert "trailing" in self.err("1*W{} 2")

    def test_bare_trace_keyword(self):
        assert "inside W" in self.err("Tr[x1]")

    def test_missing_color(self):
        assert self.err("W{Tr[x1]}", Mode("matrix", 2))

    def test_fractional_exponent(self):
        assert "integers" in self.err("eps^1/2")

    def test_scalar_context_rejects_generators(self):
        with pytest.raises(ParseError, match="scalar"):
            parse_coefficient("W{Tr[x1]}", MATRIX)


class TestRendering:
    def test_product_golden(self):
        out = product(series_of((1,)), series_of((1,), prefix="y"))
        assert render_series(out) == "1*W{Tr[x1] Tr[y1]} + hbar*g*W{}"

    def test_unit_series(self):
        assert render_series(Series.unit(MATRIX)) == "1*W{}"

    def test_multi_monomial_coefficients_are_grouped(self):
        s = Series.unit(MATRIX).scale(ONE + Coefficient.eps())
        assert render_series(s) == "(1 + eps)*W{}"

    def test_negative_leading_coefficient(self):
        s = -series_of((1,))
        assert render_series(s) == "-1*W{Tr[x1]}"

    def test_rendering_orders_by_eps_degree(self):
        out = transport(series_of((2,)))
        assert render_series(out) == "eps^-1*hbar*F*W{} + 1*W{Tr[x1 x2]}"


MODES = [MATRIX, KERNEL, Mode("matrix", 2), Mode("kernel", 3)]


@pytest.mark.parametrize("mode", MODES, ids=["matrix", "kernel", "mat2", "ker3"])
def test_text_round_trip(mode):
    rng = random.Random(99)
    for _ in range(40):
        s = random_series(rng, mode)
        assert parse_series(render_series(s), mode) == s


@pytest.mark.parametrize("mode", MODES, ids=["matrix", "kernel", "mat2", "ker3"])
def test_json_round_trip(mode):
    rng = random.Random(7)
    for _ in range(25):
        s = random_series(rng, mode)
        blob = series_to_json(s)
        assert series_from_json(blob) == s
        assert series_to_json(series_from_json(blob)) == blob


def test_json_keeps_flags_and_version():
    s = transport(series_of((2,)))
    blob = series_to_json(s)
    doc = json.loads(blob)
    assert doc["version"] == "1"
    assert "negative-eps" in doc["flags"]
    assert series_from_json(blob).flags == s.flags


def test_json_rejects_unknown_versions():
    blob = series_to_json(series_of((1,)))
    doc = json.loads(blob)
    doc["version"] = "2"
    with pytest.raises(ValueError, match="version"):
        series_from_json(json.dumps(doc))


def test_engine_outputs_round_trip_through_text():
    out = product(series_of((2,)), series_of((2,), prefix="y"))
    assert parse_series(render_series(out), MATRIX) == out
    kern = product(series_of((2,), mode=KERNEL), series_of((2,), "y", KERNEL))
    assert parse_series(render_series(kern), KERNEL) == kern
