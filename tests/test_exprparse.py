"""Text and JSON forms: parsing, printing, and their round trips."""

import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multitrace import (
    Coefficient,
    KERNEL,
    KernelSymbol,
    MATRIX,
    Mode,
    Monomial,
    ONE,
    ParseError,
    Series,
    Slot,
    connected_product,
    forget_labels,
    make_generator,
    parse_coefficient,
    parse_series,
    product,
    product_chain,
    render_series,
    series_from_json,
    series_to_json,
    transport,
)
from multitrace.exprparse import token_kind, token_position, tokenize

from helpers import MODES as DRAWN_MODES
from helpers import (expression_texts, generators, random_series, rational_value,
                     reference_parse_series, reference_render_coefficient,
                     reference_render_series, reference_tokenize, rendered_series, scalars,
                     series_of)


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
        got = parse_series("W{Tr[x1\u2003x2]}\n\t+\xa0eps*W{}", MATRIX)
        assert got == parse_series("W{Tr[x1 x2]} + eps*W{}", MATRIX)

    def test_tokens_carry_lines_and_columns(self):
        text = "eps # c\n  3/2*W{}"
        tokens = tokenize(text)
        got = [(token_kind(t), t, *token_position(text, i)) for i, t in enumerate(tokens)]
        assert got == [("ident", "eps", 1, 1), ("num", "3/2", 2, 3), ("punct", "*", 2, 6),
                       ("ident", "W", 2, 7), ("punct", "{", 2, 8), ("punct", "}", 2, 9),
                       ("end", "", 2, 10)]
        assert all(type(t) is str for t in tokens)
        assert tokenize("") == [""] and token_position("", 0) == (1, 1)


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

    def test_negative_power_of_zero(self):
        # zero is refused by name, not as a coefficient of several terms
        for text in ("0^-1", "(0*eps)^-2", "(eps - eps)^-1*W{Tr[x1]}"):
            assert "zero is not invertible" in self.err(text)
        assert "single-term" in self.err("(1 + eps)^-1")

    def test_positions_are_reported(self):
        for text, line, column, char in [
            ("1 + $", 1, 5, "$"),
            ("1*W{}\n  + eps*W{Tr[x1]}\n\t+ $", 3, 4, "$"),
            ("# a comment\n1 +\xa0\u2003&", 2, 6, "&"),  # unicode blanks count one column
            ("W{Tr[x1 \u00e9]}", 1, 9, "\u00e9"),
        ]:
            with pytest.raises(ParseError) as info:
                parse_series(text, MATRIX)
            assert str(info.value) == f"line {line} column {column}: unexpected character {char!r}"

    @pytest.mark.parametrize("text, mode, message", [
        ("W{Tr[x1 x2]", MATRIX, "line 1 column 12: expected 'Tr', found 'end of input'"),
        ("1 +", MATRIX, "line 1 column 4: expected a number, symbol, W{...} or parenthesis, "
                        "found 'end of input'"),
        ("_g*W{}", MATRIX, "line 1 column 1: bad kernel symbol name '_g'"),
        ("W{Tr[x1@0]}", Mode("matrix", 2), "line 1 column 6: slot colors start at 1"),
        ("W{Tr[x1@1/2]}", Mode("matrix", 2), "line 1 column 9: colors are integers"),
    ])
    def test_grammar_errors_name_their_position(self, text, mode, message):
        assert self.err(text, mode) == message

    @pytest.mark.parametrize("text, column", [
        ("2^20000*W{Tr[x1]}", 1),
        ("eps + 2^99999999", 7),      # refused from the bit length, before any power
        ("1/3^-99999", 1),            # a negative power: 3^99999 becomes the numerator
        ("10^4300", 1),               # 4,301 digits, one over the default limit
        ("1" * 4301 + "*W{}", 1),
        ("1/" + "7" * 4301, 1),
    ])
    def test_oversized_rational_literals(self, text, column):
        with pytest.raises(ParseError) as info:
            parse_series(text, MATRIX)
        assert (info.value.line, info.value.column) == (1, column)
        assert "over 4300 digits" in str(info.value)

    @pytest.mark.parametrize("text, column, what", [
        ("2^14000*2^14000*W{Tr[x1]}", 9, "product of rationals"),   # 4,215 digits each
        ("eps*3^9000*(1/3)^0*5^4000", 20, "product of rationals"),
        ("(2)^14000*(2)^14000*W{}", 11, "product of rationals"),
        ("2^14000*(2)^14000", 9, "product of rationals"),
        ("(2)^20000*W{Tr[x1]}", 1, "scalar power"),
        ("1 + (2/3)^-99999999", 5, "scalar power"),   # refused before the power
        ("(10^2200 + eps)^2", 1, "scalar power"),       # two terms: judged after the power
    ])
    def test_oversized_built_up_rationals(self, text, column, what):
        with pytest.raises(ParseError) as info:
            parse_series(text, MATRIX)
        assert (info.value.line, info.value.column) == (1, column)
        assert f"{what} too large" in str(info.value) and "over 4300 digits" in str(info.value)

    def test_built_up_rationals_at_the_digit_limit_parse(self):
        assert parse_series("2^7000*2^7000", MATRIX) == parse_series("2^14000", MATRIX)
        assert parse_series("(2)^14000*(1/2)^14000", MATRIX) == parse_series("1", MATRIX)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)   # no limit
        try:
            assert rational_value(parse_coefficient("(2)^20000*2^20000", MATRIX)) \
                == 2 ** 40000
        finally:
            sys.set_int_max_str_digits(limit)

    def test_rational_literals_at_the_digit_limit_parse(self):
        assert parse_series("10^4299", MATRIX) == parse_series(str(10 ** 4299), MATRIX)
        assert parse_series("(1/2)^14284", MATRIX) == parse_series("1/2^14284", MATRIX)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)   # no limit
        try:
            assert rational_value(parse_coefficient("2^20000", MATRIX)) == 2 ** 20000
        finally:
            sys.set_int_max_str_digits(limit)

    def test_zero_denominators(self):
        with pytest.raises(ParseError) as info:
            parse_series("eps + 3*W{}\n - 2/0*W{Tr[x1]}", MATRIX)
        assert (str(info.value), info.value.line, info.value.column) == \
            ("line 2 column 4: zero denominator in 2/0", 2, 4)

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

    def test_repeated_labels_are_refused(self):
        # the parser would reject the text, so the renderer does not write it
        folded = forget_labels(series_of((1, 1)))
        with pytest.raises(ValueError, match="'x' repeats in W{Tr\\[x\\] Tr\\[x\\]}.*JSON"):
            render_series(folded)
        assert series_from_json(series_to_json(folded)) == folded


def _outcome(render, value):
    """The text, or the type and message of the ``ValueError`` raised."""
    try:
        return render(value)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), mode=st.sampled_from(DRAWN_MODES))
def test_rendering_matches_the_uncached_reference(data, mode):
    series = data.draw(rendered_series(mode))
    assert _outcome(render_series, series) == _outcome(reference_render_series, series)
    for _, coeff in series.terms:
        assert _outcome(Coefficient.render, coeff) \
            == _outcome(reference_render_coefficient, coeff)


def test_rendering_matches_the_reference_on_each_feature():
    k = KernelSymbol("K", (("x1", False), ("y1", True)))
    coeff = (Coefficient.kernel(k, 2) * Coefficient.block_ratio(1) * Coefficient.hbar()
             ).scale(Fraction(-3, 2)) + Coefficient.eps(-1).scale(Fraction(2, 5)) - ONE
    gen = make_generator([[Slot("x1"), Slot("x2")]], MATRIX)
    twice = make_generator([[Slot("x1"), Slot("x1")]], MATRIX)
    cases = [
        Series.zero(MATRIX),
        Series.unit(MATRIX).scale(coeff),                  # multi-term, on the unit
        Series.of(gen, MATRIX, coeff.scale(-1)) + Series.unit(MATRIX).scale(-ONE),
        Series.of(gen, MATRIX, Coefficient.monomial(Monomial(eps_half=2), Fraction(-7, 3))),
        Series.of(twice, MATRIX) + Series.of(gen, MATRIX),  # a repeated label
        Series.of(gen, MATRIX, Coefficient.monomial(Monomial(eps_half=3))),  # half-unit
    ]
    for series in cases:
        assert _outcome(render_series, series) == _outcome(reference_render_series, series)
    assert render_series(cases[1]) == "(2/5*eps^-1 - 1 - 3/2*hbar*s1*K(x1,~y1)^2)*W{}"
    assert render_series(cases[2]) == ("(-2/5*eps^-1 + 1 + 3/2*hbar*s1*K(x1,~y1)^2)*W{Tr[x1 x2]}"
                                       " - 1*W{}")
    assert coeff.render() == reference_render_coefficient(coeff)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), mode=st.sampled_from(DRAWN_MODES))
def test_series_hold_their_terms_in_generator_key_order(data, mode):
    # render_series sorts its rows stably on (eps degree, -size) only, so
    # every series must come with its terms in generator-key order
    a, b, c = (Series.build(mode, data.draw(st.lists(st.tuples(generators(mode, prefix, 3),
                                                                scalars), max_size=2)))
               for prefix in "xyz")
    made = [a, product(a, b), transport(a), product_chain([a, b, c]),
            connected_product([a, b, c])]
    made += [parse_series(render_series(series), mode) for series in made]
    made += [series_from_json(series_to_json(series)) for series in made]
    for series in made:
        keys = [gen.key() for gen, _ in series.terms]
        assert keys == sorted(set(keys))


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


def _json_doc(colors=0, slot=None, coeff=(), flags=()):
    slot = {"label": "x1", "conjugated": False, "color": None} if slot is None else slot
    flags = list(flags) if isinstance(flags, tuple) else flags
    return json.dumps({"version": "1", "mode": {"kind": "matrix", "colors": colors},
                       "flags": flags, "terms": [{"coeff": list(coeff), "generator": [[slot]]}]})


_COLORED_SLOT = {"label": "x1", "conjugated": True, "color": 1}


def _json_mono(**fields):
    return {"rational": "1", "eps_half": 0, "hbar": 0, "s": [], "kernels": [], **fields}


def _json_kernel(conjugated=False, power=1, label="x1"):
    return [{"name": "K", "args": [[label, conjugated], ["y1", False]], "pow": power}]


def test_json_documents_of_these_fields_decode():
    # the rows below each break one field of a document that decodes
    for text in (_json_doc(flags=("truncated",), coeff=[_json_mono(eps_half=2, hbar=1)]),
                 _json_doc(coeff=[_json_mono(kernels=_json_kernel(True, 2))]),
                 _json_doc(colors=1, slot=_COLORED_SLOT, coeff=[_json_mono(s=[[1, 2]])])):
        assert series_from_json(text).terms


@pytest.mark.parametrize("text", [
    "[]",
    '{"version": "1"}',
    _json_doc(slot={"label": "x1", "conjugated": False}),
    _json_doc(colors=0, slot={"label": "x1", "conjugated": False, "color": 2}),
    _json_doc(coeff=[{"rational": "1/0", "eps_half": 0, "hbar": 0, "s": [], "kernels": []}]),
    _json_doc(flags="truncated"),
    _json_doc(flags=["truncated", 1]),
    _json_doc(slot={"label": "x1", "conjugated": "false", "color": None}),
    _json_doc(slot={"label": "x1", "conjugated": 0, "color": None}),
    _json_doc(coeff=[_json_mono(kernels=_json_kernel(conjugated="true"))]),
    _json_doc(coeff=[_json_mono(eps_half=2.5)]),
    _json_doc(coeff=[_json_mono(hbar="1")]),
    _json_doc(coeff=[_json_mono(hbar=True)]),
    _json_doc(colors=1, slot=_COLORED_SLOT, coeff=[_json_mono(s=[[1, 2.0]])]),
    _json_doc(colors=1, slot=_COLORED_SLOT, coeff=[_json_mono(s=[[True, 2]])]),
    _json_doc(coeff=[_json_mono(kernels=_json_kernel(power="1"))]),
    _json_doc(colors="1", slot=_COLORED_SLOT),
    _json_doc(colors=1, slot={"label": "x1", "conjugated": False, "color": True}),
    # labels whose text form would not parse back as the same series
    _json_doc(slot={"label": "x y", "conjugated": False, "color": None}),
    _json_doc(slot={"label": "x-1", "conjugated": False, "color": None}),
    _json_doc(slot={"label": "\u00e9", "conjugated": False, "color": None}),
    _json_doc(coeff=[_json_mono(kernels=_json_kernel(label=5))]),
    _json_doc(coeff=[_json_mono(kernels=_json_kernel(label=""))]),
    _json_doc(coeff=[_json_mono(kernels=_json_kernel(label="1x"))]),
    _json_doc(coeff=[_json_mono(kernels=_json_kernel(label="x y"))]),
    _json_doc(coeff=[_json_mono(kernels=_json_kernel(label=None))]),
    _json_doc(coeff=[_json_mono(kernels=[{"name": "g h", "args": [], "pow": 1}])]),
], ids=["not-an-object", "no-mode", "slot-without-color", "color-outside-the-mode",
        "zero-denominator", "flags-a-string", "flag-not-a-string", "conjugated-a-string",
        "conjugated-an-int", "kernel-conjugated-a-string", "eps-half-a-float", "hbar-a-string",
        "hbar-a-bool", "block-power-a-float", "block-color-a-bool", "kernel-power-a-string",
        "colors-a-string", "slot-color-a-bool", "slot-label-with-a-space",
        "slot-label-with-a-dash", "slot-label-not-ascii", "kernel-label-a-number",
        "kernel-label-empty", "kernel-label-a-leading-digit", "kernel-label-with-a-space",
        "kernel-label-null", "kernel-name-with-a-space"])
def test_json_rejects_malformed_documents(text):
    with pytest.raises(ValueError):
        series_from_json(text)


def test_json_keeps_half_units_and_repeated_labels():
    s = forget_labels(series_of((1, 1))).scale(Coefficient.monomial(Monomial(eps_half=1)))
    assert [slot.label for slot in s.terms[0][0].traces[1].slots] == ["x"]
    blob = series_to_json(s)
    assert series_from_json(blob) == s
    assert series_to_json(series_from_json(blob)) == blob


def test_engine_outputs_round_trip_through_text():
    # the largest are the 727 terms of a (5)x(5) product and the 122 of a kernel (4)x(4)
    for shape, mode, size in [((2,), MATRIX, 6), ((5,), MATRIX, 727),
                              ((2,), KERNEL, 6), ((4,), KERNEL, 122)]:
        out = product(series_of(shape, mode=mode), series_of(shape, "y", mode))
        assert len(out.terms) == size
        assert parse_series(render_series(out), mode) == out


def _parse_outcome(parse, text, mode):
    try:
        return parse(text, mode)
    except ParseError as exc:
        return str(exc), exc.line, exc.column


@pytest.mark.parametrize("mode", MODES, ids=["matrix", "kernel", "mat2", "ker3"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parser_matches_the_series_reference(mode, data):
    text = data.draw(expression_texts(mode), label="text")
    assert _parse_outcome(parse_series, text, mode) == \
        _parse_outcome(reference_parse_series, text, mode)


@pytest.mark.parametrize("text", [
    "W{}^2*W{Tr[x1]} + W{}*W{Tr[y1]} + W{}^-3",
    "(W{} + 1)*W{Tr[x1]}*2",
    "(W{Tr[x1]} - W{Tr[x1]})*W{Tr[y1]}",
    "(W{Tr[x1]} + eps - W{Tr[x1]})^-1*W{Tr[y1]}",
    "0*W{Tr[x1]}*W{Tr[y1]} + W{Tr[x1]}*0^2*W{Tr[y1]}",
    "W{Tr[x1]}*W{Tr[y1]}*0",
    "(1 - 1)*hbar*W{Tr[x1]}*W{Tr[y1]}",
    "0^0*W{Tr[x1]}^1*(2*eps)^-2*hbar^0*g^0",
    "0^-1", "(1 + eps)^-1", "g^-2", "W{Tr[x1]}^0", "W{Tr[x1]}^-1",
    "-(1 + eps)^3*W{Tr[x1]} + (eps*W{Tr[x1]} + W{Tr[y1]})*2*eps*g*g^2",
])
def test_term_rules_match_the_series_reference(text):
    # W{} is the scalar 1, and a term that is zero so far (a zero factor, or
    # a parenthesized sum that cancels) may take one more generator factor
    for mode in (MATRIX, KERNEL):
        assert _parse_outcome(parse_series, text, mode) == \
            _parse_outcome(reference_parse_series, text, mode)


def test_symbol_powers_build_one_monomial(monkeypatch):
    calls = []
    multiply = Coefficient.__mul__

    def counting(self, other):
        calls.append(other)
        assert len(calls) <= 1, "a power multiplied coefficients repeatedly"
        return multiply(self, other)

    monkeypatch.setattr(Coefficient, "__mul__", counting)
    got = parse_coefficient("eps^1000000*hbar^1000000*g^3", MATRIX)
    want = Monomial(eps_half=2000000, hbar=1000000, kernels=((KernelSymbol("g"), 3),))
    assert got == Coefficient.monomial(want)


# what may stand between two tokens; "" can join two tokens into one
_BETWEEN = ("", "", " ", "  ", "\t", "\n", "\r\n", "\u2003", " # a comment\n",
            "#\r\n", "\n\n  ")


@st.composite
def spaced_texts(draw, mode):
    """A grammar text, its tokens spaced with drawn blanks, line ends and
    comments, perhaps one comment at the end, and perhaps one corruption:
    a '$' or an 'é' put in, or a ']' dropped."""
    text = draw(expression_texts(mode))
    tokens = [t.text for t in reference_tokenize(text)][:-1]
    text = draw(st.sampled_from(_BETWEEN))
    for token in tokens:
        text += token + draw(st.sampled_from(_BETWEEN))
    if draw(st.booleans()):
        text += "# the end"
    corruption = draw(st.sampled_from(["none", "none", "$", "\u00e9", "drop ]"]))
    if corruption == "drop ]" and "]" in text:
        at = draw(st.sampled_from([i for i, c in enumerate(text) if c == "]"]))
        text = text[:at] + text[at + 1:]
    elif corruption in ("$", "\u00e9"):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + corruption + text[at:]
    return text


def _tokens_outcome(tokens_of, text):
    try:
        return tokens_of(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.column


def _placed_tokens(text):
    """Each token text of ``tokenize`` with its position, the end sentinel's last."""
    return [(t, *token_position(text, i)) for i, t in enumerate(tokenize(text))]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), mode=st.sampled_from(DRAWN_MODES))
def test_token_texts_and_positions_match_the_reference_tokenizer(data, mode):
    # the tokenizer keeps texts only; a position is worked out again from the
    # text, and must be where the scanning reference counted it
    text = data.draw(spaced_texts(mode), label="text")
    want = _tokens_outcome(lambda t: [(tok.text, tok.line, tok.column)
                                      for tok in reference_tokenize(t)], text)
    assert _tokens_outcome(_placed_tokens, text) == want
    if isinstance(want, list):
        assert [token_kind(t) for t, _, _ in want] == [tok.kind for tok in reference_tokenize(text)]
    assert _parse_outcome(parse_series, text, mode) == \
        _parse_outcome(reference_parse_series, text, mode)
