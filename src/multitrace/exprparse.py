"""Text and JSON forms of series, with a round-trip parser.

Expression grammar (full EBNF in docs/grammar.ebnf):

    series    := ['-'] term { ('+'|'-') term }
    term      := factor { '*' factor }
    factor    := atom [ '^' ['-'] integer ]
    atom      := rational | symbol | generator | '(' series ')'
    symbol    := ident [ '(' slotref ',' slotref ')' ]
    generator := 'W' '{' { 'Tr' '[' slot { slot } ']' } '}'
    slot      := ['~'] ident ['@' integer]
    slotref   := ['~'] ident

``eps``, ``hbar`` and ``s<digits>`` are reserved idents for the two
grading variables and the block ratios; any other ident is a kernel
symbol, bare (``g``, ``F``) or applied to two possibly conjugated slot
labels (``K(x1,~y2)``).  A term is evaluated as one rational times one
monomial (eps half-units, hbar, block ratios and kernels, a power adding
to an exponent) times any parenthesized scalar sums, on at most one
generator-bearing factor: ``W{}`` is the scalar 1, and contracting two
generator series is the product engine's job, not the parser's.

The JSON codec (version "1") is lossless and canonical: terms arrive
sorted, field order is fixed, rationals are strings, so serializing
the same series twice yields identical bytes.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, NamedTuple

from .coeffring import (Coefficient, CoefficientError, KernelSymbol, Monomial, ONE, SlotRef,
                        Texts, ZERO, monomial_texts, render_sum, render_term, render_terms)
from .observables import (Generator, Mode, ObservableError, Series, Slot, TraceWord,
                          UNIT_GENERATOR, make_generator)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line} column {column}: {message}")
        self.line = line
        self.column = column


class Token(NamedTuple):
    kind: str  # "num", "ident", "punct", "end"
    text: str
    line: int
    column: int


# one alternative per token kind, then any other character; blanks and comments give no token
_TOKEN_RE = re.compile(r"(?P<newline>\n)|[^\S\n]+|#[^\n]*|(?P<num>\d+(?:/\d+)?)|(?P<ident>[A-Za-z_]"
                       r"[A-Za-z0-9_]*)|(?P<punct>[~@+\-*^(),{}\[\]=])|(?P<bad>.)")
_RESERVED_BLOCK = re.compile(r"s\d+\Z")
_LOG10_2 = math.log10(2)


def _over_digit_limit(value: int, exponent: int, limit: int) -> bool:
    """Whether ``value ** exponent`` (exponent >= 0) has more than ``limit``
    decimal digits, judged from the bit length before any power is taken.
    """
    bits = value.bit_length()
    if exponent * (bits - 1) * _LOG10_2 > limit + 1:   # at least 2^(e(bits-1))
        return True
    if exponent * bits * _LOG10_2 < limit - 1:         # below 2^(e*bits)
        return False
    return value ** exponent >= 10 ** limit   # near the limit: about limit digits


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {m[0]!r}", line, m.start() - line_start + 1)
        elif kind:
            tokens.append(Token(kind, m[0], line, m.start() - line_start + 1))
    tokens.append(Token("end", "", line, len(text) - line_start + 1))
    return tokens


def _is_scalar(series: Series) -> bool:
    return all(gen == UNIT_GENERATOR for gen, _ in series.terms)


class Parser:
    """Cursor over a token list; sub-parsers leave trailing tokens alone."""

    def __init__(self, tokens: list[Token], mode: Mode) -> None:
        self.tokens = tokens
        self.mode = mode
        self.pos = 0
        # one Slot value (and so one key tuple) per distinct slot of the text
        self.slots: dict[tuple[str, bool, int | None], Slot] = {}

    # -- cursor helpers ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]  # look ahead only from before the end token

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            got = tok.text or "end of input"
            raise ParseError(f"expected {want!r}, found {got!r}", tok.line, tok.column)
        return self.advance()

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    def at_punct(self, text: str) -> bool:
        # a punctuation character is a token of its own kind
        return self.tokens[self.pos].text == text

    def done(self) -> bool:
        return self.peek().kind == "end"

    # -- grammar -------------------------------------------------------------

    def parse_series(self) -> Series:
        """Signed terms, merged once at the end (linear in the term count)."""
        entries: list[tuple[Generator, Coefficient]] = []
        negate = self.at_punct("-") and bool(self.advance())
        while True:
            entries.extend(self.parse_term(negate))
            if not (self.at_punct("+") or self.at_punct("-")):
                return Series.build(self.mode, entries)
            negate = self.advance().text == "-"

    def parse_term(self, negate: bool) -> list[tuple[Generator, Coefficient]]:
        """A term's entries, evaluated as the module docstring says."""
        q = Fraction(-1 if negate else 1)
        mono: dict = {"eps_half": 0, "hbar": 0, "s": [], "kernels": []}
        scalars, bearing, star = [], None, None
        while True:
            start = self.peek()
            kind, value = self.parse_factor()
            if kind == "q":
                q *= value
                _guard_digits((q,), 1, start, "product of rationals")
            elif kind in ("eps_half", "hbar"):
                mono[kind] += value
            elif kind in ("s", "kernels"):
                mono[kind].append(value)
            elif kind == "scalar":
                scalars.append((value, start))
            elif bearing is None or not all(value for value, _ in scalars):
                bearing = value  # a term that is zero so far is scalar
            else:
                raise ParseError("cannot multiply two generator series here; that contraction "
                                 "needs the product engine", star.line, star.column)
            if not self.at_punct("*"):
                break
            star = self.advance()
        if not all(value for value, _ in scalars):
            return []
        coeff = Coefficient(((Monomial(**mono), q),))
        for value, start in scalars:
            coeff = value * coeff
            _guard_digits((r for _, r in coeff.terms), 1, start, "product of rationals")
        return [(gen, coeff if c is ONE else c * coeff)
                for gen, c in bearing or ((UNIT_GENERATOR, ONE),)]

    def parse_factor(self) -> tuple[str, object]:
        """An atom to its power, tagged with the part of a term it enters."""
        start = self.peek()
        kind, base = self.parse_atom()
        exponent = 1
        if self.at_punct("^"):
            caret = self.advance()
            sign = -1 if self.at_punct("-") and self.advance() else 1
            tok = self.expect("num")
            if "/" in tok.text:
                raise ParseError("exponents must be integers", tok.line, tok.column)
            exponent = sign * int(tok.text)
            if kind == "bearing" and exponent != 1:
                raise ParseError("exponents on generator series are not supported",
                                 caret.line, caret.column)
            try:
                if exponent < 0 and kind in ("hbar", "s", "kernels"):
                    raise CoefficientError("negative powers are only supported on "
                                           "rationals and eps")
                if kind == "scalar":
                    if len(base.terms) == 1:   # q^|e| exactly: judged before the power
                        _guard_digits((base.terms[0][1],), abs(exponent), start, "scalar power")
                    base = base.power(exponent)
                    _guard_digits((r for _, r in base.terms), 1, start, "scalar power")
            except CoefficientError as exc:
                raise ParseError(str(exc), caret.line, caret.column) from None
        if kind == "q":
            if abs(exponent) > 1:
                _guard_digits((base,), abs(exponent), start, "rational literal")
            return kind, base ** exponent
        if kind in ("s", "kernels"):
            return kind, (base, exponent)
        return kind, base * exponent if kind in ("eps_half", "hbar") else base

    def parse_atom(self) -> tuple[str, object]:
        tok = self.peek()
        if tok.kind == "num":
            q = self.parse_rational()
            return ("q", q) if q else ("scalar", ZERO)  # a zero makes its term scalar
        if self.at_punct("("):
            self.advance()
            inner = self.parse_series()
            self.expect("punct", ")")
            if _is_scalar(inner):
                return "scalar", inner.coefficient(UNIT_GENERATOR)
            return "bearing", inner.terms
        if tok.kind == "ident":
            if tok.text == "W" and self.peek(1).kind == "punct" and self.peek(1).text == "{":
                gen = self.parse_generator()  # W{} is the scalar 1
                return ("q", Fraction(1)) if gen == UNIT_GENERATOR else ("bearing", ((gen, ONE),))
            return self.parse_symbol()
        raise self.fail(f"expected a number, symbol, W{{...}} or parenthesis, "
                        f"found {tok.text or 'end of input'!r}")

    def parse_rational(self) -> Fraction:
        tok = self.expect("num")
        try:
            return Fraction(tok.text)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {tok.text}", tok.line, tok.column) from None
        except ValueError:   # the token is digits, so a part is over the digit limit
            raise ParseError(_too_long(_int_digit_limit()), tok.line, tok.column) from None

    def parse_symbol(self) -> tuple[str, object]:
        tok = self.expect("ident")
        name = tok.text
        if name == "eps":
            return "eps_half", 2
        if name == "hbar":
            return "hbar", 1
        if name == "Tr":
            raise ParseError("trace words only appear inside W{...}",
                             tok.line, tok.column)
        if _RESERVED_BLOCK.match(name):
            color = int(name[1:])
            if not self.mode.colored:
                raise ParseError(f"block ratio {name} in an uncolored mode",
                                 tok.line, tok.column)
            if not (1 <= color <= self.mode.colors):
                raise ParseError(f"block ratio {name} outside 1..{self.mode.colors}",
                                 tok.line, tok.column)
            return "s", color
        args: tuple[SlotRef, ...] = ()
        if self.at_punct("("):
            self.advance()
            first = self.parse_slot_ref()
            self.expect("punct", ",")
            second = self.parse_slot_ref()
            self.expect("punct", ")")
            args = (first, second)
        try:
            return "kernels", KernelSymbol(name, args)
        except CoefficientError as exc:
            raise ParseError(str(exc), tok.line, tok.column) from None

    def parse_slot_ref(self) -> SlotRef:
        conjugated = False
        if self.at_punct("~"):
            self.advance()
            conjugated = True
        tok = self.expect("ident")
        return (tok.text, conjugated)

    def parse_generator(self) -> Generator:
        start = self.expect("ident", "W")
        self.expect("punct", "{")
        words: list[list[Slot]] = []
        while not self.at_punct("}"):
            words.append(self.parse_trace())
        self.expect("punct", "}")
        labels = [s.label for word in words for s in word]
        if len(labels) != len(set(labels)):
            raise ParseError("slot labels must be distinct within one generator",
                             start.line, start.column)
        try:
            return make_generator(words, self.mode)
        except ObservableError as exc:
            raise ParseError(str(exc), start.line, start.column) from None

    def parse_trace(self) -> list[Slot]:
        self.expect("ident", "Tr")
        self.expect("punct", "[")
        if self.at_punct("]"):
            raise self.fail("empty trace")
        slots = [self.parse_slot()]
        while not self.at_punct("]"):
            slots.append(self.parse_slot())
        self.expect("punct", "]")
        return slots

    def parse_slot(self) -> Slot:
        conjugated = False
        if self.at_punct("~"):
            self.advance()
            conjugated = True
        tok = self.expect("ident")
        color: int | None = None
        if self.at_punct("@"):
            self.advance()
            num = self.expect("num")
            if "/" in num.text:
                raise ParseError("colors are integers", num.line, num.column)
            color = int(num.text)
        slot = self.slots.get((tok.text, conjugated, color))
        if slot is None:
            try:
                slot = self.slots[tok.text, conjugated, color] = Slot(tok.text, conjugated, color)
            except ObservableError as exc:
                raise ParseError(str(exc), tok.line, tok.column) from None
        return slot


def _int_digit_limit() -> int:
    """The interpreter's int/str conversion limit in digits; 0 means none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _too_long(limit: int, what: str = "rational literal") -> str:
    return (f"{what} too large: a numerator or denominator over {limit} digits "
            "(the int/str limit, see sys.set_int_max_str_digits)")


def _guard_digits(values: Iterable[Fraction], exponent: int, at: Token, what: str) -> None:
    """Refuse, at token ``at``, a rational whose ``exponent``-th power would
    have a numerator or denominator over the int/str digit limit: such a
    value could not be rendered, so it is caught before any engine work."""
    limit = _int_digit_limit()
    if limit and any(_over_digit_limit(abs(part), exponent, limit)
                     for q in values for part in (q.numerator, q.denominator)):
        raise ParseError(_too_long(limit, what), at.line, at.column)


def parse_series(text: str, mode: Mode) -> Series:
    parser = Parser(tokenize(text), mode)
    result = parser.parse_series()
    if not parser.done():
        raise parser.fail(f"trailing input {parser.peek().text!r}")
    return result


def parse_coefficient(text: str, mode: Mode) -> Coefficient:
    series = parse_series(text, mode)
    if not _is_scalar(series):
        raise ParseError("expected a scalar expression, found generators", 1, 1)
    return series.coefficient(UNIT_GENERATOR)


# -- rendering ----------------------------------------------------------------


def render_series(series: Series) -> str:
    """Canonical text; ``parse_series`` inverts it exactly.

    Terms are ordered by their coefficient's least eps degree (its first
    monomial's, since monomials sort by eps first), then larger
    generators first, so the unit lands last within a degree, then by
    generator key.  Each term is rendered once, in the series' own order,
    with texts read from caches that live for this call: each distinct
    monomial (and kernel symbol inside it) and each distinct trace word
    is rendered once.  A monomial with an odd eps half-unit raises there,
    at the first in the series' order.

    The text form needs distinct slot labels within each generator, so a
    generator that repeats one (say, after ``forget_labels``) is refused.
    """
    if series.is_zero():
        return "0"
    monomials, traces = monomial_texts(), Texts(TraceWord.render)
    rows, repeats = [], []
    for gen, coeff in series.terms:
        terms = coeff.terms
        if len(terms) == 1:
            mono, q = terms[0]
            piece = render_term(monomials[mono], q)
        else:
            piece = "+ (" + render_terms(terms, monomials) + ")"
        labels = gen.labels()
        key = (terms[0][0].eps_half >> 1 if terms else 0, -len(labels), gen._key)
        rows.append((key, piece + "*" + gen.render_with(traces.__getitem__)))
        if len(set(labels)) != len(labels):
            repeats.append((key, gen, labels))
    if repeats:
        _, gen, labels = min(repeats, key=itemgetter(0))
        repeated = next(lab for lab in labels if labels.count(lab) > 1)
        raise ValueError(f"slot label {repeated!r} repeats in {gen.render()}: the text "
                         "form needs distinct labels within a generator; use the JSON form")
    rows.sort(key=itemgetter(0))
    return render_sum([piece for _, piece in rows])


# -- JSON codec ----------------------------------------------------------------

JSON_VERSION = "1"


def _mono_to_obj(mono: Monomial, q: Fraction) -> dict:
    return {
        "rational": str(q),
        "eps_half": mono.eps_half,
        "hbar": mono.hbar,
        "s": [[color, power] for color, power in mono.s],
        "kernels": [
            {"name": sym.name,
             "args": [[label, conjugated] for label, conjugated in sym.args],
             "pow": power}
            for sym, power in mono.kernels
        ],
    }


def _typed(value, kind: type):
    if type(value) is not kind:   # exactly: a JSON boolean is no integer
        raise ValueError(f"malformed series document: {value!r} is not a JSON {kind.__name__}")
    return value


def _mono_from_obj(obj: dict) -> tuple[Monomial, Fraction]:
    kernels = tuple(
        (KernelSymbol(k["name"], tuple((label, _typed(conj, bool)) for label, conj in k["args"])),
         _typed(k["pow"], int))
        for k in obj["kernels"])
    mono = Monomial(eps_half=_typed(obj["eps_half"], int), hbar=_typed(obj["hbar"], int),
                    s=tuple((_typed(c, int), _typed(p, int)) for c, p in obj["s"]),
                    kernels=kernels)
    return mono, Fraction(obj["rational"])


def series_to_json(series: Series) -> str:
    doc = {
        "version": JSON_VERSION,
        "mode": {"kind": series.mode.kind, "colors": series.mode.colors},
        "flags": sorted(series.flags),
        "terms": [
            {
                "coeff": [_mono_to_obj(mono, q) for mono, q in coeff.terms],
                "generator": [
                    [{"label": s.label, "conjugated": s.conjugated, "color": s.color}
                     for s in trace.slots]
                    for trace in gen.traces
                ],
            }
            for gen, coeff in series.terms
        ],
    }
    return json.dumps(doc, indent=1)


def series_from_json(text: str) -> Series:
    """Decode ``series_to_json`` output; a malformed document is a ``ValueError``."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("a series document must be a JSON object")
    version = doc.get("version")
    if version != JSON_VERSION:
        raise ValueError(f"unsupported series format version {version!r}")
    try:
        mode = Mode(doc["mode"]["kind"], _typed(doc["mode"]["colors"], int))
        entries = []
        for term in doc["terms"]:
            gen = make_generator([[Slot(s["label"], _typed(s["conjugated"], bool),
                                        None if s["color"] is None else _typed(s["color"], int))
                                   for s in trace] for trace in term["generator"]], mode)
            coeff = Coefficient.build(_mono_from_obj(obj) for obj in term["coeff"])
            entries.append((gen, coeff))
        flags = _typed(doc.get("flags", []), list)
        return Series.build(mode, entries, [_typed(flag, str) for flag in flags])
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed series document: {exc!r}") from exc
