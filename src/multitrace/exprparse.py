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
labels (``K(x1,~y2)``).  Multiplication may involve at most one
generator-bearing operand; contracting two generator series is the
product engine's job, not the parser's.

The JSON codec (version "1") is lossless and canonical: terms arrive
sorted, field order is fixed, rationals are strings, so serializing
the same series twice yields identical bytes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .coeffring import Coefficient, CoefficientError, KernelSymbol, Monomial, SlotRef
from .observables import (Generator, Mode, ObservableError, Series, Slot,
                          TraceWord, UNIT_GENERATOR, make_generator)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line} column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Token:
    kind: str  # "num", "ident", "punct", "end"
    text: str
    line: int
    column: int


_PUNCT = set("~@+-*^(),{}[]=")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM_RE = re.compile(r"\d+(?:/\d+)?")
_RESERVED_BLOCK = re.compile(r"s\d+\Z")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch.isspace():
            i += 1
            continue
        col = i - line_start + 1
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        m = _NUM_RE.match(text, i)
        if m:
            tokens.append(Token("num", m.group(), line, col))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(Token("ident", m.group(), line, col))
            i = m.end()
            continue
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, line, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    end_col = len(text) - line_start + 1
    tokens.append(Token("end", "", line, end_col))
    return tokens


def _is_scalar(series: Series) -> bool:
    return all(gen == UNIT_GENERATOR for gen, _ in series.terms)


def _scalar_value(series: Series) -> Coefficient:
    return series.coefficient(UNIT_GENERATOR)


class Parser:
    """Cursor over a token list; sub-parsers leave trailing tokens alone."""

    def __init__(self, tokens: list[Token], mode: Mode) -> None:
        self.tokens = tokens
        self.mode = mode
        self.pos = 0

    # -- cursor helpers ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.peek()
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            got = tok.text or "end of input"
            raise ParseError(f"expected {want!r}, found {got!r}", tok.line, tok.column)
        return self.advance()

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def done(self) -> bool:
        return self.peek().kind == "end"

    # -- grammar -------------------------------------------------------------

    def parse_series(self) -> Series:
        """Signed terms, merged once at the end (linear in the term count)."""
        entries: list[tuple[Generator, Coefficient]] = []
        op = self.advance().text if self.at_punct("-") else "+"
        while True:
            term = self.parse_term()
            entries.extend((g, -c if op == "-" else c) for g, c in term.terms)
            if not (self.at_punct("+") or self.at_punct("-")):
                return Series.build(self.mode, entries)
            op = self.advance().text

    def parse_term(self) -> Series:
        total = self.parse_factor()
        while self.at_punct("*"):
            star = self.peek()
            self.advance()
            factor = self.parse_factor()
            if _is_scalar(factor):
                total = total.scale(_scalar_value(factor))
            elif _is_scalar(total):
                total = factor.scale(_scalar_value(total))
            else:
                raise ParseError(
                    "cannot multiply two generator series here; "
                    "that contraction needs the product engine",
                    star.line, star.column)
        return total

    def parse_factor(self) -> Series:
        base = self.parse_atom()
        if not self.at_punct("^"):
            return base
        caret = self.advance()
        sign = 1
        if self.at_punct("-"):
            self.advance()
            sign = -1
        tok = self.expect("num")
        if "/" in tok.text:
            raise ParseError("exponents must be integers", tok.line, tok.column)
        exponent = sign * int(tok.text)
        if _is_scalar(base):
            try:
                coeff = _scalar_value(base).power(exponent)
            except CoefficientError as exc:
                raise ParseError(str(exc), caret.line, caret.column) from None
            return Series.of(UNIT_GENERATOR, self.mode, coeff)
        if exponent == 1:
            return base
        raise ParseError("exponents on generator series are not supported",
                         caret.line, caret.column)

    def parse_atom(self) -> Series:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Series.of(UNIT_GENERATOR, self.mode,
                             Coefficient.rational(Fraction(tok.text)))
        if self.at_punct("("):
            self.advance()
            inner = self.parse_series()
            self.expect("punct", ")")
            return inner
        if tok.kind == "ident":
            if tok.text == "W" and self.peek(1).kind == "punct" and self.peek(1).text == "{":
                gen = self.parse_generator()
                return Series.of(gen, self.mode)
            return Series.of(UNIT_GENERATOR, self.mode, self.parse_symbol())
        raise self.fail(f"expected a number, symbol, W{{...}} or parenthesis, "
                        f"found {tok.text or 'end of input'!r}")

    def parse_symbol(self) -> Coefficient:
        tok = self.expect("ident")
        name = tok.text
        if name == "eps":
            return Coefficient.eps()
        if name == "hbar":
            return Coefficient.hbar()
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
            return Coefficient.block_ratio(color)
        args: tuple[SlotRef, ...] = ()
        if self.at_punct("("):
            self.advance()
            first = self.parse_slot_ref()
            self.expect("punct", ",")
            second = self.parse_slot_ref()
            self.expect("punct", ")")
            args = (first, second)
        try:
            return Coefficient.kernel(KernelSymbol(name, args))
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
        try:
            return Slot(tok.text, conjugated, color)
        except ObservableError as exc:
            raise ParseError(str(exc), tok.line, tok.column) from None


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
    return _scalar_value(series)


# -- rendering ----------------------------------------------------------------


def render_series(series: Series) -> str:
    """Canonical text; ``parse_series`` inverts it exactly."""
    if series.is_zero():
        return "0"

    def term_sort_key(item):
        gen, coeff = item
        degree = coeff.eps_min_degree()
        # larger generators first within a degree, so the unit lands last
        return (0 if degree is None else degree, -gen.size, gen.key())

    pieces: list[tuple[str, str]] = []
    for gen, coeff in sorted(series.terms, key=term_sort_key):
        if len(coeff.terms) == 1:
            mono, q = coeff.terms[0]
            sign = "-" if q < 0 else "+"
            body = Coefficient.monomial(mono, abs(q)).render()
        else:
            sign = "+"
            body = "(" + coeff.render() + ")"
        pieces.append((sign, f"{body}*{gen.render()}"))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


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


def _mono_from_obj(obj: dict) -> tuple[Monomial, Fraction]:
    kernels = tuple(
        (KernelSymbol(k["name"], tuple((label, bool(conj)) for label, conj in k["args"])),
         int(k["pow"]))
        for k in obj["kernels"])
    mono = Monomial(eps_half=int(obj["eps_half"]), hbar=int(obj["hbar"]),
                    s=tuple((int(c), int(p)) for c, p in obj["s"]),
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
    doc = json.loads(text)
    version = doc.get("version")
    if version != JSON_VERSION:
        raise ValueError(f"unsupported series format version {version!r}")
    mode = Mode(doc["mode"]["kind"], int(doc["mode"]["colors"]))
    entries = []
    for term in doc["terms"]:
        gen = Generator(tuple(
            TraceWord(tuple(Slot(s["label"], bool(s["conjugated"]),
                                 None if s["color"] is None else int(s["color"]))
                            for s in trace))
            for trace in term["generator"]))
        coeff = Coefficient.build(_mono_from_obj(obj) for obj in term["coeff"])
        entries.append((gen, coeff))
    return Series.build(mode, entries, doc.get("flags", ()))
