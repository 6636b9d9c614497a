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

Tokens are texts.  One ``re.findall`` pass gives them, blanks, line
ends and ``#`` comments dropped; a token's kind is read off its first
character, and ``""`` ends the list.  The parser moves an index along
the list.  A token keeps no position: the line and column of an error
are worked out again from the text (``token_position``), so only a
text that fails pays for them.

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
from functools import cache
from operator import itemgetter
from string import ascii_letters
from typing import Iterable

from .coeffring import (IDENTIFIER, Coefficient, CoefficientError, KernelSymbol, Monomial, ONE,
                        SlotRef, ZERO, _collector_paused, monomial_texts, render_sum, render_term,
                        render_terms)
from .observables import (Generator, Mode, ObservableError, Series, Slot, TraceWord,
                          UNIT_GENERATOR, make_generator)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line} column {column}: {message}")
        self.line = line
        self.column = column


# blanks and comments match outside the group, so ``findall`` gives "" for them;
# a character that starts no token takes the rest of the text, so it comes last
_TOKEN_RE = re.compile(rf"\s+|#[^\n]*|(\d+(?:/\d+)?|{IDENTIFIER}|[~@+\-*^(),{{}}\[\]=]|[\s\S]+)")
_IDENT_START = frozenset(ascii_letters + "_")
_PUNCT = frozenset("~@+-*^(),{}[]=")
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


def token_kind(token: str) -> str:
    """A token text's kind, from its first character: "num", "ident",
    "punct", "end" for the empty end sentinel, or "bad"."""
    if not token:
        return "end"
    first = token[0]
    if first.isdecimal():   # what ``\d`` matches
        return "num"
    if first in _IDENT_START:
        return "ident"
    return "punct" if first in _PUNCT else "bad"


def tokenize(text: str) -> list[str]:
    """The token texts of ``text``, then the end sentinel ``""``; a
    character that starts no token is a ``ParseError`` at that character."""
    tokens = list(filter(None, _TOKEN_RE.findall(text)))
    if tokens and token_kind(tokens[-1]) == "bad":
        raise ParseError(f"unexpected character {tokens[-1][0]!r}",
                         *token_position(text, len(tokens) - 1))
    tokens.append("")
    return tokens


def token_position(text: str, index: int) -> tuple[int, int]:
    """The (line, column) where token ``index`` of ``tokenize(text)``
    starts, the end sentinel's at the end of the text: found again from
    the tokenizer's matches, so only an error pays for it.  Only ``\n``
    ends a line, and a column counts characters from 1."""
    start = len(text)
    for match in _TOKEN_RE.finditer(text):
        if match.lastindex:   # a token, not a blank or a comment
            if not index:
                start = match.start()
                break
            index -= 1
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


def _is_scalar(series: Series) -> bool:
    return all(gen == UNIT_GENERATOR for gen, _ in series.terms)


class Parser:
    """Index cursor over the token texts of ``text`` (``tokenize``, or
    ``tokens`` given); sub-parsers leave trailing tokens alone.  A
    position is worked out (``token_position``) only for an error."""

    def __init__(self, text: str, mode: Mode, tokens: list[str] | None = None,
                 pos: int = 0) -> None:
        self.text = text
        self.tokens = tokenize(text) if tokens is None else tokens
        self.mode = mode
        self.pos = pos
        # one Slot value per distinct slot of the text
        self.slots: dict[tuple[str, bool, int | None], Slot] = {}

    # -- cursor helpers ----------------------------------------------------

    def peek(self, ahead: int = 0) -> str:
        return self.tokens[self.pos + ahead]  # look ahead only from before the end token

    def advance(self) -> str:
        tok = self.tokens[self.pos]
        if tok:
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> str:
        tok = self.tokens[self.pos]
        if tok != text if text is not None else token_kind(tok) != kind:
            want = text if text is not None else kind
            raise self.fail(f"expected {want!r}, found {tok or 'end of input'!r}")
        if tok:
            self.pos += 1
        return tok

    def error(self, message: str, at: int) -> ParseError:
        """A ``ParseError`` at token ``at``."""
        return ParseError(message, *token_position(self.text, at))

    def fail(self, message: str) -> ParseError:
        return self.error(message, self.pos)

    def at_punct(self, text: str) -> bool:
        # a punctuation character is a token of its own kind
        return self.tokens[self.pos] == text

    def done(self) -> bool:
        return not self.tokens[self.pos]

    def guard_digits(self, values: Iterable[Fraction], exponent: int, at: int,
                     what: str) -> None:
        """Refuse, at token ``at``, a rational whose ``exponent``-th power
        would have a numerator or denominator over the int/str digit
        limit: such a value could not be rendered, so it is caught before
        any engine work."""
        limit = _int_digit_limit()
        if limit and any(_over_digit_limit(abs(part), exponent, limit)
                         for q in values for part in (q.numerator, q.denominator)):
            raise self.error(_too_long(limit, what), at)

    # -- grammar -------------------------------------------------------------

    def parse_series(self) -> Series:
        """Signed terms, merged once at the end (linear in the term count)."""
        entries: list[tuple[Generator, Coefficient]] = []
        negate = self.at_punct("-") and bool(self.advance())
        while True:
            entries.extend(self.parse_term(negate))
            if not (self.at_punct("+") or self.at_punct("-")):
                return Series.build(self.mode, entries)
            negate = self.advance() == "-"

    def parse_term(self, negate: bool) -> list[tuple[Generator, Coefficient]]:
        """A term's entries, evaluated as the module docstring says."""
        q = Fraction(-1 if negate else 1)
        mono: dict = {"eps_half": 0, "hbar": 0, "s": [], "kernels": []}
        scalars, bearing, star = [], None, None
        while True:
            start = self.pos
            kind, value = self.parse_factor()
            if kind == "q":
                q *= value
                self.guard_digits((q,), 1, start, "product of rationals")
            elif kind in ("eps_half", "hbar"):
                mono[kind] += value
            elif kind in ("s", "kernels"):
                mono[kind].append(value)
            elif kind == "scalar":
                scalars.append((value, start))
            elif bearing is None or not all(value for value, _ in scalars):
                bearing = value  # a term that is zero so far is scalar
            else:
                raise self.error("cannot multiply two generator series here; that "
                                 "contraction needs the product engine", star)
            if self.tokens[self.pos] != "*":
                break
            star = self.pos
            self.pos += 1
        if not all(value for value, _ in scalars):
            return []
        coeff = Coefficient(((Monomial(**mono), q),))
        for value, start in scalars:
            coeff = value * coeff
            self.guard_digits((r for _, r in coeff.terms), 1, start, "product of rationals")
        return [(gen, coeff if c is ONE else c * coeff)
                for gen, c in bearing or ((UNIT_GENERATOR, ONE),)]

    def parse_factor(self) -> tuple[str, object]:
        """An atom to its power, tagged with the part of a term it enters."""
        start = self.pos
        kind, base = self.parse_atom()
        exponent = 1
        if self.tokens[self.pos] == "^":
            caret = self.pos
            self.pos += 1
            sign = -1 if self.at_punct("-") and self.advance() else 1
            at = self.pos
            tok = self.expect("num")
            if "/" in tok:
                raise self.error("exponents must be integers", at)
            exponent = sign * int(tok)
            if kind == "bearing" and exponent != 1:
                raise self.error("exponents on generator series are not supported", caret)
            try:
                if exponent < 0 and kind in ("hbar", "s", "kernels"):
                    raise CoefficientError("negative powers are only supported on "
                                           "rationals and eps")
                if kind == "scalar":
                    if len(base.terms) == 1:   # q^|e| exactly: judged before the power
                        self.guard_digits((base.terms[0][1],), abs(exponent), start,
                                          "scalar power")
                    base = base.power(exponent)
                    self.guard_digits((r for _, r in base.terms), 1, start, "scalar power")
            except CoefficientError as exc:
                raise self.error(str(exc), caret) from None
        if kind == "q":
            if abs(exponent) > 1:
                self.guard_digits((base,), abs(exponent), start, "rational literal")
            return kind, base ** exponent
        if kind in ("s", "kernels"):
            return kind, (base, exponent)
        return kind, base * exponent if kind in ("eps_half", "hbar") else base

    def parse_atom(self) -> tuple[str, object]:
        tok = self.tokens[self.pos]
        if tok[:1].isdecimal():
            q = self.parse_rational()
            return ("q", q) if q else ("scalar", ZERO)  # a zero makes its term scalar
        if tok == "(":
            self.pos += 1
            inner = self.parse_series()
            self.expect("punct", ")")
            if _is_scalar(inner):
                return "scalar", inner.coefficient(UNIT_GENERATOR)
            return "bearing", inner.terms
        if tok[:1] in _IDENT_START:
            if tok == "W" and self.peek(1) == "{":
                gen = self.parse_generator()  # W{} is the scalar 1
                return ("q", Fraction(1)) if gen == UNIT_GENERATOR else ("bearing", ((gen, ONE),))
            return self.parse_symbol()
        raise self.fail(f"expected a number, symbol, W{{...}} or parenthesis, "
                        f"found {tok or 'end of input'!r}")

    def parse_rational(self) -> Fraction:
        at = self.pos
        tok = self.expect("num")
        try:
            return Fraction(tok)
        except ZeroDivisionError:
            raise self.error(f"zero denominator in {tok}", at) from None
        except ValueError:   # the token is digits, so a part is over the digit limit
            raise self.error(_too_long(_int_digit_limit()), at) from None

    def parse_symbol(self) -> tuple[str, object]:
        at = self.pos
        name = self.expect("ident")
        if name == "eps":
            return "eps_half", 2
        if name == "hbar":
            return "hbar", 1
        if name == "Tr":
            raise self.error("trace words only appear inside W{...}", at)
        if _RESERVED_BLOCK.match(name):
            color = int(name[1:])
            if not self.mode.colored:
                raise self.error(f"block ratio {name} in an uncolored mode", at)
            if not (1 <= color <= self.mode.colors):
                raise self.error(f"block ratio {name} outside 1..{self.mode.colors}", at)
            return "s", color
        args: tuple[SlotRef, ...] = ()
        if self.at_punct("("):
            self.pos += 1
            first = self.parse_slot_ref()
            self.expect("punct", ",")
            second = self.parse_slot_ref()
            self.expect("punct", ")")
            args = (first, second)
        try:
            return "kernels", KernelSymbol(name, args)
        except CoefficientError as exc:
            raise self.error(str(exc), at) from None

    def parse_slot_ref(self) -> SlotRef:
        conjugated = self.at_punct("~")
        if conjugated:
            self.pos += 1
        return (self.expect("ident"), conjugated)

    def parse_generator(self) -> Generator:
        start = self.pos
        self.expect("ident", "W")
        self.expect("punct", "{")
        words: list[list[Slot]] = []
        while not self.at_punct("}"):
            words.append(self.parse_trace())
        self.pos += 1
        labels = [s.label for word in words for s in word]
        if len(labels) != len(set(labels)):
            raise self.error("slot labels must be distinct within one generator", start)
        try:
            return make_generator(words, self.mode)
        except ObservableError as exc:
            raise self.error(str(exc), start) from None

    def parse_trace(self) -> list[Slot]:
        self.expect("ident", "Tr")
        self.expect("punct", "[")
        if self.at_punct("]"):
            raise self.fail("empty trace")
        slots = [self.parse_slot()]
        tokens = self.tokens
        while tokens[self.pos] != "]":
            slots.append(self.parse_slot())
        self.pos += 1
        return slots

    def parse_slot(self) -> Slot:
        tokens = self.tokens
        conjugated = tokens[self.pos] == "~"
        if conjugated:
            self.pos += 1
        at = self.pos
        label = self.expect("ident")
        color: int | None = None
        if tokens[self.pos] == "@":
            self.pos += 1
            num_at = self.pos
            num = self.expect("num")
            if "/" in num:
                raise self.error("colors are integers", num_at)
            color = int(num)
        slot = self.slots.get((label, conjugated, color))
        if slot is None:
            try:
                slot = self.slots[label, conjugated, color] = Slot(label, conjugated, color)
            except ObservableError as exc:
                raise self.error(str(exc), at) from None
        return slot


def _int_digit_limit() -> int:
    """The interpreter's int/str conversion limit in digits; 0 means none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _too_long(limit: int, what: str = "rational literal") -> str:
    return (f"{what} too large: a numerator or denominator over {limit} digits "
            "(the int/str limit, see sys.set_int_max_str_digits)")


@_collector_paused
def parse_series(text: str, mode: Mode) -> Series:
    parser = Parser(text, mode)
    result = parser.parse_series()
    if not parser.done():
        raise parser.fail(f"trailing input {parser.peek()!r}")
    return result


def parse_coefficient(text: str, mode: Mode) -> Coefficient:
    series = parse_series(text, mode)
    if not _is_scalar(series):
        raise ParseError("expected a scalar expression, found generators", 1, 1)
    return series.coefficient(UNIT_GENERATOR)


# -- rendering ----------------------------------------------------------------


@_collector_paused
def render_series(series: Series) -> str:
    """Canonical text; ``parse_series`` inverts it exactly.

    Terms are ordered by their coefficient's least eps degree (its first
    monomial's, since monomials sort by eps first), then larger
    generators first, so the unit lands last within a degree, then by
    generator key: the sort is stable, and a ``Series`` holds its terms
    in generator-key order.  Each term is rendered once, in the series'
    own order, with texts from ``functools.cache`` wrappers made for this
    call: each distinct monomial (and kernel symbol inside it) and each
    distinct trace word is rendered once.  A monomial with an odd eps
    half-unit raises there, at the first in the series' order.

    The text form needs distinct slot labels within each generator, so a
    generator that repeats one (say, after ``forget_labels``) is refused.
    """
    if series.is_zero():
        return "0"
    monomial, trace = monomial_texts(), cache(TraceWord.render)
    rows, repeats = [], []
    for gen, coeff in series.terms:
        terms = coeff.terms
        if len(terms) == 1:
            mono, q = terms[0]
            piece = render_term(monomial(mono), q)
        else:
            piece = "+ (" + render_terms(terms, monomial) + ")"
        labels = gen.labels()
        key = (terms[0][0].eps_half >> 1 if terms else 0, -len(labels))
        rows.append((key, piece + "*" + gen.render_with(trace)))
        if len(set(labels)) != len(labels):
            repeats.append((key, gen, labels))
    if repeats:   # the first in render order: ``min`` keeps the first of equal keys
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
                     for s in trace]
                    for trace in gen
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
