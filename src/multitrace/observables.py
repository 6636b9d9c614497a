"""Normalized multi-trace observables and formal series over them.

A generator is a normal-ordered product of traces of a single hermitian
matrix-valued field, scaled by the inverse matrix size raised to half
the total slot count.  Slots are labeled (so kernel factors produced by
products stay unambiguous), optionally conjugated, and in a colored
model each slot carries the index of the projector that follows it
inside its trace.

Canonical form: every trace word is rotated to its least cyclic
rotation and the traces of a generator are sorted, so two generators
compare equal exactly when they name the same observable.  Slots, trace
words and generators are their own canonical keys, ``tuple`` subclasses
(``coeffring.CanonicalTuple``) whose equality, hashing and order are the
tuple's: a slot is ``(label, conjugated, color)`` with color -1 when
uncolored, a trace word the tuple of its slots in least rotation, and a
generator the sorted tuple of its trace words.  So a value equals a
plain tuple of the same contents, a word and a generator have ``len``
and iterate over their slots and traces, and ``slots`` and ``traces``
are plain-tuple copies.  Every generator is truthy, the unit
``Generator(())`` too, though it has no traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence

from .coeffring import CanonicalTuple, Coefficient, CoefficientError, ONE, ZERO, is_identifier


class ObservableError(ValueError):
    """Raised for malformed slots, words, or mode mismatches."""


@dataclass(frozen=True)
class Mode:
    """Ambient model: kernel weights and number of colors.

    ``kind`` is ``"matrix"`` (single scalar propagator weight ``g``) or
    ``"kernel"`` (pairwise kernels over slot labels).  ``colors == 0``
    means uncolored; otherwise slots carry colors ``1..colors``.
    """

    kind: str = "matrix"
    colors: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("matrix", "kernel"):
            raise ObservableError(f"unknown mode kind {self.kind!r}")
        if self.colors < 0:
            raise ObservableError("color count must be a natural number")

    @property
    def colored(self) -> bool:
        return self.colors > 0


MATRIX = Mode("matrix")
KERNEL = Mode("kernel")


class Slot(CanonicalTuple):
    """One field factor inside a trace, the tuple ``(label, conjugated,
    color)``, stored with color -1 when uncolored.

    ``color`` is the projector index following this factor; it reads
    ``None`` exactly in uncolored modes.
    """

    __slots__ = ()
    _fields = ("label", "conjugated", "color")
    label = property(itemgetter(0))
    conjugated = property(itemgetter(1))

    def __new__(cls, label: str, conjugated: bool = False, color: int | None = None) -> "Slot":
        if not is_identifier(label):
            raise ObservableError(f"bad slot label {label!r}")
        if type(conjugated) is not bool:
            raise ObservableError(f"slot conjugation {conjugated!r} is not a bool")
        if color is not None and color < 1:
            raise ObservableError("slot colors start at 1")
        return tuple.__new__(cls, (label, conjugated, -1 if color is None else color))

    @property
    def color(self) -> int | None:
        color = self[2]
        return None if color < 0 else color

    def render(self) -> str:
        label, conjugated, color = self
        text = ("~" + label) if conjugated else label
        return text if color < 0 else f"{text}@{color}"


def least_rotation(keys: list) -> int:
    """Where the least rotation of ``keys`` starts (the first such place)."""
    low = min(keys)
    if keys.count(low) == 1:
        return keys.index(low)
    return min((i for i, key in enumerate(keys) if key == low),
               key=lambda i: keys[i:] + keys[:i])


class TraceWord(CanonicalTuple):
    """A cyclic word of slots, the tuple of its slots in least rotation."""

    __slots__ = ()
    _fields = ("slots",)
    slots = property(tuple)

    def __new__(cls, slots: Sequence[Slot]) -> "TraceWord":
        slots = tuple(slots)
        if not slots:
            raise ObservableError("trace words must contain at least one slot")
        k = least_rotation(list(slots))
        return tuple.__new__(cls, slots[k:] + slots[:k])

    @classmethod
    def _canonical(cls, slots: tuple[Slot, ...]) -> "TraceWord":
        """A word from slots already in least rotation, built without the
        checks and the rotation of the constructor."""
        return tuple.__new__(cls, slots)

    def render(self) -> str:
        return "Tr[" + " ".join([s.render() for s in self]) + "]"


class Generator(CanonicalTuple):
    """A normalized multi-trace word, the sorted tuple of its trace words;
    ``Generator(())`` is the unit, and truthy like every generator."""

    __slots__ = ()
    _fields = ("traces",)
    traces = property(tuple)

    def __new__(cls, traces: Iterable[TraceWord] = ()) -> "Generator":
        return tuple.__new__(cls, sorted(traces))

    @classmethod
    def _canonical(cls, traces: tuple[TraceWord, ...]) -> "Generator":
        """A generator from trace words already sorted, built without the
        sort of the constructor."""
        return tuple.__new__(cls, traces)

    def __bool__(self) -> bool:
        return True

    @property
    def trace_count(self) -> int:
        return len(self)

    @property
    def size(self) -> int:
        """Total slot count across traces."""
        return sum(map(len, self))

    def labels(self) -> list[str]:
        return [label for t in self for label, _, _ in t]

    def render(self) -> str:
        return self.render_with(TraceWord.render)

    def render_with(self, trace_text) -> str:
        """``render``, with each trace word's text from ``trace_text``."""
        return "W{" + " ".join([trace_text(t) for t in self]) + "}"


UNIT_GENERATOR = Generator(())


def make_generator(words: Sequence[Sequence[Slot]], mode: Mode) -> Generator:
    """Build a generator, checking slot colors against the mode."""
    for word in words:
        for slot in word:
            if mode.colored:
                if slot.color is None:
                    raise ObservableError(
                        f"slot {slot.label!r} needs a color in a {mode.colors}-color mode")
                if slot.color > mode.colors:
                    raise ObservableError(
                        f"slot {slot.label!r} has color {slot.color} "
                        f"but the mode has {mode.colors} colors")
            elif slot.color is not None:
                raise ObservableError(
                    f"slot {slot.label!r} carries a color in an uncolored mode")
    return Generator(tuple(TraceWord(tuple(w)) for w in words))


def star_generator(gen: Generator) -> Generator:
    """Hermitian adjoint of a generator.

    Each trace word reverses (the transpose of a product of hermitian
    factors), every slot's conjugation flag flips, and in colored words
    the projector following a field after reversal is the one that
    preceded it before, so colors shift by one position against the
    reversed order.
    """
    new_traces = []
    for trace in gen:
        n = len(trace)
        reversed_slots = []
        for j in range(n):
            src = trace[n - 1 - j]
            color_src = trace[(n - 2 - j) % n]
            reversed_slots.append(Slot(src.label, not src.conjugated, color_src.color))
        new_traces.append(TraceWord(tuple(reversed_slots)))
    return Generator(tuple(new_traces))


@dataclass(frozen=True)
class Series:
    """Finite formal combination of generators with ring coefficients.

    ``flags`` carries operational metadata ("truncated" when an eps cap
    dropped graphs, "negative-eps" when a transport produced Laurent
    terms).  Flags do not take part in equality.

    "truncated" is set exactly when the cap excluded at least one
    contraction scheme, whatever its weight: a colored scheme above the
    cap that would have contributed zero still sets it.  So the flag
    does not depend on how early the enumeration prunes, and a
    truncated result can equal the uncapped one.

    ``terms`` come in generator-key order, and ``render_series`` relies
    on it: ``build`` sorts them, and every other ``Series`` made in this
    package either has sorted keys (the scheme loop sorts its output
    words, which sorts the generators) or keeps the order of a series'
    terms (negation, the zero series).
    """

    mode: Mode
    terms: tuple[tuple[Generator, Coefficient], ...] = ()
    flags: frozenset[str] = field(default_factory=frozenset, compare=False)

    @staticmethod
    def build(mode: Mode, entries: Iterable[tuple[Generator, Coefficient]],
              flags: Iterable[str] = ()) -> "Series":
        grouped: dict[Generator, list[Coefficient]] = {}
        for gen, coeff in entries:
            grouped.setdefault(gen, []).append(coeff)
        # a coefficient is canonical, so one that meets no other is kept as it is
        merged = ((gen, coeffs[0] if len(coeffs) == 1 else
                   Coefficient.build(term for coeff in coeffs for term in coeff.terms))
                  for gen, coeffs in grouped.items())
        ordered = tuple(sorted(((gen, coeff) for gen, coeff in merged if coeff),
                               key=itemgetter(0)))
        return Series(mode, ordered, frozenset(flags))

    @staticmethod
    def of(gen: Generator, mode: Mode, coeff: Coefficient = ONE) -> "Series":
        return Series.build(mode, [(gen, coeff)])

    @staticmethod
    def unit(mode: Mode) -> "Series":
        return Series.of(UNIT_GENERATOR, mode)

    @staticmethod
    def zero(mode: Mode) -> "Series":
        return Series(mode)

    def coefficient(self, gen: Generator) -> Coefficient:
        for g, c in self.terms:
            if g == gen:
                return c
        return ZERO

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Series") -> "Series":
        _require_same_mode(self, other)
        return Series.build(self.mode, self.terms + other.terms, self.flags | other.flags)

    def __neg__(self) -> "Series":
        return Series(self.mode, tuple((g, -c) for g, c in self.terms), self.flags)

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def scale(self, coeff: Coefficient) -> "Series":
        return Series.build(self.mode, ((g, c * coeff) for g, c in self.terms), self.flags)

    def map_coefficients(self, fn) -> "Series":
        return Series.build(self.mode, ((g, fn(c)) for g, c in self.terms), self.flags)


def _require_same_mode(a: Series, b: Series) -> None:
    if a.mode != b.mode:
        raise ObservableError(f"mode mismatch: {a.mode} vs {b.mode}")


def star(series: Series) -> Series:
    """Adjoint of a series; an involution and product anti-homomorphism."""
    return Series.build(series.mode,
                        ((star_generator(g), c.star()) for g, c in series.terms),
                        series.flags)


def forget_labels(series: Series) -> Series:
    """Merge generators that differ only by slot labels.

    Labels carry no meaning under a single scalar propagator weight, so
    a matrix-mode series can be folded onto one label per slot; terms
    with equal shapes (trace lengths, conjugations, colors) combine.
    Kernel-mode series reference labels from their coefficients and are
    rejected.
    """
    if series.mode.kind != "matrix":
        raise ObservableError("label folding only makes sense in matrix mode")
    out = []
    for gen, coeff in series.terms:
        folded = Generator(tuple(
            TraceWord(tuple(Slot("x", s.conjugated, s.color) for s in t)) for t in gen))
        out.append((folded, coeff))
    return Series.build(series.mode, out, series.flags)


def classical_product(a: Series, b: Series) -> Series:
    """Commutative concatenation product (the eps-to-zero limit)."""
    _require_same_mode(a, b)
    out = []
    for ga, ca in a.terms:
        for gb, cb in b.terms:
            out.append((Generator(ga.traces + gb.traces), ca * cb))
    return Series.build(a.mode, out, a.flags | b.flags)


def series_degree(series: Series) -> int | None:
    """Least eps degree over all terms, ``None`` for the zero series."""
    degrees = [c.eps_min_degree() for _, c in series.terms]
    degrees = [d for d in degrees if d is not None]
    return min(degrees) if degrees else None
