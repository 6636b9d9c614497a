"""Normalized multi-trace observables and formal series over them.

A generator is a normal-ordered product of traces of a single hermitian
matrix-valued field, scaled by the inverse matrix size raised to half
the total slot count.  Slots are labeled (so kernel factors produced by
products stay unambiguous), optionally conjugated, and in a colored
model each slot carries the index of the projector that follows it
inside its trace.

Canonical form: every trace word is rotated to its least cyclic
rotation and the traces of a generator are sorted, so two generators
compare equal exactly when they name the same observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .coeffring import Coefficient, CoefficientError, ONE, ZERO


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


@dataclass(frozen=True, order=True)
class Slot:
    """One field factor inside a trace.

    ``color`` is the projector index following this factor; it is
    ``None`` exactly in uncolored modes.
    """

    label: str
    conjugated: bool = False
    color: int | None = None

    def __post_init__(self) -> None:
        if not self.label or not (self.label[0].isalpha() or self.label[0] == "_"):
            raise ObservableError(f"bad slot label {self.label!r}")
        if self.color is not None and self.color < 1:
            raise ObservableError("slot colors start at 1")

    def key(self):
        return (self.label, self.conjugated, -1 if self.color is None else self.color)

    def render(self) -> str:
        text = ("~" + self.label) if self.conjugated else self.label
        if self.color is not None:
            text += f"@{self.color}"
        return text


def least_rotation(keys: list) -> int:
    """Where the least rotation of ``keys`` starts (the first such place)."""
    low = min(keys)
    if keys.count(low) == 1:
        return keys.index(low)
    return min((i for i, key in enumerate(keys) if key == low),
               key=lambda i: keys[i:] + keys[:i])


@dataclass(frozen=True)
class TraceWord:
    """A cyclic word of slots, stored in its least rotation."""

    slots: tuple[Slot, ...]

    def __post_init__(self) -> None:
        if not self.slots:
            raise ObservableError("trace words must contain at least one slot")
        slots = tuple(self.slots)
        k = least_rotation([s.key() for s in slots])
        object.__setattr__(self, "slots", slots[k:] + slots[:k])

    def __len__(self) -> int:
        return len(self.slots)

    def key(self):
        return tuple(s.key() for s in self.slots)

    def render(self) -> str:
        return "Tr[" + " ".join(s.render() for s in self.slots) + "]"


@dataclass(frozen=True)
class Generator:
    """A normalized multi-trace word; ``Generator(())`` is the unit."""

    traces: tuple[TraceWord, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "traces", tuple(sorted(self.traces, key=TraceWord.key)))

    @property
    def trace_lengths(self) -> tuple[int, ...]:
        """The multi-index of trace lengths, in canonical trace order."""
        return tuple(len(t) for t in self.traces)

    @property
    def trace_count(self) -> int:
        return len(self.traces)

    @property
    def size(self) -> int:
        """Total slot count across traces."""
        return sum(len(t) for t in self.traces)

    def key(self):
        return tuple(t.key() for t in self.traces)

    def labels(self) -> list[str]:
        return [s.label for t in self.traces for s in t.slots]

    def render(self) -> str:
        return "W{" + " ".join(t.render() for t in self.traces) + "}"


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
    for trace in gen.traces:
        slots = trace.slots
        n = len(slots)
        reversed_slots = []
        for j in range(n):
            src = slots[n - 1 - j]
            color_src = slots[(n - 2 - j) % n]
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
                               key=lambda kv: kv[0].key()))
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

    def with_flags(self, extra: Iterable[str]) -> "Series":
        return Series(self.mode, self.terms, self.flags | frozenset(extra))

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
            TraceWord(tuple(Slot("x", s.conjugated, s.color) for s in t.slots))
            for t in gen.traces))
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
