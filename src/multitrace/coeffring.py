"""Exact coefficient ring for size-expansion bookkeeping.

Coefficients are sparse polynomials with rational coefficients in:

* ``eps``, the inverse matrix size.  Exponents may be negative (Laurent)
  and are stored internally in half-units so that square-root
  normalizations of odd-length trace words can be carried through
  intermediate steps without rounding.  Public degree queries report
  whole ``eps`` units and refuse to leak a dangling half-unit.
* ``hbar``, one factor per contraction line (the deformation grading).
* ``s1 .. sk``, block-size ratios of a colored model.
* kernel symbols, either bare scalars such as ``g`` (the single
  propagator weight of the zero-dimensional model) or ordered pairs
  such as ``K(x1,~y2)`` naming a two-point kernel evaluated on labeled,
  possibly conjugated slots.  ``K(x,y)`` and ``K(y,x)`` are distinct.

Everything is immutable and exact; no floats enter at any point.
Kernel symbols and monomials, like the slots, trace words and
generators of ``observables``, are their own canonical keys: each is a
``tuple`` subclass (``CanonicalTuple``) holding exactly its key, so
equality, hashing and sorting are the tuple's own, in C.  A kernel
symbol is ``(name, args)`` and a monomial ``(eps_half, hbar, s,
kernels)``; the named attributes read those places.  Such a value
equals a plain tuple of the same contents.  ``KernelSymbol.star`` swaps
and conjugates the two arguments and keeps the name.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, wraps
from math import lcm
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Union

RationalLike = Union[int, Fraction]


class CoefficientError(ValueError):
    """Raised for malformed monomials, bad evaluations, half-unit leaks."""


class CanonicalTuple(tuple):
    """Base of the immutable values that are their own canonical keys.

    A subclass is a ``tuple`` whose contents are exactly the value's key:
    plain values, or parts that are keys themselves.  Building one is a
    single ``tuple.__new__``, and ``==``, ``<`` and ``hash`` are the
    tuple's own, so they run in C and in key order.  Two consequences are
    deliberate: a value compares equal to, and hashes like, a plain tuple
    with the same contents, and values of two classes compare as tuples.
    ``_fields`` names the constructor's parameters, read back from the
    value's attributes: the ``repr`` is the dataclass-style
    ``Name(field=value, ...)``, and pickling and ``copy`` rebuild the
    value through its constructor with them.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def key(self) -> tuple:
        """The canonical key as a plain tuple of the value's contents."""
        return tuple(self)

    def __getnewargs__(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        return "%s(%s)" % (self.__class__.__qualname__,
                           ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields))


def _collector_paused(fn):
    """Run ``fn`` with the cyclic garbage collector disabled.

    The engine's values (``CanonicalTuple`` values, coefficients, series,
    census keys) are immutable and acyclic, so reference counting frees
    each of them at once and the collector's scans of the heap they fill
    find nothing to free.  The collector is switched off for the call
    only if it was on, and switched on again when the call returns or
    raises; a nested call, or one whose caller disabled the collector,
    leaves its state alone.  The state is process-wide: a thread running
    meanwhile runs without the collector too.  The engine is
    single-threaded, and nothing in it starts a thread.
    """
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


SlotRef = tuple[str, bool]  # (label, conjugated)

# the parser's identifier token: every slot label and kernel argument label is one
IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"


def is_identifier(text: object) -> bool:
    """Whether ``text`` is a string that the parser reads as one identifier.

    The ASCII Python identifiers are exactly the strings ``IDENTIFIER``
    matches, and the string methods test that faster than the pattern.
    """
    return type(text) is str and text.isascii() and text.isidentifier()


def render_slot_ref(ref: SlotRef) -> str:
    label, conjugated = ref
    return ("~" + label) if conjugated else label


class KernelSymbol(CanonicalTuple):
    """A named scalar kernel factor, the tuple ``(name, args)``.

    ``args`` is empty for bare model-wide symbols (``g``, a transport
    difference symbol, ...) and has exactly two entries for pointwise
    two-argument kernels.  Argument order is significant.
    """

    __slots__ = ()
    _fields = ("name", "args")
    name = property(itemgetter(0))
    args = property(itemgetter(1))

    def __new__(cls, name: str, args: tuple[SlotRef, ...] = ()) -> "KernelSymbol":
        if not is_identifier(name) or name[0] == "_":
            raise CoefficientError(f"bad kernel symbol name {name!r}")
        if len(args) not in (0, 2):
            raise CoefficientError("kernel symbols take zero or two slot arguments")
        for label, conjugated in args:
            if not is_identifier(label) or type(conjugated) is not bool:
                raise CoefficientError(f"bad kernel argument {(label, conjugated)!r}")
        return tuple.__new__(cls, (name, args))

    def star(self) -> "KernelSymbol":
        """Adjoint: swap the two arguments and conjugate each label."""
        name, args = self
        if not args:
            return self
        (la, ca), (lb, cb) = args
        return KernelSymbol(name, ((lb, not cb), (la, not ca)))

    def render(self) -> str:
        name, args = self
        if not args:
            return name
        return "%s(%s,%s)" % (name, render_slot_ref(args[0]), render_slot_ref(args[1]))


def _sorted_powers(pairs, what):
    out = {}
    for key, power in pairs:
        if power == 0:
            continue
        if power < 0:
            raise CoefficientError(f"negative {what} exponent {power} on {key!r}")
        out[key] = out.get(key, 0) + power
    return tuple(sorted(out.items()))


def _merged_powers(a: tuple, b: tuple) -> tuple:
    """The product of two sorted power lists, sorted with merged powers: joined
    as they are when all of one sorts before all of the other."""
    if not a or not b:
        return a or b
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    return _sorted_powers(a + b, "merged")


class Monomial(CanonicalTuple):
    """One multi-degree, the tuple ``(eps_half, hbar, s, kernels)``: eps
    half-units, hbar, block ratios, kernels.

    The ``s`` and ``kernels`` lists are kept sorted with merged powers.
    """

    __slots__ = ()
    _fields = ("eps_half", "hbar", "s", "kernels")
    eps_half = property(itemgetter(0))
    hbar = property(itemgetter(1))
    s = property(itemgetter(2))
    kernels = property(itemgetter(3))

    def __new__(cls, eps_half: int = 0, hbar: int = 0, s: tuple = (),
                kernels: tuple = ()) -> "Monomial":
        if hbar < 0:
            raise CoefficientError("hbar exponent must be a natural number")
        s = _sorted_powers(s, "block-ratio")
        for color, _ in s:
            if color < 1:
                raise CoefficientError(f"color indices start at 1, got {color}")
        return tuple.__new__(cls, (eps_half, hbar, s, _sorted_powers(kernels, "kernel")))

    @classmethod
    def _canonical(cls, eps_half: int, hbar: int, s: tuple, kernels: tuple) -> "Monomial":
        """A monomial from parts already in canonical form (``s`` and
        ``kernels`` sorted, powers merged), built without the checks and
        the sorting of the constructor."""
        return tuple.__new__(cls, (eps_half, hbar, s, kernels))

    # -- queries ---------------------------------------------------------

    @property
    def eps_degree(self) -> int:
        """Degree in whole eps units; refuses odd half-units."""
        if self.eps_half % 2 != 0:
            raise CoefficientError(
                f"eps degree {self.eps_half}/2 is not a whole unit; "
                "half-units are internal to normalization bookkeeping"
            )
        return self.eps_half // 2

    # -- arithmetic ------------------------------------------------------

    def mul(self, other: "Monomial") -> "Monomial":
        if other is _UNIT_MONOMIAL or other == _UNIT_MONOMIAL:
            return self
        (eps_a, hbar_a, s_a, kernels_a), (eps_b, hbar_b, s_b, kernels_b) = self, other
        return Monomial._canonical(eps_a + eps_b, hbar_a + hbar_b, _merged_powers(s_a, s_b),
                                   _merged_powers(kernels_a, kernels_b))

    def render_with(self, kernel_text: Callable[[KernelSymbol], str]) -> str:
        """Text such as ``eps^2*hbar*s1*K(x1,y2)^2`` (empty for the unit),
        with each kernel symbol's text from ``kernel_text``."""
        eps_half, hbar, s, kernels = self
        parts = []
        if eps_half:
            d = self.eps_degree  # raises on odd half-units
            parts.append("eps" if d == 1 else f"eps^{d}")
        if hbar:
            parts.append("hbar" if hbar == 1 else f"hbar^{hbar}")
        for color, power in s:
            parts.append(f"s{color}" if power == 1 else f"s{color}^{power}")
        for sym, power in kernels:
            base = kernel_text(sym)
            parts.append(base if power == 1 else f"{base}^{power}")
        return "*".join(parts)

    def star(self) -> "Monomial":
        return Monomial(self.eps_half, self.hbar, self.s,
                        tuple((sym.star(), p) for sym, p in self.kernels))


_UNIT_MONOMIAL = Monomial()


@dataclass(frozen=True)
class Coefficient:
    """Sparse exact polynomial over :class:`Monomial`.

    The term tuple is canonically sorted and free of zero coefficients,
    so structural equality is semantic equality.
    """

    terms: tuple[tuple[Monomial, Fraction], ...] = ()

    @staticmethod
    def build(entries: Iterable[tuple[Monomial, RationalLike]]) -> "Coefficient":
        acc: dict[Monomial, Fraction] = {}
        for mono, value in entries:
            if type(value) is not Fraction:
                value = Fraction(value)
            q = acc.get(mono)
            acc[mono] = value if q is None else q + value
        return Coefficient._of_sums(acc)

    @staticmethod
    def _of_sums(acc: Mapping[Monomial, RationalLike]) -> "Coefficient":
        """The coefficient of summed terms: zeros dropped, each sum made one
        ``Fraction``, sorted once by monomial."""
        if len(acc) == 1:   # one term needs no sort
            (mono, q), = acc.items()
            return Coefficient(((mono, q if type(q) is Fraction else Fraction(q)),) if q else ())
        return Coefficient(tuple(sorted(
            ((mono, q if type(q) is Fraction else Fraction(q)) for mono, q in acc.items() if q),
            key=itemgetter(0))))

    @staticmethod
    def rational(value: RationalLike) -> "Coefficient":
        return Coefficient.build([(_UNIT_MONOMIAL, value)])

    @staticmethod
    def monomial(mono: Monomial, value: RationalLike = 1) -> "Coefficient":
        return Coefficient.build([(mono, value)])

    @staticmethod
    def eps(units: int = 1) -> "Coefficient":
        return Coefficient.monomial(Monomial(eps_half=2 * units))

    @staticmethod
    def hbar(power: int = 1) -> "Coefficient":
        return Coefficient.monomial(Monomial(hbar=power))

    @staticmethod
    def block_ratio(color: int) -> "Coefficient":
        return Coefficient.monomial(Monomial(s=((color, 1),)))

    @staticmethod
    def kernel(sym: KernelSymbol, power: int = 1) -> "Coefficient":
        return Coefficient.monomial(Monomial(kernels=((sym, power),)))

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "Coefficient") -> "Coefficient":
        return Coefficient.build(self.terms + other.terms)

    def __neg__(self) -> "Coefficient":
        return Coefficient(tuple((m, -q) for m, q in self.terms))

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        return self + (-other)

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        # Integer numerators over each side's common denominator are summed
        # per product monomial, told by its eps and hbar powers and the two
        # factors' symbols: one Monomial and one Fraction per output term.
        da = lcm(*(q.denominator for _, q in self.terms))
        db = lcm(*(q.denominator for _, q in other.terms))
        right = [(*mb, qb.numerator * (db // qb.denominator)) for mb, qb in other.terms]
        acc: dict[tuple, int] = {}
        for (eps_a, hbar_a, sa, ka), qa in self.terms:
            na = qa.numerator * (da // qa.denominator)
            for eps_b, hbar_b, sb, kb, nb in right:
                key = (eps_a + eps_b, hbar_a + hbar_b, sa, ka, sb, kb)
                acc[key] = acc.get(key, 0) + na * nb
        sums = {}
        for (eps_half, hbar, sa, ka, sb, kb), v in acc.items():
            mono = Monomial._canonical(eps_half, hbar, _merged_powers(sa, sb),
                                       _merged_powers(ka, kb))
            sums[mono] = sums.get(mono, 0) + v
        return Coefficient._of_sums({mono: Fraction(v, da * db) for mono, v in sums.items()})

    def scale(self, value: RationalLike) -> "Coefficient":
        q = Fraction(value)
        if q == 0:
            return ZERO
        return Coefficient(tuple((m, c * q) for m, c in self.terms))

    def power(self, exponent: int) -> "Coefficient":
        if exponent < 0:
            return self._invert().power(-exponent)
        acc, square = ONE, self   # repeated squaring: O(log exponent) products
        while exponent:
            if exponent & 1:
                acc = acc * square
            exponent >>= 1
            if exponent:
                square = square * square
        return acc

    def _invert(self) -> "Coefficient":
        """Invert a single unit-like monomial (rational times eps power)."""
        if len(self.terms) != 1:
            raise CoefficientError("zero is not invertible" if not self.terms
                                   else "only single-term coefficients are invertible")
        mono, q = self.terms[0]
        if mono.hbar or mono.s or mono.kernels:
            raise CoefficientError(
                "negative powers are only supported on rationals and eps"
            )
        return Coefficient.monomial(Monomial(eps_half=-mono.eps_half), Fraction(1) / q)

    # -- queries -------------------------------------------------------------

    def eps_min_degree(self) -> int | None:
        """Least eps degree over all terms, ``None`` for the zero coefficient."""
        if not self.terms:
            return None
        return min(m.eps_degree for m, _ in self.terms)

    def eval(self, env: Mapping[str, RationalLike]) -> Fraction:
        """Evaluate with rational assignments keyed by rendered symbol names.

        ``env`` must cover every symbol that occurs; ``eps`` is required
        whenever a nonzero eps power occurs, and odd half-unit powers are
        rejected rather than rooted.
        """
        total = Fraction(0)
        for mono, q in self.terms:
            value = q
            if mono.eps_half:
                d = mono.eps_degree
                value *= self._lookup(env, "eps") ** d
            if mono.hbar:
                value *= self._lookup(env, "hbar") ** mono.hbar
            for color, power in mono.s:
                value *= self._lookup(env, f"s{color}") ** power
            for sym, power in mono.kernels:
                value *= self._lookup(env, sym.render()) ** power
            total += value
        return total

    @staticmethod
    def _lookup(env: Mapping[str, RationalLike], name: str) -> Fraction:
        try:
            return Fraction(env[name])
        except KeyError:
            raise CoefficientError(f"no assignment for symbol {name!r}") from None

    # -- structural maps -------------------------------------------------------

    def shift_eps_half(self, delta: int) -> "Coefficient":
        return Coefficient(tuple(
            (Monomial(m.eps_half + delta, m.hbar, m.s, m.kernels), q)
            for m, q in self.terms))

    def star(self) -> "Coefficient":
        return Coefficient.build((m.star(), q) for m, q in self.terms)

    def substitute(self, assignments: Mapping[str, "Coefficient | RationalLike"]) -> "Coefficient":
        """Replace named symbols (hbar, s-ratios, kernels) by coefficients.

        eps is not substitutable here; it is the grading variable.  Each
        term keeps its other symbols and is multiplied out on its own; all
        the terms are then summed by one ``build``.
        """
        values = {name: value if isinstance(value, Coefficient) else Fraction(value)
                  for name, value in assignments.items()}
        entries = []
        for mono, q in self.terms:
            hbar, s, kernels, powers = mono.hbar, [], [], []
            if hbar and "hbar" in values:
                powers.append((values["hbar"], hbar))
                hbar = 0
            for color, power in mono.s:
                value = values.get(f"s{color}")
                if value is None:
                    s.append((color, power))
                else:
                    powers.append((value, power))
            for sym, power in mono.kernels:
                value = values.get(sym.render())
                if value is None:
                    kernels.append((sym, power))
                else:
                    powers.append((value, power))
            factor = Coefficient(((Monomial._canonical(mono.eps_half, hbar, tuple(s),
                                                       tuple(kernels)), q),))
            for value, power in powers:
                factor = (factor.scale(value ** power) if type(value) is Fraction
                          else factor * value.power(power))
            entries += factor.terms
        return Coefficient.build(entries)

    def render(self) -> str:
        """Canonical text form, e.g. ``3/2*eps^2*hbar*s1*K(x1,y2)^2``."""
        return render_terms(self.terms, monomial_texts())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Coefficient<{self.render()}>"


def monomial_texts() -> Callable[[Monomial], str]:
    """Monomial -> text for one call: each distinct monomial, and each
    distinct kernel symbol within them, is rendered once."""
    kernel = cache(KernelSymbol.render)
    return cache(lambda mono: mono.render_with(kernel))


def render_term(body: str, q: RationalLike) -> str:
    """One signed term, the rational ``q`` times the monomial text ``body``
    (empty for the unit monomial): ``- 3/2*eps^2``, ``+ hbar`` or ``+ 2``."""
    n, d = q.numerator, q.denominator
    sign = "- " if n < 0 else "+ "
    magnitude = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
    if not body:
        return sign + magnitude
    return sign + body if magnitude == "1" else f"{sign}{magnitude}*{body}"


def render_sum(pieces: list[str]) -> str:
    """Signed pieces joined; the first keeps only a minus sign, with no space."""
    if not pieces:
        return "0"
    text = " ".join(pieces)
    return "-" + text[2:] if text[0] == "-" else text[2:]


def render_terms(terms, text: Callable[[Monomial], str]) -> str:
    """A coefficient's text from its terms, each monomial's text from ``text``
    (a ``monomial_texts()`` cache)."""
    return render_sum([render_term(text(mono), q) for mono, q in terms])


ZERO = Coefficient()
ONE = Coefficient.rational(1)
