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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Union

RationalLike = Union[int, Fraction]


class CoefficientError(ValueError):
    """Raised for malformed monomials, bad evaluations, half-unit leaks."""


SlotRef = tuple[str, bool]  # (label, conjugated)


def render_slot_ref(ref: SlotRef) -> str:
    label, conjugated = ref
    return ("~" + label) if conjugated else label


@dataclass(frozen=True, order=True)
class KernelSymbol:
    """A named scalar kernel factor.

    ``args`` is empty for bare model-wide symbols (``g``, a transport
    difference symbol, ...) and has exactly two entries for pointwise
    two-argument kernels.  Argument order is significant.
    """

    name: str
    args: tuple[SlotRef, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not self.name[0].isalpha():
            raise CoefficientError(f"bad kernel symbol name {self.name!r}")
        if len(self.args) not in (0, 2):
            raise CoefficientError("kernel symbols take zero or two slot arguments")

    def star(self) -> "KernelSymbol":
        """Adjoint: swap the two arguments and conjugate each label."""
        if not self.args:
            return self
        (la, ca), (lb, cb) = self.args
        return KernelSymbol(self.name, ((lb, not cb), (la, not ca)))

    def render(self) -> str:
        if not self.args:
            return self.name
        return "%s(%s,%s)" % (self.name, render_slot_ref(self.args[0]), render_slot_ref(self.args[1]))


def _sorted_powers(pairs, what):
    out = {}
    for key, power in pairs:
        if power == 0:
            continue
        if power < 0:
            raise CoefficientError(f"negative {what} exponent {power} on {key!r}")
        out[key] = out.get(key, 0) + power
    return tuple(sorted(out.items()))


@dataclass(frozen=True)
class Monomial:
    """One multi-degree: eps half-units, hbar, block ratios, kernels."""

    eps_half: int = 0
    hbar: int = 0
    s: tuple[tuple[int, int], ...] = ()
    kernels: tuple[tuple[KernelSymbol, int], ...] = ()

    def __post_init__(self) -> None:
        if self.hbar < 0:
            raise CoefficientError("hbar exponent must be a natural number")
        object.__setattr__(self, "s", _sorted_powers(self.s, "block-ratio"))
        for color, _ in self.s:
            if color < 1:
                raise CoefficientError(f"color indices start at 1, got {color}")
        object.__setattr__(self, "kernels", _sorted_powers(self.kernels, "kernel"))

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

    def sort_key(self):
        return (self.eps_half, self.hbar, self.s, self.kernels)

    # -- arithmetic ------------------------------------------------------

    def mul(self, other: "Monomial") -> "Monomial":
        if other == _UNIT_MONOMIAL:
            return self
        return Monomial(
            self.eps_half + other.eps_half,
            self.hbar + other.hbar,
            self.s + other.s,
            self.kernels + other.kernels,
        )

    def render(self) -> str:
        parts = []
        if self.eps_half:
            d = self.eps_degree  # raises on odd half-units
            parts.append("eps" if d == 1 else f"eps^{d}")
        if self.hbar:
            parts.append("hbar" if self.hbar == 1 else f"hbar^{self.hbar}")
        for color, power in self.s:
            parts.append(f"s{color}" if power == 1 else f"s{color}^{power}")
        for sym, power in self.kernels:
            base = sym.render()
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
            q = acc.get(mono, Fraction(0)) + Fraction(value)
            if q == 0:
                acc.pop(mono, None)
            else:
                acc[mono] = q
        return Coefficient(tuple(sorted(acc.items(), key=lambda kv: kv[0].sort_key())))

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
        out = []
        for ma, qa in self.terms:
            for mb, qb in other.terms:
                out.append((ma.mul(mb), qa * qb))
        return Coefficient.build(out)

    def scale(self, value: RationalLike) -> "Coefficient":
        q = Fraction(value)
        if q == 0:
            return ZERO
        return Coefficient(tuple((m, c * q) for m, c in self.terms))

    def power(self, exponent: int) -> "Coefficient":
        if exponent < 0:
            return self._invert().power(-exponent)
        acc = ONE
        for _ in range(exponent):
            acc = acc * self
        return acc

    def _invert(self) -> "Coefficient":
        """Invert a single unit-like monomial (rational times eps power)."""
        if len(self.terms) != 1:
            raise CoefficientError("only single-term coefficients are invertible")
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

    def eps_max_degree(self) -> int | None:
        if not self.terms:
            return None
        return max(m.eps_degree for m, _ in self.terms)

    def rational_value(self) -> Fraction:
        """The constant term's value if the coefficient is purely rational."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and self.terms[0][0] == _UNIT_MONOMIAL:
            return self.terms[0][1]
        raise CoefficientError("coefficient is not a bare rational")

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

        eps is not substitutable here; it is the grading variable.
        """
        repl: dict[str, Coefficient] = {}
        for name, value in assignments.items():
            repl[name] = value if isinstance(value, Coefficient) else Coefficient.rational(value)
        out = ZERO
        for mono, q in self.terms:
            factor = Coefficient.monomial(Monomial(eps_half=mono.eps_half), q)
            if mono.hbar:
                base = repl.get("hbar", Coefficient.hbar())
                factor = factor * base.power(mono.hbar)
            for color, power in mono.s:
                base = repl.get(f"s{color}", Coefficient.block_ratio(color))
                factor = factor * base.power(power)
            for sym, power in mono.kernels:
                base = repl.get(sym.render(), Coefficient.kernel(sym))
                factor = factor * base.power(power)
            out = out + factor
        return out

    def render(self) -> str:
        """Canonical text form, e.g. ``3/2*eps^2*hbar*s1*K(x1,y2)^2``."""
        if not self.terms:
            return "0"
        chunks = []
        for i, (mono, q) in enumerate(self.terms):
            body = mono.render()
            mag = abs(q)
            if body and mag == 1:
                text = body
            elif body:
                text = f"{mag}*{body}"
            else:
                text = str(mag)
            if i == 0:
                chunks.append(("-" if q < 0 else "") + text)
            else:
                chunks.append(("- " if q < 0 else "+ ") + text)
        return " ".join(chunks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Coefficient<{self.render()}>"


ZERO = Coefficient()
ONE = Coefficient.rational(1)
