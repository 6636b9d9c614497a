"""Re-expression of a series over a shifted normal-ordering kernel.

Changing the two-point kernel underneath the normal ordering maps each
generator to a finite combination of generators of the target basis.
The sum runs over sets of disjoint leg pairs of a single generator
(its own traces may contract into themselves): the same scheme loop as
the product, ``algebra.scheme_series``, with each pair contributing
``hbar`` times a difference-kernel symbol whose numeric meaning is

    F  =  (target kernel) - (source kernel).

Each output term is the sum over its schemes of that monomial, times
the input coefficient.

Single-trace self-contractions make the exponent negative (for example
a two-leg trace closing onto itself produces two pure loops against
one pair), so the output is Laurent in eps.  Such terms are kept and
the result is flagged ``negative-eps`` rather than rejected.
"""

from __future__ import annotations

from .algebra import PairKernel, scheme_series
from .coeffring import KernelSymbol
from .observables import Mode, Series
# bound here so the benchmark's tracer (perfbench/tracing.py HOOKS) finds them
from .ribbon import analyze, enumerate_pairings, result_generator  # noqa: F401


def _difference_kernel(symbol: str, mode: Mode) -> PairKernel:
    if mode.kind == "matrix":
        return KernelSymbol(symbol)
    # difference kernels are symmetric, so a sorted argument order is canonical
    return lambda su, sv: KernelSymbol(symbol, tuple(sorted(
        [(su.label, su.conjugated), (sv.label, sv.conjugated)])))


def transport(series: Series, *, symbol: str = "F", negate: bool = False,
              max_eps_degree: int | None = None) -> Series:
    """Expand ``series`` over the kernel-shifted basis.

    ``negate`` flips the sign of every pair factor, which is the
    inverse shift; transporting with ``F`` and then with ``-F`` is the
    identity.
    """
    jobs = ((gen, None, coeff) for gen, coeff in series.terms)
    return scheme_series(series.mode, jobs, _difference_kernel(symbol, series.mode),
                         max_eps_degree, set(series.flags), negate)


def transport_roundtrip_check(series: Series, *, symbol: str = "F") -> Series:
    """Shift out and back; the returned difference must be zero."""
    there = transport(series, symbol=symbol)
    back = transport(there, symbol=symbol, negate=True)
    return back - series
