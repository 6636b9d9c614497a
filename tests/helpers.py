"""Builders and hypothesis strategies shared across the test modules."""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st

from multitrace import (
    Coefficient,
    EnumerationStats,
    KernelSymbol,
    MATRIX,
    Mode,
    Monomial,
    Series,
    Slot,
    analyze,
    enumerate_pairings,
    legs_of,
    make_generator,
    result_generator,
)


def shaped(shape, prefix="x", mode=MATRIX, colors=None):
    """Generator with the given trace lengths and labels prefix1, prefix2, ...

    When ``colors`` is given it is cycled over consecutive slots.
    """
    words = []
    n = 0
    for length in shape:
        word = []
        for _ in range(length):
            color = None if colors is None else colors[n % len(colors)]
            n += 1
            word.append(Slot(f"{prefix}{n}", False, color))
        words.append(word)
    return make_generator(words, mode)


def series_of(shape, prefix="x", mode=MATRIX, colors=None):
    return Series.of(shaped(shape, prefix, mode, colors), mode)


# Fixed symbol pool so random coefficients stay evaluable with one environment.
KERNEL_POOL = (
    KernelSymbol("g"),
    KernelSymbol("F"),
    KernelSymbol("K", (("x1", False), ("y1", False))),
    KernelSymbol("K", (("y1", True), ("x1", False))),
)

EVAL_ENV = {
    "eps": Fraction(1, 3),
    "hbar": Fraction(2),
    "s1": Fraction(1, 2),
    "s2": Fraction(1, 2),
    "g": Fraction(3, 4),
    "F": Fraction(-1, 4),
    "K(x1,y1)": Fraction(5, 7),
    "K(~y1,x1)": Fraction(-2, 7),
}

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def monomials(even_eps=True):
    eps = st.integers(-3, 3).map(lambda k: 2 * k) if even_eps \
        else st.integers(-5, 5)
    return st.builds(
        Monomial,
        eps_half=eps,
        hbar=st.integers(0, 3),
        s=st.lists(
            st.tuples(st.integers(1, 2), st.integers(1, 2)),
            max_size=2, unique_by=lambda cp: cp[0],
        ).map(lambda items: tuple(sorted(items))),
        kernels=st.lists(
            st.tuples(st.sampled_from(KERNEL_POOL), st.integers(1, 2)),
            max_size=2, unique_by=lambda kp: kp[0],
        ).map(lambda items: tuple(sorted(items))),
    )


def coefficients(even_eps=True):
    return st.lists(
        st.tuples(monomials(even_eps), rationals), max_size=3,
    ).map(Coefficient.build)


def random_series(rng, mode):
    """Small arbitrary series for round-trip corpora, any mode."""
    terms = []
    n = 0
    for _ in range(rng.randint(1, 3)):
        words = []
        for _ in range(rng.randint(0, 2)):
            length = rng.randint(1, 3)
            word = []
            for _ in range(length):
                n += 1
                color = rng.randint(1, mode.colors) if mode.colors else None
                conj = mode.kind == "kernel" and rng.random() < 0.4
                word.append(Slot(f"x{n}", conj, color))
            words.append(word)
        gen = make_generator(words, mode)
        coeff = Coefficient.eps(rng.randint(-2, 2)) \
            .scale(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4)))
        if rng.random() < 0.5:
            coeff = coeff * Coefficient.hbar(rng.randint(1, 2))
        if rng.random() < 0.3:
            coeff = coeff + Coefficient.hbar(3)
        if mode.colors and rng.random() < 0.5:
            coeff = coeff * Coefficient.block_ratio(rng.randint(1, mode.colors))
        terms.append((gen, coeff))
    return Series.build(mode, terms)


# -- per-scheme reference for the scheme pipeline ------------------------------


def _reference_schemes(ga, gb, mode, max_eps_degree, flags):
    """Admitted (report, pair slots) of one generator pair, scheme by scheme."""
    gens = {0: ga, 1: gb}
    legs_b = None if gb is None else legs_of(gb, 1)
    stats = EnumerationStats()
    for pairing in enumerate_pairings(legs_of(ga, 0), legs_b,
                                      max_eps_degree=max_eps_degree, stats=stats):
        report = analyze(pairing, ga, gb, mode)
        if report.weight_zero:
            continue
        if max_eps_degree is not None and report.exponent > max_eps_degree:
            flags.add("truncated")
            continue
        slots = [tuple(gens[leg.side].traces[leg.trace].slots[leg.slot] for leg in pair)
                 for pair in report.pairs]
        yield report, slots
    if stats.pruned_branches:
        flags.add("truncated")


def _reference_monomial(report, kernels):
    return Monomial(eps_half=report.exponent_half_units, hbar=report.pair_count,
                    s=report.s_exponents, kernels=tuple((k, 1) for k in kernels))


def reference_product(a, b, max_eps_degree=None):
    """``product`` summed one ``Coefficient`` per scheme (slow, for tests)."""
    out, flags = [], set(a.flags | b.flags)
    for ga, ca in a.terms:
        for gb, cb in b.terms:
            for report, slots in _reference_schemes(ga, gb, a.mode, max_eps_degree, flags):
                if a.mode.kind == "matrix":
                    kernels = [KernelSymbol("g")] * len(slots)
                else:
                    kernels = [KernelSymbol("K", ((u.label, u.conjugated),
                                                  (v.label, v.conjugated)))
                               for u, v in slots]
                mono = Coefficient.monomial(_reference_monomial(report, kernels))
                out.append((result_generator(report), ca * cb * mono))
    return Series.build(a.mode, out, flags)


def reference_transport(series, symbol="F", negate=False, max_eps_degree=None):
    """``transport`` summed one ``Coefficient`` per scheme (slow, for tests)."""
    out, flags = [], set(series.flags)
    for gen, coeff in series.terms:
        for report, slots in _reference_schemes(gen, None, series.mode,
                                                max_eps_degree, flags):
            if report.exponent < 0:
                flags.add("negative-eps")
            if series.mode.kind == "matrix":
                kernels = [KernelSymbol(symbol)] * len(slots)
            else:
                kernels = [KernelSymbol(symbol, tuple(sorted(
                    [(u.label, u.conjugated), (v.label, v.conjugated)])))
                    for u, v in slots]
            sign = -1 if negate and report.pair_count % 2 else 1
            mono = Coefficient.monomial(_reference_monomial(report, kernels), sign)
            out.append((result_generator(report), coeff * mono))
    return Series.build(series.mode, out, flags)
