"""Kernel-change maps: expanding one ordering in another ordering's basis."""

from fractions import Fraction
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from multitrace import (
    Coefficient,
    KERNEL,
    KernelSymbol,
    MATRIX,
    Mode,
    OracleConfig,
    Series,
    Slot,
    ZERO,
    expectation,
    forget_labels,
    make_generator,
    oracle_moment,
    parse_series,
    product,
    star,
    transport,
    transport_roundtrip_check,
)

from helpers import MODES, generators, scalars, series_of, shaped

F_SYM = KernelSymbol("F")
G_SYM = KernelSymbol("g")


def test_two_slot_trace():
    got = transport(series_of((2,)))
    assert got == parse_series("eps^-1*hbar*F*W{} + 1*W{Tr[x1 x2]}", MATRIX)
    assert "negative-eps" in got.flags


def test_zero_shift_is_the_identity():
    src = series_of((3,))
    got = transport(src).map_coefficients(
        lambda c: c.substitute({"F": ZERO}))
    assert got == src


@pytest.mark.parametrize("shape", [(1,), (2,), (3,), (4,), (2, 2), (2, 1)])
def test_roundtrip_cancels_exactly(shape):
    assert transport_roundtrip_check(series_of(shape)).is_zero()


def scalar_count(a, n):
    # partial matchings: choose 2n slots, then match them up
    return factorial(a) // (2 ** n * factorial(n) * factorial(a - 2 * n))


@pytest.mark.parametrize("a", [1, 2, 3, 4, 5])
def test_multiplicities_match_the_matching_count(a):
    # a pair inside a trace cuts it in two, so single shapes split into
    # multi-trace ones; at one dimension (eps = 1) traces multiply and
    # the totals per surviving size must reduce to the scalar matching
    # count a! / (2^n n! (a-2n)!)
    folded = forget_labels(transport(series_of((a,))))
    env = {"eps": Fraction(1), "hbar": Fraction(1), "F": Fraction(1)}
    by_size = {}
    for gen, coeff in folded.terms:
        by_size[gen.size] = by_size.get(gen.size, 0) + coeff.eval(env)
    for n in range(a // 2 + 1):
        assert by_size.get(a - 2 * n, 0) == scalar_count(a, n)


def test_adjacent_and_split_pairs_of_a_four_slot_trace():
    # of the six single-pair matchings of Tr[x1 x2 x3 x4], four join
    # neighbours (leaving one two-slot trace and a free index loop) and
    # two join opposite slots (cutting the trace into two singletons)
    folded = forget_labels(transport(series_of((4,))))
    env = {"eps": Fraction(1), "hbar": Fraction(1), "F": Fraction(1)}
    two = make_generator([[Slot("x"), Slot("x")]], MATRIX)
    split = make_generator([[Slot("x")], [Slot("x")]], MATRIX)
    assert folded.coefficient(two).eval(env) == 4
    assert folded.coefficient(split).eval(env) == 2


def test_kernel_mode_records_slot_pairs():
    got = transport(series_of((2,), mode=KERNEL))
    want = parse_series("eps^-1*hbar*F(x1,x2)*W{} + 1*W{Tr[x1 x2]}", KERNEL)
    assert got == want


def test_negate_flips_the_pair_symbol():
    src = series_of((4,))
    minus_f = -Coefficient.kernel(F_SYM)
    assert transport(src, negate=True) \
        == transport(src).map_coefficients(
            lambda c: c.substitute({"F": minus_f}))


@pytest.mark.parametrize("n,c", [(2, Fraction(1)), (2, Fraction(1, 2)),
                                 (3, Fraction(1))])
def test_unordering_reproduces_raw_moments(n, c):
    # writing the ordered generator in the unordered basis and taking
    # the state must agree with a raw brute-force moment
    for shape in [(2,), (4,), (2, 2)]:
        gens = [shaped(shape)]
        cfg = OracleConfig(n=n, covariance=c)
        claim = expectation(transport(series_of(shape)))
        env = {"eps": Fraction(1, n), "hbar": Fraction(1), "F": c}
        assert claim.eval(env) == oracle_moment(gens, cfg, allow_intra=True)


@pytest.mark.parametrize("sa,sb", [((1,), (1,)), ((2,), (1,)), ((2,), (2,))])
def test_transport_is_an_algebra_map(sa, sb):
    # multiply in the source ordering then change basis: same as changing
    # basis first and multiplying with the shifted pair weight g + F
    a, b = series_of(sa), series_of(sb, prefix="y")
    lhs = transport(product(a, b))
    g_plus_f = Coefficient.kernel(G_SYM) + Coefficient.kernel(F_SYM)
    rhs = product(transport(a), transport(b)).map_coefficients(
        lambda c: c.substitute({"g": g_plus_f}))
    assert lhs == rhs


# -- the *-isomorphism laws on random multi-term series ------------------------


def scalar_series(mode, prefix, max_legs):
    """One to three terms with kernel-free coefficients, so that a kernel
    substitution reaches only the kernels the engine wrote."""
    terms = st.tuples(generators(mode, prefix, max_legs), scalars)
    return st.lists(terms, min_size=1, max_size=3).map(lambda entries: Series.build(mode, entries))


def substitute_kernels(series, name, value):
    """Replace every kernel symbol called ``name`` by the coefficient ``value(symbol)``."""
    return series.map_coefficients(lambda c: c.substitute(
        {sym.render(): value(sym) for mono, _ in c.terms for sym, _ in mono.kernels
         if sym.name == name}))


def kernels(*names):
    """The sum of the kernel symbols ``names`` over the arguments of a symbol."""
    return lambda sym: sum((Coefficient.kernel(KernelSymbol(n, sym.args)) for n in names), ZERO)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), mode=st.sampled_from(MODES))
def test_transports_compose_by_adding_their_shifts(data, mode):
    s = data.draw(scalar_series(mode, "x", 4))
    twice = transport(transport(s, symbol="F"), symbol="G")
    once = substitute_kernels(transport(s, symbol="H"), "H", kernels("F", "G"))
    assert twice.terms == once.terms


@settings(max_examples=40, deadline=None)
@given(data=st.data(), mode=st.sampled_from(MODES))
def test_transport_is_an_algebra_map_on_series(data, mode):
    # the product pair weight shifts by the difference kernel: g -> g + F, and
    # K(u,v) -> K(u,v) + F(u,v) with F's arguments in its sorted order
    a, b = data.draw(scalar_series(mode, "x", 3)), data.draw(scalar_series(mode, "y", 3))
    if mode.kind == "matrix":
        name, shift = "g", kernels("g", "F")
    else:
        name, shift = "K", lambda sym: Coefficient.kernel(sym) + Coefficient.kernel(
            KernelSymbol("F", tuple(sorted(sym.args))))
    rhs = substitute_kernels(product(transport(a), transport(b)), name, shift)
    assert transport(product(a, b)).terms == rhs.terms


@settings(max_examples=40, deadline=None)
@given(data=st.data(), mode=st.sampled_from([MATRIX, Mode("matrix", 2)]))
def test_star_commutes_with_transport_in_matrix_mode(data, mode):
    s = data.draw(scalar_series(mode, "x", 5))
    assert star(transport(s)).terms == transport(star(s)).terms
