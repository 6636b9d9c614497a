"""Ring laws, evaluation, and rendering of exact coefficients."""

import re
from fractions import Fraction
from math import comb

import pytest
import hypothesis.strategies as st
from hypothesis import given

from multitrace import (
    KERNEL,
    Coefficient,
    CoefficientError,
    KernelSymbol,
    Monomial,
    ObservableError,
    ONE,
    Slot,
    ZERO,
    parse_coefficient,
    parse_series,
)
from multitrace.coeffring import IDENTIFIER, is_identifier

from helpers import (EVAL_ENV, KERNEL_POOL, coefficients, eps_max_degree, monomials,
                     rational_value, rationals, reference_coefficient_product,
                     reference_substitute)

G = KernelSymbol("g")
K_XY = KernelSymbol("K", (("x1", False), ("y2", False)))


class TestRingLaws:
    @given(coefficients(), coefficients(), coefficients())
    def test_addition_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(coefficients(even_eps=False), coefficients(even_eps=False))
    def test_product_equals_the_pairwise_reference(self, a, b):
        assert a * b == reference_coefficient_product(a, b)
        # dense sums with shared denominators, where many pairs meet on one monomial
        dense = Coefficient.build(a.terms + ((Monomial(eps_half=2), Fraction(1, 3)),))
        assert dense * dense * a == reference_coefficient_product(
            reference_coefficient_product(dense, dense), a)

    def test_dense_powers_have_binomial_coefficients(self):
        got = (ONE + Coefficient.eps()).power(64)
        assert got.terms == tuple((Monomial(eps_half=2 * k), Fraction(comb(64, k)))
                                  for k in range(65))
        assert all(type(q) is Fraction for _, q in got.terms)

    @given(coefficients(), coefficients(), coefficients())
    def test_multiplication_laws(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(coefficients())
    def test_identities(self, a):
        assert ONE * a == a
        assert ZERO + a == a
        assert ZERO * a == ZERO
        assert a - a == ZERO
        assert -(-a) == a

    @given(coefficients(even_eps=False))
    def test_laws_hold_on_half_unit_exponents(self, a):
        # arithmetic never forces an eps_degree call, so odd half-units
        # are fine until something tries to print or evaluate them
        assert a + a == a.scale(Fraction(2))
        assert a - a == ZERO


@given(monomials(even_eps=False), st.randoms())
def test_unsorted_lists_build_equal_monomials(mono, rnd):
    # fresh symbols, every power split into unit entries, in a shuffled order
    s = [(color, 1) for color, power in mono.s for _ in range(power)]
    kernels = [(KernelSymbol(sym.name, sym.args), 1)
               for sym, power in mono.kernels for _ in range(power)]
    rnd.shuffle(s)
    rnd.shuffle(kernels)
    again = Monomial(mono.eps_half, mono.hbar, tuple(s), tuple(kernels))
    assert again == mono and hash(again) == hash(mono) and again.key() == mono.key()
    assert (again.s, again.kernels) == (mono.s, mono.kernels)


class TestEvaluation:
    @given(coefficients(), coefficients())
    def test_eval_is_a_ring_homomorphism(self, a, b):
        env = EVAL_ENV
        assert (a + b).eval(env) == a.eval(env) + b.eval(env)
        assert (a * b).eval(env) == a.eval(env) * b.eval(env)

    def test_eval_examples(self):
        eps2 = Coefficient.eps(2)
        assert eps2.eval({"eps": Fraction(1, 2)}) == Fraction(1, 4)
        two_g2 = Coefficient.kernel(G, 2).scale(Fraction(2))
        assert two_g2.eval({"g": Fraction(1)}) == 2
        mixed = Coefficient.block_ratio(1) * Coefficient.block_ratio(2) \
            * Coefficient.kernel(G, 2)
        env = {"s1": Fraction(1, 3), "s2": Fraction(2, 3), "g": Fraction(1)}
        assert mixed.eval(env) == Fraction(2, 9)

    def test_eval_names_the_missing_symbol(self):
        with pytest.raises(CoefficientError, match="g"):
            Coefficient.kernel(G).eval({"eps": Fraction(1)})
        with pytest.raises(CoefficientError, match="s2"):
            Coefficient.block_ratio(2).eval({"s1": Fraction(1)})

    def test_eval_rejects_odd_half_units(self):
        half = Coefficient.monomial(Monomial(eps_half=1))
        with pytest.raises(CoefficientError):
            half.eval({"eps": Fraction(1, 4)})


class TestDegreesAndCancellation:
    def test_like_terms_merge(self):
        half_eps = Coefficient.eps().scale(Fraction(1, 2))
        assert half_eps + half_eps == Coefficient.eps()

    def test_exact_cancellation(self):
        term = Coefficient.eps() * Coefficient.kernel(G)
        assert term.scale(Fraction(2)) - term.scale(Fraction(2)) == ZERO

    def test_exponent_addition(self):
        assert Coefficient.eps() * Coefficient.eps(2) == Coefficient.eps(3)

    def test_polynomial_identity(self):
        eps = Coefficient.eps()
        assert (eps + ONE) * (eps - ONE) == eps * eps - ONE

    def test_eps_degree_range(self):
        poly = Coefficient.eps(2) + Coefficient.eps(5)
        assert poly.eps_min_degree() == 2
        assert eps_max_degree(poly) == 5
        assert Coefficient.rational(Fraction(3)).eps_min_degree() == 0
        assert ZERO.eps_min_degree() is None
        assert eps_max_degree(ZERO) is None

    def test_shift_eps_half(self):
        assert Coefficient.eps(2).shift_eps_half(-4) == ONE
        assert ZERO.shift_eps_half(6) == ZERO


class TestPowers:
    def test_negative_power_of_eps(self):
        inv = Coefficient.eps().power(-1)
        assert inv == Coefficient.monomial(Monomial(eps_half=-2))
        assert inv * Coefficient.eps() == ONE

    def test_negative_power_of_rational(self):
        assert Coefficient.rational(Fraction(2)).power(-2) \
            == Coefficient.rational(Fraction(1, 4))

    def test_zeroth_power(self):
        assert Coefficient.hbar(3).power(0) == ONE
        assert ZERO.power(0) == ONE

    @given(coefficients())
    def test_powers_equal_repeated_multiplication(self, a):
        acc = ONE
        for exponent in range(10):
            assert a.power(exponent) == acc
            acc = acc * a

    def test_binomial_powers(self):
        power = (ONE + Coefficient.eps()).power(64)
        assert [(m.eps_degree, q) for m, q in power.terms] == \
            [(k, comb(64, k)) for k in range(65)]

    def test_uninvertible_raise(self):
        with pytest.raises(CoefficientError):
            Coefficient.hbar().power(-1)
        with pytest.raises(CoefficientError):
            (ONE + Coefficient.eps()).power(-1)
        with pytest.raises(CoefficientError):
            ZERO.power(-1)

    @given(coefficients(), rationals)
    def test_scale_matches_rational_multiplication(self, a, q):
        assert a.scale(q) == Coefficient.rational(q) * a


class TestStar:
    def test_kernel_symbol_star_swaps_and_conjugates(self):
        sym = KernelSymbol("K", (("x", False), ("y", False)))
        assert sym.star() == KernelSymbol("K", (("y", True), ("x", True)))

    @given(coefficients(), coefficients())
    def test_star_is_an_involutive_ring_map(self, a, b):
        assert a.star().star() == a
        assert (a + b).star() == a.star() + b.star()
        assert (a * b).star() == a.star() * b.star()


class TestRendering:
    def test_monomial_render_golden(self):
        mono = Monomial(eps_half=4, hbar=1, s=((1, 1),), kernels=((K_XY, 2),))
        coeff = Coefficient.monomial(mono, Fraction(3, 2))
        assert coeff.render() == "3/2*eps^2*hbar*s1*K(x1,y2)^2"

    def test_sums_and_signs(self):
        assert (ONE - Coefficient.eps()).render() == "1 - eps"
        assert (-ONE - Coefficient.eps()).render() == "-1 - eps"
        assert ZERO.render() == "0"
        assert Coefficient.eps(-1).render() == "eps^-1"

    def test_render_rejects_stray_half_units(self):
        with pytest.raises(CoefficientError):
            Coefficient.monomial(Monomial(eps_half=3)).render()


class TestSubstitution:
    def test_substitute_expands_products(self):
        g = Coefficient.kernel(G)
        f = Coefficient.kernel(KernelSymbol("F"))
        shifted = Coefficient.kernel(G, 2).substitute({"g": g + f})
        assert shifted == g * g + (g * f).scale(Fraction(2)) + f * f

    def test_substitute_hbar_to_one(self):
        coeff = Coefficient.hbar(2) * Coefficient.kernel(G)
        assert coeff.substitute({"hbar": ONE}) == Coefficient.kernel(G)

    def test_substitute_to_zero_with_zeroth_power(self):
        # untouched monomials must survive a zero substitution
        poly = Coefficient.hbar() + Coefficient.eps()
        assert poly.substitute({"hbar": ZERO}) == Coefficient.eps()

    def test_eps_assignments_are_ignored(self):
        # eps is the grading variable; substitute leaves it alone
        poly = Coefficient.eps() + Coefficient.hbar()
        assert poly.substitute({"eps": ZERO, "hbar": ONE}) \
            == Coefficient.eps() + ONE

    @given(coefficients(), st.dictionaries(
        st.sampled_from(["eps", "hbar", "s1", "s2"] + [sym.render() for sym in KERNEL_POOL]),
        st.one_of(rationals, coefficients()), max_size=4))
    def test_substitute_matches_the_fold(self, coeff, assignments):
        assert coeff.substitute(assignments) == reference_substitute(coeff, assignments)

    def test_substitute_builds_once(self, monkeypatch):
        # 720 terms, each with hbar and a kernel set to rationals or coefficients
        coeff = Coefficient.build(
            (Monomial(eps_half=2 * (k % 5), hbar=k % 7 + 1, s=((k % 2 + 1, 1),),
                      kernels=((G, k % 3 + 1), (K_XY, 1))), k) for k in range(1, 721))
        assignments = {"hbar": 1, "g": Coefficient.eps() + ONE, "s2": Fraction(1, 2)}
        want = reference_substitute(coeff, assignments)
        calls = []
        build = Coefficient.build

        def counting(entries):
            calls.append(1)
            return build(entries)

        monkeypatch.setattr(Coefficient, "build", staticmethod(counting))
        assert coeff.substitute(assignments) == want
        assert len(calls) == 1


class TestValidation:
    def test_kernel_symbol_arity(self):
        with pytest.raises(CoefficientError):
            KernelSymbol("K", (("x", False),))

    def test_kernel_symbol_name(self):
        with pytest.raises(CoefficientError):
            KernelSymbol("2bad")

    @pytest.mark.parametrize("label", ["x y", "x-1", "\u00e9", "x\n", "1x", "", 5, None])
    def test_slot_and_kernel_labels_must_be_parser_identifiers(self, label):
        with pytest.raises(ObservableError, match="bad slot label"):
            Slot(label)
        with pytest.raises(CoefficientError, match="bad kernel argument"):
            KernelSymbol("K", (("x1", False), (label, False)))

    def test_slot_and_kernel_conjugation_flags_must_be_bools(self):
        with pytest.raises(ObservableError, match="not a bool"):
            Slot("x1", 1)
        with pytest.raises(CoefficientError, match="bad kernel argument"):
            KernelSymbol("K", (("x1", "false"), ("y1", False)))

    @given(st.one_of(st.text(max_size=6), st.from_regex(IDENTIFIER, fullmatch=True)))
    def test_the_identifier_check_is_the_parser_rule(self, text):
        assert is_identifier(text) == (re.fullmatch(IDENTIFIER, text) is not None)

    @pytest.mark.parametrize("label", ["x", "_x", "X_1", "a1b2"])
    def test_identifier_labels_render_text_that_parses_back(self, label):
        slot = Slot(label, True, None)
        assert parse_series(f"W{{Tr[{slot.render()}]}}", KERNEL).terms[0][0].traces[0].slots \
            == (slot,)
        kernel = Coefficient.kernel(KernelSymbol("K", ((label, True), ("y1", False))))
        assert parse_coefficient(kernel.render(), KERNEL) == kernel

    def test_block_ratio_color_positive(self):
        with pytest.raises(CoefficientError):
            Coefficient.block_ratio(0)

    def test_rational_value_of_mixed_sum(self):
        assert rational_value(Coefficient.rational(Fraction(5, 3))) \
            == Fraction(5, 3)
        with pytest.raises(CoefficientError):
            rational_value(ONE + Coefficient.eps())
