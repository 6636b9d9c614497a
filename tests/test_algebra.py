"""Operator products, moments, brackets, connected parts, colors."""

import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from multitrace import (
    AlgebraError,
    Coefficient,
    KERNEL,
    MATRIX,
    Mode,
    ONE,
    OracleConfig,
    Series,
    Slot,
    UNIT_GENERATOR,
    ZERO,
    classical_product,
    commutator,
    connected_product,
    expectation,
    make_generator,
    moment,
    nested_commutator_sym,
    oracle_moment,
    parse_coefficient,
    parse_series,
    poisson_bracket,
    product,
    product_chain,
    restrict_colors,
    star,
    strip_colors,
    substitute_block_ratio,
    transport,
)

from helpers import (eps_max_degree, generators, moment_matching_count, reference_product,
                     series_of, shaped)


# -- products ---------------------------------------------------------------

def test_unit_is_neutral():
    a = series_of((2, 1))
    unit = Series.unit(MATRIX)
    assert product(a, unit) == a
    assert product(unit, a) == a


def test_product_of_two_singletons():
    out = product(series_of((1,)), series_of((1,), prefix="y"))
    assert out == parse_series("1*W{Tr[x1] Tr[y1]} + hbar*g*W{}", MATRIX)


def test_products_refuse_factors_that_share_a_label():
    a, b = series_of((2,)), series_of((1,), prefix="x") + series_of((1,), prefix="y")
    c = series_of((1,), prefix="z")
    for call in (lambda: product(a, b), lambda: commutator(b, a),
                 lambda: product_chain([a, c, b]), lambda: connected_product([c, b, a]),
                 lambda: moment([shaped((2,)), shaped((1,))], MATRIX)):
        with pytest.raises(AlgebraError, match="'x1' appears in both factors"):
            call()


def test_products_refuse_mixed_modes_and_empty_factor_lists():
    with pytest.raises(AlgebraError, match="mode mismatch"):
        product(series_of((1,)), series_of((1,), "y", KERNEL))
    for call in (product_chain, connected_product):
        with pytest.raises(AlgebraError, match="need at least one factor"):
            call([])


def test_kernel_mode_refuses_a_generator_that_repeats_a_label():
    # K(x1,y1) would name two different pairs of legs
    twice = [[Slot("x1"), Slot("x1", True)]]
    with pytest.raises(AlgebraError, match="'x1' repeats in W"):
        transport(Series.of(make_generator(twice, KERNEL), KERNEL))
    with pytest.raises(AlgebraError, match="'x1' repeats in W"):
        product(Series.of(make_generator(twice, KERNEL), KERNEL), series_of((1,), "y", KERNEL))
    # each generator of some job is checked once, and the refusal names it
    bad = Series.of(make_generator(twice, KERNEL), KERNEL) + series_of((1,), "z", KERNEL)
    with pytest.raises(AlgebraError, match=r"repeats in W\{Tr\[x1 ~x1\]\}: kernel-mode"):
        product(series_of((1,), "y", KERNEL), bad)
    zero = Series.build(KERNEL, [], frozenset())   # no job, so nothing to refuse
    assert not product(zero, bad).terms and not product(bad, zero).terms
    # a matrix-mode kernel names no slot
    assert transport(Series.of(make_generator(twice, MATRIX), MATRIX))


def test_product_of_two_pairs():
    out = product(series_of((2,)), series_of((2,), prefix="y"))
    eps_hbar_g = parse_coefficient("eps*hbar*g", MATRIX)
    top = make_generator(
        [[Slot("x1"), Slot("x2")], [Slot("y1"), Slot("y2")]], MATRIX)
    assert out.coefficient(top) == ONE
    glue_terms = [(g, c) for g, c in out.terms if g.size == 2]
    assert len(glue_terms) == 4
    assert all(c == eps_hbar_g for _, c in glue_terms)
    assert expectation(out) == parse_coefficient("2*hbar^2*g^2", MATRIX)


def test_opposite_input_pairs_cancel_in_the_merge():
    # both pairs close to W{} with the same monomial and opposite signs
    a = parse_series("W{Tr[x1 x2]} - W{Tr[x3 x4]}", MATRIX)
    b = parse_series("W{Tr[y1 y2]}", MATRIX)
    assert product(series_of((2,)), b).coefficient(UNIT_GENERATOR) \
        == parse_coefficient("2*hbar^2*g^2", MATRIX)
    out = product(a, b)
    assert UNIT_GENERATOR not in [gen for gen, _ in out.terms]
    assert out == reference_product(a, b)


def test_product_is_associative():
    a, b, c = series_of((2,)), series_of((1,), "y"), series_of((2,), "z")
    assert product(product(a, b), c) == product(a, product(b, c))


def test_product_is_bilinear():
    a, b, c = series_of((2,)), series_of((1,), "y"), series_of((2,), "z")
    lam = Coefficient.eps() + Coefficient.hbar()
    lhs = product(a.scale(lam) + b, c)
    rhs = product(a, c).scale(lam) + product(b, c)
    assert lhs == rhs


def test_kernel_product_expectation():
    out = product(series_of((2,), mode=KERNEL), series_of((2,), "y", KERNEL))
    want = parse_coefficient(
        "hbar^2*K(x1,y1)*K(x2,y2) + hbar^2*K(x1,y2)*K(x2,y1)", KERNEL)
    assert expectation(out) == want


def test_truncation_is_flagged_and_sound():
    full = product(series_of((2,)), series_of((2,), "y"))
    cut = product(series_of((2,)), series_of((2,), "y"), max_eps_degree=0)
    assert "truncated" in cut.flags
    assert "truncated" not in full.flags
    assert expectation(cut) == expectation(full)
    for gen, coeff in cut.terms:
        assert coeff == full.coefficient(gen)
        assert eps_max_degree(coeff) <= 0


def test_truncation_counts_weight_zero_schemes():
    # both one-pair schemes sit above the cap, and both vanish: the
    # color-1 chain of x1 x2 meets the color-2 leg y1
    mode = Mode("matrix", 2)
    a = series_of((2,), mode=mode, colors=(1, 1))
    b = series_of((1,), "y", mode, colors=(2,))
    full = product(a, b)
    cut = product(a, b, max_eps_degree=0)
    assert cut == full
    assert "truncated" in cut.flags
    assert "truncated" not in full.flags


# -- moments ---------------------------------------------------------------

def test_moment_basics():
    assert moment([], MATRIX) == ONE
    assert moment([shaped((1,))], MATRIX) == ZERO
    assert moment([shaped((2,)), shaped((2,), "y")], MATRIX) \
        == parse_coefficient("2*hbar^2*g^2", MATRIX)
    assert moment([shaped((3,)), shaped((3,), "y")], MATRIX) \
        == parse_coefficient("3*hbar^3*g^3 + 3*eps^2*hbar^3*g^3", MATRIX)


def test_moment_matching_count_closed_form():
    assert moment_matching_count((4, 4, 4, 4)) == 368064
    assert moment_matching_count((3, 3)) == 6
    assert moment_matching_count((2, 3, 3)) == 36
    assert moment_matching_count((1, 1, 2, 2)) == 10


@settings(max_examples=60, deadline=None)
@given(data=st.data(), factors=st.integers(2, 4))
def test_moment_at_one_counts_the_cross_matchings(data, factors):
    """Every full scheme of a matrix moment has weight one, so at eps = hbar
    = g = 1 the moment counts the perfect matchings with no pair inside a
    factor (multi-trace factors included, at most 8 legs in all)."""
    gens = []
    for prefix in "xyzw"[:factors]:
        gens.append(data.draw(generators(MATRIX, prefix, 8 - sum(g.size for g in gens))))
    assert moment(gens, MATRIX).eval({"eps": 1, "hbar": 1, "g": 1}) \
        == moment_matching_count([g.size for g in gens])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("c", [Fraction(1), Fraction(1, 2)])
def test_moment_matches_brute_force(n, c):
    gens = [shaped((4,)), shaped((4,), "y")]
    cfg = OracleConfig(n=n, covariance=c)
    claim = moment(gens, MATRIX)
    env = {"eps": Fraction(1, n), "hbar": Fraction(1), "g": c}
    assert claim.eval(env) == oracle_moment(gens, cfg)


# -- brackets ----------------------------------------------------------------

def test_matrix_generators_commute():
    a, b = series_of((2,)), series_of((3,), "y")
    assert commutator(a, b).is_zero()


def test_kernel_commutator_of_singletons():
    a = series_of((1,), mode=KERNEL)
    b = series_of((1,), "y", KERNEL)
    want = parse_series("hbar*K(x1,y1)*W{} - hbar*K(y1,x1)*W{}", KERNEL)
    assert commutator(a, b) == want
    assert commutator(b, a) == -want


def test_poisson_bracket_needs_scaled_inputs():
    a = series_of((1,), mode=KERNEL)
    b = series_of((1,), "y", KERNEL)
    with pytest.raises(AlgebraError, match="not divisible"):
        poisson_bracket(a, b)
    eps = Coefficient.eps()
    got = poisson_bracket(a.scale(eps), b.scale(eps))
    assert got == parse_series("hbar*K(x1,y1)*W{} - hbar*K(y1,x1)*W{}", KERNEL)


def test_poisson_bracket_vanishes_in_matrix_mode():
    eps = Coefficient.eps()
    a = series_of((2,)).scale(eps)
    b = series_of((2,), "y").scale(eps)
    assert poisson_bracket(a, b).is_zero()


def test_commutators_carry_hbar():
    a = series_of((2,), mode=KERNEL)
    b = series_of((2,), "y", KERNEL)
    comm = commutator(a, b)
    assert not comm.is_zero()
    classical = comm.map_coefficients(lambda c: c.substitute({"hbar": ZERO}))
    assert classical.is_zero()


# -- connected parts ---------------------------------------------------------

def test_connected_of_one_factor_is_itself():
    a = series_of((2, 1))
    assert connected_product([a]) == a


def test_connected_pair_subtracts_the_classical_part():
    a, b = series_of((1,)), series_of((1,), "y")
    assert connected_product([a, b]) \
        == parse_series("hbar*g*W{}", MATRIX)


def test_moebius_reconstruction_for_three_factors():
    a, b, c = series_of((2,)), series_of((1,), "y"), series_of((1,), "z")
    conn = connected_product
    cp = classical_product
    rebuilt = (
        conn([a, b, c])
        + cp(conn([a, b]), conn([c]))
        + cp(conn([a, c]), conn([b]))
        + cp(conn([b, c]), conn([a]))
        + cp(cp(conn([a]), conn([b])), conn([c]))
    )
    assert rebuilt == product_chain([a, b, c])


@pytest.mark.parametrize("shapes,bound", [
    (((1,), (1,)), 0),
    (((2,), (2,), (2,)), 1),
    (((1,), (1,), (2,)), 1),
])
def test_connected_moment_degree_bound(shapes, bound):
    factors = [series_of(s, prefix=chr(ord("a") + i))
               for i, s in enumerate(shapes)]
    conn = expectation(connected_product(factors))
    assert conn.eps_min_degree() is None or conn.eps_min_degree() >= bound


def test_nested_commutator_symmetrization_identity():
    a1 = series_of((1,), "a", KERNEL)
    b = series_of((2,), "b", KERNEL)
    lhs, rhs = nested_commutator_sym([a1], b)
    assert lhs == rhs
    a2 = series_of((1,), "c", KERNEL)
    lhs, rhs = nested_commutator_sym([a1, a2], b)
    assert lhs == rhs


# -- star --------------------------------------------------------------------

def random_kernel_series(rng, prefix):
    shape = rng.choice([(1,), (2,), (1, 1), (2, 1)])
    words = []
    n = 0
    for length in shape:
        word = []
        for _ in range(length):
            n += 1
            word.append(Slot(f"{prefix}{n}", rng.random() < 0.5))
        words.append(word)
    return Series.of(make_generator(words, KERNEL), KERNEL)


def test_star_is_an_antihomomorphism():
    rng = random.Random(7)
    for _ in range(12):
        a = random_kernel_series(rng, "a")
        b = random_kernel_series(rng, "b")
        assert star(product(a, b)) == product(star(b), star(a))


# -- colors ------------------------------------------------------------------

COLORED = Mode("matrix", 2)


def colored_single(label, color):
    return Series.of(
        make_generator([[Slot(label, False, color)]], COLORED), COLORED)


def test_color_blocks_suppress_mixed_loops():
    out = product(colored_single("x1", 1), colored_single("y1", 2))
    assert expectation(out) == ZERO
    same = product(colored_single("x1", 1), colored_single("y1", 1))
    assert expectation(same) == parse_coefficient("hbar*s1*g", COLORED)


def test_restrict_colors_to_a_face():
    s = colored_single("x1", 1) \
        + colored_single("x2", 2).scale(Coefficient.block_ratio(2))
    kept = restrict_colors(s, [1])
    assert kept.mode == Mode("matrix", 1)
    assert kept == Series.of(
        make_generator([[Slot("x1", False, 1)]], Mode("matrix", 1)),
        Mode("matrix", 1))
    other = restrict_colors(s, [2])
    want_gen = make_generator([[Slot("x2", False, 1)]], Mode("matrix", 1))
    assert other.coefficient(want_gen) == Coefficient.block_ratio(1)


def test_restrict_colors_drops_block_ratios_outside_the_face():
    # hbar*s2*g is zero once color 2 is gone; the unit generator stays
    s = parse_series("hbar*s1*g*W{} + hbar*s2*g*W{}", COLORED)
    assert restrict_colors(s, [1]) == parse_series("hbar*s1*g*W{}", Mode("matrix", 1))


def test_restrict_colors_validation():
    s = colored_single("x1", 1)
    with pytest.raises(AlgebraError):
        restrict_colors(s, [])
    with pytest.raises(AlgebraError):
        restrict_colors(s, [3])
    with pytest.raises(AlgebraError):
        restrict_colors(series_of((1,)), [1])


def test_strip_colors_after_substitution():
    s = product(colored_single("x1", 1), colored_single("y1", 1))
    with pytest.raises(AlgebraError, match="block-ratio"):
        strip_colors(s)
    numeric = substitute_block_ratio(s, 1, Fraction(1, 2))
    flat = strip_colors(restrict_colors(numeric, [1]))
    assert flat.mode == MATRIX
    assert expectation(flat) == parse_coefficient("1/2*hbar*g", MATRIX)
