"""Operator products, moments, brackets, connected parts, colors."""

import random
from fractions import Fraction

import pytest

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
)

from helpers import series_of, shaped


# -- products ---------------------------------------------------------------

def test_unit_is_neutral():
    a = series_of((2, 1))
    unit = Series.unit(MATRIX)
    assert product(a, unit) == a
    assert product(unit, a) == a


def test_product_of_two_singletons():
    out = product(series_of((1,)), series_of((1,), prefix="y"))
    assert out == parse_series("1*W{Tr[x1] Tr[y1]} + hbar*g*W{}", MATRIX)


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
        assert coeff.eps_max_degree() <= 0


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


def test_restrict_colors_validation():
    s = colored_single("x1", 1)
    with pytest.raises(AlgebraError):
        restrict_colors(s, [])
    with pytest.raises(AlgebraError):
        restrict_colors(s, [3])
    with pytest.raises(AlgebraError):
        restrict_colors(s, [1], relabel={1: 2})
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
