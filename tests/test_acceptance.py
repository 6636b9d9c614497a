"""The thirteen-point acceptance sweep.

Each criterion is one test; on success it prints a single PASS line
(visible with ``-s`` or in the captured-output section), and a failing
assert leaves the matching FAIL entry in the pytest report instead.
All comparisons are exact rational arithmetic, tolerance zero.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import factorial
from pathlib import Path

from multitrace import (
    KERNEL,
    MATRIX,
    Mode,
    OracleConfig,
    Series,
    Slot,
    analyze,
    commutator,
    connected_degree_bound,
    eval_environment,
    expectation,
    forget_labels,
    FieldDescriptor,
    free_normalization_exponent,
    interacting_normalization_exponent,
    legs_of,
    make_generator,
    moment,
    moment_with_ordering,
    nested_commutator_sym,
    oracle_moment,
    parse_coefficient,
    parse_series,
    product,
    render_series,
    restrict_colors,
    rg_strength_exponent,
    sample_matrix_identity,
    series_degree,
    series_from_json,
    series_to_json,
    strip_colors,
    substitute_block_ratio,
    thooft_coupling_exponent,
    transport,
    transport_roundtrip_check,
)
from multitrace.cli import main as cli_main

from helpers import named, random_series, reference_pairings, series_of, shaped

MANIFEST = Path(__file__).resolve().parent.parent / "manifests" / "acceptance.txt"

SHAPES_LE4 = [
    (1,),
    (2,), (1, 1),
    (3,), (2, 1), (1, 1, 1),
    (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
]

SAMPLED_PAIRS = [
    ((6,), (4,)), ((6,), (2,)), ((5,), (3,)), ((5,), (5,)),
    ((3, 3), (2, 2)), ((4, 2), (4,)), ((6,), (3,)), ((2, 2, 2), (2,)),
]

CONFIGS = [OracleConfig(n=n, covariance=c)
           for n in (1, 2, 3) for c in (Fraction(1), Fraction(1, 2))]


def note(k, text):
    print(f"criterion {k:>2} PASS: {text}")


@lru_cache(maxsize=None)
def pair_products():
    """Every unordered shape pair with four or fewer legs per factor."""
    out = []
    for i, sa in enumerate(SHAPES_LE4):
        for sb in SHAPES_LE4[i:]:
            out.append((shaped(sa), shaped(sb, "y"),
                        product(series_of(sa), series_of(sb, "y"))))
    return tuple(out)


def random_shape(rng, size):
    shape = []
    while size:
        part = rng.randint(1, size)
        shape.append(part)
        size -= part
    return tuple(shape)


def random_generator(rng, mode, size, prefix):
    n = 0
    words = []
    for length in random_shape(rng, size):
        word = []
        for _ in range(length):
            n += 1
            conj = mode.kind == "kernel" and rng.random() < 0.4
            word.append(Slot(f"{prefix}{n}", conj))
        words.append(word)
    return make_generator(words, mode)


@lru_cache(maxsize=None)
def associativity_triples():
    """Random factor triples, both modes, with both association orders."""
    rng = random.Random(20260814)
    cases = []
    for mode in (MATRIX, KERNEL):
        made = 0
        while made < 110:
            sizes = [rng.randint(1, 4) for _ in range(3)]
            if sum(sizes) > 8:
                continue
            a, b, c = (Series.of(random_generator(rng, mode, size, prefix), mode)
                       for size, prefix in zip(sizes, "abd"))
            cases.append((mode, a, b, c,
                          product(product(a, b), c), product(a, product(b, c))))
            made += 1
    return tuple(cases)


def census_check(ga, gb, mode=MATRIX):
    """Assert the counting identities on every scheme of one pair."""
    graphs = 0
    legs = legs_of(ga, 0) + legs_of(gb, 1)
    for pairing in reference_pairings(legs_of(ga, 0), legs_of(gb, 1)):
        r = analyze(named(pairing, legs), ga, gb, mode)
        out_size = sum(len(w) for w in r.output_words)
        assert sum(c.faces for c in r.components) \
            == r.pure_loop_count + r.current_loop_count
        assert 2 * len(r.pairs) == ga.size + gb.size - out_size
        assert sum(c.vertices for c in r.components) \
            == ga.trace_count + gb.trace_count - r.d_count
        for comp in r.components:
            assert comp.faces - comp.pairs + comp.vertices \
                == 2 - 2 * comp.handles
            assert comp.handles >= 0
        graphs += 1
    return graphs


def test_criterion_01_oracle_equivalence():
    checked = 0
    for ga, gb, prod in pair_products():
        claim = expectation(prod)
        for cfg in CONFIGS:
            assert claim.eval(eval_environment(cfg)) \
                == oracle_moment([ga, gb], cfg)
            checked += 1
    for sa, sb in SAMPLED_PAIRS:
        gens = [shaped(sa), shaped(sb, "y")]
        claim = moment(gens, MATRIX)
        for cfg in CONFIGS:
            assert claim.eval(eval_environment(cfg)) \
                == oracle_moment(gens, cfg)
            checked += 1
    note(1, f"engine == oracle on {checked} (pair, N, c) evaluations")


def test_criterion_02_associativity():
    for mode, a, b, c, left, right in associativity_triples():
        assert left == right
    note(2, f"(A*B)*C == A*(B*C) on {len(associativity_triples())} random "
            "triples across both modes")


def test_criterion_03_census_identities():
    graphs = 0
    for ga, gb, _ in pair_products():
        graphs += census_check(ga, gb)
    for sa, sb in SAMPLED_PAIRS[:4]:
        graphs += census_check(shaped(sa), shaped(sb, "y"))
    triples = associativity_triples()
    for mode, a, b, c, left, right in triples[:20] + triples[110:130]:
        (ga, _), = a.terms
        (gb, _), = b.terms
        graphs += census_check(ga, gb, mode)
    note(3, f"face, pair, vertex and genus countings agree on {graphs} schemes")


def test_criterion_04_positive_grading():
    coeffs = 0
    for _, _, prod in pair_products():
        for _, coeff in prod.terms:
            degree = coeff.eps_min_degree()
            assert degree is not None and degree >= 0
            coeffs += 1
    for _, _, _, _, left, right in associativity_triples():
        for series in (left, right):
            for _, coeff in series.terms:
                degree = coeff.eps_min_degree()
                assert degree is not None and degree >= 0
                coeffs += 1
    note(4, f"all {coeffs} product-mode structure constants have "
            "integer eps-degree >= 0")


def test_criterion_05_square_graph_census():
    ga, gb = shaped((3, 3)), shaped((3, 3), "y")
    hits = 0
    legs = legs_of(ga, 0) + legs_of(gb, 1)
    for pairing in reference_pairings(legs_of(ga, 0), legs_of(gb, 1)):
        r = analyze(named(pairing, legs), ga, gb)
        if (r.d_count, r.pure_loop_count, r.current_loop_count) != (0, 1, 1):
            continue
        if len(r.components) != 1:
            continue
        comp, = r.components
        if (comp.vertices, comp.handles) != (4, 0):
            continue
        if r.exponent != 3:
            continue
        out = tuple(sorted(len(w) for w in r.output_words))
        if out == (4,):
            hits += 1
    assert hits > 0
    note(5, f"W(3,3)*W(3,3) contains {hits} schemes with D=0 I=1 J=1, "
            "one V=4 H=0 component, exponent 3, output W(4)")


def test_criterion_06_connected_degree_bounds():
    from multitrace import connected_product

    rng = random.Random(6)
    checked = 0
    for k in (2, 3, 4):
        for _ in range(6):
            shapes = [(rng.randint(1, 2),) for _ in range(k)]
            factors = [series_of(s, prefix=chr(ord("a") + i))
                       for i, s in enumerate(shapes)]
            conn = connected_product(factors)
            degree = series_degree(conn)
            assert degree is None or degree >= k - 2
            checked += 1
    multi = [
        [(1, 1), (2,)],
        [(2, 1), (1,), (1,)],
        [(1, 1), (1, 1), (2,)],
        [(2, 2), (2,)],
    ]
    for shapes in multi:
        factors = [series_of(s, prefix=chr(ord("a") + i))
                   for i, s in enumerate(shapes)]
        conn = connected_product(factors)
        bound = connected_degree_bound([len(s) for s in shapes])
        degree = series_degree(conn)
        assert degree is None or degree >= bound
        checked += 1
    note(6, f"connected products met their degree bounds in {checked} runs")


def test_criterion_07_nested_commutator_symmetrization():
    cases = [
        ([(2,)], (2,)),
        ([(1,)], (3,)),
        ([(1,), (2,)], (2,)),
        ([(1,), (1,)], (3,)),
        ([(2,), (2,)], (2,)),
        ([(1,), (1,), (1,)], (2,)),
        ([(1,), (1,), (1,)], (3,)),
    ]
    for a_shapes, b_shape in cases:
        a_list = [series_of(s, prefix=chr(ord("a") + i), mode=KERNEL)
                  for i, s in enumerate(a_shapes)]
        b = series_of(b_shape, prefix="z", mode=KERNEL)
        lhs, rhs = nested_commutator_sym(a_list, b)
        assert lhs == rhs
    note(7, f"symmetrized nested commutators match their connected "
            f"expansion on {len(cases)} kernel-mode cases")


COLORED = Mode("matrix", 2)
BLOCKS = [(1, 1), (1, 2), (2, 1)]


def colored_gen(shape, colors, prefix="x"):
    return shaped(shape, prefix, COLORED, colors)


def test_criterion_08_colored_algebra():
    # (a) engine moments against the block oracle
    pairs = [
        (colored_gen((1,), (1,)), colored_gen((1,), (1,), "y")),
        (colored_gen((1,), (1,)), colored_gen((1,), (2,), "y")),
        (colored_gen((2,), (1, 2)), colored_gen((2,), (1, 2), "y")),
        (colored_gen((2,), (1, 1)), colored_gen((2,), (1, 1), "y")),
        (colored_gen((2,), (2, 2)), colored_gen((2,), (2, 2), "y")),
        (colored_gen((1, 1), (1, 2)), colored_gen((1, 1), (1, 2), "y")),
    ]
    checked = 0
    for ga, gb in pairs:
        claim = moment([ga, gb], COLORED)
        for blocks in BLOCKS:
            for c in (Fraction(1), Fraction(1, 2)):
                cfg = OracleConfig(n=sum(blocks), block_sizes=blocks,
                                   covariance=c)
                assert claim.eval(eval_environment(cfg)) \
                    == oracle_moment([ga, gb], cfg)
                checked += 1

    # (b) the mixed-projector square: one of two complete pairings survives
    ga = colored_gen((2,), (1, 2))
    gb = colored_gen((2,), (1, 2), "y")
    prod = product(Series.of(ga, COLORED), Series.of(gb, COLORED))
    assert expectation(prod) == parse_coefficient("hbar^2*s1*s2*g^2", COLORED)
    legs = legs_of(ga, 0) + legs_of(gb, 1)
    complete = [analyze(named(p, legs), ga, gb, COLORED)
                for p in reference_pairings(legs_of(ga, 0), legs_of(gb, 1))
                if len(p) == 2]
    assert sum(1 for r in complete if not r.weight_zero) == 1

    # (c) the one-color corner reproduces the uncolored constants
    for sa, sb in [((2,), (2,)), ((2, 1), (1,)), ((3,), (3,))]:
        ca = Series.of(colored_gen(sa, (1,)), COLORED)
        cb = Series.of(colored_gen(sb, (1,), "y"), COLORED)
        corner = strip_colors(substitute_block_ratio(
            restrict_colors(product(ca, cb), [1]), 1, Fraction(1)))
        assert corner == product(series_of(sa), series_of(sb, "y"))

    note(8, f"colored moments matched the block oracle {checked} times; "
            "mixed loops vanish; the one-color corner is the uncolored algebra")


def test_criterion_09_transport():
    # (a) shifting by F and back by -F is the identity
    for shape in SHAPES_LE4:
        assert transport_roundtrip_check(series_of(shape)).is_zero()

    # (b) ordering change against the two-covariance oracle, F = c - c'
    singles = [(2,), (4,), (2, 2)]
    pairs = [((2,), (2,)), ((3,), (3,)), ((2, 1), (1,))]
    covariances = [(Fraction(1), Fraction(1, 2)),
                   (Fraction(1, 2), Fraction(1)),
                   (Fraction(2, 3), Fraction(1, 3))]
    checked = 0
    for c, c_prime in covariances:
        f_value = c - c_prime
        for n in (1, 2, 3):
            env = {"eps": Fraction(1, n), "hbar": Fraction(1),
                   "F": f_value, "g": c}
            env_src = dict(env, g=c_prime)
            cfg = OracleConfig(n=n, covariance=c)
            for shape in singles:
                target = moment_with_ordering([shaped(shape)], cfg, c_prime)
                moved = expectation(transport(series_of(shape))).eval(env)
                assert moved == target
                checked += 1
            for sa, sb in pairs:
                a, b = series_of(sa), series_of(sb, "y")
                target = moment_with_ordering(
                    [shaped(sa), shaped(sb, "y")], cfg, c_prime)
                move_late = expectation(transport(product(a, b))).eval(env_src)
                move_early = expectation(
                    product(transport(a), transport(b))).eval(env)
                assert move_late == target
                assert move_early == target
                checked += 2

    # (c) the scalar shadow of the shift reproduces the matching counts
    #     a!/(2^n n!(a-2n)!); the closed form cited alongside them,
    #     a!/((2n)!(a-2n)!), agrees everywhere below four legs but
    #     undercounts the six-of-eight case (4,2), where three complete
    #     matchings exist and the formula gives one. The roundtrip and
    #     oracle checks above force three, so three it is, and this test
    #     pins the one measured disagreement.
    def cited(a, n):
        return factorial(a) // (factorial(2 * n) * factorial(a - 2 * n))

    def matchings(a, n):
        return factorial(a) // (2 ** n * factorial(n) * factorial(a - 2 * n))

    env_one = {"eps": Fraction(1), "hbar": Fraction(1), "F": Fraction(1)}
    for a in (1, 2, 3, 4):
        folded = forget_labels(transport(series_of((a,))))
        by_size = {}
        for gen, coeff in folded.terms:
            by_size[gen.size] = by_size.get(gen.size, 0) + coeff.eval(env_one)
        for n in range(a // 2 + 1):
            engine = by_size.get(a - 2 * n, 0)
            assert engine == matchings(a, n)
            if (a, n) == (4, 2):
                assert engine == 3 and cited(a, n) == 1
            else:
                assert cited(a, n) == matchings(a, n)

    # (d) the two-slot self-contraction drops below eps^0 and says so
    moved = transport(series_of((2,)))
    assert expectation(moved) == parse_coefficient("eps^-1*hbar*F", MATRIX)
    assert expectation(moved).eps_min_degree() == -1
    assert "negative-eps" in moved.flags

    note(9, f"transport: roundtrip identity, {checked} two-covariance oracle "
            "matches, scalar counts with the (4,2) deviation pinned, and the "
            "flagged eps^-1 term")


def test_criterion_10_hbar_grading():
    constants = 0
    for _, _, prod in pair_products():
        for _, coeff in prod.terms:
            for mono, _ in coeff.terms:
                assert mono.hbar == sum(p for _, p in mono.kernels)
                constants += 1
    for mode, a, b, c, left, _ in associativity_triples():
        for _, coeff in left.terms:
            for mono, _ in coeff.terms:
                assert mono.hbar == sum(p for _, p in mono.kernels)
                constants += 1
    flattened = 0
    kernel_pairs = [(a, b) for mode, a, b, *_ in associativity_triples()
                    if mode is KERNEL][:40]
    for a, b in kernel_pairs:
        comm = commutator(a, b)
        classical = comm.map_coefficients(
            lambda coeff: coeff.substitute({"hbar": 0}))
        assert classical.is_zero()
        flattened += 1
    note(10, f"hbar power == propagator count on {constants} constants; "
             f"hbar=0 commutes {flattened} kernel pairs")


def test_criterion_11_small_size_trace_relation():
    relation = [
        (Fraction(1), [3]),
        (Fraction(-3, 2), [1, 2]),
        (Fraction(1, 2), [1, 1, 1]),
    ]
    assert sample_matrix_identity(relation, 2, trials=20)
    assert not sample_matrix_identity(relation, 3, trials=20)
    note(11, "the cubic trace relation holds at size 2 (20 exact samples) "
             "and fails at size 3")


def test_criterion_12_scaling_exponents():
    assert thooft_coupling_exponent(FieldDescriptor(1, 4)) == 1
    assert interacting_normalization_exponent(FieldDescriptor(1, 2)) == 2
    descriptors = [FieldDescriptor(0, 0)] + [
        FieldDescriptor(t, n) for t in range(1, 5) for n in range(t, 9)]
    for d in descriptors:
        assert interacting_normalization_exponent(d) \
            == free_normalization_exponent(d) + d.traces
        assert thooft_coupling_exponent(d) \
            == interacting_normalization_exponent(d) - 2
    for d1 in descriptors:
        for d2 in descriptors:
            assert rg_strength_exponent(d1, d2) \
                == interacting_normalization_exponent(d1) \
                - interacting_normalization_exponent(d2)
    note(12, f"exponent table examples and identities over "
             f"{len(descriptors)} descriptors")


def test_criterion_13_round_trips_and_manifest(capsys):
    modes = [MATRIX, KERNEL, Mode("matrix", 2), Mode("kernel", 3)]
    rng = random.Random(13)
    for mode in modes:
        for _ in range(125):
            s = random_series(rng, mode)
            assert parse_series(render_series(s), mode) == s
            blob = series_to_json(s)
            assert series_from_json(blob) == s
            assert series_to_json(series_from_json(blob)) == blob

    code = cli_main(["verify", str(MANIFEST)])
    first = capsys.readouterr()
    assert code == 0
    assert "0 checks" not in first.out
    code = cli_main(["verify", str(MANIFEST)])
    second = capsys.readouterr()
    assert code == 0
    assert first.out == second.out

    note(13, "500 parser round-trips, shipped manifest verified twice "
             "with byte-identical output")
