"""The shared scheme loop and the connected parts against the references in helpers."""

import io
from contextlib import redirect_stdout
from itertools import permutations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import multitrace.algebra
from multitrace import (KERNEL, MATRIX, Coefficient, Generator, KernelSymbol, Mode, Monomial,
                        Series, TraceWord, analyze, connected_product, enumerate_pairings,
                        expectation, legs_of, nested_commutator_sym, parse_series, product,
                        product_chain, render_series, result_generator, series_to_json,
                        transport)
from multitrace.algebra import product_pair_kernel, scheme_coefficient
from multitrace.cli import main
from multitrace.ribbon import census, rank_slots
from multitrace.transport import _difference_kernel

from helpers import (MODES, coefficients, generators, harer_zagier, product_scheme_count,
                     rationals, reference_connected_product, reference_genus_table,
                     reference_product, reference_scheme_monomial, reference_transport,
                     series_of, transport_scheme_count)

CAPS = [None, 0, 1]


def series_in(mode, prefix, max_legs=4):
    terms = st.tuples(generators(mode, prefix, max_legs), coefficients())
    return st.lists(terms, min_size=1, max_size=2).map(
        lambda entries: Series.build(mode, entries))


def same(got, want):
    return got == want and series_to_json(got) == series_to_json(want)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), mode=st.sampled_from(MODES), cap=st.sampled_from(CAPS))
def test_product_matches_the_per_scheme_reference(data, mode, cap):
    a = data.draw(series_in(mode, "x"))
    b = data.draw(series_in(mode, "y"))
    assert same(product(a, b, max_eps_degree=cap), reference_product(a, b, cap))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), mode=st.sampled_from(MODES), cap=st.sampled_from(CAPS),
       negate=st.booleans())
def test_transport_matches_the_per_scheme_reference(data, mode, cap, negate):
    src = data.draw(series_in(mode, "x", max_legs=5))
    got = transport(src, negate=negate, max_eps_degree=cap)
    assert same(got, reference_transport(src, "F", negate, cap))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), mode=st.sampled_from(MODES), cap=st.sampled_from(CAPS),
       k=st.integers(1, 4))
def test_connected_product_matches_the_recursive_reference(data, mode, cap, k):
    factors = [data.draw(series_in(mode, prefix, max_legs=2)) for prefix in "abcd"[:k]]
    got = connected_product(factors, max_eps_degree=cap)
    assert same(got, reference_connected_product(factors, cap))


@pytest.mark.parametrize("a_shapes, b_shape", [([(2,)], (1, 1)), ([(1,), (2,)], (2,))])
def test_nested_commutator_sides_match_the_reference_sums(a_shapes, b_shape):
    a_list = [series_of(s, prefix=p, mode=KERNEL) for s, p in zip(a_shapes, "ab")]
    b = series_of(b_shape, prefix="z", mode=KERNEL)
    lhs = rhs = Series.zero(KERNEL)
    for perm in permutations(a_list):
        words = [(1, [b])]
        for a in perm:
            words = [w for sign, word in words
                     for w in ((sign, [a] + word), (-sign, word + [a]))]
        for sign, word in words:
            conn = reference_connected_product(word)
            plain = product_chain(word)
            lhs, rhs = (lhs + conn, rhs + plain) if sign > 0 else (lhs - conn, rhs - plain)
    got_lhs, got_rhs = nested_commutator_sym(a_list, b)
    assert same(got_lhs, lhs) and same(got_rhs, rhs)


@pytest.mark.parametrize("k, calls", [(2, 1), (3, 4), (4, 11)])
def test_connected_product_makes_one_product_per_ordered_subset(monkeypatch, k, calls):
    count = []
    inner = multitrace.algebra.product

    def counted(*args, **kwargs):
        count.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(multitrace.algebra, "product", counted)
    connected_product([series_of((1,), prefix) for prefix in "abcd"[:k]])
    assert len(count) == calls == 2 ** k - k - 1


def genus_table(a, b):
    argv = ["genus-table", "--mode", a.mode.kind, "--colors", str(a.mode.colors),
            "--", render_series(a), render_series(b)]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


# eps, hbar and a rational: coefficients that survive the command line in every mode
scalars = st.builds(lambda k, h, q: Coefficient.monomial(Monomial(eps_half=2 * k, hbar=h), q),
                    st.integers(-2, 2), st.integers(0, 2), rationals.filter(bool))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), mode=st.sampled_from(MODES))
def test_genus_table_matches_the_per_scheme_reference(data, mode):
    a, b = (data.draw(st.lists(st.tuples(generators(mode, prefix, 3), scalars),
                               min_size=1, max_size=2)
                      .map(lambda entries: Series.build(mode, entries)))
            for prefix in "xy")
    assert genus_table(a, b) == reference_genus_table(a, b)


def test_genus_table_counts_only_nonzero_weight_schemes():
    mode = Mode("matrix", 2)
    a = parse_series("W{Tr[x1@1 x2@2]} + eps*W{Tr[x3@2]}", mode)
    b = parse_series("2*W{Tr[y1@2 y2@1]}", mode)
    weights = [analyze(p, ga, gb, mode).weight_zero
               for ga, _ in a.terms for gb, _ in b.terms
               for p in enumerate_pairings(legs_of(ga), legs_of(gb, 1))]
    assert weights.count(True) > 0 and weights.count(False) > 0
    table = genus_table(a, b)
    assert table == reference_genus_table(a, b)
    heads = [line for line in table.splitlines() if not line.startswith("  ")]
    assert sum(int(h.split()[1]) for h in heads) == weights.count(False)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), mode=st.sampled_from(MODES), product_mode=st.booleans())
def test_census_keys_build_the_per_scheme_terms(data, mode, product_mode):
    ga = data.draw(generators(mode, "x", 5))
    gb = data.draw(generators(mode, "y", 4)) if product_mode else None
    kernel = product_pair_kernel(mode) if product_mode else _difference_kernel("F", mode)
    gens = (ga, gb)
    for pairing in enumerate_pairings(legs_of(ga), None if gb is None else legs_of(gb, 1)):
        key = census(pairing, ga, gb, mode)
        report = analyze(pairing, ga, gb, mode)
        assert (key is None) == report.weight_zero
        if key is None:
            continue
        slots = rank_slots(ga, gb)
        built = Generator(tuple(TraceWord(tuple(slots[r] for r in word)) for word in key[0]))
        pair_slots = [tuple(gens[leg.side].traces[leg.trace].slots[leg.slot] for leg in pair)
                      for pair in report.pairs]
        assert built == result_generator(report)
        name = kernel if mode.kind == "matrix" else lambda u, v: kernel(slots[u], slots[v])
        assert scheme_coefficient(key, name) == reference_scheme_monomial(
            report, pair_slots, mode, None if product_mode else "F")


def traced(monkeypatch):
    """Count the keys the loop assembles and the schemes it enumerates."""
    keys, stats = [], []
    inner_assemble = multitrace.algebra.scheme_coefficient
    inner_enumerate = multitrace.algebra.enumerate_pairings

    def counted_key(key, kernel):
        keys.append(key)
        return inner_assemble(key, kernel)

    def kept_stats(*args, **kwargs):
        stats.append(kwargs["stats"])
        return inner_enumerate(*args, **kwargs)

    monkeypatch.setattr(multitrace.algebra, "scheme_coefficient", counted_key)
    monkeypatch.setattr(multitrace.algebra, "enumerate_pairings", kept_stats)
    return keys, stats


@pytest.mark.parametrize("mode, legs, keys", [(MATRIX, 6, 5122), (KERNEL, 5, 1546)])
def test_equal_schemes_are_assembled_once(monkeypatch, mode, legs, keys):
    # matrix mode collapses 13,327 schemes to 5,122 keys; in kernel mode the
    # sorted pairs tell every scheme apart
    built, stats = traced(monkeypatch)
    product(series_of((legs,), "x", mode), series_of((legs,), "y", mode))
    assert len(built) == len(set(built)) == keys
    assert [s.yielded for s in stats] == [product_scheme_count(legs, legs)]


@pytest.mark.parametrize("shape_a, shape_b", [((2, 1), (3,)), ((1, 1), (2, 2)), ((4,), ())])
def test_uncapped_products_enumerate_the_closed_form_count(monkeypatch, shape_a, shape_b):
    _, stats = traced(monkeypatch)
    product(series_of(shape_a, "x"), series_of(shape_b, "y"))
    assert [s.yielded for s in stats] == [product_scheme_count(sum(shape_a), sum(shape_b))]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_transport_expectation_is_harer_zagier(monkeypatch, n):
    # a full matching of one 2n-slot trace of genus g has 2g - 1 = n - faces
    _, stats = traced(monkeypatch)
    got = expectation(transport(series_of((2 * n,), "x")))
    assert [s.yielded for s in stats] == [transport_scheme_count(2 * n)]
    want = Coefficient.build(
        (Monomial(eps_half=2 * (2 * g - 1), hbar=n, kernels=((KernelSymbol("F"), n),)), count)
        for g, count in harer_zagier(n).items())
    assert got == want


def test_closed_forms_give_the_known_counts():
    assert product_scheme_count(6, 6) == 13327 and product_scheme_count(5, 5) == 1546
    assert transport_scheme_count(10) == 9496
    assert harer_zagier(5) == {0: 42, 1: 420, 2: 483}
