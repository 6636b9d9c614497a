"""The shared scheme loop and the connected parts against the references in helpers."""

from itertools import permutations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import multitrace.algebra
from multitrace import (KERNEL, Series, connected_product, nested_commutator_sym,
                        product, product_chain, series_to_json, transport)

from helpers import (MODES, coefficients, generators, reference_connected_product,
                     reference_product, reference_transport, series_of)

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
