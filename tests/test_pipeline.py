"""The shared scheme loop against the per-scheme reference in helpers."""

import hypothesis.strategies as st
from hypothesis import given, settings

from multitrace import (
    KERNEL,
    MATRIX,
    Mode,
    Series,
    Slot,
    make_generator,
    product,
    series_to_json,
    transport,
)

from helpers import coefficients, reference_product, reference_transport

MODES = [MATRIX, KERNEL, Mode("matrix", 2), Mode("kernel", 2)]
CAPS = [None, 0, 1]


@st.composite
def generators(draw, mode, prefix, max_legs):
    shape = draw(st.lists(st.integers(1, 3), max_size=2)
                 .filter(lambda lengths: sum(lengths) <= max_legs))
    words, n = [], 0
    for length in shape:
        word = []
        for _ in range(length):
            n += 1
            conjugated = mode.kind == "kernel" and draw(st.booleans())
            color = draw(st.integers(1, mode.colors)) if mode.colored else None
            word.append(Slot(f"{prefix}{n}", conjugated, color))
        words.append(word)
    return make_generator(words, mode)


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
