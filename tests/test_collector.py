"""The cyclic collector's pause around the engine's value builders.

``scheme_series``, ``parse_series`` and ``render_series`` switch the
collector off for their call.  That is safe only because the values
they build are acyclic, and only if the caller gets the collector back
in the state it left it in.
"""

import gc

import pytest

from multitrace import (AlgebraError, KERNEL, MATRIX, ParseError, Series, Slot, algebra,
                        connected_product, exprparse, make_generator, moment, parse_series,
                        product, product_chain, render_series, series_from_json, series_to_json,
                        transport)

from helpers import MODES, series_of


@pytest.fixture
def collector():
    """Give the collector back to the test session as the session had it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _probe(monkeypatch, module, name, seen):
    """Record the collector's state each time ``module.name`` is called."""
    inner = getattr(module, name)

    def probe(*args, **kwargs):
        seen.append(gc.isenabled())
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, probe)


def _calls():
    """One call of each paused function, and of the public calls that reach
    ``scheme_series``; the last two raise."""
    a, b = series_of((1, 2)), series_of((1, 2), "y")
    twice = Series.of(make_generator([[Slot("x1"), Slot("x1", True)]], KERNEL), KERNEL)
    return [
        (lambda: parse_series("W{Tr[x1 x2]} # a comment\n + eps*W{}", MATRIX), None),
        (lambda: render_series(product(a, b)), None),
        (lambda: product(a, b), None),
        (lambda: transport(a), None),
        (lambda: parse_series("W{Tr[x1 x2]} +", MATRIX), ParseError),
        (lambda: transport(twice), AlgebraError),
    ]


def test_each_paused_call_restores_the_collector(monkeypatch, collector):
    seen = []
    _probe(monkeypatch, exprparse, "tokenize", seen)
    _probe(monkeypatch, exprparse, "monomial_texts", seen)
    _probe(monkeypatch, algebra, "rank_table", seen)
    for enabled in (True, False):
        for call, raises in _calls():
            gc.enable() if enabled else gc.disable()
            seen.clear()
            if raises is None:
                call()
            else:
                with pytest.raises(raises):
                    call()
            assert seen and not any(seen)     # paused inside the call
            assert gc.isenabled() == enabled  # and as the caller left it after


def _engine_pass(documents):
    """Products, a chain, a moment, a connected part, a transport and both
    round trips in every mode.  ``documents`` holds one JSON document per
    mode: an empty list is filled, a full one is decoded and compared.
    The indenting encoder of ``json.dumps`` closes over itself, so writing
    a document builds reference cycles of the standard library's own."""
    fill = not documents
    for i, mode in enumerate(MODES):
        colors = (1, 2) if mode.colors else None
        a = series_of((1, 2), "x", mode, colors)
        b = series_of((2, 1), "y", mode, colors)
        c = series_of((1, 1), "z", mode, colors)
        ab = product(a, b)
        product(a, b, max_eps_degree=0)
        product_chain([a, b, c])
        moment([gen for s in (a, b, c) for gen, _ in s.terms], mode)
        connected_product([a, b, c])
        moved = transport(ab)
        assert parse_series(render_series(moved), mode) == moved
        if fill:
            documents.append(series_to_json(ab))
        assert series_from_json(documents[i]) == ab


def test_engine_values_hold_no_reference_cycles(collector):
    documents = []
    _engine_pass(documents)   # writes the JSON documents, before the count
    gc.collect()
    gc.disable()
    _engine_pass(documents)
    assert gc.collect() == 0
