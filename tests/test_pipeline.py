"""The shared scheme loop and the connected parts against the references in helpers."""

import io
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import permutations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import multitrace.algebra
from multitrace import (KERNEL, MATRIX, ONE, Coefficient, Generator, KernelSymbol, Mode,
                        Monomial, Series, TraceWord, analyze, connected_product, expectation,
                        legs_of, make_generator, nested_commutator_sym, parse_series, product,
                        product_chain, render_series, result_generator, series_to_json,
                        transport)
from multitrace.algebra import output_generator, scheme_coefficient
from multitrace.cli import main
from multitrace.ribbon import census, map_of, rank_table

from helpers import (MODES, coefficients, generators, harer_zagier, named, product_scheme_count,
                     reference_connected_product, reference_genus_table, reference_pairings,
                     reference_product, reference_scheme_monomial, reference_transport, scalars,
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


def canonical(series):
    """Whether the terms are those ``Series.build`` makes of them, in order, with
    no zero coefficient, each coefficient canonical and its rationals ``Fraction``s."""
    return (series.terms == Series.build(series.mode, series.terms).terms
            and all(coeff and Coefficient.build(coeff.terms) == coeff
                    and all(type(q) is Fraction for _, q in coeff.terms)
                    for _, coeff in series.terms))


@st.composite
def signed_inputs(draw, mode, prefix, max_legs):
    """A multi-term input whose jobs meet and can cancel: a drawn term of two or
    more slots; the same slots, reordered and cut into other traces, once or
    twice, each with the opposite coefficient times 1, eps, hbar or 1 + eps (so
    outputs of three or more jobs meet, with multi-term scales); and maybe one
    more drawn term."""
    gen = draw(generators(mode, prefix, max_legs).filter(lambda g: g.size >= 2))
    coeff = draw(coefficients().filter(bool))
    terms = [(gen, coeff)]
    for _ in range(draw(st.integers(1, 2))):
        slots = draw(st.permutations([slot for trace in gen.traces for slot in trace.slots]))
        cuts = sorted(draw(st.sets(st.integers(1, max(1, len(slots) - 1)), max_size=2)))
        words = [slots[i:j] for i, j in zip([0] + cuts, cuts + [len(slots)]) if slots[i:j]]
        factor = draw(st.sampled_from([ONE, Coefficient.eps(), Coefficient.hbar(),
                                       ONE + Coefficient.eps()]))
        terms.append((make_generator(words, mode), -(coeff * factor)))
    if draw(st.booleans()):
        terms.append((draw(generators(mode, prefix, max_legs)), draw(coefficients())))
    return Series.build(mode, terms)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), mode=st.sampled_from(MODES), cap=st.sampled_from(CAPS),
       negate=st.booleans())
def test_the_loop_output_is_canonical_and_drops_cancelled_terms(data, mode, cap, negate):
    a = data.draw(signed_inputs(mode, "x", 4))
    b = data.draw(signed_inputs(mode, "y", 3))
    out = product(a, b, max_eps_degree=cap)
    assert canonical(out) and same(out, reference_product(a, b, cap))
    moved = transport(a, negate=negate, max_eps_degree=cap)
    assert canonical(moved) and same(moved, reference_transport(a, "F", negate, cap))


@pytest.mark.parametrize("mode", [MATRIX, KERNEL])
def test_one_pair_terms_of_two_jobs_cancel(mode):
    # every one-pair scheme of the first job meets one of the second with the
    # opposite sign, so only the two terms without a pair are left
    a = parse_series("W{Tr[x1 x2]} - eps*W{Tr[x1] Tr[x2]}", mode)
    b = parse_series("W{Tr[y1]}", mode)
    out = product(a, b)
    assert render_series(out) == "1*W{Tr[x1 x2] Tr[y1]} - eps*W{Tr[x1] Tr[x2] Tr[y1]}"
    assert canonical(out) and same(out, reference_product(a, b))


@pytest.mark.parametrize("mode", [MATRIX, KERNEL])
@pytest.mark.parametrize("text, want", [
    # the W{} terms of the two jobs cancel in their output term
    ("eps*W{Tr[x1 x2]} - W{Tr[x1] Tr[x2]}", "-1*W{Tr[x1] Tr[x2]} + eps*W{Tr[x1 x2]}"),
    # a trace and its mirror: every scheme's key of one job meets the same key
    # of the other with the opposite sum, so the eps^-1 keys' sums are zero
    ("W{Tr[x1 x2 x3 x4]} - W{Tr[x1 x4 x3 x2]}", "1*W{Tr[x1 x2 x3 x4]} - 1*W{Tr[x1 x4 x3 x2]}")])
def test_cancelled_transport_terms_keep_their_flag(mode, text, want):
    # the flag still reports the eps^-1 schemes
    src = parse_series(text, mode)
    out = transport(src)
    assert render_series(out) == want and out.flags == {"negative-eps"}
    assert canonical(out) and same(out, reference_transport(src))


def test_kernel_transport_pairs_name_their_kernels_by_label():
    # x10 sorts before x2, so the kernel order is not the leg order
    src = parse_series("W{Tr[" + " ".join(f"x{i}" for i in range(1, 11)) + "]}", KERNEL)
    assert same(transport(src), reference_transport(src))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), colors=st.sampled_from([0, 2]), negate=st.booleans())
def test_kernel_transports_of_permuted_labels_match_the_reference(data, colors, negate):
    mode = Mode("kernel", colors)
    src = Series.of(data.draw(generators(mode, "x", 6)), mode)
    assert same(transport(src, negate=negate), reference_transport(src, "F", negate))


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
    weights = [analyze(named(p, legs_of(ga) + legs_of(gb, 1)), ga, gb, mode).weight_zero
               for ga, _ in a.terms for gb, _ in b.terms
               for p in reference_pairings(legs_of(ga), legs_of(gb, 1))]
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
    symbol = ("g" if mode.kind == "matrix" else "K") if product_mode else "F"
    # the rank table of a call also holds the slots of its other jobs
    other = data.draw(generators(mode, data.draw(st.sampled_from("xyz")), 4))
    gens = (ga, gb)
    pair_map = map_of(ga, gb, rank_table([g for g in (ga, gb, other) if g is not None]))
    slots, words = pair_map.by_rank, {}
    # a pair kernel is the job's symbol, bare or on the pair's two slots in key order
    name = KernelSymbol(symbol) if mode.kind == "matrix" else lambda u, v: (KernelSymbol(
        symbol, ((slots[u].label, slots[u].conjugated), (slots[v].label, slots[v].conjugated))), 1)
    legs_a, legs_b = legs_of(ga), None if gb is None else legs_of(gb, 1)
    for pairing in reference_pairings(legs_a, legs_b):
        key = census(pairing, pair_map, mode)
        report = analyze(named(pairing, legs_a + (legs_b or [])), ga, gb, mode)
        assert (key is None) == report.weight_zero
        if key is None:
            continue
        # the values built from the key as it is, against the public constructors
        built = output_generator(key[0], slots, words)
        public = Generator(tuple(TraceWord(tuple(slots[r] for r in word)) for word in key[0]))
        assert built == public == result_generator(report) and hash(built) == hash(public)
        assert built.traces == public.traces and built.key() == public.key()
        pair_slots = [tuple(gens[leg.side].traces[leg.trace].slots[leg.slot] for leg in pair)
                      for pair in report.pairs]
        mono = scheme_coefficient(key, name)
        want = reference_scheme_monomial(report, pair_slots, mode, None if product_mode else "F")
        assert mono == want and hash(mono) == hash(want)
        assert (mono.s, mono.kernels) == (want.s, want.kernels)


def traced(monkeypatch):
    """Count the keys the loop assembles and the schemes it enumerates.

    The enumerator is wrapped the way the benchmark's tracer wraps it: the
    leg lists are read from its first two arguments, and each item the loop
    draws from it is recorded.
    """
    keys, stats, drawn = [], [], []
    inner_assemble = multitrace.algebra.scheme_coefficient
    inner_enumerate = multitrace.algebra.enumerate_pairings

    def counted_key(key, kernel):
        keys.append(key)
        return inner_assemble(key, kernel)

    def kept_stats(*args, **kwargs):
        stats.append(kwargs["stats"])
        items = []
        drawn.append((len(args[0]), None if args[1] is None else len(args[1]), items))
        for item in inner_enumerate(*args, **kwargs):
            items.append(item)
            yield item

    monkeypatch.setattr(multitrace.algebra, "scheme_coefficient", counted_key)
    monkeypatch.setattr(multitrace.algebra, "enumerate_pairings", kept_stats)
    return keys, stats, drawn


@pytest.mark.parametrize("mode, legs, keys, monomials, outputs", [
    (MATRIX, 6, 5122, 19, 4634), (KERNEL, 5, 1546, 1546, 727), (MATRIX, (5, 1), 2107, 3, 1847)])
def test_equal_schemes_are_assembled_once(monkeypatch, mode, legs, keys, monomials, outputs):
    # matrix mode collapses 13,327 schemes to 5,122 keys, which share 19
    # monomials; in kernel mode the sorted pairs tell every scheme apart.
    # Legs (5, 1): the 727-term (5)x(5) output times W{Tr[z1]}, one job per
    # term; the jobs share one rank table, so their 4,037 keys meet on 2,107,
    # and each output term's generator is built once for the call
    if isinstance(legs, int):
        a, b = series_of((legs,), "x", mode), series_of((legs,), "y", mode)
    else:
        a = product(series_of((legs[0],), "x", mode), series_of((legs[0],), "y", mode))
        b = series_of((legs[1],), "z", mode)
    inner_generator = Generator._canonical
    generators_built = []

    def counted_generator(cls, *values):
        generators_built.append(inner_generator(*values))
        return generators_built[-1]

    monkeypatch.setattr(Generator, "_canonical", classmethod(counted_generator))
    built, stats, drawn = traced(monkeypatch)
    out = product(a, b)
    assert len(drawn) == len(a.terms) * len(b.terms)
    assert len({key for _, _, items in drawn for key in items} - {None}) == keys
    assert len(built) == len({key[1:] for key in built}) == monomials
    assert len(generators_built) == len(set(generators_built)) == len(out.terms) == outputs
    assert sum(s.yielded for s in stats) == sum(
        product_scheme_count(ga.size, gb.size) for ga, _ in a.terms for gb, _ in b.terms)


def test_the_loop_draws_every_scheme_the_tracer_counts(monkeypatch):
    # the benchmark's tracer counts the items drawn from the enumerator and
    # holds them to the closed forms, so a weight-zero scheme must be drawn too
    mode = Mode("matrix", 2)
    a = parse_series("W{Tr[x1@1 x2@2 x3@1]}", mode)
    b = parse_series("W{Tr[y1@2 y2@1] Tr[y3@2]}", mode)
    _, _, drawn = traced(monkeypatch)
    product(a, b)
    (legs_a, legs_b, items), = drawn
    assert (legs_a, legs_b) == (3, 3)
    assert None in items and len(items) == product_scheme_count(3, 3)
    _, _, drawn = traced(monkeypatch)
    transport(series_of((4, 3), "x"))
    (legs_a, legs_b, items), = drawn
    assert (legs_a, legs_b) == (7, None)
    assert len(items) == transport_scheme_count(7)
    # many jobs: one record per job, in job order, holding the job's leg counts
    a = parse_series("W{Tr[x1 x2 x3]} + eps*W{Tr[x1] Tr[x2]} + 2*W{Tr[x4]}", MATRIX)
    b = parse_series("W{Tr[y1 y2]} - hbar*W{Tr[y1] Tr[y2 y3]}", MATRIX)
    assert (len(a.terms), len(b.terms)) == (3, 2)
    _, _, drawn = traced(monkeypatch)
    product(a, b)
    jobs = [(ga.size, gb.size) for ga, _ in a.terms for gb, _ in b.terms]
    assert [(legs_a, legs_b) for legs_a, legs_b, _ in drawn] == jobs
    assert [len(items) for _, _, items in drawn] == [product_scheme_count(*job) for job in jobs]
    _, _, drawn = traced(monkeypatch)
    transport(b)
    assert [(legs_a, legs_b) for legs_a, legs_b, _ in drawn] == [
        (gb.size, None) for gb, _ in b.terms]
    assert [len(items) for _, _, items in drawn] == [
        transport_scheme_count(gb.size) for gb, _ in b.terms]


@pytest.mark.parametrize("shape_a, shape_b", [((2, 1), (3,)), ((1, 1), (2, 2)), ((4,), ())])
def test_uncapped_products_enumerate_the_closed_form_count(monkeypatch, shape_a, shape_b):
    _, stats, _ = traced(monkeypatch)
    product(series_of(shape_a, "x"), series_of(shape_b, "y"))
    assert [s.yielded for s in stats] == [product_scheme_count(sum(shape_a), sum(shape_b))]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_transport_expectation_is_harer_zagier(monkeypatch, n):
    # a full matching of one 2n-slot trace of genus g has 2g - 1 = n - faces
    _, stats, _ = traced(monkeypatch)
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
