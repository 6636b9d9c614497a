"""Pairing enumeration and the strand-walk census behind every product."""

import json
from itertools import zip_longest
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from multitrace import (
    EnumerationStats,
    Generator,
    KERNEL,
    LegId,
    MATRIX,
    Mode,
    RibbonError,
    analyze,
    enumerate_pairings,
    legs_of,
    result_generator,
)
from multitrace.ribbon import census, exponent_bound, map_of

from helpers import (MODES, generators, named, product_scheme_count, reference_analyze,
                     reference_exponent_bound, reference_pairings, shaped, trace_lengths,
                     transport_scheme_count)


def leg_numbers(pair_map):
    """The leg arguments ``enumerate_pairings`` takes for ``pair_map``."""
    heads, n = pair_map.heads, len(pair_map.sigma)
    return range(heads), range(heads, n) if pair_map.product else None


def keys_of(ga, gb=None, mode=MATRIX, **options):
    """The census keys ``enumerate_pairings`` yields for one generator pair."""
    pair_map = map_of(ga, gb)
    return list(enumerate_pairings(*leg_numbers(pair_map), pair_map=pair_map, mode=mode,
                                   **options))


class TestEnumeration:
    def test_small_product_counts(self):
        assert len(keys_of(shaped((1,)), shaped((1,), prefix="y"))) == 2
        assert len(keys_of(shaped((2,)), shaped((2,), prefix="y"))) == 7

    @pytest.mark.parametrize("na,nb", [(1, 1), (1, 3), (2, 2), (3, 2), (3, 3), (4, 2)])
    def test_product_counts_match_the_closed_form(self, na, nb):
        assert len(keys_of(shaped((na,)), shaped((nb,), prefix="y"))) \
            == product_scheme_count(na, nb)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_transport_counts(self, n):
        assert len(keys_of(shaped((n,)))) == transport_scheme_count(n)

    def test_empty_pairing_comes_first_and_order_is_stable(self):
        ga, gb = shaped((2,)), shaped((2,), prefix="y")
        a, b = legs_of(ga), legs_of(gb, side=1)
        first = list(reference_pairings(a, b))
        second = list(reference_pairings(a, b))
        assert first == second
        assert first[0] == ()
        keys = keys_of(ga, gb)
        assert keys == keys_of(ga, gb)
        assert keys[0] == census((), map_of(ga, gb), MATRIX)

    def test_stats_counts_yields(self):
        stats = EnumerationStats()
        n = len(keys_of(shaped((4,)), stats=stats))
        assert stats.yielded == n == 10

    def test_shared_legs_rejected(self):
        ga = shaped((2,))
        legs = range(2)   # the side-A leg numbers of the map of ga and W{Tr[y1 y2]}
        with pytest.raises(RibbonError):
            list(enumerate_pairings(legs, legs, pair_map=map_of(ga, shaped((2,), prefix="y")),
                                    mode=MATRIX))

    def test_legs_must_be_those_of_the_map(self):
        ga, gb = shaped((2, 1)), shaped((2,), prefix="y")
        a, b = range(3), range(3, 5)   # the leg numbers of the map of ga and gb
        product_map, transport_map = map_of(ga, gb), map_of(ga)
        assert (a, b) == leg_numbers(product_map) and (a, None) == leg_numbers(transport_map)
        for legs_a, legs_b, pair_map in [
                (a[::-1], b, product_map),         # out of order
                (range(4), b[1:], product_map),    # a side-B leg taken as a head
                (a[:2], range(2, 5), product_map),   # a side-A leg taken as a mate
                (range(5), None, product_map),     # transport pairs on a product map
                (a[:1], a[1:], transport_map),     # product pairs on a transport map
                (a[:2], None, transport_map),      # a leg missing
                (list(a), list(b), product_map),   # the numbers, but not as ranges
                (legs_of(ga), legs_of(gb, side=1), product_map)]:   # the LegIds
            with pytest.raises(RibbonError, match="legs of the pair map"):
                next(enumerate_pairings(legs_a, legs_b, pair_map=pair_map, mode=MATRIX))

    @pytest.mark.parametrize("shape_a,shape_b", [((3,), (3,)), ((2, 1), (2, 1))])
    def test_pruning_never_loses_an_admissible_scheme(self, shape_a, shape_b):
        # the cap yields exactly the schemes within it, in uncapped order
        ga, gb = shaped(shape_a), shaped(shape_b, prefix="y")
        a, b = legs_of(ga), legs_of(gb, side=1)
        full = list(reference_pairings(a, b))
        for cap in (0, 1):
            wanted = [p for p in full if analyze(named(p, a + b), ga, gb).exponent <= cap]
            stats = EnumerationStats()
            assert list(reference_pairings(a, b, max_eps_degree=cap, stats=stats)) == wanted
            assert stats.yielded == len(wanted)
            assert (stats.pruned_branches > 0) == (len(wanted) < len(full))

    def test_pruning_actually_cuts_branches(self):
        # a pair chain through three vertices pushes the bound past zero
        ga, gb = shaped((2, 1)), shaped((2, 1), prefix="y")
        stats = EnumerationStats()
        capped = keys_of(ga, gb, max_eps_degree=0, stats=stats)
        assert stats.pruned_branches > 0
        assert len(capped) < len(keys_of(ga, gb))

    def test_planar_cap_walks_only_the_planar_schemes(self):
        # the empty scheme and the 7 planar complete matchings, out of 130,922
        stats = EnumerationStats()
        capped = keys_of(shaped((7,)), shaped((7,), prefix="y"), max_eps_degree=0, stats=stats)
        assert len(capped) == stats.yielded <= 8

    @pytest.mark.parametrize("shape_a,shape_b,cap,kept,most_cut", [
        ((7,), (7,), 1, 302, 3962),   # P - F + J_dec alone cuts 17,892
        ((12,), None, 0, 1718, 6744),   # and 12,205
    ])
    def test_lone_faces_cut_branches_early(self, shape_a, shape_b, cap, kept, most_cut):
        gb = None if shape_b is None else shaped(shape_b, prefix="y")
        stats = EnumerationStats()
        assert len(keys_of(shaped(shape_a), gb, max_eps_degree=cap, stats=stats)) == kept
        assert stats.yielded == kept
        assert 0 < stats.pruned_branches <= most_cut


@settings(max_examples=120, deadline=None)
@given(data=st.data(), mode=st.sampled_from(MODES), product_mode=st.booleans())
def test_enumerator_yields_the_census_of_each_reference_scheme_in_order(
        data, mode, product_mode):
    ga = data.draw(generators(mode, "x", 5))
    gb = data.draw(generators(mode, "y", 4)) if product_mode else None
    legs_a, legs_b = legs_of(ga), legs_of(gb, side=1) if product_mode else None
    pair_map = map_of(ga, gb)
    for cap in (None, -2, -1, 0, 1, 2):
        got_stats, want_stats = EnumerationStats(), EnumerationStats()
        got = list(enumerate_pairings(*leg_numbers(pair_map), pair_map=pair_map, mode=mode,
                                      max_eps_degree=cap, stats=got_stats))
        want = [census(p, pair_map, mode) for p in reference_pairings(
            legs_a, legs_b, max_eps_degree=cap, stats=want_stats)]
        assert got == want
        assert got_stats == want_stats


# Each scheme as the LegId enumerator yielded it, "sta-stb" per pair (side,
# trace, slot of each leg), pairs space-separated, in enumeration order.
RECORDED = json.loads((Path(__file__).parent / "recorded_pairings.json").read_text())


@pytest.mark.parametrize("name, shape_a, shape_b", [
    ("(3)x(2,1)", (3,), (2, 1)), ("(2,2)x(3)", (2, 2), (3,)), ("(5)", (5,), None)])
@pytest.mark.parametrize("cap", [None, 0, 1])
def test_leg_numbers_name_the_recorded_pairings(name, shape_a, shape_b, cap):
    a = legs_of(shaped(shape_a))
    b = None if shape_b is None else legs_of(shaped(shape_b, prefix="y"), side=1)
    got = [" ".join(f"{u.side}{u.trace}{u.slot}-{v.side}{v.trace}{v.slot}"
                    for u, v in named(pairing, a + (b or [])))
           for pairing in reference_pairings(a, b, max_eps_degree=cap)]
    assert got == RECORDED[f"{name} cap {cap}"]


def _report_key(report, pair_map, mode, gens):
    """The census key of a scheme, read off its ``LoopReport``."""
    if report.weight_zero:
        return None
    rank = {slot: r for r, slot in enumerate(pair_map.by_rank)}
    words = [tuple(rank[slot] for slot in word) for word in report.output_words]
    words = sorted(min(w[k:] + w[:k] for k in range(len(w))) for w in words)
    pairs = [tuple(rank[gens[leg.side].traces[leg.trace].slots[leg.slot]] for leg in pair)
             for pair in report.pairs]
    if mode.kind == "matrix":
        kernels = len(pairs)
    else:
        kernels = tuple(sorted(pair if pair_map.product else tuple(sorted(pair))
                               for pair in pairs))
    return tuple(words), report.exponent_half_units, report.s_exponents, kernels


@settings(max_examples=120, deadline=None)
@given(data=st.data(), mode=st.sampled_from(MODES), product_mode=st.booleans())
def test_census_on_leg_numbers_keys_the_named_scheme(data, mode, product_mode):
    ga = data.draw(generators(mode, "x", 5))
    gb = data.draw(generators(mode, "y", 4)) if product_mode else None
    legs_a, legs_b = legs_of(ga), legs_of(gb, side=1) if product_mode else None
    pair_map = map_of(ga, gb)
    for pairing in reference_pairings(legs_a, legs_b):
        report = analyze(named(pairing, legs_a + (legs_b or [])), ga, gb, mode)
        assert census(pairing, pair_map, mode) == _report_key(report, pair_map, mode, (ga, gb))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), mode=st.sampled_from(MODES), product_mode=st.booleans())
def test_capped_enumeration_is_the_filtered_uncapped_list(data, mode, product_mode):
    ga = data.draw(generators(mode, "x", 5))
    gb = data.draw(generators(mode, "y", 4)) if product_mode else None
    legs_a = legs_of(ga)
    legs_b = legs_of(gb, side=1) if product_mode else None
    legs = legs_a + (legs_b or [])
    full = [(p, analyze(named(p, legs), ga, gb, mode).exponent)
            for p in reference_pairings(legs_a, legs_b)]
    for cap in range(-2, 3):
        wanted = [p for p, exponent in full if exponent <= cap]
        stats = EnumerationStats()
        assert list(reference_pairings(legs_a, legs_b, max_eps_degree=cap, stats=stats)) \
            == wanted
        assert stats.yielded == len(wanted)
        assert (stats.pruned_branches > 0) == (len(wanted) < len(full))


def _path_bounds(pairing, pair_map, heads):
    """``exponent_bound`` at each node the enumeration passes on its way
    to ``pairing``, then at the leaf, each checked to be at least
    ``reference_exponent_bound`` there.

    A node is a head leg still unpaired when reached; the pairs chosen
    there are those whose head comes before it, and it is the frontier.
    """
    edges = sorted(pairing)
    mates = {j for _, j in edges}
    bounds = []
    sigma, n = pair_map.sigma, len(pair_map.sigma)
    for node in [k for k in range(heads) if k not in mates] + [n]:
        alpha = list(range(n))
        chosen = [(i, j) for i, j in edges if i < node]
        for i, j in chosen:
            alpha[i], alpha[j] = j, i
        bounds.append(exponent_bound(sigma, alpha, len(chosen), node, pair_map.first_mate))
        assert bounds[-1] >= reference_exponent_bound(sigma, alpha, len(chosen), node)
    return bounds


@settings(max_examples=120, deadline=None)
@given(data=st.data(), mode=st.sampled_from(MODES), product_mode=st.booleans())
def test_bound_is_monotone_and_reaches_the_exponent(data, mode, product_mode):
    ga = data.draw(generators(mode, "x", 5))
    gb = data.draw(generators(mode, "y", 4)) if product_mode else None
    legs_a = legs_of(ga)
    legs_b = legs_of(gb, side=1) if product_mode else None
    pair_map = map_of(ga, gb)
    for pairing in reference_pairings(legs_a, legs_b):
        bounds = _path_bounds(pairing, pair_map, len(legs_a))
        assert bounds == sorted(bounds)
        assert bounds[-1] == analyze(named(pairing, legs_a + (legs_b or [])), ga, gb,
                                     mode).exponent


@settings(max_examples=80, deadline=None)
@given(data=st.data(), mode=st.sampled_from(MODES), product_mode=st.booleans())
def test_first_mate_is_the_side_rule(data, mode, product_mode):
    """For legs i < j, ``j >= first_mate[i]`` holds exactly when the two
    ``LegId`` sides differ in a product, and always in a transport; the
    array never decreases; and ``analyze`` refuses exactly the pairs the
    rule forbids, whichever leg comes first."""
    ga = data.draw(generators(mode, "x", 5))
    gb = data.draw(generators(mode, "y", 4)) if product_mode else None
    pair_map = map_of(ga, gb)
    legs = legs_of(ga) + (legs_of(gb, side=1) if product_mode else [])
    first_mate = pair_map.first_mate
    # leg number i on the map is legs[i]: side A's legs are its heads
    assert (pair_map.heads, len(pair_map.sigma)) == (ga.size, len(legs))
    assert first_mate == sorted(first_mate)
    for i, j in ((i, j) for j in range(len(legs)) for i in range(j)):
        allowed = j >= first_mate[i]
        assert allowed == (legs[i].side != legs[j].side if product_mode else True)
        for pair in ((legs[i], legs[j]), (legs[j], legs[i])):
            if allowed:
                assert analyze((pair,), ga, gb, mode).pairs == (pair,)
            else:
                with pytest.raises(RibbonError, match="product pairings must join"):
                    analyze((pair,), ga, gb, mode)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), mode=st.sampled_from(MODES), product_mode=st.booleans())
def test_analyze_matches_the_reference_walk(data, mode, product_mode):
    ga = data.draw(generators(mode, "x", 5))
    gb = data.draw(generators(mode, "y", 4)) if product_mode else None
    legs_a, legs_b = legs_of(ga), legs_of(gb, side=1) if product_mode else None
    for pairing in reference_pairings(legs_a, legs_b):
        # schemes are plain tuples of leg-number pairs
        assert type(pairing) is tuple
        pairing = named(pairing, legs_a + (legs_b or []))
        assert analyze(pairing, ga, gb, mode) == reference_analyze(pairing, ga, gb, mode)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), mode=st.sampled_from(MODES))
def test_analyze_follows_alternating_generator_pairs(data, mode):
    ga = data.draw(generators(mode, "x", 4))
    gb, gc, gd = (data.draw(generators(mode, prefix, 3)) for prefix in "yuv")
    copy_a = Generator(ga.traces)
    assert copy_a == ga and copy_a is not ga
    jobs = [(ga, gb), (gc, gd), (ga, None), (copy_a, gb), (gc, None)]

    def run(a, b):
        legs_a, legs_b = legs_of(a), None if b is None else legs_of(b, side=1)
        return [(named(pairing, legs_a + (legs_b or [])), a, b)
                for pairing in reference_pairings(legs_a, legs_b)]

    runs = [run(a, b) for a, b in jobs]
    for step in zip_longest(*runs):
        for pairing, a, b in filter(None, step):
            assert analyze(pairing, a, b, mode) == reference_analyze(pairing, a, b, mode)


class TestCensus:
    def test_self_contraction_of_a_two_slot_trace(self):
        g = shaped((2,))
        (l0, l1) = legs_of(g)
        report = analyze(((l0, l1),), g)
        assert report.d_count == 0
        assert report.pure_loop_count == 2
        assert report.current_loop_count == 0
        assert report.exponent == -1
        assert report.output_words == ()
        assert result_generator(report).size == 0

    def test_complete_matchings_of_two_two_slot_traces(self):
        ga, gb = shaped((2,)), shaped((2,), prefix="y")
        a, b = legs_of(ga), legs_of(gb, side=1)
        complete = [p for p in reference_pairings(a, b) if len(p) == 2]
        assert len(complete) == 2
        for pairing in complete:
            report = analyze(named(pairing, a + b), ga, gb)
            assert (report.d_count, report.pure_loop_count,
                    report.current_loop_count) == (0, 2, 0)
            comp, = report.components
            assert (comp.vertices, comp.pairs, comp.faces, comp.handles) \
                == (2, 2, 2, 0)
            assert report.exponent == 0

    def test_single_glue_between_two_slot_traces(self):
        ga, gb = shaped((2,)), shaped((2,), prefix="y")
        a, b = legs_of(ga), legs_of(gb, side=1)
        pairing = ((a[0], b[0]),)
        report = analyze(pairing, ga, gb)
        assert report.pure_loop_count == 0
        assert report.current_loop_count == 1
        assert report.exponent == 1
        out = result_generator(report)
        assert trace_lengths(out) == (2,)
        assert sorted(s.label for s in out.traces[0].slots) == ["x2", "y2"]

    def test_empty_pairing_counts_isolated_vertices(self):
        ga = shaped((3, 3))
        gb = shaped((3, 3), prefix="y")
        report = analyze((), ga, gb)
        assert report.d_count == 4
        assert report.components == ()
        assert report.exponent == 0
        assert trace_lengths(result_generator(report)) == (3, 3, 3, 3)

    def test_exponent_identities_hold_on_every_scheme(self):
        ga, gb = shaped((3,)), shaped((2, 1), prefix="y")
        a, b = legs_of(ga), legs_of(gb, side=1)
        for pairing in reference_pairings(a, b):
            r = analyze(named(pairing, a + b), ga, gb)
            assert sum(c.faces for c in r.components) == r.pure_loop_count + r.current_loop_count
            assert r.exponent == len(r.pairs) - r.pure_loop_count
            for comp in r.components:
                assert comp.faces - comp.pairs + comp.vertices \
                    == 2 - 2 * comp.handles
                assert comp.handles >= 0

    def test_validation(self):
        ga, gb = shaped((2,)), shaped((2,), prefix="y")
        a, b = legs_of(ga), legs_of(gb, side=1)
        with pytest.raises(RibbonError, match="must join the two factors"):
            analyze(((a[0], a[1]),), ga, gb)  # same side in product mode
        with pytest.raises(RibbonError, match=r"leg LegId\(side=0, trace=0, slot=0\) appears in two"):
            analyze(((a[0], b[0]), (a[0], b[1])), ga, gb)  # leg reused
        with pytest.raises(RibbonError, match="paired with itself"):
            analyze(((a[0], a[0]),), ga)  # self-pair
        with pytest.raises(RibbonError, match=r"LegId\(side=1, trace=5, slot=0\) is not a leg"):
            analyze(((a[0], LegId(1, 5, 0)),), ga, gb)  # no such trace


class TestColoredCensus:
    MODE = Mode("matrix", 2)

    def colored_pair(self):
        return (shaped((2,), mode=self.MODE, colors=(1, 2)),
                shaped((2,), prefix="y", mode=self.MODE, colors=(1, 2)))

    def test_projector_loop_carries_block_ratios(self):
        g = shaped((2,), mode=self.MODE, colors=(1, 2))
        l0, l1 = legs_of(g)
        report = analyze(((l0, l1),), g, mode=self.MODE)
        assert not report.weight_zero
        assert report.exponent == -1
        assert report.s_exponents == ((1, 1), (2, 1))

    def test_exactly_one_complete_matching_survives(self):
        ga, gb = self.colored_pair()
        a, b = legs_of(ga), legs_of(gb, side=1)
        complete = [analyze(named(p, a + b), ga, gb, mode=self.MODE)
                    for p in reference_pairings(a, b) if len(p) == 2]
        assert len(complete) == 2
        alive = [r for r in complete if not r.weight_zero]
        dead = [r for r in complete if r.weight_zero]
        assert len(alive) == 1 and len(dead) == 1
        assert alive[0].s_exponents == ((1, 1), (2, 1))
        assert alive[0].exponent == 0
        assert "mixed" in dead[0].zero_reason

    def test_monochrome_loops_accumulate_one_ratio(self):
        g = shaped((2,), mode=self.MODE, colors=(1, 1))
        l0, l1 = legs_of(g)
        report = analyze(((l0, l1),), g, mode=self.MODE)
        assert report.s_exponents == ((1, 2),)
        assert not report.weight_zero


def test_kernel_mode_reports_match_matrix_counts():
    # the census is mode-independent apart from colors
    ga = shaped((2,), mode=KERNEL)
    gb = shaped((2,), prefix="y", mode=KERNEL)
    a, b = legs_of(ga), legs_of(gb, side=1)
    reports = [analyze(named(p, a + b), ga, gb, mode=KERNEL) for p in reference_pairings(a, b)]
    assert sorted(r.exponent for r in reports) == [0, 0, 0, 1, 1, 1, 1]


def _split_first_trace(pair_map):
    """The first trace's legs each made a loop of their own, against its vertex."""
    sigma = [i if v == 0 else j for i, (v, j) in enumerate(zip(pair_map.vertex, pair_map.sigma))]
    return pair_map._replace(sigma=sigma)


def _shorten_first_trace(pair_map):
    """The first trace's rank word one slot short."""
    words = pair_map.vertex_ranks
    return pair_map._replace(vertex_ranks=[words[0][1:]] + words[1:])


@pytest.mark.parametrize("corrupt, pairing, message", [
    (_split_first_trace, lambda a, b: ((a[0], b[0]),), "Euler relation violated"),
    (_shorten_first_trace, lambda a, b: (), "leg bookkeeping"),
])
def test_census_refuses_an_inconsistent_map(corrupt, pairing, message):
    ga, gb = shaped((2,)), shaped((2,), prefix="y")
    a, b = [0, 1], [2, 3]   # leg numbers on the map of ga and gb
    pair_map = map_of(ga, gb)
    census(pairing(a, b), pair_map, MATRIX)  # the map as built is consistent
    with pytest.raises(RibbonError, match=message):
        census(pairing(a, b), corrupt(pair_map), MATRIX)
    # the enumerator reduces its schemes through the same checks
    list(enumerate_pairings(range(2), range(2, 4), pair_map=pair_map, mode=MATRIX))
    with pytest.raises(RibbonError, match=message):
        list(enumerate_pairings(range(2), range(2, 4), pair_map=corrupt(pair_map), mode=MATRIX))


def test_census_reads_the_side_rule_from_the_map():
    # a transport pairs legs of one factor; analyze refuses that in a product
    ga, gb = shaped((2,)), shaped((2,), prefix="y")
    assert census(((0, 1),), map_of(ga), MATRIX) is not None
    a = legs_of(ga)
    with pytest.raises(RibbonError, match="join the two factors"):
        analyze(((a[0], a[1]),), ga, gb)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), mode=st.sampled_from(MODES))
def test_census_keys_of_interleaved_pairs_equal_those_of_each_pair(data, mode):
    jobs = [(data.draw(generators(mode, "x", 4)), data.draw(generators(mode, "y", 3))),
            (data.draw(generators(mode, "u", 4)), None)]
    schemes = [list(reference_pairings(legs_of(ga), None if gb is None else legs_of(gb, 1)))
               for ga, gb in jobs]
    maps = [map_of(ga, gb) for ga, gb in jobs]
    one_by_one = [[census(p, pair_map, mode) for p in pairings]
                  for pair_map, pairings in zip(maps, schemes)]
    # the pairs taken alternately (A, B, A, ...), each census on a fresh map
    alternating = [[], []]
    for step in zip_longest(*schemes):
        for k, ((ga, gb), p) in enumerate(zip(jobs, step)):
            if p is not None:
                alternating[k].append(census(p, map_of(ga, gb), mode))
    assert alternating == one_by_one
    # two enumerators drawn alternately keep their states apart
    enumerators = [enumerate_pairings(*leg_numbers(pair_map), pair_map=pair_map, mode=mode)
                   for pair_map in maps]
    drawn, done = [[], []], object()
    for step in zip_longest(*enumerators, fillvalue=done):
        for k, key in enumerate(step):
            if key is not done:
                drawn[k].append(key)
    assert drawn == one_by_one
