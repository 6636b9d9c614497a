"""Pairing enumeration and the strand-walk census behind every product."""

from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from multitrace import (
    EnumerationStats,
    KERNEL,
    LegId,
    Mode,
    RibbonError,
    analyze,
    enumerate_pairings,
    legs_of,
    result_generator,
)
from multitrace.ribbon import RibbonMap, exponent_bound

from helpers import MODES, generators, reference_analyze, shaped


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def product_pairing_count(na, nb):
    out = 0
    fact = 1
    for k in range(min(na, nb) + 1):
        fact *= max(k, 1)
        out += comb(na, k) * comb(nb, k) * fact
    return out


def transport_pairing_count(n):
    return sum(comb(n, 2 * k) * double_factorial(2 * k - 1)
               for k in range(n // 2 + 1))


class TestEnumeration:
    def test_small_product_counts(self):
        a, b = legs_of(shaped((1,))), legs_of(shaped((1,), prefix="y"), side=1)
        assert len(list(enumerate_pairings(a, b))) == 2
        a, b = legs_of(shaped((2,))), legs_of(shaped((2,), prefix="y"), side=1)
        assert len(list(enumerate_pairings(a, b))) == 7

    @pytest.mark.parametrize("na,nb", [(1, 1), (1, 3), (2, 2), (3, 2), (3, 3), (4, 2)])
    def test_product_counts_match_the_closed_form(self, na, nb):
        a = legs_of(shaped((na,)))
        b = legs_of(shaped((nb,), prefix="y"), side=1)
        assert len(list(enumerate_pairings(a, b))) == product_pairing_count(na, nb)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_transport_counts(self, n):
        legs = legs_of(shaped((n,)))
        assert len(list(enumerate_pairings(legs))) == transport_pairing_count(n)

    def test_empty_pairing_comes_first_and_order_is_stable(self):
        a = legs_of(shaped((2,)))
        b = legs_of(shaped((2,), prefix="y"), side=1)
        first = list(enumerate_pairings(a, b))
        second = list(enumerate_pairings(a, b))
        assert first == second
        assert first[0] == ()

    def test_stats_counts_yields(self):
        stats = EnumerationStats()
        legs = legs_of(shaped((4,)))
        n = len(list(enumerate_pairings(legs, stats=stats)))
        assert stats.yielded == n == 10

    def test_shared_legs_rejected(self):
        legs = legs_of(shaped((2,)))
        with pytest.raises(RibbonError):
            list(enumerate_pairings(legs, legs))

    @pytest.mark.parametrize("shape_a,shape_b", [((3,), (3,)), ((2, 1), (2, 1))])
    def test_pruning_never_loses_an_admissible_scheme(self, shape_a, shape_b):
        # the cap yields exactly the schemes within it, in uncapped order
        ga, gb = shaped(shape_a), shaped(shape_b, prefix="y")
        a, b = legs_of(ga), legs_of(gb, side=1)
        full = list(enumerate_pairings(a, b))
        for cap in (0, 1):
            wanted = [p for p in full if analyze(p, ga, gb).exponent <= cap]
            stats = EnumerationStats()
            assert list(enumerate_pairings(a, b, max_eps_degree=cap, stats=stats)) == wanted
            assert stats.yielded == len(wanted)
            assert (stats.pruned_branches > 0) == (len(wanted) < len(full))

    def test_pruning_actually_cuts_branches(self):
        # a pair chain through three vertices pushes the bound past zero
        ga, gb = shaped((2, 1)), shaped((2, 1), prefix="y")
        a, b = legs_of(ga), legs_of(gb, side=1)
        stats = EnumerationStats()
        capped = list(enumerate_pairings(a, b, max_eps_degree=0, stats=stats))
        assert stats.pruned_branches > 0
        assert len(capped) < len(list(enumerate_pairings(a, b)))

    def test_planar_cap_walks_only_the_planar_schemes(self):
        # the empty scheme and the 7 planar complete matchings, out of 130,922
        a, b = legs_of(shaped((7,))), legs_of(shaped((7,), prefix="y"), side=1)
        stats = EnumerationStats()
        capped = list(enumerate_pairings(a, b, max_eps_degree=0, stats=stats))
        assert len(capped) == stats.yielded <= 8


def _path_bounds(pairing, rmap, heads):
    """``exponent_bound`` at each node the enumeration passes on its way
    to ``pairing``, then at the leaf.

    A node is a head leg still unpaired when reached; the pairs chosen
    there are those whose head comes before it, and it is the frontier.
    """
    edges = sorted((rmap.index[u], rmap.index[v]) for u, v in pairing)
    mates = {j for _, j in edges}
    bounds = []
    for node in [k for k in range(heads) if k not in mates] + [len(rmap.legs)]:
        alpha = list(range(len(rmap.legs)))
        chosen = [(i, j) for i, j in edges if i < node]
        for i, j in chosen:
            alpha[i], alpha[j] = j, i
        bounds.append(exponent_bound(rmap.sigma, alpha, len(chosen), node))
    return bounds


@settings(max_examples=120, deadline=None)
@given(data=st.data(), mode=st.sampled_from(MODES), product_mode=st.booleans())
def test_bound_is_monotone_and_reaches_the_exponent(data, mode, product_mode):
    ga = data.draw(generators(mode, "x", 5))
    gb = data.draw(generators(mode, "y", 4)) if product_mode else None
    legs_a = legs_of(ga)
    legs_b = legs_of(gb, side=1) if product_mode else None
    rmap = RibbonMap(legs_a + (legs_b or []))
    for pairing in enumerate_pairings(legs_a, legs_b):
        bounds = _path_bounds(pairing, rmap, len(legs_a))
        assert bounds == sorted(bounds)
        assert bounds[-1] == analyze(pairing, ga, gb, mode).exponent


@settings(max_examples=120, deadline=None)
@given(data=st.data(), mode=st.sampled_from(MODES), product_mode=st.booleans())
def test_analyze_matches_the_reference_walk(data, mode, product_mode):
    ga = data.draw(generators(mode, "x", 5))
    gb = data.draw(generators(mode, "y", 4)) if product_mode else None
    legs_b = legs_of(gb, side=1) if product_mode else None
    for pairing in enumerate_pairings(legs_of(ga), legs_b):
        want = reference_analyze(pairing, ga, gb, mode)
        assert analyze(pairing, ga, gb, mode) == want
        # a plain tuple carries no map: analyze builds its own
        assert analyze(tuple(pairing), ga, gb, mode) == want


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
        complete = [p for p in enumerate_pairings(a, b) if len(p) == 2]
        assert len(complete) == 2
        for pairing in complete:
            report = analyze(pairing, ga, gb)
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
        assert out.trace_lengths == (2,)
        assert sorted(s.label for s in out.traces[0].slots) == ["x2", "y2"]

    def test_empty_pairing_counts_isolated_vertices(self):
        ga = shaped((3, 3))
        gb = shaped((3, 3), prefix="y")
        report = analyze((), ga, gb)
        assert report.d_count == 4
        assert report.components == ()
        assert report.exponent == 0
        assert result_generator(report).trace_lengths == (3, 3, 3, 3)

    def test_exponent_identities_hold_on_every_scheme(self):
        ga, gb = shaped((3,)), shaped((2, 1), prefix="y")
        a, b = legs_of(ga), legs_of(gb, side=1)
        for pairing in enumerate_pairings(a, b):
            r = analyze(pairing, ga, gb)
            assert r.face_count == r.pure_loop_count + r.current_loop_count
            assert r.exponent == r.pair_count - r.pure_loop_count
            for comp in r.components:
                assert comp.faces - comp.pairs + comp.vertices \
                    == 2 - 2 * comp.handles
                assert comp.handles >= 0

    def test_validation(self):
        ga, gb = shaped((2,)), shaped((2,), prefix="y")
        a, b = legs_of(ga), legs_of(gb, side=1)
        with pytest.raises(RibbonError):
            analyze(((a[0], a[1]),), ga, gb)  # same side in product mode
        with pytest.raises(RibbonError):
            analyze(((a[0], b[0]), (a[0], b[1])), ga, gb)  # leg reused
        with pytest.raises(RibbonError):
            analyze(((a[0], a[0]),), ga)  # self-pair
        with pytest.raises(RibbonError):
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
        complete = [analyze(p, ga, gb, mode=self.MODE)
                    for p in enumerate_pairings(a, b) if len(p) == 2]
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
    reports = [analyze(p, ga, gb, mode=KERNEL) for p in enumerate_pairings(a, b)]
    assert sorted(r.exponent for r in reports) == [0, 0, 0, 1, 1, 1, 1]
