"""The brute-force finite-size checker must be trusted before anything else.

Everything here is pinned against values small enough to verify by hand:
literal matchings, literal index sums, no shared code with the engine.
"""

from fractions import Fraction
from itertools import count
from math import prod

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from multitrace import (
    MATRIX,
    Mode,
    OracleConfig,
    OracleError,
    Slot,
    eval_environment,
    make_generator,
    oracle_check,
    oracle_moment,
    moment_with_ordering,
    parse_coefficient,
    sample_matrix_identity,
)

from helpers import harer_zagier, moment_matching_count, reference_moment_with_ordering, shaped


def cfg(n, c=Fraction(1), blocks=(), hbar=Fraction(1)):
    return OracleConfig(n=n, block_sizes=tuple(blocks), covariance=c, hbar=hbar)


class TestPlainMoments:
    def test_normal_ordering_kills_single_generators(self):
        for shape in [(1,), (2,), (4,), (2, 2)]:
            assert oracle_moment([shaped(shape)], cfg(2)) == 0

    def test_odd_leg_counts_vanish(self):
        assert oracle_moment([shaped((2,)), shaped((1,), "y")], cfg(3)) == 0

    def test_two_by_two(self):
        # <:TrM2::TrM2:> = 2 N^2 c^2, then 1/N^2 from the normalization
        assert oracle_moment([shaped((2,)), shaped((2,), "y")], cfg(2)) == 2
        assert oracle_moment([shaped((2,)), shaped((2,), "y")],
                             cfg(3, c=Fraction(1, 2))) == Fraction(1, 2)

    def test_three_by_three(self):
        # <:TrM3::TrM3:> = (3 N^3 + 3 N) c^3
        got = oracle_moment([shaped((3,)), shaped((3,), "y")], cfg(2))
        assert got == Fraction(3 * 8 + 3 * 2, 8)

    def test_hbar_weighting(self):
        got = oracle_moment([shaped((2,)), shaped((2,), "y")],
                            cfg(2, hbar=Fraction(1, 3)))
        assert got == Fraction(2, 9)

    def test_raw_fourth_moment(self):
        # <TrM^4> = (2 N^3 + N) c^2, normalized by N^2
        assert oracle_moment([shaped((4,))], cfg(2), allow_intra=True) \
            == Fraction(9, 2)
        assert oracle_moment([shaped((4,))], cfg(3), allow_intra=True) \
            == Fraction(19, 3)

    def test_factor_order_is_immaterial(self):
        a, b = shaped((2, 1)), shaped((3,), "y")
        assert oracle_moment([a, b], cfg(2)) == oracle_moment([b, a], cfg(2))

    def test_legs_cap(self):
        with pytest.raises(OracleError, match="cap"):
            oracle_moment([shaped((6,)), shaped((6,), "y")], cfg(2))

    def test_matrix_size_must_be_an_int(self):
        for n in [Fraction(5, 2), Fraction(2), 2.0, True]:
            with pytest.raises(OracleError, match="must be an integer"):
                OracleConfig(n=n)

    def test_grid_cap(self):
        # 100^10 cells would be refused by numpy too; the oracle names the size first
        with pytest.raises(OracleError, match="N=100 at 10 legs") as info:
            oracle_moment([shaped((5,)), shaped((5,), "y")], cfg(100))
        assert f"{100 ** 10} cells" in str(info.value)


class TestMixedOrdering:
    def test_kappa_endpoints(self):
        gens = [shaped((4,))]
        assert moment_with_ordering(gens, cfg(2), Fraction(1)) \
            == oracle_moment(gens, cfg(2))
        assert moment_with_ordering(gens, cfg(2), Fraction(0)) \
            == oracle_moment(gens, cfg(2), allow_intra=True)

    def test_partial_ordering_weight(self):
        # single two-slot trace: one intra pair of weight (c - kappa),
        # index loop gives N^2, normalization 1/N
        got = moment_with_ordering([shaped((2,))], cfg(2), Fraction(1, 3))
        assert got == Fraction(2, 3) * 2


class TestColoredMoments:
    MODE = Mode("matrix", 2)

    def one(self, label, color):
        from multitrace import Slot, make_generator
        return make_generator([[Slot(label, False, color)]], self.MODE)

    def test_same_block_pairs_survive(self):
        got = oracle_moment([self.one("x1", 1), self.one("y1", 1)],
                            cfg(2, blocks=(1, 1)))
        assert got == Fraction(1, 2)

    def test_cross_block_pairs_vanish(self):
        got = oracle_moment([self.one("x1", 1), self.one("y1", 2)],
                            cfg(2, blocks=(1, 1)))
        assert got == 0

    def test_block_sizes_scale_the_loop(self):
        got = oracle_moment([self.one("x1", 2), self.one("y1", 2)],
                            cfg(3, blocks=(1, 2)))
        assert got == Fraction(2, 3)

    def test_blocks_must_fill_the_space(self):
        with pytest.raises(OracleError):
            cfg(3, blocks=(1, 1))

    def test_colored_slots_need_blocks(self):
        with pytest.raises(OracleError):
            oracle_moment([self.one("x1", 1), self.one("y1", 1)], cfg(2))

    def test_colored_slots_need_blocks_whether_or_not_a_matching_exists(self):
        # the same two slots in one generator admit no cross matching, and a
        # single slot no matching at all; both are refused as the split form is
        together = make_generator([[Slot("x1", False, 1), Slot("x2", False, 1)]],
                                  self.MODE)
        for gens in ([together], [self.one("x1", 1), self.one("x2", 1)],
                     [self.one("x1", 1)]):
            with pytest.raises(OracleError, match="no block for color 1"):
                oracle_moment(gens, cfg(2))


@st.composite
def oracle_inputs(draw):
    """One to three generators of traces of one to four slots, at most 8
    legs in all, with a finite model: N in 1..3, blocks summing to N when
    the slots are colored, and c, hbar and kappa = 0, c/2 or c."""
    colors = draw(st.integers(0, 2))
    mode = Mode("matrix", colors)
    n = draw(st.integers(1, 3))
    blocks = []
    for _ in range(colors - 1):
        blocks.append(draw(st.integers(0, n - sum(blocks))))
    if colors:
        blocks.append(n - sum(blocks))
    gens, legs = [], 0
    for prefix in "xyz"[:draw(st.integers(1, 3))]:
        shape = []
        for _ in range(draw(st.integers(1, 3))):
            if legs + sum(shape) < 8:
                shape.append(draw(st.integers(1, min(4, 8 - legs - sum(shape)))))
        legs += sum(shape)
        numbers = count(1)
        gens.append(make_generator(
            [[Slot(f"{prefix}{next(numbers)}", False,
                   draw(st.integers(1, colors)) if colors else None)
              for _ in range(length)] for length in shape], mode))
    c = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3), Fraction(-2, 5),
                              Fraction(0)]))
    hbar = draw(st.sampled_from([Fraction(1), Fraction(2, 3), Fraction(-3, 2), Fraction(0)]))
    kappa = draw(st.sampled_from([c, c / 2, Fraction(0)]))
    return gens, cfg(n, c=c, blocks=blocks, hbar=hbar), kappa


class TestAgainstReferences:
    @settings(max_examples=300, deadline=None)
    @given(oracle_inputs())
    def test_the_walk_equals_the_per_matching_loop(self, inputs):
        gens, config, kappa = inputs
        assert moment_with_ordering(gens, config, kappa) \
            == reference_moment_with_ordering(gens, config, kappa)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (1, 2, 3), (2, 2, 2),
                                       (1, 1, 1, 1), (4, 4), (3, 3, 2, 2), (5, 5),
                                       (2, 1, 3, 4), (3,), (1, 3)])
    def test_at_size_one_the_moment_counts_matchings(self, shape):
        # at N = c = hbar = 1 every matching satisfies its single assignment
        gens = [shaped((length,), prefix) for length, prefix in zip(shape, "xyzw")]
        legs = sum(shape)
        assert oracle_moment(gens, cfg(1)) == moment_matching_count(shape)
        double_factorial = prod(range(legs - 1, 0, -2)) if legs % 2 == 0 else 0
        assert oracle_moment(gens, cfg(1), allow_intra=True) == double_factorial

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("half", [1, 2, 3, 4, 5])
    def test_one_trace_follows_harer_zagier(self, n, half):
        # <Tr M^2h> / N^h = sum over genera g of eps_g(h) N^(1 - 2g)
        got = oracle_moment([shaped((2 * half,))], cfg(n), allow_intra=True)
        assert got == sum(gluings * Fraction(n) ** (1 - 2 * g)
                          for g, gluings in harer_zagier(half).items())


class TestCheckReports:
    def test_matching_claim_passes(self):
        claim = parse_coefficient("2*hbar^2*g^2", MATRIX)
        gens = [shaped((2,)), shaped((2,), "y")]
        report = oracle_check(gens, claim, [cfg(2), cfg(3, c=Fraction(1, 2))])
        assert report.ok
        assert "MISMATCH" not in report.render()

    def test_wrong_claim_fails_with_both_values(self):
        claim = parse_coefficient("3*hbar^2*g^2", MATRIX)
        gens = [shaped((2,)), shaped((2,), "y")]
        report = oracle_check(gens, claim, [cfg(2)])
        assert not report.ok
        text = report.render()
        assert "MISMATCH" in text and "claimed 3" in text and "oracle 2" in text

    def test_environment_contents(self):
        env = eval_environment(cfg(3, c=Fraction(1, 2), blocks=(1, 2)))
        assert env == {"eps": Fraction(1, 3), "hbar": Fraction(1),
                       "g": Fraction(1, 2), "s1": Fraction(1, 3),
                       "s2": Fraction(2, 3)}


class TestMatrixSampling:
    IDENTITY = [
        (Fraction(1), [3]),
        (Fraction(-3, 2), [1, 2]),
        (Fraction(1, 2), [1, 1, 1]),
    ]

    def test_cubic_relation_holds_at_size_two(self):
        assert sample_matrix_identity(self.IDENTITY, 2, trials=5)

    def test_cubic_relation_fails_at_size_three(self):
        assert not sample_matrix_identity(self.IDENTITY, 3, trials=5)

    def test_sampling_is_reproducible(self):
        a = sample_matrix_identity(self.IDENTITY, 2, trials=3, seed=11)
        b = sample_matrix_identity(self.IDENTITY, 2, trials=3, seed=11)
        assert a == b
