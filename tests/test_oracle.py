"""The brute-force finite-size checker must be trusted before anything else.

Everything here is pinned against values small enough to verify by hand:
literal matchings, literal index sums, no shared code with the engine.
"""

from fractions import Fraction

import pytest

from multitrace import (
    MATRIX,
    Mode,
    OracleConfig,
    OracleError,
    eval_environment,
    oracle_check,
    oracle_moment,
    moment_with_ordering,
    parse_coefficient,
    sample_matrix_identity,
)

from helpers import shaped


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
