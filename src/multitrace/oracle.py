"""Brute-force finite-size checker, independent of the graph engine.

Moments of normal-ordered trace words are computed the slow, literal
way: one index variable per slot, a boolean grid over every explicit
assignment of all N^legs index values, and a depth-first walk over the
perfect matchings of the legs.  Each pair of the walk ANDs its two
index deltas into its parent's grid, so matchings that share their
first pairs share those grids; each leaf counts the assignments its
matching satisfies, and the counts are summed by the number of pairs
inside a generator.  Sharing a prefix only reuses an AND already done:
every matching is still counted over the full grid, with no delta-chain
simplification and no face walk shared with the ribbon module.  The
matrix-entry covariance is

    < M[i,j] M[k,l] >  =  c * delta(i,l) * delta(k,j)

with an optional block decomposition of the index range for colored
projectors.  Everything is exact: counts are integers and weights are
rationals.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .coeffring import Coefficient, RationalLike
from .observables import Generator


class OracleError(ValueError):
    pass


# Largest assignment grid (N^legs boolean cells) the oracle allocates.  The
# matching walk keeps one grid per level alive, so at most legs/2 + 1 grids
# exist at once.  The shipped checks use at most 3^10 = 59,049 cells.
MAX_GRID_CELLS = 10**7


@dataclass(frozen=True)
class OracleConfig:
    """One finite model: size, block sizes, covariance, hbar."""

    n: int
    block_sizes: tuple[int, ...] = ()
    covariance: Fraction = Fraction(1)
    hbar: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise OracleError(f"matrix size must be an integer, got {self.n!r}")
        if self.n < 1:
            raise OracleError("matrix size must be at least 1")
        object.__setattr__(self, "block_sizes", tuple(self.block_sizes))
        object.__setattr__(self, "covariance", Fraction(self.covariance))
        object.__setattr__(self, "hbar", Fraction(self.hbar))
        if self.block_sizes:
            if any(b < 0 for b in self.block_sizes):
                raise OracleError("block sizes must be naturals")
            if sum(self.block_sizes) != self.n:
                raise OracleError(
                    f"block sizes {self.block_sizes} do not sum to n={self.n}")

    def block_range(self, color: int) -> range:
        if not self.block_sizes or not (1 <= color <= len(self.block_sizes)):
            raise OracleError(f"no block for color {color}")
        start = sum(self.block_sizes[:color - 1])
        return range(start, start + self.block_sizes[color - 1])


def moment_with_ordering(gens: Sequence[Generator], cfg: OracleConfig,
                         ordering_covariance: RationalLike,
                         max_legs: int = 10) -> Fraction:
    """Moment of words normal-ordered against an arbitrary kernel.

    Pairs inside one generator weigh (c - kappa) where kappa is the
    ordering kernel; cross pairs weigh c.  kappa equal to c recovers
    plain normal-ordered moments, kappa zero the full moments.
    """
    kappa = Fraction(ordering_covariance)
    # one index variable per slot: its row index; its column is the next
    # slot's row index (cyclically within the trace)
    owner: list[int] = []
    follower: list[int] = []
    colors: list[int | None] = []
    for gi, gen in enumerate(gens):
        for trace in gen.traces:
            start, length = len(owner), len(trace.slots)
            for si, slot in enumerate(trace.slots):
                owner.append(gi)
                follower.append(start + (si + 1) % length)
                colors.append(slot.color)
    nvars = len(owner)
    if nvars > max_legs:
        raise OracleError(
            f"{nvars} legs exceed the oracle cap of {max_legs}; "
            "the assignment sum would be too large")
    n = cfg.n
    cells = n ** nvars
    if cells > MAX_GRID_CELLS:
        raise OracleError(
            f"N={n} at {nvars} legs needs an assignment grid of {cells} "
            f"cells, over the oracle cap of {MAX_GRID_CELLS}")
    axes = [np.arange(n).reshape([n if w == v else 1 for w in range(nvars)])
            for v in range(nvars)]
    root = np.ones((n,) * nvars, dtype=bool)
    for v, color in enumerate(colors):
        if color is not None:
            block = cfg.block_range(color)
            root &= (axes[follower[v]] >= block.start) & (axes[follower[v]] < block.stop)
    if nvars % 2:
        return Fraction(0)
    c = cfg.covariance
    pair_weight = (cfg.hbar * c, cfg.hbar * (c - kappa))   # cross, intra
    counts: Counter[int] = Counter()   # satisfying assignments by intra pairs

    def walk(grid: np.ndarray, free: tuple[int, ...], intra: int) -> None:
        if not free:
            counts[intra] += int(np.count_nonzero(grid))
            return
        a, rest = free[0], free[1:]
        for j, b in enumerate(rest):
            inside = owner[a] == owner[b]
            if pair_weight[inside] == 0:
                continue
            # M[a, a+] M[b, b+] forces row(a) = col(b) and row(b) = col(a)
            delta = (axes[a] == axes[follower[b]]) & (axes[b] == axes[follower[a]])
            walk(grid & delta, rest[:j] + rest[j + 1:], intra + inside)

    walk(root, tuple(range(nvars)), 0)
    pairs = nvars // 2
    total = sum(pair_weight[0] ** (pairs - i) * pair_weight[1] ** i * count
                for i, count in counts.items())
    return Fraction(total, n ** pairs)


def oracle_moment(gens: Sequence[Generator], cfg: OracleConfig,
                  allow_intra: bool = False, max_legs: int = 10) -> Fraction:
    """Moment of the normalized generators under the size-cfg.n model.

    ``allow_intra`` drops the normal ordering (every pairing counts),
    which is the same as ordering against the zero kernel.
    """
    kappa = Fraction(0) if allow_intra else cfg.covariance
    return moment_with_ordering(gens, cfg, kappa, max_legs=max_legs)


@dataclass(frozen=True)
class OracleCheckLine:
    cfg: OracleConfig
    claimed: Fraction
    observed: Fraction

    @property
    def ok(self) -> bool:
        return self.claimed == self.observed


@dataclass(frozen=True)
class OracleReport:
    lines: tuple[OracleCheckLine, ...]

    @property
    def ok(self) -> bool:
        return all(line.ok for line in self.lines)

    def render(self) -> str:
        out = []
        for line in self.lines:
            cfg = line.cfg
            blocks = ",".join(str(b) for b in cfg.block_sizes) or "-"
            verdict = "ok" if line.ok else "MISMATCH"
            out.append(f"N={cfg.n} blocks={blocks} c={cfg.covariance} "
                       f"hbar={cfg.hbar}: claimed {line.claimed} "
                       f"oracle {line.observed} [{verdict}]")
        return "\n".join(out)


def eval_environment(cfg: OracleConfig) -> dict[str, Fraction]:
    """Numeric assignments matching one finite model."""
    env = {
        "eps": Fraction(1, cfg.n),
        "hbar": cfg.hbar,
        "g": cfg.covariance,
    }
    for color, size in enumerate(cfg.block_sizes, start=1):
        env[f"s{color}"] = Fraction(size, cfg.n)
    return env


def oracle_check(gens: Sequence[Generator], claim: Coefficient,
                 cfgs: Sequence[OracleConfig], max_legs: int = 10) -> OracleReport:
    """Compare a claimed moment coefficient against brute force.

    The claim is evaluated at eps = 1/N, block ratios N_a/N, g = c and
    the configured hbar, then matched exactly against the literal
    matching-and-index sum.
    """
    lines = []
    for cfg in cfgs:
        claimed = claim.eval(eval_environment(cfg))
        observed = oracle_moment(gens, cfg, max_legs=max_legs)
        lines.append(OracleCheckLine(cfg, claimed, observed))
    return OracleReport(tuple(lines))


# -- exact hermitian sampling -------------------------------------------------

_CNum = tuple[Fraction, Fraction]  # (real, imaginary)


def _cadd(a: _CNum, b: _CNum) -> _CNum:
    return (a[0] + b[0], a[1] + b[1])


def _cmul(a: _CNum, b: _CNum) -> _CNum:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _random_hermitian(n: int, rng: random.Random) -> list[list[_CNum]]:
    def q() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    m: list[list[_CNum]] = [[(Fraction(0), Fraction(0))] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = (q(), Fraction(0))
        for j in range(i + 1, n):
            re, im = q(), q()
            m[i][j] = (re, im)
            m[j][i] = (re, -im)
    return m


def _trace_power(m: list[list[_CNum]], k: int) -> _CNum:
    n = len(m)
    total: _CNum = (Fraction(0), Fraction(0))
    for path in itertools.product(range(n), repeat=k):
        term: _CNum = (Fraction(1), Fraction(0))
        for step in range(k):
            term = _cmul(term, m[path[step]][path[(step + 1) % k]])
        total = _cadd(total, term)
    return total


def sample_matrix_identity(expr: Sequence[tuple[RationalLike, Sequence[int]]],
                           n: int, trials: int = 20, seed: int = 2024) -> bool:
    """Test a claimed identity among plain trace powers at size n.

    ``expr`` is a list of (rational coefficient, trace powers) terms,
    e.g. ``[(1, [3]), (Fraction(-3, 2), [1, 2]), (Fraction(1, 2), [1, 1, 1])]``.
    Each trial draws a pseudo-random rational hermitian matrix and
    evaluates the combination exactly; True means every trial vanished.
    """
    rng = random.Random(seed)
    for _ in range(trials):
        m = _random_hermitian(n, rng)
        powers = {k for _, word in expr for k in word}
        traces = {k: _trace_power(m, k) for k in powers}
        total: _CNum = (Fraction(0), Fraction(0))
        for coeff, word in expr:
            term: _CNum = (Fraction(coeff), Fraction(0))
            for k in word:
                term = _cmul(term, traces[k])
            total = _cadd(total, term)
        if total != (Fraction(0), Fraction(0)):
            return False
    return True
