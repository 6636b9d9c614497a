"""Closed-form counts the benchmark checks the engine against.

None of these touch the engine: they are textbook formulas, so a match
is independent evidence that the engine enumerated and summed the right
things.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def cross_schemes(a: int, b: int) -> int:
    """Partial matchings between a legs and b legs: sum_k C(a,k) C(b,k) k!."""
    return sum(comb(a, k) * comb(b, k) * factorial(k) for k in range(min(a, b) + 1))


def double_factorial_odd(n: int) -> int:
    """(n-1)!! for even n (perfect matchings of n points), 0 for odd n."""
    if n % 2:
        return 0
    out = 1
    for k in range(n - 1, 0, -2):
        out *= k
    return out


def partial_matchings(n: int) -> int:
    """Telephone number: sets of disjoint pairs among n points (9,496 at 10)."""
    return sum(comb(n, 2 * k) * double_factorial_odd(2 * k) for k in range(n // 2 + 1))


def cross_perfect_matchings(a: int, b: int) -> int:
    """Perfect matchings pairing each of a legs with one of b legs."""
    return factorial(a) if a == b else 0


def harer_zagier(n: int) -> dict[int, int]:
    """Genus counts eps_g(n) of one 2n-gon glued into a surface.

    Uses (n+1) e_g(n) = 2(2n-1) e_g(n-1) + (n-1)(2n-1)(2n-3) e_{g-1}(n-2)
    (Harer and Zagier, Invent. Math. 85, 1986), with e_0(0) = 1.
    """
    table: dict[tuple[int, int], int] = {(0, 0): 1}
    for m in range(1, n + 1):
        for g in range(m // 2 + 1):
            rhs = 2 * (2 * m - 1) * table.get((g, m - 1), 0)
            if m >= 2 and g >= 1:
                rhs += (m - 1) * (2 * m - 1) * (2 * m - 3) * table.get((g - 1, m - 2), 0)
            value, rest = divmod(rhs, m + 1)
            if rest:
                raise ArithmeticError("Harer-Zagier recursion left a remainder")
            table[(g, m)] = value
    return {g: table[(g, n)] for g in range(n // 2 + 1) if table[(g, n)]}


def harer_zagier_moment(legs: int, eps: Fraction) -> Fraction:
    """Expectation of a transported single trace with 2n legs at hbar = F = 1.

    Genus g contributes eps_g(n) * eps^(2g-1).
    """
    return sum((Fraction(count) * eps ** (2 * g - 1)
                for g, count in harer_zagier(legs // 2).items()), Fraction(0))
