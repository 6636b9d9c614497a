"""Operator products of multi-trace series and derived operations.

Every structure constant is a sum over contraction schemes, and one
loop, ``scheme_series``, computes that sum for the operator product
(cross pairs between two generators) and for the kernel transport
(self pairs of one generator).  A scheme with P pairs, I pure loops and
per-component handle counts H_k contributes the monomial

    eps^(P - I) * hbar^P * (pair kernels) * (block ratios) * W(out)

with weight one, where W(out) collects surviving currents (one trace
per current loop) and untouched traces.  Legs are numbered, so schemes
that differ only by which equal-label leg they use still count
separately.  Per generator pair, ``ribbon.census`` reduces each scheme
to an integer key, the schemes are counted per key, and each distinct
key is assembled once into its output generator and monomial
(``scheme_coefficient``) times the rational input coefficients; all
pairs are merged by one ``Series.build``.

Everything downstream (moments, commutators, connected parts, the
size-squared bracket, the genus table) is built from this one sum.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import cache, reduce
from itertools import permutations
from math import factorial
from typing import Callable, Iterable, Mapping, Sequence

from .coeffring import Coefficient, KernelSymbol, Monomial, ONE
from .observables import (Generator, Mode, Series, Slot, TraceWord,
                          UNIT_GENERATOR, classical_product)
from .ribbon import EnumerationStats, census, enumerate_pairings, legs_of, rank_slots
# bound here so the benchmark's tracer (perfbench/tracing.py HOOKS) finds them
from .ribbon import analyze, result_generator  # noqa: F401


class AlgebraError(ValueError):
    """Raised for mode mismatches and failed divisibility checks."""


MATRIX_KERNEL = KernelSymbol("g")

# the kernel of a contracted pair: one symbol for every pair (matrix mode),
# or a function naming it from the pair's two slots (kernel mode)
PairKernel = KernelSymbol | Callable[[Slot, Slot], KernelSymbol]


def product_pair_kernel(mode: Mode) -> PairKernel:
    """Kernel of a product pair: ``g``, or ``K(u,v)`` in kernel mode."""
    if mode.kind == "matrix":
        return MATRIX_KERNEL
    return lambda su, sv: KernelSymbol("K", ((su.label, su.conjugated),
                                             (sv.label, sv.conjugated)))


def scheme_coefficient(key: tuple,
                       kernel: KernelSymbol | Callable[[int, int], KernelSymbol]) -> Monomial:
    """Monomial of the schemes of one ``census`` key (each has weight one).

    ``kernel`` is the one kernel symbol of matrix mode, or names the
    kernel of a pair from its two slot ranks.
    """
    _, eps_half, s, pairs = key
    if isinstance(pairs, int):
        return Monomial(eps_half, pairs, s, ((kernel, pairs),))
    return Monomial(eps_half, len(pairs), s, tuple((kernel(u, v), 1) for u, v in pairs))


def scheme_series(mode: Mode, jobs: Iterable[tuple[Generator, Generator | None, Coefficient]],
                  kernel: PairKernel, max_eps_degree: int | None,
                  flags: set[str], negate: bool = False) -> Series:
    """Sum over the admitted schemes of all jobs, merged into one series.

    A job ``(gen_a, gen_b, scale)`` adds the cross pairings of the two
    generators, or the self pairings of ``gen_a`` if ``gen_b`` is None
    (transport), times ``scale``.  Only schemes within the eps cap are
    enumerated; weight-zero ones are skipped.  ``flags`` gains
    "truncated" exactly when the cap excluded a scheme of any weight,
    and "negative-eps" for a scheme of negative eps exponent.  ``negate``
    signs each scheme by (-1)^hbar, the inverse kernel shift.
    """
    by_gen: dict[Generator, list] = defaultdict(list)
    for gen_a, gen_b, scale in jobs:
        legs_b = None if gen_b is None else legs_of(gen_b, 1)
        stats = EnumerationStats()
        counts = Counter(filter(None, (
            census(pairing, gen_a, gen_b, mode) for pairing in enumerate_pairings(
                legs_of(gen_a, 0), legs_b, max_eps_degree=max_eps_degree, stats=stats))))
        if stats.pruned_branches:
            flags.add("truncated")
        slots = rank_slots(gen_a, gen_b) if counts else []
        # each output generator and each pair kernel is built once per job
        output = cache(lambda words: Generator(tuple(
            TraceWord(tuple(slots[r] for r in word)) for word in words)))
        name = kernel if mode.kind == "matrix" else cache(
            lambda u, v: kernel(slots[u], slots[v]))
        for key, count in counts.items():
            mono = scheme_coefficient(key, name)
            if mono.eps_half < 0:
                flags.add("negative-eps")
            sign = -1 if negate and mono.hbar % 2 else 1
            by_gen[output(key[0])].extend((mono.mul(m), sign * count * q) for m, q in scale.terms)
    # popping frees each entry list once its coefficient is built (peak memory)
    merged = [(gen, Coefficient.build(by_gen.pop(gen))) for gen in list(by_gen)]
    return Series.build(mode, merged, flags)


def product(a: Series, b: Series, *, max_eps_degree: int | None = None) -> Series:
    """Operator product, exact unless an eps cap drops schemes."""
    if a.mode != b.mode:
        raise AlgebraError(f"mode mismatch: {a.mode} vs {b.mode}")
    jobs = ((ga, gb, ca * cb) for ga, ca in a.terms for gb, cb in b.terms)
    return scheme_series(a.mode, jobs, product_pair_kernel(a.mode), max_eps_degree,
                         set(a.flags | b.flags))


def product_chain(factors: Sequence[Series], *, max_eps_degree: int | None = None) -> Series:
    """Left-to-right fold of ``product`` (associative, so the fold is a choice)."""
    if not factors:
        raise AlgebraError("need at least one factor")
    acc = factors[0]
    for nxt in factors[1:]:
        acc = product(acc, nxt, max_eps_degree=max_eps_degree)
    return acc


def expectation(series: Series) -> Coefficient:
    """Coefficient of the unit generator (the Gaussian state)."""
    return series.coefficient(UNIT_GENERATOR)


def moment(gens: Sequence[Generator], mode: Mode,
           *, max_eps_degree: int | None = None) -> Coefficient:
    """Expectation of the product of the given generators, in order."""
    if not gens:
        return ONE
    factors = [Series.of(g, mode) for g in gens]
    return expectation(product_chain(factors, max_eps_degree=max_eps_degree))


def commutator(a: Series, b: Series) -> Series:
    return product(a, b) - product(b, a)


def poisson_bracket(a: Series, b: Series) -> Series:
    """Commutator divided by eps squared.

    The division must be exact; a term of eps degree below two raises,
    naming the offending term, since the bracket is only defined on
    suitably size-normalized inputs.
    """
    comm = commutator(a, b)
    offenders = [(mono.eps_half, mono, q, gen)
                 for gen, coeff in comm.terms
                 for mono, q in coeff.terms
                 if mono.eps_half < 4]
    if offenders:
        _, mono, q, gen = min(offenders, key=lambda item: item[0])
        raise AlgebraError(
            "commutator term not divisible by eps^2: "
            f"{Coefficient.monomial(mono, q).render()} * {gen.render()}")
    shifted = [(gen, coeff.shift_eps_half(-4)) for gen, coeff in comm.terms]
    return Series.build(comm.mode, shifted, comm.flags)


def _set_partitions(items: Sequence[int]) -> Iterable[list[list[int]]]:
    """All set partitions, each block keeping the original order."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def _ordered_products(factors: Sequence[Series], cap: int | None):
    """Memoized product of a tuple of factor indices, in operator order;
    each extends its prefix's product by one factor (``product_chain``'s fold)."""
    memo: dict[tuple[int, ...], Series] = {}

    def chain(seq: tuple[int, ...]) -> Series:
        if len(seq) == 1:
            return factors[seq[0]]
        if seq not in memo:
            memo[seq] = product(chain(seq[:-1]), factors[seq[-1]], max_eps_degree=cap)
        return memo[seq]

    return chain


def _connected(chain, seq: Sequence[int]) -> list[tuple[int, Series]]:
    """Connected part of the product of ``seq``: per set partition pi, the weight
    (-1)^(|pi|-1) (|pi|-1)! and the classical product of its blocks' products."""
    return [((-1) ** (len(part) - 1) * factorial(len(part) - 1),
             reduce(classical_product, (chain(tuple(block)) for block in part)))
            for part in _set_partitions(list(seq))]


def _combination(mode: Mode, weighted: Sequence[tuple[int, Series]]) -> Series:
    """Sum of integer multiples of series, merged by one ``Series.build``."""
    entries = [(gen, coeff.scale(w)) for w, s in weighted for gen, coeff in s.terms]
    return Series.build(mode, entries, frozenset().union(*(s.flags for _, s in weighted)))


def connected_product(factors: Sequence[Series], *,
                      max_eps_degree: int | None = None) -> Series:
    """Connected part of the operator product of ``factors``.

    Defined by: the full product is the sum over set partitions of the
    factor list of the classical products of the blocks' connected
    parts, factor order kept inside each block.  Its Moebius inversion
    (Rota 1964) weighs a partition pi by (-1)^(|pi|-1) (|pi|-1)!.
    """
    if not factors:
        raise AlgebraError("need at least one factor")
    chain = _ordered_products(factors, max_eps_degree)
    return _combination(factors[0].mode, _connected(chain, range(len(factors))))


def _commutator_words(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """Signed word expansion of [A_n, [... [A_1, B] ...]].

    Factors are numbered 0..n-1 for A_1..A_n and n for B; each word is
    a tuple of factor indices in operator order.
    """
    words: list[tuple[int, tuple[int, ...]]] = [(1, (n,))]
    for k in range(n):
        nxt: list[tuple[int, tuple[int, ...]]] = []
        for sign, word in words:
            nxt.append((sign, (k,) + word))
            nxt.append((-sign, word + (k,)))
        words = nxt
    return words


def nested_commutator_sym(a_list: Sequence[Series], b: Series) -> tuple[Series, Series]:
    """Both sides of the symmetrized nested-commutator identity.

    Returns (connected side, plain side): the sum over permutations pi
    of the connected part of [A_pi(n), [... [A_pi(1), B] ...]] and the
    same sum without taking connected parts.  The two are equal; the
    caller asserts it.  Equal words of different permutations are
    summed first, and all words share one table of ordered products.
    """
    n = len(a_list)
    signs: Counter = Counter()
    for perm in permutations(range(n)):
        for sign, word in _commutator_words(n):
            signs[tuple((*perm, n)[k] for k in word)] += sign
    chain = _ordered_products(list(a_list) + [b], None)
    plain = [(sign, chain(seq)) for seq, sign in signs.items()]
    conn = [(sign * w, piece) for seq, sign in signs.items()
            for w, piece in _connected(chain, seq)]
    return _combination(b.mode, conn), _combination(b.mode, plain)


def restrict_colors(series: Series, face: Sequence[int],
                    relabel: Mapping[int, int] | None = None) -> Series:
    """Restrict a colored series to a sub-simplex of colors.

    Block ratios of colors outside ``face`` are set to zero (their
    monomials drop), generators whose slots use an outside color drop,
    and remaining colors are renamed by ``relabel`` (by default the
    sorted face maps onto 1..len(face)).
    """
    if not series.mode.colored:
        raise AlgebraError("restrict_colors needs a colored series")
    face_set = set(face)
    if not face_set or any(c < 1 or c > series.mode.colors for c in face_set):
        raise AlgebraError(f"face {sorted(face_set)} is not a subset of the colors")
    if relabel is None:
        relabel = {c: i + 1 for i, c in enumerate(sorted(face_set))}
    if set(relabel) != face_set or sorted(relabel.values()) != list(range(1, len(face_set) + 1)):
        raise AlgebraError("relabel must biject the face onto 1..len(face)")
    new_mode = Mode(series.mode.kind, len(face_set))

    out = []
    for gen, coeff in series.terms:
        if any(s.color not in face_set for t in gen.traces for s in t.slots):
            continue
        new_gen = Generator(tuple(
            TraceWord(tuple(Slot(s.label, s.conjugated, relabel[s.color])
                            for s in t.slots))
            for t in gen.traces))
        kept = []
        for mono, q in coeff.terms:
            if any(color not in face_set for color, _ in mono.s):
                continue
            kept.append((Monomial(mono.eps_half, mono.hbar,
                                  tuple((relabel[c], p) for c, p in mono.s),
                                  mono.kernels), q))
        new_coeff = Coefficient.build(kept)
        if new_coeff:
            out.append((new_gen, new_coeff))
    return Series.build(new_mode, out, series.flags)


def substitute_block_ratio(series: Series, color: int, value) -> Series:
    """Evaluate one block ratio symbol to a rational."""
    return series.map_coefficients(lambda c: c.substitute({f"s{color}": value}))


def strip_colors(series: Series, target_kind: str | None = None) -> Series:
    """Forget colors entirely (legal once a single color remains).

    Maps every slot to its uncolored twin; any surviving block-ratio
    symbol is an error, so substitute it away first.
    """
    for _, coeff in series.terms:
        for mono, _ in coeff.terms:
            if mono.s:
                raise AlgebraError(
                    "series still carries block-ratio symbols; substitute them first")
    out = []
    for gen, coeff in series.terms:
        new_gen = Generator(tuple(
            TraceWord(tuple(Slot(s.label, s.conjugated, None) for s in t.slots))
            for t in gen.traces))
        out.append((new_gen, coeff))
    kind = target_kind or series.mode.kind
    return Series.build(Mode(kind, 0), out, series.flags)
