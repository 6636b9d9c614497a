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
separately.  A call ranks the distinct slots of all its input
generators once (``ribbon.rank_table``, in slot order).  Per
generator pair (a job), the pair's map is built on that table
(``ribbon.map_of``), and ``ribbon.enumerate_pairings`` yields each
scheme's integer key (``None`` for weight zero) on its leg numbers; the
schemes are counted per key.  A key is its output words and its
monomial part (eps half-units, block ratios, kernels).  All jobs share
the table, so equal keys of different jobs name the same term.  The
matchings of each survivor pattern (the least-rotated words of
contracted and surviving legs of the traces that hold a contracted leg,
sorted) within the eps cap are censused on a map of leg positions built
from the pattern alone, in a bounded cache of the process, and
relabeled to slot ranks for each survivor set of each job, which adds
its untouched traces' words; the 727 jobs of the ``(5)x(5)`` output
times ``W{Tr[z1]}`` run the face walk 8 times for their 4,037 schemes,
and a second call none.  A cap cuts branches inside each census.

How a key becomes a term: each job's key counts, times the rationals of
each pair of its scale terms (one from each factor's coefficient), are
added into one call-wide ``{census key: sum}`` per pair of scale
monomials; the coefficients themselves are never multiplied.  After the
last job, each distinct (scale pair, key) is treated once: each
distinct monomial part is built once for the call into its scheme
monomial (``scheme_coefficient``), and once per scale pair into that
monomial times the two scale monomials (``Monomial.mul``, which merges
sorted power lists without re-sorting); the ``(6)x(6)`` matrix pair has
5,122 keys but 19 monomials.  The sum, signed for ``negate``, goes into
one ``{monomial: sum}`` dict per output words, keyed on the words (a
tuple of ints).  Sorted rank words are sorted generators, so the words
are sorted once, each dict becomes one coefficient (one ``Fraction``
per term, zero sums dropped, sorted once by monomial) and is freed, and
the output generator of each kept term is built from its words
(``output_generator``, each trace word once).  The key is already in
canonical order, so the values are built from it as they are, with
their keys, and are never rotated or sorted again.  These tables and
sums live for one ``scheme_series`` call, which runs with the cyclic
garbage collector paused: the values it builds hold no reference
cycles, so the collector's passes over them would free nothing.

Everything downstream (moments, commutators, connected parts, the
size-squared bracket, the genus table) is built from this one sum.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, reduce
from itertools import permutations
from math import factorial
from typing import Callable, Iterable, Sequence

from .coeffring import (Coefficient, KernelSymbol, Monomial, ONE, RationalLike,
                        _collector_paused)
from .observables import (Generator, Mode, Series, Slot, TraceWord,
                          UNIT_GENERATOR, classical_product)
from .ribbon import EnumerationStats, enumerate_pairings, map_of, rank_table
# bound here so the benchmark's tracer (perfbench/tracing.py HOOKS) finds them
from .ribbon import analyze, result_generator  # noqa: F401


class AlgebraError(ValueError):
    """Raised for mode mismatches and failed divisibility checks."""


def scheme_coefficient(key: tuple, kernel: KernelSymbol | Callable[[int, int], tuple]) -> Monomial:
    """Monomial of the schemes of one ``census`` key (each has weight one).

    ``kernel`` is the one kernel symbol of matrix mode, or gives the
    kernel factor ``(symbol, 1)`` of a pair from its two slot ranks; a
    caller that caches it shares one factor among all the monomials that
    hold it.  The key's block ratios
    come sorted by color, and its rank pairs sorted in the order of
    their kernel symbols: the labels of a kernel-mode job are distinct
    (``scheme_series`` refuses a repeat), so rank order is label order.
    """
    _, eps_half, s, pairs = key
    if isinstance(pairs, int):
        return Monomial._canonical(eps_half, pairs, s, ((kernel, pairs),) if pairs else ())
    return Monomial._canonical(eps_half, len(pairs), s,
                               tuple([kernel(u, v) for u, v in pairs]))


def output_generator(key_words: tuple, by_rank: Sequence[Slot],
                     words: dict[tuple[int, ...], TraceWord]) -> Generator:
    """The output generator of a ``census`` key's words, with ``by_rank``
    the slots of the call's rank table; each trace word is read from
    ``words`` (rank word -> trace word), or built and added there.

    The words come least-rotated and sorted on slot ranks, and rank order
    is slot order, so they are already in canonical form.
    """
    traces = []
    for ranks in key_words:
        trace = words.get(ranks)
        if trace is None:
            trace = words[ranks] = TraceWord._canonical(tuple([by_rank[r] for r in ranks]))
        traces.append(trace)
    return Generator._canonical(tuple(traces))


def _rationals(coeff: Coefficient) -> list[tuple[Monomial, RationalLike]]:
    """A coefficient's terms, each rational an int when its denominator is 1."""
    return [(m, q.numerator if q.denominator == 1 else q) for m, q in coeff.terms]


@_collector_paused
def scheme_series(mode: Mode, terms_a: Sequence[tuple[Generator, Coefficient]],
                  terms_b: Sequence[tuple[Generator, Coefficient]] | None,
                  symbol: str, max_eps_degree: int | None,
                  flags: set[str], negate: bool = False) -> Series:
    """Sum over the admitted schemes of all jobs, merged into one series.

    A job is a pair of terms ``(gen_a, ca)`` of ``terms_a`` and ``(gen_b,
    cb)`` of ``terms_b``, and adds the cross pairings of the two
    generators times ``ca * cb``; without ``terms_b`` a job is one term
    ``(gen_a, ca)`` and adds the self pairings of ``gen_a`` times ``ca``
    (transport).  Only schemes within the eps cap are enumerated;
    weight-zero ones are skipped.  ``flags`` gains "truncated" exactly
    when the cap excluded a scheme of any weight, and "negative-eps" for
    a scheme of negative eps exponent.  ``negate`` signs each scheme by
    (-1)^hbar, the inverse kernel shift.

    Every pair kernel is named ``symbol``: bare in matrix mode, and in
    kernel mode applied to the pair's two slots in the order of its
    census key (side A first in a product, the least rank first in a
    transport).  A kernel-mode kernel names its slots by label, so an
    input generator that repeats a label is refused, before any job runs
    (``product`` refuses a label shared by its two factors); with
    distinct labels, rank order is label order.

    All jobs' maps share one rank table, and their key counts are summed
    over the call, per pair of scale monomials, before any term is built
    (see the module docstring).  Jobs of a multi-term input can cancel,
    so zero sums are dropped.
    """
    gens = dict.fromkeys(gen for terms in (terms_a, terms_b or ()) for gen, _ in terms)
    table = rank_table(gens)
    sides_b = [(None, [(Monomial(), 1)])] if terms_b is None else [
        (gen_b, _rationals(cb)) for gen_b, cb in terms_b]
    if mode.kind == "kernel" and terms_a and sides_b:   # once per generator of some job
        for gen in gens:
            labels = gen.labels()
            if len(set(labels)) < len(labels):
                repeated = next(label for label in labels if labels.count(label) > 1)
                raise AlgebraError(f"slot label {repeated!r} repeats in {gen.render()}: "
                                   "kernel-mode pair kernels need distinct labels")
    # (scale monomial of side A, of side B) -> {census key: count times rationals}
    sums: dict[tuple[Monomial, Monomial], dict[tuple, RationalLike]] = {}
    for gen_a, ca in terms_a:
        scales_a = _rationals(ca)
        for gen_b, scales_b in sides_b:
            pair_map = map_of(gen_a, gen_b, table)
            heads, n = pair_map.heads, len(pair_map.sigma)
            stats = EnumerationStats()
            counts = Counter(filter(None, enumerate_pairings(
                range(heads), None if gen_b is None else range(heads, n), pair_map=pair_map,
                mode=mode, max_eps_degree=max_eps_degree, stats=stats)))
            if stats.pruned_branches:
                flags.add("truncated")
            for ma, ra in scales_a:
                for mb, rb in scales_b:
                    r = ra * rb
                    into = sums.get((ma, mb))
                    if into is None:
                        into = sums[ma, mb] = {}
                    for key, count in counts.items():
                        into[key] = into.get(key, 0) + count * r

    # each distinct (scale pair, key) once: one scheme monomial per distinct
    # key part (key[1:]) for the call, and one product monomial per part and
    # scale pair; a pair's kernel factor is built once and shared
    slots = table.by_rank
    kernel = KernelSymbol(symbol) if mode.kind == "matrix" else cache(
        lambda u, v: (KernelSymbol(symbol, ((slots[u].label, slots[u].conjugated),
                                            (slots[v].label, slots[v].conjugated))), 1))
    schemes: dict[tuple, Monomial] = {}
    terms_of: dict[tuple, dict[Monomial, RationalLike]] = {}   # output words -> {monomial: sum}
    for (ma, mb), into in sums.items():
        m = ma.mul(mb)
        products: dict[tuple, Monomial] = {}
        for key, n in into.items():
            if key[1] < 0:
                flags.add("negative-eps")   # also when its sum cancelled
            if not n:
                continue
            part = key[1:]
            mono = products.get(part)
            if mono is None:
                scheme = schemes.get(part)
                if scheme is None:
                    scheme = schemes[part] = scheme_coefficient(key, kernel)
                mono = products[part] = scheme.mul(m)
            if negate and (mono.hbar - m.hbar) % 2:
                n = -n   # the scheme's sign (-1)^hbar
            terms = terms_of.get(key[0])
            if terms is None:
                terms = terms_of[key[0]] = {}
            terms[mono] = terms.get(mono, 0) + n
    # sorted rank words are sorted generators; popping frees each word's sums
    # once its coefficient is built (peak memory), and a sum that cancelled
    # to zero drops, so a generator is built only for a term that is kept
    words: dict[tuple[int, ...], TraceWord] = {}
    out = []
    for key_words in sorted(terms_of):
        coeff = Coefficient._of_sums(terms_of.pop(key_words))
        if coeff:
            out.append((output_generator(key_words, slots, words), coeff))
    return Series(mode, tuple(out), frozenset(flags))


def product(a: Series, b: Series, *, max_eps_degree: int | None = None) -> Series:
    """Operator product, exact unless an eps cap drops schemes.

    The factors must not share a slot label: an output generator holds
    the surviving slots of both, and the pair kernels name slots by label.
    """
    if a.mode != b.mode:
        raise AlgebraError(f"mode mismatch: {a.mode} vs {b.mode}")
    shared = ({label for gen, _ in a.terms for label in gen.labels()}
              & {label for gen, _ in b.terms for label in gen.labels()})
    if shared:
        raise AlgebraError(f"slot label {min(shared)!r} appears in both factors; "
                           "factors need disjoint labels so outputs stay unambiguous")
    return scheme_series(a.mode, a.terms, b.terms, "g" if a.mode.kind == "matrix" else "K",
                         max_eps_degree, set(a.flags | b.flags))


def _ordered_products(factors: Sequence[Series], cap: int | None):
    """Memoized product of a tuple of factor indices, in operator order: the
    left fold of ``product``, each extending its prefix's product by one factor.
    ``chain`` does not call itself, so no reference cycle keeps the memo alive
    once the caller drops it."""
    memo: dict[tuple[int, ...], Series] = {(i,): f for i, f in enumerate(factors)}

    def chain(seq: tuple[int, ...]) -> Series:
        for k in range(2, len(seq) + 1):
            if seq[:k] not in memo:
                memo[seq[:k]] = product(memo[seq[:k - 1]], factors[seq[k - 1]],
                                        max_eps_degree=cap)
        return memo[seq]

    return chain


def product_chain(factors: Sequence[Series], *, max_eps_degree: int | None = None) -> Series:
    """Left-to-right fold of ``product`` (associative, so the fold is a choice)."""
    if not factors:
        raise AlgebraError("need at least one factor")
    return _ordered_products(factors, max_eps_degree)(tuple(range(len(factors))))


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


def restrict_colors(series: Series, face: Sequence[int]) -> Series:
    """Restrict a colored series to a sub-simplex of colors.

    Block ratios of colors outside ``face`` are set to zero (their
    monomials drop), generators whose slots use an outside color drop,
    and the sorted face's colors are renamed 1..len(face).
    """
    if not series.mode.colored:
        raise AlgebraError("restrict_colors needs a colored series")
    face_set = set(face)
    if not face_set or any(c < 1 or c > series.mode.colors for c in face_set):
        raise AlgebraError(f"face {sorted(face_set)} is not a subset of the colors")
    relabel = {c: i + 1 for i, c in enumerate(sorted(face_set))}
    new_mode = Mode(series.mode.kind, len(face_set))

    out = []
    for gen, coeff in series.terms:
        if any(s.color not in face_set for t in gen for s in t):
            continue
        new_gen = Generator(tuple(
            TraceWord(tuple(Slot(s.label, s.conjugated, relabel[s.color]) for s in t))
            for t in gen))
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


def strip_colors(series: Series) -> Series:
    """Forget colors entirely (legal once a single color remains).

    Maps every slot to its uncolored twin in the same mode kind; any
    surviving block-ratio symbol is an error, so substitute it away first.
    """
    for _, coeff in series.terms:
        for mono, _ in coeff.terms:
            if mono.s:
                raise AlgebraError(
                    "series still carries block-ratio symbols; substitute them first")
    out = []
    for gen, coeff in series.terms:
        new_gen = Generator(tuple(
            TraceWord(tuple(Slot(s.label, s.conjugated, None) for s in t)) for t in gen))
        out.append((new_gen, coeff))
    return Series.build(Mode(series.mode.kind, 0), out, series.flags)
