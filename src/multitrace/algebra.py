"""Operator products of multi-trace series and derived operations.

Every structure constant is a sum over contraction schemes, and one
loop, ``scheme_terms``, computes that sum for the operator product
(cross pairs between two generators) and for the kernel transport
(self pairs of one generator).  A scheme with P pairs, I pure loops and
per-component handle counts H_k contributes the monomial

    eps^(P - I) * hbar^P * (pair kernels) * (block ratios) * W(out)

with weight one, where W(out) collects surviving currents (one trace
per current loop) and untouched traces.  Legs are numbered, so schemes
that differ only by which equal-label leg they use still count
separately.  Scheme counts are integers; ``collect`` multiplies in the
rational input coefficients once per output generator.

Everything downstream (moments, commutators, connected parts, the
size-squared bracket, the genus table) is built from this one sum.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable, Iterable, Mapping, Sequence

from .coeffring import Coefficient, KernelSymbol, Monomial, ONE
from .observables import (Generator, Mode, Series, Slot, TraceWord,
                          UNIT_GENERATOR, classical_product)
from .ribbon import (EnumerationStats, LoopReport, analyze, enumerate_pairings,
                     legs_of, result_generator)


class AlgebraError(ValueError):
    """Raised for mode mismatches and failed divisibility checks."""


MATRIX_KERNEL = KernelSymbol("g")

# names the kernel factor of one contracted pair from its two slots
PairNamer = Callable[[Slot, Slot], KernelSymbol]


def product_pair_kernel(mode: Mode) -> PairNamer:
    """Kernel of a product pair: ``g``, or ``K(u,v)`` in kernel mode."""
    if mode.kind == "matrix":
        return lambda su, sv: MATRIX_KERNEL
    return lambda su, sv: KernelSymbol("K", ((su.label, su.conjugated),
                                             (sv.label, sv.conjugated)))


def scheme_coefficient(report: LoopReport, gens: Sequence[Generator | None],
                       name_pair: PairNamer) -> Monomial:
    """Monomial carried by one contraction scheme (its weight is one)."""
    kernels = []
    for u, v in report.pairs:
        su = gens[u.side].traces[u.trace].slots[u.slot]
        sv = gens[v.side].traces[v.trace].slots[v.slot]
        kernels.append((name_pair(su, sv), 1))
    return Monomial(eps_half=report.exponent_half_units,
                    hbar=report.pair_count,
                    s=report.s_exponents,
                    kernels=tuple(kernels))


def scheme_terms(gen_a: Generator, gen_b: Generator | None, mode: Mode,
                 name_pair: PairNamer, max_eps_degree: int | None,
                 flags: set[str]) -> Counter:
    """Count the admitted schemes of one generator pair by (generator, monomial).

    With ``gen_b`` None the schemes are the self pairings of ``gen_a``
    (transport).  Weight-zero schemes are skipped; schemes above the
    eps cap are dropped and, like a pruned branch, add "truncated" to
    ``flags``.
    """
    gens = (gen_a, gen_b)
    legs_b = None if gen_b is None else legs_of(gen_b, 1)
    terms: Counter = Counter()
    stats = EnumerationStats()
    for pairing in enumerate_pairings(legs_of(gen_a, 0), legs_b,
                                      max_eps_degree=max_eps_degree, stats=stats):
        report = analyze(pairing, gen_a, gen_b, mode)
        if report.weight_zero:
            continue
        if max_eps_degree is not None and report.exponent > max_eps_degree:
            flags.add("truncated")
            continue
        terms[result_generator(report), scheme_coefficient(report, gens, name_pair)] += 1
    if stats.pruned_branches:
        flags.add("truncated")
    return terms


def collect(terms: Counter, scale: Coefficient) -> list[tuple[Generator, Coefficient]]:
    """One coefficient per output generator: its monomial counts times ``scale``."""
    by_gen: dict[Generator, list] = defaultdict(list)
    for (gen, mono), count in terms.items():
        by_gen[gen].extend((mono.mul(m), count * q) for m, q in scale.terms)
    return [(gen, Coefficient.build(entries)) for gen, entries in by_gen.items()]


def product(a: Series, b: Series, *, max_eps_degree: int | None = None) -> Series:
    """Operator product, exact unless an eps cap drops schemes."""
    if a.mode != b.mode:
        raise AlgebraError(f"mode mismatch: {a.mode} vs {b.mode}")
    mode = a.mode
    name_pair = product_pair_kernel(mode)
    out: list[tuple[Generator, Coefficient]] = []
    flags = set(a.flags | b.flags)
    for ga, ca in a.terms:
        for gb, cb in b.terms:
            terms = scheme_terms(ga, gb, mode, name_pair, max_eps_degree, flags)
            out.extend(collect(terms, ca * cb))
    return Series.build(mode, out, flags)


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


def connected_product(factors: Sequence[Series], *,
                      max_eps_degree: int | None = None) -> Series:
    """Connected part of the operator product of ``factors``.

    Defined by subtracting, from the full product, the classical
    products of connected parts over every proper partition of the
    factor list.  Factor order is preserved inside each block.
    """
    if not factors:
        raise AlgebraError("need at least one factor")
    memo: dict[tuple[int, ...], Series] = {}

    def conn(indices: tuple[int, ...]) -> Series:
        if indices in memo:
            return memo[indices]
        subset = [factors[i] for i in indices]
        total = product_chain(subset, max_eps_degree=max_eps_degree)
        if len(indices) > 1:
            for part in _set_partitions(list(indices)):
                if len(part) == 1:
                    continue
                piece = None
                for block in sorted(part):
                    factor = conn(tuple(block))
                    piece = factor if piece is None else classical_product(piece, factor)
                total = total - piece
        memo[indices] = total
        return total

    return conn(tuple(range(len(factors))))


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
    caller asserts it.
    """
    from itertools import permutations

    n = len(a_list)
    factors = list(a_list) + [b]
    mode = b.mode
    words = _commutator_words(n)
    memo: dict = {}
    lhs = Series.zero(mode)
    rhs = Series.zero(mode)
    for perm in permutations(range(n)):
        relabel = {k: perm[k] for k in range(n)}
        relabel[n] = n
        for sign, word in words:
            seq = tuple(relabel[k] for k in word)
            plain = product_chain([factors[i] for i in seq])
            conn = _connected_of_word(factors, seq, memo)
            if sign > 0:
                lhs = lhs + conn
                rhs = rhs + plain
            else:
                lhs = lhs - conn
                rhs = rhs - plain
    return lhs, rhs


def _connected_of_word(factors: Sequence[Series], seq: tuple[int, ...],
                       memo: dict) -> Series:
    if seq in memo:
        return memo[seq]
    sub = [factors[i] for i in seq]
    result = connected_product(sub)
    memo[seq] = result
    return result


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
