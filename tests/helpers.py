"""Builders and hypothesis strategies shared across the test modules."""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import product as cartesian
from math import comb, factorial
from typing import Iterator, NamedTuple, Sequence

import hypothesis.strategies as st
import numpy as np

from multitrace import (
    Coefficient,
    CoefficientError,
    ComponentStats,
    EnumerationStats,
    Generator,
    KERNEL,
    KernelSymbol,
    LegId,
    LoopReport,
    MATRIX,
    Mode,
    Monomial,
    ParseError,
    RibbonError,
    Series,
    Slot,
    TraceWord,
    UNIT_GENERATOR,
    classical_product,
    legs_of,
    make_generator,
    product_chain,
    render_series,
    result_generator,
)
from multitrace.coeffring import IDENTIFIER
from multitrace.exprparse import Parser, token_kind
from multitrace.ribbon import Scheme, exponent_bound


def shaped(shape, prefix="x", mode=MATRIX, colors=None):
    """Generator with the given trace lengths and labels prefix1, prefix2, ...

    When ``colors`` is given it is cycled over consecutive slots.
    """
    words = []
    n = 0
    for length in shape:
        word = []
        for _ in range(length):
            color = None if colors is None else colors[n % len(colors)]
            n += 1
            word.append(Slot(f"{prefix}{n}", False, color))
        words.append(word)
    return make_generator(words, mode)


def series_of(shape, prefix="x", mode=MATRIX, colors=None):
    return Series.of(shaped(shape, prefix, mode, colors), mode)


# Fixed symbol pool so random coefficients stay evaluable with one environment.
KERNEL_POOL = (
    KernelSymbol("g"),
    KernelSymbol("F"),
    KernelSymbol("K", (("x1", False), ("y1", False))),
    KernelSymbol("K", (("y1", True), ("x1", False))),
)

EVAL_ENV = {
    "eps": Fraction(1, 3),
    "hbar": Fraction(2),
    "s1": Fraction(1, 2),
    "s2": Fraction(1, 2),
    "g": Fraction(3, 4),
    "F": Fraction(-1, 4),
    "K(x1,y1)": Fraction(5, 7),
    "K(~y1,x1)": Fraction(-2, 7),
}

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def monomials(even_eps=True):
    eps = st.integers(-3, 3).map(lambda k: 2 * k) if even_eps \
        else st.integers(-5, 5)
    return st.builds(
        Monomial,
        eps_half=eps,
        hbar=st.integers(0, 3),
        s=st.lists(
            st.tuples(st.integers(1, 2), st.integers(1, 2)),
            max_size=2, unique_by=lambda cp: cp[0],
        ).map(lambda items: tuple(sorted(items))),
        kernels=st.lists(
            st.tuples(st.sampled_from(KERNEL_POOL), st.integers(1, 2)),
            max_size=2, unique_by=lambda kp: kp[0],
        ).map(lambda items: tuple(sorted(items))),
    )


def coefficients(even_eps=True):
    return st.lists(
        st.tuples(monomials(even_eps), rationals), max_size=3,
    ).map(Coefficient.build)


# eps, hbar and a rational: coefficients that survive the command line in every mode
scalars = st.builds(lambda k, h, q: Coefficient.monomial(Monomial(eps_half=2 * k, hbar=h), q),
                    st.integers(-2, 2), st.integers(0, 2), rationals.filter(bool))


def random_series(rng, mode):
    """Small arbitrary series for round-trip corpora, any mode."""
    terms = []
    n = 0
    for _ in range(rng.randint(1, 3)):
        words = []
        for _ in range(rng.randint(0, 2)):
            length = rng.randint(1, 3)
            word = []
            for _ in range(length):
                n += 1
                color = rng.randint(1, mode.colors) if mode.colors else None
                conj = mode.kind == "kernel" and rng.random() < 0.4
                word.append(Slot(f"x{n}", conj, color))
            words.append(word)
        gen = make_generator(words, mode)
        coeff = Coefficient.eps(rng.randint(-2, 2)) \
            .scale(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4)))
        if rng.random() < 0.5:
            coeff = coeff * Coefficient.hbar(rng.randint(1, 2))
        if rng.random() < 0.3:
            coeff = coeff + Coefficient.hbar(3)
        if mode.colors and rng.random() < 0.5:
            coeff = coeff * Coefficient.block_ratio(rng.randint(1, mode.colors))
        terms.append((gen, coeff))
    return Series.build(mode, terms)


# matrix, kernel and 2-color modes, for the hypothesis tests
MODES = [MATRIX, KERNEL, Mode("matrix", 2), Mode("kernel", 2)]


@st.composite
def generators(draw, mode, prefix, max_legs):
    """Zero to two traces of one to three slots, at most ``max_legs`` slots.

    The labels prefix1, prefix2, ... come in a drawn order, so label
    order need not follow leg order.
    """
    shape = draw(st.lists(st.integers(1, 3), max_size=2)
                 .filter(lambda lengths: sum(lengths) <= max_legs))
    numbers = iter(draw(st.permutations(range(1, sum(shape) + 1))))
    words = []
    for length in shape:
        word = []
        for _ in range(length):
            conjugated = mode.kind == "kernel" and draw(st.booleans())
            color = draw(st.integers(1, mode.colors)) if mode.colored else None
            word.append(Slot(f"{prefix}{next(numbers)}", conjugated, color))
        words.append(word)
    return make_generator(words, mode)


# -- accessors only tests read, kept out of the package ------------------------


def reference_key(value):
    """The canonical key of a slot, trace word, generator, kernel symbol or
    monomial, rebuilt as nested plain tuples from its public attributes:
    slots ``(label, conjugated, color or -1)``, a word's slot keys, a
    generator's word keys, ``(name, args)`` and ``(eps_half, hbar, s,
    kernels)`` with each kernel symbol's key.  The values must order,
    compare and hash as these keys do."""
    if isinstance(value, Slot):
        return value.label, value.conjugated, -1 if value.color is None else value.color
    if isinstance(value, TraceWord):
        return tuple(reference_key(slot) for slot in value.slots)
    if isinstance(value, Generator):
        return tuple(reference_key(trace) for trace in value.traces)
    if isinstance(value, KernelSymbol):
        return value.name, tuple((label, conjugated) for label, conjugated in value.args)
    if isinstance(value, Monomial):
        return (value.eps_half, value.hbar, tuple((color, power) for color, power in value.s),
                tuple((reference_key(sym), power) for sym, power in value.kernels))
    raise TypeError(f"no reference key for {type(value).__name__}")



def eps_max_degree(coeff):
    """Greatest eps degree over all terms, ``None`` for the zero coefficient."""
    if not coeff.terms:
        return None
    return max(m.eps_degree for m, _ in coeff.terms)


def rational_value(coeff):
    """The constant term's value if the coefficient is purely rational."""
    if not coeff.terms:
        return Fraction(0)
    if len(coeff.terms) == 1 and coeff.terms[0][0] == Monomial():
        return coeff.terms[0][1]
    raise CoefficientError("coefficient is not a bare rational")


def trace_lengths(gen):
    """The multi-index of trace lengths, in canonical trace order."""
    return tuple(len(t) for t in gen.traces)


def with_flags(series, extra):
    """The series with more flags; flags do not enter equality."""
    return Series(series.mode, series.terms, series.flags | frozenset(extra))


def reference_coefficient_product(a, b):
    """``a * b`` built from the list of every pair of terms (slow, for tests)."""
    return Coefficient.build([(ma.mul(mb), qa * qb) for ma, qa in a.terms for mb, qb in b.terms])


def named(pairing, legs):
    """A leg-number pairing as ``reference_pairings`` yields it, as ``LegId``
    pairs: ``legs`` is the list it numbered (``legs_a + legs_b``)."""
    return tuple((legs[i], legs[j]) for i, j in pairing)


# -- reference strand walk: LegId-keyed dictionaries, no integer map ------------


class _DSU:
    def __init__(self):
        self.parent = {}

    def add(self, v):
        self.parent.setdefault(v, v)

    def find(self, v):
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _slot(gens, leg):
    return gens[leg.side].traces[leg.trace].slots[leg.slot]


def _next_slot(gens, leg):
    length = len(gens[leg.side].traces[leg.trace].slots)
    return LegId(leg.side, leg.trace, (leg.slot + 1) % length)


def _segments_monochrome(events):
    first_cur = next(i for i, (kind, _) in enumerate(events) if kind == "cur")
    rotated = events[first_cur:] + events[:first_cur]
    segment = []
    ok = True
    for kind, value in rotated[1:] + [("cur", None)]:
        if kind == "cur":
            if len(set(segment)) > 1:
                ok = False
            segment = []
        else:
            segment.append(value)
    return ok


def reference_analyze(pairing, gen_a, gen_b=None, mode=Mode()):
    """``analyze`` as a walk over ``LegId``-keyed dictionaries (slow, for tests)."""
    gens = {0: gen_a}
    if gen_b is not None:
        gens[1] = gen_b

    partner = {}
    for u, v in pairing:
        for leg in (u, v):
            if leg.side not in gens:
                raise RibbonError(f"leg {leg} references a missing side")
            if leg in partner:
                raise RibbonError(f"leg {leg} appears in two pairs")
            if not (0 <= leg.trace < len(gens[leg.side].traces)):
                raise RibbonError(f"leg {leg} has no such trace")
            if not (0 <= leg.slot < len(gens[leg.side].traces[leg.trace].slots)):
                raise RibbonError(f"leg {leg} has no such slot")
        if u == v:
            raise RibbonError(f"leg {u} paired with itself")
        if gen_b is not None and u.side == v.side:
            raise RibbonError("product pairings must join the two factors")
        partner[u] = v
        partner[v] = u

    all_legs = [leg for side in sorted(gens) for leg in legs_of(gens[side], side)]
    contracted_vertices = {(leg.side, leg.trace) for leg in partner}
    all_vertices = [(side, t) for side in sorted(gens)
                    for t in range(len(gens[side].traces))]
    isolated = [v for v in all_vertices if v not in contracted_vertices]

    colored = mode.colored
    seen = set()
    loops = []
    for start in all_legs:
        if (start.side, start.trace) not in contracted_vertices or start in seen:
            continue
        currents = []
        events = []
        leg = start
        while True:
            seen.add(leg)
            if leg in partner:
                corner_from = partner[leg]
            else:
                currents.append(leg)
                events.append(("cur", leg))
                corner_from = leg
            events.append(("col", _slot(gens, corner_from).color))
            leg = _next_slot(gens, corner_from)
            if leg == start:
                break
        loops.append({"currents": currents, "events": events,
                      "vertex": (corner_from[0], corner_from[1])})

    pure_count = 0
    current_loops = []
    loop_colors = []
    s_exp = {}
    weight_zero = False
    zero_reason = None
    output_words = []
    for loop in loops:
        colors = [c for kind, c in loop["events"] if kind == "col"]
        if not loop["currents"]:
            pure_count += 1
            if not colored:
                loop_colors.append(None)
            elif len(set(colors)) == 1:
                loop_colors.append(colors[0])
                s_exp[colors[0]] = s_exp.get(colors[0], 0) + 1
            else:
                loop_colors.append("mixed")
                weight_zero = True
                zero_reason = zero_reason or "mixed-color pure loop"
        else:
            current_loops.append(tuple(loop["currents"]))
            if not colored:
                loop_colors.append(None)
            else:
                loop_colors.append(colors[0] if len(set(colors)) == 1 else "mixed")
                if not _segments_monochrome(loop["events"]):
                    weight_zero = True
                    zero_reason = zero_reason or "mixed-color projector chain between currents"
            output_words.append(tuple(_slot(gens, leg) for leg in loop["currents"]))

    for side, t in isolated:
        output_words.append(gens[side].traces[t].slots)

    dsu = _DSU()
    for v in contracted_vertices:
        dsu.add(v)
    for u, v in pairing:
        dsu.union((u.side, u.trace), (v.side, v.trace))
    comp_vertices, comp_pairs, comp_faces = {}, {}, {}
    for v in contracted_vertices:
        comp_vertices[dsu.find(v)] = comp_vertices.get(dsu.find(v), 0) + 1
    for u, v in pairing:
        root = dsu.find((u.side, u.trace))
        comp_pairs[root] = comp_pairs.get(root, 0) + 1
    for loop in loops:
        root = dsu.find(loop["vertex"])
        comp_faces[root] = comp_faces.get(root, 0) + 1

    components = []
    for root in sorted(comp_vertices):
        v_k = comp_vertices[root]
        p_k = comp_pairs.get(root, 0)
        f_k = comp_faces.get(root, 0)
        euler_defect = 2 - (f_k - p_k + v_k)
        if euler_defect < 0 or euler_defect % 2 != 0:
            raise RibbonError(
                f"Euler relation violated on a component: F={f_k} P={p_k} V={v_k}")
        components.append(ComponentStats(v_k, p_k, f_k, euler_defect // 2))

    total_in = sum(len(t.slots) for g in gens.values() for t in g.traces)
    total_out = sum(len(w) for w in output_words)
    half_units = (total_in - total_out) - 2 * pure_count
    if half_units != 2 * (len(pairing) - pure_count):
        raise RibbonError("leg bookkeeping does not match the pair count")
    check = len(current_loops) + sum(2 * c.handles + c.vertices - 2 for c in components)
    if half_units != 2 * check:
        raise RibbonError(
            f"exponent mismatch: first-principles {half_units}/2 vs "
            f"component form {check}")

    return LoopReport(
        pairs=tuple(pairing),
        d_count=len(isolated),
        pure_loop_count=pure_count,
        current_loop_count=len(current_loops),
        current_loops=tuple(current_loops),
        loop_colors=tuple(loop_colors),
        components=tuple(components),
        exponent_half_units=half_units,
        s_exponents=tuple(sorted(s_exp.items())),
        weight_zero=weight_zero,
        zero_reason=zero_reason,
        output_words=tuple(output_words),
    )


# -- reference enumeration: leg-number pairings, no census state --------------


def reference_pairings(legs_a: Sequence[LegId],
                       legs_b: Sequence[LegId] | None = None,
                       *,
                       max_eps_degree: int | None = None,
                       stats: EnumerationStats | None = None) -> Iterator[Scheme]:
    """Yield every admissible pairing exactly once, the empty one first: the
    pair-yielding enumerator that ``enumerate_pairings`` replaced, kept as the
    reference for its order, its cap and its stats.

    Each scheme is a tuple of leg-number pairs ``(head, mate)``, the
    legs numbered by their place in ``legs_a + legs_b``; the head comes
    first in the list (in a product, it is the side-A leg).  With
    ``legs_b`` given, pairs join one leg of each side (product mode).
    Without it, any two distinct legs of ``legs_a`` may pair
    (basis-change mode).  The legs must list whole traces.  Order is
    deterministic: each head leg, in the order given, first stays
    uncontracted and then pairs with each free mate in turn.

    With ``max_eps_degree`` set, exactly the schemes whose eps exponent
    is at most the cap are yielded.  A branch is cut once its
    ``exponent_bound`` exceeds the cap; each cut branch holds at least
    one scheme (leave every open leg uncontracted) and counts in
    ``stats.pruned_branches``, which is therefore nonzero exactly when
    the cap excluded a scheme, whatever that scheme's weight.
    """
    if stats is None:
        stats = EnumerationStats()
    legs = list(legs_a) + list(legs_b or ())
    heads, n = len(legs_a), len(legs)   # legs 0..heads-1 take turns as the head of a pair
    overlap = set(legs_a) & set(legs_b or ())
    if overlap:
        raise RibbonError(f"legs shared between sides: {sorted(overlap)}")
    # sigma: the leg in the next slot of the same trace
    traces: dict[tuple[int, int], dict[int, int]] = defaultdict(dict)
    for i, leg in enumerate(legs):
        traces[leg.side, leg.trace][leg.slot] = i
    sigma = [traces[leg.side, leg.trace][(leg.slot + 1) % len(traces[leg.side, leg.trace])]
             for leg in legs]
    # first_mate: a head pairs with a leg of the other side, a transport leg with any later leg
    first_mate = ([i + 1 for i in range(n)] if legs_b is None
                  else [heads if leg.side == 0 else n for leg in legs])
    alpha = list(range(n))
    chosen: list[tuple[int, int]] = []

    def walk(idx: int) -> Iterator[Scheme]:
        while idx < heads and alpha[idx] != idx:
            idx += 1
        frontier = idx if idx < heads else n   # the unpaired legs before it stay
        if max_eps_degree is not None and exponent_bound(
                sigma, alpha, len(chosen), [i < frontier for i in range(n)],
                first_mate) > max_eps_degree:
            stats.pruned_branches += 1
            return
        if idx == heads:
            stats.yielded += 1
            yield tuple(chosen)
            return
        # the head leg stays uncontracted
        yield from walk(idx + 1)
        for mate in range(first_mate[idx], n):
            if alpha[mate] != mate:
                continue
            alpha[idx], alpha[mate] = mate, idx
            chosen.append((idx, mate))
            yield from walk(idx + 1)
            chosen.pop()
            alpha[idx], alpha[mate] = idx, mate

    yield from walk(0)


# -- per-scheme reference for the scheme pipeline ------------------------------


def _reference_schemes(ga, gb, mode, max_eps_degree, flags):
    """Admitted (report, pair slots) of one generator pair, scheme by scheme.

    Enumerates without a cap and applies it here: any scheme above the
    cap, weight-zero or not, sets "truncated".
    """
    gens = {0: ga, 1: gb}
    legs_a, legs_b = legs_of(ga, 0), None if gb is None else legs_of(gb, 1)
    for pairing in reference_pairings(legs_a, legs_b):
        report = reference_analyze(named(pairing, legs_a + (legs_b or [])), ga, gb, mode)
        if max_eps_degree is not None and report.exponent > max_eps_degree:
            flags.add("truncated")
            continue
        if report.weight_zero:
            continue
        slots = [tuple(gens[leg.side].traces[leg.trace].slots[leg.slot] for leg in pair)
                 for pair in report.pairs]
        yield report, slots


def reference_scheme_monomial(report, slots, mode, symbol=None):
    """Monomial of one scheme from its pairs' slots: a product's ``g`` or
    ``K(u,v)`` kernels, or, with ``symbol``, a transport's symmetric ones."""
    refs = [((u.label, u.conjugated), (v.label, v.conjugated)) for u, v in slots]
    if mode.kind == "matrix":
        kernels = [KernelSymbol(symbol or "g")] * len(refs)
    elif symbol is None:
        kernels = [KernelSymbol("K", ref) for ref in refs]
    else:
        kernels = [KernelSymbol(symbol, tuple(sorted(ref))) for ref in refs]
    return Monomial(eps_half=report.exponent_half_units, hbar=len(report.pairs),
                    s=report.s_exponents, kernels=tuple((k, 1) for k in kernels))


def _reference_product_terms(a, b, max_eps_degree, flags):
    """(eps degree, output generator, coefficient) of each admitted product scheme."""
    for ga, ca in a.terms:
        for gb, cb in b.terms:
            for report, slots in _reference_schemes(ga, gb, a.mode, max_eps_degree, flags):
                mono = Coefficient.monomial(reference_scheme_monomial(report, slots, a.mode))
                yield report.exponent, result_generator(report), ca * cb * mono


def reference_product(a, b, max_eps_degree=None):
    """``product`` summed one ``Coefficient`` per scheme (slow, for tests)."""
    flags = set(a.flags | b.flags)
    out = [(gen, coeff) for _, gen, coeff in _reference_product_terms(a, b, max_eps_degree, flags)]
    return Series.build(a.mode, out, flags)


def reference_genus_table(a, b):
    """The ``genus-table`` printout, scheme by scheme (slow, for tests)."""
    counts, layers = Counter(), defaultdict(list)
    for degree, gen, coeff in _reference_product_terms(a, b, None, set()):
        counts[degree] += 1
        layers[degree].append((gen, coeff))
    return "".join(f"eps^{d}: {counts[d]} schemes\n"
                   f"  {render_series(Series.build(a.mode, layers[d]))}\n"
                   for d in sorted(counts))


def reference_transport(series, symbol="F", negate=False, max_eps_degree=None):
    """``transport`` summed one ``Coefficient`` per scheme (slow, for tests)."""
    out, flags = [], set(series.flags)
    for gen, coeff in series.terms:
        for report, slots in _reference_schemes(gen, None, series.mode,
                                                max_eps_degree, flags):
            if report.exponent < 0:
                flags.add("negative-eps")
            sign = -1 if negate and len(report.pairs) % 2 else 1
            mono = Coefficient.monomial(
                reference_scheme_monomial(report, slots, series.mode, symbol), sign)
            out.append((result_generator(report), coeff * mono))
    return Series.build(series.mode, out, flags)


# -- recursive reference for connected parts -----------------------------------


def _set_partitions(items):
    """All set partitions of a list, each block keeping the list order."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def reference_connected_product(factors, max_eps_degree=None):
    """``connected_product`` by its recursive definition (slow, for tests).

    Every subset gets its own ``product_chain``, from which the classical
    products of connected parts over each proper partition are subtracted.
    """
    memo = {}

    def conn(indices):
        if indices in memo:
            return memo[indices]
        total = product_chain([factors[i] for i in indices], max_eps_degree=max_eps_degree)
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


def reference_exponent_bound(sigma, alpha, pairs, frontier):
    """``P - F + J_dec``, the eps cap's bound without its lone-face term: P
    pairs, F the cycles of ``sigma . alpha``, J_dec the faces holding an
    unpaired leg below ``frontier``."""
    seen, bound = set(), pairs
    for start in range(len(sigma)):
        if start in seen:
            continue
        decided, leg = False, start
        while leg not in seen:
            seen.add(leg)
            decided = decided or (alpha[leg] == leg and leg < frontier)
            leg = sigma[alpha[leg]]
        bound += decided - 1
    return bound


# -- reference oracle: one full assignment grid per matching --------------------


_LEG = tuple[int, int, int]  # (generator, trace, slot)


def _reference_matchings(legs: list[_LEG], allow_intra: bool) -> Iterator[list[tuple[_LEG, _LEG]]]:
    if not legs:
        yield []
        return
    head = legs[0]
    rest = legs[1:]
    for i, mate in enumerate(rest):
        if not allow_intra and mate[0] == head[0]:
            continue
        for tail in _reference_matchings(rest[:i] + rest[i + 1:], allow_intra):
            yield [(head, mate)] + tail


def _reference_satisfying_assignments(gens, cfg, matching) -> int:
    """Count index assignments compatible with the deltas of one matching.

    One index variable per trace position; the literal sum over all
    n^(positions) assignments is carried out with boolean arrays over
    the full assignment grid.
    """
    var_id: dict[_LEG, int] = {}
    lengths: dict[tuple[int, int], int] = {}
    for gi, gen in enumerate(gens):
        for ti, trace in enumerate(gen.traces):
            lengths[gi, ti] = len(trace.slots)
            for si in range(len(trace.slots)):
                var_id[gi, ti, si] = len(var_id)
    nvars = len(var_id)
    n = cfg.n
    if nvars == 0:
        return 1

    def axis(v: int) -> np.ndarray:
        shape = [1] * nvars
        shape[v] = n
        return np.arange(n).reshape(shape)

    grid = np.ones((n,) * nvars, dtype=bool)
    for gi, gen in enumerate(gens):
        for ti, trace in enumerate(gen.traces):
            for si, slot in enumerate(trace.slots):
                if slot.color is not None:
                    block = cfg.block_range(slot.color)
                    follower = var_id[gi, ti, (si + 1) % lengths[gi, ti]]
                    allowed = np.zeros(n, dtype=bool)
                    allowed[list(block)] = True
                    shape = [1] * nvars
                    shape[follower] = n
                    grid &= allowed.reshape(shape)
    for (ga, ta, sa), (gb, tb, sb) in matching:
        row_a = var_id[ga, ta, sa]
        col_a = var_id[ga, ta, (sa + 1) % lengths[ga, ta]]
        row_b = var_id[gb, tb, sb]
        col_b = var_id[gb, tb, (sb + 1) % lengths[gb, tb]]
        grid = grid & (axis(row_a) == axis(col_b)) & (axis(row_b) == axis(col_a))
    return int(np.count_nonzero(grid))


def reference_moment_with_ordering(gens, cfg, ordering_covariance):
    """``oracle.moment_with_ordering`` one matching at a time, without its
    size caps: each matching builds its own grid from scratch and carries
    its own weight."""
    kappa = Fraction(ordering_covariance)
    legs: list[_LEG] = [(gi, ti, si)
                        for gi, gen in enumerate(gens)
                        for ti, trace in enumerate(gen.traces)
                        for si in range(len(trace.slots))]
    if len(legs) % 2 != 0:
        return Fraction(0)
    c = cfg.covariance
    intra_weight = c - kappa
    total = Fraction(0)
    for matching in _reference_matchings(legs, allow_intra=intra_weight != 0):
        weight = cfg.hbar ** len(matching)
        for (ga, _, _), (gb, _, _) in matching:
            weight *= intra_weight if ga == gb else c
        if weight == 0:
            continue
        count = _reference_satisfying_assignments(gens, cfg, matching)
        if count:
            total += weight * count
    norm = Fraction(1, cfg.n ** (len(legs) // 2))
    return total * norm


# -- closed forms, independent of the engine -----------------------------------


def product_scheme_count(a, b):
    """Sets of disjoint pairs joining a legs to b legs: sum_k C(a,k) C(b,k) k!."""
    return sum(comb(a, k) * comb(b, k) * factorial(k) for k in range(min(a, b) + 1))


def transport_scheme_count(n):
    """Telephone number: sets of disjoint pairs among n legs (9,496 at 10)."""
    return sum(comb(n, 2 * k) * factorial(2 * k) // (2 ** k * factorial(k))
               for k in range(n // 2 + 1))


def moment_matching_count(sizes):
    """Perfect matchings of ``sum(sizes)`` legs with no pair inside a factor of
    ``sizes[i]`` legs (368,064 for four quartic factors), by inclusion-exclusion
    over k_i pairs forced inside factor i: the sum over all k of
    prod_i (-1)^k_i C(n_i, 2 k_i) (2 k_i - 1)!! times (L - 2 sum k - 1)!!, the
    matchings of the L - 2 sum k legs left (none when that is odd)."""
    def matchings(m):
        return 0 if m % 2 else factorial(m) // (2 ** (m // 2) * factorial(m // 2))

    total = 0
    for forced in cartesian(*(range(n // 2 + 1) for n in sizes)):
        term = matchings(sum(sizes) - 2 * sum(forced))
        for n, k in zip(sizes, forced):
            term *= (-1) ** k * comb(n, 2 * k) * matchings(2 * k)
        total += term
    return total


def harer_zagier(n):
    """{g: eps_g(n)}, the gluings of a 2n-gon into a genus-g surface, from
    (n+1) e_g(n) = 2(2n-1) e_g(n-1) + (n-1)(2n-1)(2n-3) e_{g-1}(n-2), e_0(0) = 1
    (Harer and Zagier, Invent. Math. 85, 1986)."""
    table = {(0, 0): 1}
    for m in range(1, n + 1):
        for g in range(m // 2 + 1):
            rhs = 2 * (2 * m - 1) * table.get((g, m - 1), 0)
            if g >= 1:
                rhs += (m - 1) * (2 * m - 1) * (2 * m - 3) * table.get((g - 1, m - 2), 0)
            assert rhs % (m + 1) == 0
            table[g, m] = rhs // (m + 1)
    return {g: table[g, n] for g in range(n // 2 + 1)}


# -- reference text renderer -----------------------------------------------------


def _reference_monomial_text(mono):
    parts = []
    if mono.eps_half:
        d = mono.eps_degree  # raises on odd half-units
        parts.append("eps" if d == 1 else f"eps^{d}")
    if mono.hbar:
        parts.append("hbar" if mono.hbar == 1 else f"hbar^{mono.hbar}")
    for color, power in mono.s:
        parts.append(f"s{color}" if power == 1 else f"s{color}^{power}")
    for sym, power in mono.kernels:
        base = sym.render()
        parts.append(base if power == 1 else f"{base}^{power}")
    return "*".join(parts)


def _reference_term_text(mono, magnitude):
    """One term's text without its sign, e.g. ``3/2*eps^2``, ``hbar`` or ``2``."""
    body = _reference_monomial_text(mono)
    if not body:
        return str(magnitude)
    return body if magnitude == 1 else f"{magnitude}*{body}"


def reference_render_coefficient(coeff):
    """``Coefficient.render`` term by term, with no cache and signs read by
    ``Fraction`` comparisons (slow, for tests)."""
    if not coeff.terms:
        return "0"
    chunks = []
    for i, (mono, q) in enumerate(coeff.terms):
        text = _reference_term_text(mono, abs(q))
        if i == 0:
            chunks.append(("-" if q < 0 else "") + text)
        else:
            chunks.append(("- " if q < 0 else "+ ") + text)
    return " ".join(chunks)


def reference_render_series(series):
    """``render_series`` with every value rendered where it occurs and each
    sort key computed from the coefficient and the generator (slow, for tests)."""
    if series.is_zero():
        return "0"

    def term_sort_key(item):
        gen, coeff = item
        degree = coeff.eps_min_degree()
        # larger generators first within a degree, so the unit lands last
        return (0 if degree is None else degree, -gen.size, gen.key())

    pieces = []
    for gen, coeff in sorted(series.terms, key=term_sort_key):
        labels = gen.labels()
        if len(set(labels)) != len(labels):
            repeated = next(lab for lab in labels if labels.count(lab) > 1)
            raise ValueError(f"slot label {repeated!r} repeats in {gen.render()}: the text "
                             "form needs distinct labels within a generator; use the JSON form")
        if len(coeff.terms) == 1:
            mono, q = coeff.terms[0]
            sign = "-" if q < 0 else "+"
            body = _reference_term_text(mono, abs(q))
        else:
            sign = "+"
            body = "(" + reference_render_coefficient(coeff) + ")"
        pieces.append(f"{sign} {body}*{gen.render()}")
    text = " ".join(pieces)
    # the first term carries its sign only when it is negative
    return ("-" if text[0] == "-" else "") + text[2:]


@st.composite
def rendered_series(draw, mode):
    """Series to render: up to four terms on drawn generators (the unit among
    them), coefficients of up to three terms with negative and fractional
    rationals, kernel powers up to 2 and block ratios, now and then an odd
    eps half-unit, and generators whose labels, drawn from two, may repeat.
    Zero coefficients drop, so the zero series is drawn too."""
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        gen = draw(generators(mode, "x", 4))
        if draw(st.integers(0, 4)) == 0:
            gen = make_generator([[Slot(draw(st.sampled_from(["r1", "r2"])), slot.conjugated,
                                        slot.color) for slot in trace.slots]
                                  for trace in gen.traces], mode)
        terms.append((gen, draw(coefficients(even_eps=draw(st.integers(0, 5)) > 0))))
    return Series.build(mode, terms)


# -- reference text parser -------------------------------------------------------


class Token(NamedTuple):
    kind: str  # "num", "ident", "punct", "end"
    text: str
    line: int
    column: int


# one alternative per token kind, then any other character; blanks and comments give no token
_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<newline>\n)|[^\S\n]+|#[^\n]*|(?P<num>\d+(?:/\d+)?)"
    rf"|(?P<ident>{IDENTIFIER})|(?P<punct>[~@+\-*^(),{{}}\[\]=])|(?P<bad>.)")


def reference_tokenize(text):
    """The tokens of ``text`` with their kinds, lines and columns, counted
    as the scanner goes, then an end token; a character that starts no
    token is a ``ParseError`` there."""
    tokens = []
    line, line_start = 1, 0
    for m in _REFERENCE_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {m[0]!r}", line, m.start() - line_start + 1)
        elif kind:
            tokens.append(Token(kind, m[0], line, m.start() - line_start + 1))
    tokens.append(Token("end", "", line, len(text) - line_start + 1))
    return tokens


def _is_scalar(series):
    return all(gen == UNIT_GENERATOR for gen, _ in series.terms)


class _ReferenceParser(Parser):
    """The text parser with every atom and factor evaluated as a ``Series``
    (slow, for tests); it shares the cursor, the literals, the symbol checks and
    the generators."""

    def parse_series(self):
        entries = []
        op = self.advance() if self.at_punct("-") else "+"
        while True:
            term = self.parse_term()
            entries.extend((g, -c if op == "-" else c) for g, c in term.terms)
            if not (self.at_punct("+") or self.at_punct("-")):
                return Series.build(self.mode, entries)
            op = self.advance()

    def parse_term(self):
        total = self.parse_factor()
        while self.at_punct("*"):
            star = self.pos
            self.advance()
            factor = self.parse_factor()
            if _is_scalar(factor):
                total = total.scale(factor.coefficient(UNIT_GENERATOR))
            elif _is_scalar(total):
                total = factor.scale(total.coefficient(UNIT_GENERATOR))
            else:
                raise self.error("cannot multiply two generator series here; "
                                 "that contraction needs the product engine", star)
        return total

    def parse_factor(self):
        base = self.parse_atom()
        if not self.at_punct("^"):
            return base
        caret = self.pos
        self.advance()
        sign = 1
        if self.at_punct("-"):
            self.advance()
            sign = -1
        at = self.pos
        tok = self.expect("num")
        if "/" in tok:
            raise self.error("exponents must be integers", at)
        exponent = sign * int(tok)
        if _is_scalar(base):
            try:
                coeff = base.coefficient(UNIT_GENERATOR).power(exponent)
            except CoefficientError as exc:
                raise self.error(str(exc), caret) from None
            return Series.of(UNIT_GENERATOR, self.mode, coeff)
        if exponent == 1:
            return base
        raise self.error("exponents on generator series are not supported", caret)

    def parse_atom(self):
        tok = self.peek()
        if token_kind(tok) == "num":
            return Series.of(UNIT_GENERATOR, self.mode,
                             Coefficient.rational(self.parse_rational()))
        if self.at_punct("("):
            self.advance()
            inner = self.parse_series()
            self.expect("punct", ")")
            return inner
        if token_kind(tok) == "ident":
            if tok == "W" and self.peek(1) == "{":
                return Series.of(self.parse_generator(), self.mode)
            return Series.of(UNIT_GENERATOR, self.mode, self.parse_symbol())
        raise self.fail(f"expected a number, symbol, W{{...}} or parenthesis, "
                        f"found {tok or 'end of input'!r}")

    def parse_symbol(self):
        kind, value = super().parse_symbol()
        if kind == "eps_half":
            return Coefficient.eps()
        if kind == "hbar":
            return Coefficient.hbar()
        if kind == "s":
            return Coefficient.block_ratio(value)
        return Coefficient.kernel(value)


def reference_parse_series(text, mode):
    """``parse_series`` with one ``Series`` per atom and factor (slow, for tests)."""
    parser = _ReferenceParser(text, mode)
    result = parser.parse_series()
    if not parser.done():
        raise parser.fail(f"trailing input {parser.peek()!r}")
    return result


_RATIONAL_TEXTS = ("0", "1", "2", "3/2", "0/3")
_SYMBOL_TEXTS = ("eps", "eps", "hbar", "g", "F", "K(x1,~y1)", "K(y1,x1)")
# weights of the atom kinds; parentheses come last, so a depth-0 draw drops them
_FACTOR_KINDS = (("rational",) * 5 + ("ratio", "zero-denominator") + ("symbol",) * 5
                 + ("generator",) * 4 + ("parenthesized",) * 4)


@st.composite
def expression_texts(draw, mode, depth=2):
    """Series texts over the whole term grammar, valid and not: signed sums,
    products, rationals (0 and 1/0 among them), powers with negative exponents,
    bare and applied kernel symbols, block ratios (s1..s3, so some outside the
    mode), nested parenthesized sums, ``W{}`` and generators."""

    def generator():
        labels = draw(st.permutations(["x1", "x2", "y1", "y2"]))
        sizes = draw(st.lists(st.integers(1, 2), max_size=2))
        words, used = [], 0
        for size in sizes:
            slots = []
            for label in labels[used:used + size]:
                tilde = "~" if mode.kind == "kernel" and draw(st.booleans()) else ""
                color = f"@{draw(st.integers(1, mode.colors))}" if mode.colored else ""
                slots.append(tilde + label + color)
            used += size
            words.append("Tr[" + " ".join(slots) + "]")
        return "W{" + " ".join(words) + "}"

    def factor():
        kind = draw(st.sampled_from(_FACTOR_KINDS if depth else _FACTOR_KINDS[:-4]))
        if kind == "rational":
            atom = draw(st.sampled_from(_RATIONAL_TEXTS))
        elif kind == "symbol":
            atom = draw(st.sampled_from(_SYMBOL_TEXTS))
        elif kind == "ratio":
            atom = f"s{draw(st.integers(1, 3))}"
        elif kind == "zero-denominator":
            atom = "1/0"
        elif kind == "generator":
            atom = generator()
        else:
            atom = "(" + draw(expression_texts(mode, depth - 1)) + ")"
        if draw(st.integers(0, 3)) == 0:
            atom += "^" + str(draw(st.integers(-2, 3)))
        return atom

    text = "-" if draw(st.booleans()) else ""
    for i in range(draw(st.integers(1, 3))):
        if i:
            text += draw(st.sampled_from([" + ", " - "]))
        text += "*".join(factor() for _ in range(draw(st.integers(1, 3))))
    return text


def reference_substitute(coeff, assignments):
    """``Coefficient.substitute`` as a fold: each term's factor is added to the
    sum of those before it."""
    repl = {name: value if isinstance(value, Coefficient) else Coefficient.rational(value)
            for name, value in assignments.items()}
    out = Coefficient()
    for mono, q in coeff.terms:
        factor = Coefficient.monomial(Monomial(eps_half=mono.eps_half), q)
        if mono.hbar:
            factor = factor * repl.get("hbar", Coefficient.hbar()).power(mono.hbar)
        for color, power in mono.s:
            factor = factor * repl.get(f"s{color}", Coefficient.block_ratio(color)).power(power)
        for sym, power in mono.kernels:
            factor = factor * repl.get(sym.render(), Coefficient.kernel(sym)).power(power)
        out = out + factor
    return out
