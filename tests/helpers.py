"""Builders and hypothesis strategies shared across the test modules."""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st

from multitrace import (
    Coefficient,
    ComponentStats,
    KERNEL,
    KernelSymbol,
    LegId,
    LoopReport,
    MATRIX,
    Mode,
    Monomial,
    RibbonError,
    Series,
    Slot,
    enumerate_pairings,
    legs_of,
    make_generator,
    result_generator,
)


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
    """Zero to two traces of one to three slots, at most ``max_legs`` slots."""
    shape = draw(st.lists(st.integers(1, 3), max_size=2)
                 .filter(lambda lengths: sum(lengths) <= max_legs))
    words, n = [], 0
    for length in shape:
        word = []
        for _ in range(length):
            n += 1
            conjugated = mode.kind == "kernel" and draw(st.booleans())
            color = draw(st.integers(1, mode.colors)) if mode.colored else None
            word.append(Slot(f"{prefix}{n}", conjugated, color))
        words.append(word)
    return make_generator(words, mode)


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


# -- per-scheme reference for the scheme pipeline ------------------------------


def _reference_schemes(ga, gb, mode, max_eps_degree, flags):
    """Admitted (report, pair slots) of one generator pair, scheme by scheme.

    Enumerates without a cap and applies it here: any scheme above the
    cap, weight-zero or not, sets "truncated".
    """
    gens = {0: ga, 1: gb}
    legs_b = None if gb is None else legs_of(gb, 1)
    for pairing in enumerate_pairings(legs_of(ga, 0), legs_b):
        report = reference_analyze(pairing, ga, gb, mode)
        if max_eps_degree is not None and report.exponent > max_eps_degree:
            flags.add("truncated")
            continue
        if report.weight_zero:
            continue
        slots = [tuple(gens[leg.side].traces[leg.trace].slots[leg.slot] for leg in pair)
                 for pair in report.pairs]
        yield report, slots


def _reference_monomial(report, kernels):
    return Monomial(eps_half=report.exponent_half_units, hbar=report.pair_count,
                    s=report.s_exponents, kernels=tuple((k, 1) for k in kernels))


def reference_product(a, b, max_eps_degree=None):
    """``product`` summed one ``Coefficient`` per scheme (slow, for tests)."""
    out, flags = [], set(a.flags | b.flags)
    for ga, ca in a.terms:
        for gb, cb in b.terms:
            for report, slots in _reference_schemes(ga, gb, a.mode, max_eps_degree, flags):
                if a.mode.kind == "matrix":
                    kernels = [KernelSymbol("g")] * len(slots)
                else:
                    kernels = [KernelSymbol("K", ((u.label, u.conjugated),
                                                  (v.label, v.conjugated)))
                               for u, v in slots]
                mono = Coefficient.monomial(_reference_monomial(report, kernels))
                out.append((result_generator(report), ca * cb * mono))
    return Series.build(a.mode, out, flags)


def reference_transport(series, symbol="F", negate=False, max_eps_degree=None):
    """``transport`` summed one ``Coefficient`` per scheme (slow, for tests)."""
    out, flags = [], set(series.flags)
    for gen, coeff in series.terms:
        for report, slots in _reference_schemes(gen, None, series.mode,
                                                max_eps_degree, flags):
            if report.exponent < 0:
                flags.add("negative-eps")
            if series.mode.kind == "matrix":
                kernels = [KernelSymbol(symbol)] * len(slots)
            else:
                kernels = [KernelSymbol(symbol, tuple(sorted(
                    [(u.label, u.conjugated), (v.label, v.conjugated)])))
                    for u, v in slots]
            sign = -1 if negate and report.pair_count % 2 else 1
            mono = Coefficient.monomial(_reference_monomial(report, kernels), sign)
            out.append((result_generator(report), coeff * mono))
    return Series.build(series.mode, out, flags)
