"""Contraction graphs over numbered trace legs and their loop census.

Every slot of a generator is a double-line leg.  A contraction scheme
is a set of disjoint leg pairs: between the two factors of a product
(cross pairs only), or between any two distinct legs of a single
generator (basis-change mode, where a trace may contract into itself).

``analyze`` walks the index strands of a scheme and reports the loop
census.  The walk convention: entering a leg on its row side, an
uncontracted leg is recorded as a surviving current and exited on its
column side, while a contracted leg hands the strand to its partner;
either way the walk then follows the trace corner to the next slot.
Corners carry the projector colors of a colored model.

Loop taxonomy:

* degenerate loops: one per vertex (trace) with no contracted leg;
  counted by ``d_count`` and kept out of the face count,
* current loops: carry at least one surviving leg; each becomes one
  output trace, slots in traversal order,
* pure loops: closed index lines with no surviving leg; each
  contributes one power of the matrix size (times a block ratio when
  colored).

The eps exponent of a scheme is computed from first principles as the
normalization mismatch minus the pure-loop count, which reduces to
``P - I`` (pairs minus pure loops).  ``analyze`` cross-checks it
against the per-component form ``J + 2*H + V - 2`` implied by the
Euler relation ``F - P + V = 2 - 2*H`` and fails loudly if the two
ever disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .observables import Generator, Mode, Slot, TraceWord


class RibbonError(ValueError):
    """Raised for malformed pairings or violated counting invariants."""


class LegId(NamedTuple):
    """Address of one leg: factor side, trace index, slot position."""

    side: int
    trace: int
    slot: int


VertexId = tuple[int, int]  # (side, trace)

Pair = tuple[LegId, LegId]
Pairing = tuple[Pair, ...]


def legs_of(gen: Generator, side: int = 0) -> list[LegId]:
    return [LegId(side, t, s)
            for t, trace in enumerate(gen.traces)
            for s in range(len(trace.slots))]


@dataclass
class EnumerationStats:
    """Mutable counters filled in by ``enumerate_pairings``."""

    yielded: int = 0
    pruned_branches: int = 0


class _DSU:
    def __init__(self) -> None:
        self.parent: dict[VertexId, VertexId] = {}

    def add(self, v: VertexId) -> None:
        self.parent.setdefault(v, v)

    def find(self, v: VertexId) -> VertexId:
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def union(self, a: VertexId, b: VertexId) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def component_count(self) -> int:
        return len({self.find(v) for v in self.parent})


def _exponent_floor(pairs: Sequence[Pair], total_vertices: int, transport: bool) -> int:
    """Conservative lower bound on the final eps exponent of any extension.

    Per component the exponent contribution is J + 2*H + V - 2 >= V - 2,
    so the total is at least V - 2*C over touched vertices.  Adding a
    pair never decreases V - 2*C.  In basis-change mode each still
    untouched vertex may later open a fresh component contributing as
    little as -1, hence the bound 2*V - 2*C - total.
    """
    dsu = _DSU()
    for u, v in pairs:
        a, b = (u.side, u.trace), (v.side, v.trace)
        dsu.add(a)
        dsu.add(b)
        dsu.union(a, b)
    touched = len(dsu.parent)
    comps = dsu.component_count()
    if transport:
        return 2 * touched - 2 * comps - total_vertices
    return touched - 2 * comps


def enumerate_pairings(legs_a: Sequence[LegId],
                       legs_b: Sequence[LegId] | None = None,
                       *,
                       max_eps_degree: int | None = None,
                       stats: EnumerationStats | None = None) -> Iterator[Pairing]:
    """Yield every admissible pairing exactly once, the empty one first.

    With ``legs_b`` given, pairs join one leg of each side (product
    mode).  Without it, any two distinct legs of ``legs_a`` may pair
    (basis-change mode).  Order is deterministic.  ``max_eps_degree``
    prunes branches whose exponent floor already exceeds the cap; the
    bound is conservative, so no admissible scheme under the cap is
    lost.
    """
    if stats is None:
        stats = EnumerationStats()
    transport = legs_b is None
    legs_a = list(legs_a)
    if transport:
        all_legs = legs_a
    else:
        legs_b = list(legs_b)
        overlap = set(legs_a) & set(legs_b)
        if overlap:
            raise RibbonError(f"legs shared between sides: {sorted(overlap)}")
        all_legs = legs_a + list(legs_b)
    total_vertices = len({(leg.side, leg.trace) for leg in all_legs})
    rank = {leg: i for i, leg in enumerate(all_legs)}

    def emit(chosen: list[Pair]) -> Pairing:
        stats.yielded += 1
        return tuple(sorted(chosen, key=lambda p: (rank[p[0]], rank[p[1]])))

    if transport:
        ordered = sorted(legs_a, key=rank.get)

        def walk_t(idx: int, used: set[LegId], chosen: list[Pair]) -> Iterator[Pairing]:
            if max_eps_degree is not None and \
                    _exponent_floor(chosen, total_vertices, True) > max_eps_degree:
                stats.pruned_branches += 1
                return
            while idx < len(ordered) and ordered[idx] in used:
                idx += 1
            if idx == len(ordered):
                yield emit(chosen)
                return
            head = ordered[idx]
            # head stays a current
            yield from walk_t(idx + 1, used, chosen)
            used.add(head)
            for j in range(idx + 1, len(ordered)):
                mate = ordered[j]
                if mate in used:
                    continue
                used.add(mate)
                chosen.append((head, mate))
                yield from walk_t(idx + 1, used, chosen)
                chosen.pop()
                used.remove(mate)
            used.remove(head)

        yield from walk_t(0, set(), [])
        return

    def walk_p(idx: int, used_b: set[LegId], chosen: list[Pair]) -> Iterator[Pairing]:
        if max_eps_degree is not None and \
                _exponent_floor(chosen, total_vertices, False) > max_eps_degree:
            stats.pruned_branches += 1
            return
        if idx == len(legs_a):
            yield emit(chosen)
            return
        head = legs_a[idx]
        yield from walk_p(idx + 1, used_b, chosen)
        for mate in legs_b:
            if mate in used_b:
                continue
            used_b.add(mate)
            chosen.append((head, mate))
            yield from walk_p(idx + 1, used_b, chosen)
            chosen.pop()
            used_b.remove(mate)

    yield from walk_p(0, set(), [])


@dataclass(frozen=True)
class ComponentStats:
    """Per-component counts: vertices, pairs, faces, handles."""

    vertices: int
    pairs: int
    faces: int
    handles: int


@dataclass(frozen=True)
class LoopReport:
    """Full census of one contraction scheme."""

    pairs: Pairing
    d_count: int
    pure_loop_count: int           # I
    current_loop_count: int        # J
    current_loops: tuple[tuple[LegId, ...], ...]
    loop_colors: tuple[object, ...]   # per traversal loop: None, int, or "mixed"
    components: tuple[ComponentStats, ...]
    exponent_half_units: int
    s_exponents: tuple[tuple[int, int], ...]
    weight_zero: bool
    zero_reason: str | None
    output_words: tuple[tuple[Slot, ...], ...]

    @property
    def pair_count(self) -> int:
        return len(self.pairs)

    @property
    def face_count(self) -> int:
        return self.pure_loop_count + self.current_loop_count

    @property
    def exponent(self) -> int:
        if self.exponent_half_units % 2 != 0:
            raise RibbonError("half-unit exponent escaped the counting identities")
        return self.exponent_half_units // 2


def _slot(gens: dict[int, Generator], leg: LegId) -> Slot:
    return gens[leg.side].traces[leg.trace].slots[leg.slot]


def _next_slot(gens: dict[int, Generator], leg: LegId) -> LegId:
    length = len(gens[leg.side].traces[leg.trace].slots)
    return LegId(leg.side, leg.trace, (leg.slot + 1) % length)


def analyze(pairing: Pairing, gen_a: Generator, gen_b: Generator | None = None,
            mode: Mode = Mode()) -> LoopReport:
    """Walk the strands of a contraction scheme and count everything."""
    gens: dict[int, Generator] = {0: gen_a}
    if gen_b is not None:
        gens[1] = gen_b

    partner: dict[LegId, LegId] = {}
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

    # Strand walk over legs of contracted vertices.
    colored = mode.colored
    seen: set[LegId] = set()
    loops: list[dict] = []
    for start in all_legs:
        if (start.side, start.trace) not in contracted_vertices or start in seen:
            continue
        currents: list[LegId] = []
        events: list[tuple[str, object]] = []
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

    # Classify loops, resolve colors.
    pure_count = 0
    current_loops: list[tuple[LegId, ...]] = []
    loop_colors: list[object] = []
    s_exp: dict[int, int] = {}
    weight_zero = False
    zero_reason = None
    output_words: list[tuple[Slot, ...]] = []

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

    # Components over contracted vertices.
    dsu = _DSU()
    for v in contracted_vertices:
        dsu.add(v)
    for u, v in pairing:
        dsu.union((u.side, u.trace), (v.side, v.trace))
    comp_vertices: dict[VertexId, int] = {}
    comp_pairs: dict[VertexId, int] = {}
    comp_faces: dict[VertexId, int] = {}
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

    # Exponent from normalization bookkeeping, cross-checked per component.
    total_in = sum(len(w) for g in gens.values() for w in (t.slots for t in g.traces))
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


def _segments_monochrome(events: list[tuple[str, object]]) -> bool:
    """Check that every projector chain between consecutive currents is
    a single color (mixed chains annihilate under projector orthogonality)."""
    first_cur = next(i for i, (kind, _) in enumerate(events) if kind == "cur")
    rotated = events[first_cur:] + events[:first_cur]
    segment: list[object] = []
    ok = True
    for kind, value in rotated[1:] + [("cur", None)]:
        if kind == "cur":
            if len(set(segment)) > 1:
                ok = False
            segment = []
        else:
            segment.append(value)
    return ok


def result_generator(report: LoopReport) -> Generator:
    """Assemble the surviving generator of a scheme."""
    return Generator(tuple(TraceWord(word) for word in report.output_words))
