"""Contraction graphs as integer combinatorial maps, and their loop census.

Every slot of a generator is a double-line leg.  A contraction scheme
is a set of disjoint leg pairs: between the two factors of a product
(cross pairs only), or between any two distinct legs of a single
generator (basis-change mode, where a trace may contract into itself).

Encoding.  ``RibbonMap`` numbers the legs of one generator pair
0..n-1 and keeps two integer arrays: ``sigma[i]`` is the leg in the
next slot of leg i's trace, and ``vertex[i]`` the trace (vertex) that
holds it.  A scheme is the involution ``alpha`` that swaps the two
legs of every pair and fixes an uncontracted leg.  The faces are the
cycles of ``sigma . alpha`` over all legs, the standard permutation
encoding of ribbon graphs ('t Hooft 1974; Lando and Zvonkin, *Graphs
on Surfaces and Their Applications*, ch. 1); an untouched trace is one
cycle of ``sigma`` and so one face.  ``enumerate_pairings`` builds one
map per generator pair, the pairings it yields carry it, and
``analyze`` reuses it.

``analyze`` walks the faces.  The walk convention: entering a leg on
its row side, an uncontracted leg is recorded as a surviving current
and exited on its column side, while a contracted leg hands the strand
to its partner; either way the walk then follows the trace corner to
the next slot, so one step is ``leg -> sigma[alpha[leg]]``.  Corners
carry the projector colors of a colored model.

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

The eps cap.  With every face counted (``F = I + J + D``) the exponent
is ``P - F + (faces holding an uncontracted leg)``.  On a partial
scheme the same expression, counting only legs already decided to stay
uncontracted, is ``exponent_bound``: it never decreases as the
enumeration goes deeper and equals the exponent at a leaf, so a branch
whose bound exceeds the cap holds no scheme within it.
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


class RibbonMap:
    """The legs of one generator pair as an integer combinatorial map.

    ``legs[i]`` names leg i and ``index`` inverts it; ``sigma[i]`` is
    the leg in the next slot of the same trace and ``vertex[i]`` the
    number of that trace, numbered in order of their first leg.  The
    legs must list whole traces: every slot 0..k-1 of a k-slot trace.
    ``slots_of`` attaches the slots of the generators the legs name.
    """

    def __init__(self, legs: Sequence[LegId]) -> None:
        self.legs = tuple(legs)
        self.index = {leg: i for i, leg in enumerate(self.legs)}
        if len(self.index) != len(self.legs):
            raise RibbonError("a leg is listed twice")
        traces: dict[tuple[int, int], dict[int, int]] = {}
        for i, leg in enumerate(self.legs):
            traces.setdefault((leg.side, leg.trace), {})[leg.slot] = i
        self.sigma = [0] * len(self.legs)
        self.vertex = [0] * len(self.legs)
        for number, (trace, by_slot) in enumerate(traces.items()):
            length = len(by_slot)
            if sorted(by_slot) != list(range(length)):
                raise RibbonError(f"legs of trace {trace} do not cover its slots")
            for slot, i in by_slot.items():
                self.sigma[i] = by_slot[(slot + 1) % length]
                self.vertex[i] = number
        self.vertex_count = len(traces)
        self._bound: tuple | None = None

    def slots_of(self, gen_a: Generator, gen_b: Generator | None
                 ) -> tuple[list[Slot], list[tuple[Slot, ...]]] | None:
        """The slots of ``gen_a`` (side 0) and ``gen_b`` (side 1), per leg
        and per vertex; None unless the legs are exactly ``legs_of``
        those generators, in that order.  The last answer is kept.
        """
        bound = self._bound
        if bound is not None and bound[0] is gen_a and bound[1] is gen_b:
            return bound[2]
        gens = (gen_a,) if gen_b is None else (gen_a, gen_b)
        if list(self.legs) != [leg for side, gen in enumerate(gens)
                               for leg in legs_of(gen, side)]:
            return None
        trace_slots = [t.slots for gen in gens for t in gen.traces]
        answer = ([slot for word in trace_slots for slot in word], trace_slots)
        self._bound = (gen_a, gen_b, answer)
        return answer


class _MappedPairing(tuple):
    """A pairing that carries the ``RibbonMap`` it was enumerated on."""

    ribbon_map: RibbonMap


def exponent_bound(sigma: Sequence[int], alpha: Sequence[int], pairs: int,
                   frontier: int) -> int:
    """Lower bound ``P - F + J_dec`` on the exponent of every completion.

    ``alpha`` is the partial pairing (a fixed point for an unpaired
    leg) with ``pairs`` = P pairs.  F counts the cycles of
    ``sigma . alpha`` over all legs, so an untouched trace is one face.
    An unpaired leg below ``frontier`` is decided to stay uncontracted;
    one at or above it is still open.  J_dec counts the faces that hold
    a decided leg.

    Proof that it bounds.  At a leaf every leg is paired or decided, so
    J_dec is the number of faces holding an uncontracted leg, J + D,
    and F = I + J + D gives ``P - F + J_dec = P - I``, the exponent.
    Going deeper is a sequence of two moves, and neither lowers the
    bound:

    * pairing two open legs u, v composes ``sigma . alpha`` with the
      transposition (u v).  If u and v share a face it splits in two:
      P - F is unchanged, and J_dec cannot drop (each decided leg stays
      on one of the halves) but may rise by 1.  Otherwise their two
      faces merge: P - F rises by 2, and J_dec drops by at most 1, only
      when both faces held a decided leg;
    * deciding an open leg uncontracted leaves the faces alone and
      raises J_dec by 0 or 1.

    So the bound is monotone along every path, and every leaf below a
    node has an exponent at least the node's bound.
    """
    seen = [False] * len(sigma)
    bound = pairs
    for start in range(len(sigma)):
        if seen[start]:
            continue
        decided = False
        leg = start
        while not seen[leg]:
            seen[leg] = True
            corner = alpha[leg]
            if corner == leg and leg < frontier:
                decided = True
            leg = sigma[corner]
        bound += decided - 1
    return bound


def enumerate_pairings(legs_a: Sequence[LegId],
                       legs_b: Sequence[LegId] | None = None,
                       *,
                       max_eps_degree: int | None = None,
                       stats: EnumerationStats | None = None) -> Iterator[Pairing]:
    """Yield every admissible pairing exactly once, the empty one first.

    With ``legs_b`` given, pairs join one leg of each side (product
    mode).  Without it, any two distinct legs of ``legs_a`` may pair
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
    legs_a = list(legs_a)
    heads = len(legs_a)  # legs 0..heads-1 take turns as the head of a pair
    if legs_b is None:
        rmap, first_mate = RibbonMap(legs_a), 0
    else:
        legs_b = list(legs_b)
        overlap = set(legs_a) & set(legs_b)
        if overlap:
            raise RibbonError(f"legs shared between sides: {sorted(overlap)}")
        rmap, first_mate = RibbonMap(legs_a + legs_b), heads
    legs, sigma = rmap.legs, rmap.sigma
    n = len(legs)
    alpha = list(range(n))
    chosen: list[Pair] = []

    def walk(idx: int) -> Iterator[Pairing]:
        while idx < heads and alpha[idx] != idx:
            idx += 1
        if max_eps_degree is not None and exponent_bound(
                sigma, alpha, len(chosen), idx if idx < heads else n) > max_eps_degree:
            stats.pruned_branches += 1
            return
        if idx == heads:
            stats.yielded += 1
            pairing = _MappedPairing(chosen)
            pairing.ribbon_map = rmap
            yield pairing
            return
        # the head leg stays uncontracted
        yield from walk(idx + 1)
        for mate in range(max(idx + 1, first_mate), n):
            if alpha[mate] != mate:
                continue
            alpha[idx], alpha[mate] = mate, idx
            chosen.append((legs[idx], legs[mate]))
            yield from walk(idx + 1)
            chosen.pop()
            alpha[idx], alpha[mate] = idx, mate

    yield from walk(0)


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


def analyze(pairing: Pairing, gen_a: Generator, gen_b: Generator | None = None,
            mode: Mode = Mode()) -> LoopReport:
    """Walk the strands of a contraction scheme and count everything."""
    rmap = getattr(pairing, "ribbon_map", None)
    bound = None if rmap is None else rmap.slots_of(gen_a, gen_b)
    if bound is None:
        rmap = RibbonMap(legs_of(gen_a, 0) + ([] if gen_b is None else legs_of(gen_b, 1)))
        bound = rmap.slots_of(gen_a, gen_b)
    slots, trace_slots = bound
    legs, index, sigma, vertex = rmap.legs, rmap.index, rmap.sigma, rmap.vertex
    n = len(legs)

    alpha = list(range(n))
    edges: list[tuple[int, int]] = []
    touched = [False] * rmap.vertex_count
    for u, v in pairing:
        i, j = index.get(u), index.get(v)
        if i is None or j is None:
            raise RibbonError(f"leg {u if i is None else v} is not a leg of the generators")
        if i == j:
            raise RibbonError(f"leg {u} paired with itself")
        if alpha[i] != i or alpha[j] != j:
            raise RibbonError(f"leg {u if alpha[i] != i else v} appears in two pairs")
        if gen_b is not None and legs[i].side == legs[j].side:
            raise RibbonError("product pairings must join the two factors")
        alpha[i], alpha[j] = j, i
        edges.append((i, j))
        touched[vertex[i]] = touched[vertex[j]] = True

    # Face walk over the legs of contracted vertices.
    colored = mode.colored
    seen = [False] * n
    pure_count = 0
    current_loops: list[tuple[LegId, ...]] = []
    loop_colors: list[object] = []
    face_vertices: list[int] = []
    s_exp: dict[int, int] = {}
    zero_reason = None
    output_words: list[tuple[Slot, ...]] = []
    for start in range(n):
        if seen[start] or not touched[vertex[start]]:
            continue
        corners = []
        leg = start
        while not seen[leg]:
            seen[leg] = True
            corner = alpha[leg]
            corners.append(corner)
            leg = sigma[corner]
        face_vertices.append(vertex[start])
        currents = [c for c in corners if alpha[c] == c]
        color = None
        if colored:
            palette = {slots[c].color for c in corners}
            color = palette.pop() if len(palette) == 1 else "mixed"
        loop_colors.append(color)
        if not currents:
            pure_count += 1
            if color == "mixed":
                zero_reason = zero_reason or "mixed-color pure loop"
            elif colored:
                s_exp[color] = s_exp.get(color, 0) + 1
        else:
            current_loops.append(tuple(legs[c] for c in currents))
            output_words.append(tuple(slots[c] for c in currents))
            if colored and not _chains_monochrome(corners, alpha, slots):
                zero_reason = zero_reason or "mixed-color projector chain between currents"

    isolated = [v for v in range(rmap.vertex_count) if not touched[v]]
    output_words.extend(trace_slots[v] for v in isolated)

    # Components over contracted vertices: union-find, the first leg's root wins.
    parent = list(range(rmap.vertex_count))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in edges:
        ra, rb = find(vertex[i]), find(vertex[j])
        if ra != rb:
            parent[rb] = ra
    roots = [find(v) for v in range(rmap.vertex_count)]
    counts: dict[int, list[int]] = {}   # root -> [vertices, pairs, faces]
    for v, root in enumerate(roots):
        if touched[v]:
            counts.setdefault(root, [0, 0, 0])[0] += 1
    for i, _ in edges:
        counts[roots[vertex[i]]][1] += 1
    for v in face_vertices:
        counts[roots[v]][2] += 1

    components = []
    for root in sorted(counts):
        v_k, p_k, f_k = counts[root]
        euler_defect = 2 - (f_k - p_k + v_k)
        if euler_defect < 0 or euler_defect % 2 != 0:
            raise RibbonError(
                f"Euler relation violated on a component: F={f_k} P={p_k} V={v_k}")
        components.append(ComponentStats(v_k, p_k, f_k, euler_defect // 2))

    # Exponent from normalization bookkeeping, cross-checked per component.
    total_out = sum(len(w) for w in output_words)
    half_units = (n - total_out) - 2 * pure_count
    if half_units != 2 * (len(edges) - pure_count):
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
        weight_zero=zero_reason is not None,
        zero_reason=zero_reason,
        output_words=tuple(output_words),
    )


def _chains_monochrome(corners: list[int], alpha: list[int], slots: list[Slot]) -> bool:
    """Check that every projector chain between consecutive currents is
    a single color (mixed chains annihilate under projector orthogonality).

    ``corners`` is one loop's walk; a chain starts at a current's own
    corner and runs up to the next current.
    """
    first = next(k for k, c in enumerate(corners) if alpha[c] == c)
    chain = None
    for c in corners[first:] + corners[:first]:
        if alpha[c] == c:
            chain = slots[c].color
        elif slots[c].color != chain:
            return False
    return True


def result_generator(report: LoopReport) -> Generator:
    """Assemble the surviving generator of a scheme."""
    return Generator(tuple(TraceWord(word) for word in report.output_words))
