"""Contraction graphs as integer combinatorial maps, and their loop census.

Every slot of a generator is a double-line leg.  A contraction scheme
is a set of disjoint leg pairs: between the two factors of a product
(cross pairs only), or between any two distinct legs of a single
generator (basis-change mode, where a trace may contract into itself).

Encoding.  ``PairMap`` numbers the legs of one generator pair 0..n-1,
trace by trace, and keeps integer arrays: ``sigma[i]`` is the leg in
the next slot of leg i's trace, ``vertex[i]`` the trace (vertex) that
holds it, and ``first_mate[i]`` the pairing rule: leg i may pair with a
leg j > i exactly when ``j >= first_mate[i]``.  In a product the
``heads`` legs of side A come first and ``first_mate`` is the first
side-B leg for a side-A leg and n for a side-B leg; in a transport it
is ``i + 1``.  The array never decreases.  The leg number is a leg's
only name in the scheme loop.  A scheme is the involution ``alpha`` that swaps
the two legs of every pair and fixes an uncontracted leg.  The faces
are the cycles of the face permutation ``sigma . alpha`` over all legs,
the standard permutation encoding of ribbon graphs ('t Hooft 1974;
Lando and Zvonkin, *Graphs on Surfaces and Their Applications*, ch.
1); an untouched trace is one cycle of ``sigma`` and so one face.  The
map of a generator pair is built once per pair (``map_of``), with each
leg's slot rank: its slot's place in a ``RankTable``, the distinct slots
of the pair, or of every generator of a call, in ``Slot.key`` order.

The census state of a scheme is ``alpha``, the face permutation, each
vertex's count of contracted legs and each vertex's component label.
``enumerate_pairings`` keeps that state along its depth-first walk:
pairing two legs sets two entries of ``alpha`` and two of the face
permutation, raises two degrees and relabels a merged component, and
backtracking undoes it.  At each leaf it yields the scheme's key.
``census`` builds the same state from a list of leg-number pairs
(hand-built or recorded pairings).  Both hand the state to one private
leaf reduction, the only face walk, so every scheme passes the Euler
and half-unit checks.  The walk takes one step ``leg -> (sigma .
alpha)[leg]``.  An uncontracted leg is a surviving current, a
contracted one hands the strand to its partner, and corners carry the
projector colors of a colored model.  Each output trace's rank word is
built during the walk, and faces are counted per component.
``analyze``, the one user of ``LegId`` (side, trace, slot), takes a
hand-built pairing: it refuses an unknown, reused or self-paired leg
and a pair that ``first_mate`` forbids (a same-side product pair),
numbers the pairing, calls ``census`` and returns the full
``LoopReport``, its current loops named as ``LegId``s.  The loops are

* degenerate: one per trace with no contracted leg (``d_count``, not
  counted as a face),
* current: carry a surviving leg; each becomes one output trace,
* pure: no surviving leg; each is one power of the matrix size (times
  a block ratio when colored).

A scheme's term is told by an integer key: its output traces as
sorted, least-rotated tuples of slot ranks (rank order is slot order,
so these name the canonical trace words), its eps half-units, its
block-ratio exponents, and its kernels (the pair count in matrix mode,
the sorted rank pairs of its pairs in kernel mode, each a (side A, side
B) pair in a product and a (least, greatest) pair in a transport, whose
kernels are symmetric).  The product loop (``algebra.scheme_series``)
builds the maps of all its generator pairs on one rank table, so equal
keys of different pairs name the same term, and sums them over the call.

The eps exponent is the normalization mismatch minus the pure-loop
count, ``P - I`` (pairs minus pure loops).  Every scheme is checked
against the per-component form ``J + 2*H + V - 2`` implied by the
Euler relation ``F - P + V = 2 - 2*H``.

The eps cap.  With every face counted (``F = I + J + D``) the exponent
is ``P - F + (faces holding an uncontracted leg)``.  On a partial
scheme the same expression, counting only legs already decided to stay
uncontracted, plus one for each face that can no longer split (no
decided leg, and no two open legs that may pair), is
``exponent_bound``: it never decreases as the enumeration goes deeper
and equals the exponent at a leaf, so a branch whose bound exceeds the
cap holds no scheme within it.  The lone faces let side-B legs count
before the leaf: ``(7)x(7)`` at cap 0 cuts 189 branches to yield its 8
schemes (1,386 without them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .observables import Generator, Mode, Slot, TraceWord, least_rotation


class RibbonError(ValueError):
    """Raised for malformed pairings or violated counting invariants."""


class LegId(NamedTuple):
    """Address of one leg: factor side, trace index, slot position."""

    side: int
    trace: int
    slot: int


Pairing = tuple[tuple[LegId, LegId], ...]
# a scheme as the enumerator yields it: leg-number pairs (head, mate)
Scheme = tuple[tuple[int, int], ...]


def legs_of(gen: Generator, side: int = 0) -> list[LegId]:
    return [LegId(side, t, s) for t, trace in enumerate(gen.traces)
            for s in range(len(trace.slots))]


@dataclass
class EnumerationStats:
    """Mutable counters filled in by ``enumerate_pairings``."""

    yielded: int = 0
    pruned_branches: int = 0


class RankTable(NamedTuple):
    """Slot ranks: the distinct slots in ``Slot.key`` order, and each
    slot's place among them."""

    by_rank: list[Slot]
    rank: dict[Slot, int]


def rank_table(gens: Iterable[Generator]) -> RankTable:
    """The ``RankTable`` of the slots of ``gens``."""
    by_rank = sorted({slot for gen in gens for trace in gen.traces for slot in trace.slots},
                     key=Slot.key)
    return RankTable(by_rank, {slot: r for r, slot in enumerate(by_rank)})


class PairMap(NamedTuple):
    """The map of one generator pair: the legs of ``gen_a`` and then of
    ``gen_b``, numbered trace by trace, the first ``heads`` of them
    ``gen_a``'s; ``sigma``, ``vertex`` and the pairing rule
    ``first_mate`` (see the module docstring); the slot of each leg, each
    leg's slot rank, the distinct slots in rank (``Slot.key``) order, the
    ranks of each vertex's slots, and whether the map is a product's.
    """

    heads: int
    sigma: list[int]
    vertex: list[int]
    first_mate: list[int]
    slots: list[Slot]
    ranks: list[int]
    by_rank: list[Slot]
    vertex_ranks: list[tuple[int, ...]]
    product: bool


def map_of(gen_a: Generator, gen_b: Generator | None = None,
           table: RankTable | None = None) -> PairMap:
    """The ``PairMap`` of a product pair, or of ``gen_a`` alone (transport).

    Slot ranks are read from ``table``, by default the ``rank_table`` of
    the pair's own slots.  Maps built on one shared table name a slot
    with the same rank, so the census keys of different pairs name the
    same output words and kernel slots with the same integers.
    """
    gens = (gen_a,) if gen_b is None else (gen_a, gen_b)
    traces = [trace for gen in gens for trace in gen.traces]
    sigma, vertex = [], []
    for v, trace in enumerate(traces):
        start, length = len(sigma), len(trace.slots)
        sigma += [start + (s + 1) % length for s in range(length)]
        vertex += [v] * length
    n, heads = len(sigma), gen_a.size
    first_mate = (list(range(1, n + 1)) if gen_b is None
                  else [heads] * heads + [n] * (n - heads))
    slots = [slot for trace in traces for slot in trace.slots]
    by_rank, rank = table or rank_table(gens)
    return PairMap(heads, sigma, vertex, first_mate, slots, [rank[slot] for slot in slots],
                   by_rank, [tuple(rank[slot] for slot in trace.slots) for trace in traces],
                   gen_b is not None)


def exponent_bound(sigma: Sequence[int], alpha: Sequence[int], pairs: int,
                   frontier: int, first_mate: Sequence[int]) -> int:
    """Lower bound ``P - F + J_dec + L`` on the exponent of every completion.

    ``alpha`` is the partial pairing (a fixed point for an unpaired
    leg) with ``pairs`` = P pairs.  F counts the cycles of
    ``sigma . alpha`` over all legs, so an untouched trace is one face.
    An unpaired leg below ``frontier`` is decided to stay uncontracted;
    one at or above it is still open.  J_dec counts the faces that hold
    a decided leg.  L counts the lone faces: faces with no decided leg
    and at least one open leg, no two of which may pair.  Leg i may pair
    with a leg j > i exactly when ``j >= first_mate[i]``, and
    ``first_mate`` never decreases, so two open legs of a face may pair
    exactly when its greatest open leg ``hi`` may pair with its least
    ``lo``: a face is lone exactly when ``lo <= hi < first_mate[lo]``.

    Proof that it bounds.  At a leaf every leg is paired or decided, so
    L = 0 and J_dec is the number of faces holding an uncontracted leg,
    J + D, and F = I + J + D gives ``P - F + J_dec + L = P - I``, the
    exponent.  Each face adds at most 1 to J_dec + L.  A lone face can
    never split, since no pair may join two of its legs: later it either
    merges with another face or ends up holding an uncontracted leg.
    Going deeper is a sequence of two moves, and neither lowers the
    bound:

    * pairing two open legs u, v composes ``sigma . alpha`` with the
      transposition (u v).  If u and v share a face it splits in two:
      P - F is unchanged, and J_dec cannot drop (each decided leg stays
      on one of the halves) but may rise by 1; the face held two legs
      that may pair, so it was not lone, and L cannot drop.  Otherwise
      their two faces merge: P - F rises by 2, and J_dec + L drops by
      at most 2, the two faces' shares;
    * deciding an open leg uncontracted leaves the faces alone and
      raises J_dec by 0 or 1.  It lowers L by 1 only when its face was
      lone, and then that face gains its first decided leg, so J_dec
      rises by 1.  The leaf step, which decides every mate still open,
      is a sequence of such moves.

    So the bound is monotone along every path, and every leaf below a
    node has an exponent at least the node's bound.
    """
    n = len(sigma)
    seen = [False] * n
    bound = pairs
    for start in range(n):
        if seen[start]:
            continue
        decided = False
        lo, hi = n, -1   # the face's least and greatest open legs
        leg = start
        while not seen[leg]:
            seen[leg] = True
            corner = alpha[leg]
            if corner == leg:
                if leg < frontier:
                    decided = True
                else:
                    if leg < lo:
                        lo = leg
                    if leg > hi:
                        hi = leg
            leg = sigma[corner]
        bound += (decided or lo <= hi < first_mate[lo]) - 1
    return bound


def enumerate_pairings(legs_a: range, legs_b: range | None = None, *, pair_map: PairMap,
                       mode: Mode, max_eps_degree: int | None = None,
                       stats: EnumerationStats | None = None) -> Iterator[tuple | None]:
    """Yield the census key of every admissible scheme exactly once, the
    empty scheme first, or ``None`` for a scheme of weight zero.

    ``legs_a`` and ``legs_b`` must be the leg numbers of the map's sides:
    ``range(heads)`` and ``range(heads, n)`` on a product map, ``range(n)``
    and ``None`` on a transport map.  Legs pair as ``first_mate`` allows.
    Order is deterministic: each head leg (every leg of ``legs_a``), in
    order, first stays uncontracted and then pairs with each free leg
    from its ``first_mate`` on, in turn.

    The depth-first walk (a loop over the path of heads, not recursion)
    carries the census state of the scheme it is building: ``alpha``, the
    face permutation ``nxt = sigma . alpha``, each vertex's count of
    contracted legs and each vertex's component label.
    Pairing two legs sets two entries of ``alpha`` and of ``nxt`` and two
    degrees, and relabels a merged component; backtracking undoes it.  At
    a leaf the one face walk, shared with ``census``, reduces that state
    to the scheme's key, so every scheme passes the Euler and half-unit
    checks.

    With ``max_eps_degree`` set, exactly the schemes whose eps exponent
    is at most the cap are yielded.  A branch is cut once its
    ``exponent_bound`` exceeds the cap; each cut branch holds at least
    one scheme (leave every open leg uncontracted) and counts in
    ``stats.pruned_branches``, which is therefore nonzero exactly when
    the cap excluded a scheme, whatever that scheme's weight.
    """
    if stats is None:
        stats = EnumerationStats()
    heads, n = pair_map.heads, len(pair_map.sigma)   # legs 0..heads-1 take turns as heads
    if legs_a != range(heads) or legs_b != (range(heads, n) if pair_map.product else None):
        raise RibbonError("the legs must be the legs of the pair map, in order and by side")
    sigma, vertex, first_mate = pair_map.sigma, pair_map.vertex, pair_map.first_mate
    alpha = list(range(n))
    nxt = sigma.copy()
    degree = [0] * len(pair_map.vertex_ranks)

    # comp is replaced on a merge, never changed in place
    pairs, comp = 0, list(range(len(degree)))
    # the heads on the path to the current node, each as [head, its mate or
    # -1 while it stays uncontracted, the component labels before its pair]
    path: list[list] = []
    idx = 0
    while True:
        while idx < heads and alpha[idx] != idx:
            idx += 1
        if max_eps_degree is not None and exponent_bound(
                sigma, alpha, pairs, idx if idx < heads else n, first_mate) > max_eps_degree:
            stats.pruned_branches += 1
        elif idx == heads:
            stats.yielded += 1
            yield _reduce(pairs, alpha, nxt, degree, comp, pair_map, mode, None)
        else:   # the head leg first stays uncontracted
            path.append([idx, -1, comp])
            idx += 1
            continue
        # back up to the newest head with a free mate left, and pair them
        while path:
            step = path[-1]
            head, mate, comp = step
            vi = vertex[head]
            if mate < 0:
                mate = first_mate[head]
            else:   # undo the pair
                pairs -= 1
                degree[vi] -= 1
                degree[vertex[mate]] -= 1
                nxt[head], nxt[mate] = sigma[head], sigma[mate]
                alpha[head], alpha[mate] = head, mate
                mate += 1
            while mate < n and alpha[mate] != mate:
                mate += 1
            if mate < n:
                step[1] = mate
                vj = vertex[mate]
                alpha[head], alpha[mate] = mate, head
                nxt[head], nxt[mate] = sigma[mate], sigma[head]
                degree[vi] += 1
                degree[vj] += 1
                pairs += 1
                # the pair merges the component of its mate into that of its head
                keep, drop = comp[vi], comp[vj]
                if keep != drop:
                    comp = [keep if c == drop else c for c in comp]
                idx = head + 1
                break
            path.pop()
        else:
            return


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
    def exponent(self) -> int:
        if self.exponent_half_units % 2 != 0:
            raise RibbonError("half-unit exponent escaped the counting identities")
        return self.exponent_half_units // 2


def analyze(pairing: Pairing, gen_a: Generator, gen_b: Generator | None = None,
            mode: Mode = Mode()) -> LoopReport:
    """Walk the strands of a hand-built ``LegId`` pairing and count everything.

    The pairing is checked (every leg a leg of the generators, used once,
    never paired with itself, and each pair one that the map's
    ``first_mate`` allows: across the two factors of a product), numbered
    as on the map (the legs of ``gen_a``, side 0, then of ``gen_b``, side
    1) and handed to ``census``; the report's current loops are named as
    ``LegId``s again.
    """
    pair_map = map_of(gen_a, gen_b)
    legs = legs_of(gen_a) + ([] if gen_b is None else legs_of(gen_b, 1))
    index = {leg: i for i, leg in enumerate(legs)}
    pairs: list[tuple[int, int]] = []
    used: set[int] = set()
    for u, v in pairing:
        i, j = index.get(u), index.get(v)
        if i is None or j is None:
            raise RibbonError(f"leg {u if i is None else v} is not a leg of the generators")
        if i == j:
            raise RibbonError(f"leg {u} paired with itself")
        if i in used or j in used:
            raise RibbonError(f"leg {u if i in used else v} appears in two pairs")
        if max(i, j) < pair_map.first_mate[min(i, j)]:
            raise RibbonError("product pairings must join the two factors")
        used.update((i, j))
        pairs.append((i, j))
    report: dict = {}
    census(pairs, pair_map, mode, report)
    report["current_loops"] = tuple(tuple(legs[c] for c in cur) for cur in report["current_loops"])
    return LoopReport(pairs=tuple(pairing), **report)


def census(pairs: Scheme, pair_map: PairMap, mode: Mode,
           report: dict | None = None) -> tuple | None:
    """The integer key of a contraction scheme's term (see the module
    docstring), or ``None`` if its weight is zero.

    ``pairs`` are leg-number pairs on ``pair_map``, the head first (in a
    product, the side-A leg), and are not checked again.  ``census``
    builds from them the state that ``enumerate_pairings`` carries along
    its walk (``alpha``, ``sigma . alpha``, the vertex degrees and the
    component labels) and hands it to the same leaf reduction, so the
    Euler and half-unit checks run here too.  ``report``, when a dict,
    also gets the other fields of the scheme's ``LoopReport``, its
    current loops as leg numbers.
    """
    sigma, vertex = pair_map.sigma, pair_map.vertex
    alpha = list(range(len(sigma)))
    nxt = sigma.copy()
    degree = [0] * len(pair_map.vertex_ranks)
    comp = list(range(len(degree)))   # replaced on a merge, never changed in place
    for i, j in pairs:
        alpha[i], alpha[j] = j, i
        nxt[i], nxt[j] = sigma[j], sigma[i]
        vi, vj = vertex[i], vertex[j]
        degree[vi] += 1
        degree[vj] += 1
        keep, drop = comp[vi], comp[vj]
        if keep != drop:
            comp = [keep if c == drop else c for c in comp]
    return _reduce(len(pairs), alpha, nxt, degree, comp, pair_map, mode, report)


def _reduce(pair_count: int, alpha: list[int], nxt: list[int], degree: list[int],
            comp: list[int], pair_map: PairMap, mode: Mode,
            report: dict | None) -> tuple | None:
    """The one face walk: a scheme's key from its census state.

    ``alpha`` is the scheme's involution (``pair_count`` pairs), ``nxt``
    the face permutation ``sigma . alpha``, ``degree`` each vertex's count
    of contracted legs and ``comp`` each vertex's component label, where
    a component's label is one of its vertices.
    """
    _, _, vertex, _, slots, ranks, by_rank, vertex_ranks, product = pair_map
    n, vertex_count = len(alpha), len(degree)

    # Face walk over the legs of contracted vertices, one step leg ->
    # nxt[leg]; a walked leg's entry in ``todo`` becomes -1.  Faces are
    # counted per component, and each current loop's rank word is built
    # on the way.
    full, colored = report is not None, mode.colored
    keep_corners = full or colored
    todo = nxt.copy()
    faces = [0] * vertex_count
    pure_count = 0
    words: list[tuple[int, ...]] = []   # rank words of the output traces
    loops: list[list[int]] = []   # each current loop's corners, for the report
    loop_colors: list[object] = []
    s_exp: dict[int, int] = {}
    zero_reason = None
    for start in range(n):
        if todo[start] < 0 or not degree[vertex[start]]:
            continue
        word, corners = [], []   # corners only when kept
        leg, step = start, todo[start]
        while step >= 0:
            todo[leg] = -1
            corner = alpha[leg]
            if corner == leg:   # an uncontracted leg is its own corner
                word.append(ranks[leg])
            if keep_corners:
                corners.append(corner)
            leg, step = step, todo[step]
        faces[comp[vertex[start]]] += 1
        color = None
        if colored:
            palette = {slots[c].color for c in corners}
            color = palette.pop() if len(palette) == 1 else "mixed"
        if full:
            loop_colors.append(color)
        if not word:
            pure_count += 1
            if color == "mixed":
                zero_reason = zero_reason or "mixed-color pure loop"
            elif colored:
                s_exp[color] = s_exp.get(color, 0) + 1
            continue
        if len(word) > 1:   # a one-letter word is its own least rotation
            low = min(word)
            k = word.index(low) if word.count(low) == 1 else least_rotation(word)
            if k:
                word = word[k:] + word[:k]
        words.append(tuple(word))
        if colored and not _chains_monochrome(corners, alpha, slots):
            zero_reason = zero_reason or "mixed-color projector chain between currents"
        if full:
            loops.append(corners)
    current_count = len(words)

    # Exponent from normalization bookkeeping, cross-checked per component.
    # The same loop collects the untouched traces: this runs once per
    # scheme, and two comprehensions here made the uncapped loop 10-15% slower.
    vertices, pair_ends = [0] * vertex_count, [0] * vertex_count
    isolated = []
    for v in range(vertex_count):
        if degree[v]:
            vertices[comp[v]] += 1
            pair_ends[comp[v]] += degree[v]
        else:
            isolated.append(v)
            words.append(vertex_ranks[v])
    check = current_count
    components = []
    for c in range(vertex_count):
        v_k = vertices[c]
        if not v_k:
            continue
        p_k, f_k = pair_ends[c] // 2, faces[c]
        euler_defect = 2 - (f_k - p_k + v_k)
        if euler_defect < 0 or euler_defect % 2 != 0:
            raise RibbonError(
                f"Euler relation violated on a component: F={f_k} P={p_k} V={v_k}")
        check += euler_defect + v_k - 2
        if full:
            components.append(ComponentStats(v_k, p_k, f_k, euler_defect // 2))
    half_units = (n - sum(map(len, words))) - 2 * pure_count
    if half_units != 2 * (pair_count - pure_count):
        raise RibbonError("leg bookkeeping does not match the pair count")
    if half_units != 2 * check:
        raise RibbonError(
            f"exponent mismatch: first-principles {half_units}/2 vs "
            f"component form {check}")

    s_exponents = tuple(sorted(s_exp.items())) if s_exp else ()
    if full:
        currents = [[c for c in corners if alpha[c] == c] for corners in loops]
        report.update(d_count=len(isolated), pure_loop_count=pure_count,
                      current_loop_count=current_count,
                      current_loops=tuple(map(tuple, currents)),
                      loop_colors=tuple(loop_colors), components=tuple(components),
                      exponent_half_units=half_units, s_exponents=s_exponents,
                      weight_zero=zero_reason is not None, zero_reason=zero_reason,
                      output_words=tuple(tuple(slots[c] for c in cur) for cur in currents)
                      + tuple(tuple(by_rank[r] for r in vertex_ranks[v]) for v in isolated))
    if zero_reason is not None:
        return None
    if mode.kind == "matrix":
        return tuple(sorted(words)), half_units, s_exponents, pair_count
    # each pair once, as (head, mate): in a product the head is the side-A leg
    ends = [(ranks[i], ranks[j]) for i, j in enumerate(alpha) if j > i]
    if not product:   # a transport kernel is symmetric in its pair: (least, greatest) rank
        ends = [(u, v) if u < v else (v, u) for u, v in ends]
    return tuple(sorted(words)), half_units, s_exponents, tuple(sorted(ends))


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
