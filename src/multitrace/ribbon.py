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
leg's color (0 when uncolored) and slot rank, its slot's place in a
``RankTable``: the distinct slots of the pair, or of every generator of
a call, in slot order.  The slots stay in the table.

The census state of a scheme is ``alpha``, the face permutation, each
vertex's count of contracted legs and each vertex's component label.
``census`` builds that state from a list of leg-number pairs (a
hand-built or recorded pairing, for ``analyze`` and the tests) and
hands it to one private leaf reduction, the only face walk, which the
enumerator's leaves reach too, so every scheme passes the Euler and
half-unit checks.  The face walk takes one step ``leg -> (sigma .
alpha)[leg]``.  An uncontracted leg is a surviving current, a
contracted one hands the strand to its partner, and corners carry the
projector colors of a colored model.  Each output trace's rank word is
built during the walk, and faces are counted per component.

``enumerate_pairings`` yields the key of every scheme within the eps
cap, survivor set by survivor set, and one private depth-first walk
enumerates each pattern's matchings.  The walk keeps the census state
along its path: pairing two legs sets two entries of ``alpha`` and two
of the face permutation, raises two degrees and relabels a merged
component, and backtracking undoes it; each leaf goes to the face walk.
A scheme is its survivor set (the legs left uncontracted) and a perfect
matching of the other legs that ``first_mate`` allows.  A trace with
no contracted leg is untouched: it is one face in every matching, and
its rank word goes to the key as it is.  The matchings, and each one's
census on leg positions, depend only on the survivor set's pattern:
the cyclic word of leg codes (``2 * color + 1`` for a surviving leg,
``2 * color`` for a contracted one, color 0 when uncolored) of each
touched trace, least rotated, the words sorted and, in a product, split
by side.  Each pattern's census is the walk on the pattern's own map,
whose legs are positions, each touched trace numbered from the start of
its word: exactly the contracted positions pair, each position's color
is its code's and each position is its own slot rank.  So the census is
built from the pattern and the cap alone, and its keys, which name
positions, come in an order that they fix.  The process caches them
with their counts, per mode, kind of map, pattern and cap, in a cache
of at most 1,024 censuses that every map and call shares.  Every
survivor set of the pattern then relabels them: positions become slot
ranks, the words are least-rotated and sorted again with the untouched
traces' words, and kernel rank pairs are re-oriented and sorted.  The
survivor sets themselves, their patterns, the cuts of the Euler floors
below and the census cap of each size depend only on the trace colors
of each side, the kind of map and the cap, so the process keeps them
as one plan per such shape, at most 256 plans; a job checks its map
against its plan, ranks the sets that the plan keeps and looks up
their censuses.

In a matrix-mode product the census walks one matching per orbit of a
symmetry group of one side of the pattern: rotations of a fully
contracted trace that fix its word, and reorderings of equal fully
contracted traces.  A matching is a bijection between the two sides'
contracted positions, so the group acts freely; each of its moves
commutes with ``sigma``, fixes every surviving position and keeps
colors, so it keeps the words, faces, pure loops, block ratios and
weight-zero status, and with them the key.  The walk keeps the
matchings that an order on a few positions allows, one per orbit, and
counts each key as often as the group's order.  Kernel keys name the
positions of their pairs, and a transport's rotation can fix a
self-matching, so both walk every matching.  On an empty cache
``(6)x(6)`` runs the face walk 572 times for its 13,327 schemes (38
patterns) and ``(2,2,2)x(3,2,1)`` 188 times, and a transport of ten
legs 1,872 times for its 9,496 as one trace and 1,372 as two of five.

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
scheme the same expression, counting only legs decided to stay
uncontracted, plus one for each face that can no longer split (no
decided leg, and no two open legs that may pair), is
``exponent_bound``: it never decreases as a walk goes deeper and equals
the exponent at a leaf, so a branch whose bound exceeds the cap holds
no scheme within it.  Each pattern's census cuts its branches by it.
In a product every component holds a trace of each side, so the
component form gives two floors, read off a survivor set's pattern: a
scheme's exponent is at least ``|V_A - V_B|`` (touched traces per
side), plus one if a touched trace keeps a leg (a current loop).  A
map's plan drops the pairs of sets that they rule out before any
census, so ``(7)x(7)`` at cap 0 runs two: the empty pattern and the
full one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations
from operator import itemgetter
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
# a scheme as ``census`` takes it: leg-number pairs (head, mate)
Scheme = tuple[tuple[int, int], ...]


def legs_of(gen: Generator, side: int = 0) -> list[LegId]:
    return [LegId(side, t, s) for t, trace in enumerate(gen) for s in range(len(trace))]


@dataclass
class EnumerationStats:
    """Mutable counters filled in by ``enumerate_pairings``."""

    yielded: int = 0
    pruned_branches: int = 0


class RankTable(NamedTuple):
    """Slot ranks: the distinct slots in order, and each slot's place
    among them."""

    by_rank: list[Slot]
    rank: dict[Slot, int]


def rank_table(gens: Iterable[Generator]) -> RankTable:
    """The ``RankTable`` of the slots of ``gens``."""
    by_rank = sorted({slot for gen in gens for trace in gen for slot in trace})
    return RankTable(by_rank, {slot: r for r, slot in enumerate(by_rank)})


class PairMap(NamedTuple):
    """The map of one generator pair, integers only: the legs of
    ``gen_a`` and then of ``gen_b``, numbered trace by trace, the first
    ``heads`` of them ``gen_a``'s; ``sigma``, ``vertex`` and the pairing
    rule ``first_mate`` (see the module docstring); each leg's color (0
    when uncolored) and slot rank, the ranks of each vertex's slots, and
    whether the map is a product's.
    """

    heads: int
    sigma: list[int]
    vertex: list[int]
    first_mate: list[int]
    colors: list[int]
    ranks: list[int]
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
    traces = [trace for gen in gens for trace in gen]
    sigma, vertex = _trace_cycles(map(len, traces))
    n, heads = len(sigma), gen_a.size
    first_mate = (list(range(1, n + 1)) if gen_b is None
                  else [heads] * heads + [n] * (n - heads))
    rank = (table or rank_table(gens)).rank
    vertex_ranks = [tuple([rank[slot] for slot in trace]) for trace in traces]
    return PairMap(heads, sigma, vertex, first_mate,
                   [max(color, 0) for trace in traces for _, _, color in trace],
                   [r for word in vertex_ranks for r in word], vertex_ranks, gen_b is not None)


def _trace_cycles(lengths: Iterable[int]) -> tuple[list[int], list[int]]:
    """``sigma`` and ``vertex`` of traces of ``lengths``, their legs
    numbered trace by trace: each trace is one cycle of ``sigma``."""
    sigma, vertex = [], []
    for v, length in enumerate(lengths):
        start = len(sigma)
        sigma += [start + (s + 1) % length for s in range(length)]
        vertex += [v] * length
    return sigma, vertex


def exponent_bound(sigma: Sequence[int], alpha: Sequence[int], pairs: int,
                   stays: Sequence[int], first_mate: Sequence[int]) -> int:
    """Lower bound ``P - F + J_dec + L`` on the exponent of every completion.

    ``alpha`` is the partial pairing (a fixed point for an unpaired
    leg) with ``pairs`` = P pairs.  F counts the cycles of
    ``sigma . alpha`` over all legs, so an untouched trace is one face.
    An unpaired leg whose ``stays`` entry is true is decided to stay
    uncontracted; any other unpaired leg is still open.  J_dec counts
    the faces that hold a decided leg.  L counts the lone faces: faces
    with no decided leg and at least one open leg, no two of which may
    pair.  Leg i may pair with a leg j > i exactly when ``j >=
    first_mate[i]``, and ``first_mate`` never decreases, so two open legs
    of a face may pair exactly when its greatest open leg ``hi`` may pair
    with its least ``lo``: a face is lone exactly when ``lo <= hi <
    first_mate[lo]``.

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
      rises by 1.  A pattern's census decides every leg before its
      first pair, so it makes only the first move.

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
                if stays[leg]:
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
    """Yield the census key of every admissible scheme within the eps cap
    exactly once, or ``None`` for a scheme of weight zero.

    ``legs_a`` and ``legs_b`` must be the leg numbers of the map's sides:
    ``range(heads)`` and ``range(heads, n)`` on a product map, ``range(n)``
    and ``None`` on a transport map.  Legs pair as ``first_mate`` allows.
    Every scheme passes the one face walk, shared with ``census``, and
    its Euler and half-unit checks.  Order is deterministic.

    The schemes come survivor set by survivor set (see the module
    docstring): by the number of contracted legs, fewest first, so the
    empty scheme comes first when the cap admits it.  In a product, the
    side-A sets of each size run over the side-B sets of that size, in
    the fixed order of ``_side_patterns``.  Each survivor set yields its
    pattern's keys (``_pattern_keys``, the walk on the pattern's own map)
    in the order that census found them, which the pattern and the cap
    alone fix, whichever map or call met it first, each as often as its
    count, relabeled with its slot ranks and its untouched traces' words.
    The process keeps two bounded caches that every map and call share:
    the censuses (at most 1,024, per mode, kind of map, pattern and cap)
    and the plans of ``_by_survivors`` (at most 256, per trace colors of
    each side, kind of map and cap), so neither changes what is yielded.
    ``stats.yielded`` counts every scheme, and ``stats.pruned_branches``
    the survivor sets whose schemes the cap cut, all or some, so it is
    nonzero exactly when the cap excluded a scheme, whatever its weight.
    """
    if stats is None:
        stats = EnumerationStats()
    heads, n = pair_map.heads, len(pair_map.sigma)
    if legs_a != range(heads) or legs_b != (range(heads, n) if pair_map.product else None):
        raise RibbonError("the legs must be the legs of the pair map, in order and by side")
    yield from _by_survivors(pair_map, mode, stats, max_eps_degree)


def _walk(pair_map: PairMap, mode: Mode, stats: EnumerationStats, stays: Sequence[int],
          before: Sequence[int] | None = None,
          max_eps_degree: int | None = None) -> Iterator[tuple | None]:
    """The one pairing walk (see the module docstring): the key of each
    matching of the legs whose ``stays`` entry is false.  Legs
    ``0..heads-1`` that do not stay take turns as heads, in order, each
    pairing with each free leg from its ``first_mate`` on, in turn.  A
    branch is cut once its ``exponent_bound`` exceeds ``max_eps_degree``.

    ``before``, given only on a product map, keeps one matching per orbit
    of a symmetric pattern (see ``_pattern_keys``): a leg ``p`` with
    ``before[p] = q >= 0`` comes after ``q``.  A head then takes a mate
    past ``q``'s mate, and a side-B leg may be taken only once ``q`` is:
    it stays marked taken until then.
    """
    sigma, vertex, first_mate = pair_map.sigma, pair_map.vertex, pair_map.first_mate
    heads, n = pair_map.heads, len(sigma)
    # a leg that is a mate on the path, or stays: never a head nor a mate.  A
    # head needs no mark: every leg it could meet as a mate lies past it
    taken = list(stays)
    after = None   # the side-B legs that wait for each leg to be taken
    if before is not None:
        after = [[] for _ in range(n)]
        for p, q in enumerate(before):
            if q >= heads:
                taken[p] = True
                after[q].append(p)
    alpha = list(range(n))
    nxt = sigma.copy()
    degree = [0] * len(pair_map.vertex_ranks)

    # comp is replaced on a merge, never changed in place
    pairs, comp = 0, list(range(len(degree)))
    # the heads on the path to the current node, each as [head, its mate or
    # -1 before its first, the component labels before its pair]
    path: list[list] = []
    idx = 0
    while True:
        while idx < heads and taken[idx]:
            idx += 1
        if max_eps_degree is not None and exponent_bound(
                sigma, alpha, pairs, stays, first_mate) > max_eps_degree:
            stats.pruned_branches += 1
        elif idx == heads:
            stats.yielded += 1
            yield _reduce(pairs, alpha, nxt, degree, comp, pair_map, mode, None)
        else:
            path.append([idx, -1, comp])
        # back up to the newest head with a free mate left, and pair them
        while path:
            step = path[-1]
            head, mate, comp = step
            vi = vertex[head]
            if mate < 0:
                mate = first_mate[head]
                if before is not None and before[head] >= 0:
                    mate = alpha[before[head]] + 1   # past the earlier head's mate
            else:   # undo the pair
                pairs -= 1
                degree[vi] -= 1
                degree[vertex[mate]] -= 1
                nxt[head], nxt[mate] = sigma[head], sigma[mate]
                alpha[head], alpha[mate] = head, mate
                taken[mate] = False
                if after is not None:
                    for p in after[mate]:
                        taken[p] = True
                mate += 1
            while mate < n and taken[mate]:
                mate += 1
            if mate < n:
                step[1] = mate
                taken[mate] = True
                if after is not None:
                    for p in after[mate]:
                        taken[p] = False
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


def _by_survivors(pair_map: PairMap, mode: Mode, stats: EnumerationStats,
                  max_eps_degree: int | None) -> Iterator[tuple | None]:
    """The schemes within the cap, survivor set by survivor set (see
    ``enumerate_pairings``).  What depends only on the map's shape, its
    sides' trace colors and the cap comes from the process's cache of
    plans (``_plan``, at most 256); a job ranks the survivor sets that
    its plan keeps, looks up each pair's census in the process's cache of
    censuses (``_pattern_keys``, at most 1,024) and relabels its keys."""
    ranks, vertex_ranks, product = pair_map.ranks, pair_map.vertex_ranks, pair_map.product
    plan = _plan(pair_map.heads, tuple(map(len, vertex_ranks)), tuple(pair_map.colors),
                 product, max_eps_degree)
    # the census walks the pattern's map and an untouched trace's rank word goes to
    # the keys as it is, so this map is checked once: its traces' cycles and ranks
    if plan.sigma != pair_map.sigma or plan.vertex != pair_map.vertex:
        raise RibbonError("leg bookkeeping does not match the traces' rank words")
    kind, colors = mode.kind, mode.colors
    kernel = kind != "matrix"
    for cap, pruned, tails, rows in plan.sizes:
        stats.pruned_branches += pruned
        ranked = [(pattern, [ranks[i] for i in legs], [vertex_ranks[t] for t in untouched])
                  for pattern, legs, untouched in tails]
        for (head_pattern, head_legs, head_untouched), picks in rows:
            head_ranks = [ranks[i] for i in head_legs]
            head_words = [vertex_ranks[t] for t in head_untouched]
            for j in picks:
                tail_pattern, tail_ranks, tail_words = ranked[j]
                keys, cut = _pattern_keys(kind, colors, product, (head_pattern, tail_pattern),
                                          cap)
                stats.pruned_branches += cut
                rank = head_ranks + tail_ranks   # the slot rank at each position
                untouched = head_words + tail_words
                for key, count in keys:
                    stats.yielded += count
                    if key is not None:
                        key = _relabel(key, rank, untouched, product, kernel)
                    for _ in range(count):
                        yield key


class _Plan(NamedTuple):
    """What ``_by_survivors`` needs of a map's shape: the ``sigma`` and
    ``vertex`` of its traces, and per size of survivor set, fewest
    contracted legs first, the census cap (``None`` if it cannot cut),
    the count of set pairs that the Euler floors skip, the side-B sets
    that some kept pair uses, and each kept side-A set with the places
    among those of the side-B sets it pairs with.  A set is its pattern,
    its touched legs in position order and its untouched traces, by
    their numbers on the map."""

    sigma: list[int]
    vertex: list[int]
    sizes: tuple[tuple[int | None, int, tuple, tuple], ...]


@lru_cache(maxsize=256)
def _plan(heads: int, lengths: tuple[int, ...], colors: tuple[int, ...], product: bool,
          max_eps_degree: int | None) -> _Plan:
    """The ``_Plan`` of a map whose traces have ``lengths`` and whose legs
    have ``colors`` (0 uncolored), the first ``heads`` of them side A's,
    under the cap.  The process keeps its last 256 plans, which bounds
    their memory; a map whose ``heads`` or ``colors`` do not fit its
    traces is refused."""
    sigma, vertex = _trace_cycles(lengths)
    n = len(sigma)
    starts = list(accumulate(lengths, initial=0))
    if n != len(colors) or heads not in starts:
        raise RibbonError("leg bookkeeping does not match the traces' rank words")
    words = [colors[start:end] for start, end in zip(starts, starts[1:])]
    split = starts.index(heads)   # side A's traces
    # a transport has one side, whose sets all pair with no legs of another
    sizes = range(min(heads, n - heads) + 1) if product else range(0, n + 1, 2)
    heads_side = _side_patterns(tuple(words[:split]), sizes, 0, 0)
    tails_side = (_side_patterns(tuple(words[split:]), sizes, heads, split) if product
                  else [[((), (0, False), (), ())]] * len(sizes))
    # the Euler floors (module docstring) need a trace of each side per component
    capped = max_eps_degree is not None and product
    plan = []
    for k, sets_a, sets_b in zip(sizes, heads_side, tails_side):
        # a scheme's exponent P - I is at most its P pairs: a cap of P cuts nothing
        pairs = k if product else k // 2
        cap = None if max_eps_degree is None or max_eps_degree >= pairs else max_eps_degree
        every = tuple(range(len(sets_b)))
        rows, used, pruned = [], set(), 0
        for pattern, (va, ka), legs, untouched in sets_a:
            picks = every if not capped else tuple(
                j for j, (_, (vb, kb), _, _) in enumerate(sets_b)
                if abs(va - vb) + (ka or kb) <= max_eps_degree)
            pruned += len(sets_b) - len(picks)
            if picks:
                used.update(picks)
                rows.append(((pattern, legs, untouched), picks))
        place = {j: i for i, j in enumerate(sorted(used))}
        if len(place) < len(sets_b):   # number the side-B sets that are kept
            rows = [(head, tuple(place[j] for j in picks)) for head, picks in rows]
        tails = tuple((pattern, legs, untouched)
                      for j, (pattern, _, legs, untouched) in enumerate(sets_b) if j in place)
        plan.append((cap, pruned, tails, tuple(rows)))
    return _Plan(sigma, vertex, tuple(plan))


def _relabel(key: tuple, rank: tuple[int, ...], untouched: tuple[tuple[int, ...], ...],
             product: bool, kernel: bool) -> tuple:
    """A census key from a position key (see ``_pattern_keys``), ``rank``
    the slot rank at each position and ``untouched`` the rank words of
    the survivor set's untouched traces: the current words least-rotated
    and sorted again with the untouched ones, and in kernel mode the rank
    pairs oriented as the face walk orients them and sorted."""
    current, half_units, s_exponents, kernels = key
    words = list(untouched)
    for word in current:
        out = [rank[p] for p in word]
        if len(out) > 1:
            k = least_rotation(out)
            if k:
                out = out[k:] + out[:k]
        words.append(tuple(out))
    words.sort()
    if kernel:
        ends = [(rank[i], rank[j]) for i, j in kernels]
        if not product:   # a transport's pair: (least, greatest) rank
            ends = [(u, v) if u < v else (v, u) for u, v in ends]
        ends.sort()
        kernels = tuple(ends)
    return tuple(words), half_units, s_exponents, kernels


def _side_patterns(colors: tuple[tuple[int, ...], ...], sizes: range, first_leg: int,
                   first_trace: int) -> list[list[tuple]]:
    """For each k of ``sizes``, each way to contract k legs of a side
    whose traces' legs have ``colors`` (0 uncolored): its pattern, its
    kind, its touched legs by position and its untouched traces, numbered
    on the map from ``first_leg`` and ``first_trace``, in
    ``combinations`` order.

    A trace is touched when it holds a contracted leg.  Its word is the
    least rotation of its legs' codes, ``2 * color + 1`` for a leg that
    survives and ``2 * color`` for one that does not, and its positions
    follow that rotation.  The pattern is the touched traces' words,
    sorted; the sort is stable, so equal words keep the side's trace
    order, and the positions follow the sorted traces.  The kind, all that
    the Euler floors read, is (touched traces, one of them keeps a leg).
    """
    codes = [2 * color + 1 for trace in colors for color in trace]
    spans = [(start, start + len(trace)) for start, trace in
             zip(accumulate(map(len, colors), initial=first_leg), colors)]
    trace_of = [t for t, trace in enumerate(colors) for _ in trace]
    parts = []
    for k in sizes:
        found = []
        for cut in combinations(range(len(codes)), k):
            word = codes.copy()
            for leg in cut:
                word[leg] -= 1
            hit = sorted({trace_of[leg] for leg in cut})
            touched = []
            for t in hit:
                start, end = spans[t]
                trace = word[start - first_leg:end - first_leg]
                r = least_rotation(trace) if end - start > 1 else 0
                touched.append((tuple(trace[r:] + trace[:r]),
                                [*range(start + r, end), *range(start, start + r)]))
            touched.sort(key=itemgetter(0))
            kept = len(cut) < sum(len(colors[t]) for t in hit)
            found.append((tuple([trace for trace, _ in touched]), (len(hit), kept),
                          tuple([leg for _, order in touched for leg in order]),
                          tuple([first_trace + t for t in range(len(colors)) if t not in hit])))
        parts.append(found)
    return parts


@lru_cache(maxsize=1024)
def _pattern_keys(kind: str, colors: int, product: bool, pattern: tuple,
                  max_eps_degree: int | None) -> tuple[tuple[tuple[tuple | None, int], ...], bool]:
    """The census of every matching of one survivor pattern's contracted
    legs within the eps cap, as its distinct position keys and their
    counts, and whether the cap cut a branch, under the mode of ``kind``
    and ``colors`` (plain values, so a lookup hashes its key in C).  The
    process keeps its last 1,024 censuses, which bounds their memory; a
    cap that cannot cut comes as ``None``.

    ``pattern`` is a survivor set's touched traces, side by side (a
    transport's second side is empty).  The walk runs on a map of
    positions: each touched trace's positions in turn, each numbered from
    the start of its word, each word one cycle of ``sigma``.  Its
    ``vertex``, ``first_mate`` and ``heads`` are fixed by the pattern's
    trace lengths and sides, each position's color is its code's (``code
    >> 1``) and its slot rank is itself, and exactly the positions whose
    code is even pair; the others stay.  Every trace of the map is
    touched, so a position key's words are its current words; with its
    eps half-units, block ratios and kernels, whose pairs name positions,
    it has the shape of a census key.

    In a matrix-mode product the walk keeps one matching per orbit of
    the symmetry group of one side (``_side_group``; the side of the
    larger group, side A on a tie), and each count is the number of
    representatives times the group's order (see the module docstring).
    """
    codes = [word for side in pattern for word in side]   # each trace's codes
    flat = [code for word in codes for code in word]
    lengths = list(map(len, codes))
    n = len(flat)
    heads = sum(map(len, pattern[0])) if product else n
    positions = PairMap(
        heads, *_trace_cycles(lengths),
        [heads] * heads + [n] * (n - heads) if product else list(range(1, n + 1)),
        [code >> 1 for code in flat], list(range(n)),
        [tuple(range(start, start + length))
         for start, length in zip(accumulate(lengths, initial=0), lengths)],
        product)
    stays = [code & 1 for code in flat]
    before, weight = None, 1
    if product and kind == "matrix":
        (order_a, links_a), (order_b, links_b) = (_side_group(pattern[0], 0, stays),
                                                  _side_group(pattern[1], heads, stays))
        weight, links = (order_a, links_a) if order_a >= order_b else (order_b, links_b)
        if weight > 1:
            before = [-1] * n
            for p, q in links:
                before[p] = q
    stats = EnumerationStats()
    counts = Counter(_walk(positions, Mode(kind, colors), stats, stays, before, max_eps_degree))
    keys = tuple([(key, count * weight) for key, count in counts.items()])
    return keys, stats.pruned_branches > 0


def _side_group(words: tuple[tuple[int, ...], ...], start: int,
                stays: list[int]) -> tuple[int, list[tuple[int, int]]]:
    """The symmetry group of one side of a pattern, whose touched traces'
    ``words`` hold positions from ``start`` on (``stays`` marks each
    surviving position): its order, and the links ``(position, earlier
    position)`` that keep one matching per orbit.

    The group rotates each fully contracted trace (every code even) by a
    multiple of its word's period ``d`` and permutes the equal ones.  The
    pattern sorts each side's words, so equal words are neighbours.  A
    representative gives the head at each offset ``j * d`` (j >= 1) of
    a trace a mate past that of the trace's first position, and the first
    position of each equal trace after the first a mate past that of the
    trace before it; on side B, the same order binds the heads that take
    those positions.
    """
    order, links = 1, []
    last, first, equal = None, -1, 0
    for word in words:
        length = len(word)
        if 1 not in stays[start:start + length]:
            period = next(d for d in range(1, length + 1) if word[d:] + word[:d] == word)
            order *= length // period
            links += [(p, start) for p in range(start + period, start + length, period)]
            if word == last:
                equal += 1
                order *= equal
                links.append((start, first))
            else:
                equal = 1
            first = start
        last = word
        start += length
    return order, links


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
    table = rank_table([gen_a] if gen_b is None else [gen_a, gen_b])
    pair_map = map_of(gen_a, gen_b, table)
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
    report["output_words"] = tuple(tuple(table.by_rank[r] for r in word)
                                   for word in report["output_words"])
    return LoopReport(pairs=tuple(pairing), **report)


def census(pairs: Scheme, pair_map: PairMap, mode: Mode,
           report: dict | None = None) -> tuple | None:
    """The integer key of a contraction scheme's term (see the module
    docstring), or ``None`` if its weight is zero.

    ``pairs`` are leg-number pairs on ``pair_map``, the head first (in a
    product, the side-A leg), and are not checked again: a pairing that
    ``analyze`` checked, or one that a test built or recorded.  The
    enumerator never calls it.  ``census`` builds from the pairs, at
    once, the state that the enumerator's walk carries along its path
    (``alpha``, ``sigma . alpha``, the vertex degrees and the component
    labels) and hands it to the same leaf reduction, so the Euler and
    half-unit checks run here too.  ``report``, when a dict,
    also gets the other fields of the scheme's ``LoopReport``, its
    current loops as leg numbers and its output words as slot ranks.
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
    _, _, vertex, _, colors, ranks, vertex_ranks, product = pair_map
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
            palette = {colors[c] for c in corners}
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
            k = least_rotation(word)
            if k:
                word = word[k:] + word[:k]
        words.append(tuple(word))
        if colored and not _chains_monochrome(corners, alpha, colors):
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
                      output_words=tuple(tuple(ranks[c] for c in cur) for cur in currents)
                      + tuple(vertex_ranks[v] for v in isolated))
    if zero_reason is not None:
        return None
    if mode.kind == "matrix":
        return tuple(sorted(words)), half_units, s_exponents, pair_count
    # each pair once, as (head, mate): in a product the head is the side-A leg
    ends = [(ranks[i], ranks[j]) for i, j in enumerate(alpha) if j > i]
    if not product:   # a transport kernel is symmetric in its pair: (least, greatest) rank
        ends = [(u, v) if u < v else (v, u) for u, v in ends]
    return tuple(sorted(words)), half_units, s_exponents, tuple(sorted(ends))


def _chains_monochrome(corners: list[int], alpha: list[int], colors: list[int]) -> bool:
    """Check that every projector chain between consecutive currents is
    a single color (mixed chains annihilate under projector orthogonality).

    ``corners`` is one loop's walk; a chain starts at a current's own
    corner and runs up to the next current.
    """
    first = next(k for k, c in enumerate(corners) if alpha[c] == c)
    chain = None
    for c in corners[first:] + corners[:first]:
        if alpha[c] == c:
            chain = colors[c]
        elif colors[c] != chain:
            return False
    return True


def result_generator(report: LoopReport) -> Generator:
    """Assemble the surviving generator of a scheme."""
    return Generator(tuple(TraceWord(word) for word in report.output_words))
