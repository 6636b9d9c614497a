"""Seeded operation lists for the benchmark's workloads.

A workload is a list of slots.  Each slot holds alternative units, and
a unit is one operation or a short chain whose later operations read
the previous operation's output.  The seed picks one unit per slot,
which fixes the labels and the trace shapes inside the slot's stratum,
and the order of the units; later passes of a run move on through each
slot's units (see ``build``).  Every unit of a slot does the same kind
of work on the same number of legs, and the units of a slot have the
same length, so every pass runs the same closed-form number of schemes.  The strata are also narrow enough that
the units of a slot cost about the same, which keeps the figures of
different seeds comparable.

The program only ever sees the generated expression texts.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

PREV = "{prev}"
MANIFEST = "manifests/acceptance.txt"

# Label prefixes, one per factor.  The second alphabet sorts the other
# way round, so the canonical rotation and term order differ.
ALPHABETS = (("x", "y", "z", "w"), ("d", "c", "b", "a"))

# Shapes are trace lengths.  "matrix" and "kernel" give the single-trace
# shape and two shape pairs; a product stratum is one shape pair, and the
# seed picks which factor gets which shape (see ``either_way``).  "chain"
# gives the legs of the single-trace pair whose 727-term product is parsed
# back, then the small pair.  "transport" gives the even, odd and small
# leg counts.
SIZES = {
    "full": {
        "matrix": ((6,), ((4, 1, 1), (3, 2, 1)), ((3, 2, 1), (2, 2, 2))),
        "kernel": ((5,), ((3, 1, 1), (2, 2, 1)), ((5,), (3, 2, 1))),
        "colored": 4, "chain": (5, (4,), (2, 2)), "connected": 2, "moment": 5,
        "transport": (10, 9, 8),
    },
    "tiny": {
        "matrix": ((3,), ((2, 1), (1, 1, 1)), ((2, 1), (1, 1, 1))),
        "kernel": ((3,), ((2, 1), (1, 1, 1)), ((3,), (2, 2))),
        "colored": 2, "chain": (3, (2,), (1, 1)), "connected": 1, "moment": 2,
        "transport": (4, 3, 2),
    },
}


@dataclass(frozen=True)
class Op:
    """One operation: parse its inputs, compute, render the result.

    ``kind`` is "product" (args: mode kind, colors, a, b, eps cap),
    "transport" (args: the series text) or "cli" (args: argv, where
    PREV stands for the previous operation's output).  ``checks`` name
    the independent checks the result must pass.
    """

    kind: str
    args: tuple
    checks: tuple = ()

    @property
    def chained(self) -> bool:
        return self.kind == "cli" and PREV in self.args


def op_key(op: Op, prev_key: str | None) -> str:
    """Digest-table key: the operation, plus its input's key when chained."""
    doc = [op.kind, list(op.args), prev_key if op.chained else None]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:32]


def gen(prefix: str, shape: tuple[int, ...], colors: tuple[int, ...] | None = None) -> str:
    """Generator literal with legs prefix1, prefix2, ... in traces of ``shape``."""
    traces, i = [], 0
    for length in shape:
        slots = []
        for _ in range(length):
            i += 1
            slots.append(f"{prefix}{i}" + (f"@{colors[i - 1]}" if colors else ""))
        traces.append("Tr[" + " ".join(slots) + "]")
    return "W{" + " ".join(traces) + "}"


def two_traces(n: int) -> list[tuple[int, ...]]:
    smallest = 2 if n >= 4 else 1
    return [(n - k, k) for k in range(smallest, n // 2 + 1)]


def either_way(shape_a, shape_b) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A stratum of one shape pair: the seed picks which factor gets which shape.

    Pruning makes the cost of a capped product depend strongly on the
    shapes, but hardly on their order, so this keeps seeds comparable.
    """
    return [(shape_a, shape_b), (shape_b, shape_a)]


def color_patterns(legs: int) -> list[tuple[int, ...]]:
    half = legs // 2
    return [tuple(1 + i % 2 for i in range(legs)),
            tuple(2 - i % 2 for i in range(legs)),
            tuple(1 if i < half else 2 for i in range(legs))]


def _product(kind: str, shape_a, shape_b, alphabet, cap, colors=None) -> Op:
    a = gen(alphabet[0], shape_a, colors[0] if colors else None)
    b = gen(alphabet[1], shape_b, colors[1] if colors else None)
    checks = ()
    if kind == "matrix" and not colors and cap is None:
        checks = (("unit_matchings", sum(shape_a), sum(shape_b)),)
    return Op("product", (kind, 2 if colors else 0, a, b, cap), checks)


def _product_slots(size: str, cap: int | None) -> list[list[tuple[Op, ...]]]:
    s = SIZES[size]
    mixed = [(pa, pb) for pa in color_patterns(s["colored"])
             for pb in color_patterns(s["colored"])]

    def strata(kind):
        single, pair_1, pair_2 = s[kind]
        return [[(_product(kind, pa, pb, al, cap),) for pa, pb in pairs for al in ALPHABETS]
                for pairs in ([(single, single)], either_way(*pair_1), either_way(*pair_2))]

    colored = [(_product("matrix", (s["colored"],), (s["colored"],), al, cap, colors=cc),)
               for cc in mixed for al in ALPHABETS]
    return strata("matrix") + strata("kernel") + [colored]


def _chain_slots(size: str) -> list[list[tuple[Op, ...]]]:
    s = SIZES[size]
    big, small_a, small_b = s["chain"]
    small = sum(small_a)
    m, k = s["connected"], s["moment"]

    def chain(argv_head, sa, sb, sc, al):
        first = Op("cli", (*argv_head, gen(al[0], sa), gen(al[1], sb)))
        second = Op("cli", (*argv_head, PREV, gen(al[2], sc)))
        return (first, second)

    return [
        [chain(("product",), (big,), (big,), (1,), al) for al in ALPHABETS],
        [chain(("product",), sa, sb, (2,), al)
         for sa, sb in either_way(small_a, small_b) for al in ALPHABETS],
        [chain(("product", "--mode", "kernel"), (small,), (small,), (1,), al)
         for al in ALPHABETS],
        [(Op("cli", ("connected", gen(al[0], (m,)), gen(al[1], shape), gen(al[2], (1,)))),)
         for shape in ((m,), (m + 1,)) for al in ALPHABETS],
        [(Op("cli", ("connected", *(gen(p, (m,)) for p in al))),) for al in ALPHABETS],
        [(Op("cli", ("moment", gen(al[0], sa), gen(al[1], sa))),
          ) for sa in ((k,), (k - 1, 1)) for al in ALPHABETS],
    ]


def _transports(shapes) -> list[tuple[Op, ...]]:
    units = []
    for shape in shapes:
        legs = sum(shape)
        checks = [("matchings", legs)]
        if len(shape) == 1 and legs % 2 == 0:
            checks.append(("harer_zagier", legs))
        units += [(Op("transport", (gen(al[0], shape),), tuple(checks)),) for al in ALPHABETS]
    return units


def _transport_slots(size: str, manifest_checks: int) -> list[list[tuple[Op, ...]]]:
    even, odd, small = SIZES[size]["transport"]
    verify = Op("cli", ("verify", MANIFEST), (("verify", manifest_checks),))
    return [
        _transports([(even,)]),
        _transports(two_traces(even)),
        _transports([(odd,)] + two_traces(odd)),
        _transports([(small,)] + two_traces(small)),
        [(verify,)],
    ]


def _slots(name: str, size: str, manifest_checks: int) -> list[list[tuple[Op, ...]]]:
    if name == "product_full":
        return _product_slots(size, None)
    if name == "product_planar":
        return _product_slots(size, 0)
    if name == "text_transport":
        return _chain_slots(size) + _transport_slots(size, manifest_checks)
    raise KeyError(name)


NAMES = ("product_full", "product_planar", "text_transport")


def build(name: str, seed: int, size: str = "full", manifest_checks: int = 0,
          pass_number: int = 0) -> list[Op]:
    """The seeded operation list of one pass.

    The seed fixes the order of the slots and, for each slot, which unit
    pass 0 takes; pass ``p`` takes the unit ``p`` places further on in
    the slot, so a run of several passes goes round each slot's units in
    turn.  Units of one slot do the same work on the same legs but not at
    exactly the same cost (the alphabet and the order of the factors
    change the canonical forms), so this keeps a run's means from resting
    on one seeded choice per slot.  Position ``j`` of every pass belongs
    to the same slot.
    """
    rng = random.Random(f"{name}/{size}/{seed}")
    slots = _slots(name, size, manifest_checks)
    offsets = [rng.randrange(len(slot)) for slot in slots]
    order = list(range(len(slots)))
    rng.shuffle(order)
    units = [slots[i][(offsets[i] + pass_number) % len(slots[i])] for i in order]
    return [op for unit in units for op in unit]


def space(name: str, size: str = "full", manifest_checks: int = 0) -> list[tuple[Op, ...]]:
    """Every unit any seed can draw, for recording reference digests."""
    seen: dict[tuple[Op, ...], None] = {}
    for slot in _slots(name, size, manifest_checks):
        for unit in slot:
            seen.setdefault(unit, None)
    return list(seen)
