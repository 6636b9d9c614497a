"""Slots, trace words, generators, kernel symbols and monomials are tuples
holding their canonical keys: their order, equality, hashing, ``repr``
and round trips, held to keys rebuilt from public attributes."""

import copy
import pickle

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from multitrace import (
    Coefficient,
    CoefficientError,
    Generator,
    KernelSymbol,
    Monomial,
    Series,
    Slot,
    TraceWord,
    UNIT_GENERATOR,
    series_from_json,
    series_to_json,
)

from helpers import MODES, generators, monomials, rationals, reference_key

KERNEL = KernelSymbol("K", (("x1", False), ("y2", True)))


# -- decisions pinned ----------------------------------------------------------


def test_values_equal_plain_tuples_of_their_contents():
    slot = Slot("x1")
    word = TraceWord((Slot("x2", True), slot))
    pairs = [
        (slot, ("x1", False, -1)),
        (Slot("x1", True, 2), ("x1", True, 2)),
        (word, (("x1", False, -1), ("x2", True, -1))),
        (Generator((word,)), ((("x1", False, -1), ("x2", True, -1)),)),
        (UNIT_GENERATOR, ()),
        (KernelSymbol("g"), ("g", ())),
        (KERNEL, ("K", (("x1", False), ("y2", True)))),
        (Monomial(), (0, 0, (), ())),
        (Monomial(2, 1, ((1, 2),), ((KERNEL, 1),)),
         (2, 1, ((1, 2),), ((("K", (("x1", False), ("y2", True))), 1),))),
    ]
    for value, plain in pairs:
        assert value == plain and plain == value and hash(value) == hash(plain)
        assert value.key() == plain and type(value.key()) is tuple


def test_order_equality_and_hash_are_the_tuples_own():
    for cls in (Slot, TraceWord, Generator, KernelSymbol, Monomial):
        for name in ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__", "__hash__"):
            assert getattr(cls, name) is getattr(tuple, name), (cls, name)


def test_generators_have_len_and_iterate_over_their_traces():
    words = (TraceWord((Slot("y1"),)), TraceWord((Slot("x1"), Slot("x2"))))
    gen = Generator(words)
    assert len(gen) == gen.trace_count == 2
    assert list(gen) == list(gen.traces) == sorted(words)
    assert type(gen.traces) is tuple and all(type(t) is TraceWord for t in gen)
    word = gen.traces[1]
    assert len(word) == 1 and list(word) == list(word.slots) == [Slot("y1")]
    assert type(word.slots) is tuple


def test_every_generator_is_truthy_the_unit_too():
    assert len(UNIT_GENERATOR) == 0 and UNIT_GENERATOR.traces == ()
    assert UNIT_GENERATOR and Generator(()) and Generator((TraceWord((Slot("x1"),)),))
    assert not UNIT_GENERATOR.traces


def test_each_class_keeps_its_dataclass_repr():
    slot = Slot("x1", True, 2)
    word = TraceWord((Slot("x2"), Slot("x1")))
    assert repr(slot) == "Slot(label='x1', conjugated=True, color=2)"
    assert repr(word) == ("TraceWord(slots=(Slot(label='x1', conjugated=False, color=None), "
                          "Slot(label='x2', conjugated=False, color=None)))")
    assert repr(Generator((word,))) == f"Generator(traces=({word!r},))"
    assert repr(UNIT_GENERATOR) == "Generator(traces=())"
    assert repr(KERNEL) == "KernelSymbol(name='K', args=(('x1', False), ('y2', True)))"
    assert repr(Monomial(2, 1, ((1, 2),), ((KERNEL, 1),))) == (
        f"Monomial(eps_half=2, hbar=1, s=((1, 2),), kernels=(({KERNEL!r}, 1),))")


def test_a_negative_power_names_its_symbol_by_repr():
    with pytest.raises(CoefficientError) as err:
        Monomial(kernels=((KERNEL, -1),))
    assert str(err.value) == ("negative kernel exponent -1 on "
                              "KernelSymbol(name='K', args=(('x1', False), ('y2', True)))")


def test_star_swaps_and_conjugates_the_arguments_and_keeps_the_name():
    assert KERNEL.star() == KernelSymbol("K", (("y2", False), ("x1", True)))
    assert type(KERNEL.star()) is KernelSymbol and KERNEL.star().star() == KERNEL
    bare = KernelSymbol("g")
    assert bare.star() is bare
    mono = Monomial(2, 1, ((1, 1),), ((KERNEL, 2), (bare, 1)))
    assert mono.star() == Monomial(2, 1, ((1, 1),), ((KERNEL.star(), 2), (bare, 1)))
    assert type(mono.star()) is Monomial and mono.star().star() == mono


# -- against the reference keys -----------------------------------------------


def rebuilt(value):
    """The value built anew by its public constructor from its attributes."""
    if isinstance(value, Slot):
        return Slot(value.label, value.conjugated, value.color)
    if isinstance(value, TraceWord):
        return TraceWord(tuple(rebuilt(slot) for slot in value.slots))
    if isinstance(value, Generator):
        return Generator(tuple(rebuilt(trace) for trace in value.traces))
    if isinstance(value, KernelSymbol):
        return KernelSymbol(value.name, tuple(value.args))
    return Monomial(value.eps_half, value.hbar, tuple(value.s),
                    tuple((rebuilt(sym), power) for sym, power in value.kernels))


def classes(value):
    """The class of a value and, nested alike, of every part it holds."""
    if isinstance(value, Coefficient):
        return Coefficient, classes(value.terms)
    if isinstance(value, Series):
        return Series, value.mode, classes(value.terms)
    if isinstance(value, tuple):
        return type(value), tuple(classes(part) for part in value)
    return type(value)


def parts(gens, monos):
    """The values of each class inside the drawn generators and monomials."""
    words = [trace for gen in gens for trace in gen.traces]
    return [
        [slot for word in words for slot in word.slots],
        words,
        list(gens),
        [sym for mono in monos for sym, _ in mono.kernels] + [KERNEL],
        list(monos),
    ]


@st.composite
def drawn_series(draw):
    mode = draw(st.sampled_from(MODES))
    gens = draw(st.lists(generators(mode, "x", 5), min_size=1, max_size=4))
    monos = draw(st.lists(monomials(even_eps=False), min_size=1, max_size=4))
    # a kernel symbol inside a monomial inside every coefficient
    kernel = Coefficient.kernel(KERNEL, draw(st.integers(1, 2)))
    terms = [(gen, kernel + Coefficient.build(zip(monos, draw(
        st.lists(rationals, min_size=len(monos), max_size=len(monos))))))
        for gen in gens]
    return Series.build(mode, terms), gens, monos


@settings(max_examples=80, deadline=None)
@given(drawn_series())
def test_order_equality_and_hash_follow_the_reference_keys(drawn):
    _, gens, monos = drawn
    for values in parts(gens, monos):
        keys = [reference_key(value) for value in values]
        assert [reference_key(value) for value in sorted(values)] == sorted(keys)
        for value, key in zip(values, keys):
            assert value == key and hash(value) == hash(key)
            for other, other_key in zip(values, keys):
                assert (value == other) == (key == other_key)
                assert (value < other) == (key < other_key)
                if key == other_key:
                    assert hash(value) == hash(other)


@settings(max_examples=60, deadline=None)
@given(drawn_series())
def test_pickle_copy_and_json_give_back_equal_values_of_the_same_classes(drawn):
    series, gens, monos = drawn
    for values in parts(gens, monos):
        for value in values:
            fresh = rebuilt(value)
            for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                          copy.copy(value)):
                assert classes(again) == classes(fresh) == classes(value)
                assert again == fresh and hash(again) == hash(fresh)
    for again in (pickle.loads(pickle.dumps(series)), copy.deepcopy(series),
                  series_from_json(series_to_json(series))):
        assert classes(again) == classes(series) and again == series
        for (gen, coeff), (gen_again, coeff_again) in zip(series.terms, again.terms):
            assert hash(gen_again) == hash(rebuilt(gen))
            for (mono, _), (mono_again, _) in zip(coeff.terms, coeff_again.terms):
                assert hash(mono_again) == hash(rebuilt(mono))
