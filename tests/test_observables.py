"""Canonical forms of generators and the classical series layer."""

import pickle

import pytest
from hypothesis import given
import hypothesis.strategies as st

from multitrace import (
    Coefficient,
    Generator,
    KERNEL,
    MATRIX,
    Mode,
    ObservableError,
    ONE,
    Series,
    Slot,
    TraceWord,
    UNIT_GENERATOR,
    classical_product,
    forget_labels,
    make_generator,
    parse_series,
    product,
    series_degree,
    star,
    star_generator,
)

from helpers import series_of, shaped, trace_lengths, with_flags


def word(*labels, conj=None, colors=None):
    conj = conj or [False] * len(labels)
    colors = colors or [None] * len(labels)
    return [Slot(l, cj, c) for l, cj, c in zip(labels, conj, colors)]


def test_cyclic_rotation_is_canonicalized():
    a = make_generator([word("x2", "x3", "x1")], MATRIX)
    b = make_generator([word("x1", "x2", "x3")], MATRIX)
    assert a == b
    assert a.key() == b.key()


slots = st.builds(Slot, st.sampled_from(["a", "b"]), st.booleans(),
                  st.sampled_from([None, 1, 2]))


@given(st.lists(slots, min_size=1, max_size=5), st.integers(1, 3), st.integers(0, 14))
def test_least_rotation_matches_brute_force(base, period, shift):
    # repeated bases give periodic words, whose least rotation is not unique
    slots_in = tuple(base) * period
    shift %= len(slots_in)
    rotated = slots_in[shift:] + slots_in[:shift]
    rotations = [slots_in[i:] + slots_in[:i] for i in range(len(slots_in))]
    want = min(rotations, key=lambda w: [s.key() for s in w])
    assert TraceWord(rotated).slots == want


@given(st.lists(st.lists(slots, min_size=1, max_size=4), max_size=3), st.randoms())
def test_rotated_words_and_shuffled_traces_build_equal_values(words, rnd):
    # fresh slot objects, so equality cannot rest on identity
    turned = [[Slot(s.label, s.conjugated, s.color) for s in w[k:] + w[:k]]
              for w in words for k in [rnd.randrange(len(w))]]
    rnd.shuffle(turned)
    first = Generator(tuple(TraceWord(tuple(w)) for w in words))
    again = Generator(tuple(TraceWord(tuple(w)) for w in turned))
    assert first == again and hash(first) == hash(again) and first.key() == again.key()
    assert first.traces == again.traces
    assert [hash(t) for t in first.traces] == [hash(t) for t in again.traces]


def test_values_survive_pickling():
    series = parse_series("(2*eps*K(x1,~y1) + s2)*W{Tr[x1@1 ~y1@2] Tr[x2@2]}",
                          Mode("kernel", 2))
    again = pickle.loads(pickle.dumps(series))
    assert again == series and [hash(g) for g, _ in again.terms] == \
        [hash(g) for g, _ in series.terms]


def test_trace_order_is_immaterial():
    ab = make_generator([word("x1", "x2"), word("y1")], MATRIX)
    ba = make_generator([word("y1"), word("x1", "x2")], MATRIX)
    assert ab == ba
    assert trace_lengths(ab) == (1, 2) or trace_lengths(ab) == (2, 1)


def test_shape_accessors():
    g = shaped((3, 3))
    assert trace_lengths(g) == (3, 3)
    assert g.trace_count == 2
    assert g.size == 6
    assert sorted(g.labels()) == [f"x{i}" for i in range(1, 7)]


def test_empty_generator_is_the_unit():
    assert make_generator([], MATRIX) == UNIT_GENERATOR
    assert UNIT_GENERATOR.size == 0
    assert UNIT_GENERATOR.render() == "W{}"


def test_render_forms():
    assert shaped((2,)).render() == "W{Tr[x1 x2]}"
    colored = make_generator([word("x1", "x2", colors=[1, 2])], Mode("matrix", 2))
    assert colored.render() == "W{Tr[x1@1 x2@2]}"
    conj = make_generator([word("x1", conj=[True])], KERNEL)
    assert conj.render() == "W{Tr[~x1]}"


def test_validation_errors():
    with pytest.raises(ObservableError):
        make_generator([[]], MATRIX)  # empty trace word
    with pytest.raises(ObservableError):
        make_generator([word("x1", colors=[1])], MATRIX)  # color without blocks
    with pytest.raises(ObservableError):
        make_generator([word("x1")], Mode("matrix", 2))  # missing color
    with pytest.raises(ObservableError):
        make_generator([word("x1", colors=[3])], Mode("matrix", 2))  # color > k
    with pytest.raises(ObservableError):
        Slot("1bad")


def test_star_reverses_and_conjugates():
    g = make_generator([word("x1", "x2", "x3")], KERNEL)
    expected = make_generator(
        [word("x3", "x2", "x1", conj=[True, True, True])], KERNEL)
    assert star_generator(g) == expected


def test_star_moves_colors_with_the_following_projector():
    mode = Mode("matrix", 2)
    g = make_generator([word("x1", "x2", colors=[1, 2])], mode)
    expected = make_generator(
        [word("x2", "x1", conj=[True, True], colors=[1, 2])], mode)
    assert star_generator(g) == expected


@st.composite
def small_generators(draw):
    mode = draw(st.sampled_from([MATRIX, KERNEL, Mode("matrix", 2), Mode("kernel", 2)]))
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    counter = 0
    words = []
    for length in shape:
        slots = []
        for _ in range(length):
            counter += 1
            color = draw(st.integers(1, 2)) if mode.colors else None
            slots.append(Slot(f"x{counter}", draw(st.booleans()), color))
        words.append(slots)
    return make_generator(words, mode), mode


@given(small_generators())
def test_star_is_an_involution(pair):
    gen, _ = pair
    assert star_generator(star_generator(gen)) == gen


@given(small_generators())
def test_canonical_form_is_idempotent(pair):
    gen, mode = pair
    rebuilt = make_generator([t.slots for t in gen.traces], mode)
    assert rebuilt == gen


class TestSeries:
    def test_build_merges_and_drops_zeros(self):
        g = shaped((2,))
        s = Series.build(MATRIX, [(g, ONE), (g, -ONE)])
        assert s.is_zero()
        s2 = Series.build(MATRIX, [(g, ONE), (g, ONE)])
        assert s2.coefficient(g) == ONE + ONE

    def test_flags_do_not_affect_equality(self):
        s = series_of((2,))
        assert with_flags(s, ["truncated"]) == s
        assert "truncated" in with_flags(s, ["truncated"]).flags

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ObservableError):
            series_of((1,)) + series_of((1,), mode=KERNEL)

    def test_linear_ops(self):
        a, b = series_of((2,)), series_of((1,), prefix="y")
        s = a + b.scale(Coefficient.eps())
        assert s.coefficient(shaped((2,))) == ONE
        assert (s - s).is_zero()
        assert (-s + s).is_zero()

    def test_series_degree(self):
        s = series_of((1,)).scale(Coefficient.eps()) \
            + Series.unit(MATRIX).scale(Coefficient.eps(3))
        assert series_degree(s) == 1
        assert series_degree(Series.unit(MATRIX)) == 0
        assert series_degree(Series.build(MATRIX, [])) is None

    def test_star_series_conjugates_coefficients(self):
        s = series_of((1,), mode=KERNEL).scale(Coefficient.eps())
        ss = star(s)
        g = make_generator([word("x1", conj=[True])], KERNEL)
        assert ss.coefficient(g) == Coefficient.eps()


class TestClassicalProduct:
    def test_concatenates_traces(self):
        a, b = series_of((1,)), series_of((1,), prefix="y")
        out = classical_product(a, b)
        expected = make_generator([word("x1"), word("y1")], MATRIX)
        assert out == Series.of(expected, MATRIX)

    def test_unit_law(self):
        a = series_of((2, 1))
        assert classical_product(a, Series.unit(MATRIX)) == a
        assert classical_product(Series.unit(MATRIX), a) == a

    def test_bilinearity_example(self):
        a = series_of((2,)) + Series.unit(MATRIX).scale(Coefficient.eps())
        b = series_of((1,), prefix="y")
        out = classical_product(a, b)
        pair = make_generator([word("x1", "x2"), word("y1")], MATRIX)
        assert out.coefficient(pair) == ONE
        assert out.coefficient(shaped((1,), prefix="y")) == Coefficient.eps()

    @given(st.integers(1, 3), st.integers(1, 3))
    def test_commutes_on_disjoint_labels(self, n, m):
        a = series_of((n,), prefix="a")
        b = series_of((m,), prefix="b")
        assert classical_product(a, b) == classical_product(b, a)


def test_forget_labels_merges_equal_shapes():
    from fractions import Fraction

    from multitrace import KernelSymbol

    out = product(series_of((2,)), series_of((2,), prefix="y"))
    folded = forget_labels(out)
    glue = make_generator([[Slot("x"), Slot("x")]], MATRIX)
    expected = Coefficient.eps() * Coefficient.hbar() \
        * Coefficient.kernel(KernelSymbol("g"))
    assert folded.coefficient(glue) == expected.scale(Fraction(4))


def test_forget_labels_requires_matrix_mode():
    with pytest.raises(ObservableError):
        forget_labels(series_of((1,), mode=KERNEL))
