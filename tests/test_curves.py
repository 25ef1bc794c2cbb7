"""Type-A braid images against the curve model of `free_group`.

The oracle shares no code with the engine: it counts crossings of loops
in the free group and compares their conjugacy classes, and the engine
twists and minimizes complexes and tests them for isomorphism.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from twistcat import (
    BraidWord, ZigzagAlgebra, apply_braid, find_isomorphism, find_shift_isomorphism, named_quiver,
    parse_braid_word, simple_object,
)
from twistcat.verify import power_image

import free_group

ALGEBRAS = {n: ZigzagAlgebra(named_quiver(f"A{n}")) for n in range(1, 8)}


def engine_image(n: int, letters, v: int):
    return apply_braid(ALGEBRAS[n], BraidWord(tuple(letters)), simple_object(ALGEBRAS[n], v))


def engine_counts(n: int, letters, v: int) -> list[int]:
    """Per-vertex generator counts of apply_braid(letters, P_v) on A_n."""
    image = engine_image(n, letters, v)
    counts = [0] * n
    for u, _ in image.generators:
        counts[u] += 1
    return counts


def test_the_oracle_reads_hand_computed_loops_and_counts():
    """On A2 (punctures 0, 1, 2): P_1 is the loop x_1 x_2; sigma_0 takes it
    to x_0 x_2, which crosses both lines twice, so T_{P0}(P1), the
    two-term cone of P0[-1] -> P1, has one generator at each vertex.  A
    projective's own twist only shifts it, and a far twist fixes it."""
    assert free_group.boundary((), 1) == ((1, 1), (2, 1))
    assert free_group.boundary(((0, 1),), 1) == ((0, 1), (2, 1))
    assert free_group.boundary(((0, -1),), 1) == ((1, -1), (0, 1), (1, 1), (2, 1))
    assert free_group.generator_counts(2, ((0, 1),), 1) == [1, 1]
    assert free_group.generator_counts(2, ((1, 1),), 1) == [0, 1]
    assert free_group.generator_counts(3, ((2, -1),), 0) == [1, 0, 0]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_letter_images_match_the_curve_counts(n):
    """Twist and untwist by every simple, of every simple: the engine's
    per-vertex counts equal the oracle's with a twist read as sigma_i.

    Counts cannot tell sigma_i from sigma_i^-1: flipping every exponent
    mirrors the curve across the line through the punctures, which keeps
    each crossing.  So the sign of a letter is a convention of the
    oracle, pinned by the loops above, and the counts check the model
    and the order in which letters act."""
    for v, i, e in itertools.product(range(n), range(n), (1, -1)):
        want = free_group.generator_counts(n, ((i, e),), v)
        assert engine_counts(n, ((i, e),), v) == want
        assert free_group.generator_counts(n, ((i, -e),), v) == want


def test_the_first_letter_acts_first():
    """T_{P1} T_{P0} (P0) = T_{P1}(P0[-1]) has a generator at P0 and at P1,
    while T_{P0} T_{P1} (P0) is P1 up to shift (a braid relation): the
    engine and the oracle both act with letters[0] first."""
    letters = ((0, 1), (1, 1))
    assert engine_counts(3, letters, 0) == free_group.generator_counts(3, letters, 0) == [1, 1, 0]
    assert engine_counts(3, letters[::-1], 0) == free_group.generator_counts(3, letters[::-1], 0) \
        == [0, 1, 0]


@st.composite
def type_a_words(draw, max_len: int = 10):
    """A type A_n with n in 1..7, a braid word on it and a vertex."""
    n = draw(st.integers(1, 7))
    letters = draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1))),
                            max_size=max_len))
    return n, tuple(letters), draw(st.integers(0, n - 1))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(type_a_words())
def test_braid_images_have_the_curve_counts(case):
    """The minimal complex of apply_braid(word, P_v) has, at each vertex,
    the oracle's count of crossings of beta(c_v) with that vertex's line."""
    n, letters, v = case
    assert engine_counts(n, letters, v) == free_group.generator_counts(n, letters, v)


@pytest.mark.parametrize("k, total", [(4, 265), (5, 989), (6, 3691)])
def test_the_large_a3_inputs_have_the_curve_counts(k, total):
    """The A3 input (s1 s2' s3)^k on the middle simple: the oracle's counts
    sum to the pinned sizes, and the engine's per-vertex counts equal them."""
    letters = ((2, 1), (1, -1), (0, 1)) * k  # the text's rightmost letter acts first
    assert parse_braid_word(" ".join(["s1 s2' s3"] * k)).letters == letters
    want = free_group.generator_counts(3, letters, 1)
    assert sum(want) == total
    image = power_image(ALGEBRAS[3], "s1 s2' s3", k, 1)
    assert [sum(1 for u, _ in image.generators if u == i) for i in range(3)] == want


def test_the_oracle_reads_hand_computed_curve_equalities():
    """On A2: sigma_0 takes the loop x_1 x_2 of c_1 to x_0 x_2, which is not
    c_0's x_0 x_1; a rotation or the inverse of a loop is the same curve;
    and T_{P0}(P0) is P0 up to shift, so sigma_0 fixes c_0's curve."""
    c0, c1 = free_group.boundary((), 0), free_group.boundary((), 1)
    assert not free_group.same_curve(c0, c1)
    assert not free_group.same_curve(free_group.boundary(((0, 1),), 1), c0)
    loop = free_group.boundary(((0, -1),), 1)
    assert free_group.same_curve(loop, loop[1:] + loop[:1])
    assert free_group.same_curve(loop, free_group.inverse(loop))
    assert free_group.same_curve(free_group.boundary(((0, 1),), 0), c0)


def _flipped(letters):
    return tuple((i, -e) for i, e in letters)


@st.composite
def type_a_pairs(draw, max_len: int = 6):
    """A type A_n with n in 1..7 and two (braid word, vertex) pairs.  On n >= 2
    half of the pairs are related: the two words are one word with a braid
    relation inserted at one place, on the left s_i s_j s_i for |i - j| = 1
    or s_i s_j for |i - j| > 1, on the right the same letters with i and j
    swapped, and both act on the same simple."""
    n = draw(st.integers(1, 7))
    letter = st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1)))
    first = tuple(draw(st.lists(letter, max_size=max_len)))
    v = draw(st.integers(0, n - 1))
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        e, f = draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1)))
        if abs(i - j) == 1:
            left, right = ((i, e), (j, e), (i, e)), ((j, e), (i, e), (j, e))
        else:
            left, right = ((i, e), (j, f)), ((j, f), (i, e))
        at = draw(st.integers(0, len(first)))
        return n, (first[:at] + left + first[at:], v), (first[:at] + right + first[at:], v), True
    second = tuple(draw(st.lists(letter, max_size=max_len)))
    return n, (first, v), (second, draw(st.integers(0, n - 1))), False


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(type_a_pairs())
def test_braid_images_are_isomorphic_up_to_shift_exactly_on_one_curve(case):
    """beta(P_v) ≅ beta'(P_u)[k] for some k exactly when the boundary loops
    of beta(c_v) and beta'(c_u) are one unoriented curve (Khovanov–Seidel:
    a simple closed curve around two punctures determines the arc between
    them).

    The curves are ungraded, so the oracle fixes the shift only on related
    pairs: a braid relation is an isomorphism of functors, so the shift is
    0, and find_isomorphism must find a witness at shift 0.  On the other
    pairs find_isomorphism must find one at the shift find_shift_isomorphism
    returns when the curves agree, and at no shift when they differ.

    The sign of a letter cannot be settled here either: flipping every
    exponent of both words mirrors the disk, which carries one curve onto
    one curve, so the oracle's verdict is the same under either reading of
    a twist, on every pair."""
    n, (w1, v), (w2, u), related = case
    same = free_group.same_curve(free_group.boundary(w1, v), free_group.boundary(w2, u))
    assert same == free_group.same_curve(free_group.boundary(_flipped(w1), v),
                                         free_group.boundary(_flipped(w2), u))
    x, y = engine_image(n, w1, v), engine_image(n, w2, u)
    k = find_shift_isomorphism(x, y)
    assert (k is not None) == same
    if related:
        assert same and k == 0
    if same:
        witness, count = find_isomorphism(x, y.shift(k))
        assert witness is not None and count == 1
    else:
        (lo_x, hi_x), (lo_y, hi_y) = x.shift_range(), y.shift_range()
        for shift in range(lo_x - hi_y, hi_x - lo_y + 1):
            assert find_isomorphism(x, y.shift(shift))[0] is None
