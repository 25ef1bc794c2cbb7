"""Type-A braid images against the curve model of `free_group`.

The oracle shares no code with the engine: it counts crossings of loops
in the free group, and the engine twists and minimizes complexes.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from twistcat import (
    BraidWord, ZigzagAlgebra, apply_braid, named_quiver, parse_braid_word, simple_object,
)
from twistcat.verify import power_image

import free_group

ALGEBRAS = {n: ZigzagAlgebra(named_quiver(f"A{n}")) for n in range(1, 8)}


def engine_counts(n: int, letters, v: int) -> list[int]:
    """Per-vertex generator counts of apply_braid(letters, P_v) on A_n."""
    image = apply_braid(ALGEBRAS[n], BraidWord(tuple(letters)), simple_object(ALGEBRAS[n], v))
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
