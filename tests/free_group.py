"""The curve model of type-A braid images, in the free group: an oracle.

Khovanov and Seidel (arXiv:math/0006056) match the category of type A_n
with curves in a disk with n + 1 punctures, numbered 0..n here.  The
projective P_v is the arc c_v between punctures v and v + 1, and the twist
by P_v is the half twist along c_v.  The boundary of a small neighbourhood
of c_v is the loop x_v x_{v+1} in the free group on x_0..x_n (each x_a a
loop around puncture a), and a half twist acts on loops by Artin's
automorphism

    sigma_i:      x_i -> x_i x_{i+1} x_i^-1,   x_{i+1} -> x_i,
    sigma_i^-1:   x_i -> x_{i+1},              x_{i+1} -> x_{i+1}^-1 x_i x_{i+1},

fixing every other generator.  A free homotopy class of loops is a
conjugacy class, read off the cyclically reduced word.

Generator counts: the minimal complex of beta(P_v) has, at vertex i, as
many generators as the curve beta(c_v) crosses, at least, the vertical
line d_i between punctures i and i + 1.  The boundary loop crosses d_i
twice as often as the arc does.  Two cyclically adjacent letters x_a, x_b
of the reduced word cross d_i once for each i from min(a, b) to
max(a, b) - 1, so half the crossings of d_i is the count at vertex i.

Isomorphism: a simple closed curve around two punctures determines the
arc between them, and free homotopy classes of unoriented loops are the
conjugacy classes up to inversion.  So beta(P_v) and beta'(P_u) are
isomorphic up to shift exactly when their boundary loops are one curve
(`same_curve`).

Only plain tuples and ints are used: no engine code is imported, so the
counts and the curve test share nothing with the code they check.  A word is a tuple of
(generator, exponent +1 or -1) letters; a braid word is a sequence of
(vertex, exponent) letters in application order, first letter first.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Word = tuple[tuple[int, int], ...]


def inverse(word: Word) -> Word:
    return tuple((a, -e) for a, e in reversed(word))


def reduced(letters: Iterable[tuple[int, int]]) -> Word:
    """The freely reduced word: no letter next to its inverse."""
    out: list[tuple[int, int]] = []
    for a, e in letters:
        if out and out[-1] == (a, -e):
            out.pop()
        else:
            out.append((a, e))
    return tuple(out)


def cyclically_reduced(word: Word) -> Word:
    """The reduced word with no first letter inverse to its last one."""
    word = reduced(word)
    start, stop = 0, len(word)
    while stop - start > 1 and word[start] == (word[stop - 1][0], -word[stop - 1][1]):
        start, stop = start + 1, stop - 1
    return word[start:stop]


def artin(i: int, exponent: int, a: int) -> Word:
    """The image of the generator x_a under sigma_i ** exponent."""
    if exponent == 1:
        if a == i:
            return ((i, 1), (i + 1, 1), (i, -1))
        if a == i + 1:
            return ((i, 1),)
    else:
        if a == i:
            return ((i + 1, 1),)
        if a == i + 1:
            return ((i + 1, -1), (i, 1), (i + 1, 1))
    return ((a, 1),)


def apply(i: int, exponent: int, word: Word) -> Word:
    """The reduced image of a word under sigma_i ** exponent."""
    out: list[tuple[int, int]] = []
    for a, e in word:
        image = artin(i, exponent, a)
        out.extend(image if e == 1 else inverse(image))
    return reduced(out)


def boundary(braid: Sequence[tuple[int, int]], v: int) -> Word:
    """The cyclically reduced boundary loop of beta(c_v), letters applied in order.

    A letter (i, e) acts by sigma_i ** e, so the engine's twist by P_i
    (exponent +1) is sigma_i and its untwist sigma_i^-1.
    """
    word: Word = ((v, 1), (v + 1, 1))
    for i, e in braid:
        word = apply(i, e, word)
    return cyclically_reduced(word)


def generator_counts(n: int, braid: Sequence[tuple[int, int]], v: int) -> list[int]:
    """Per-vertex generator counts of the minimal complex of beta(P_v) on A_n."""
    word = boundary(braid, v)
    crossings = [0] * n
    for j, (a, _) in enumerate(word):
        b = word[j - 1][0]
        for i in range(min(a, b), max(a, b)):
            crossings[i] += 1
    assert all(c % 2 == 0 for c in crossings), crossings
    return [c // 2 for c in crossings]


def same_curve(a: Word, b: Word) -> bool:
    """Whether two cyclically reduced loops are freely homotopic as unoriented
    loops: b is a rotation of a or of a's inverse.

    Cyclically reduced words are conjugate exactly when one is a rotation of
    the other, and the inverse of a cyclically reduced word is cyclically
    reduced, so this is equality of conjugacy classes up to inversion.
    """
    if len(a) != len(b):
        return False
    return any(b in (w[i:] + w[:i] for i in range(max(len(w), 1))) for w in (a, inverse(a)))
