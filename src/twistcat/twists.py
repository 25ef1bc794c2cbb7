"""Spherical twist functors and braid words.

The twist of Y by a spherical X is the cone of the evaluation map from
Hom(X, Y) tensor X to Y; the inverse twist is the shifted cone of the
adjoint map from Y into X tensor the dual of Hom(Y, X).  Both are built on
a cohomology retract of the Hom complex: one shifted copy of X per
cohomology basis element, connected by the chosen closed representatives.
Over the rationals the retract has zero internal differential, so the
tensor factor is a plain direct sum of shifts.

The reps are read as the kernel vectors of the Hom complex's echelon
(`HomComplex.rep_maps`), ints wherever the data is integral, and
`homcore._cone`, the one cone layout, lays out the cone of the map from
them in one pass, with no tensor complex built first and without the
closure check that `cone` makes (its docstring says why none is needed).
`minimize` is the twist's one elimination.  Only the triangles build the
tensor, as the direct sum of the shifts of x.

Braid words store letters in application order: ``letters[0]`` acts first.
The text syntax mirrors the usual operator order instead, so in
``"s2' s3' s1"`` the rightmost token acts first and an apostrophe marks an
inverse twist.
"""

from __future__ import annotations

from dataclasses import dataclass

from .homcore import (
    ConeMap,
    HomComplex,
    TwistedComplex,
    _cone,
    direct_sum,
    is_spherical,
    minimize,
    simple_object,
)
from .rootlat import QuiverGraph, Root, reflect
from .zigzag import ZigzagAlgebra


@dataclass(frozen=True)
class BraidWord:
    """Sequence of (vertex, exponent) letters, exponent +1 or -1, applied left to right."""

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if type(self.letters) is not tuple:
            raise ValueError(f"letters {self.letters!r} must be a tuple of (vertex, exponent) tuples")
        for letter in self.letters:
            v, e = letter if type(letter) is tuple and len(letter) == 2 else (None, None)
            if type(v) is not int or v < 0 or type(e) is not int or e not in (1, -1):
                raise ValueError(f"letter {letter!r} needs an int vertex >= 0 and an exponent +1 or -1")

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(tuple((v, -e) for v, e in reversed(self.letters)))

    def then(self, other: "BraidWord") -> "BraidWord":
        """This word applied first, then the other."""
        return BraidWord(self.letters + other.letters)


def parse_braid_word(text: str) -> BraidWord:
    """Parse operator-order text like "s2' s3' s1" (rightmost letter acts first)."""
    letters = []
    for token in text.split():
        body = token
        exp = 1
        if body.endswith("'"):
            exp = -1
            body = body[:-1]
        if not body.startswith("s") or not body[1:].isdigit():
            raise ValueError(f"bad braid letter {token!r}")
        vertex = int(body[1:]) - 1
        if vertex < 0:
            raise ValueError(f"bad braid letter {token!r}")
        letters.append((vertex, exp))
    return BraidWord(tuple(reversed(letters)))


def braid_word_to_text(word: BraidWord) -> str:
    return " ".join(
        f"s{v + 1}'" if e == -1 else f"s{v + 1}" for v, e in reversed(word.letters)
    )


Triangle = tuple[TwistedComplex, TwistedComplex, TwistedComplex]


def _twisted(
    x: TwistedComplex, y: TwistedComplex, exponent: int, checked: bool
) -> tuple[list[ConeMap], TwistedComplex] | None:
    """The reps, as maps, and the minimized twist (exponent 1) or untwist
    (-1) of y by x; None when the Hom space vanishes.

    Exponent 1 takes the evaluation map from (cohomology of Hom(x, y))
    tensor x into y, exponent -1 the adjoint map from y into x tensor the
    dual of Hom(y, x), one copy of x per rep.  `homcore._cone` lays out
    the cone of that map from the reps, and `minimize` is its one
    elimination.
    """
    if not checked and not is_spherical(x):
        raise ValueError("twist functors are only defined for spherical objects")
    source, target = (x, y) if exponent == 1 else (y, x)
    maps = HomComplex(source, target).rep_maps()
    if not maps:
        return None
    return maps, minimize(_cone(x, y, maps, exponent))


def _triangle(
    x: TwistedComplex, y: TwistedComplex, exponent: int, checked: bool
) -> Triangle | None:
    """(tensor, y, twist) for exponent 1, (untwist, y, tensor) for -1, or None.

    The tensor is the direct sum of the shifts x[-exponent * d], one per rep.
    """
    out = _twisted(x, y, exponent, checked)
    if out is None:
        return None
    maps, twisted = out
    tensor = direct_sum(*[x.shift(-exponent * d) for d, _, _ in maps])
    return (tensor, y, twisted) if exponent == 1 else (twisted, y, tensor)


def twist(x: TwistedComplex, y: TwistedComplex, _spherical_checked: bool = False) -> TwistedComplex:
    """Positive spherical twist of y by x, minimized."""
    out = _twisted(x, y, 1, _spherical_checked)
    return out[1] if out else minimize(y)


def untwist(x: TwistedComplex, y: TwistedComplex, _spherical_checked: bool = False) -> TwistedComplex:
    """Inverse spherical twist of y by x, minimized; two-sided inverse of twist."""
    out = _twisted(x, y, -1, _spherical_checked)
    return out[1] if out else minimize(y)


def twist_triangle(
    x: TwistedComplex, y: TwistedComplex, _spherical_checked: bool = False
) -> Triangle | None:
    """The exact triangle (tensor -> y -> twist) of a positive twist, or None if Hom = 0."""
    return _triangle(x, y, 1, _spherical_checked)


def untwist_triangle(
    x: TwistedComplex, y: TwistedComplex, _spherical_checked: bool = False
) -> Triangle | None:
    """The exact triangle (untwist -> y -> tensor) of an inverse twist, or None if Hom = 0."""
    return _triangle(x, y, -1, _spherical_checked)


def apply_braid(
    alg: ZigzagAlgebra, word: BraidWord, y: TwistedComplex
) -> TwistedComplex:
    """Apply the word's twists in the simples, first letter first; minimized throughout."""
    simples: dict[int, TwistedComplex] = {}
    cur = y
    for v, e in word.letters:
        p = simples.get(v)
        if p is None:
            p = simples[v] = simple_object(alg, v)
        if e == 1:
            cur = twist(p, cur, _spherical_checked=True)
        else:
            cur = untwist(p, cur, _spherical_checked=True)
    return cur


def braid_class_action(q: QuiverGraph, word: BraidWord, w: Root) -> Root:
    """Induced action on classes: the product of simple reflections."""
    q.check_root(w)
    for v, _ in word.letters:
        w = reflect(q, w, v)
    return w
