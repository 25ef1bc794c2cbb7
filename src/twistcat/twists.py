"""Spherical twist functors and braid words.

The twist of Y by a spherical X is the cone of the evaluation map from
Hom(X, Y) tensor X to Y; the inverse twist is the shifted cone of the
adjoint map from Y into X tensor the dual of Hom(Y, X).  Both are built on
a cohomology retract of the Hom complex: one shifted copy of X per
cohomology basis element, connected by the chosen closed representatives.
Over the rationals the retract has zero internal differential, so the
tensor factor is a plain direct sum of shifts.

Braid words store letters in application order: ``letters[0]`` acts first.
The text syntax mirrors the usual operator order instead, so in
``"s2' s3' s1"`` the rightmost token acts first and an apostrophe marks an
inverse twist.
"""

from __future__ import annotations

from dataclasses import dataclass

from .homcore import (
    Entries,
    Generator,
    Morphism,
    TwistedComplex,
    cone,
    HomComplex,
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
        for v, e in self.letters:
            if e not in (1, -1):
                raise ValueError(f"exponent must be +1 or -1, got {e}")

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


def _require_spherical(x: TwistedComplex, checked: bool) -> None:
    if not checked and not is_spherical(x):
        raise ValueError("twist functors are only defined for spherical objects")


Triangle = tuple[TwistedComplex, TwistedComplex, TwistedComplex]


def _triangle(
    x: TwistedComplex, y: TwistedComplex, exponent: int, checked: bool
) -> Triangle | None:
    """The exact triangle of the twist (exponent 1) or untwist (-1) of y by x.

    Exponent 1 takes the evaluation map from (cohomology of Hom(x, y))
    tensor x into y and returns (tensor, y, twist); exponent -1 takes the
    adjoint map from y into x tensor the dual of Hom(y, x) and returns
    (untwist, y, tensor).  None when the Hom space vanishes.
    """
    _require_spherical(x, checked)
    source, target = (x, y) if exponent == 1 else (y, x)
    reps = HomComplex(source, target).all_cohomology_reps()
    if not reps:
        return None
    # the tensor is the direct sum of the shifts x[-exponent * d], one per rep,
    # built in the same loop that places each rep's entries at its block
    gens: list[Generator] = []
    diff: Entries = {}
    entries: Entries = {}
    for d, rep in reps:
        offset, shift = len(gens), -exponent * d
        gens.extend(Generator(v, s + shift) for v, s in x.generators)
        for (h, g), c in x.differential.items():
            diff[(h + offset, g + offset)] = -c if shift % 2 else c
        for (h, g), c in rep.entries.items():
            entries[(h, g + offset) if exponent == 1 else (h + offset, g)] = c
    tensor = TwistedComplex(x.alg, gens, diff, validate=False)
    if exponent == 1:
        return tensor, y, minimize(cone(Morphism(tensor, y, 0, entries, validate=False)))
    return minimize(cone(Morphism(y, tensor, 0, entries, validate=False)).shift(-1)), y, tensor


def twist(x: TwistedComplex, y: TwistedComplex, _spherical_checked: bool = False) -> TwistedComplex:
    """Positive spherical twist of y by x, minimized."""
    triangle = _triangle(x, y, 1, _spherical_checked)
    return triangle[2] if triangle else minimize(y)


def untwist(x: TwistedComplex, y: TwistedComplex, _spherical_checked: bool = False) -> TwistedComplex:
    """Inverse spherical twist of y by x, minimized; two-sided inverse of twist."""
    triangle = _triangle(x, y, -1, _spherical_checked)
    return triangle[0] if triangle else minimize(y)


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
    cur = y
    for v, e in word.letters:
        p = simple_object(alg, v)
        if e == 1:
            cur = twist(p, cur, _spherical_checked=True)
        else:
            cur = untwist(p, cur, _spherical_checked=True)
    return cur


def braid_class_action(q: QuiverGraph, word: BraidWord, w: Root) -> Root:
    """Induced action on classes: the product of simple reflections."""
    for v, _ in word.letters:
        w = reflect(q, w, v)
    return w
