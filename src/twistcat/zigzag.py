"""Exact arithmetic in the zigzag algebra of a simply laced quiver.

Basis: an idempotent e_i (degree 0) and a loop l_i (degree 2) at every
vertex, and a pair of arrows a_{i->j}, a_{j->i} (degree 1) along every edge.
Products concatenate paths left to right: ``x * y`` is "x then y", nonzero
only when x ends where y starts.  Every length-two round trip equals the
loop at its start, all longer compositions through a loop vanish, and a
path i -> j -> k dies for k != i.  Coefficients are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rootlat import QuiverGraph

_DEGREES = {"e": 0, "a": 1, "l": 2}


@dataclass(frozen=True)
class BasisElement:
    kind: str  # "e" idempotent, "a" arrow, "l" loop
    source: int
    target: int

    @property
    def degree(self) -> int:
        return _DEGREES[self.kind]

    def __repr__(self) -> str:
        if self.kind == "e":
            return f"e{self.source}"
        if self.kind == "l":
            return f"l{self.source}"
        return f"a{self.source}>{self.target}"


def basis_product(x: BasisElement, y: BasisElement) -> BasisElement | None:
    """Product of basis paths (coefficient is always +1); None means zero."""
    if x.target != y.source:
        return None
    if x.kind == "e":
        return y
    if y.kind == "e":
        return x
    if x.kind == "a" and y.kind == "a":
        if y.target == x.source:
            return BasisElement("l", x.source, x.source)
        return None
    # any composition involving a loop and a positive-degree element vanishes
    return None


class AlgebraElement:
    """Formal rational combination of basis paths."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[BasisElement, Fraction] | None = None):
        self.terms = {b: c for b, c in (terms or {}).items() if c != 0}

    @classmethod
    def of(cls, b: BasisElement, coeff=1) -> "AlgebraElement":
        return cls({b: Fraction(coeff)})

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> int | None:
        degs = {b.degree for b in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def scale(self, c) -> "AlgebraElement":
        c = Fraction(c)
        return AlgebraElement({b: x * c for b, x in self.terms.items()})

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self.terms)
        for b, c in other.terms.items():
            out[b] = out.get(b, Fraction(0)) + c
        return AlgebraElement(out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scale(-1)

    def __neg__(self) -> "AlgebraElement":
        return self.scale(-1)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        out: dict[BasisElement, Fraction] = {}
        for bx, cx in self.terms.items():
            for by, cy in other.terms.items():
                prod = basis_product(bx, by)
                if prod is not None:
                    out[prod] = out.get(prod, Fraction(0)) + cx * cy
        return AlgebraElement(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for b in sorted(self.terms, key=lambda b: (b.degree, b.source, b.target)):
            c = self.terms[b]
            bits.append(f"{b}" if c == 1 else f"{c}*{b}")
        return " + ".join(bits)


class ZigzagAlgebra:
    """The zigzag algebra of a quiver, with constructors and the graded Hom basis."""

    def __init__(self, quiver: QuiverGraph):
        self.quiver = quiver
        # (i, j) -> {degree: the basis path i -> j of that degree}, ordered by degree;
        # no two basis paths share their ends and their degree
        self.paths: dict[tuple[int, int], dict[int, BasisElement]] = {}
        n = quiver.vertex_count
        for i in range(n):
            for j in range(n):
                if i == j:
                    paths = (BasisElement("e", i, i), BasisElement("l", i, i))
                elif quiver.adjacent(i, j):
                    paths = (BasisElement("a", i, j),)
                else:
                    paths = ()
                self.paths[(i, j)] = {b.degree: b for b in paths}
        # the stability data no charge changes (positive roots, minimal words,
        # certified stable records), shared by every StabilityCondition on this
        # algebra; set by `stability` on first use
        self.charge_free = None

    def has_path(self, i: int, j: int, degree: int) -> bool:
        """Whether a basis path i -> j of this degree exists.

        A product of two basis paths is nonzero exactly when a path of the
        summed degree joins its outer ends, and its coefficient is then 1.
        """
        return degree in self.paths[(i, j)]

    def path(self, i: int, j: int, degree: int) -> BasisElement | None:
        """The basis path i -> j of this degree, or None."""
        return self.paths[(i, j)].get(degree)

    def unit(self, v: int) -> AlgebraElement:
        return AlgebraElement.of(BasisElement("e", v, v))

    def loop(self, v: int) -> AlgebraElement:
        return AlgebraElement.of(BasisElement("l", v, v))

    def arrow(self, i: int, j: int) -> AlgebraElement:
        if not self.quiver.adjacent(i, j):
            raise ValueError(f"no edge between {i} and {j}")
        return AlgebraElement.of(BasisElement("a", i, j))

    def hom_basis(self, i: int, j: int) -> list[BasisElement]:
        """Basis of the paths i -> j, ordered by degree."""
        return list(self.paths[(i, j)].values())

    def basis(self) -> list[BasisElement]:
        out = []
        for i in range(self.quiver.vertex_count):
            for j in range(self.quiver.vertex_count):
                out.extend(self.hom_basis(i, j))
        return out
