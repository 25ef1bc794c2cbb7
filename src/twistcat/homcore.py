"""Twisted complexes over a zigzag algebra.

An object is a formal sum of shifted vertex projectives P_v[s] together with
a square-zero degree +1 differential matrix.  Sign conventions, fixed once:

* composition of entry matrices carries no extra signs; the entry (h, g) of
  a degree-d map stores a path from vertex(g) to vertex(h) whose algebra
  degree is shift(h) - shift(g) + d;
* the differential on Hom complexes is D(f) = d_Y o f - (-1)^{|f|} f o d_X;
* shifting by [n] multiplies the differential by (-1)^n;
* the cone of a closed degree-0 map f: X -> Y places Y first, then X[1],
  with differential blocks d_Y, f, -d_X.

Hom-complex differentials are assembled as sparse columns, and every rank,
cohomology dimension and cocycle representative comes from the exact sparse
echelon in linalg.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import linalg
from .rootlat import Root
from .zigzag import AlgebraElement, BasisElement, ZigzagAlgebra, basis_product

Entries = dict[tuple[int, int], AlgebraElement]


class Generator(NamedTuple):
    vertex: int
    shift: int


def _compose(first: Entries, second: Entries) -> Entries:
    """Matrix of (second o first): paths run through `first`, then `second`."""
    by_source: dict[int, list[tuple[int, AlgebraElement]]] = {}
    for (h, m), elem in second.items():
        by_source.setdefault(m, []).append((h, elem))
    out: Entries = {}
    for (m, g), x in first.items():
        for h, y in by_source.get(m, ()):
            prod = x * y
            if not prod.is_zero():
                key = (h, g)
                out[key] = out[key] + prod if key in out else prod
    return {k: v for k, v in out.items() if not v.is_zero()}


def _entries_combine(a: Entries, b: Entries, coeff: Fraction) -> Entries:
    out = dict(a)
    for key, elem in b.items():
        add = elem.scale(coeff)
        out[key] = out[key] + add if key in out else add
    return {k: v for k, v in out.items() if not v.is_zero()}


class TwistedComplex:
    """Immutable-by-convention twisted complex; validates its invariants eagerly."""

    __slots__ = ("alg", "generators", "differential")

    def __init__(
        self,
        alg: ZigzagAlgebra,
        generators: Iterable[Generator],
        differential: Entries | None = None,
        validate: bool = True,
    ):
        self.alg = alg
        self.generators = tuple(Generator(v, s) for v, s in generators)
        diff = {k: v for k, v in (differential or {}).items() if not v.is_zero()}
        self.differential = diff
        if validate:
            self._validate()

    def _validate(self) -> None:
        n = len(self.generators)
        for (h, g), elem in self.differential.items():
            if not (0 <= g < n and 0 <= h < n):
                raise ValueError(f"differential entry ({h},{g}) out of range")
            src, tgt = self.generators[g], self.generators[h]
            if not self.alg.element_fits(elem, src.vertex, tgt.vertex):
                raise ValueError(f"entry ({h},{g}) does not run {src.vertex}->{tgt.vertex}")
            want = tgt.shift - src.shift + 1
            if elem.homogeneous_degree() != want:
                raise ValueError(f"entry ({h},{g}) must be homogeneous of degree {want}")
        square = _compose(self.differential, self.differential)
        if square:
            raise ValueError(f"differential does not square to zero: {square}")

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def shift(self, n: int) -> "TwistedComplex":
        if n == 0:
            return self
        gens = [Generator(v, s + n) for v, s in self.generators]
        sign = Fraction(1 if n % 2 == 0 else -1)
        diff = {k: v.scale(sign) for k, v in self.differential.items()}
        return TwistedComplex(self.alg, gens, diff, validate=False)

    def k_class(self) -> Root:
        coords = [0] * self.alg.quiver.vertex_count
        for v, s in self.generators:
            coords[v] += 1 if s % 2 == 0 else -1
        return tuple(coords)

    def shift_range(self) -> tuple[int, int]:
        if not self.generators:
            return (0, 0)
        shifts = [s for _, s in self.generators]
        return (min(shifts), max(shifts))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TwistedComplex)
            and self.generators == other.generators
            and self.differential == other.differential
        )

    def __repr__(self) -> str:
        gens = ", ".join(f"P{v}[{s}]" if s else f"P{v}" for v, s in self.generators)
        return f"TwistedComplex({gens or '0'}; {len(self.differential)} entries)"

    def to_json_dict(self) -> dict:
        """Deterministic JSON shape; vertices are 1-indexed externally."""
        diff = []
        for (h, g) in sorted(self.differential):
            elem = self.differential[(h, g)]
            terms = [
                [b.kind, b.source + 1, b.target + 1, c.numerator, c.denominator]
                for b, c in sorted(
                    elem.terms.items(), key=lambda t: (t[0].kind, t[0].source, t[0].target)
                )
            ]
            diff.append([h, g, terms])
        return {
            "generators": [[v + 1, s] for v, s in self.generators],
            "differential": diff,
        }


def zero_object(alg: ZigzagAlgebra) -> TwistedComplex:
    return TwistedComplex(alg, [], {}, validate=False)


def simple_object(alg: ZigzagAlgebra, v: int, shift: int = 0) -> TwistedComplex:
    if not 0 <= v < alg.quiver.vertex_count:
        raise ValueError(f"vertex {v} out of range")
    return TwistedComplex(alg, [Generator(v, shift)], {}, validate=False)


def direct_sum(*objects: TwistedComplex) -> TwistedComplex:
    if not objects:
        raise ValueError("direct_sum needs at least one summand")
    alg = objects[0].alg
    gens: list[Generator] = []
    diff: Entries = {}
    offset = 0
    for obj in objects:
        gens.extend(obj.generators)
        for (h, g), elem in obj.differential.items():
            diff[(h + offset, g + offset)] = elem
        offset += len(obj.generators)
    return TwistedComplex(alg, gens, diff, validate=False)


class Morphism:
    """Degree-d matrix of algebra elements between two complexes."""

    __slots__ = ("source", "target", "degree", "entries")

    def __init__(
        self,
        source: TwistedComplex,
        target: TwistedComplex,
        degree: int,
        entries: Entries,
        validate: bool = True,
    ):
        self.source = source
        self.target = target
        self.degree = degree
        self.entries = {k: v for k, v in entries.items() if not v.is_zero()}
        if validate:
            self._validate()

    def _validate(self) -> None:
        for (h, g), elem in self.entries.items():
            src = self.source.generators[g]
            tgt = self.target.generators[h]
            if not self.source.alg.element_fits(elem, src.vertex, tgt.vertex):
                raise ValueError(f"morphism entry ({h},{g}) has wrong endpoints")
            want = tgt.shift - src.shift + self.degree
            if elem.homogeneous_degree() != want:
                raise ValueError(f"morphism entry ({h},{g}) must have degree {want}")

    def is_zero(self) -> bool:
        return not self.entries

    def differential(self) -> "Morphism":
        """D(f) = d_Y o f - (-1)^{|f|} f o d_X."""
        left = _compose(self.entries, self.target.differential)
        right = _compose(self.source.differential, self.entries)
        sign = Fraction(-1 if self.degree % 2 == 0 else 1)
        return Morphism(
            self.source, self.target, self.degree + 1,
            _entries_combine(left, right, sign), validate=False,
        )

    def is_closed(self) -> bool:
        return self.differential().is_zero()


def identity_morphism(x: TwistedComplex) -> Morphism:
    entries = {(i, i): x.alg.unit(g.vertex) for i, g in enumerate(x.generators)}
    return Morphism(x, x, 0, entries, validate=False)


def morphism_sum(morphisms: list[Morphism], coeffs: list[Fraction]) -> Morphism:
    first = morphisms[0]
    entries: Entries = {}
    for f, c in zip(morphisms, coeffs):
        entries = _entries_combine(entries, f.entries, Fraction(c))
    return Morphism(first.source, first.target, first.degree, entries, validate=False)


def cone(f: Morphism) -> TwistedComplex:
    """Cone of a closed degree-0 morphism; the triangle is X -> Y -> cone -> X[1]."""
    if f.degree != 0:
        raise ValueError("cone needs a degree-0 morphism")
    if not f.is_closed():
        raise ValueError("cone needs a closed morphism")
    x, y = f.source, f.target
    n_y = len(y.generators)
    gens = list(y.generators) + [Generator(v, s + 1) for v, s in x.generators]
    diff: Entries = dict(y.differential)
    for (h, g), elem in x.differential.items():
        diff[(h + n_y, g + n_y)] = -elem
    for (h, g), elem in f.entries.items():
        diff[(h, g + n_y)] = elem
    return TwistedComplex(x.alg, gens, diff)


def minimize(x: TwistedComplex) -> TwistedComplex:
    """Homotopy-equivalent reduced form: no invertible degree-0 entries remain.

    Eliminates the first invertible entry in row-major order each pass, so
    the output is deterministic.
    """
    gens = list(x.generators)
    diff = dict(x.differential)
    while True:
        pivot = None
        for (h, g) in sorted(diff):
            elem = diff[(h, g)]
            terms = elem.terms
            if len(terms) == 1:
                b, c = next(iter(terms.items()))
                if b.kind == "e" and c != 0:
                    pivot = (h, g, c)
                    break
        if pivot is None:
            break
        h, g, c = pivot
        inv = Fraction(1) / c
        into_h = {src: elem for (tgt, src), elem in diff.items() if tgt == h and src != g}
        from_g = {tgt: elem for (tgt, src), elem in diff.items() if src == g and tgt != h}
        keep = [i for i in range(len(gens)) if i not in (g, h)]
        remap = {old: new for new, old in enumerate(keep)}
        new_diff: Entries = {}
        for (tgt, src), elem in diff.items():
            if tgt in (g, h) or src in (g, h):
                continue
            new_diff[(remap[tgt], remap[src])] = elem
        for src, elem_xh in into_h.items():
            if src in (g, h):
                continue
            for tgt, elem_gy in from_g.items():
                if tgt in (g, h):
                    continue
                corr = (elem_xh.scale(inv)) * elem_gy
                if corr.is_zero():
                    continue
                key = (remap[tgt], remap[src])
                cur = new_diff.get(key)
                new_diff[key] = cur - corr if cur is not None else -corr
        diff = {k: v for k, v in new_diff.items() if not v.is_zero()}
        gens = [gens[i] for i in keep]
    return TwistedComplex(x.alg, gens, diff)


class HomComplex:
    """The Hom complex of two twisted complexes, with exact cohomology."""

    def __init__(self, source: TwistedComplex, target: TwistedComplex):
        self.source = source
        self.target = target
        self.basis: dict[int, list[tuple[int, int, BasisElement]]] = {}
        paths = source.alg.paths
        for g, (vg, sg) in enumerate(source.generators):
            for h, (vh, sh) in enumerate(target.generators):
                for b, degree in paths[(vg, vh)]:
                    self.basis.setdefault(degree + sg - sh, []).append((g, h, b))
        self._matrices: dict[int, list[linalg.Vector]] = {}

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def dim_at(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def matrix(self, d: int) -> list[linalg.Vector]:
        """Sparse columns of D: Hom^d -> Hom^{d+1}, one per Hom^d basis triple,
        indexed by the Hom^{d+1} triples.

        Between two generators there is at most one basis path of each
        degree, so a Hom^{d+1} triple is fixed by its generator pair, and a
        product of basis paths has coefficient 1: each column entry is the
        coefficient of a differential term whose product with the column's
        path is nonzero.
        """
        if d in self._matrices:
            return self._matrices[d]
        dom = self.basis.get(d, [])
        cod = self.basis.get(d + 1, [])
        cols: list[linalg.Vector] = []
        if dom and cod:
            negate = d % 2 == 0
            rows = {(g, h): pos for pos, (g, h, _) in enumerate(cod)}
            y_by_source: dict[int, list[tuple[int, AlgebraElement]]] = {}
            for (h2, h1), elem in self.target.differential.items():
                y_by_source.setdefault(h1, []).append((h2, elem))
            x_by_target: dict[int, list[tuple[int, AlgebraElement]]] = {}
            for (g1, g2), elem in self.source.differential.items():
                x_by_target.setdefault(g1, []).append((g2, elem))
            for g, h, b in dom:
                col: linalg.Vector = {}
                for h2, elem in y_by_source.get(h, ()):
                    for bt, coeff in elem.terms.items():
                        if basis_product(b, bt) is not None:
                            row = rows[(g, h2)]
                            col[row] = col[row] + coeff if row in col else coeff
                for g2, elem in x_by_target.get(g, ()):
                    for bt, coeff in elem.terms.items():
                        if basis_product(bt, b) is not None:
                            row = rows[(g2, h)]
                            coeff = -coeff if negate else coeff
                            col[row] = col[row] + coeff if row in col else coeff
                cols.append({row: c for row, c in col.items() if c})
        else:
            cols = [{} for _ in dom]
        self._matrices[d] = cols
        return cols

    def cohomology_dim(self, d: int) -> int:
        n = self.dim_at(d)
        if n == 0:
            return 0
        return n - linalg.rank(self.matrix(d)) - linalg.rank(self.matrix(d - 1))

    def dims(self) -> dict[int, int]:
        """Nonzero cohomology dimensions by degree, ranking each differential once."""
        ranks = {d: linalg.rank(self.matrix(d)) for d in self.degrees() if d + 1 in self.basis}
        dims = {d: self.dim_at(d) - ranks.get(d, 0) - ranks.get(d - 1, 0) for d in self.degrees()}
        return {d: dim for d, dim in dims.items() if dim != 0}

    def _vector_to_morphism(self, d: int, vec: linalg.Vector) -> Morphism:
        basis = self.basis[d]
        entries: Entries = {}
        for pos, coeff in sorted(vec.items()):
            g, h, b = basis[pos]
            add = AlgebraElement.of(b, coeff)
            key = (h, g)
            entries[key] = entries[key] + add if key in entries else add
        return Morphism(self.source, self.target, d, entries, validate=False)

    def cocycle_reps(self, d: int) -> list[Morphism]:
        """Closed degree-d morphisms representing a basis of H^d."""
        n = self.dim_at(d)
        if n == 0:
            return []
        kernel = linalg.nullspace(self.matrix(d), n)
        reps = linalg.complement_reps(kernel, self.matrix(d - 1), n)
        return [self._vector_to_morphism(d, vec) for vec in reps]

    def all_cohomology_reps(self) -> list[tuple[int, Morphism]]:
        out = []
        for d in self.degrees():
            for rep in self.cocycle_reps(d):
                out.append((d, rep))
        return out


def hom_dims(x: TwistedComplex, y: TwistedComplex) -> dict[int, int]:
    """Exact cohomology dimensions of the Hom complex, by degree."""
    return HomComplex(x, y).dims()


def hom0_is_nonzero(x: TwistedComplex, y: TwistedComplex, shift: int = 0) -> bool:
    """Whether H^0 Hom(x, y[shift]) != 0, by the exact dimension.

    This is H^shift Hom(x, y): the two complexes have the same basis, and
    since shifting y by [shift] multiplies its differential by
    (-1)^shift, their differentials differ by that global sign and have
    equal ranks.  So no shifted copy of y is built.
    """
    return HomComplex(x, y).cohomology_dim(shift) > 0


def is_spherical(x: TwistedComplex) -> bool:
    """True when Hom(x, x) has one dimension in degree 0 and one in degree 2.

    The exact dimensions are computed on the minimal model of x, which is
    homotopy equivalent to x and has the smaller Hom complex.
    """
    reduced = minimize(x)
    return HomComplex(reduced, reduced).dims() == {0: 1, 2: 1}


def _iso_candidates(reps: list[Morphism]) -> Iterable[Morphism]:
    yield from reps
    m = len(reps)
    if m <= 1:
        return
    if m <= 3:
        for coeffs in itertools.product(range(-2, 3), repeat=m):
            if sum(abs(c) for c in coeffs) == 0 or coeffs.count(0) == m - 1:
                continue
            yield morphism_sum(reps, [Fraction(c) for c in coeffs])
    else:
        for i in range(m):
            for j in range(i + 1, m):
                yield morphism_sum([reps[i], reps[j]], [Fraction(1), Fraction(1)])
        yield morphism_sum(reps, [Fraction(1)] * m)


def find_isomorphism(
    x: TwistedComplex, y: TwistedComplex
) -> tuple[Morphism | None, int]:
    """Search for a closed degree-0 morphism with acyclic cone.

    Sound always; complete whenever an isomorphism lies in the searched set,
    in particular whenever dim H^0 Hom(x, y) = 1.  Returns the witness and
    the number of candidates tried.
    """
    x = minimize(x)
    y = minimize(y)
    if x.is_zero and y.is_zero:
        return Morphism(x, y, 0, {}, validate=False), 0
    if x.is_zero or y.is_zero:
        return None, 0
    if x.k_class() != y.k_class():
        return None, 0
    if x == y:
        return identity_morphism(x), 1
    reps = HomComplex(x, y).cocycle_reps(0)
    searched = 0
    for cand in _iso_candidates(reps):
        searched += 1
        if minimize(cone(cand)).is_zero:
            return cand, searched
    return None, searched


def is_isomorphic(x: TwistedComplex, y: TwistedComplex) -> bool:
    return find_isomorphism(x, y)[0] is not None


def find_shift_isomorphism(x: TwistedComplex, y: TwistedComplex) -> int | None:
    """Shift k with x isomorphic to y[k], or None."""
    x = minimize(x)
    y = minimize(y)
    if x.is_zero and y.is_zero:
        return 0
    if x.is_zero or y.is_zero:
        return None
    lo_x, hi_x = x.shift_range()
    lo_y, hi_y = y.shift_range()
    kx = x.k_class()
    for k in range(lo_x - hi_y - 2, hi_x - lo_y + 3):
        shifted = y.shift(k)
        if shifted.k_class() != kx:
            continue
        if is_isomorphic(x, shifted):
            return k
    return None
