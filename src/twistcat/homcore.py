"""Twisted complexes over a zigzag algebra.

An object is a formal sum of shifted vertex projectives P_v[s] together with
a square-zero degree +1 differential matrix.

Entries are rationals on implied paths: the entry (h, g) of a degree-d map
is a multiple of the path from vertex(g) to vertex(h) of degree
shift(h) - shift(g) + d, unique because two vertices are joined by at most
one basis path of each degree.  A product of basis paths is nonzero exactly
when a path of the summed degree joins its outer ends (`ZigzagAlgebra.has_path`),
and its coefficient is then 1, so composing maps is a scalar matrix product
masked by has_path.

Sign conventions, fixed once:

* composition of entry matrices carries no extra signs;
* the differential on Hom complexes is D(f) = d_Y o f - (-1)^{|f|} f o d_X;
* shifting by [n] multiplies the differential by (-1)^n;
* the cone of a closed degree-0 map f: X -> Y places Y first, then X[1],
  with differential blocks d_Y, f, -d_X.

Hom-complex differentials are assembled as sparse columns, and every rank,
cohomology dimension and cocycle representative comes from the exact sparse
echelon in linalg.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from . import linalg
from .errors import HypothesisNotMet
from .rootlat import Root
from .zigzag import ZigzagAlgebra

Entries = dict[tuple[int, int], Fraction]


class Generator(NamedTuple):
    vertex: int
    shift: int


def _fits(alg: ZigzagAlgebra, src: Generator, tgt: Generator, degree: int) -> bool:
    """Whether the entry from src to tgt of a degree-`degree` map has a path."""
    return alg.has_path(src.vertex, tgt.vertex, tgt.shift - src.shift + degree)


def _validated(entries: Entries, x: TwistedComplex, y: TwistedComplex, degree: int) -> Entries:
    """The nonzero entries of a degree-`degree` map from x to y, as Fractions.

    Every key must be a pair of ints and every entry an int or a Fraction,
    and a nonzero entry needs a path.
    """
    if not isinstance(entries, dict):
        raise ValueError(f"entries {entries!r} must be a dict keyed by (target, source)")
    out: Entries = {}
    for key, c in entries.items():
        if not (type(key) is tuple and len(key) == 2 and all(type(i) is int for i in key)):
            raise ValueError(f"entry key {key!r} must be a pair of ints")
        h, g = key
        if type(c) not in (int, Fraction):
            raise ValueError(f"entry {(h, g)} must be an int or a Fraction, got {c!r}")
        if not c:
            continue
        if not (0 <= g < len(x.generators) and 0 <= h < len(y.generators)):
            raise ValueError(f"entry {(h, g)} out of range")
        src, tgt = x.generators[g], y.generators[h]
        if not _fits(x.alg, src, tgt, degree):
            raise ValueError(
                f"entry {(h, g)}: no path {src.vertex}->{tgt.vertex}"
                f" of degree {tgt.shift - src.shift + degree}"
            )
        out[(h, g)] = c if type(c) is Fraction else Fraction(c)
    return out


def _compose(
    first: Entries, second: Entries, x: TwistedComplex, y: TwistedComplex, degree: int
) -> Entries:
    """Matrix of (second o first), a degree-`degree` map from x to y.

    Every product summed into the entry (h, g) has the entry's degree, so
    the entry survives exactly when a path of that degree joins its ends.
    """
    by_source: dict[int, list[tuple[int, Fraction]]] = {}
    for (h, m), c in second.items():
        by_source.setdefault(m, []).append((h, c))
    out: Entries = {}
    for (m, g), c in first.items():
        for h, c2 in by_source.get(m, ()):
            key = (h, g)
            out[key] = out[key] + c * c2 if key in out else c * c2
    xs, ys = x.generators, y.generators
    return {(h, g): c for (h, g), c in out.items() if c and _fits(x.alg, xs[g], ys[h], degree)}


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
        diff = {} if differential is None else differential
        if validate:
            try:
                generators = tuple(generators)
            except TypeError:
                raise ValueError(f"generators {generators!r} must be iterable") from None
            n = alg.quiver.vertex_count
            for g in generators:
                if not (isinstance(g, (tuple, list)) and len(g) == 2):
                    raise ValueError(f"generator {g!r} must be a (vertex, shift) pair")
                v, s = g
                if type(v) is not int or not 0 <= v < n or type(s) is not int:
                    raise ValueError(f"generator {(v, s)} needs a vertex in 0..{n - 1}"
                                     " and an int shift")
        self.generators = tuple(Generator(v, s) for v, s in generators)
        if validate:
            self.differential = _validated(diff, self, self, 1)
            square = _compose(self.differential, self.differential, self, self, 2)
            if square:
                raise ValueError(f"differential does not square to zero: {square}")
        else:
            self.differential = {k: c for k, c in diff.items() if c}

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def shift(self, n: int) -> "TwistedComplex":
        if n == 0:
            return self
        gens = [Generator(v, s + n) for v, s in self.generators]
        diff = self.differential
        if n % 2:
            diff = {k: -c for k, c in diff.items()}
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
        for (h, g), c in sorted(self.differential.items()):
            src, tgt = self.generators[g], self.generators[h]
            b = self.alg.path(src.vertex, tgt.vertex, tgt.shift - src.shift + 1)
            diff.append([h, g, [[b.kind, b.source + 1, b.target + 1, c.numerator, c.denominator]]])
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
        for (h, g), c in obj.differential.items():
            diff[(h + offset, g + offset)] = c
        offset += len(obj.generators)
    return TwistedComplex(alg, gens, diff, validate=False)


class Morphism:
    """Degree-d matrix of rational entries on implied paths between two complexes."""

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
        if validate:
            if type(degree) is not int:
                raise ValueError(f"degree {degree!r} must be an int")
            self.entries = _validated(entries, source, target, degree)
        else:
            self.entries = {k: c for k, c in entries.items() if c}

    def is_zero(self) -> bool:
        return not self.entries

    def differential(self) -> "Morphism":
        """D(f) = d_Y o f - (-1)^{|f|} f o d_X."""
        x, y, degree = self.source, self.target, self.degree + 1
        out = _compose(self.entries, y.differential, x, y, degree)
        for key, c in _compose(x.differential, self.entries, x, y, degree).items():
            c = -c if self.degree % 2 == 0 else c
            out[key] = out[key] + c if key in out else c
        return Morphism(x, y, degree, out, validate=False)

    def is_closed(self) -> bool:
        return self.differential().is_zero()


def identity_morphism(x: TwistedComplex) -> Morphism:
    entries = {(i, i): Fraction(1) for i in range(len(x.generators))}
    return Morphism(x, x, 0, entries, validate=False)


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
    for (h, g), c in x.differential.items():
        diff[(h + n_y, g + n_y)] = -c
    for (h, g), c in f.entries.items():
        diff[(h, g + n_y)] = c
    # square-zero ends leave D(f) as the cone's only square block, and f is closed
    return TwistedComplex(x.alg, gens, diff, validate=False)


def minimize(x: TwistedComplex) -> TwistedComplex:
    """Homotopy-equivalent reduced form: no invertible degree-0 entries remain.

    An entry of degree 0 is a multiple of an idempotent, hence invertible.
    Eliminates the first one in row-major order each pass, so the output is
    deterministic.  Each pass keeps d² = 0 (the Gaussian elimination lemma),
    so the result is not validated again.
    """
    gens = list(x.generators)
    diff = dict(x.differential)
    while True:
        pivot = next(((h, g) for h, g in sorted(diff) if gens[h].shift == gens[g].shift - 1), None)
        if pivot is None:
            break
        h, g = pivot
        c = diff[pivot]
        into_h = [(src, a / c) for (tgt, src), a in diff.items() if tgt == h and src not in pivot]
        from_g = [(tgt, b) for (tgt, src), b in diff.items() if src == g and tgt not in pivot]
        keep = [i for i in range(len(gens)) if i not in pivot]
        remap = {old: new for new, old in enumerate(keep)}
        new_diff: Entries = {
            (remap[t], remap[s]): e for (t, s), e in diff.items() if t in remap and s in remap
        }
        for src, a in into_h:
            for tgt, b in from_g:
                if _fits(x.alg, gens[src], gens[tgt], 1):
                    key = (remap[tgt], remap[src])
                    new_diff[key] = new_diff[key] - a * b if key in new_diff else -(a * b)
        diff = {k: e for k, e in new_diff.items() if e}
        gens = [gens[i] for i in keep]
    return TwistedComplex(x.alg, gens, diff, validate=False)


class HomComplex:
    """The Hom complex of two twisted complexes, with exact cohomology."""

    def __init__(self, source: TwistedComplex, target: TwistedComplex):
        self.source = source
        self.target = target
        # Hom degree -> the (g, h) pairs with a path of that degree; a pair fixes its path
        self.basis: dict[int, list[tuple[int, int]]] = {}
        paths = source.alg.paths
        for g, (vg, sg) in enumerate(source.generators):
            for h, (vh, sh) in enumerate(target.generators):
                for degree in paths[(vg, vh)]:
                    self.basis.setdefault(degree + sg - sh, []).append((g, h))
        self._matrices: dict[int, list[linalg.Vector]] = {}

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def dim_at(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def matrix(self, d: int) -> list[linalg.Vector]:
        """Sparse columns of D: Hom^d -> Hom^{d+1}, one per Hom^d basis pair,
        indexed by the Hom^{d+1} pairs.

        A differential entry composed with a column's path is nonzero exactly
        when the outer pair is a Hom^{d+1} basis pair (a path of the summed
        degree joins its ends), and its coefficient is the entry's.  No
        entry joins a generator to itself (no degree-1 path does), so each
        row of a column is hit at most once.
        """
        if d in self._matrices:
            return self._matrices[d]
        dom = self.basis.get(d, [])
        cod = self.basis.get(d + 1, [])
        cols: list[linalg.Vector] = []
        if dom and cod:
            rows = {pair: pos for pos, pair in enumerate(cod)}
            y_by_source: dict[int, list[tuple[int, Fraction]]] = {}
            for (h2, h1), c in self.target.differential.items():
                y_by_source.setdefault(h1, []).append((h2, c))
            x_by_target: dict[int, list[tuple[int, Fraction]]] = {}
            for (g1, g2), c in self.source.differential.items():
                x_by_target.setdefault(g1, []).append((g2, -c if d % 2 == 0 else c))
            for g, h in dom:
                col: linalg.Vector = {}
                for h2, c in y_by_source.get(h, ()):
                    row = rows.get((g, h2))
                    if row is not None:
                        col[row] = c
                for g2, c in x_by_target.get(g, ()):
                    row = rows.get((g2, h))
                    if row is not None:
                        col[row] = c
                cols.append(col)
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
        for pos, c in sorted(vec.items()):
            g, h = basis[pos]
            entries[(h, g)] = c
        return Morphism(self.source, self.target, d, entries, validate=False)

    def cocycle_reps(self, d: int) -> list[Morphism]:
        """Closed degree-d morphisms representing a basis of H^d."""
        n = self.dim_at(d)
        if n == 0:
            return []
        kernel = linalg.nullspace(self.matrix(d), n)
        reps = linalg.complement_reps(kernel, self.matrix(d - 1))
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


def find_isomorphism(
    x: TwistedComplex, y: TwistedComplex
) -> tuple[Morphism | None, int]:
    """Decide x ≅ y by a closed degree-0 map with acyclic cone.

    Returns the witness (None when x ≇ y) and the number of maps tried,
    0 or 1.  After minimizing, zero objects, classes and equal complexes
    (the identity) are settled directly; otherwise m = dim H^0 Hom(x, y) decides.
    m = 0: there is no nonzero map, so x ≇ y.  m = 1: every closed
    degree-0 map is c·rep + D(h); homotopic maps have isomorphic cones and
    c ≠ 0 leaves the cone unchanged, so x ≅ y exactly when cone(rep) is
    acyclic.  m ≥ 2: x ≅ y forces m = dim H^0 End(x), so unequal
    dimensions mean x ≇ y; equal ones raise HypothesisNotMet rather than
    search the maps for an invertible one.  A spherical x never raises,
    since its End^0 has dimension 1.
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
    if len(reps) == 1:
        return (reps[0] if minimize(cone(reps[0])).is_zero else None), 1
    if len(reps) > 1 and HomComplex(x, x).cohomology_dim(0) == len(reps):
        raise HypothesisNotMet(f"dim H^0 Hom(x, y) = dim H^0 End(x) = {len(reps)} > 1")
    return None, 0


def is_isomorphic(x: TwistedComplex, y: TwistedComplex) -> bool:
    return find_isomorphism(x, y)[0] is not None


def find_shift_isomorphism(x: TwistedComplex, y: TwistedComplex) -> int | None:
    """Shift k with x isomorphic to y[k], or None.

    The degree-0 part of the zigzag algebra is semisimple and a minimal
    complex has no entries of degree 0, so dividing out the paths of
    positive degree kills its differential and turns a homotopy equivalence
    of minimal complexes into an isomorphism of their sums of generators.
    So the minimal models of isomorphic objects have the same generators:
    the only candidate is k = min shift of minimize(x) - min shift of
    minimize(y), and it is rejected at once when the sorted generator lists
    of minimize(x) and minimize(y)[k] differ.
    """
    x = minimize(x)
    y = minimize(y)
    if x.is_zero and y.is_zero:
        return 0
    if x.is_zero or y.is_zero:
        return None
    k = x.shift_range()[0] - y.shift_range()[0]
    shifted = y.shift(k)
    if sorted(x.generators) != sorted(shifted.generators):
        return None
    return k if is_isomorphic(x, shifted) else None
