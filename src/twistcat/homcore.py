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
cohomology dimension and cocycle representative comes from the exact
sparse elimination in linalg.  Integral entries enter those columns
as ints, so the Hom tests on ±1 data eliminate without building a Fraction.
A Hom complex reads each end through a `_Reader`, which holds the complex,
its differential indexed by source and by target generator, the reach of
each vertex into its generators and the coreach of its generators into
each vertex, each built on first use.  A plain complex gets a fresh reader
per Hom complex; a probe walk shares one reader of its target among its
Hom tests and drops it when the walk ends, so no index is ever kept on a
complex.  Every Hom complex lays out every degree.  A probe walk tests
one layer of its target against records at shift 0, so a Hom test
(`hom0_is_nonzero`) of H^k has basis degrees k..k+2 only.  A cohomology
dimension ranks only the differentials with both ends nonzero, so a Hom
test with Hom^{k-1} empty ranks D_k alone.

Inputs are checked once, at the boundary: the public constructors
`TwistedComplex(...)` and `Morphism(...)` validate every generator and entry
and store each entry as a Fraction.  The engine builds its own values with
`_trusted`, which stores the data as given, and no value changes after it is
made.  An entry is an int or a Fraction, and equal values compare equal
either way.  The reps `cocycle_reps` returns hold Fractions.  Every cone,
`cone(f)` and the twists' alike, is laid out by `_cone`, which keeps each
entry's type; the twists hand it the echelon's kernel vectors as they are
(`HomComplex.rep_maps`), so a twisted object keeps its integral entries as
ints, and `minimize` and later Hom tests on it run in ints.
`find_isomorphism` lays out no cone: with one H^0 rep it decides by the
rank of the rep's degree-0 block, since minimal complexes are homotopy
equivalent only when they are isomorphic.

Objects over algebras of different quivers never meet: `==` is False
between them, and maps, sums, Hom complexes and the isomorphism tests raise
ValueError.  Two algebras of one quiver are interchangeable.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from . import linalg
from .errors import HypothesisNotMet
from .rootlat import Root
from .zigzag import ZigzagAlgebra

# (target, source) -> entry; the public constructors store every entry as a Fraction,
# and the twists keep integral entries as ints
Entries = dict[tuple[int, int], int | Fraction]


class Generator(NamedTuple):
    vertex: int
    shift: int


def _fits(alg: ZigzagAlgebra, src: Generator, tgt: Generator, degree: int) -> bool:
    """Whether the entry from src to tgt of a degree-`degree` map has a path."""
    return alg.has_path(src.vertex, tgt.vertex, tgt.shift - src.shift + degree)


def _validated(entries: Entries, x: TwistedComplex, y: TwistedComplex, degree: int) -> Entries:
    """The nonzero entries of a degree-`degree` map from x to y, as Fractions.

    Every key must be a pair of ints in range and every entry an int or a
    Fraction, and a nonzero entry needs a path.
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
        if not (0 <= g < len(x.generators) and 0 <= h < len(y.generators)):
            raise ValueError(f"entry {(h, g)} out of range")
        if not c:
            continue
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
    """Twisted complex that never changes after it is made.

    The constructor is the public boundary: it validates the generators,
    every entry and d² = 0, and stores the entries as Fractions.  The
    engine's own layouts (`shift`, `_cone` for every cone and twist,
    `minimize`, `direct_sum`, the simple and zero objects) are correct by
    construction and skip the checks through `_trusted`.
    """

    __slots__ = ("alg", "generators", "differential")

    def __init__(
        self,
        alg: ZigzagAlgebra,
        generators: Iterable[Generator],
        differential: Entries | None = None,
    ):
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
        self.alg = alg
        self.generators = tuple(Generator(v, s) for v, s in generators)
        self.differential = _validated({} if differential is None else differential, self, self, 1)
        square = _compose(self.differential, self.differential, self, self, 2)
        if square:
            raise ValueError(f"differential does not square to zero: {square}")

    @classmethod
    def _trusted(
        cls, alg: ZigzagAlgebra, generators: tuple[Generator, ...], differential: Entries
    ) -> "TwistedComplex":
        """The complex with exactly these generators and entries, stored unchecked.

        For callers that vouch for the data: a tuple of `Generator`s, a
        square-zero differential with no zero entry, and a dict that no
        one changes afterwards.  No object changes after it is made, so a
        caller may hand over the dict of another object.
        """
        obj = object.__new__(cls)
        obj.alg, obj.generators, obj.differential = alg, generators, differential
        return obj

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def shift(self, n: int) -> "TwistedComplex":
        if type(n) is not int:
            raise ValueError(f"shift {n!r} must be an int")
        if n == 0:
            return self
        gens = tuple(Generator(v, s + n) for v, s in self.generators)
        diff = self.differential
        if n % 2:
            diff = {k: -c for k, c in diff.items()}
        return TwistedComplex._trusted(self.alg, gens, diff)

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
            and (self.alg is other.alg or self.alg.quiver == other.alg.quiver)
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
    return TwistedComplex._trusted(alg, (), {})


def simple_object(alg: ZigzagAlgebra, v: int, shift: int = 0) -> TwistedComplex:
    if type(v) is not int or not 0 <= v < alg.quiver.vertex_count or type(shift) is not int:
        raise ValueError(f"simple P_{v!r}[{shift!r}] needs an int vertex in range and an int shift")
    return TwistedComplex._trusted(alg, (Generator(v, shift),), {})


def _same_quiver(a: ZigzagAlgebra, b: ZigzagAlgebra) -> None:
    """Reject objects over algebras of different quivers; one `is` on a shared algebra."""
    if a is not b and a.quiver != b.quiver:
        raise ValueError("the objects live over algebras of different quivers")


def direct_sum(*objects: TwistedComplex) -> TwistedComplex:
    if not objects:
        raise ValueError("direct_sum needs at least one summand")
    alg = objects[0].alg
    gens: list[Generator] = []
    diff: Entries = {}
    offset = 0
    for obj in objects:
        _same_quiver(alg, obj.alg)
        gens.extend(obj.generators)
        for (h, g), c in obj.differential.items():
            diff[(h + offset, g + offset)] = c
        offset += len(obj.generators)
    return TwistedComplex._trusted(alg, tuple(gens), diff)


class Morphism:
    """Degree-d matrix of rational entries on implied paths between two complexes.

    Like `TwistedComplex`, the constructor validates and `_trusted` stores
    the engine's own maps unchecked.
    """

    __slots__ = ("source", "target", "degree", "entries")

    def __init__(self, source: TwistedComplex, target: TwistedComplex, degree: int, entries: Entries):
        if type(degree) is not int:
            raise ValueError(f"degree {degree!r} must be an int")
        _same_quiver(source.alg, target.alg)
        self.source = source
        self.target = target
        self.degree = degree
        self.entries = _validated(entries, source, target, degree)

    @classmethod
    def _trusted(
        cls, source: TwistedComplex, target: TwistedComplex, degree: int, entries: Entries
    ) -> "Morphism":
        """The map with exactly these entries, stored unchecked: the caller
        vouches that every entry has a path and none is zero."""
        obj = object.__new__(cls)
        obj.source, obj.target, obj.degree, obj.entries = source, target, degree, entries
        return obj

    def is_zero(self) -> bool:
        return not self.entries

    def differential(self) -> "Morphism":
        """D(f) = d_Y o f - (-1)^{|f|} f o d_X."""
        x, y, degree = self.source, self.target, self.degree + 1
        out = _compose(self.entries, y.differential, x, y, degree)
        for key, c in _compose(x.differential, self.entries, x, y, degree).items():
            c = -c if self.degree % 2 == 0 else c
            out[key] = out[key] + c if key in out else c
        return Morphism._trusted(x, y, degree, {k: c for k, c in out.items() if c})

    def is_closed(self) -> bool:
        return self.differential().is_zero()


def identity_morphism(x: TwistedComplex) -> Morphism:
    entries = {(i, i): Fraction(1) for i in range(len(x.generators))}
    return Morphism._trusted(x, x, 0, entries)


def cone(f: Morphism) -> TwistedComplex:
    """Cone of a closed degree-0 morphism; the triangle is X -> Y -> cone -> X[1].

    After the checks, `_cone` lays it out as its one map, the entries filed
    by position in their key order."""
    if f.degree != 0:
        raise ValueError("cone needs a degree-0 morphism")
    if not f.is_closed():
        raise ValueError("cone needs a closed morphism")
    pairs = [(g, h) for h, g in f.entries]
    return _cone(f.source, f.target, [(0, pairs, dict(enumerate(f.entries.values())))], 1)


# (d, pairs, vector): the degree-d map whose entry (h, g) is vector[pos] for
# the (g, h) at position pos of the pairs, as `HomComplex.basis[d]` files them
ConeMap = tuple[int, Sequence[tuple[int, int]], linalg.Vector]


def _cone(
    x: TwistedComplex, y: TwistedComplex, maps: Sequence[ConeMap], exponent: int
) -> TwistedComplex:
    """The cone of the maps, laid out in one pass with no check.

    Exponent 1 reads each degree-d map as a degree-0 map from x[-d] to y,
    and lays out the cone of their sum f from the direct sum of the x[-d]
    to y: y first, then the copies x[1 - d] in the maps' order, with
    differential blocks d_Y, f and minus each copy's own.  Exponent -1
    reads each map, from y to x, as a degree-0 map from y to x[d], and lays
    out the cone of f from y to the direct sum of the x[d], shifted by
    [-1]: the copies x[d - 1] first and then y.  Either way each copy's
    differential is -(-1)^d d_X, y keeps its own, and the maps' entries
    come last, in the maps' order and by position, signed -1 for exponent
    -1.  `cone(f)` is the one degree-0 map of exponent 1.

    No entry joins two copies of x, so D(f) is the cone's only square
    block, and the caller vouches that each map is closed: `cone` checks
    it first.  A twist's maps are the kernel vectors of D_d that
    `HomComplex.rep_vectors` returns, so D(rep) = 0 exactly, and read as a
    degree-0 map from x[-d] to y, or from y to x[d], each has the
    differential D(rep) or (-1)^d D(rep).  Entries keep their type, so
    integral data stays in ints through the cone, `minimize` and every
    later Hom test.
    """
    n_x = len(x.generators)
    at_y = n_x * len(maps)  # y's place for exponent -1
    gens: list[Generator] = list(y.generators) if exponent == 1 else []
    diff: Entries = dict(y.differential) if exponent == 1 else {}
    first = len(gens)  # the first copy of x
    for i, (d, _, _) in enumerate(maps):
        offset, shift = first + i * n_x, exponent * (1 - d)
        gens.extend(Generator(v, s + shift) for v, s in x.generators)
        for (h, g), c in x.differential.items():
            diff[(h + offset, g + offset)] = c if d % 2 else -c
    if exponent == -1:
        gens.extend(y.generators)
        for (h, g), c in y.differential.items():
            diff[(h + at_y, g + at_y)] = c
    for i, (_, pairs, vec) in enumerate(maps):
        offset = first + i * n_x
        for pos in sorted(vec):
            g, h = pairs[pos]
            if exponent == 1:
                diff[(h, g + offset)] = vec[pos]
            else:
                diff[(h + offset, g + at_y)] = -vec[pos]
    return TwistedComplex._trusted(x.alg, tuple(gens), diff)


def minimize(x: TwistedComplex) -> TwistedComplex:
    """Homotopy-equivalent reduced form: no invertible degree-0 entries remain.

    An entry of degree 0 is a multiple of an idempotent, hence invertible.
    Each step cancels the first degree-0 entry (h, g) in row-major order,
    removing its two generators and adding -a·b/c to the entry from src to
    tgt for every a = d(src -> h) and b = d(g -> tgt), where c is the pivot
    entry.  This is the Gaussian elimination lemma, which keeps d² = 0, so
    the result is not validated again (Bar-Natan, "Fast Khovanov homology
    computations", arXiv:math/0606318).

    All steps run in one pass.  Entries stay keyed by the original generator
    indices, each generator keeps its in- and out-neighbours, and a step
    touches only the entries at its two generators and their neighbours.
    Pivots are popped from a heap of the degree-0 keys in the original
    (h, g) order.  Dropping generators renumbers the rest monotonically,
    and a monotone renumbering keeps the row-major order of keys, so the
    smallest live key is the first degree-0 entry of the renumbered
    complex.  The pivot sequence, and with it the generators and entries,
    are therefore those of cancelling the first such entry pass after pass.
    The entry dict keeps the order such passes leave (an updated entry keeps
    its place, a new one goes last), so even the output's key order agrees.
    Each division is an exact quotient (`linalg.exact_quotient`), so int
    entries stay exact.  An object with no degree-0 entry is returned as is.
    """
    shifts = [s for _, s in x.generators]
    heap = [(h, g) for h, g in x.differential if shifts[h] == shifts[g] - 1]
    if not heap:
        return x
    diff = dict(x.differential)
    heapq.heapify(heap)
    vertices = [v for v, _ in x.generators]
    paths = x.alg.paths
    ins: list[dict[int, None]] = [{} for _ in shifts]  # h -> every g with an entry (h, g)
    outs: list[dict[int, None]] = [{} for _ in shifts]  # g -> every h with an entry (h, g)
    for h, g in diff:
        ins[h][g] = None
        outs[g][h] = None
    alive = [True] * len(shifts)
    while heap:
        pivot = heapq.heappop(heap)
        c = diff.get(pivot)
        if c is None:  # cancelled, or a generator of it already removed
            continue
        h, g = pivot
        into_h = [
            (src, linalg.exact_quotient(diff[(h, src)], c)) for src in ins[h] if src not in pivot
        ]
        from_g = [(tgt, diff[(tgt, g)]) for tgt in outs[g] if tgt not in pivot]
        for i in pivot:
            for src in ins[i]:
                del diff[(i, src)]
                del outs[src][i]
            for tgt in outs[i]:
                del diff[(tgt, i)]
                del ins[tgt][i]
            ins[i] = {}
            outs[i] = {}
            alive[i] = False
        for src, a in into_h:
            out_src = outs[src]
            for tgt, b in from_g:
                # the entry from src to tgt has degree 1: keep it only where a path fits
                if shifts[tgt] - shifts[src] + 1 not in paths[(vertices[src], vertices[tgt])]:
                    continue
                key = (tgt, src)
                e = diff.get(key, 0) - a * b
                if not e:
                    del diff[key]
                    del ins[tgt][src]
                    del out_src[tgt]
                    continue
                if key not in diff:
                    ins[tgt][src] = None
                    out_src[tgt] = None
                    if shifts[tgt] == shifts[src] - 1:
                        heapq.heappush(heap, key)
                diff[key] = e
    keep = [i for i, live in enumerate(alive) if live]
    remap = {old: new for new, old in enumerate(keep)}
    gens = tuple(x.generators[i] for i in keep)
    return TwistedComplex._trusted(
        x.alg, gens, {(remap[t], remap[s]): e for (t, s), e in diff.items()}
    )


# generator -> (the generator at the entry's other end, coefficient) for each entry
_Index = dict[int, list[tuple[int, int | Fraction]]]


def _index(differential: Entries, by_source: bool) -> _Index:
    """A differential's entries keyed by source generator, each listed as
    (target, c), or keyed by target, each listed as (source, c); unsigned,
    each integral coefficient as an int."""
    out: _Index = {}
    for (h, g), c in differential.items():
        c = c.numerator if c.denominator == 1 else c
        if by_source:
            out.setdefault(g, []).append((h, c))
        else:
            out.setdefault(h, []).append((g, c))
    return out


class _Reader:
    """A complex with the indexes the Hom complexes that read it share.

    It holds the complex, its differential indexed by source generator and
    by target generator (see `_index`), each built on first use, and two
    per-vertex lists, each filled one vertex at a time on first use: the
    reach from a vertex into the complex's generators (a Hom complex with
    this complex as its target files its basis from it), and the coreach,
    the generators with a path into a vertex (a Hom complex with this
    reader as its source and a plain target files its basis from it).  A
    Hom complex given a plain complex makes a reader of its own, so every
    index and list is built at most once per Hom complex.  A probe walk
    makes one reader of its target y and hands it to every Hom test of the
    walk, so y is indexed, and each of its lists built, at most once per
    walk; the walk's records get fresh readers, and no Hom test lists a
    reach or a coreach on one.
    Nothing is kept on the complex, and the reader goes with the walk.
    """

    __slots__ = ("complex", "_by_source", "_by_target", "_reach", "_coreach", "__weakref__")

    def __init__(self, obj: TwistedComplex):
        self.complex = obj
        self._by_source: _Index | None = None
        self._by_target: _Index | None = None
        # vertex -> (h, path degree - shift(h)) for every path into generator h
        self._reach: dict[int, list[tuple[int, int]]] = {}
        # vertex -> (g, path degree + shift(g)) for every path out of generator g
        self._coreach: dict[int, list[tuple[int, int]]] = {}

    def by_source(self) -> _Index:
        if self._by_source is None:
            self._by_source = _index(self.complex.differential, True)
        return self._by_source

    def by_target(self) -> _Index:
        if self._by_target is None:
            self._by_target = _index(self.complex.differential, False)
        return self._by_target

    def reach(self, v: int) -> list[tuple[int, int]]:
        hits = self._reach.get(v)
        if hits is None:
            paths = self.complex.alg.paths
            hits = self._reach[v] = [
                (h, degree - sh)
                for h, (vh, sh) in enumerate(self.complex.generators)
                for degree in paths[(v, vh)]
            ]
        return hits

    def coreach(self, u: int) -> list[tuple[int, int]]:
        hits = self._coreach.get(u)
        if hits is None:
            paths = self.complex.alg.paths
            hits = self._coreach[u] = [
                (g, degree + sg)
                for g, (vg, sg) in enumerate(self.complex.generators)
                for degree in paths[(vg, u)]
            ]
        return hits


class HomComplex:
    """The Hom complex of two twisted complexes, with exact cohomology.

    Either end may be given as a `_Reader`, and the Hom complex reads both
    ends only through their readers (a fresh one for a plain complex):
    its matrices from the target's differential by source and the source's
    by target.  `source` and `target` are the complexes.

    Every degree is laid out.  The pairs are filed from the target's
    reach, g-major, then by h, then by path degree.  The one exception is
    a source given as a reader with a plain target, as in a bottom probe
    walk, where the source is the walk's y and the target a record: the
    pairs are then filed from the source's coreach, h-major, then by g, so
    no list is built on the record.  The order of the pairs within a
    degree permutes the rows and columns of every matrix, which changes no
    rank, so every cohomology dimension is the same either way.
    """

    def __init__(self, source: TwistedComplex | _Reader, target: TwistedComplex | _Reader):
        x = source if type(source) is _Reader else _Reader(source)
        y = target if type(target) is _Reader else _Reader(target)
        _same_quiver(x.complex.alg, y.complex.alg)
        self.source = x.complex
        self.target = y.complex
        self._x, self._y = x, y
        # Hom degree -> the (g, h) pairs with a path of that degree; a pair fixes its path.
        self.basis: dict[int, list[tuple[int, int]]] = {}
        basis = self.basis
        if type(source) is _Reader and type(target) is not _Reader:
            for h, (vh, sh) in enumerate(self.target.generators):
                for g, key in x.coreach(vh):
                    basis.setdefault(key - sh, []).append((g, h))
            return
        for g, (vg, sg) in enumerate(self.source.generators):
            for h, offset in y.reach(vg):
                basis.setdefault(offset + sg, []).append((g, h))

    def _check(self, d: int) -> None:
        """Raise ValueError unless d is an int."""
        if type(d) is not int:
            raise ValueError(f"Hom degree {d!r} must be an int")

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def dim_at(self, d: int) -> int:
        self._check(d)
        return len(self.basis.get(d, ()))

    def matrix(self, d: int) -> list[linalg.Vector]:
        """Sparse columns of D: Hom^d -> Hom^{d+1}, one per Hom^d basis pair,
        indexed by the Hom^{d+1} pairs.

        A differential entry composed with a column's path is nonzero exactly
        when the outer pair is a Hom^{d+1} basis pair (a path of the summed
        degree joins its ends), and its coefficient is the entry's.  No
        entry joins a generator to itself (no degree-1 path does), so each
        row of a column is hit at most once.  An integral coefficient is
        emitted as an int and any other as its Fraction, so `linalg.rank`
        stays in ints on ±1 data.  The columns read d_Y by source and d_X
        by target off the two readers, which build each index on its first
        use and hold the entries unsigned; the sign (-1)^(d+1) of f o d_X
        is applied as each column is written, so every degree reads the
        same indexes.
        """
        self._check(d)
        dom = self.basis.get(d, [])
        cod = self.basis.get(d + 1, [])
        if not (dom and cod):
            return [{} for _ in dom]
        y_by_source = self._y.by_source()
        x_by_target = self._x.by_target()
        rows = {pair: pos for pos, pair in enumerate(cod)}
        odd = d % 2
        cols: list[linalg.Vector] = []
        for g, h in dom:
            col: linalg.Vector = {}
            for h2, c in y_by_source.get(h, ()):
                row = rows.get((g, h2))
                if row is not None:
                    col[row] = c
            for g2, c in x_by_target.get(g, ()):
                row = rows.get((g2, h))
                if row is not None:
                    col[row] = c if odd else -c
            cols.append(col)
        return cols

    def cohomology_dim(self, d: int) -> int:
        """dim H^d = dim Hom^d - rank D_d - rank D_{d-1}, exactly.

        A differential whose domain or codomain is empty has rank 0, so it
        is neither assembled nor ranked: D_d when Hom^{d+1} is empty, and
        D_{d-1} when Hom^{d-1} is.
        """
        self._check(d)
        n = len(self.basis.get(d, ()))
        if n == 0:
            return 0
        if d + 1 in self.basis:
            n -= linalg.rank(self.matrix(d))
        if d - 1 in self.basis:
            n -= linalg.rank(self.matrix(d - 1))
        return n

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
            entries[(h, g)] = c if type(c) is Fraction else Fraction(c)
        return Morphism._trusted(self.source, self.target, d, entries)

    def cocycle_reps(self, d: int) -> list[Morphism]:
        """Closed degree-d morphisms representing a basis of H^d."""
        n = self.dim_at(d)
        if n == 0:
            return []
        kernel = linalg.nullspace(self.matrix(d), n)
        reps = linalg.complement_reps(kernel, self.matrix(d - 1))
        return [self._vector_to_morphism(d, vec) for vec in reps]

    def rep_vectors(self) -> list[tuple[int, linalg.Vector]]:
        """(d, vector) for every degree d in ascending order: the coordinates,
        on the Hom^d basis, of the reps `cocycle_reps(d)` returns, with the
        int-or-Fraction entries of the echelon.  Each differential is
        eliminated once, and each vector lies in the kernel of D_d.

        One carried echelon of D_d gives two things.  Its dependent columns
        reduce to ker D_d, the vectors `nullspace` returns.  Its pivots,
        with the combinations dropped, span im D_d, and seed the carry-free
        complement test of the next degree.  When d-1 is not a degree, the
        previous degree's differential maps into the zero space Hom^{d-1},
        so its echelon has no pivots and the image it seeds is empty, as it
        should be.  When d+1 is not a degree, D_d maps into the zero space
        and `matrix(d)` returns empty columns: the echelon returns the int
        unit vectors as the kernel and has no pivots, so the image is
        empty.  `complement_reps` keeps a kernel vector exactly when it
        lies outside the span of im D_{d-1} and the kernel vectors before
        it.  That is a question of span membership alone, and
        the pivots of D_{d-1} span the same space as its columns, so the test
        keeps the same vectors and the reps equal `cocycle_reps(d)`.

        The count dim H^d = #ker D_d - rank D_{d-1} settles two cases
        without the test, since d² = 0 puts im D_{d-1} inside ker D_d.  At
        rank 0 the image is empty and the test keeps every kernel vector,
        as the kernel basis read off the echelon is independent.  At rank
        = #ker the image is all of ker D_d and the test keeps none.  Only
        a rank strictly between runs `complement_of_span`.
        """
        out = []
        rank = 0  # rank of the previous degree's differential
        image = None  # its echelon, whose pivots span im D_{d-1}
        for d in self.degrees():
            kernel, ech = linalg.kernel_and_image(self.matrix(d))
            if rank == 0:
                reps = kernel
            elif rank == len(kernel):
                reps = []
            else:
                reps = linalg.complement_of_span(kernel, image)
            out.extend((d, vec) for vec in reps)
            rank, image = len(ech.pivots), ech
        return out

    def rep_maps(self) -> list[ConeMap]:
        """(d, the Hom^d basis pairs, vector) for each of `rep_vectors`: the
        reps as the maps `_cone` lays out, with nothing built per entry."""
        return [(d, self.basis[d], vec) for d, vec in self.rep_vectors()]


def hom_dims(x: TwistedComplex, y: TwistedComplex) -> dict[int, int]:
    """Exact cohomology dimensions of the Hom complex, by degree."""
    return HomComplex(x, y).dims()


def hom0_is_nonzero(
    x: TwistedComplex | _Reader, y: TwistedComplex | _Reader, shift: int = 0
) -> bool:
    """Whether H^0 Hom(x, y[shift]) != 0, by the exact dimension.

    Either end may be a `_Reader`: a probe walk passes one reader of its
    target to every Hom test, so the target's indexes and per-vertex lists
    are built once per walk, and the other end's indexes once per test.
    Nothing outlives the walk.

    This is H^shift Hom(x, y): the two complexes have the same basis, and
    since shifting y by [shift] multiplies its differential by
    (-1)^shift, their differentials differ by that global sign and have
    equal ranks.  So no shifted copy of y is built.  `cohomology_dim`
    ranks only the differentials with both ends nonzero, so when
    Hom^{shift-1} is empty (as in every Hom test of a probe walk) the
    test ranks D_shift alone.  A shift that is not an int (a bool
    included) raises ValueError.
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
    """Decide x ≅ y by a closed degree-0 map that is an isomorphism.

    Returns the witness (None when x ≇ y) and the number of maps tried,
    0 or 1.  After minimizing, zero objects, classes and equal complexes
    (the identity) are settled directly; otherwise m = dim H^0 Hom(x, y)
    decides, on the minimal models x and y.

    The degree-0 block f_0 of a degree-0 map f is its entries (h, g) on
    idempotent paths, those with x.generators[g] == y.generators[h]; the
    rest, f_+, lie on paths of positive degree.  Paths compose with
    degrees adding, so the degree-0 block of a composite is the product
    of the blocks.  The minimal-complex argument of Khovanov–Seidel
    (arXiv:math/0006056) then decides m = 1 from the rep f alone:
    x ≅ y exactly when x and y have equally many generators and f_0 has
    full rank.

    * If f_0 is invertible, f is an isomorphism.  f = f_0 (1 + f_0^-1 f_+),
      and f_0^-1 f_+ is nilpotent, since path degrees stop at 2.  So f is
      invertible, and the inverse of a closed map is closed.
    * If x ≅ y, f_0 is invertible.  A homotopy equivalence φ: x → y is
      closed of degree 0, so φ = c·f + D(h) with c a scalar.  Every entry
      of a minimal differential has positive degree, so D(h) =
      d_Y h + h d_X has no degree-0 part, and φ_0 = c·f_0.  A homotopy
      inverse ψ has ψφ = 1 + D(k) and φψ = 1 + D(k'), so ψ_0 φ_0 = 1 =
      φ_0 ψ_0: φ_0 is square and invertible, so c ≠ 0, x and y have
      equally many generators and f_0 = φ_0 / c is invertible.

    m = 0: there is no nonzero map, so x ≇ y.  m ≥ 2: the step from ψ
    does not use m, so if x ≅ y, a homotopy equivalence φ has an
    invertible φ_0.  φ_0 joins only equal generators, so then x and y
    have the same sorted generator lists; lists that differ mean x ≇ y,
    and so does m ≠ dim H^0 End(x).  Otherwise it raises
    HypothesisNotMet rather than search the maps for an invertible one.
    A spherical x never raises, since its End^0 has dimension 1.
    """
    _same_quiver(x.alg, y.alg)
    x = minimize(x)
    y = minimize(y)
    if x.is_zero and y.is_zero:
        return Morphism._trusted(x, y, 0, {}), 0
    if x.is_zero or y.is_zero:
        return None, 0
    if x.k_class() != y.k_class():
        return None, 0
    if x == y:
        return identity_morphism(x), 1
    reps = HomComplex(x, y).cocycle_reps(0)
    if not reps:
        return None, 0
    xs, ys = x.generators, y.generators
    if len(reps) == 1:
        rep = reps[0]
        block: dict[int, linalg.Vector] = {}  # g -> the column of f_0 at g
        for (h, g), c in rep.entries.items():
            if xs[g] == ys[h]:
                block.setdefault(g, {})[h] = c
        iso = len(xs) == len(ys) and linalg.rank(list(block.values())) == len(xs)
        return (rep if iso else None), 1
    if sorted(xs) != sorted(ys):
        return None, 0
    if HomComplex(x, x).cohomology_dim(0) == len(reps):
        raise HypothesisNotMet(f"dim H^0 Hom(x, y) = dim H^0 End(x) = {len(reps)} > 1")
    return None, 0


def is_isomorphic(x: TwistedComplex, y: TwistedComplex) -> bool:
    return find_isomorphism(x, y)[0] is not None


def find_shift_isomorphism(x: TwistedComplex, y: TwistedComplex) -> int | None:
    """Shift k with x isomorphic to y[k], or None.

    A homotopy equivalence of minimal complexes has an invertible degree-0
    block (the argument is in `find_isomorphism`), so the minimal models
    of isomorphic objects have the same generators: the only candidate is
    k = min shift of minimize(x) - min shift of minimize(y), and it is
    rejected at once when the sorted generator lists of minimize(x) and
    minimize(y)[k] differ.
    """
    _same_quiver(x.alg, y.alg)
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
