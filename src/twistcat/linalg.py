"""Exact sparse linear algebra over the rationals, on int and Fraction entries.

A vector is a dict {index: int | Fraction} that holds only its nonzero
entries; a matrix is a list of such vectors, its columns, so column c is
the image of the c-th basis vector.  Every routine reduces each column at
its lowest nonzero index against the pivots found so far, and inserting the
columns of a matrix in order makes the pivots those of the reduced row
echelon form.  That reduction comes in two forms:

* one carry-free pivot loop (`_insert`), which keeps only the pivot vectors.
  It serves `rank` and `complement_of_span`;
* one carried echelon (`_SparseEchelon`), which also carries the combination
  of inserted columns that produced each vector.  The combinations that
  dependent columns reduce to are exactly the kernel basis of the reduced
  row echelon form, one vector per free column.  It serves
  `kernel_and_image`, which returns both halves of one elimination (the
  kernel basis, and the pivots, which span the image), and `complement_reps`.

Each elimination factor is an exact quotient (`exact_quotient`): a // p
when the entry a and the pivot p are both ints and p divides a, and the
Fraction a / p otherwise.  `/` is never applied to two ints, since it would
return a float.  A step whose pivot divides stays in ints, so `rank` runs
all in ints on the Hom-complex matrices of ±1 data (in the test suite every
pivot vector of a Hom-complex rank holds only ±1).  The carried
combinations start at the int 1 and take the same factors, so they too stay
in ints on such data.  Combinations are ints inside the echelon and
Fractions at the boundaries: `nullspace` returns Fraction-valued kernel
vectors whatever the columns hold, and `kernel_and_image`, whose caller
converts, returns them as they are.

The Hom-complex matrices this serves are very sparse; this is the sparse
Gaussian elimination of Bar-Natan, "Fast Khovanov homology computations"
(arXiv:math/0606318).

The dense mod-p rank at the end of the module is not used by the engine; it
stays because the benchmark tracer (perfbench/tracer.py) wraps it by name.
"""

from __future__ import annotations

from fractions import Fraction

Vector = dict[int, int | Fraction]

FILTER_PRIME = 2_147_483_647


def exact_quotient(a: int | Fraction, p: int | Fraction) -> int | Fraction:
    """a / p, exactly: an int when both are ints and p divides a, else a Fraction."""
    if type(a) is int and type(p) is int:
        return a // p if not a % p else Fraction(a, p)
    return a / p


def _subtract(vec: Vector, coeff: int | Fraction, other: Vector) -> None:
    """vec -= coeff * other, in place, keeping only nonzero entries."""
    for i, x in other.items():
        y = vec.get(i, 0) - coeff * x
        if y:
            vec[i] = y
        else:
            del vec[i]


def _insert(pivots: dict[int, Vector], vec: Vector) -> bool:
    """The carry-free pivot loop: reduce vec against `pivots` (lowest index ->
    pivot vector) and file what is left as a new pivot.

    Returns True when vec was independent of the pivots, False when it
    reduced to zero.  Neither vec nor a stored pivot is ever changed: vec is
    copied before its first reduction step, and a vec that needs none is
    filed as it is.
    """
    reduced = vec
    while reduced:
        low = min(reduced)
        pivot = pivots.get(low)
        if pivot is None:
            pivots[low] = reduced
            return True
        if reduced is vec:
            reduced = dict(vec)
        _subtract(reduced, exact_quotient(reduced[low], pivot[low]), pivot)
    return False


class _SparseEchelon:
    """Pivot vectors keyed by their lowest index, each with the combination of
    inserted vectors it equals: the carried echelon behind `kernel_and_image`
    and `complement_reps`."""

    def __init__(self):
        self.pivots: dict[int, tuple[Vector, Vector]] = {}
        self.inserted = 0

    def insert(self, vec: Vector) -> Vector | None:
        """Add vec to the span.

        Returns None when vec was independent of the vectors inserted before
        it; otherwise the combination of inserted vectors (vec's own
        coefficient 1) that vanishes.
        """
        vec = dict(vec)
        comb = {self.inserted: 1}
        self.inserted += 1
        while vec:
            low = min(vec)
            hit = self.pivots.get(low)
            if hit is None:
                self.pivots[low] = (vec, comb)
                return None
            pivot, pivot_comb = hit
            factor = exact_quotient(vec[low], pivot[low])
            _subtract(vec, factor, pivot)
            _subtract(comb, factor, pivot_comb)
        return comb


def rank(cols: list[Vector]) -> int:
    """Rank of the matrix with columns `cols`."""
    pivots: dict[int, Vector] = {}
    for col in cols:
        _insert(pivots, col)
    return len(pivots)


def nullspace(cols: list[Vector], ncols: int) -> list[Vector]:
    """Basis of the kernel of the map with columns `cols` (ncols of them).

    One vector per free column, in column order: the free column's
    coefficient is 1 and the others sit on earlier pivot columns, which is
    the kernel basis read off the reduced row echelon form.  Entries are
    Fractions whatever the columns hold.
    """
    if len(cols) != ncols:
        raise ValueError(f"expected {ncols} columns, got {len(cols)}")
    return [
        {i: x if type(x) is Fraction else Fraction(x) for i, x in comb.items()}
        for comb in kernel_and_image(cols)[0]
    ]


def kernel_and_image(cols: list[Vector]) -> tuple[list[Vector], _SparseEchelon]:
    """One carried elimination of the map with columns `cols`.

    Returns the kernel basis `nullspace` returns, with the int-or-Fraction
    entries of the carried combinations, and the echelon, whose pivots span
    the image of the map.
    """
    ech = _SparseEchelon()
    return [comb for col in cols if (comb := ech.insert(col)) is not None], ech


def complement_reps(space: list[Vector], subspace: list[Vector]) -> list[Vector]:
    """Vectors from `space`, in order, completing `subspace` to a basis of their joint span."""
    ech = _SparseEchelon()
    for vec in subspace:
        ech.insert(vec)
    return [vec for vec in space if ech.insert(vec) is None]


def complement_of_span(space: list[Vector], span: _SparseEchelon) -> list[Vector]:
    """Vectors from `space`, in order, completing the span of the echelon `span`
    to a basis of their joint span.

    Membership is tested by the carry-free pivot loop, on a copy of the
    pivot table of `span` that shares its vectors, so `span` is not changed.
    """
    pivots = {low: vec for low, (vec, _) in span.pivots.items()}
    return [vec for vec in space if _insert(pivots, vec)]


def rank_mod_p(rows: list[list[Fraction]], p: int = FILTER_PRIME) -> int:
    """Rank of the matrix reduced mod p; raises ZeroDivisionError on a bad prime."""
    if not rows or not rows[0]:
        return 0
    mat = []
    for row in rows:
        red = []
        for x in row:
            num, den = x.numerator % p, x.denominator % p
            if den == 0:
                raise ZeroDivisionError("denominator divisible by the filter prime")
            red.append(num * pow(den, -1, p) % p)
        mat.append(red)
    nrows, ncols = len(mat), len(mat[0])
    rk = 0
    for c in range(ncols):
        pivot_row = None
        for r in range(rk, nrows):
            if mat[r][c]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        mat[rk], mat[pivot_row] = mat[pivot_row], mat[rk]
        inv = pow(mat[rk][c], -1, p)
        for r in range(rk + 1, nrows):
            if mat[r][c]:
                factor = mat[r][c] * inv % p
                row, top = mat[r], mat[rk]
                for j in range(c, ncols):
                    row[j] = (row[j] - factor * top[j]) % p
        rk += 1
        if rk == nrows:
            break
    return rk
