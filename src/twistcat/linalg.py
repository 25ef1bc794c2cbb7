"""Exact sparse linear algebra over Fraction.

A vector is a dict {index: Fraction} that holds only its nonzero entries; a
matrix is a list of such vectors, its columns, so column c is the image of
the c-th basis vector.  Rank, kernel basis and complement are all computed
by one incremental echelon: each inserted column is reduced at its lowest
nonzero index against the pivots found so far, carrying along the
combination of inserted columns that produced it.  Inserting the columns of
a matrix in order makes the pivots those of the reduced row echelon form,
and the combinations that dependent columns reduce to are exactly its kernel
basis, one vector per free column.

The Hom-complex matrices this serves have entries 0 and ±1 and are very
sparse; this is the sparse Gaussian elimination of Bar-Natan, "Fast Khovanov
homology computations" (arXiv:math/0606318).

The dense mod-p rank at the end of the module is not used by the engine; it
stays because the benchmark tracer (perfbench/tracer.py) wraps it by name.
"""

from __future__ import annotations

from fractions import Fraction

Vector = dict[int, Fraction]

FILTER_PRIME = 2_147_483_647


def _subtract(vec: Vector, coeff: Fraction, other: Vector) -> None:
    """vec -= coeff * other, in place, keeping only nonzero entries."""
    for i, x in other.items():
        y = vec.get(i, 0) - coeff * x
        if y:
            vec[i] = y
        else:
            del vec[i]


class _SparseEchelon:
    """Pivot vectors keyed by their lowest index, each with the combination of
    inserted vectors it equals."""

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
        comb = {self.inserted: Fraction(1)}
        self.inserted += 1
        while vec:
            low = min(vec)
            hit = self.pivots.get(low)
            if hit is None:
                inv = Fraction(1) / vec[low]
                self.pivots[low] = (
                    {i: x * inv for i, x in vec.items()},
                    {j: x * inv for j, x in comb.items()},
                )
                return None
            factor = vec[low]
            _subtract(vec, factor, hit[0])
            _subtract(comb, factor, hit[1])
        return comb


def rank(cols: list[Vector]) -> int:
    """Rank of the matrix with columns `cols`."""
    ech = _SparseEchelon()
    for col in cols:
        ech.insert(col)
    return len(ech.pivots)


def nullspace(cols: list[Vector], ncols: int) -> list[Vector]:
    """Basis of the kernel of the map with columns `cols` (ncols of them).

    One vector per free column, in column order: the free column's
    coefficient is 1 and the others sit on earlier pivot columns, which is
    the kernel basis read off the reduced row echelon form.
    """
    if len(cols) != ncols:
        raise ValueError(f"expected {ncols} columns, got {len(cols)}")
    ech = _SparseEchelon()
    return [comb for col in cols if (comb := ech.insert(col)) is not None]


def complement_reps(space: list[Vector], subspace: list[Vector], ncols: int) -> list[Vector]:
    """Vectors from `space`, in order, completing `subspace` to a basis of their joint span.

    `ncols` is the dimension of the ambient space; sparse vectors do not
    need it, and it stays so that the positional signature is unchanged.
    """
    ech = _SparseEchelon()
    for vec in subspace:
        ech.insert(vec)
    return [vec for vec in space if ech.insert(vec) is None]


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
