"""Exact sparse linear algebra over the rationals, on int and Fraction entries.

A vector is a dict {index: int | Fraction} that holds only its nonzero
entries; a matrix is a list of such vectors, its columns, so column c is
the image of the c-th basis vector.  Every routine runs one pivot loop
(`_insert`): it reduces each column at its lowest nonzero index against the
pivots found so far, and inserting the columns of a matrix in order makes
the pivots those of the reduced row echelon form.

A routine that needs the combination of columns behind each vector carries
it in the column itself: the j-th column gets an extra entry 1 at index
`_CARRY + j`.  `_CARRY` = 2**40 lies above every row index, so a carried
entry is never a pivot, and the loop stops once the lowest index left is a
carried one.  What is left then is the combination of columns that a
dependent column reduces to, and these are exactly the kernel basis of the
reduced row echelon form, one vector per free column.  `complement_reps`
carries, and `rank` inserts its columns as they are.

`kernel_and_image` is the one elimination that picks cohomology reps.  It
writes each carried column with its rows negated, so the lowest key is the
column's greatest row and the pivots are keyed by the greatest rows of an
echelon basis of the image.  That set of rows is the same for every
echelon basis, and it is what the next degree needs: a kernel vector is a
rep unless an image vector ends at its column (`HomComplex.rep_vectors`
gives the proof), so the caller passes the set back in and those columns
are skipped unread.  Row indices are non-negative and lie below `_CARRY`.

Each elimination factor is an exact quotient (`exact_quotient`): a // p
when the entry a and the pivot p are both ints and p divides a, and the
Fraction a / p otherwise.  `/` is never applied to two ints, since it would
return a float.  A step whose pivot divides stays in ints, so `rank` runs
all in ints on the Hom-complex matrices of ±1 data (in the test suite every
pivot vector of a Hom-complex rank holds only ±1).  The carried entries
start at the int 1 and take the same factors, so they too stay in ints on
such data.  Combinations are ints inside the loop and Fractions at the
boundaries: `nullspace` returns Fraction-valued kernel vectors whatever the
columns hold, and `kernel_and_image`, whose caller converts, returns them
as they are.

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
_CARRY = 2**40


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


def _insert(pivots: dict[int, Vector], vec: Vector) -> Vector | None:
    """The pivot loop: reduce vec against `pivots` (lowest index -> pivot
    vector) and file what is left as a new pivot.

    Returns None when vec was independent of the pivots.  Otherwise returns
    what is left of vec once its lowest index is a carried one, at or above
    `_CARRY`: its carried entries, and empty when it had none.  Neither vec
    nor a stored pivot is ever changed: vec is copied before its first
    reduction step, and a vec that needs none is filed as it is.
    """
    reduced = vec
    while reduced and (low := min(reduced)) < _CARRY:
        pivot = pivots.get(low)
        if pivot is None:
            pivots[low] = reduced
            return None
        if reduced is vec:
            reduced = dict(vec)
        _subtract(reduced, exact_quotient(reduced[low], pivot[low]), pivot)
    return reduced


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
        for comb in kernel_and_image(cols, set())[0]
    ]


def kernel_and_image(cols: list[Vector], paired: set[int]) -> tuple[list[Vector], set[int]]:
    """One carried elimination of the map with columns `cols`, skipping the
    columns in `paired` unread.

    Each column is inserted with its rows negated (row i at -i), so the
    pivot loop's lowest key is the column's greatest row and each pivot is
    keyed by minus its greatest row.  Returns the kernel vectors of the
    dependent columns not in `paired`, with the int-or-Fraction entries of
    the carried combinations, and the set of greatest rows of the pivots,
    which is the set of greatest rows of the nonzero vectors of the image.
    With `paired` empty the kernel vectors are the basis `nullspace`
    returns: the basis read off the reduced row echelon form is fixed by
    which columns are pivot columns, and the order of the rows changes
    none of them.  Skipping a column that depends on the columns before
    it changes no pivot and no other kernel vector.
    """
    pivots: dict[int, Vector] = {}
    kernel = []
    for j, col in enumerate(cols):
        if j in paired:
            continue
        vec = {-i: x for i, x in col.items()}
        vec[_CARRY + j] = 1
        left = _insert(pivots, vec)
        if left is not None:
            kernel.append({i - _CARRY: x for i, x in left.items()})
    return kernel, {-low for low in pivots}


def complement_reps(space: list[Vector], subspace: list[Vector]) -> list[Vector]:
    """Vectors from `space`, in order, completing `subspace` to a basis of their joint span."""
    pivots: dict[int, Vector] = {}
    for j, vec in enumerate(subspace, _CARRY):
        _insert(pivots, {**vec, j: 1})
    return [vec for j, vec in enumerate(space, _CARRY + len(subspace))
            if _insert(pivots, {**vec, j: 1}) is None]


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
