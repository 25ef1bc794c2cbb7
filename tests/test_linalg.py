import random
from fractions import Fraction

from twistcat.linalg import complement_reps, nullspace, rank, rank_mod_p


def F(x):
    return Fraction(x)


# -- dense reference: reduced row echelon form over Fraction, rows M[r][c] --


def dense_rref(rows, ncols):
    mat = [row[:] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat, pivots


def dense_rank(rows, ncols):
    return len(dense_rref(rows, ncols)[1])


def dense_nullspace(rows, ncols):
    mat, pivots = dense_rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [F(0)] * ncols
        vec[fc] = F(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(vec)
    return basis


def dense_complement(space, subspace, ncols):
    """Indices of the vectors of `space` that raise the rank of the span so far."""
    span, chosen = list(subspace), []
    for i, vec in enumerate(space):
        if dense_rank(span + [vec], ncols) > dense_rank(span, ncols):
            span.append(vec)
            chosen.append(i)
    return chosen


# -- conversions and random inputs --


def sparse(vec):
    return {i: x for i, x in enumerate(vec) if x != 0}


def columns(rows, ncols):
    return [sparse([row[c] for row in rows]) for c in range(ncols)]


def random_rows(rng, nrows, ncols):
    """Sparse-ish rational matrix with zero rows/columns and repeated rows."""
    density = rng.choice([0.15, 0.4, 0.8])
    rows = [
        [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < density else F(0)
         for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if nrows and ncols:
        rows[rng.randrange(nrows)] = [F(0)] * ncols
        zero_col = rng.randrange(ncols)
        for row in rows:
            row[zero_col] = F(0)
    if nrows >= 2:
        rows[rng.randrange(nrows)] = rows[rng.randrange(nrows)][:]
    return rows


# -- tests --


def test_rank_small():
    assert rank(columns([[F(1), F(2)], [F(2), F(4)]], 2)) == 1
    assert rank(columns([[F(1), F(0)], [F(0), F(1)]], 2)) == 2
    assert rank([]) == 0
    assert rank([{}, {}]) == 0


def test_nullspace_matches_rank():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    cols = columns(rows, 3)
    basis = nullspace(cols, 3)
    assert len(basis) == 3 - rank(cols)
    for vec in basis:
        for row in rows:
            assert sum(row[c] * x for c, x in vec.items()) == 0


def test_nullspace_of_empty_map():
    assert nullspace([{}, {}], 2) == [{0: F(1)}, {1: F(1)}]
    assert nullspace([], 0) == []


def test_sparse_echelon_matches_dense_reference():
    rng = random.Random("sparse-vs-dense")
    for _ in range(400):
        nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
        rows = random_rows(rng, nrows, ncols)
        cols = columns(rows, ncols)
        assert rank(cols) == dense_rank(rows, ncols)
        assert nullspace(cols, ncols) == [sparse(v) for v in dense_nullspace(rows, ncols)]

        space = random_rows(rng, rng.randint(0, 6), nrows)
        subspace = random_rows(rng, rng.randint(0, 4), nrows)
        reps = complement_reps([sparse(v) for v in space], [sparse(v) for v in subspace], nrows)
        assert reps == [sparse(space[i]) for i in dense_complement(space, subspace, nrows)]


def test_rank_mod_p_agrees_on_random_small_matrices():
    rng = random.Random("linalg")
    for _ in range(50):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        mat = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(cols)] for _ in range(rows)]
        assert rank_mod_p(mat) == rank(columns(mat, cols))


def test_complement_reps():
    space = [{0: F(1)}, {1: F(1)}, {0: F(1), 1: F(1)}]
    sub = [{0: F(1), 1: F(1)}]
    reps = complement_reps(space, sub, 2)
    assert reps == [{0: F(1)}]
