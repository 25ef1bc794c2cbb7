import random
from fractions import Fraction

from twistcat.linalg import (
    _CARRY,
    _insert,
    _subtract,
    complement_reps,
    exact_quotient,
    kernel_and_image,
    nullspace,
    rank,
    rank_mod_p,
)


def F(x):
    return Fraction(x)


# -- dense reference: reduced row echelon form over Fraction, rows M[r][c] --


def dense_rref(rows, ncols):
    mat = [[Fraction(x) for x in row] for row in rows]
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


def rational_entry(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def int_entry(rng):
    """An int in -5..5, so some pivots do not divide the entries they eliminate."""
    return rng.randint(-5, 5)


def mixed_entry(rng):
    return rational_entry(rng) if rng.random() < 0.3 else int_entry(rng)


def random_rows(rng, nrows, ncols, entry=rational_entry):
    """Sparse-ish matrix with zero rows/columns and repeated rows."""
    density = rng.choice([0.15, 0.4, 0.8])
    rows = [
        [entry(rng) if rng.random() < density else F(0) for _ in range(ncols)]
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
        reps = complement_reps([sparse(v) for v in space], [sparse(v) for v in subspace])
        assert reps == [sparse(space[i]) for i in dense_complement(space, subspace, nrows)]


def test_int_and_mixed_columns_match_dense_reference():
    """Columns of ints in -5..5, alone or mixed with Fractions: the exact
    quotient keeps a step in ints when the pivot divides and falls back to
    Fraction otherwise, and the results equal the Fraction oracle's."""
    rng = random.Random("int-vs-dense")
    fell_back = stayed_int = 0
    for trial in range(400):
        nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
        rows = random_rows(rng, nrows, ncols, mixed_entry if trial % 2 else int_entry)
        cols = columns(rows, ncols)
        assert rank(cols) == dense_rank(rows, ncols)
        kernel = nullspace(cols, ncols)
        assert kernel == [sparse(v) for v in dense_nullspace(rows, ncols)]
        assert all(type(x) is Fraction for vec in kernel for x in vec.values())

        pivots = {}
        for col in cols:
            _insert(pivots, col)
        entries = [x for vec in pivots.values() for x in vec.values()]
        assert all(type(x) in (int, Fraction) for x in entries)
        if any(type(x) is Fraction for x in entries):
            fell_back += 1
        elif entries:
            stayed_int += 1

        space = random_rows(rng, rng.randint(0, 6), nrows, mixed_entry)
        subspace = random_rows(rng, rng.randint(0, 4), nrows, int_entry)
        reps = complement_reps([sparse(v) for v in space], [sparse(v) for v in subspace])
        assert all(type(x) in (int, Fraction) for vec in reps for x in vec.values())
        assert reps == [sparse(space[i]) for i in dense_complement(space, subspace, nrows)]
    assert fell_back and stayed_int


def test_nullspace_of_int_columns_equals_that_of_fraction_columns():
    rng = random.Random("int-kernel")
    for _ in range(200):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = random_rows(rng, nrows, ncols, int_entry)
        ints = nullspace(columns(rows, ncols), ncols)
        fracs = nullspace(columns([[Fraction(x) for x in row] for row in rows], ncols), ncols)
        assert [list(v.items()) for v in ints] == [list(v.items()) for v in fracs]
        assert [[type(x) for x in v.values()] for v in ints] == [
            [type(x) for x in v.values()] for v in fracs
        ]


def test_rank_stays_in_ints_on_incidence_columns():
    """Columns with one +1 and one -1 (a directed graph's incidence matrix) are
    totally unimodular, so every pivot is ±1, divides, and no Fraction is built."""
    rng = random.Random("incidence-rank")
    for _ in range(200):
        nodes = rng.randint(2, 8)
        cols = []
        for _ in range(rng.randint(1, 10)):
            i, j = rng.sample(range(nodes), 2)
            cols.append({i: 1, j: -1})
        pivots = {}
        for col in cols:
            _insert(pivots, col)
        assert all(type(x) is int for vec in pivots.values() for x in vec.values())
        exact = [[Fraction(col.get(i, 0)) for col in cols] for i in range(nodes)]
        assert len(pivots) == rank(cols) == dense_rank(exact, len(cols))


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
    reps = complement_reps(space, sub)
    assert reps == [{0: F(1)}]


def combinations_of(rng, vectors, count, entry):
    """`count` columns, each a random combination of `vectors` (some empty),
    so the map they form lands in the span of `vectors`."""
    cols = []
    for _ in range(count):
        col = {}
        for vec in vectors:
            if rng.random() < 0.5 and (c := entry(rng)):
                _subtract(col, -c, vec)
        cols.append(col)
    return cols


def greatest_rows(rows, ncols):
    """The greatest rows of an echelon basis of the column space: row i is one
    exactly when the rows from i on have a greater rank than those after i."""
    return {i for i in range(len(rows))
            if dense_rank(rows[i:], ncols) > dense_rank(rows[i + 1:], ncols)}


def sorted_typed(vec):
    """The entries of vec sorted by index, each with its type."""
    return [(i, type(x), x) for i, x in sorted(vec.items())]


def test_one_elimination_gives_the_kernel_and_seeds_the_complement():
    """kernel_and_image with nothing paired returns nullspace's kernel
    (int-or-Fraction entries, equal values) and the greatest rows of an
    echelon basis of the image.  For a map `before` into the domain with
    d o before = 0, passing before's image rows as `paired` returns the
    kernel vectors complement_reps keeps against before's columns (value
    and type, sorted by index, since the key order may differ)."""
    rng = random.Random("kernel-and-image")
    skipped = kept = 0
    for trial in range(300):
        nrows, ncols = rng.randint(0, 6), rng.randint(0, 6)
        entry = mixed_entry if trial % 2 else int_entry
        rows = random_rows(rng, nrows, ncols, entry)
        cols = columns(rows, ncols)
        kernel, image = kernel_and_image(cols, set())
        assert [list(v.items()) for v in kernel] == [list(v.items()) for v in nullspace(cols, ncols)]
        assert all(type(x) in (int, Fraction) for v in kernel for x in v.values())
        assert image == greatest_rows(rows, ncols)

        before = combinations_of(rng, kernel, rng.randint(0, 5), entry)
        paired = kernel_and_image(before, set())[1]
        reps = kernel_and_image(cols, paired)[0]
        want = complement_reps(kernel, before)
        assert [sorted_typed(v) for v in reps] == [sorted_typed(v) for v in want]
        skipped += len(kernel) - len(reps)
        kept += len(reps)
    assert skipped and kept


# -- the oracle: a carried echelon that keeps each pivot's combination of
#    inserted vectors in a second dict, beside the pivot vector --


class ReferenceEchelon:
    """Pivot vectors keyed by their lowest index, each with the combination of
    inserted vectors it equals."""

    def __init__(self):
        self.pivots = {}
        self.inserted = 0

    def insert(self, vec):
        """None when vec was independent of the vectors inserted before it;
        otherwise the combination of inserted vectors (vec's own coefficient
        1) that vanishes."""
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


def typed(vec):
    """The entries of vec in key order, each with its type."""
    return [(i, type(x), x) for i, x in vec.items()]


def random_column_set(rng):
    """Sparse columns of int, Fraction or mixed entries on scattered row
    indices, with empty, zero, repeated and ±1 incidence columns mixed in."""
    rows = rng.sample(range(40), rng.randint(0, 8))
    entry = rng.choice([int_entry, rational_entry, mixed_entry])
    cols = []
    for _ in range(rng.randint(0, 9)):
        kind = rng.random()
        if kind < 0.1 or not rows:
            cols.append({})
        elif kind < 0.2 and cols:
            cols.append(dict(rng.choice(cols)))
        elif kind < 0.35 and len(rows) >= 2:
            i, j = rng.sample(rows, 2)
            cols.append({i: 1, j: -1})
        else:
            col = {i: entry(rng) for i in rows if rng.random() < 0.4}
            cols.append({i: x for i, x in col.items() if x})
    return rows, cols


def test_the_carried_pivot_loop_is_the_reference_echelon():
    """kernel_and_image and complement_reps give exactly what the two-dict
    reference echelon gives.  Run on the columns with their rows negated,
    as kernel_and_image writes them, the reference has the same kernel
    vectors with the same entries, types and key order, and its pivots'
    greatest rows are the returned image rows.  Run on the columns as they
    are, the reference has kernel vectors of equal values.  Given the image
    rows of a map into the domain that composes to zero, kernel_and_image
    keeps the kernel vectors that the reference keeps against that map's
    columns (value and type, sorted by index); complement_reps keeps the
    vectors the reference keeps, in key order."""
    rng = random.Random("carried-vs-reference")
    dependent = carried_int = paired_some = 0
    for _ in range(1500):
        rows, cols = random_column_set(rng)
        ref = ReferenceEchelon()
        negated = [{-i: x for i, x in col.items()} for col in cols]
        want = [comb for col in negated if (comb := ref.insert(col)) is not None]
        kernel, image = kernel_and_image(cols, set())
        assert [typed(v) for v in kernel] == [typed(v) for v in want]
        assert len(image) == rank(cols) == len(cols) - len(kernel)
        assert image == {-low for low in ref.pivots}
        dependent += len(kernel)
        carried_int += sum(all(type(x) is int for x in v.values()) for v in kernel)

        ref = ReferenceEchelon()
        unnegated = [comb for col in cols if (comb := ref.insert(col)) is not None]
        assert [sorted(v.items()) for v in unnegated] == [sorted(v.items()) for v in want]
        before = combinations_of(rng, unnegated, rng.randint(0, 4), rng.choice([int_entry, mixed_entry]))
        reps = kernel_and_image(cols, kernel_and_image(before, set())[1])[0]
        ref = ReferenceEchelon()
        for vec in before:
            ref.insert(vec)
        kept = [vec for vec, old in zip(want, unnegated) if ref.insert(old) is None]
        assert [sorted_typed(v) for v in reps] == [sorted_typed(v) for v in kept]
        paired_some += 0 < len(reps) < len(kernel)

        _, space = random_column_set(rng)
        space = [{rng.choice(rows): 1}] + space if rows else space
        ref = ReferenceEchelon()
        for vec in cols:
            ref.insert(vec)
        kept = [vec for vec in space if ref.insert(vec) is None]
        assert complement_reps(space, cols) == kept
    assert dependent and carried_int and paired_some


def test_exact_quotient_never_returns_a_float():
    for a, p, want in ((6, 3, 2), (-6, 3, -2), (1, 2, Fraction(1, 2)), (1, -2, Fraction(-1, 2)),
                       (Fraction(1, 2), 3, Fraction(1, 6)), (2, Fraction(2, 3), Fraction(3))):
        got = exact_quotient(a, p)
        assert got == want and type(got) is type(want)
