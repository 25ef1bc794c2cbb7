"""Property tests on braid images of simples in types A3 and D4 (and E6
where a property must hold on every ADE family).

Examples are derandomized and the example database is off, so every run
draws the same inputs.
"""

import contextlib
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from twistcat import (
    AlgebraElement,
    BraidWord,
    Morphism,
    Phase,
    StabilityCondition,
    TwistedComplex,
    ZigzagAlgebra,
    apply_braid,
    cone,
    direct_sum,
    find_isomorphism,
    hom_dims,
    identity_morphism,
    is_isomorphic,
    is_spherical,
    minimize,
    named_quiver,
    random_generic_charge,
    simple_object,
    twist,
    twist_triangle,
    untwist,
    untwist_triangle,
    zero_object,
)
from twistcat import linalg, twists
from twistcat.zigzag import BasisElement, basis_product
from twistcat.homcore import Generator, HomComplex, _Reader, hom0_is_nonzero
from twistcat.reduce import _conjugated_twist_word
from conftest import (
    all_cohomology_reps,
    assert_probes_match_the_unpruned_walk,
    assert_same_complex,
    assert_same_reps,
    matrix_per_call,
    minimize_by_passes,
    reps_by_degree,
    twists_checked_against_oracles,
    two_walk_probes,
)
from test_linalg import dense_rank

ALGEBRAS = {name: ZigzagAlgebra(named_quiver(name)) for name in ("A3", "D4", "E6")}

SETTINGS = settings(derandomize=True, database=None, max_examples=12, deadline=None)


def _braid_image(draw, alg, max_len, min_len=0):
    n = alg.quiver.vertex_count
    letters = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1))),
                 min_size=min_len, max_size=max_len)
    )
    vertex = draw(st.integers(0, n - 1))
    return apply_braid(alg, BraidWord(tuple(letters)), simple_object(alg, vertex))


@st.composite
def braid_images(draw, max_len: int = 5, types: tuple[str, ...] = ("A3", "D4"),
                 min_len: int = 0):
    """An algebra and a braid image of one of its simples."""
    alg = ALGEBRAS[draw(st.sampled_from(types))]
    return alg, _braid_image(draw, alg, max_len, min_len)


@st.composite
def braid_images_with_a_differential(draw, max_len: int = 5,
                                     types: tuple[str, ...] = ("A3", "D4", "E6")):
    """An algebra and a braid image of a simple whose minimal model has a differential.

    A drawn word often cancels down to a shifted simple S_u[s]; one more
    letter at a neighbour u' of u then twists it into the two-term complex
    of class s_u'(alpha_u), with the arrow between u' and u as its differential.
    """
    alg, y = draw(braid_images(max_len, types, min_len=1))
    m = minimize(y)
    if len(m.generators) == 1:
        u = m.generators[0].vertex
        letter = (draw(st.sampled_from(alg.quiver.neighbors(u))), draw(st.sampled_from((1, -1))))
        y = apply_braid(alg, BraidWord((letter,)), y)
    return alg, y


@st.composite
def braid_image_pairs(draw, max_len: int = 4, types: tuple[str, ...] = ("A3", "D4"),
                      min_len: int = 0):
    """Two braid images of simples over one algebra."""
    alg = ALGEBRAS[draw(st.sampled_from(types))]
    return _braid_image(draw, alg, max_len, min_len), _braid_image(draw, alg, max_len, min_len)


@SETTINGS
@given(braid_images(), st.integers(0, 3))
def test_untwist_inverts_twist(image, v):
    alg, y = image
    x = simple_object(alg, v % alg.quiver.vertex_count)
    assert is_isomorphic(untwist(x, twist(x, y)), y)


@SETTINGS
@given(braid_images(), st.integers(0, 3))
def test_triangles_end_in_the_twists(image, v):
    alg, y = image
    x = simple_object(alg, v % alg.quiver.vertex_count)
    forward = twist_triangle(x, y)
    backward = untwist_triangle(x, y)
    if forward is None:
        assert twist(x, y) == minimize(y)
    else:
        assert forward[1] == y
        assert forward[2] == twist(x, y)
    if backward is None:
        assert untwist(x, y) == minimize(y)
    else:
        assert backward[1] == y
        assert backward[0] == untwist(x, y)


@SETTINGS
@given(braid_images(), st.integers(0, 3), st.integers(-2, 2))
def test_dims_match_degreewise_cohomology(image, v, shift):
    alg, y = image
    x = simple_object(alg, v % alg.quiver.vertex_count, shift)
    for source, target in ((x, y), (y, x), (y, y)):
        hom = HomComplex(source, target)
        by_degree = {d: hom.cohomology_dim(d) for d in hom.degrees()}
        assert hom.dims() == {d: n for d, n in by_degree.items() if n}


@SETTINGS
@given(braid_images(max_len=4), st.integers(0, 2**32))
def test_phases_spread_is_top_minus_bottom(image, seed):
    alg, y = image
    stab = StabilityCondition(alg, random_generic_charge(alg.quiver, random.Random(seed)))
    phases = stab.phi_probes(y)
    bottom, top = phases
    assert phases.spread == top.phase - bottom.phase
    assert phases.in_heart == (Phase.integer(0) <= bottom.phase and top.phase < Phase.integer(1))


@SETTINGS
@given(braid_image_pairs(), st.integers(-3, 3))
def test_hom0_reads_shifts_off_the_unshifted_complex(pair, k):
    """H^0 Hom(x, y[k]) = H^k Hom(x, y), and H^0 Hom(s[k], y) = H^{-k} Hom(s, y)."""
    x, y = pair
    assert hom0_is_nonzero(x, y, k) == hom0_is_nonzero(x, y.shift(k))
    assert hom0_is_nonzero(x, y, -k) == hom0_is_nonzero(x.shift(k), y)


def _lift(x):
    """The differential of x with each entry as an algebra element on its implied path."""
    lifted = {}
    for (h, g), c in x.differential.items():
        src, tgt = x.generators[g], x.generators[h]
        path = x.alg.path(src.vertex, tgt.vertex, tgt.shift - src.shift + 1)
        assert path is not None
        lifted[(h, g)] = AlgebraElement.of(path, c)
    return lifted


def _cones(image, v):
    """Unreduced complexes around a braid image y: the cone of its identity
    and the cones of the closed degree-0 maps between y and a simple."""
    alg, y = image
    x = simple_object(alg, v % alg.quiver.vertex_count)
    maps = [identity_morphism(y)]
    maps += HomComplex(x, y).cocycle_reps(0) + HomComplex(y, x).cocycle_reps(0)
    return [cone(f) for f in maps]


@SETTINGS
@given(braid_images(), st.integers(0, 3))
def test_lifted_differentials_square_to_zero(image, v):
    """Rational entries under the product rule agree with algebra multiplication."""
    for obj in [image[1]] + _cones(image, v):
        lifted = _lift(obj)
        n = len(obj.generators)
        for g in range(n):
            for h in range(n):
                square = AlgebraElement.zero()
                for m in range(n):
                    if (m, g) in lifted and (h, m) in lifted:
                        square = square + lifted[(m, g)] * lifted[(h, m)]
                assert square.is_zero(), (h, g)


@SETTINGS
@given(braid_images(), st.integers(0, 3))
def test_minimize_is_idempotent_and_leaves_no_degree_zero_entry(image, v):
    for obj in _cones(image, v):
        m = minimize(obj)
        assert minimize(m) == m
        assert m.k_class() == obj.k_class()
        for h, g in m.differential:
            assert m.generators[h].shift - m.generators[g].shift + 1 > 0


@contextlib.contextmanager
def _recording(outputs):
    """Keep every complex the twists hand to minimize (each cone layout) and
    every complex minimize returns to them."""

    def keep(c):
        out = minimize(c)
        outputs.extend((c, out))
        return out

    with mock.patch.object(twists, "minimize", keep):
        yield


@SETTINGS
@given(braid_images(), st.integers(0, 3), st.integers(-1, 1))
def test_cone_and_minimize_outputs_pass_validation(image, v, s):
    """cone and minimize build their results unvalidated; each must still
    pass the validated constructor (exact entries on paths, d² = 0)."""
    alg, y = image
    n = alg.quiver.vertex_count
    simple = simple_object(alg, v % n)
    pad = cone(identity_morphism(simple_object(alg, v % n, s)))
    outputs = [y, pad] + _cones(image, v)
    outputs += [minimize(c) for c in outputs] + [minimize(direct_sum(pad, y, pad))]
    with _recording(outputs):
        twist(simple, y)
        untwist(simple, y)
    for out in outputs:
        TwistedComplex(alg, out.generators, out.differential)


def _assert_revalidates(f):
    """f holds no zero entry and passes `Morphism(...)` with equal entries."""
    assert all(f.entries.values())
    assert Morphism(f.source, f.target, f.degree, f.entries).entries == f.entries


@SETTINGS
@given(braid_images_with_a_differential(), st.integers(0, 2**16))
def test_engine_maps_pass_the_validated_constructor(image, seed):
    """The engine builds its maps unchecked; each must still pass the
    validated constructor: the differential of a random map and of a closed
    rep, the identity, the cocycle reps and the isomorphism witnesses."""
    alg, y = image
    rng = random.Random(seed)
    y2 = _gauged(y, rng)
    _assert_revalidates(identity_morphism(y))
    for x in (y, y2):
        hom = HomComplex(y, x)
        for d in hom.degrees():
            entries = {(h, g): rng.choice((1, -1, 2)) for g, h in hom.basis[d]}
            _assert_revalidates(Morphism(y, x, d, entries).differential())
            for rep in hom.cocycle_reps(d):
                _assert_revalidates(rep)
                _assert_revalidates(rep.differential())
        witness, _ = find_isomorphism(y, x)
        _assert_revalidates(witness)
    zero = zero_object(alg)
    _assert_revalidates(find_isomorphism(zero, zero)[0])


@settings(SETTINGS, max_examples=36)
@given(braid_images(), st.integers(0, 2**16), st.integers(0, 11))
def test_twist_by_a_stable_object_is_its_conjugated_braid_word(image, seed, index):
    alg, y = image
    stab = StabilityCondition(alg, random_generic_charge(alg.quiver, random.Random(seed)))
    build = stab.stable_build(stab.roots[index % len(stab.roots)])
    for op, exponent in ((twist, 1), (untwist, -1)):
        word = BraidWord(_conjugated_twist_word(build, exponent))
        assert is_isomorphic(op(build.obj, y), apply_braid(alg, word, y))


def _gauged(x, rng):
    """x with generator g rescaled by a nonzero rational λ_g: the entry d(h, g)
    becomes d(h, g)·λ_h/λ_g, an isomorphic complex whose entries are not ±1."""
    scale = [Fraction(rng.choice((1, -1)) * rng.randint(1, 7), rng.randint(1, 7))
             for _ in x.generators]
    diff = {(h, g): c * scale[h] / scale[g] for (h, g), c in x.differential.items()}
    return TwistedComplex(x.alg, x.generators, diff)


@settings(SETTINGS, max_examples=30)
@given(braid_images(max_len=5, types=("A3", "D4", "E6"), min_len=2), st.integers(0, 2**16),
       st.integers(0, 5))
def test_diagonal_gauge_changes_no_hom_dimension_or_phase(image, seed, v):
    """A diagonal change of basis pushes rational entries through every Hom
    test; Hom dimensions, sphericity and both probe hits stay as they were,
    and the cohomology representatives read off the rational columns are
    closed."""
    _check_gauge(*image, seed, v)


@settings(SETTINGS, max_examples=18)
@given(braid_images_with_a_differential(), st.integers(0, 2**16), st.integers(0, 5))
def test_diagonal_gauge_on_complexes_with_a_differential(image, seed, v):
    """The gauge property on inputs that carry entries for the gauge to rescale."""
    _check_gauge(*image, seed, v)


def _check_gauge(alg, y, seed, v):
    rng = random.Random(seed)
    y2 = _gauged(y, rng)
    x = simple_object(alg, v % alg.quiver.vertex_count)
    assert all(rep.is_closed() for _, rep in all_cohomology_reps(HomComplex(y2, y2)))
    assert hom_dims(y2, y2) == hom_dims(y, y)
    assert hom_dims(x, y2) == hom_dims(x, y)
    assert hom_dims(y2, x) == hom_dims(y, x)
    assert is_spherical(y2) == is_spherical(y)
    stab = StabilityCondition(alg, random_generic_charge(alg.quiver, rng))
    assert stab.phi_probes(y2) == stab.phi_probes(y)


@settings(SETTINGS, max_examples=18)
@given(braid_images_with_a_differential(), st.integers(0, 2**16), st.integers(0, 5),
       st.integers(0, 119))
def test_twists_of_gauged_inputs_mix_int_reps_with_fraction_entries(image, seed, v, index):
    """Twists and untwists of a gauged image, by a simple and by a gauged
    stable object: the cone mixes the echelon's int reps with non-±1
    Fraction entries.  Each result has the Hom dimensions and both probe hits
    of the ungauged twist, and no entry of it or of its cone is a float."""
    alg, y = image
    rng = random.Random(seed)
    stab = StabilityCondition(alg, random_generic_charge(alg.quiver, rng))
    s = stab.stable_object(stab.roots[index % len(stab.roots)])
    y2 = _gauged(y, rng)
    for x, x2 in ((simple_object(alg, v % alg.quiver.vertex_count),) * 2, (s, _gauged(s, rng))):
        for op in (twist, untwist):
            built = []
            with _recording(built):
                out2 = op(x2, y2, True)
            assert not any(type(c) is float for obj in built for c in obj.differential.values())
            out = op(x, y, True)
            assert hom_dims(out2, out2) == hom_dims(out, out)
            assert hom_dims(x2, out2) == hom_dims(x, out)
            assert stab.phi_probes(out2) == stab.phi_probes(out)


@settings(SETTINGS, max_examples=30)
@given(braid_images_with_a_differential(), st.integers(0, 2**16), st.integers(-3, 3))
def test_bounded_walk_matches_the_unpruned_walk(image, seed, shift):
    """Both probe hits, from the generator-phase bound on, equal those of the
    walk over every candidate, on the image and on a shift of it."""
    alg, y = image
    stab = StabilityCondition(alg, random_generic_charge(alg.quiver, random.Random(seed)))
    for obj in (y, y.shift(shift)):
        assert_probes_match_the_unpruned_walk(stab, obj)


@settings(SETTINGS, max_examples=30)
@given(braid_images_with_a_differential(), st.integers(0, 2**16), st.integers(-3, 3))
def test_one_walk_probe_matches_two_walks(image, seed, shift):
    """The probe that may end after its bottom walk returns the Phases of the
    bottom walk followed by the top walk, on the image and on a shift of it."""
    alg, y = image
    stab = StabilityCondition(alg, random_generic_charge(alg.quiver, random.Random(seed)))
    for obj in (y, y.shift(shift)):
        assert stab.phi_probes(obj) == two_walk_probes(stab, obj)


def test_most_drawn_complexes_have_a_differential():
    """At least 80 % of the examples the strategy draws have a differential
    in their minimal model."""
    drawn = []

    @settings(SETTINGS, max_examples=30)
    @given(braid_images_with_a_differential())
    def draw(image):
        drawn.append(bool(minimize(image[1]).differential))

    draw()
    assert len(drawn) >= 20
    assert sum(drawn) >= 0.8 * len(drawn)


def _padded(y, rng, pads=2):
    """y with `pads` cones of c·id on some P_v[s] (c a nonzero rational), their
    generators inserted at random positions: y plus contractible summands."""
    alg = y.alg
    gens, diff = list(y.generators), dict(y.differential)
    for _ in range(pads):
        v, s = rng.randrange(alg.quiver.vertex_count), rng.randint(-2, 2)
        size = len(gens) + 2
        low, high = rng.sample(range(size), 2)  # positions of P_v[s] and P_v[s+1]
        rest = [i for i in range(size) if i not in (low, high)]
        placed = [None] * size
        for old, new in enumerate(rest):
            placed[new] = gens[old]
        placed[low], placed[high] = Generator(v, s), Generator(v, s + 1)
        diff = {(rest[h], rest[g]): c for (h, g), c in diff.items()}
        diff[(low, high)] = rng.choice((1, -1, 2, Fraction(-1, 3)))
        gens = placed
    return TwistedComplex(alg, gens, diff)


@settings(SETTINGS, max_examples=24)
@given(braid_images_with_a_differential(), st.integers(0, 2**16), st.integers(0, 5))
def test_one_pass_minimize_and_reps_match_the_oracles(image, seed, v):
    """On drawn images, and on them padded with cones of identities at random
    positions: `minimize` equals the pass-by-pass oracle and drops exactly the
    padding, the reps of every Hom complex equal `cocycle_reps` degree by
    degree, and so do those made inside a twist and an untwist."""
    alg, y = image
    rng = random.Random(seed)
    x = simple_object(alg, v % alg.quiver.vertex_count)
    for obj in (y, _padded(y, rng)):
        assert_same_complex(minimize(obj), minimize_by_passes(obj))
        assert minimize(obj) == minimize(y)
        for source, target in ((x, obj), (obj, x), (obj, obj)):
            hom = HomComplex(source, target)
            assert_same_reps(all_cohomology_reps(hom), reps_by_degree(hom))
        with twists_checked_against_oracles() as counts:
            twist(x, obj)
            untwist(x, obj)
        assert counts["minimize"] == 2


def test_rep_vectors_match_the_oracle_on_every_count_branch():
    """`rep_vectors` equals `cocycle_reps` degree by degree on drawn images,
    padded images and a simple, whichever branch the count
    dim H^d = #ker D_d - rank D_{d-1} takes: rank 0 (nothing paired, every
    kernel vector kept), rank = #ker (every free column paired, none kept)
    or a rank between (some paired).  Each branch is hit, and the columns
    each elimination skips are exactly those the count calls for."""
    hits = {"empty": 0, "every": 0, "some": 0}
    kernel_and_image = linalg.kernel_and_image
    seen = []

    def counted(cols, paired):
        free = len(cols) - linalg.rank(cols)
        seen.append("empty" if not paired else "every" if len(paired) == free else "some")
        return kernel_and_image(cols, paired)

    @settings(SETTINGS, max_examples=24)
    @given(braid_images_with_a_differential(), st.integers(0, 2**16), st.integers(0, 5))
    def check(image, seed, v):
        alg, y = image
        x = simple_object(alg, v % alg.quiver.vertex_count)
        for obj in (y, _padded(y, random.Random(seed))):
            for source, target in ((x, obj), (obj, x), (obj, obj)):
                hom = HomComplex(source, target)
                branches = []
                for d in hom.degrees():
                    kernel = len(linalg.nullspace(hom.matrix(d), hom.dim_at(d)))
                    rank = linalg.rank(hom.matrix(d - 1))
                    branch = "empty" if rank == 0 else "every" if rank == kernel else "some"
                    hits[branch] += 1
                    branches.append(branch)
                seen.clear()
                with mock.patch.object(linalg, "kernel_and_image", counted):
                    reps = all_cohomology_reps(HomComplex(source, target))
                assert seen == branches
                assert_same_reps(reps, reps_by_degree(hom))

    check()
    assert all(hits.values()), hits


def test_hom0_matches_the_full_rank_formula_and_its_serre_dual():
    """`hom0_is_nonzero(x, y, k)` and `cohomology_dim(k)`, which ranks only
    differentials with both ends nonzero, agree with
    dim Hom^k - rank D_k - rank D_{k-1} computed from both matrices, and
    the test equals its Serre dual `hom0_is_nonzero(y, x, 2 - k)`, at every
    degree around the Hom complex.  Inputs are braid-image pairs on
    A3/D4/E6, padded images and direct sums; padding and sums make degrees
    with Hom^{k-1} and Hom^{k+1} both nonzero, and such degrees occur with
    H^k zero and nonzero."""
    both_ends = {False: 0, True: 0}

    @settings(SETTINGS, max_examples=16)
    @given(braid_image_pairs(types=("A3", "D4", "E6")), st.integers(0, 2**16))
    def check(pair, seed):
        x, y = pair
        rng = random.Random(seed)
        for a, b in ((x, y), (_padded(x, rng), y), (x, _padded(y, rng)),
                     (direct_sum(x, y), y), (x, direct_sum(y, x.shift(1)))):
            hom = HomComplex(a, b)
            lo, hi = min(hom.degrees(), default=0), max(hom.degrees(), default=0)
            for k in range(lo - 1, hi + 2):
                want = (hom.dim_at(k) - linalg.rank(hom.matrix(k))
                        - linalg.rank(hom.matrix(k - 1)))
                assert HomComplex(a, b).cohomology_dim(k) == want
                assert hom0_is_nonzero(a, b, k) == (want > 0)
                assert hom0_is_nonzero(b, a, 2 - k) == (want > 0)
                if hom.dim_at(k - 1) and hom.dim_at(k + 1):
                    both_ends[want > 0] += 1

    check()
    assert all(both_ends.values()), both_ends


def _basis_by_pairs(source, target):
    """The Hom basis as laid out pair by pair: every (g, h) in source-major
    order, each path of the pair filed under its Hom degree."""
    basis = {}
    for g, (vg, sg) in enumerate(source.generators):
        for h, (vh, sh) in enumerate(target.generators):
            for degree in source.alg.paths[(vg, vh)]:
                basis.setdefault(degree + sg - sh, []).append((g, h))
    return basis


def _typed(cols):
    """Each column's (row, entry, entry type) triples in key order."""
    return [[(row, c, type(c)) for row, c in col.items()] for col in cols]


@settings(SETTINGS, max_examples=24)
@given(braid_image_pairs(max_len=5, types=("A3", "D4", "E6"), min_len=1))
def test_matrix_equals_the_per_call_oracle_in_any_call_order(pair):
    """Every degree's columns equal those built afresh per call, whether the
    degrees are asked in ascending order, in descending order or twice, so
    the adjacency built by the first call serves every later degree."""
    x, y = pair
    for source, target in ((x, y), (y, x), (x, x)):
        hom = HomComplex(source, target)
        degrees = range(min(hom.degrees(), default=0) - 1, max(hom.degrees(), default=0) + 2)
        want = {d: _typed(matrix_per_call(hom, d)) for d in degrees}
        for order in (list(degrees), list(reversed(degrees)), [*degrees, *degrees]):
            hom = HomComplex(source, target)
            for d in order:
                assert _typed(hom.matrix(d)) == want[d]


@settings(SETTINGS, max_examples=24)
@given(braid_image_pairs(max_len=5, types=("A3", "D4", "E6"), min_len=1), st.integers(0, 2**16),
       st.integers(0, 35))
def test_hom_basis_order_is_the_pair_by_pair_order(pair, seed, index):
    """The per-vertex basis layout keeps the pair-by-pair order: the same
    degrees in the same order, each with the same pairs in the same order."""
    x, y = pair
    alg = x.alg
    stab = StabilityCondition(alg, random_generic_charge(alg.quiver, random.Random(seed)))
    s = stab.stable_build(stab.roots[index % len(stab.roots)]).obj
    for source, target in ((x, y), (y, x), (x, x), (s, y), (y, s), (s, s)):
        want = _basis_by_pairs(source, target)
        assert list(HomComplex(source, target).basis.items()) == list(want.items())


def test_a_shared_reader_changes_no_answer():
    """A Hom complex reads the same basis, matrices, cohomology dimensions
    and Hom tests when either end is a `_Reader` as when both are plain
    complexes, at every degree around the complex.  One reader serves many
    Hom complexes in both roles: as the source first and then as the
    target, and a second reader the other way round, so an index built in
    one role is read again in the other.  Inputs are braid-image pairs on
    A3/D4/E6, padded (Fraction entries), shifted and direct-sum variants."""

    @SETTINGS
    @given(braid_image_pairs(types=("A3", "D4", "E6")), st.integers(0, 2**16))
    def check(pair, seed):
        x, y = pair
        rng = random.Random(seed)
        objects = [x, y, _padded(y, rng), x.shift(1), direct_sum(x, y.shift(-1))]
        for obj in objects:
            for roles in (("source", "target"), ("target", "source")):
                reader = _Reader(obj)
                for role in roles:
                    for other in objects:
                        plain = (obj, other) if role == "source" else (other, obj)
                        read = (reader, other) if role == "source" else (other, reader)
                        _assert_same_hom(read, plain)
                _assert_same_hom((reader, reader), (obj, obj))

    check()


def _assert_same_hom(read, plain):
    """The Hom complex of `read` (readers or complexes) is that of the plain
    pair: the same pairs in each degree and the same matrices, keyed by
    (column pair, row pair), since a reader source with a plain target
    files its pairs from the source's coreach, in another order."""
    want, got = HomComplex(*plain), HomComplex(*read)
    assert got.source is plain[0] and got.target is plain[1]
    assert {d: sorted(pairs) for d, pairs in got.basis.items()} == {
        d: sorted(pairs) for d, pairs in want.basis.items()}
    lo, hi = min(want.degrees(), default=0), max(want.degrees(), default=0)
    for k in range(lo - 1, hi + 2):
        assert _keyed_matrix(got, k) == _keyed_matrix(want, k)
        assert got.cohomology_dim(k) == want.cohomology_dim(k)
        assert hom0_is_nonzero(*read, k) == hom0_is_nonzero(*plain, k)


def _keyed_matrix(hom, d):
    """The entries of D_d keyed by (Hom^d pair, Hom^{d+1} pair)."""
    dom, cod = hom.basis.get(d, []), hom.basis.get(d + 1, [])
    return {(dom[col], cod[row]): c
            for col, column in enumerate(hom.matrix(d)) for row, c in column.items()}


def _oracle_paths(quiver):
    """The zigzag algebra's basis paths keyed by their ends, listed from the
    quiver's adjacency: e_i and l_i at each vertex, an arrow along each edge."""
    paths = {}
    for i in range(quiver.vertex_count):
        paths[(i, i)] = [BasisElement("e", i, i), BasisElement("l", i, i)]
        for j in quiver.neighbors(i):
            paths[(i, j)] = [BasisElement("a", i, j)]
    return paths


def _oracle_hom_dims(x, y):
    """The nonzero dim H^d Hom(x, y) by degree, from products of basis paths.

    Hom^d has a basis of (g, h, path) triples, the path running from g's
    vertex to h's with degree d - shift(g) + shift(h).  D(f) = d_Y·f -
    (-1)^d f·d_X is written out by `basis_product`, each differential entry
    standing for its one path of degree 1 + the shift difference, and
    ranked by the dense Fraction RREF."""
    paths = _oracle_paths(x.alg.quiver)
    basis = {}
    for g, (vg, sg) in enumerate(x.generators):
        for h, (vh, sh) in enumerate(y.generators):
            for b in paths.get((vg, vh), ()):
                basis.setdefault(b.degree + sg - sh, []).append((g, h, b))

    def entries(obj, by_source):
        """Each entry as (its other end, c, its path), keyed by source or by target."""
        out = {}
        for (t, s), c in obj.differential.items():
            src, tgt = obj.generators[s], obj.generators[t]
            (b,) = [b for b in paths[(src.vertex, tgt.vertex)]
                    if b.degree == tgt.shift - src.shift + 1]
            out.setdefault(s if by_source else t, []).append((t if by_source else s, c, b))
        return out

    out_of_y, into_x = entries(y, True), entries(x, False)
    ranks = {}
    for d, dom in basis.items():
        cod = {triple: i for i, triple in enumerate(basis.get(d + 1, []))}
        rows = []
        for g, h, b in dom:
            row = [Fraction(0)] * len(cod)
            for t, c, p in out_of_y.get(h, ()):  # f, then d_Y out of h
                if (q := basis_product(b, p)) is not None:
                    row[cod[(g, t, q)]] += c
            for s, c, p in into_x.get(g, ()):  # d_X into g, then f
                if (q := basis_product(p, b)) is not None:
                    row[cod[(s, h, q)]] -= (-1) ** d * c
            rows.append(row)
        ranks[d] = dense_rank(rows, len(cod))
    dims = {d: len(dom) - ranks[d] - ranks.get(d - 1, 0) for d, dom in basis.items()}
    return {d: n for d, n in dims.items() if n}


def _projectives_of_a3():
    """P0, P1, P2 on A3 (a path 0 - 1 - 2) and the twist by P0."""
    p = [simple_object(ALGEBRAS["A3"], i) for i in range(3)]
    return p, lambda y: twist(p[0], y)


HAND_HOM_DIMS = {
    # Hom(P_i, P_i) is spanned by e_i in degree 0 and the loop l_i in degree 2
    "a projective with itself": (lambda p, t: (p[0], p[0]), {0: 1, 2: 1}),
    "a projective with its shift": (lambda p, t: (p[0], p[0].shift(1)), {-1: 1, 1: 1}),
    # one arrow of degree 1 joins adjacent vertices, no path joins 0 and 2
    "adjacent projectives": (lambda p, t: (p[0], p[1]), {1: 1}),
    "distant projectives": (lambda p, t: (p[0], p[2]), {}),
    # the twist is an autoequivalence: T(P1) = cone(P0[-1] -> P1) keeps Hom(P1, P1)
    "a twisted projective with itself": (lambda p, t: (t(p[1]), t(p[1])), {0: 1, 2: 1}),
    "a twisted projective with a fixed one": (lambda p, t: (t(p[1]), t(p[2])), {1: 1}),
}


@pytest.mark.parametrize("case", HAND_HOM_DIMS)
def test_the_product_oracle_reads_hand_computed_hom_dims(case):
    """The product oracle, and `hom_dims`, give the Hom dimensions worked
    out by hand on A3, a complex with a differential included."""
    pair, want = HAND_HOM_DIMS[case]
    x, y = pair(*_projectives_of_a3())
    assert _oracle_hom_dims(x, y) == want
    assert hom_dims(x, y) == want


@settings(SETTINGS, max_examples=48)
@given(braid_image_pairs(max_len=5, types=("A3", "D4", "E6")), st.integers(0, 2**16))
def test_hom_dims_and_hom_tests_match_the_product_oracle(pair, seed):
    """`hom_dims` equals the oracle built from the algebra's products alone,
    and `hom0_is_nonzero` at every degree around the complex equals oracle
    dim H^k > 0, with a reader on the source, on the target, on both or on
    neither (each reader kept across every k, as in a probe walk).  Inputs
    are braid-image pairs on A3/D4/E6, a padded image (Fraction entries)
    and a shifted sum."""
    _assert_hom_dims_and_hom_tests_match_the_product_oracle(*pair, random.Random(seed))


VERIFY_TYPES = [f"A{n}" for n in range(1, 10)] + [f"D{n}" for n in range(4, 10)] + ["E6", "E7", "E8"]


@pytest.mark.parametrize("name", VERIFY_TYPES)
def test_hom_dims_and_hom_tests_match_the_product_oracle_on_every_type(name):
    """The property above on every type `twistcat verify` accepts, with one
    seeded pair of braid images of simples per type; on the same pair, the
    per-degree rep counts and `is_spherical` match the oracle too."""
    alg = ZigzagAlgebra(named_quiver(name))
    n = alg.quiver.vertex_count
    rng = random.Random(f"product-oracle-{name}")
    x, y = (
        apply_braid(alg, BraidWord(tuple((rng.randrange(n), rng.choice((1, -1)))
                                         for _ in range(rng.randint(6, 12)))),
                    simple_object(alg, rng.randrange(n)))
        for _ in range(2)
    )
    _assert_hom_dims_and_hom_tests_match_the_product_oracle(x, y, rng)
    _assert_reps_and_sphericity_match_the_oracle(x, y)


def _assert_hom_dims_and_hom_tests_match_the_product_oracle(x, y, rng):
    padded, summed = _padded(y, rng), direct_sum(x, y.shift(-1))
    for a, b in ((x, y), (y, x), (padded, x), (x, summed), (summed, padded)):
        want = _oracle_hom_dims(a, b)
        assert hom_dims(a, b) == want
        (a_lo, a_hi), (b_lo, b_hi) = a.shift_range(), b.shift_range()
        for ends in ((a, b), (_Reader(a), b), (a, _Reader(b)), (_Reader(a), _Reader(b))):
            for k in range(a_lo - b_hi - 1, a_hi - b_lo + 4):
                assert hom0_is_nonzero(*ends, k) == (k in want)


def _cyclic_complex():
    """A validated complex on A2 whose entry graph has a cycle: P0 + P0 + P1 + P1,
    with U all 1 from the P0s to the P1s and V = [[1, -1], [-1, 1]] back.
    VU = UV = 0, so each square of the cycle cancels on the loop of its vertex."""
    u = {(h, g): 1 for h in (2, 3) for g in (0, 1)}
    v = {(0, 2): 1, (0, 3): -1, (1, 2): -1, (1, 3): 1}
    return TwistedComplex(ZigzagAlgebra(named_quiver("A2")),
                          [Generator(0, 0), Generator(0, 0), Generator(1, 0), Generator(1, 0)],
                          {**u, **v})


def _assert_reps_and_sphericity_match_the_oracle(x, y):
    """The per-degree counts of `rep_vectors` equal the oracle's dim H^d, and
    `is_spherical` on each end equals oracle dims == {0: 1, 2: 1}."""
    counts = {}
    for d, _ in HomComplex(x, y).rep_vectors():
        counts[d] = counts.get(d, 0) + 1
    assert counts == _oracle_hom_dims(x, y)
    for end in (x, y):
        assert is_spherical(end) == (_oracle_hom_dims(end, end) == {0: 1, 2: 1})


@settings(SETTINGS, max_examples=24)
@given(braid_image_pairs(max_len=5, types=("A3", "D4", "E6")))
def test_rep_counts_and_sphericity_match_the_product_oracle(pair):
    """On braid-image pairs of A3/D4/E6 (spherical) and their sums (not)."""
    x, y = pair
    summed = direct_sum(x, y.shift(1))
    for a, b in ((x, y), (y, x), (summed, x), (y, summed)):
        _assert_reps_and_sphericity_match_the_oracle(a, b)


def test_the_product_oracle_reads_a_complex_with_a_cycle():
    """The cyclic complex passes the square-zero check and has Hom dims
    {0: 4, 2: 4}, so it is not spherical; its reps and those against each
    projective match the oracle."""
    c = _cyclic_complex()
    assert hom_dims(c, c) == _oracle_hom_dims(c, c) == {0: 4, 2: 4}
    _assert_reps_and_sphericity_match_the_oracle(c, c)
    assert not is_spherical(c)
    for v in (0, 1):
        p = simple_object(c.alg, v)
        _assert_reps_and_sphericity_match_the_oracle(p, c)
        _assert_reps_and_sphericity_match_the_oracle(c, p.shift(1))
