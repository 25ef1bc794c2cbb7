"""Property tests on braid images of simples in types A3 and D4.

Examples are derandomized and the example database is off, so every run
draws the same inputs.
"""

import contextlib
import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from twistcat import (
    AlgebraElement,
    BraidWord,
    Phase,
    StabilityCondition,
    TwistedComplex,
    ZigzagAlgebra,
    apply_braid,
    cone,
    direct_sum,
    identity_morphism,
    is_isomorphic,
    minimize,
    named_quiver,
    random_generic_charge,
    simple_object,
    twist,
    twist_triangle,
    untwist,
    untwist_triangle,
)
from twistcat import twists
from twistcat.homcore import HomComplex, hom0_is_nonzero
from twistcat.reduce import _conjugated_twist_word

ALGEBRAS = {name: ZigzagAlgebra(named_quiver(name)) for name in ("A3", "D4")}

SETTINGS = settings(derandomize=True, database=None, max_examples=12, deadline=None)


def _braid_image(draw, alg, max_len):
    n = alg.quiver.vertex_count
    letters = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1))), max_size=max_len)
    )
    vertex = draw(st.integers(0, n - 1))
    return apply_braid(alg, BraidWord(tuple(letters)), simple_object(alg, vertex))


@st.composite
def braid_images(draw, max_len: int = 5):
    """An algebra and a braid image of one of its simples."""
    alg = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    return alg, _braid_image(draw, alg, max_len)


@st.composite
def braid_image_pairs(draw, max_len: int = 4):
    """Two braid images of simples over one algebra."""
    alg = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    return _braid_image(draw, alg, max_len), _braid_image(draw, alg, max_len)


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
    """Keep every complex the twists build with cone and minimize."""

    def keep(fn):
        def wrapped(arg):
            out = fn(arg)
            outputs.append(out)
            return out

        return wrapped

    with mock.patch.object(twists, "cone", keep(cone)):
        with mock.patch.object(twists, "minimize", keep(minimize)):
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


@settings(SETTINGS, max_examples=36)
@given(braid_images(), st.integers(0, 2**16), st.integers(0, 11))
def test_twist_by_a_stable_object_is_its_conjugated_braid_word(image, seed, index):
    alg, y = image
    stab = StabilityCondition(alg, random_generic_charge(alg.quiver, random.Random(seed)))
    build = stab.stable_build(stab.roots[index % len(stab.roots)])
    for op, exponent in ((twist, 1), (untwist, -1)):
        word = _conjugated_twist_word(build, exponent)
        assert is_isomorphic(op(build.obj, y), apply_braid(alg, word, y))
