import hashlib
import json
import random
from fractions import Fraction
from unittest import mock

import pytest

from twistcat import (
    BraidWord,
    Generator,
    apply_braid,
    braid_class_action,
    braid_word_to_text,
    direct_sum,
    hom_dims,
    identity_morphism,
    is_isomorphic,
    is_spherical,
    parse_braid_word,
    simple_object,
    twist,
    twist_triangle,
    untwist,
    untwist_triangle,
)
from twistcat import StabilityCondition, ZigzagAlgebra, named_quiver, random_generic_charge
from twistcat import twists
from twistcat.homcore import HomComplex, Morphism, TwistedComplex, cone, minimize
from twistcat.verify import power_image
from conftest import (
    all_cohomology_reps,
    assert_same_complex,
    random_image,
    random_word,
    twists_checked_against_oracles,
)


def test_twist_of_self_is_downshift(alg_a2):
    p1 = simple_object(alg_a2, 0)
    t = twist(p1, p1)
    assert t.generators == (Generator(0, -1),)
    assert t.differential == {}


def test_untwist_of_self_is_upshift(alg_a2):
    p1 = simple_object(alg_a2, 0)
    t = untwist(p1, p1)
    assert t.generators == (Generator(0, 1),)


def test_twist_of_neighbour(alg_a2):
    p1, p2 = simple_object(alg_a2, 0), simple_object(alg_a2, 1)
    t = twist(p1, p2)
    assert t.generators == (Generator(1, 0), Generator(0, 0))
    assert t.differential == {(0, 1): 1}
    assert t.k_class() == (1, 1)


def test_twist_with_vanishing_hom_is_identity(alg_a3):
    p1, p3 = simple_object(alg_a3, 0), simple_object(alg_a3, 2)
    assert twist(p1, p3) == p3
    assert untwist(p1, p3) == p3


def test_untwist_inverts_twist_on_the_nose(alg_a2):
    p1, p2 = simple_object(alg_a2, 0), simple_object(alg_a2, 1)
    assert untwist(p1, twist(p1, p2)) == p2
    assert twist(p1, untwist(p1, p2)) == p2


def test_twist_requires_spherical(alg_a2):
    p1, p2 = simple_object(alg_a2, 0), simple_object(alg_a2, 1)
    with pytest.raises(ValueError):
        twist(direct_sum(p1, p2), p1)
    with pytest.raises(ValueError):
        untwist(direct_sum(p1, p2), p1)


@pytest.mark.parametrize("quiver_fixture", ["alg_a2", "alg_a3"])
def test_inverse_law_randomized(quiver_fixture, request):
    alg = request.getfixturevalue(quiver_fixture)
    n = alg.quiver.vertex_count
    rng = random.Random(f"inverse:{quiver_fixture}")
    for _ in range(15):
        x = simple_object(alg, rng.randrange(n))
        y = random_image(rng, alg, 6)
        assert is_isomorphic(untwist(x, twist(x, y)), y)
        assert is_isomorphic(twist(x, untwist(x, y)), y)


@pytest.mark.parametrize("name", ["alg_a2", "alg_a3", "alg_d4"])
def test_braid_relations_on_simples(name, request):
    alg = request.getfixturevalue(name)
    q = alg.quiver
    n = q.vertex_count
    for i in range(n):
        for j in range(i + 1, n):
            for v in range(n):
                y = simple_object(alg, v)
                if q.adjacent(i, j):
                    lhs = apply_braid(alg, BraidWord(((i, 1), (j, 1), (i, 1))), y)
                    rhs = apply_braid(alg, BraidWord(((j, 1), (i, 1), (j, 1))), y)
                else:
                    lhs = apply_braid(alg, BraidWord(((i, 1), (j, 1))), y)
                    rhs = apply_braid(alg, BraidWord(((j, 1), (i, 1))), y)
                assert is_isomorphic(lhs, rhs), (name, i, j, v)


def test_class_action_matches_reflections(alg_a3):
    rng = random.Random("classes")
    q = alg_a3.quiver
    for _ in range(20):
        word = random_word(rng, 3, 8)
        v = rng.randrange(3)
        y = apply_braid(alg_a3, word, simple_object(alg_a3, v))
        assert y.k_class() == braid_class_action(q, word, simple_object(alg_a3, v).k_class())


def test_apply_braid_empty_word(alg_a2):
    p = simple_object(alg_a2, 0)
    assert apply_braid(alg_a2, BraidWord(), p) == p


def test_the_empty_word_minimizes_its_input(alg_a3):
    """The empty word returns the minimal model, as every other word does."""
    y = cone(identity_morphism(simple_object(alg_a3, 0)))
    assert len(y.generators) == 2
    out = apply_braid(alg_a3, BraidWord(()), y)
    assert out == minimize(y) and out.generators == ()
    assert apply_braid(alg_a3, BraidWord(((1, 1), (1, -1))), y) == out


def test_braid_images_stay_spherical(alg_a3):
    rng = random.Random("spherical-images")
    for _ in range(10):
        y = random_image(rng, alg_a3, 6)
        assert is_spherical(y)


def test_twist_by_constructed_spherical(alg_a2):
    # the two-generator extension is spherical and can itself twist
    s = twist(simple_object(alg_a2, 0), simple_object(alg_a2, 1))
    p1 = simple_object(alg_a2, 0)
    image = twist(s, p1)
    assert image.k_class() == (0, -1)  # reflection of (1,0) in (1,1)
    assert is_spherical(image)
    assert is_isomorphic(untwist(s, image), p1)


def test_parse_and_print_braid_words():
    word = parse_braid_word("s2' s3' s1")
    assert word.letters == ((0, 1), (2, -1), (1, -1))
    assert braid_word_to_text(word) == "s2' s3' s1"
    assert parse_braid_word("").letters == ()
    assert braid_word_to_text(BraidWord()) == ""
    roundtrip = parse_braid_word("s1 s2 s1'")
    assert braid_word_to_text(roundtrip) == "s1 s2 s1'"


def test_parse_braid_word_errors():
    with pytest.raises(ValueError):
        parse_braid_word("t1")
    with pytest.raises(ValueError):
        parse_braid_word("s0")
    with pytest.raises(ValueError):
        parse_braid_word("sx")


def test_braid_word_inverse_cancels(alg_a3):
    rng = random.Random("cancel")
    for _ in range(5):
        word = random_word(rng, 3, 5)
        y = simple_object(alg_a3, rng.randrange(3))
        assert is_isomorphic(apply_braid(alg_a3, word.then(word.inverse()), y), y)


def test_figure_word_golden_object(alg_a3):
    word = parse_braid_word("s2' s3' s1")
    obj = apply_braid(alg_a3, word, simple_object(alg_a3, 1))
    assert obj.to_json_dict() == {
        "generators": [[3, 0], [2, 0], [1, 0]],
        "differential": [
            [0, 1, [["a", 2, 3, -1, 1]]],
            [1, 2, [["a", 1, 2, 1, 1]]],
        ],
    }
    assert obj.k_class() == (1, 1, 1)
    assert is_spherical(obj)


def test_twist_triangles_exist(alg_a2):
    p1, p2 = simple_object(alg_a2, 0), simple_object(alg_a2, 1)
    triangle = twist_triangle(p1, p2)
    assert triangle is not None
    tensor, middle, twisted = triangle
    assert middle == p2
    assert tensor.k_class() == (-1, 0)  # one copy of P_1[-1]
    assert twisted == twist(p1, p2)
    assert twist_triangle(simple_object(alg_a2, 0), simple_object(alg_a2, 0).shift(5)) is not None
    co = untwist_triangle(p1, p2)
    assert co is not None
    assert co[1] == p2


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_twists_inside_apply_braid_match_the_oracles(name):
    """Every twist and untwist of random words: one-pass `minimize` and the
    one-elimination reps equal the pass-by-pass and degree-by-degree oracles."""
    alg = ZigzagAlgebra(named_quiver(name))
    rng = random.Random(f"oracle-twists:{name}")
    with twists_checked_against_oracles() as counts:
        for _ in range(25):
            random_image(rng, alg, 10)
    assert counts["minimize"] >= 25 * 3 and counts["reps"] >= 25 * 3


def test_twists_of_a_265_generator_object_match_the_oracles():
    """The A3 image of the middle simple under (s1 s2' s3)^4, twist by twist."""
    alg = ZigzagAlgebra(named_quiver("A3"))
    with twists_checked_against_oracles() as counts:
        y = power_image(alg, "s1 s2' s3", 4, 1)
    assert len(y.generators) == 265
    assert counts["minimize"] == counts["reps"] == 12


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_tensor_is_the_direct_sum_of_shifts_by_the_rep_degrees(name):
    """Twisting by stable objects, which have a differential: the tensor of the
    triangle has the generators of the sum of x[-d]^{dim H^d Hom(x, y)}
    (twist) or x[d]^{dim H^d Hom(y, x)} (untwist), with the dimensions read
    from the rank-based `hom_dims`, not from the reps."""
    alg = ZigzagAlgebra(named_quiver(name))
    rng = random.Random(f"tensor:{name}")
    stab = StabilityCondition(alg, random_generic_charge(alg.quiver, rng))
    formed = 0
    for w in stab.roots:
        x = stab.stable_object(w)
        y = random_image(rng, alg, 5)
        for builder, exponent in ((twist_triangle, 1), (untwist_triangle, -1)):
            triangle = builder(x, y, _spherical_checked=True)
            if triangle is None:
                continue
            formed += 1
            source, target = (x, y) if exponent == 1 else (y, x)
            want = [g for d, n in hom_dims(source, target).items()
                    for g in x.shift(-exponent * d).generators * n]
            tensor = triangle[0] if exponent == 1 else triangle[2]
            assert sorted(tensor.generators) == sorted(want)
    assert formed >= len(stab.roots)


def _checked_cone_of_the_map(x, y, exponent):
    """Oracle: the `cone` of the twist's map laid out from the Fraction reps,
    with its closure check, shifted by [-1] for an untwist; None when the
    Hom space vanishes."""
    source, target = (x, y) if exponent == 1 else (y, x)
    reps = all_cohomology_reps(HomComplex(source, target))
    if not reps:
        return None
    tensor = direct_sum(*[x.shift(-exponent * d) for d, _ in reps])
    entries = {}
    for i, (_, rep) in enumerate(reps):
        offset = i * len(x.generators)
        for (h, g), c in rep.entries.items():
            entries[(h, g + offset) if exponent == 1 else (h + offset, g)] = c
    if exponent == 1:
        return cone(Morphism(tensor, y, 0, entries))
    return cone(Morphism(y, tensor, 0, entries)).shift(-1)


def _handed_to_minimize(op, x, y):
    """The one complex `op(x, y)` hands to `minimize`."""
    seen = []

    def recording(c):
        seen.append(c)
        return minimize(c)

    with mock.patch.object(twists, "minimize", recording):
        op(x, y, _spherical_checked=True)
    [layout] = seen
    return layout


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_each_twist_minimizes_the_checked_cone_of_its_map(name):
    """The cone each twist and untwist minimizes, laid out from the kernel
    vectors with no closure check, equals `cone` of the same map (which
    checks closure): equal generators, and equal entries in the same key
    order.  Twists of random words by simples and by stable objects, and by
    shifts of them by -1, 1 and 2, so that the copies of x sit at shifts of
    both parities.  Both sides are laid out by `homcore._cone`: this checks
    the twists' reading of several maps (copies, shifts, signs, the
    untwist's order) against its one-map reading on the validated direct
    sum, and the hand-computed cone tests pin the lines the two share."""
    alg = ZigzagAlgebra(named_quiver(name))
    n = alg.quiver.vertex_count
    rng = random.Random(f"cone-layout:{name}")
    stab = StabilityCondition(alg, random_generic_charge(alg.quiver, rng))
    xs = [simple_object(alg, v) for v in range(n)]
    stables = [stab.stable_object(w) for w in rng.sample(stab.roots, 4)]
    widest = max(stables, key=lambda x: len(x.differential))
    assert widest.differential
    xs += stables + [x.shift(s) for x in (xs[0], widest) for s in (-1, 1, 2)]
    cones = 0
    for _ in range(12):
        y = random_image(rng, alg, 6)
        for x in xs:
            for op, exponent in ((twist, 1), (untwist, -1)):
                oracle = _checked_cone_of_the_map(x, y, exponent)
                layout = _handed_to_minimize(op, x, y)
                if oracle is None:
                    assert layout is y
                    continue
                assert_same_complex(layout, oracle)
                cones += 1
    assert cones >= 12 * len(xs)


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_twists_of_plus_minus_one_data_hold_only_ints(name):
    """apply_braid on simples, and twists by stable objects, keep every entry
    an int: the reps enter the cone as the echelon's int vectors."""
    alg = ZigzagAlgebra(named_quiver(name))
    rng = random.Random(f"int-entries:{name}")
    stab = StabilityCondition(alg, random_generic_charge(alg.quiver, rng))
    entries = 0
    for _ in range(10):
        y = random_image(rng, alg, 8)
        x = stab.stable_object(rng.choice(stab.roots))
        for obj in (y, x, twist(x, y, True), untwist(x, y, True)):
            assert all(type(c) is int for c in obj.differential.values())
            entries += len(obj.differential)
    assert entries >= 50


def test_int_entries_equal_their_fractions_and_serialize_alike(alg_a3):
    """A twisted object is == to its copy with every entry a Fraction, and
    both give the same JSON."""
    rng = random.Random("int-vs-fraction")
    compared = 0
    for _ in range(10):
        y = random_image(rng, alg_a3, 8)
        as_fractions = TwistedComplex(
            alg_a3, y.generators, {k: Fraction(c) for k, c in y.differential.items()}
        )
        assert all(type(c) is Fraction for c in as_fractions.differential.values())
        assert y == as_fractions and as_fractions == y
        assert json.dumps(y.to_json_dict()) == json.dumps(as_fractions.to_json_dict())
        compared += bool(y.differential)
    assert compared >= 5


def test_apply_braid_builds_one_simple_per_vertex(monkeypatch):
    """A word of many letters on few vertices makes one simple per vertex it
    twists in, and gives the result of twisting letter by letter."""
    alg = ZigzagAlgebra(named_quiver("D4"))
    made = []

    def simple(alg, v, shift=0, real=twists.simple_object):
        made.append(v)
        return real(alg, v, shift)

    y = simple_object(alg, 1)
    word = BraidWord(((0, 1), (1, -1), (0, 1), (3, 1), (1, -1), (0, -1), (3, -1)))
    monkeypatch.setattr(twists, "simple_object", simple)
    out = apply_braid(alg, word, y)
    assert sorted(made) == [0, 1, 3]
    monkeypatch.undo()
    cur = y
    for letter in word.letters:
        cur = apply_braid(alg, BraidWord((letter,)), cur)
    assert out == cur


def test_twist_outputs_are_pinned_byte_for_byte():
    """A SHA-256 over the generators and typed entries, in key order, of the
    twist, the untwist and both triangles of 150 seeded braid images on
    A2-E6 by every simple.  The pin is the value these outputs had before
    the reps were picked by the pairing rule of `HomComplex.rep_vectors`, so
    a change to the elimination that picks the reps must leave every
    generator, entry, entry type and key order as it was."""
    h = hashlib.sha256()
    for name in ("A2", "A3", "A4", "D4", "D5", "E6"):
        alg = ZigzagAlgebra(named_quiver(name))
        rng = random.Random(f"twist-outputs:{name}")
        simples = [simple_object(alg, v) for v in range(alg.quiver.vertex_count)]
        for _ in range(25):
            y = random_image(rng, alg, 6)
            for x in simples:
                objs = [twist(x, y), untwist(x, y)]
                for triangle in (twist_triangle(x, y), untwist_triangle(x, y)):
                    objs.extend(triangle or ())
                for obj in objs:
                    h.update(repr(obj.generators).encode())
                    h.update(repr([(k, type(c).__name__, c) for k, c in obj.differential.items()]).encode())
    assert h.hexdigest() == "127e955b4a726eab111dd6daed128553f69368f5ce820efd6825b7353ac08d70"
