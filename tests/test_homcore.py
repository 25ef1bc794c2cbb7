import itertools
import json
import random
from fractions import Fraction

import pytest

from twistcat import (
    BraidWord,
    Generator,
    HypothesisNotMet,
    Morphism,
    TwistedComplex,
    ZigzagAlgebra,
    apply_braid,
    cone,
    direct_sum,
    find_isomorphism,
    find_shift_isomorphism,
    hom_dims,
    identity_morphism,
    is_isomorphic,
    is_spherical,
    minimize,
    named_quiver,
    simple_object,
    zero_object,
)
from twistcat import homcore
from twistcat.homcore import HomComplex
from conftest import random_word


def staircase(alg, sign=1):
    """Three-generator extension object on A3 with differential arrows."""
    diff = {
        (1, 0): 1,
        (2, 1): sign,
    }
    return TwistedComplex(alg, [Generator(0, 0), Generator(1, 0), Generator(2, 0)], diff)


def arrow_extension(alg):
    """Two-generator complex P_1 -> P_0-target on A2 (the positive twist of P_1)."""
    return TwistedComplex(
        alg, [Generator(1, 0), Generator(0, 0)], {(0, 1): 1}
    )


def test_validation_rejects_bad_degree(alg_a2):
    # a degree-1 entry at a single vertex: there is no such path
    with pytest.raises(ValueError):
        TwistedComplex(alg_a2, [Generator(0, 0), Generator(0, 0)], {(1, 0): 1})


def test_validation_rejects_bad_vertices(alg_a3):
    # vertices 0 and 2 of A3 are not adjacent
    with pytest.raises(ValueError):
        TwistedComplex(alg_a3, [Generator(0, 0), Generator(2, 0)], {(1, 0): 1})


@pytest.mark.parametrize("bad", [1.0, 0.0, True, "1"])
def test_validation_rejects_inexact_entries(alg_a2, bad):
    gens = [Generator(1, 0), Generator(0, 0)]
    with pytest.raises(ValueError, match=r"entry \(0, 1\)"):
        TwistedComplex(alg_a2, gens, {(0, 1): bad})
    p = simple_object(alg_a2, 0)
    with pytest.raises(ValueError, match=r"entry \(0, 0\)"):
        Morphism(p, p, 0, {(0, 0): bad})


def _bad_morphism(degree, entries):
    """In place of a differential: build Morphism(P0, P0, degree, entries) on the algebra."""
    return lambda alg: Morphism(simple_object(alg, 0), simple_object(alg, 0), degree, entries)


@pytest.mark.parametrize(
    "gens, diff, offender",
    [
        ([Generator(-1, 0)], {}, r"generator \(-1, 0\)"),
        ([Generator(5, 0)], {}, r"generator \(5, 0\)"),
        ([Generator(1, 0.5)], {}, r"generator \(1, 0\.5\)"),
        ([Generator(True, 0)], {}, r"generator \(True, 0\)"),
        ([Generator(0, False)], {}, r"generator \(0, False\)"),
        ([Generator(1, 0), Generator(0, 0)], {(0.0, 1): 1}, r"entry key \(0\.0, 1\)"),
        ([Generator(1, 0), Generator(0, 0)], {(False, True): 1}, r"entry key \(False, True\)"),
        ([Generator(1, 0), Generator(0, 0)], {(0, 1, 0): 1}, r"entry key \(0, 1, 0\)"),
        ([None], {}, r"generator None"),
        (5, {}, r"generators 5"),
        ([(0, 0, 1)], {}, r"generator \(0, 0, 1\)"),
        ([Generator(1, 0), Generator(0, 0)], [((0, 1), 1)], r"entries \[\(\(0, 1\), 1\)\]"),
        (None, _bad_morphism(0, [((0, 0), 1)]), r"entries \[\(\(0, 0\), 1\)\]"),
        (None, _bad_morphism("0", {}), r"degree '0'"),
        (None, _bad_morphism(True, {}), r"degree True"),
    ],
)
def test_validation_rejects_bad_generators_and_keys(alg_a2, gens, diff, offender):
    with pytest.raises(ValueError, match=offender):
        diff(alg_a2) if callable(diff) else TwistedComplex(alg_a2, gens, diff)


def test_validation_rejects_algebra_elements(alg_a2):
    # an algebra element is not an exact rational
    with pytest.raises(ValueError, match=r"entry \(0, 1\)"):
        TwistedComplex(alg_a2, [Generator(1, 0), Generator(0, 0)], {(0, 1): alg_a2.arrow(0, 1)})


def test_validation_accepts_ints_and_fractions(alg_a2):
    gens = [Generator(1, 0), Generator(0, 0)]
    as_int = TwistedComplex(alg_a2, gens, {(0, 1): 2})
    as_frac = TwistedComplex(alg_a2, gens, {(0, 1): Fraction(2)})
    assert as_int == as_frac
    assert type(as_int.differential[(0, 1)]) is Fraction
    assert TwistedComplex(alg_a2, gens, {(0, 1): 0}).differential == {}


def test_validation_rejects_nonsquare_zero(alg_a2):
    diff = {
        (1, 0): 1,
        (2, 1): 1,
    }
    with pytest.raises(ValueError):
        TwistedComplex(
            alg_a2, [Generator(0, 0), Generator(1, 0), Generator(0, 0)], diff
        )


def test_shift_behaviour(alg_a2):
    p = simple_object(alg_a2, 1)
    assert p.shift(0) is p
    assert p.shift(1).k_class() == (0, -1)
    c = arrow_extension(alg_a2)
    assert c.shift(1).shift(-1) == c
    # odd shifts flip the differential sign
    assert c.shift(1).differential[(0, 1)] == -1


def test_k_class_examples(alg_a2):
    assert simple_object(alg_a2, 1).k_class() == (0, 1)
    assert simple_object(alg_a2, 1, shift=1).k_class() == (0, -1)
    assert arrow_extension(alg_a2).k_class() == (1, 1)


def test_hom_dims_examples(alg_a2, alg_a3):
    p1, p2 = simple_object(alg_a2, 0), simple_object(alg_a2, 1)
    assert hom_dims(p1, p1) == {0: 1, 2: 1}
    assert hom_dims(p1, p2) == {1: 1}
    assert hom_dims(simple_object(alg_a3, 0), simple_object(alg_a3, 2)) == {}
    ext = arrow_extension(alg_a2)
    assert hom_dims(ext, ext) == {0: 1, 2: 1}


def test_hom_dims_shift_shuffle(alg_a2):
    p1 = simple_object(alg_a2, 0)
    assert hom_dims(p1, p1.shift(1)) == {-1: 1, 1: 1}


def test_cone_of_identity_is_zero(alg_a2):
    p = simple_object(alg_a2, 0)
    assert minimize(cone(identity_morphism(p))).is_zero


def test_cone_of_zero_is_sum(alg_a2):
    p1, p2 = simple_object(alg_a2, 0), simple_object(alg_a2, 1)
    c = cone(Morphism(p1, p2, 0, {}))
    assert c.generators == (Generator(1, 0), Generator(0, 1))
    assert c.differential == {}


def test_cone_of_arrow(alg_a2):
    p2 = simple_object(alg_a2, 1)
    p1_down = simple_object(alg_a2, 0, shift=-1)
    f = Morphism(p1_down, p2, 0, {(0, 0): 1})
    c = cone(f)
    assert c.k_class() == (1, 1)
    assert minimize(c) == c


def test_cone_rejects_nonclosed(alg_a2):
    ext = arrow_extension(alg_a2)
    # projecting onto the subobject generator does not commute with the differential
    f = Morphism(ext, simple_object(alg_a2, 1), 0, {(0, 0): 1})
    assert not f.is_closed()
    with pytest.raises(ValueError):
        cone(f)


def test_cone_rejects_wrong_degree(alg_a2):
    p1 = simple_object(alg_a2, 0)
    f = Morphism(p1, p1.shift(-1), 1, {(0, 0): 1})
    with pytest.raises(ValueError):
        cone(f)


def test_minimize_is_idempotent_and_preserves_probes(alg_a3):
    rng = random.Random("minimize")
    probes = [simple_object(alg_a3, v, shift=k) for v in range(3) for k in (-1, 0, 1)]
    for _ in range(10):
        word = random_word(rng, 3, 5)
        y = apply_braid(alg_a3, word, simple_object(alg_a3, rng.randrange(3)))
        m = minimize(y)
        assert minimize(m) == m
        assert m.k_class() == y.k_class()
        for p in probes:
            assert hom_dims(y, p) == hom_dims(m, p)


def test_minimize_cancels_padded_pair(alg_a2):
    # P_1 plus a contractible P_0 -> P_0[-1] pair collapses to P_1 exactly
    padded = TwistedComplex(
        alg_a2,
        [Generator(1, 0), Generator(0, 0), Generator(0, -1)],
        {(2, 1): 1},
    )
    assert minimize(padded) == simple_object(alg_a2, 1)


def test_is_spherical(alg_a2):
    p1, p2 = simple_object(alg_a2, 0), simple_object(alg_a2, 1)
    assert is_spherical(p1)
    assert is_spherical(arrow_extension(alg_a2))
    assert not is_spherical(direct_sum(p1, p2))
    assert not is_spherical(zero_object(alg_a2))


def test_is_isomorphic_basics(alg_a2):
    p1, p2 = simple_object(alg_a2, 0), simple_object(alg_a2, 1)
    assert is_isomorphic(p1, p1)
    assert not is_isomorphic(p1, p2)
    assert not is_isomorphic(p1, p1.shift(2))
    assert is_isomorphic(zero_object(alg_a2), zero_object(alg_a2))
    assert not is_isomorphic(p1, zero_object(alg_a2))


def test_is_isomorphic_detects_sign_twins(alg_a3):
    assert is_isomorphic(staircase(alg_a3, 1), staircase(alg_a3, -1))


def _count_cones(monkeypatch) -> list:
    """Record every cone find_isomorphism builds."""
    built = []

    def counting(f):
        built.append(f)
        return cone(f)

    monkeypatch.setattr(homcore, "cone", counting)
    return built


def test_find_isomorphism_beyond_one_representative(alg_a2, monkeypatch):
    built = _count_cones(monkeypatch)
    p1, p2 = simple_object(alg_a2, 0), simple_object(alg_a2, 1)
    # dim H^0 Hom = 0 and, against P1, dim 2 where End^0(P1) has dim 1: no cone
    assert find_isomorphism(p1, p1.shift(4)) == (None, 0)
    padded = direct_sum(p1, p1, p1.shift(1))
    assert padded.k_class() == p1.k_class()
    assert find_isomorphism(p1, padded) == (None, 0)
    assert built == []
    # equal dimensions above one are not decided, and never read as "no"
    s = direct_sum(p1, p2)
    with pytest.raises(HypothesisNotMet, match="= 2 > 1"):
        find_isomorphism(s, direct_sum(p2, p1))
    assert not is_spherical(s) and is_isomorphic(s, s)


def _bounded_search(x, y) -> bool:
    """The bounded candidate search find_isomorphism replaced, as an oracle:
    each H^0 representative, then small integer combinations of them; an
    isomorphism is a candidate whose cone is acyclic."""
    x, y = minimize(x), minimize(y)
    if x.is_zero or y.is_zero:
        return x.is_zero and y.is_zero
    if x.k_class() != y.k_class():
        return False
    if x == y:
        return True
    reps = HomComplex(x, y).cocycle_reps(0)
    m = len(reps)
    combos = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    if 1 < m <= 3:
        combos += [
            c for c in itertools.product(range(-2, 3), repeat=m) if any(c) and c.count(0) != m - 1
        ]
    elif m > 3:
        pairs = itertools.combinations(range(m), 2)
        combos += [tuple(int(k in pair) for k in range(m)) for pair in pairs]
        combos.append((1,) * m)
    for coeffs in combos:
        entries = {}
        for rep, a in zip(reps, coeffs):
            for key, c in rep.entries.items():
                entries[key] = entries.get(key, 0) + a * c
        if minimize(cone(Morphism(x, y, 0, entries, validate=False))).is_zero:
            return True
    return False


def _sign_twin(x, rng):
    """x under a random diagonal ±1 change of basis: isomorphic, rarely equal."""
    signs = [rng.choice((1, -1)) for _ in x.generators]
    diff = {(h, g): signs[h] * signs[g] * c for (h, g), c in x.differential.items()}
    return TwistedComplex(x.alg, x.generators, diff)


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_find_isomorphism_matches_bounded_search(name, monkeypatch):
    alg = ZigzagAlgebra(named_quiver(name))
    n = alg.quiver.vertex_count
    rng = random.Random(f"iso-oracle-{name}")
    edges = [(i, j) for i in range(n) for j in range(n) if alg.quiver.adjacent(i, j)]
    built = _count_cones(monkeypatch)
    verdicts, cones = [], 0
    for _ in range(12):
        v = rng.randrange(n)
        word = random_word(rng, n, 8, min_len=4)
        i, j = rng.choice(edges)
        e = rng.choice((1, -1))
        x = apply_braid(alg, word.then(BraidWord(((i, e), (j, e), (i, e)))), simple_object(alg, v))
        y = apply_braid(alg, word.then(BraidWord(((j, e), (i, e), (j, e)))), simple_object(alg, v))
        for other in (y, y.shift(2), _sign_twin(y, rng)):
            built.clear()
            witness, _ = find_isomorphism(x, other)
            assert len(built) <= 1
            cones += len(built)
            want = _bounded_search(x, other)
            assert (witness is not None) == want
            if want:
                assert witness.degree == 0 and witness.is_closed()
                assert minimize(cone(witness)).is_zero
            verdicts.append(want)
    assert any(verdicts) and not all(verdicts) and cones > 0


def test_find_shift_isomorphism(alg_a2):
    ext = arrow_extension(alg_a2)
    assert find_shift_isomorphism(ext, ext.shift(3)) == -3
    assert find_shift_isomorphism(ext, simple_object(alg_a2, 0)) is None


def _shift_iso_by_range(x, y):
    """The search find_shift_isomorphism replaced: every shift in a range."""
    x = minimize(x)
    y = minimize(y)
    if x.is_zero and y.is_zero:
        return 0
    if x.is_zero or y.is_zero:
        return None
    lo_x, hi_x = x.shift_range()
    lo_y, hi_y = y.shift_range()
    kx = x.k_class()
    for k in range(lo_x - hi_y - 2, hi_x - lo_y + 3):
        shifted = y.shift(k)
        if shifted.k_class() != kx:
            continue
        if is_isomorphic(x, shifted):
            return k
    return None


@pytest.mark.parametrize("name", ["alg_a3", "alg_d4"])
def test_forced_shift_matches_range_search(name, request):
    alg = request.getfixturevalue(name)
    n = alg.quiver.vertex_count
    rng = random.Random(f"forced-shift-{name}")
    verdicts = []
    edges = [(i, j) for i in range(n) for j in range(n) if alg.quiver.adjacent(i, j)]
    for _ in range(40):
        v = rng.randrange(n)
        word = random_word(rng, n, 4)
        i, j = rng.choice(edges)
        e = rng.choice((1, -1))
        # x is one side of a braid relation; y the other side or a random image, shifted
        x = apply_braid(alg, word.then(BraidWord(((i, e), (j, e), (i, e)))), simple_object(alg, v))
        if rng.random() < 0.5:
            y = apply_braid(alg, word.then(BraidWord(((j, e), (i, e), (j, e)))), simple_object(alg, v))
        else:
            y = apply_braid(alg, random_word(rng, n, 6), simple_object(alg, rng.randrange(n)))
        y = y.shift(rng.randint(-3, 3))
        want = _shift_iso_by_range(x, y)
        assert find_shift_isomorphism(x, y) == want
        verdicts.append(want is not None)
    assert any(verdicts) and not all(verdicts)


def test_direct_sum_and_zero(alg_a2):
    p1, p2 = simple_object(alg_a2, 0), simple_object(alg_a2, 1)
    s = direct_sum(p1, zero_object(alg_a2), p2)
    assert s.k_class() == (1, 1)
    assert hom_dims(s, s)[0] == 2


def test_serialization_deterministic(alg_a2):
    ext = arrow_extension(alg_a2)
    payload = ext.to_json_dict()
    assert payload == {
        "generators": [[2, 0], [1, 0]],
        "differential": [[0, 1, [["a", 1, 2, 1, 1]]]],
    }
    json.dumps(payload)  # must be JSON-serializable as-is


def test_serialization_names_implied_paths(alg_a2):
    gens = [Generator(0, 0), Generator(0, 1), Generator(0, -1)]
    x = TwistedComplex(alg_a2, gens, {(1, 0): Fraction(1, 2), (2, 0): -3})
    assert x.to_json_dict()["differential"] == [
        [1, 0, [["l", 1, 1, 1, 2]]],
        [2, 0, [["e", 1, 1, -3, 1]]],
    ]
