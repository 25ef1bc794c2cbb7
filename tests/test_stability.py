import gc
import json
import math
import random
import weakref
from fractions import Fraction

import pytest

from twistcat import (
    BraidWord,
    CentralCharge,
    ExactComplex,
    InvariantViolation,
    NonGenericChargeError,
    Phase,
    StabilityCondition,
    WeylWord,
    ZigzagAlgebra,
    apply_braid,
    braid_word_to_text,
    direct_sum,
    hom_dims,
    is_isomorphic,
    is_spherical,
    named_quiver,
    parse_braid_word,
    positive_roots,
    random_generic_charge,
    simple_object,
    twist,
    untwist,
    zero_object,
)
from twistcat import stability
from twistcat.stability import _by_arg, _on_distinct_rays, cross
from conftest import a3_reference_charge


def test_exact_complex_arithmetic():
    a = ExactComplex.of(1, 2)
    b = ExactComplex.of(-1, Fraction(1, 2))
    assert (a + b) == ExactComplex.of(0, Fraction(5, 2))
    assert (a * b) == ExactComplex.of(-2, Fraction(-3, 2))
    assert a.conjugate() == ExactComplex.of(1, -2)
    assert not ExactComplex.of(-1, 0).in_upper_half()
    assert ExactComplex.of(1, 0).in_upper_half()
    assert ExactComplex.of(0, 1).in_upper_half()


def test_phase_normalization_and_order():
    i = ExactComplex.of(0, 1)
    one = ExactComplex.of(1, 0)
    assert Phase.of(one) == Phase.integer(0)
    assert Phase.of(-one) == Phase.integer(1)
    assert Phase.of(ExactComplex.of(0, -1)) == Phase(-1, i)
    low = Phase.of(ExactComplex.of(2, 1))
    high = Phase.of(ExactComplex.of(-2, 1))
    assert low < high < Phase.integer(1)
    assert Phase.integer(0) < low
    assert low < low + 1
    assert math.isclose(float(Phase(0, i)), 0.5)


def test_phase_add_sub_roundtrip():
    rng = random.Random("phase")
    for _ in range(100):
        za = ExactComplex.of(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(0, 9)))
        zb = ExactComplex.of(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(0, 9)))
        if za.is_zero() or zb.is_zero() or not za.in_upper_half() or not zb.in_upper_half():
            continue
        pa = Phase(rng.randint(-3, 3), za)
        pb = Phase(rng.randint(-3, 3), zb)
        assert (pa + pb) - pb == pa
        assert math.isclose(float(pa + pb), float(pa) + float(pb), abs_tol=1e-12)
        assert math.isclose(float(pa - pb), float(pa) - float(pb), abs_tol=1e-12)
    assert (Phase.integer(2) - Phase.integer(2)).is_zero()


def test_charge_validation_and_json():
    with pytest.raises(ValueError):
        CentralCharge([ExactComplex.of(0, -1)])
    with pytest.raises(ValueError):
        CentralCharge([ExactComplex.of(-1, 0)])
    charge = a3_reference_charge()
    payload = charge.to_json_dict()
    assert payload["1"] == [-1, 1, 1, 2]
    back = CentralCharge.from_json_dict(json.loads(json.dumps(payload)))
    assert back.values == charge.values


def test_validate_generic(stab_a3, alg_a2):
    assert stab_a3.validate_generic()
    equal = StabilityCondition(
        alg_a2, CentralCharge([ExactComplex.of(0, 1), ExactComplex.of(0, 1)])
    )
    assert not equal.validate_generic()
    proportional = StabilityCondition(
        alg_a2, CentralCharge([ExactComplex.of(0, 1), ExactComplex.of(0, 2)])
    )
    assert not proportional.validate_generic()
    with pytest.raises(NonGenericChargeError):
        proportional.stable_object((1, 1))


def test_sign_rule_figure_pattern(stab_a3):
    seq = [(1, 1, 1), (1, 1, 0), (0, 1, 1), (0, 1, 0)]
    assert stab_a3.sign_rule(seq) == (1, -1, -1)
    assert stab_a3.sign_rule([(1, 1, 1)]) == ()
    assert stab_a3.sign_rule([]) == ()


def test_sign_rule_a2_restriction(stab_a2):
    assert stab_a2.sign_rule([(1, 1), (1, 0)]) == (1,)


def test_sign_rule_rejects_bad_input(stab_a2, alg_a2):
    with pytest.raises(ValueError):
        stab_a2.sign_rule([(1, 1), (-1, 0)])
    degenerate = StabilityCondition(
        alg_a2, CentralCharge([ExactComplex.of(0, 1), ExactComplex.of(0, 2)])
    )
    with pytest.raises(NonGenericChargeError):
        degenerate.sign_rule([(1, 0), (0, 1)])


def test_sign_rule_scaling_invariance(stab_a3, alg_a3):
    scaled = StabilityCondition(
        alg_a3,
        CentralCharge([z.scale(Fraction(7, 3)) for z in stab_a3.charge.values]),
    )
    seq = [(1, 1, 1), (1, 1, 0), (0, 1, 1), (0, 1, 0)]
    assert scaled.sign_rule(seq) == stab_a3.sign_rule(seq)
    for w in stab_a3.roots:
        assert scaled.stable_build(w).signs == stab_a3.stable_build(w).signs


def test_stable_object_simple_root(stab_a3, alg_a3):
    build = stab_a3.stable_build((0, 1, 0))
    assert build.braid.letters == ()
    assert build.obj == simple_object(alg_a3, 1)


def test_stable_object_a2(stab_a2, alg_a2):
    build = stab_a2.stable_build((1, 1))
    assert braid_word_to_text(build.braid) == "s1"
    assert build.obj == twist(simple_object(alg_a2, 0), simple_object(alg_a2, 1))


def test_stable_object_figure_word(stab_a3, alg_a3):
    word = WeylWord(base=1, letters=(0, 2, 1))
    build = stab_a3.stable_build((1, 1, 1), word)
    assert braid_word_to_text(build.braid) == "s2' s3' s1"
    obj = build.obj
    assert obj.k_class() == (1, 1, 1)
    assert is_spherical(obj)
    phases = stab_a3.phi_probes(obj)
    assert phases.in_heart
    assert phases.spread.is_zero()
    assert is_isomorphic(obj, stab_a3.stable_object((1, 1, 1)))


def test_stable_object_rejects_wrong_word(stab_a3):
    with pytest.raises(ValueError):
        stab_a3.stable_object((1, 1, 1), WeylWord(base=0, letters=(1,)))


def test_phi_bounds_examples(stab_a3, alg_a3):
    p1, p2 = simple_object(alg_a3, 0), simple_object(alg_a3, 1)
    lo, hi = (hit.phase for hit in stab_a3.phi_probes(p2))
    assert lo == hi == Phase(0, ExactComplex.of(0, 1))
    summed = direct_sum(p1, p2.shift(1))
    phases = stab_a3.phi_probes(summed)
    lo, hi = phases.bottom.phase, phases.top.phase
    assert lo == Phase(0, ExactComplex.of(-1, Fraction(1, 2)))
    assert hi == Phase(1, ExactComplex.of(0, 1))
    assert math.isclose(float(lo), 0.8524163823495667)
    assert math.isclose(float(hi), 1.5)
    assert math.isclose(float(phases.spread), 0.6475836176504333)
    assert not phases.in_heart


def test_unstable_flip_example(stab_a2, alg_a2):
    flipped = apply_braid(alg_a2, parse_braid_word("s1'"), simple_object(alg_a2, 1))
    spread = stab_a2.phi_probes(flipped).spread
    assert not spread.is_zero()
    assert spread > Phase.integer(0)
    build = stab_a2.stable_build((1, 1))  # the lift s1 of P2
    assert build.flipped(0) == flipped
    for outside in (-1, 1):
        with pytest.raises(ValueError, match=f"no exponent {outside}"):
            build.flipped(outside)


def test_phi_bounds_rejects_zero(stab_a2, alg_a2):
    with pytest.raises(ValueError):
        stab_a2.phi_probes(zero_object(alg_a2))


def test_heart_examples(stab_a2, alg_a2):
    p1, p2 = simple_object(alg_a2, 0), simple_object(alg_a2, 1)
    assert stab_a2.phi_probes(direct_sum(p1, p2)).in_heart
    assert not stab_a2.phi_probes(direct_sum(p1, p2.shift(1))).in_heart
    assert stab_a2.phi_probes(stab_a2.stable_object((1, 1))).spread.is_zero()


def test_heart_criterion_for_simple_twists(stab_a3, alg_a3):
    """An inverse twist by a simple keeps a heart object in the heart exactly
    when the simple admits no map into it (dually for positive twists)."""
    rng = random.Random("heart-criterion")
    heart_objects = [stab_a3.stable_object(w) for w in stab_a3.roots]
    for _ in range(6):
        pieces = rng.sample(heart_objects, k=rng.randint(1, 2))
        x = direct_sum(*pieces)
        for v in range(3):
            p = simple_object(alg_a3, v)
            into = hom_dims(p, x).get(0, 0)
            assert stab_a3.phi_probes(untwist(p, x)).in_heart == (into == 0), (v, pieces)
            onto = hom_dims(x, p).get(0, 0)
            assert stab_a3.phi_probes(twist(p, x)).in_heart == (onto == 0), (v, pieces)


def test_phase_zero_charge_is_legal():
    q = named_quiver("A1")
    alg = ZigzagAlgebra(q)
    stab = StabilityCondition(alg, CentralCharge([ExactComplex.of(1, 0)]))
    assert stab.validate_generic()
    p = simple_object(alg, 0)
    phases = stab.phi_probes(p)
    assert phases.bottom.phase == phases.top.phase == Phase.integer(0)
    assert phases.in_heart
    assert not stab.phi_probes(p.shift(1)).in_heart  # the heart window is half-open


def test_random_generic_charges_are_generic():
    q = named_quiver("A4")
    for seed in range(5):
        charge = random_generic_charge(q, random.Random(f"gen:{seed}"))
        stab = StabilityCondition(ZigzagAlgebra(q), charge)
        assert stab.validate_generic()
        for z in charge.values:
            assert z.re.denominator <= 64 and z.im.denominator <= 64


def test_stable_objects_under_many_charges(alg_a3):
    q = alg_a3.quiver
    rng = random.Random("many-charges")
    for _ in range(3):
        stab = StabilityCondition(alg_a3, random_generic_charge(q, rng))
        for w in stab.roots:
            obj = stab.stable_object(w)
            assert obj.k_class() == w
            phases = stab.phi_probes(obj)
            assert phases.in_heart
            assert phases.spread.is_zero()


def _phase_sorted_candidates(stab, y, side):
    """Oracle: every (root, k) of the probe windows, sorted by Phase(k, Z(root))."""
    lo_y, hi_y = y.shift_range()
    out = []
    for w in stab.roots:
        lo_s, hi_s = stab.stable_object(w).shift_range()
        if side == "bottom":
            k_range = range(lo_y - hi_s, hi_y - lo_s + 3)
        else:
            k_range = range(lo_y - hi_s - 2, hi_y - lo_s + 1)
        out.extend((Phase(k, stab.charge.of_root(w)), w, k) for k in k_range)
    out.sort(key=lambda item: item[0], reverse=(side == "top"))
    return [(w, k) for _, w, k in out]


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_probe_candidates_follow_phase_order(name):
    """The integer (k, arg rank) order is the order of the candidates' phases."""
    alg = ZigzagAlgebra(named_quiver(name))
    q = alg.quiver
    rng = random.Random(f"candidate-order:{name}")
    for _ in range(3):
        stab = StabilityCondition(alg, random_generic_charge(q, rng))
        word = BraidWord(
            tuple((rng.randrange(q.vertex_count), rng.choice((1, -1))) for _ in range(3))
        )
        targets = [
            stab.stable_object(rng.choice(stab.roots)),
            apply_braid(alg, word, simple_object(alg, rng.randrange(q.vertex_count))),
        ]
        for y in targets:
            for side in ("bottom", "top"):
                got = list(stab._probe_candidates(y, side))
                assert [(item[1], item[2]) for item in got] == _phase_sorted_candidates(stab, y, side)
                assert all(item[0] == stab.phase_of_root(item[1], item[2]) for item in got)


def test_generic_charge_check_matches_all_pairs(a3, d4):
    """Sorting by argument and comparing neighbours finds every shared ray."""
    rng = random.Random("generic-check")
    seen = set()
    for q in (a3, d4):
        alg = ZigzagAlgebra(q)
        roots = positive_roots(q)
        for _ in range(200):
            charge = CentralCharge([
                ExactComplex.of(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(q.vertex_count)
            ])
            images = [charge.of_root(w) for w in roots]
            all_pairs = all(
                cross(images[i], images[j]) != 0
                for i in range(len(images)) for j in range(i + 1, len(images))
            )
            assert _on_distinct_rays([images[i] for i in _by_arg(images)]) == all_pairs
            assert StabilityCondition(alg, charge).validate_generic() == all_pairs
            seen.add(all_pairs)
    assert seen == {True, False}


# -- the per-algebra record shared by all charges ------------------------------


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_shared_lifts_match_fresh_braid_lifts(name):
    """Every stable object equals the signed braid lift built outside the record."""
    alg = ZigzagAlgebra(named_quiver(name))
    rng = random.Random(f"shared-lifts:{name}")
    for _ in range(4):
        stab = StabilityCondition(alg, random_generic_charge(alg.quiver, rng))
        for w in stab.roots:
            build = stab.stable_build(w)
            assert build.signs == stab.sign_rule(build.sequence)
            fresh = apply_braid(alg, build.braid, simple_object(alg, build.word.base))
            assert build.obj == fresh, w


def test_conditions_with_equal_signs_share_the_object(a3):
    alg = ZigzagAlgebra(a3)
    first = StabilityCondition(alg, a3_reference_charge())
    scaled = StabilityCondition(
        alg, CentralCharge([z.scale(Fraction(7, 3)) for z in first.charge.values])
    )
    rng = random.Random("shared-signs")
    others = [StabilityCondition(alg, random_generic_charge(a3, rng)) for _ in range(4)]
    shared_words = 0
    for w in first.roots:
        build = first.stable_build(w)
        assert scaled.stable_build(w).obj is build.obj
        for other in others:
            if other.stable_build(w).signs == build.signs:
                assert other.stable_build(w).obj is build.obj
                shared_words += bool(build.signs)
    assert shared_words > 0
    # another algebra of the same quiver shares nothing
    apart = StabilityCondition(ZigzagAlgebra(a3), first.charge)
    assert apart.alg.charge_free is not alg.charge_free
    for w in first.roots:
        obj = apart.stable_object(w)
        assert obj == first.stable_object(w)
        assert obj is not first.stable_object(w)
        assert obj.alg is apart.alg


def test_certificate_runs_once_per_lift(monkeypatch, d4):
    alg = ZigzagAlgebra(d4)
    certified = []

    def counting(obj, real=stability.is_spherical):
        certified.append(obj)
        return real(obj)

    monkeypatch.setattr(stability, "is_spherical", counting)
    rng = random.Random("certificate")
    for _ in range(2):
        StabilityCondition(alg, random_generic_charge(d4, rng)).stable_table()
    lifts = alg.charge_free.lifts
    assert len(certified) == len(lifts) < 2 * len(positive_roots(d4))
    assert {id(obj) for obj in certified} == {id(obj) for obj in lifts.values()}


def test_failed_certificate_raises_and_is_not_stored(monkeypatch, a3):
    alg = ZigzagAlgebra(a3)
    stab = StabilityCondition(alg, a3_reference_charge())
    monkeypatch.setattr(stability, "is_spherical", lambda obj: False)
    with pytest.raises(InvariantViolation):
        stab.stable_build((1, 1, 1))
    with pytest.raises(InvariantViolation):
        stab.stable_build((1, 1, 1), WeylWord(base=1, letters=(0, 2, 1)))
    assert alg.charge_free.lifts == {}
    monkeypatch.undo()
    obj = stab.stable_object((1, 1, 1))
    assert list(alg.charge_free.lifts.values()) == [obj]


def test_algebra_is_freed_with_its_conditions(a3):
    alg = ZigzagAlgebra(a3)
    stab = StabilityCondition(alg, a3_reference_charge())
    stab.stable_table()
    assert alg.charge_free.lifts
    ref = weakref.ref(alg)
    del alg, stab
    gc.collect()
    assert ref() is None


def test_roots_and_sequences_are_fresh_per_condition(alg_a3):
    first = StabilityCondition(alg_a3, a3_reference_charge())
    second = StabilityCondition(alg_a3, a3_reference_charge())
    roots = list(second.roots)
    sequence = list(second.stable_build((1, 1, 1)).sequence)
    first.roots.reverse()
    first.roots.append((9, 9, 9))
    first.stable_build((1, 1, 1)).sequence.clear()
    assert second.roots == roots
    third = StabilityCondition(alg_a3, a3_reference_charge())
    assert third.roots == roots
    assert third.stable_build((1, 1, 1)).sequence == sequence
