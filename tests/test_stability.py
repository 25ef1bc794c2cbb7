import copy
import dataclasses
import gc
import json
import math
import operator
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from twistcat import (
    BraidWord,
    CentralCharge,
    ExactComplex,
    Generator,
    InvariantViolation,
    NonGenericChargeError,
    Phase,
    StabilityCondition,
    TwistedComplex,
    WeylWord,
    ZigzagAlgebra,
    apply_braid,
    braid_word_to_text,
    cone,
    direct_sum,
    heart_align,
    hom_dims,
    identity_morphism,
    minimal_word,
    minimize,
    named_quiver,
    parse_braid_word,
    positive_roots,
    random_generic_charge,
    simple_object,
    twist,
    untwist,
    zero_object,
)
from twistcat import homcore, stability
from twistcat.stability import _by_argument, _lattice, _ray
from conftest import (
    FractionPhase,
    a3_reference_charge,
    assert_phase_is_the_oracle,
    cross,
    assert_probes_match_the_unpruned_walk,
    two_walk_probes,
    unpruned_first_hit,
)


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
        assert math.isclose(float(pa - pb), float(pa) - float(pb), abs_tol=1e-12)
    assert (Phase.integer(2) - Phase.integer(2)).is_zero()


# -- phases on integer rays against the Fraction oracle ------------------------

ORACLE_SETTINGS = settings(derandomize=True, database=None, deadline=None)
_parts = st.one_of(
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 8)),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**9)),
)
_nonzero = st.builds(ExactComplex, _parts, _parts).filter(lambda z: not z.is_zero())


ALGEBRAS = {name: ZigzagAlgebra(named_quiver(name)) for name in ("A3", "D4")}


def _both_of(z: ExactComplex, shift: int) -> tuple[Phase, FractionPhase]:
    return Phase.of(z, shift), FractionPhase.of(z, shift)


@ORACLE_SETTINGS
@given(_nonzero, _nonzero, st.integers(-3, 3), st.integers(-3, 3))
@example(ExactComplex.of(1, 1), ExactComplex.of(-1), 0, 0)  # upper half, negative real
@example(ExactComplex.of(1, -1), ExactComplex.of(2), 1, -1)  # lower half, positive real
@example(ExactComplex.of(0, 2), ExactComplex.of(0, -3), 2, 2)  # i and -i
def test_phases_on_rays_agree_with_the_fraction_oracle(za, zb, sa, sb):
    """Every Phase.of branch, order, equality, integer sums and differences,
    and the float, repr and JSON of each, equal the Fraction computation."""
    a, oa = _both_of(za, sa)
    b, ob = _both_of(zb, sb)
    assert_phase_is_the_oracle(a, oa)
    assert_phase_is_the_oracle(b, ob)
    assert (a < b, a == b, a > b, a <= b, a >= b, a != b) == (
        oa < ob, oa == ob, oa > ob, oa <= ob, oa >= ob, oa != ob
    )
    assert (a < a, a == a, a <= a) == (False, True, True)
    assert_phase_is_the_oracle(a - b, oa - ob)
    assert_phase_is_the_oracle(b - a, ob - oa)
    assert_phase_is_the_oracle(a + sb, oa + sb)
    assert_phase_is_the_oracle(a - a, oa - oa)
    if za.in_upper_half():
        assert_phase_is_the_oracle(Phase(sa, za), FractionPhase(sa, za))
        assert Phase(sa, za) == a
    else:
        with pytest.raises(ValueError):
            Phase(sa, za)
    for k in (sa, sb):
        assert_phase_is_the_oracle(Phase.integer(k), FractionPhase.integer(k))
        assert (a < Phase.integer(k)) == (oa < FractionPhase.integer(k))


@settings(ORACLE_SETTINGS, max_examples=16)
@given(st.sampled_from(["A3", "D4"]), st.integers(0, 2**32))
def test_hits_spreads_and_alignments_agree_with_the_fraction_oracle(name, seed):
    """A probe hit equals Phase(k, Z(w)) on the Fraction charge, a spread the
    oracle's difference, and heart_align's alpha the oracle's window start,
    down to float, repr and JSON."""
    rng = random.Random(seed)
    alg = ALGEBRAS[name]
    q = alg.quiver
    stab = StabilityCondition(alg, random_generic_charge(q, rng))
    for _ in range(3):
        word = BraidWord(tuple(
            (rng.randrange(q.vertex_count), rng.choice((1, -1))) for _ in range(rng.randint(0, 5))
        ))
        y = apply_braid(alg, word, simple_object(alg, rng.randrange(q.vertex_count)))
        phases = stab.phi_probes(y.shift(rng.randint(-2, 2)))
        oracle = [FractionPhase(hit.shift, stab.charge.of_root(hit.root)) for hit in phases]
        for hit, want in zip(phases, oracle):
            assert_phase_is_the_oracle(hit.phase, want)
            assert hit.phase == stab.phase_of_root(hit.root, hit.shift)
        assert_phase_is_the_oracle(phases.spread, oracle[1] - oracle[0])
    transport = BraidWord(tuple(
        (rng.randrange(q.vertex_count), rng.choice((1, -1))) for _ in range(rng.randint(1, 4))
    ))
    result = heart_align(stab, transport)
    bottom, top = stab.phi_probes(result.final)
    lo = FractionPhase(bottom.shift, stab.charge.of_root(bottom.root))
    hi = FractionPhase(top.shift, stab.charge.of_root(top.root))
    floor = FractionPhase.integer(lo.shift)
    assert_phase_is_the_oracle(result.alpha, floor if hi < floor + 1 else lo)


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


INEXACT = {
    "an int charge": lambda alg: CentralCharge([1, 2]),
    "a float charge": lambda alg: StabilityCondition(
        alg, CentralCharge([ExactComplex(0.5, 1.0), ExactComplex(0, 1)])),
    "a bool charge": lambda alg: CentralCharge([ExactComplex(True, True), ExactComplex(0, 1)]),
    "a float witness": lambda alg: Phase(0, ExactComplex(0.5, 1.0)),
    "a float witness of Phase.of": lambda alg: Phase.of(ExactComplex(0.5, 1.0)),
    "a bool shift": lambda alg: Phase(True, ExactComplex.of(0, 1)),
    "a bool integer phase": lambda alg: Phase.integer(True),
    "a float integer phase": lambda alg: Phase.integer(1.0),
    "a bool shift of Phase.of": lambda alg: Phase.of(ExactComplex.of(1), True),
}


@pytest.mark.parametrize("case", INEXACT)
def test_charges_and_phases_reject_inexact_parts_and_bool_shifts(alg_a2, case):
    """A charge or phase witness that is not an ExactComplex of int or
    Fraction parts, and a shift that is not an int (a bool included),
    raise ValueError in the constructor instead of failing later."""
    with pytest.raises(ValueError):
        INEXACT[case](alg_a2)


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


def test_stable_object_rejects_wrong_word(stab_a3, stab_a2):
    with pytest.raises(ValueError):
        stab_a3.stable_object((1, 1, 1), WeylWord(base=0, letters=(1,)))
    with pytest.raises(ValueError, match=r"\(2, 0\) is not a positive root"):
        stab_a2.stable_build((2, 0))


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
    for outside in (-1, 1, False, True):  # an index is an int, not a bool
        with pytest.raises(ValueError, match=f"no exponent {outside}"):
            build.flipped(outside)


def test_phi_bounds_rejects_zero(stab_a2, alg_a2):
    """The zero object, and the cone of an identity, which minimizes to it."""
    contractible = cone(identity_morphism(simple_object(alg_a2, 1, 2)))
    for y in (zero_object(alg_a2), contractible):
        with pytest.raises(ValueError, match="the zero object has no phases"):
            stab_a2.phi_probes(y)


def test_phi_probes_minimizes_only_an_input_with_a_degree_zero_entry(
    monkeypatch, stab_a3, alg_a3
):
    """Minimal inputs are probed as they are; an input padded with the cone of
    an identity is minimized once and probes like its minimal model."""
    minimized = []

    def recording(c, real=stability.minimize):
        minimized.append(c)
        return real(c)

    monkeypatch.setattr(stability, "minimize", recording)
    rng = random.Random("minimize-only-padded")
    for _ in range(6):
        word = BraidWord(tuple((rng.randrange(3), rng.choice((1, -1))) for _ in range(4)))
        y = apply_braid(alg_a3, word, simple_object(alg_a3, rng.randrange(3)))
        pad = cone(identity_morphism(simple_object(alg_a3, rng.randrange(3), rng.randint(-2, 2))))
        padded = direct_sum(y, pad)
        assert minimize(padded) == y
        minimized.clear()
        phases = stab_a3.phi_probes(y)
        assert minimized == []
        assert stab_a3.phi_probes(padded) == phases
        assert minimized == [padded]


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


def _generator_counts(y, shift=None):
    """Oracle: the number of generators of y at each vertex, or of those at one shift."""
    counts = [0] * y.alg.quiver.vertex_count
    for v, s in y.generators:
        counts[v] += shift is None or s == shift
    return counts


def _phase_sorted_candidates(stab, y, side):
    """Oracle: the (root, k) a walk tests, sorted by Phase(k, Z(root)).

    For an acyclic y, the bottom walk tests only k = lo_y and the top walk
    only k = hi_y, from y's generator-phase bound on, and only the roots w
    <= the generator count per vertex at that shift: no other candidate can
    be a first hit (see the stability module docstring).  For y with a cycle,
    every (root, k) where a Hom degree exists against a record at shift 0:
    lo_y <= k < hi_y + 3 for the bottom, lo_y - 2 <= k < hi_y + 1 for the top.
    """
    lo_y, hi_y = y.shift_range()
    if stab._generator_bounds(y) is None:
        ks = range(lo_y, hi_y + 3) if side == "bottom" else range(lo_y - 2, hi_y + 1)
        out = [(Phase(k, stab.charge.of_root(w)), w, k) for w in stab.roots for k in ks]
    else:
        low, high = _generator_phase_bounds(stab, y)
        k = lo_y if side == "bottom" else hi_y
        counts = _generator_counts(y, k)
        out = [
            (Phase(k, stab.charge.of_root(w)), w, k)
            for w in stab.roots if all(c <= n for c, n in zip(w, counts))
        ]
        out = [item for item in out if (low <= item[0] if side == "bottom" else item[0] <= high)]
    out.sort(key=lambda item: item[0], reverse=(side == "top"))
    return [(w, k) for _, w, k in out]


def _generator_phase_bounds(stab, y):
    """Oracle: the least and greatest Phase(s, Z(e_v)) over y's generators P_v[s],
    from the rational charge of each simple root."""
    n = len(stab.charge)
    phases = [
        Phase(s, stab.charge.of_root(tuple(int(i == v) for i in range(n))))
        for v, s in y.generators
    ]
    return min(phases), max(phases)


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_probe_candidates_follow_phase_order(name, monkeypatch):
    """The integer (k, arg rank) order of the Hom tests is the order of the
    candidates' phases: from the generator-phase bound on, at one shift, on
    one-shift and multi-shift images, and over every shift on a cyclic y."""
    alg = ZigzagAlgebra(named_quiver(name))
    q = alg.quiver
    rng = random.Random(f"candidate-order:{name}")
    tested = []
    answer = [None]  # the index of the Hom test that answers yes, or None for none

    def record(x, y, k):
        # a stable object is the one of its class: (root, k) of S_w[k] as probed
        tested.append((y.k_class(), k) if side == "bottom" else (x.k_class(), -k))
        return len(tested) - 1 == answer[0]

    # two adjacent vertices joined both ways at shift 0, and a third generator at
    # shift 1: no bound, so every shift a Hom degree reaches is walked
    a, b = min(q.edges)
    cyclic = TwistedComplex._trusted(
        alg, (Generator(a, 0), Generator(b, 0), Generator(a, 1)), {(1, 0): 1, (0, 1): 1}
    )
    monkeypatch.setattr(stability, "hom0_is_nonzero", record)
    for _ in range(3):
        stab = StabilityCondition(alg, random_generic_charge(q, rng))
        word = BraidWord(
            tuple((rng.randrange(q.vertex_count), rng.choice((1, -1))) for _ in range(3))
        )
        image = apply_braid(alg, word, simple_object(alg, rng.randrange(q.vertex_count)))
        targets = [
            stab.stable_object(rng.choice(stab.roots)),
            image,
            direct_sum(image, image.shift(rng.choice((1, 2)))),
            cyclic,
        ]
        for y in targets:
            bounds = dict(zip(("bottom", "top"), stab._generator_bounds(y) or (None, None)))
            for side, message in (("bottom", "receives a map from"), ("top", "maps to")):
                want = _phase_sorted_candidates(stab, y, side)
                tested.clear()
                answer[0] = None
                with pytest.raises(InvariantViolation, match=f"no stable object {message} the probe"):
                    stab._first_hit(y, side, bounds[side])
                assert tested == want
                # a yes ends the walk, and only the hit carries a phase
                tested.clear()
                answer[0] = rng.randrange(len(want))
                w, k = want[answer[0]]
                assert stab._first_hit(y, side, bounds[side]) == (stab.phase_of_root(w, k), w, k)
                assert tested == want[: answer[0] + 1]


def test_generic_charge_check_matches_all_pairs(a3, d4):
    """Distinct exact argument keys find every shared ray."""
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
            _, simples = _lattice(charge.values)
            assert _by_argument([_ray(simples, w) for w in roots])[1] == all_pairs
            assert StabilityCondition(alg, charge).validate_generic() == all_pairs
            seen.add(all_pairs)
    assert seen == {True, False}


# -- the generator-phase bound against the unpruned walk ------------------------


@pytest.mark.parametrize("name", ["A3", "D4", "E6", "E7"])
def test_bounded_walk_matches_the_unpruned_walk_on_stable_objects(name):
    alg = ZigzagAlgebra(named_quiver(name))
    rng = random.Random(f"bounded-walk:{name}")
    for _ in range(3):
        stab = StabilityCondition(alg, random_generic_charge(alg.quiver, rng))
        for w in stab.roots:
            assert_probes_match_the_unpruned_walk(stab, stab.stable_object(w))


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_bounded_walk_matches_the_unpruned_walk_on_shifted_and_padded_objects(name):
    """Shifted braid images, and braid images plus the cone of the identity of
    some P_v[s]: a zero object whose generators move the bound outward."""
    alg = ZigzagAlgebra(named_quiver(name))
    n = alg.quiver.vertex_count
    rng = random.Random(f"bounded-walk-padded:{name}")
    for _ in range(3):
        stab = StabilityCondition(alg, random_generic_charge(alg.quiver, rng))
        for _ in range(6):
            word = BraidWord(tuple(
                (rng.randrange(n), rng.choice((1, -1))) for _ in range(rng.randint(1, 5))
            ))
            y = apply_braid(alg, word, simple_object(alg, rng.randrange(n)))
            pad = simple_object(alg, rng.randrange(n), rng.randint(-3, 3))
            padded = direct_sum(y, cone(identity_morphism(pad)))
            assert stab._generator_bounds(padded) is not None
            for obj in (y.shift(rng.randint(-3, 3)), padded):
                assert_probes_match_the_unpruned_walk(stab, obj)


def _complex_of(arg):
    """The complex a Hom-test argument reads: a reader's complex, or the argument."""
    return arg.complex if type(arg) is homcore._Reader else arg


def test_cyclic_entry_graph_walks_every_candidate(monkeypatch, alg_a3, stab_a3):
    """No bound when the entries form a cycle: phi_probes walks every candidate."""
    # P0 -> P1 -> P0 by the two arrows; not square-zero, so built unchecked
    gens = (Generator(0, 0), Generator(1, 0), Generator(2, 1))
    y = TwistedComplex._trusted(alg_a3, gens, {(1, 0): 1, (0, 1): 1})
    assert stab_a3._generator_bounds(y) is None
    acyclic = TwistedComplex._trusted(alg_a3, gens, {(1, 0): 1})
    bounds = stab_a3._generator_bounds(acyclic)
    calls, hits = [], []

    def hom0(*call):
        call = tuple(map(_complex_of, call))  # a walk passes the reader of y, the oracle y
        calls.append(call)
        return call in hits

    monkeypatch.setattr(stability, "hom0_is_nonzero", hom0)
    full = {}
    for side, bound in zip(("bottom", "top"), bounds):
        calls.clear()
        with pytest.raises(InvariantViolation):
            stab_a3._first_hit(y, side, bound)
        bounded = len(calls)
        calls.clear()
        with pytest.raises(InvariantViolation):
            unpruned_first_hit(stab_a3, y, side)
        full[side] = list(calls)
        assert bounded < len(full[side])  # a bound on these generators would skip some
    # the bottom walk hits at its last candidate, the top walk misses throughout
    hits.append(full["bottom"][-1])
    calls.clear()
    with pytest.raises(InvariantViolation, match="no stable object maps to"):
        stab_a3.phi_probes(y)
    assert calls == full["bottom"] + full["top"]



# -- the early end of a probe against the two-walk probe -------------------------


@pytest.mark.parametrize("name", ["A3", "D4", "E6", "E7"])
def test_one_walk_probe_matches_two_walks_on_stable_objects_and_shifts(name):
    alg = ZigzagAlgebra(named_quiver(name))
    rng = random.Random(f"one-walk:{name}")
    for _ in range(3):
        stab = StabilityCondition(alg, random_generic_charge(alg.quiver, rng))
        for w in stab.roots:
            obj = stab.stable_object(w)
            for y in (obj, obj.shift(-3), obj.shift(1), obj.shift(2)):
                assert stab.phi_probes(y) == two_walk_probes(stab, y), (w, y.shift_range())


@pytest.mark.parametrize("name", ["A3", "D4", "E6", "E7"])
def test_one_walk_probe_matches_two_walks_on_sums_of_stable_objects(name):
    """S_w + S_w is semistable and ends after the bottom walk; S_a + S_b with
    a != b is not, and needs the top walk."""
    alg = ZigzagAlgebra(named_quiver(name))
    rng = random.Random(f"one-walk-sums:{name}")
    stab = StabilityCondition(alg, random_generic_charge(alg.quiver, rng))
    for w in stab.roots:
        obj = stab.stable_object(w)
        y = direct_sum(obj, obj)
        assert stab.phi_probes(y) == two_walk_probes(stab, y), w
    for _ in range(20):
        a, b = rng.sample(stab.roots, 2)
        y = direct_sum(stab.stable_object(a), stab.stable_object(b))
        assert stab.phi_probes(y) == two_walk_probes(stab, y), (a, b)


@pytest.mark.parametrize("name", ["A3", "D4", "E6", "E7"])
def test_one_walk_probe_matches_two_walks_on_flips(name):
    alg = ZigzagAlgebra(named_quiver(name))
    rng = random.Random(f"one-walk-flips:{name}")
    for _ in range(3):  # 15 builds: five roots under each of three charges
        stab = StabilityCondition(alg, random_generic_charge(alg.quiver, rng))
        for w in rng.sample(stab.roots, 5):
            build = stab.stable_build(w)
            for i in range(len(build.braid)):
                y = build.flipped(i)
                assert stab.phi_probes(y) == two_walk_probes(stab, y), (w, i)


def _walks(monkeypatch, stab, y):
    """phi_probes(y) with the real Hom tests, and [side, Hom tests] per walk it ran, in
    order; each Hom test is listed as the (root, k) of the S_w[k] it tested."""
    walks = []

    def first_hit(self, z, side, bound, real=StabilityCondition._first_hit):
        walks.append([side, []])
        return real(self, z, side, bound)

    def hom0(x, z, k, real=stability.hom0_is_nonzero):
        side, tests = walks[-1]
        tests.append((z.k_class(), k) if side == "bottom" else (x.k_class(), -k))
        return real(x, z, k)

    monkeypatch.setattr(StabilityCondition, "_first_hit", first_hit)
    monkeypatch.setattr(stability, "hom0_is_nonzero", hom0)
    phases = stab.phi_probes(y)
    monkeypatch.undo()
    return phases, walks


def _top_tests(walks):
    return sum(len(tests) for side, tests in walks if side == "top")


def _nearer_side(stab, y):
    """Oracle: for a one-shift acyclic y whose class is a multiple of a root, the
    side whose generator bound lies nearer the arg position of that root (the
    bottom on a tie)."""
    low, high = stab._generator_bounds(y)
    assert low[0] == high[0]
    k_class = y.k_class()
    g = math.gcd(*k_class) * (-1) ** low[0]
    p = stab._arg_order.index(tuple(c // g for c in k_class))
    return "top" if high[1] - p < p - low[1] else "bottom"


@pytest.mark.parametrize("name", ["A3", "D4", "E6", "E7"])
def test_a_stable_object_and_its_shifts_make_one_walk_from_the_nearer_bound(monkeypatch, name):
    """S_w, S_w[1] and S_w[2] sit at one shift: the probe runs only the walk
    whose bound lies nearer the position of w, and that walk's hit is both."""
    alg = ZigzagAlgebra(named_quiver(name))
    rng = random.Random(f"nearer-walk:{name}")
    sides = set()
    for _ in range(2):
        stab = StabilityCondition(alg, random_generic_charge(alg.quiver, rng))
        for w in stab.roots:
            for k in (0, 1, 2):
                y = stab.stable_object(w).shift(k)
                side = _nearer_side(stab, y)
                phases, walks = _walks(monkeypatch, stab, y)
                assert len(walks) == 1 and walks[0][0] == side and walks[0][1], (w, k)
                assert phases.bottom is phases.top
                assert phases == ((stab.phase_of_root(w, k), w, k),) * 2
                assert phases == two_walk_probes(stab, y)
                sides.add(side)
    assert sides == {"bottom", "top"}


def test_a_sum_of_two_stable_objects_runs_the_top_walk(monkeypatch, stab_a3):
    for a in stab_a3.roots:
        for b in stab_a3.roots:
            if a != b:
                y = direct_sum(stab_a3.stable_object(a), stab_a3.stable_object(b))
                phases, walks = _walks(monkeypatch, stab_a3, y)
                assert _top_tests(walks) > 0
                assert phases == two_walk_probes(stab_a3, y)
                assert {phases.bottom.root, phases.top.root} == {a, b}


def test_a_class_on_the_bottom_ray_over_several_shifts_runs_the_top_walk(monkeypatch, stab_a3):
    """S_u + S_u[1] + S_u[2] has class u, the ray of its bottom hit, but its
    top hit is (u, 2)."""
    for u in stab_a3.roots:
        obj = stab_a3.stable_object(u)
        y = direct_sum(obj, obj.shift(1), obj.shift(2))
        assert y.k_class() == u
        phases, walks = _walks(monkeypatch, stab_a3, y)
        assert _top_tests(walks) > 0
        assert phases.bottom == (stab_a3.phase_of_root(u), u, 0)
        assert phases.top == (stab_a3.phase_of_root(u, 2), u, 2)


def test_cyclic_entry_graph_on_one_shift_runs_the_top_walk(monkeypatch, alg_a3, stab_a3):
    """With a cycle there is no early end, even when every generator sits at
    one shift and the bottom hit lies on the ray of the class."""
    # P0 -> P1 -> P0 at one shift; not square-zero, so built unchecked
    y = TwistedComplex._trusted(alg_a3, (Generator(0, 0), Generator(1, 0)), {(1, 0): 1, (0, 1): 1})
    assert stab_a3._generator_bounds(y) is None
    u = y.k_class()
    assert u in stab_a3.roots
    top = []

    def hom0(x, z, k):
        if _complex_of(z) is y:
            top.append(k)
            return False
        return k == 0 and z.k_class() == u  # the bottom walk hits (u, 0)

    monkeypatch.setattr(stability, "hom0_is_nonzero", hom0)
    with pytest.raises(InvariantViolation, match="no stable object maps to"):
        stab_a3.phi_probes(y)
    assert top


@pytest.mark.parametrize("name", ["D4", "E6"])
def test_a_walk_indexes_y_once_and_keeps_no_reader(monkeypatch, name):
    """Every Hom test of a walk reads the walk's layer of y (its generators at
    the lowest shift for the bottom walk and at the highest for the top, y
    itself on one shift) through the walk's one reader: during a probe, the
    layer's differential is indexed at most once per walk and a record's at
    most once per Hom test.  A Hom test of H^k has basis degrees k..k+2
    only, since the layer sits at one shift and a record at shift 0.
    Every reach and coreach list is built on the layer's reader,
    none on a record's, each at most once per vertex per walk.  Once the
    probe has returned, or raised InvariantViolation, no reader is left:
    nothing holds it on y, a record or the condition."""
    alg = ZigzagAlgebra(named_quiver(name))
    rng = random.Random(f"walk-reader:{name}")
    stab = StabilityCondition(alg, random_generic_charge(alg.quiver, rng))
    stab._probe_ladder()  # certify the records before counting
    n = alg.quiver.vertex_count
    walks, refs, miss = [], [], [False]

    def first_hit(self, z, side, bound, real=StabilityCondition._first_hit):
        walks.append({"side": side, "layer": None, "y": 0, "tests": [], "lists": []})
        return real(self, z, side, bound)

    def hom0(x, z, k, real=stability.hom0_is_nonzero):
        (reader,) = [a for a in (x, z) if type(a) is homcore._Reader]
        walk = walks[-1]
        if not walk["tests"]:
            layer = walk["layer"] = reader.complex
            lo, hi = y.shift_range()
            s = lo if walk["side"] == "bottom" else hi
            assert layer.generators == tuple(g for g in y.generators if g.shift == s)
            assert layer is y if lo == hi else len(layer.generators) < len(y.generators)
            refs.append(weakref.ref(reader))
        assert reader.complex is walk["layer"]
        assert refs[-1]() is reader
        walk["tests"].append(0)
        hit = real(x, z, k)
        (hom,) = built
        built.clear()  # the Hom complex holds the reader
        assert set(hom.basis) <= {k, k + 1, k + 2}
        return hit and not miss[0]

    built = []  # the Hom complexes of the current Hom test

    class Recorded(homcore.HomComplex):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    def lister(kind, real):
        def listed(reader, v):
            assert reader.complex is walks[-1]["layer"]
            if v not in getattr(reader, f"_{kind}"):  # this call builds the list
                walks[-1]["lists"].append((kind, v))
            return real(reader, v)
        return listed

    def index(differential, by_source, real=homcore._index):
        walk = walks[-1]
        if differential is walk["layer"].differential:
            walk["y"] += 1
        else:
            walk["tests"][-1] += 1
        return real(differential, by_source)

    targets = []  # braid images with a differential, every other one summed with its [1]
    while len(targets) < 6:
        word = BraidWord(tuple((rng.randrange(n), rng.choice((1, -1))) for _ in range(4)))
        y = apply_braid(alg, word, simple_object(alg, rng.randrange(n)))
        if y.differential:
            targets.append(direct_sum(y, y.shift(1)) if len(targets) % 2 else y)
    monkeypatch.setattr(StabilityCondition, "_first_hit", first_hit)
    monkeypatch.setattr(stability, "hom0_is_nonzero", hom0)
    monkeypatch.setattr(homcore, "_index", index)
    monkeypatch.setattr(homcore, "HomComplex", Recorded)
    for kind in ("reach", "coreach"):
        monkeypatch.setattr(homcore._Reader, kind, lister(kind, getattr(homcore._Reader, kind)))
    shared = 0  # walks of several Hom tests that indexed y once
    kinds = set()  # the kinds of list the walks built
    for trial, y in enumerate(targets):
        miss[0] = trial == len(targets) - 1
        walks.clear()
        if miss[0]:
            with pytest.raises(InvariantViolation, match="no stable object receives"):
                stab.phi_probes(y)
        else:
            stab.phi_probes(y)
        gc.collect()
        assert refs and all(ref() is None for ref in refs)
        refs.clear()
        for walk in walks:
            assert walk["y"] <= 1 and all(count <= 1 for count in walk["tests"])
            assert len(set(walk["lists"])) == len(walk["lists"])
            shared += walk["y"] == 1 and len(walk["tests"]) > 1
            kinds.update(kind for kind, _ in walk["lists"])
    assert shared and kinds == {"reach", "coreach"}


# -- the nearer walk first against the two-walk probe ---------------------------


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_twice_a_stable_object_probes_from_the_nearer_bound_as_two_walks(monkeypatch, name):
    """S_u + S_u has class 2u, whose ray is that of u: one walk, from the nearer bound."""
    alg = ZigzagAlgebra(named_quiver(name))
    rng = random.Random(f"nearer-walk:{name}")
    sides = set()
    for _ in range(2):
        stab = StabilityCondition(alg, random_generic_charge(alg.quiver, rng))
        for u in stab.roots:
            twice = direct_sum(stab.stable_object(u), stab.stable_object(u))
            for y in (twice, twice.shift(1)):
                assert y.k_class() in (tuple(2 * c for c in u), tuple(-2 * c for c in u))
                phases, walks = _walks(monkeypatch, stab, y)
                assert [side for side, _ in walks] == [_nearer_side(stab, y)], u
                assert phases.bottom is phases.top
                assert phases == two_walk_probes(stab, y), u
                sides.add(walks[0][0])
    assert sides == {"bottom", "top"}


def _sums_nearer_the_top(stab):
    """S_a + S_b and its shift [1] for a != b on one shift whose class a + b is
    a root lying nearer the top bound: the top walk runs first and hits
    neither on the ray of a + b."""
    out = []
    for i, a in enumerate(stab.roots):
        for b in stab.roots[i + 1:]:
            y = direct_sum(stab.stable_object(a), stab.stable_object(b))
            lo, hi = y.shift_range()
            if lo == hi and y.k_class() in stab.roots and _nearer_side(stab, y) == "top":
                out += [(a, b, y), (a, b, y.shift(1))]
    return out


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_sums_nearer_the_top_run_the_top_walk_then_the_bottom_walk(monkeypatch, name):
    alg = ZigzagAlgebra(named_quiver(name))
    rng = random.Random(f"sums-nearer-top:{name}")
    stab = StabilityCondition(alg, random_generic_charge(alg.quiver, rng))
    sums = _sums_nearer_the_top(stab)
    assert sums
    for a, b, y in sums:
        phases, walks = _walks(monkeypatch, stab, y)
        assert [side for side, _ in walks] == ["top", "bottom"], (a, b)
        assert all(tests for _, tests in walks)
        assert phases == two_walk_probes(stab, y), (a, b)
        assert {phases.bottom.root, phases.top.root} == {a, b}


def test_an_early_end_without_the_ray_test_fails_the_sums_nearer_the_top(monkeypatch):
    """The mutant: every cross product read as zero, so a probe ends after its
    first walk whenever that hit has the generators' shift.  On each sum
    nearer the top it returns the top hit as the bottom hit."""
    alg = ZigzagAlgebra(named_quiver("E6"))
    stab = StabilityCondition(alg, random_generic_charge(alg.quiver, random.Random("mutant:E6")))
    sums = _sums_nearer_the_top(stab)
    oracle = [two_walk_probes(stab, y) for _, _, y in sums]
    assert sums and all(stab.phi_probes(y) == want for (_, _, y), want in zip(sums, oracle))
    monkeypatch.setattr(stability, "_ray_cross", lambda u, v: 0)
    for (a, b, y), want in zip(sums, oracle):
        mutant = stab.phi_probes(y)
        assert mutant.top == want.top and mutant.bottom == want.top != want.bottom, (a, b)


# -- the class prune of one-shift walks against the unpruned walk ----------------


def assert_one_shift_probe_is_pruned(stab, y):
    """For a one-shift acyclic y: both hits are the unpruned walk's, and every Hom
    test is at y's shift s against a root w <= y's generator counts, since the
    first S_w[s] with a nonzero Hom is a quotient or a subobject of y."""
    lo, hi = y.shift_range()
    assert lo == hi and stab._generator_bounds(y) is not None
    with pytest.MonkeyPatch.context() as monkeypatch:
        phases, walks = _walks(monkeypatch, stab, y)
    tests = [test for _, walk in walks for test in walk]
    assert phases.bottom == unpruned_first_hit(stab, y, "bottom")
    assert phases.top == unpruned_first_hit(stab, y, "top")
    counts = _generator_counts(y)
    assert tests
    for w, k in tests:
        assert k == lo and all(c <= n for c, n in zip(w, counts)), (w, k, counts)


def test_pruned_walks_on_e8_stable_objects_find_the_unpruned_hits():
    """E8 stable objects and a shift of each: sampled roots under two charges."""
    alg = ZigzagAlgebra(named_quiver("E8"))
    rng = random.Random("class-prune:E8")
    for _ in range(2):
        stab = StabilityCondition(alg, random_generic_charge(alg.quiver, rng))
        for w in rng.sample(stab.roots, 16):
            obj = stab.stable_object(w)
            for y in (obj, obj.shift(rng.choice((-1, 1, 2)))):
                assert_one_shift_probe_is_pruned(stab, y)


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_pruned_walks_on_one_shift_sums_find_the_unpruned_hits(name):
    """S_a + S_b for a != b and S_u + S_u, each with a shift: the class prune
    keeps the hits of the unpruned walk."""
    alg = ZigzagAlgebra(named_quiver(name))
    rng = random.Random(f"class-prune-sums:{name}")
    stab = StabilityCondition(alg, random_generic_charge(alg.quiver, rng))
    pairs = [rng.sample(stab.roots, 2) for _ in range(12)]
    pairs += [(u, u) for u in rng.sample(stab.roots, 6)]
    for a, b in pairs:
        y = direct_sum(stab.stable_object(a), stab.stable_object(b))
        for z in (y, y.shift(rng.choice((-2, -1, 1, 3)))):
            assert_one_shift_probe_is_pruned(stab, z)


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_mixed_shift_sums_make_unpruned_walks(name):
    """S_a + S_b[1] has generators at two shifts: the bottom walk tests the
    layer S_a at shift 0 and the top walk the layer S_b[1] at shift 1, and
    the probe finds the hits of the unpruned walk, (a, 0) at the bottom."""
    alg = ZigzagAlgebra(named_quiver(name))
    rng = random.Random(f"class-prune-mixed:{name}")
    stab = StabilityCondition(alg, random_generic_charge(alg.quiver, rng))
    for _ in range(12):
        a, b = rng.sample(stab.roots, 2)
        y = direct_sum(stab.stable_object(a), stab.stable_object(b).shift(1))
        assert_probes_match_the_unpruned_walk(stab, y)
        assert stab.phi_probes(y).bottom == (stab.phase_of_root(a), a, 0)


_ONE_SHIFT_ALGEBRAS = {name: ZigzagAlgebra(named_quiver(name)) for name in ("A3", "D4", "E6")}


@st.composite
def _one_shift_braid_images(draw):
    """An algebra, a generic charge and the minimal model of a braid image of a
    simple whose generators all sit at one shift.

    A word that cancels down to a shifted simple S_u[s] gets one more letter
    at a neighbour of u, with the sign that keeps the two-term image on one
    shift, so that most draws have a differential.
    """
    alg = _ONE_SHIFT_ALGEBRAS[draw(st.sampled_from(sorted(_ONE_SHIFT_ALGEBRAS)))]
    n = alg.quiver.vertex_count
    letters = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1))), min_size=1, max_size=6
    ))
    x = simple_object(alg, draw(st.integers(0, n - 1)))
    y = minimize(apply_braid(alg, BraidWord(tuple(letters)), x))
    if len(y.generators) == 1:
        v = draw(st.sampled_from(alg.quiver.neighbors(y.generators[0].vertex)))
        images = [minimize(apply_braid(alg, BraidWord(((v, e),)), y)) for e in (1, -1)]
        y = next(z for z in images if len({s for _, s in z.generators}) == 1)
    lo, hi = y.shift_range()
    assume(lo == hi)
    charge = random_generic_charge(alg.quiver, random.Random(draw(st.integers(0, 2**32))))
    return StabilityCondition(alg, charge), y


@settings(ORACLE_SETTINGS, max_examples=30)
@given(_one_shift_braid_images())
def test_pruned_walks_on_one_shift_braid_images_find_the_unpruned_hits(drawn):
    stab, y = drawn
    assert_one_shift_probe_is_pruned(stab, y)


# -- the layer walks of multi-shift objects against the unpruned walk -------------


_MULTI_SHIFT_ALGEBRAS = {
    name: ZigzagAlgebra(named_quiver(name)) for name in ("A2", "A3", "A4", "A5", "D4", "D5", "E6")
}


@st.composite
def _multi_shift_images(draw):
    """An algebra, a generic charge and an acyclic minimal object whose
    generators sit at two or more shifts: the minimal model of a braid image
    of a simple, summed with a shifted second image when it sits on one."""
    alg = _MULTI_SHIFT_ALGEBRAS[draw(st.sampled_from(sorted(_MULTI_SHIFT_ALGEBRAS)))]
    n = alg.quiver.vertex_count

    def image():
        letters = draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1))), min_size=1, max_size=6
        ))
        x = simple_object(alg, draw(st.integers(0, n - 1)))
        return minimize(apply_braid(alg, BraidWord(tuple(letters)), x))

    y = image()
    if len({s for _, s in y.generators}) == 1:
        y = direct_sum(y, image().shift(draw(st.integers(1, 3))))
    lo, hi = y.shift_range()
    assume(lo < hi)
    charge = random_generic_charge(alg.quiver, random.Random(draw(st.integers(0, 2**32))))
    return StabilityCondition(alg, charge), y


@settings(ORACLE_SETTINGS, max_examples=40)
@given(_multi_shift_images())
def test_walks_on_multi_shift_images_test_one_layer_and_find_the_unpruned_hits(drawn):
    """Both hits are the unpruned walk's; every Hom test of the bottom walk is
    at k = lo_y and every one of the top walk at k = hi_y, each against a root
    <= the generator counts of y at that shift."""
    stab, y = drawn
    lo, hi = y.shift_range()
    assert stab._generator_bounds(y) is not None
    with pytest.MonkeyPatch.context() as monkeypatch:
        phases, walks = _walks(monkeypatch, stab, y)
    assert phases.bottom == unpruned_first_hit(stab, y, "bottom")
    assert phases.top == unpruned_first_hit(stab, y, "top")
    assert [side for side, _ in walks] == ["bottom", "top"]
    for side, tests in walks:
        s = lo if side == "bottom" else hi
        counts = _generator_counts(y, s)
        assert tests
        for w, k in tests:
            assert k == s and all(c <= n for c, n in zip(w, counts)), (side, w, k, counts)


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
        assert scaled.stable_build(w) is build
        for other in others:
            if other.stable_build(w).signs == build.signs:
                assert other.stable_build(w) is build
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


def _build_all(stab, entry):
    """Build every stable object of stab through one entry point."""
    if entry == "stable_build":
        for w in stab.roots:
            stab.stable_build(w)
    else:
        getattr(stab, entry)()


def test_certificate_runs_once_per_lift(monkeypatch, d4):
    certified = []

    def counting(obj, real=stability.is_spherical):
        certified.append(obj)
        return real(obj)

    monkeypatch.setattr(stability, "is_spherical", counting)
    for entry in ("stable_table", "_probe_ladder", "stable_build"):
        alg = ZigzagAlgebra(d4)
        certified.clear()
        rng = random.Random("certificate")
        for _ in range(2):
            _build_all(StabilityCondition(alg, random_generic_charge(d4, rng)), entry)
        builds = alg.charge_free.builds
        assert len(certified) == len(builds) < 2 * len(positive_roots(d4)), entry
        assert {id(obj) for obj in certified} == {id(b.obj) for b in builds.values()}, entry


def test_failed_certificate_raises_and_is_not_stored(monkeypatch, a3):
    alg = ZigzagAlgebra(a3)
    stab = StabilityCondition(alg, a3_reference_charge())
    monkeypatch.setattr(stability, "is_spherical", lambda obj: False)
    with pytest.raises(InvariantViolation):
        stab.stable_build((1, 1, 1))
    with pytest.raises(InvariantViolation):
        stab.stable_build((1, 1, 1), WeylWord(base=1, letters=(0, 2, 1)))
    with pytest.raises(InvariantViolation):
        stab.stable_table()
    with pytest.raises(InvariantViolation):
        stab._probe_ladder()
    assert alg.charge_free.builds == {}
    assert stab._ladder is None
    monkeypatch.undo()
    obj = stab.stable_object((1, 1, 1))
    ladder = stab._probe_ladder()
    assert ladder[stab._pos[(1, 1, 1)]].obj is obj
    assert sorted(map(id, alg.charge_free.builds.values())) == sorted(map(id, ladder))


def test_a_lift_off_shift_0_raises_and_is_not_stored(monkeypatch, a3):
    """A lift whose generators leave shift 0 is not in the heart: the record's
    second certificate raises, though the lift is spherical, and only the
    simples, whose lifts take no letter, are stored."""
    alg = ZigzagAlgebra(a3)
    stab = StabilityCondition(alg, a3_reference_charge())
    monkeypatch.setattr(
        stability, "apply_braid", lambda alg, word, y, real=apply_braid: real(alg, word, y).shift(1)
    )
    with pytest.raises(InvariantViolation, match=r"class \(1, 1, 1\) is not in the heart"):
        stab.stable_build((1, 1, 1), minimal_word(a3, (1, 1, 1)))
    for build in (stab.stable_table, stab._probe_ladder):
        with pytest.raises(InvariantViolation, match="is not in the heart"):
            build()
    assert stab._ladder is None
    assert all(len(b.braid) == 0 for b in alg.charge_free.builds.values())
    monkeypatch.undo()
    assert stab.stable_object((1, 1, 1)).shift_range() == (0, 0)


@pytest.mark.parametrize("name", ["E6", "E7"])
def test_stable_table_matches_fresh_braid_lifts(name):
    alg = ZigzagAlgebra(named_quiver(name))
    charge = random_generic_charge(alg.quiver, random.Random(f"table:{name}"))
    stab = StabilityCondition(alg, charge)
    table = stab.stable_table()
    assert list(table) == stab.roots
    for w, obj in table.items():
        build = stab.stable_build(w)
        assert obj is build.obj
        assert obj == apply_braid(alg, build.braid, simple_object(alg, build.word.base)), w


def test_every_e6_flip_equals_the_flipped_word_applied_in_one_call():
    """A flip equals the whole flipped word applied to the simple, in any
    order of the flips."""
    alg = ZigzagAlgebra(named_quiver("E6"))
    stab = StabilityCondition(alg, random_generic_charge(alg.quiver, random.Random("flips:E6")))
    flips = 0
    for w in stab.roots:
        build = stab.stable_build(w)
        letters = build.braid.letters
        simple = simple_object(alg, build.word.base)
        for i in reversed(range(len(letters))):
            word = BraidWord(letters[:i] + ((letters[i][0], -letters[i][1]),) + letters[i + 1:])
            assert build.flipped(i) == apply_braid(alg, word, simple), (w, i)
            flips += 1
    assert flips > len(stab.roots)


def _signed_prefixes(keys):
    return {(base, braid.letters[:i]) for base, braid in keys for i in range(1, len(braid) + 1)}


def _lifts(alg):
    """The (base, signed braid) of every record in the algebra's shared table."""
    return {(b.word.base, b.braid) for b in alg.charge_free.builds.values()}


@pytest.mark.parametrize("name", ["D4", "E6"])
def test_lift_walk_twists_once_per_signed_prefix(monkeypatch, name):
    """Each build applies one letter per distinct nonempty signed prefix of
    the lifts it adds, and the shared table then holds exactly the lifts."""
    alg = ZigzagAlgebra(named_quiver(name))
    letters = []

    def one_letter(alg, word, y, real=stability.apply_braid):
        letters.append(word.letters)
        return real(alg, word, y)

    monkeypatch.setattr(stability, "apply_braid", one_letter)
    rng = random.Random(f"trie:{name}")
    wanted = set()
    for entry in ("stable_table", "_probe_ladder", "stable_table"):
        stab = StabilityCondition(alg, random_generic_charge(alg.quiver, rng))
        before = _lifts(alg)
        letters.clear()
        _build_all(stab, entry)
        added = _lifts(alg) - before
        assert all(len(word) == 1 for word in letters)
        assert len(letters) == len(_signed_prefixes(added))
        wanted |= {(b.word.base, b.braid) for b in map(stab.stable_build, stab.roots)}
        assert _lifts(alg) == wanted


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_known_sign_vectors_read_the_ladder_off_the_rungs(monkeypatch, name):
    """A condition whose every sign vector has a record builds its ladder with
    no twist, no certificate and no new record; a new sign vector goes
    through the batched build, which adds its record.  Either way the ladder
    is the shared table's records, one per root by arg Z."""
    alg = ZigzagAlgebra(named_quiver(name))
    rng = random.Random(f"rungs:{name}")
    calls = {"apply_braid": 0, "is_spherical": 0}

    def counted(fn_name):
        real = getattr(stability, fn_name)

        def fn(*args):
            calls[fn_name] += 1
            return real(*args)
        return fn

    monkeypatch.setattr(stability, "apply_braid", counted("apply_braid"))
    monkeypatch.setattr(stability, "is_spherical", counted("is_spherical"))
    charges = []
    seen = set()
    for i in range(10):
        if i % 2 and charges:  # a positive multiple of an earlier charge: its signs are known
            c = Fraction(rng.randint(1, 99), rng.randint(1, 99))
            charge = CentralCharge([z.scale(c) for z in rng.choice(charges).values])
        else:
            charge = random_generic_charge(alg.quiver, rng)
        charges.append(charge)
        stab = StabilityCondition(alg, charge)
        words, builds = alg.charge_free.words, alg.charge_free.builds
        known = all((words[w][0], stab.sign_rule(words[w][1])) in builds for w in stab.roots)
        seen.add(known)
        calls.update(apply_braid=0, is_spherical=0)
        stored = len(builds)
        ladder = stab._probe_ladder()
        if known:
            assert calls == {"apply_braid": 0, "is_spherical": 0}
            assert len(builds) == stored  # read off the table: no record was made
        else:
            assert calls["apply_braid"] > 0 and calls["is_spherical"] > 0
        assert [b.root for b in ladder] == stab._arg_order
        for b in ladder:
            assert b.word == words[b.root][0] and b.signs == stab.sign_rule(b.sequence)
            assert builds[b.word, b.signs] is b
            assert b.obj.shift_range() == (0, 0)  # certified in the heart
    assert seen == {True, False}


def test_algebra_is_freed_with_its_conditions(a3):
    alg = ZigzagAlgebra(a3)
    stab = StabilityCondition(alg, a3_reference_charge())
    stab.stable_table()
    assert alg.charge_free.builds
    ref = weakref.ref(alg)
    del alg, stab
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_stable_build_is_the_ladder_record(name):
    """The default word's record is the root's entry of the probe ladder, and
    the minimal word given explicitly returns that same record."""
    alg = ZigzagAlgebra(named_quiver(name))
    stab = StabilityCondition(alg, random_generic_charge(alg.quiver, random.Random(f"ladder:{name}")))
    ladder = stab._probe_ladder()
    for w in stab.roots:
        build = stab.stable_build(w)
        assert build is ladder[stab._pos[w]]
        assert stab.stable_build(w, minimal_word(alg.quiver, w)) is build
    assert len(alg.charge_free.builds) == len(stab.roots)


def test_shared_records_are_immutable(alg_a3):
    stab = StabilityCondition(alg_a3, a3_reference_charge())
    build = stab.stable_build((1, 1, 1))
    names = ("root", "word", "root_seq", "signs", "braid", "obj")
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(build, name, None)
    assert all(type(v) is tuple for v in (build.root_seq, build.signs, build.braid.letters))
    assert stab.stable_build((1, 1, 1)) is build
    fields = [f.name for f in dataclasses.fields(build)]
    before = {name: copy.copy(getattr(build, name)) for name in fields}
    for i in range(len(build.braid.letters)):
        build.flipped(i)
    assert {name: getattr(build, name) for name in fields} == before
    assert fields == list(names)


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


# -- the integer ray table against the Fraction computation ---------------------


def _fraction_arg_key(z):
    """Oracle: the exact argument key of z in H on the rational charge (-Re/Im)."""
    return (False, 0) if z.im == 0 else (True, -z.re / z.im)


def _fraction_signs(charge, seq):
    """Oracle: the sign rule by Fraction cross products of `charge.of_root`."""
    neutral = charge.of_root(seq[0])
    signs = []
    for w in seq[1:]:
        c = cross(neutral, charge.of_root(w))
        if c == 0:
            return None
        signs.append(1 if c > 0 else -1)
    return tuple(signs)


def _charge_for_rays(n, rng):
    """Simple charges of three kinds: small (which often share rays), large
    coprime denominators, and points on the positive real axis."""
    values = []
    for _ in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            values.append(ExactComplex.of(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                          Fraction(rng.randint(1, 3), rng.randint(1, 3))))
        elif kind == 1:
            values.append(ExactComplex.of(
                Fraction(rng.randint(-10**12, 10**12), rng.randint(10**8, 10**9)),
                Fraction(rng.randint(1, 10**12), rng.randint(10**8, 10**9)),
            ))
        else:
            values.append(ExactComplex.of(Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))))
    return CentralCharge(values)


@pytest.mark.parametrize("name, charges", [("A3", 60), ("D4", 60), ("E6", 20)])
def test_ray_table_matches_the_fraction_charges(name, charges):
    """Arg order, genericity, signs and Z read off the integer rays agree
    exactly with the same data computed on the rational charge."""
    alg = ZigzagAlgebra(named_quiver(name))
    rng = random.Random(f"ray-table:{name}")
    seen = set()
    for _ in range(charges):
        charge = _charge_for_rays(alg.quiver.vertex_count, rng)
        stab = StabilityCondition(alg, charge)
        keys = {w: _fraction_arg_key(charge.of_root(w)) for w in stab.roots}
        assert stab._arg_order == sorted(stab.roots, key=keys.get)
        generic = len(set(keys.values())) == len(keys)
        assert stab.validate_generic() == generic
        seen.add(generic)
        for w in stab.roots:
            assert stab.phase_of_root(w, 1) == Phase(1, charge.of_root(w))
            seq = list(alg.charge_free.words[w][1])
            want = _fraction_signs(charge, seq)
            if want is None:
                with pytest.raises(NonGenericChargeError):
                    stab.sign_rule(seq)
            else:
                assert stab.sign_rule(seq) == want
    assert seen == {True, False}


def test_phase_of_root_rejects_a_vector_outside_the_table(stab_a3):
    for w in [(2, 1, 0), (1, 0, 1), (1, -1, 3), (0, 0, 0), (1, 1)]:
        with pytest.raises(ValueError, match="not a positive root"):
            stab_a3.phase_of_root(w)
    with pytest.raises(ValueError, match=r"shift 0\.5 must be an int"):
        stab_a3.phase_of_root((1, 0, 0), 0.5)


def test_phase_adds_only_an_int():
    half = Phase(0, ExactComplex.of(0, 1))
    assert half + 1 == Phase(1, ExactComplex.of(0, 1))
    for other in (half, Fraction(1, 2), 0.5, True):
        with pytest.raises(TypeError):
            half + other


def test_phase_compares_and_subtracts_only_a_phase():
    """`<`, `>`, `<=`, `>=` and `-` against a non-Phase raise TypeError, as `+` does
    for a non-int; against a Phase they still work."""
    half = Phase(0, ExactComplex.of(0, 1))
    assert Phase.integer(0) < half < Phase.integer(1)
    assert (half - Phase.integer(0)) == half
    for other in (0, 2, Fraction(1, 2), 0.5, None):
        for op in (operator.lt, operator.gt, operator.le, operator.ge, operator.sub):
            with pytest.raises(TypeError):
                op(half, other)
            with pytest.raises(TypeError):
                op(other, half)


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_positive_scaling_changes_no_order_sign_object_or_probe(name):
    """Phases depend only on arg Z: the charge times a positive rational gives
    the same argument order, signs, stable objects and probe hits."""
    alg = ZigzagAlgebra(named_quiver(name))
    q = alg.quiver
    rng = random.Random(f"scaling:{name}")
    for _ in range(4):
        stab = StabilityCondition(alg, random_generic_charge(q, rng))
        c = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9))
        scaled = StabilityCondition(alg, CentralCharge([z.scale(c) for z in stab.charge.values]))
        assert scaled.validate_generic()
        assert scaled._arg_order == stab._arg_order
        for w in stab.roots:
            build = stab.stable_build(w)
            assert scaled.sign_rule(build.sequence) == build.signs
            assert scaled.stable_object(w) is build.obj
        for _ in range(4):
            word = BraidWord(tuple(
                (rng.randrange(q.vertex_count), rng.choice((1, -1))) for _ in range(rng.randint(1, 5))
            ))
            y = apply_braid(alg, word, simple_object(alg, rng.randrange(q.vertex_count)))
            for got, want in zip(scaled.phi_probes(y), stab.phi_probes(y)):
                assert (got.root, got.shift) == (want.root, want.shift)
                assert got.phase == want.phase
