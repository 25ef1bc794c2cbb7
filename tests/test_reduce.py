import random

import pytest

from twistcat import (
    BraidWord,
    ExactComplex,
    HypothesisNotMet,
    InvariantViolation,
    OrbitStability,
    Phase,
    StabilityCondition,
    ZigzagAlgebra,
    apply_braid,
    certify_step,
    direct_sum,
    heart_align,
    is_isomorphic,
    minimize,
    named_quiver,
    parse_braid_word,
    random_generic_charge,
    reduce_to_stable,
    sandwich_check,
    simple_object,
    twist,
    twist_triangle,
)
from twistcat.reduce import _certify
from twistcat.stability import Phases, ProbeHit
from conftest import random_word


@pytest.fixture
def unstable_a2(alg_a2):
    return apply_braid(alg_a2, parse_braid_word("s1'"), simple_object(alg_a2, 1))


def test_stable_input_needs_no_steps(stab_a2, alg_a2):
    trace = reduce_to_stable(stab_a2, simple_object(alg_a2, 0))
    assert trace.steps == []
    assert trace.word.letters == ()
    assert trace.final == simple_object(alg_a2, 0)


def test_bottom_reduction_of_flipped_extension(stab_a2, alg_a2, unstable_a2):
    trace = reduce_to_stable(stab_a2, unstable_a2, "bottom")
    assert len(trace.steps) == 1
    step = trace.steps[0]
    assert step.root == (0, 1)  # the bottom factor of the flipped extension
    assert step.exponent == -1
    assert step.phi_minus_after > step.phi_minus_before
    assert step.spread_after < step.spread_before
    assert step.spread_after.is_zero()
    assert trace.final.k_class() == (1, 0)
    assert is_isomorphic(trace.final, stab_a2.stable_object((1, 0)))
    rebuilt = apply_braid(alg_a2, trace.word, trace.final)
    assert is_isomorphic(minimize(rebuilt), trace.start)


def test_top_reduction_of_flipped_extension(stab_a2, alg_a2, unstable_a2):
    trace = reduce_to_stable(stab_a2, unstable_a2, "top")
    assert len(trace.steps) == 1
    assert trace.steps[0].exponent == 1
    assert trace.final.k_class() == (0, 1)
    rebuilt = apply_braid(alg_a2, trace.word, trace.final)
    assert is_isomorphic(minimize(rebuilt), trace.start)


def test_both_strategies_reach_stable_objects(alg_a3):
    q = alg_a3.quiver
    rng = random.Random("strategies")
    for i in range(5):
        stab = StabilityCondition(alg_a3, random_generic_charge(q, rng))
        y = apply_braid(alg_a3, random_word(rng, 3, 8), simple_object(alg_a3, rng.randrange(3)))
        bottom = reduce_to_stable(stab, y, "bottom")
        top = reduce_to_stable(stab, y, "top")
        assert stab.phi_probes(bottom.final).spread.is_zero()
        assert stab.phi_probes(top.final).spread.is_zero()


def test_reduce_rejects_nonspherical(stab_a2, alg_a2):
    with pytest.raises(ValueError):
        reduce_to_stable(stab_a2, direct_sum(simple_object(alg_a2, 0), simple_object(alg_a2, 1)))


def test_reduce_budget_guard(stab_a2, unstable_a2):
    with pytest.raises(InvariantViolation):
        reduce_to_stable(stab_a2, unstable_a2, step_budget=0)


def test_certify_step_bottom(stab_a2, alg_a2, unstable_a2):
    record = certify_step(stab_a2, simple_object(alg_a2, 1), unstable_a2, "bottom")
    assert record.checks["bottom_strict_improvement"] == "ok"
    assert record.phi_minus_after > record.phi_minus_before
    assert record.phi_plus_after <= record.phi_plus_before


def test_certify_step_top(stab_a2, alg_a2, unstable_a2):
    record = certify_step(stab_a2, simple_object(alg_a2, 0), unstable_a2, "top")
    assert record.checks["top_strict_improvement"] == "ok"


def test_certify_step_wide_spread_clause(stab_a2, alg_a2):
    # hunt for a spherical braid image with spread >= 1, then certify a step on it
    rng = random.Random("wide-spread")
    wide = None
    for _ in range(50):
        y = apply_braid(alg_a2, random_word(rng, 2, 6), simple_object(alg_a2, rng.randrange(2)))
        phases = stab_a2.phi_probes(y)
        if phases.spread >= Phase.integer(1):
            wide = (y, phases.bottom)
            break
    assert wide is not None, "no wide-spread object found in 50 draws"
    y, lo = wide
    x = stab_a2.stable_build(lo.root).obj.shift(lo.shift)
    record = certify_step(stab_a2, x, y, "bottom")
    assert record.checks["wide_spread_top_non_deterioration"] == "ok"
    assert record.checks["bottom_strict_improvement"] == "ok"


def test_certify_step_hypothesis_rejections(stab_a2, alg_a2, unstable_a2):
    p1, p2 = simple_object(alg_a2, 0), simple_object(alg_a2, 1)
    with pytest.raises(HypothesisNotMet):
        certify_step(stab_a2, p1, p1, "bottom")  # semistable target
    with pytest.raises(HypothesisNotMet):
        certify_step(stab_a2, p1, unstable_a2, "bottom")  # wrong phase for bottom
    with pytest.raises(HypothesisNotMet):
        certify_step(stab_a2, p2, unstable_a2, "top")
    with pytest.raises(HypothesisNotMet):
        certify_step(stab_a2, direct_sum(p1, p2), unstable_a2, "bottom")
    with pytest.raises(HypothesisNotMet):
        certify_step(stab_a2, unstable_a2, p1, "bottom")  # x itself not semistable


def test_sandwich_on_twist_triangle(stab_a2, alg_a2):
    p1, p2 = simple_object(alg_a2, 0), simple_object(alg_a2, 1)
    extension = twist(p1, p2)
    # rotation of the defining triangle: P_2 -> extension -> P_1
    assert sandwich_check(stab_a2, p2, extension, p1)
    tensor, middle, twisted = twist_triangle(p1, p2)
    assert sandwich_check(stab_a2, tensor, middle, twisted)


def test_sandwich_split_triangle(stab_a2, alg_a2):
    p1, p2 = simple_object(alg_a2, 0), simple_object(alg_a2, 1)
    assert sandwich_check(stab_a2, p1, direct_sum(p1, p2), p2)


def test_heart_align_identity(stab_a2):
    result = heart_align(stab_a2, OrbitStability(BraidWord()))
    assert result.steps == []
    assert result.word.letters == ()
    assert result.alpha == Phase.integer(0)


def test_heart_align_single_transport(stab_a2):
    result = heart_align(stab_a2, OrbitStability(parse_braid_word("s1")))
    assert len(result.steps) >= 1
    for step in result.steps:
        assert step.spread_after < step.spread_before


def test_heart_align_rotation_passthrough(stab_a2):
    from fractions import Fraction

    rotation = Phase.of(ExactComplex.of(Fraction(1, 2), Fraction(1, 3)), 1)
    plain = heart_align(stab_a2, OrbitStability(parse_braid_word("s1")))
    rotated = heart_align(stab_a2, OrbitStability(parse_braid_word("s1"), rotation))
    assert rotated.alpha == plain.alpha_base + rotation
    assert rotated.word.letters == plain.word.letters


def test_heart_align_budget_guard(stab_a2):
    with pytest.raises(InvariantViolation):
        heart_align(stab_a2, OrbitStability(parse_braid_word("s1")), step_budget=0)


def test_heart_align_random_transports(alg_a3):
    q = alg_a3.quiver
    rng = random.Random("align-random")
    for _ in range(4):
        stab = StabilityCondition(alg_a3, random_generic_charge(q, rng))
        transport = random_word(rng, 3, 6, min_len=0)
        result = heart_align(stab, OrbitStability(transport))
        assert stab.phi_probes(result.final).spread < Phase.integer(1)


# -- the braid words and the step records on seeded multi-step runs ---------

ALGEBRAS = {name: ZigzagAlgebra(named_quiver(name)) for name in ("A3", "D4")}
# each gives at least two steps in both reductions and in the alignment
SEEDED = [("A3", 0), ("A3", 5), ("A3", 28), ("D4", 2), ("D4", 12), ("D4", 21)]


def _seeded_case(type_name, seed):
    """A random generic charge, a braid word and the image of a simple under it."""
    alg = ALGEBRAS[type_name]
    n = alg.quiver.vertex_count
    rng = random.Random(f"oracle:{type_name}:{seed}")
    stab = StabilityCondition(alg, random_generic_charge(alg.quiver, rng))
    word = random_word(rng, n, 6, min_len=4)
    return stab, word, apply_braid(alg, word, simple_object(alg, rng.randrange(n)))


def _twist_word(stab, root, exponent):
    """The twist (exponent 1) or untwist (-1) by the stable object of root, as a braid word."""
    build = stab.stable_build(root)
    core = BraidWord(((build.word.base, exponent),))
    return build.braid.inverse().then(core).then(build.braid)


def _reconstruction_oracle(stab, steps):
    """The reduction word built step by step: each step's inverse goes in front."""
    word = BraidWord()
    for step in steps:
        word = _twist_word(stab, step.root, -step.exponent).then(word)
    return word


def _alignment_oracle(stab, transport, steps):
    """The alignment word built step by step: the inverse transport, then each untwist."""
    word = transport.inverse()
    for step in steps:
        word = word.then(_twist_word(stab, step.root, -1))
    return word


@pytest.mark.parametrize("type_name, seed", SEEDED)
def test_words_match_the_step_by_step_construction(type_name, seed):
    stab, transport, start = _seeded_case(type_name, seed)
    for strategy in ("bottom", "top"):
        trace = reduce_to_stable(stab, start, strategy)
        assert len(trace.steps) >= 2
        assert trace.word.letters == _reconstruction_oracle(stab, trace.steps).letters
    alignment = heart_align(stab, OrbitStability(transport))
    assert len(alignment.steps) >= 2
    assert alignment.word.letters == _alignment_oracle(stab, transport, alignment.steps).letters


@pytest.mark.parametrize("type_name, seed", SEEDED)
def test_step_records_chain(type_name, seed):
    stab, transport, start = _seeded_case(type_name, seed)
    traces = [reduce_to_stable(stab, start, strategy) for strategy in ("bottom", "top")]
    for trace in traces:
        assert trace.steps[0].before == stab.phi_probes(trace.start)
    for run in traces + [heart_align(stab, OrbitStability(transport))]:
        for a, b in zip(run.steps, run.steps[1:]):
            assert b.before is a.after
        assert run.steps[-1].after == stab.phi_probes(run.final)


def test_trace_serialization_shape(stab_a2, unstable_a2):
    trace = reduce_to_stable(stab_a2, unstable_a2)
    payload = trace.to_json_dict()
    assert payload["strategy"] == "bottom"
    assert len(payload["steps"]) == 1
    step = payload["steps"][0]
    assert step["exponent"] == -1
    assert step["spread_after"]["approx"] == 0.0
    assert "witness" in step["phi_minus_before"]


# -- the step certificate, on hand-built probe hits ------------------------

def _hit(shift, re, im=1):
    """A probe hit at phase shift + arg(re + i im)/pi."""
    return ProbeHit(Phase(shift, ExactComplex.of(re, im)), (1, 0), shift)


def _certify_phases(direction, before, after):
    return _certify(direction, Phases(*before), Phases(*after))


WIDE = (_hit(0, 1), _hit(1, 0))  # phases 0.25 and 1.5


def test_certify_accepts_a_wide_bottom_step():
    checks = _certify_phases("bottom", WIDE, (_hit(0, 0), _hit(1, 1)))
    assert checks == {
        "bottom_strict_improvement": "ok",
        "wide_spread_top_non_deterioration": "ok",
        "spread_strictly_decreases": "ok",
    }


def test_certify_accepts_a_narrow_top_step():
    checks = _certify_phases("top", (_hit(0, 1), _hit(0, -1)), (_hit(0, 1), _hit(0, 0)))
    assert checks == {
        "top_strict_improvement": "ok",
        "narrow_spread_bottom_non_deterioration": "ok",
        "spread_strictly_decreases": "ok",
    }


@pytest.mark.parametrize(
    "direction, after, message",
    [
        ("bottom", (_hit(0, 1), _hit(1, 1)),
         "bottom phase failed to strictly improve: Phase(0.250000) -> Phase(0.250000)"),
        ("bottom", (_hit(0, 0), _hit(1, -1)),
         "top phase deteriorated: Phase(1.500000) -> Phase(1.750000)"),
        ("top", (_hit(0, 0), _hit(1, -1)),
         "top phase failed to strictly improve: Phase(1.500000) -> Phase(1.750000)"),
        ("top", (_hit(0, 1, 0), _hit(1, 1)),
         "bottom phase deteriorated: Phase(0.250000) -> Phase(0.000000)"),
    ],
)
def test_certify_rejects_a_bad_end(direction, after, message):
    with pytest.raises(InvariantViolation) as err:
        _certify_phases(direction, WIDE, after)
    assert str(err.value) == message


def test_certify_rejects_a_spread_that_does_not_decrease(monkeypatch):
    # with consistent phase arithmetic the two end checks imply this one, so
    # pin the last clause by making every phase difference equal
    monkeypatch.setattr(Phase, "__sub__", lambda self, other: Phase.integer(1))
    with pytest.raises(InvariantViolation) as err:
        _certify_phases("bottom", WIDE, (_hit(0, 0), _hit(1, 1)))
    assert str(err.value) == "spread failed to decrease: Phase(1.000000) -> Phase(1.000000)"
