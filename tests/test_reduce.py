import json
import pathlib
import random
from collections import Counter

import pytest

from twistcat import (
    BraidWord,
    CentralCharge,
    ExactComplex,
    HypothesisNotMet,
    InvariantViolation,
    Phase,
    ReductionTrace,
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
from twistcat import reduce as reduction
from twistcat import stability, verify
from twistcat.reduce import _certify
from twistcat.stability import Phases, ProbeHit
from conftest import random_image, random_word


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
        y = random_image(rng, alg_a3, 8)
        for strategy in ("bottom", "top"):
            assert verify.reduction_failures(stab, reduce_to_stable(stab, y, strategy), False) == []


def test_reduce_rejects_nonspherical(stab_a2, alg_a2):
    with pytest.raises(ValueError):
        reduce_to_stable(stab_a2, direct_sum(simple_object(alg_a2, 0), simple_object(alg_a2, 1)))


def _no_step_budget(monkeypatch):
    monkeypatch.setattr(reduction, "_step_budget", lambda stab, start: 0)


def test_reduce_budget_guard(monkeypatch, stab_a2, unstable_a2):
    _no_step_budget(monkeypatch)
    with pytest.raises(InvariantViolation, match="step budget of 0"):
        reduce_to_stable(stab_a2, unstable_a2)


def _checked_for_sphericity(monkeypatch):
    """The objects reduce_to_stable passes to is_spherical, in order."""
    checked = []

    def recording(obj, real=reduction.is_spherical):
        checked.append(obj)
        return real(obj)

    monkeypatch.setattr(reduction, "is_spherical", recording)
    return checked


def test_reduce_checks_sphericity_on_the_final_object(monkeypatch, stab_a2, unstable_a2):
    checked = _checked_for_sphericity(monkeypatch)
    trace = reduce_to_stable(stab_a2, unstable_a2)
    assert trace.steps
    assert len(checked) == 1 and checked[0] is trace.final


def test_reduce_rejects_nonspherical_when_the_loop_fails_first(monkeypatch, stab_a2, alg_a2):
    checked = _checked_for_sphericity(monkeypatch)
    _no_step_budget(monkeypatch)
    y = direct_sum(simple_object(alg_a2, 0), simple_object(alg_a2, 1))
    with pytest.raises(ValueError, match="spherical objects only"):
        reduce_to_stable(stab_a2, y)
    assert checked == [minimize(y)]


@pytest.mark.parametrize("failure", ["budget", "certificate"])
def test_spherical_input_with_a_failing_loop_raises_invariant_violation(
    monkeypatch, stab_a2, unstable_a2, failure
):
    checked = _checked_for_sphericity(monkeypatch)
    if failure == "budget":
        _no_step_budget(monkeypatch)
    else:
        def failing(direction, before, after, spread_before):
            raise InvariantViolation("certificate failed")

        monkeypatch.setattr(reduction, "_certify", failing)
    with pytest.raises(InvariantViolation):
        reduce_to_stable(stab_a2, unstable_a2)
    assert checked == [minimize(unstable_a2)]


def test_reductions_take_at_most_one_step_per_stable_phase_of_the_start():
    """The counting argument of `_step_budget`: the driven end passes at most
    N * (hi - lo + 1) stable phases, on the large inputs and on seeded images,
    under both strategies."""
    for type_name, (text, power, vertex) in verify.LARGE_INPUTS.items():
        alg = ZigzagAlgebra(named_quiver(type_name))
        rng = random.Random(f"step-bound:{type_name}")
        starts = [verify.power_image(alg, text, power, vertex)]
        starts += [random_image(rng, alg, 12) for _ in range(10)]
        for i, start in enumerate(starts):
            stab = StabilityCondition(alg, random_generic_charge(alg.quiver, rng))
            for strategy in ("bottom", "top"):
                trace = reduce_to_stable(stab, start, strategy)
                lo, hi = trace.start.shift_range()
                assert len(trace.steps) <= len(stab.roots) * (hi - lo + 1), (type_name, i, strategy)


def test_reduction_suite_records_a_final_class_that_is_no_root(monkeypatch):
    """A semistable final object whose class is no root, S_1 + S_1, is a
    recorded suite failure, not an error raised out of the suite."""
    def doubled(stab, start, strategy):
        s1 = simple_object(stab.alg, 0)
        return ReductionTrace(strategy, start, direct_sum(s1, s1), [], BraidWord())

    monkeypatch.setattr(verify, "reduce_to_stable", doubled)
    result = verify.suite_reduction("A2", runs=1, orbit_checks=0)
    assert result.cases == 1
    assert result.failures == ["A2 run#0: final class (2, 0) is not up to sign a positive root"]


def test_nonspherical_final_object_of_a_spherical_input(monkeypatch, stab_a2, unstable_a2):
    final = reduce_to_stable(stab_a2, unstable_a2).final
    monkeypatch.setattr(reduction, "is_spherical", lambda obj: obj != final)
    with pytest.raises(InvariantViolation, match="non-spherical"):
        reduce_to_stable(stab_a2, unstable_a2)


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
        y = random_image(rng, alg_a2, 6)
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
    with pytest.raises(HypothesisNotMet, match="y has self-homs in negative degrees"):
        certify_step(stab_a2, p1, direct_sum(p1, p1.shift(1)), "bottom")
    with pytest.raises(HypothesisNotMet, match="narrow-spread clause needs a one-dimensional"):
        certify_step(stab_a2, p2, direct_sum(p1, p2), "bottom")


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


@pytest.mark.parametrize("name, v", [("D4", 3), ("D4", 0), ("A4", 3)])
def test_objects_over_another_quiver_are_rejected_before_probing(stab_a3, alg_a3, name, v):
    """phi_probes and the three entry points that probe raise the quiver check's
    ValueError on an object over another quiver's algebra, not an IndexError or a
    charge-length error from inside the probe."""
    foreign = simple_object(ZigzagAlgebra(named_quiver(name)), v)
    home = simple_object(alg_a3, 0)
    entry_points = (
        lambda: stab_a3.phi_probes(foreign),
        lambda: reduce_to_stable(stab_a3, foreign),
        lambda: certify_step(stab_a3, home, foreign),
        lambda: sandwich_check(stab_a3, foreign, home, home),
    )
    for call in entry_points:
        with pytest.raises(ValueError, match="^the objects live over algebras of different quivers$"):
            call()


def test_objects_over_a_second_algebra_of_the_same_quiver_probe_and_reduce(stab_a3, alg_a3):
    other = ZigzagAlgebra(named_quiver("A3"))
    assert other is not alg_a3 and other.quiver == alg_a3.quiver
    word = parse_braid_word("s1 s2' s3")
    for v in range(3):
        mine, theirs = (apply_braid(alg, word, simple_object(alg, v)) for alg in (alg_a3, other))
        assert stab_a3.phi_probes(theirs) == stab_a3.phi_probes(mine)
        assert reduce_to_stable(stab_a3, theirs).final == reduce_to_stable(stab_a3, mine).final


def test_heart_align_identity(stab_a2):
    result = heart_align(stab_a2, BraidWord())
    assert result.steps == []
    assert result.word.letters == ()
    assert result.alpha == Phase.integer(0)


def test_heart_align_single_transport(stab_a2):
    result = heart_align(stab_a2, parse_braid_word("s1"))
    assert len(result.steps) >= 1
    for step in result.steps:
        assert step.spread_after < step.spread_before


def test_heart_align_budget_guard(monkeypatch, stab_a2):
    _no_step_budget(monkeypatch)
    with pytest.raises(InvariantViolation, match="step budget of 0"):
        heart_align(stab_a2, parse_braid_word("s1"))


def test_heart_align_random_transports(alg_a3):
    q = alg_a3.quiver
    rng = random.Random("align-random")
    for _ in range(4):
        stab = StabilityCondition(alg_a3, random_generic_charge(q, rng))
        transport = random_word(rng, 3, 6, min_len=0)
        result = heart_align(stab, transport)
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
    alignment = heart_align(stab, transport)
    assert len(alignment.steps) >= 2
    assert alignment.word.letters == _alignment_oracle(stab, transport, alignment.steps).letters


@pytest.mark.parametrize("type_name, seed", SEEDED)
def test_step_records_chain(type_name, seed):
    stab, transport, start = _seeded_case(type_name, seed)
    traces = [reduce_to_stable(stab, start, strategy) for strategy in ("bottom", "top")]
    for trace in traces:
        assert trace.steps[0].before == stab.phi_probes(trace.start)
    for run in traces + [heart_align(stab, transport)]:
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
    """The checks of `_certify`, which also returns the certified spread after the step."""
    before, after = Phases(*before), Phases(*after)
    checks, spread_after = _certify(direction, before, after, before.spread)
    assert spread_after == after.spread
    return checks


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


def test_a_reduction_reads_the_ladder_records(monkeypatch):
    """Once the probe ladder exists, a reduction takes each step's stable
    object from it: no record is made, no letter applied and no lift
    certified, also when the ladder was read off an earlier condition's
    records (here a positive multiple of its charge)."""
    alg = ZigzagAlgebra(named_quiver("D4"))
    rng = random.Random("ladder-records")
    first = StabilityCondition(alg, random_generic_charge(alg.quiver, rng))
    first._probe_ladder()
    stab = StabilityCondition(alg, CentralCharge([z.scale(3) for z in first.charge.values]))
    starts = [random_image(rng, alg, 6, min_len=3) for _ in range(6)]
    stab._probe_ladder()
    calls = Counter()
    for name in ("StableBuild", "apply_braid", "is_spherical"):
        def counted(*args, real=getattr(stability, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(stability, name, counted)
    steps = sum(
        len(reduce_to_stable(stab, y, strategy=strategy).steps)
        for y in starts for strategy in ("bottom", "top")
    )
    assert steps > 0
    assert calls == Counter()


def test_a_reduction_builds_no_phase_witness_until_it_is_serialized(monkeypatch):
    """Phases are decided on integer rays: reducing the CLI golden inputs reads
    `Phase.z` zero times, and the trace then serializes to the golden JSON."""
    golden = json.loads((pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text())
    witnesses = []
    real = Phase.z

    def counted(phase):
        witnesses.append(phase)
        return real.fget(phase)

    reductions = 0
    for command, entry in golden.items():
        args = command.split()
        if args[0] != "reduce":
            continue
        report = entry["report"]
        alg = ZigzagAlgebra(named_quiver(args[args.index("--type") + 1]))
        stab = StabilityCondition(alg, CentralCharge.from_json_dict(report["charge"]))
        word = parse_braid_word(report["input_word"])
        start = apply_braid(alg, word, simple_object(alg, report["start_vertex"] - 1))
        strategy = args[args.index("--strategy") + 1] if "--strategy" in args else "bottom"
        monkeypatch.setattr(Phase, "z", property(counted))
        trace = reduce_to_stable(stab, start, strategy=strategy)
        assert witnesses == []
        monkeypatch.undo()
        assert json.loads(json.dumps(trace.to_json_dict())) == report["trace"]
        reductions += bool(trace.steps)
    assert reductions >= 3  # the golden reductions that take steps
