"""Phase-spread reduction and heart alignment.

The reduction loop drives an object toward a stable one: at every step it
twists (or untwists) by the unique stable spherical object sitting at the
extreme phase, re-measures both phases, and certifies that the driven end
strictly improved, the other end did not deteriorate, and the spread
strictly decreased.  A certified conclusion failing is an engine invariant
violation and always raises; it is never swallowed.  Heart alignment runs
the same loop at the bottom end and stops once the spread is below one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import HypothesisNotMet, InvariantViolation
from .homcore import (
    TwistedComplex,
    direct_sum,
    hom_dims,
    is_spherical,
    minimize,
    simple_object,
)
from .rootlat import Root
from .stability import Phase, Phases, StabilityCondition, StableBuild
from .twists import BraidWord, apply_braid, twist, untwist

BOTTOM = "bottom"
TOP = "top"


@dataclass
class StepRecord:
    """One certified twist step with the phases it was certified on."""

    direction: str
    root: Root
    shift: int
    exponent: int
    before: Phases
    after: Phases
    checks: dict[str, str] = field(default_factory=dict)

    phi_minus_before = property(lambda self: self.before.bottom.phase)
    phi_minus_after = property(lambda self: self.after.bottom.phase)
    phi_plus_before = property(lambda self: self.before.top.phase)
    phi_plus_after = property(lambda self: self.after.top.phase)
    spread_before = property(lambda self: self.before.spread)
    spread_after = property(lambda self: self.after.spread)

    def to_json_dict(self) -> dict:
        return {
            "direction": self.direction,
            "root": list(self.root),
            "shift": self.shift,
            "exponent": self.exponent,
            "phi_minus_before": self.phi_minus_before.to_json_dict(),
            "phi_minus_after": self.phi_minus_after.to_json_dict(),
            "phi_plus_before": self.phi_plus_before.to_json_dict(),
            "phi_plus_after": self.phi_plus_after.to_json_dict(),
            "spread_before": self.spread_before.to_json_dict(),
            "spread_after": self.spread_after.to_json_dict(),
            "checks": dict(self.checks),
        }


@dataclass
class ReductionTrace:
    strategy: str
    start: TwistedComplex
    final: TwistedComplex
    steps: list[StepRecord]
    word: BraidWord  # applying this to `final` reproduces `start`

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "steps": [s.to_json_dict() for s in self.steps],
            "final": self.final.to_json_dict(),
            "reconstruction_word_length": len(self.word),
        }


def _conjugated_twist_word(build: StableBuild, exponent: int) -> BraidWord:
    """Braid word acting as the twist (exponent +1/-1) in the built stable object."""
    core = BraidWord(((build.word.base, exponent),))
    return build.braid.inverse().then(core).then(build.braid)


def _moved_in(end: str, old: Phase, new: Phase) -> bool:
    """Whether the phase at this end moved strictly inward: up at the bottom, down at the top."""
    return new > old if end == BOTTOM else new < old


def _certify(direction: str, before: Phases, after: Phases) -> dict[str, str]:
    """Assert the step conclusions; returns the per-clause record.

    The driven end strictly improves, the other end does not deteriorate
    (the wide- or narrow-spread clause, by the spread before the step), and
    the spread strictly decreases.
    """
    other = TOP if direction == BOTTOM else BOTTOM
    old, new = getattr(before, direction).phase, getattr(after, direction).phase
    if not _moved_in(direction, old, new):
        raise InvariantViolation(f"{direction} phase failed to strictly improve: {old} -> {new}")
    checks = {f"{direction}_strict_improvement": "ok"}
    old, new = getattr(before, other).phase, getattr(after, other).phase
    if _moved_in(other, new, old):  # the way back is inward: the step moved outward
        raise InvariantViolation(f"{other} phase deteriorated: {old} -> {new}")
    width = "wide" if before.spread >= Phase.integer(1) else "narrow"
    checks[f"{width}_spread_{other}_non_deterioration"] = "ok"
    if not after.spread < before.spread:
        raise InvariantViolation(
            f"spread failed to decrease: {before.spread} -> {after.spread}"
        )
    checks["spread_strictly_decreases"] = "ok"
    return checks


def _step(
    stab: StabilityCondition, x: TwistedComplex, y: TwistedComplex, phases: Phases, direction: str
) -> tuple[TwistedComplex, Phases, StepRecord]:
    """Untwist (bottom) or twist (top) y by the spherical x sitting at that
    end of its phases, measure again and certify the step."""
    exponent = -1 if direction == BOTTOM else 1
    new = (untwist if exponent < 0 else twist)(x, y, _spherical_checked=True)
    after = stab.phi_probes(new)
    witness = getattr(phases, direction)
    record = StepRecord(direction, witness.root, witness.shift, exponent, phases, after)
    record.checks = _certify(direction, phases, after)
    return new, after, record


def _reduce(
    stab: StabilityCondition, cur: TwistedComplex, direction: str,
    done: Callable[[Phase], bool], step_budget: int | None,
) -> tuple[TwistedComplex, Phases, list[StepRecord], BraidWord]:
    """Twist at the `direction` end of the phases until `done(spread)`; returns the
    last object, its phases, the step records and the braid word of the steps,
    first step first, which applied to `cur` gives the last object."""
    if step_budget is None:
        lo, hi = cur.shift_range()
        step_budget = max(16, 4 * len(stab.roots) * (hi - lo + 3))
    phases = stab.phi_probes(cur)
    steps: list[StepRecord] = []
    word = BraidWord()
    while not done(phases.spread):
        if len(steps) >= step_budget:
            raise InvariantViolation(
                f"reduction exceeded its step budget of {step_budget}; "
                "either the budget is too small or termination failed"
            )
        build = stab.stable_build(getattr(phases, direction).root)
        cur, phases, record = _step(stab, build.obj, cur, phases, direction)
        steps.append(record)
        word = word.then(_conjugated_twist_word(build, record.exponent))
    return cur, phases, steps, word


def reduce_to_stable(
    stab: StabilityCondition,
    y: TwistedComplex,
    strategy: str = BOTTOM,
    step_budget: int | None = None,
) -> ReductionTrace:
    """Drive a spherical object to the stable representative of its orbit.

    Bottom strategy untwists by the stable object at the bottom phase; top
    strategy twists by the one at the top phase.  Every step is certified.
    """
    if strategy not in (BOTTOM, TOP):
        raise ValueError(f"unknown strategy {strategy!r}")
    stab.require_generic()
    start = minimize(y)
    if not is_spherical(start):
        raise ValueError("reduction is defined for spherical objects only")
    # spherical objects keep Hom^0(Y, Y) one-dimensional and have no
    # negative self-homs; twists preserve both, so the step hypotheses
    # hold throughout the loop.
    final, _, steps, word = _reduce(stab, start, strategy, Phase.is_zero, step_budget)
    return ReductionTrace(strategy, start, final, steps, word.inverse())


def certify_step(
    stab: StabilityCondition,
    x: TwistedComplex,
    y: TwistedComplex,
    direction: str = BOTTOM,
) -> StepRecord:
    """Apply one twist by a stable spherical x, checking hypotheses explicitly.

    Hypothesis failures raise HypothesisNotMet; conclusion failures raise
    InvariantViolation, which is a falsification event.
    """
    if direction not in (BOTTOM, TOP):
        raise ValueError(f"unknown direction {direction!r}")
    stab.require_generic()
    x = minimize(x)
    if not is_spherical(x):
        raise HypothesisNotMet("the twisting object must be spherical")
    x_phases = stab.phi_probes(x)
    if not x_phases.spread.is_zero():
        raise HypothesisNotMet("the twisting object must be semistable")
    phases = stab.phi_probes(y)
    if phases.spread.is_zero():
        raise HypothesisNotMet(
            "y is already semistable; the stable object of its phase is a direct summand"
        )
    if x_phases.bottom.phase != getattr(phases, direction).phase:
        raise HypothesisNotMet(f"x does not sit at the {direction} phase of y")
    self_homs = hom_dims(y, y)
    if any(d < 0 for d in self_homs):
        raise HypothesisNotMet("y has self-homs in negative degrees")
    if phases.spread < Phase.integer(1) and self_homs.get(0) != 1:
        raise HypothesisNotMet(
            "the narrow-spread clause needs a one-dimensional endomorphism space"
        )
    return _step(stab, x, y, phases, direction)[2]


def sandwich_check(
    stab: StabilityCondition,
    first: TwistedComplex,
    middle: TwistedComplex,
    last: TwistedComplex,
) -> bool:
    """Both middle-term phase inequalities for an exact triangle first -> middle -> last."""
    outer_a, inner, outer_b = (stab.phi_probes(obj) for obj in (first, middle, last))
    return (
        inner.bottom.phase >= min(outer_a.bottom.phase, outer_b.bottom.phase)
        and inner.top.phase <= max(outer_a.top.phase, outer_b.top.phase)
    )


@dataclass(frozen=True)
class OrbitStability:
    """A stability condition presented as (transport word, rotation) over a base."""

    transport: BraidWord = BraidWord()
    rotation: Phase | None = None


@dataclass
class HeartAlignment:
    word: BraidWord  # applied to the simples, realizes the aligned heart
    alpha: Phase  # rotation taking the aligned window back to [0, 1)
    alpha_base: Phase  # the same window expressed over the base condition
    steps: list[StepRecord]
    final: TwistedComplex

    def to_json_dict(self) -> dict:
        return {
            "word_length": len(self.word),
            "alpha": self.alpha.to_json_dict(),
            "steps": [s.to_json_dict() for s in self.steps],
        }


def heart_align(
    stab: StabilityCondition,
    orbit: OrbitStability,
    step_budget: int | None = None,
) -> HeartAlignment:
    """Align a transported stability condition with the standard heart.

    Measures the direct sum of the simples in the transported condition and
    keeps untwisting at the bottom phase while the spread is at least one.
    On termination all simples fit in a width-one window [alpha, alpha+1);
    the rotation alpha is reported and the per-simple window membership is
    verified (an integer alpha is preferred when the window allows it, so an
    already standard condition aligns with alpha = 0).
    """
    stab.require_generic()
    alg = stab.alg
    simples = [simple_object(alg, v) for v in range(stab.quiver.vertex_count)]
    transport = orbit.transport.inverse()
    cur, phases, steps, word = _reduce(
        stab, minimize(apply_braid(alg, transport, direct_sum(*simples))), BOTTOM,
        lambda spread: spread < Phase.integer(1), step_budget,
    )
    word = transport.then(word)
    lo, hi = phases.bottom.phase, phases.top.phase
    floor = Phase.integer(lo.shift)
    alpha_base = floor if hi < floor + 1 else lo
    alpha = alpha_base + orbit.rotation if orbit.rotation is not None else alpha_base
    for v, simple in enumerate(simples):
        window = stab.phi_probes(apply_braid(alg, word, simple))
        if not (window.bottom.phase >= alpha_base and window.top.phase < alpha_base + 1):
            raise InvariantViolation(
                f"realigned simple {v} escapes the [alpha, alpha+1) window"
            )
    return HeartAlignment(word=word, alpha=alpha, alpha_base=alpha_base, steps=steps, final=cur)
