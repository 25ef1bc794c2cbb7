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


def _conjugated_twist_word(build: StableBuild, exponent: int) -> tuple[tuple[int, int], ...]:
    """Letters of the braid word acting as the twist (exponent +1/-1) in the built stable object."""
    letters = build.braid.letters
    return tuple((v, -e) for v, e in reversed(letters)) + ((build.word.base, exponent),) + letters


def _moved_in(end: str, old: Phase, new: Phase) -> bool:
    """Whether the phase at this end moved strictly inward: up at the bottom, down at the top."""
    return new > old if end == BOTTOM else new < old


def _certify(
    direction: str, before: Phases, after: Phases, spread_before: Phase
) -> tuple[dict[str, str], Phase]:
    """Assert the step conclusions; returns the per-clause record and the spread after.

    The driven end strictly improves, the other end does not deteriorate
    (the wide- or narrow-spread clause, by the spread before the step), and
    the spread strictly decreases.  `spread_before` is `before.spread`,
    computed once by the caller.
    """
    other = TOP if direction == BOTTOM else BOTTOM
    old, new = getattr(before, direction).phase, getattr(after, direction).phase
    if not _moved_in(direction, old, new):
        raise InvariantViolation(f"{direction} phase failed to strictly improve: {old} -> {new}")
    checks = {f"{direction}_strict_improvement": "ok"}
    old, new = getattr(before, other).phase, getattr(after, other).phase
    if _moved_in(other, new, old):  # the way back is inward: the step moved outward
        raise InvariantViolation(f"{other} phase deteriorated: {old} -> {new}")
    spread_after = after.spread
    width = "wide" if spread_before >= Phase.integer(1) else "narrow"
    checks[f"{width}_spread_{other}_non_deterioration"] = "ok"
    if not spread_after < spread_before:
        raise InvariantViolation(
            f"spread failed to decrease: {spread_before} -> {spread_after}"
        )
    checks["spread_strictly_decreases"] = "ok"
    return checks, spread_after


def _step(
    stab: StabilityCondition, x: TwistedComplex, y: TwistedComplex, phases: Phases,
    spread: Phase, direction: str,
) -> tuple[TwistedComplex, Phases, Phase, StepRecord]:
    """Untwist (bottom) or twist (top) y by the spherical x sitting at that
    end of its phases (of spread `spread`), measure again and certify the
    step; returns the new object, its phases and spread, and the record."""
    exponent = -1 if direction == BOTTOM else 1
    new = (untwist if exponent < 0 else twist)(x, y, _spherical_checked=True)
    after = stab.phi_probes(new)
    witness = getattr(phases, direction)
    record = StepRecord(direction, witness.root, witness.shift, exponent, phases, after)
    record.checks, spread_after = _certify(direction, phases, after, spread)
    return new, after, spread_after, record


def _step_budget(stab: StabilityCondition, start: TwistedComplex) -> int:
    """The most steps `_reduce` takes from `start`, N * (hi - lo + 1) for N
    positive roots and the start's shifts lo..hi.

    Each certified step moves the driven end strictly inward and never
    moves the other end out (`_certify`), so the driven end's phases form a
    strictly monotone sequence between the start's two phases, each the
    phase of a stable S_w[k].  The start is minimal, and when its entry
    graph has no cycle (every braid image's) it is an iterated extension of
    its generators P_v[s], s in lo..hi, so its phases lie in [lo, hi + 1).
    Every stable object sits at shift 0 (certified by `_records`), so
    S_w[k] has phase in [k, k + 1), and [lo, hi + 1) holds the
    N * (hi - lo + 1) phases of the S_w[k] with k in lo..hi.  A run of m
    steps visits m + 1 of them, so m < N * (hi - lo + 1).
    """
    lo, hi = start.shift_range()
    return len(stab.roots) * (hi - lo + 1)


def _reduce(
    stab: StabilityCondition, cur: TwistedComplex, direction: str, done: Callable[[Phase], bool]
) -> tuple[TwistedComplex, Phases, list[StepRecord], BraidWord]:
    """Twist at the `direction` end of the phases until `done(spread)`; returns the
    last object, its phases, the step records and the braid word of the steps,
    first step first, which applied to `cur` gives the last object."""
    budget = _step_budget(stab, cur)
    phases = stab.phi_probes(cur)
    spread = phases.spread
    steps: list[StepRecord] = []
    letters: list[tuple[int, int]] = []
    while not done(spread):
        if len(steps) >= budget:
            raise InvariantViolation(
                f"reduction exceeded its step budget of {budget}; "
                "either the budget is too small or termination failed"
            )
        build = stab.stable_build(getattr(phases, direction).root)
        cur, phases, spread, record = _step(stab, build.obj, cur, phases, spread, direction)
        steps.append(record)
        letters.extend(_conjugated_twist_word(build, record.exponent))
    return cur, phases, steps, BraidWord(tuple(letters))


def reduce_to_stable(stab: StabilityCondition, y: TwistedComplex, strategy: str = BOTTOM) -> ReductionTrace:
    """Drive a spherical object to the stable representative of its orbit.

    Bottom strategy untwists by the stable object at the bottom phase; top
    strategy twists by the one at the top phase.  Every step is certified.

    Sphericity is checked on the final object, which is small: the steps
    are twists by spherical objects, which are autoequivalences, so final
    and start have isomorphic graded endomorphism algebras and one is
    spherical exactly when the other is.  Only when the loop raises or the
    final object is not spherical is the start checked, so that a
    non-spherical input is still rejected with ValueError and only a
    spherical one can end in InvariantViolation.
    """
    if strategy not in (BOTTOM, TOP):
        raise ValueError(f"unknown strategy {strategy!r}")
    stab.require_generic()
    start = minimize(y)
    # spherical objects keep Hom^0(Y, Y) one-dimensional and have no
    # negative self-homs; twists preserve both, so the step hypotheses
    # hold throughout the loop.
    try:
        final, _, steps, word = _reduce(stab, start, strategy, Phase.is_zero)
        spherical = is_spherical(final)
    except Exception:
        _require_spherical(start)
        raise
    if not spherical:
        _require_spherical(start)
        raise InvariantViolation("twists took a spherical object to a non-spherical one")
    return ReductionTrace(strategy, start, final, steps, word.inverse())


def _require_spherical(y: TwistedComplex) -> None:
    if not is_spherical(y):
        raise ValueError("reduction is defined for spherical objects only")


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
    spread = phases.spread
    if spread.is_zero():
        raise HypothesisNotMet(
            "y is already semistable; the stable object of its phase is a direct summand"
        )
    if x_phases.bottom.phase != getattr(phases, direction).phase:
        raise HypothesisNotMet(f"x does not sit at the {direction} phase of y")
    self_homs = hom_dims(y, y)
    if any(d < 0 for d in self_homs):
        raise HypothesisNotMet("y has self-homs in negative degrees")
    if spread < Phase.integer(1) and self_homs.get(0) != 1:
        raise HypothesisNotMet(
            "the narrow-spread clause needs a one-dimensional endomorphism space"
        )
    return _step(stab, x, y, phases, spread, direction)[3]


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


@dataclass
class HeartAlignment:
    word: BraidWord  # applied to the simples, realizes the aligned heart
    alpha: Phase  # rotation taking the aligned window back to [0, 1)
    steps: list[StepRecord]
    final: TwistedComplex

    def to_json_dict(self) -> dict:
        return {
            "word_length": len(self.word),
            "alpha": self.alpha.to_json_dict(),
            "steps": [s.to_json_dict() for s in self.steps],
        }


def heart_align(stab: StabilityCondition, transport: BraidWord) -> HeartAlignment:
    """Align the condition transported by a braid word with the standard heart.

    Measures the direct sum of the simples in the transported condition and
    keeps untwisting at the bottom phase while the spread is at least one.
    On termination all simples fit in a width-one window [alpha, alpha+1);
    the rotation alpha is reported and the per-simple window membership is
    verified (an integer alpha is preferred when the window allows it, so an
    already standard condition aligns with alpha = 0).  A rotation of the
    condition by the C-action shifts every phase by one real amount, so it
    would only add that amount to alpha (Bridgeland, arXiv:math/0212237).
    """
    stab.require_generic()
    alg = stab.alg
    simples = [simple_object(alg, v) for v in range(stab.quiver.vertex_count)]
    transport = transport.inverse()
    cur, phases, steps, word = _reduce(
        stab, minimize(apply_braid(alg, transport, direct_sum(*simples))), BOTTOM,
        lambda spread: spread < Phase.integer(1),
    )
    word = transport.then(word)
    lo, hi = phases.bottom.phase, phases.top.phase
    floor = Phase.integer(lo.shift)
    alpha = floor if hi < floor + 1 else lo
    for v, simple in enumerate(simples):
        window = stab.phi_probes(apply_braid(alg, word, simple))
        if not (window.bottom.phase >= alpha and window.top.phase < alpha + 1):
            raise InvariantViolation(
                f"realigned simple {v} escapes the [alpha, alpha+1) window"
            )
    return HeartAlignment(word=word, alpha=alpha, steps=steps, final=cur)
