"""Randomized verification suites over seeded inputs.

Each suite returns a SuiteResult with the executed case count and the list
of failure descriptions; it passes when it ran at least one case and the
failure list is empty.  All randomness flows through string-keyed
random.Random instances, so every run draws the same cases.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .errors import InvariantViolation
from .homcore import (
    TwistedComplex,
    find_shift_isomorphism,
    hom_dims,
    is_isomorphic,
    is_spherical,
    simple_object,
)
from .reduce import ReductionTrace, heart_align, reduce_to_stable, sandwich_check
from .rootlat import (
    Root,
    cartan_pairing,
    last_minimal_word,
    minimal_word,
    named_quiver,
    positive_roots,
)
from .stability import Phases, StabilityCondition, random_generic_charge
from .twists import (
    BraidWord,
    apply_braid,
    parse_braid_word,
    twist,
    twist_triangle,
    untwist,
    untwist_triangle,
)
from .zigzag import ZigzagAlgebra


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list[str]
    seconds: float

    @property
    def ok(self) -> bool:
        """No failures, and at least one case ran."""
        return self.cases > 0 and not self.failures

    def summary(self) -> str:
        status = "PASS" if self.ok else f"FAIL ({len(self.failures) or 'no cases'})"
        return f"{self.name}: {status} [{self.cases} cases, {self.seconds:.1f}s]"

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "failures": self.failures,
            "seconds": round(self.seconds, 3),
            "ok": self.ok,
        }


def _context(type_name: str):
    q = named_quiver(type_name)
    return q, ZigzagAlgebra(q)


def random_word(rng: random.Random, n_vertices: int, max_len: int, min_len: int = 1) -> BraidWord:
    """A braid word of min_len..max_len random letters with random exponents."""
    length = rng.randint(min_len, max_len)
    return BraidWord(
        tuple((rng.randrange(n_vertices), rng.choice((1, -1))) for _ in range(length))
    )


def random_image(rng: random.Random, alg: ZigzagAlgebra, max_len: int, min_len: int = 1) -> TwistedComplex:
    """The image of a random simple under a `random_word`, the word drawn first."""
    n = alg.quiver.vertex_count
    word = random_word(rng, n, max_len, min_len)
    return apply_braid(alg, word, simple_object(alg, rng.randrange(n)))


def stable_checks(stab: StabilityCondition, obj: TwistedComplex, w: Root) -> tuple[dict[str, bool], Phases]:
    """Whether obj is a spherical stable object of class w in the standard
    heart, as four named checks, and the phases of its one probe."""
    phases = stab.phi_probes(obj)
    return {
        "spherical": is_spherical(obj),
        "class_matches": obj.k_class() == w,
        "heart": phases.in_heart,
        "spread_zero": phases.spread.is_zero(),
    }, phases


def suite_stable_constructions(type_name: str, charges: int = 20) -> SuiteResult:
    """Per charge and positive root: the constructed object is a spherical,
    heart-contained, spread-zero representative of its class, and flipping
    any single exponent breaks semistability or heart membership.

    The probe of a stable object ends after one walk, the one from the
    generator-phase bound nearer its class, which proves it semistable
    (see `StabilityCondition.phi_probes`); the other walk makes no Hom test.
    """
    t0 = time.perf_counter()
    q, alg = _context(type_name)
    failures: list[str] = []
    cases = 0
    for c in range(charges):
        rng = random.Random(f"stable:{type_name}:0:{c}")
        stab = StabilityCondition(alg, random_generic_charge(q, rng))
        for w in stab.roots:
            cases += 1
            tag = f"{type_name} charge#{c} root {w}"
            try:
                build = stab.stable_build(w)
            except InvariantViolation as exc:
                failures.append(f"{tag}: {exc}")
                continue
            checks, _ = stable_checks(stab, build.obj, w)
            failures += [f"{tag}: check {k} failed" for k, ok in checks.items() if not ok]
            for i in range(len(build.signs)):
                cases += 1
                phases = stab.phi_probes(build.flipped(i))
                if phases.spread.is_zero() and phases.in_heart:
                    failures.append(f"{tag}: flipping exponent {i} left a stable heart object")
    return SuiteResult("stable constructions", cases, failures, time.perf_counter() - t0)


def suite_uniqueness(type_names=("A3", "A4", "D4"), min_cases: int = 10) -> SuiteResult:
    """Objects built from different minimal expressions of the same root agree."""
    t0 = time.perf_counter()
    failures: list[str] = []
    cases = 0
    for type_name in type_names:
        q, alg = _context(type_name)
        rng = random.Random(f"unique:{type_name}:0")
        stab = StabilityCondition(alg, random_generic_charge(q, rng))
        for w in stab.roots:
            first_word, last_word = minimal_word(q, w), last_minimal_word(q, w)
            if first_word == last_word:  # w has a single minimal word
                continue
            cases += 1
            first = stab.stable_object(w, first_word)
            last = stab.stable_object(w, last_word)
            if not is_isomorphic(first, last):
                failures.append(f"{type_name} root {w}: builds from two minimal words differ")
    if cases < min_cases:
        failures.append(f"only {cases} multi-expression roots available, needed {min_cases}")
    return SuiteResult("stable object uniqueness", cases, failures, time.perf_counter() - t0)


# Braid images of at least 500 generators that `suite_reduction` reduces
# besides its random runs: type -> (word text in operator order, power,
# 0-based vertex of the simple it acts on).
LARGE_INPUTS = {
    "A3": ("s1 s2' s3", 5, 1),  # 989 generators
    "D4": ("s1 s2' s3 s4", 4, 1),  # 896 generators
    "E6": ("s1 s3' s4 s2' s5 s6'", 4, 3),  # 527 generators
}


def power_image(alg: ZigzagAlgebra, text: str, power: int, vertex: int) -> TwistedComplex:
    """The image of the simple at `vertex` under the word `text` taken `power` times."""
    word = parse_braid_word(" ".join([text] * power))
    return apply_braid(alg, word, simple_object(alg, vertex))


def reduction_failures(stab: StabilityCondition, trace: ReductionTrace, orbit_check: bool) -> list[str]:
    """The checks of a finished reduction that fail; empty when all pass.

    The final object must be semistable, of a root class up to sign,
    spherical and shift-isomorphic to the stable object of that root; the
    trace's spreads must chain; and with `orbit_check` the inverse of the
    accumulated word must take the start to the final object.
    """
    final = trace.final
    if not stab.phi_probes(final).spread.is_zero():
        return ["final object is not semistable"]
    wf = final.k_class()
    pos = wf if all(x >= 0 for x in wf) else tuple(-x for x in wf)
    if pos not in stab.roots:
        return [f"final class {wf} is not up to sign a positive root"]
    failures = []
    if not is_spherical(final):
        failures.append("final object is not spherical")
    if find_shift_isomorphism(final, stab.stable_object(pos)) is None:
        failures.append(f"final object differs from the stable model of {pos}")
    for a, b in zip(trace.steps, trace.steps[1:]):
        if not b.spread_before == a.spread_after:
            failures.append("trace spreads do not chain")
    if orbit_check:
        # the word acts by an autoequivalence, so word(final) = start
        # exactly when word^-1(start) = final, the direction that shrinks
        reduced = apply_braid(stab.alg, trace.word.inverse(), trace.start)
        if not is_isomorphic(reduced, final):
            failures.append("inverse of the accumulated word does not reduce the input")
    return failures


def suite_reduction(
    type_name: str, runs: int, max_len: int = 12, strategy: str = "bottom", orbit_checks: int = 10
) -> SuiteResult:
    """Random braid images of simples reduce to stable objects of their class.

    Step certificates run inside the loop, so completing a run already
    certifies strict spread decrease and one-sided improvement throughout,
    and a violated certificate is one failure of its run.  On a type of
    `LARGE_INPUTS` one more case reduces that large image, with the orbit
    check, under a charge drawn for it.
    """
    t0 = time.perf_counter()
    q, alg = _context(type_name)
    failures: list[str] = []
    keys = [*range(runs), *(["large"] if type_name in LARGE_INPUTS else [])]
    for i in keys:
        rng = random.Random(f"reduce:{type_name}:0:{i}:{strategy}")
        stab = StabilityCondition(alg, random_generic_charge(q, rng))
        if i == "large":
            text, power, vertex = LARGE_INPUTS[type_name]
            tag, start, check = f"{type_name} ({text})^{power}", power_image(alg, text, power, vertex), True
        else:
            tag, start, check = f"{type_name} run#{i}", random_image(rng, alg, max_len), i < orbit_checks
        try:
            trace = reduce_to_stable(stab, start, strategy=strategy)
        except InvariantViolation as exc:
            failures.append(f"{tag}: {exc}")
            continue
        failures += [f"{tag}: {f}" for f in reduction_failures(stab, trace, check)]
    return SuiteResult(f"reduction ({strategy})", len(keys), failures, time.perf_counter() - t0)


def suite_sandwich(type_name: str, cases: int = 200) -> SuiteResult:
    """Random twist triangles, the middle term an image under at most 6
    letters, satisfy both middle-term phase inequalities."""
    t0 = time.perf_counter()
    q, alg = _context(type_name)
    failures: list[str] = []
    rng = random.Random(f"sandwich:{type_name}:0")
    stab = StabilityCondition(alg, random_generic_charge(q, rng))
    done = 0
    attempts = 0
    while done < cases and attempts < cases * 20:
        attempts += 1
        middle = random_image(rng, alg, 6)
        x = simple_object(alg, rng.randrange(q.vertex_count))
        builder = twist_triangle if rng.random() < 0.5 else untwist_triangle
        triangle = builder(x, middle, _spherical_checked=True)
        if triangle is None:
            continue
        done += 1
        if not sandwich_check(stab, *triangle):
            failures.append(f"{type_name} case#{done}: sandwich inequalities failed")
    if done < cases:
        failures.append(f"only {done} of {cases} triangles could be formed")
    return SuiteResult("sandwich triangles", done, failures, time.perf_counter() - t0)


def suite_heart_align(type_names=("A2", "A3"), cases: int = 30, max_len: int = 8) -> SuiteResult:
    """Transported conditions realign with the standard heart within budget."""
    t0 = time.perf_counter()
    failures: list[str] = []
    done = 0
    per_type = max(1, cases // len(type_names))
    for type_name in type_names:
        q, alg = _context(type_name)
        for i in range(per_type):
            done += 1
            tag = f"{type_name} align#{i}"
            rng = random.Random(f"align:{type_name}:0:{i}")
            stab = StabilityCondition(alg, random_generic_charge(q, rng))
            transport = random_word(rng, q.vertex_count, max_len, min_len=0)
            try:
                heart_align(stab, transport)
            except InvariantViolation as exc:
                failures.append(f"{tag}: {exc}")
    return SuiteResult("heart alignment", done, failures, time.perf_counter() - t0)


def suite_serre_euler(type_name: str, cases: int = 200, max_len: int = 5) -> SuiteResult:
    """Hom dimension symmetry across degree 2, and the alternating sum
    against the Cartan pairing of the classes."""
    t0 = time.perf_counter()
    q, alg = _context(type_name)
    failures: list[str] = []
    for i in range(cases):
        tag = f"{type_name} pair#{i}"
        rng = random.Random(f"serre:{type_name}:0:{i}")
        x = random_image(rng, alg, max_len, min_len=0)
        y = random_image(rng, alg, max_len, min_len=0)
        forward = hom_dims(x, y)
        backward = hom_dims(y, x)
        degrees = set(forward) | {2 - d for d in backward}
        for d in degrees:
            if forward.get(d, 0) != backward.get(2 - d, 0):
                failures.append(f"{tag}: dims not symmetric at degree {d}")
                break
        euler = sum((-1) ** d * n for d, n in forward.items())
        if euler != cartan_pairing(q, x.k_class(), y.k_class()):
            failures.append(f"{tag}: alternating sum disagrees with the Cartan pairing")
    return SuiteResult("serre/euler pairing", cases, failures, time.perf_counter() - t0)


def suite_braid_relations(type_names=("A2", "A3", "A4", "D4"), cases: int = 200) -> SuiteResult:
    """Adjacent twists braid, non-adjacent twists commute, on simples and
    random spherical images."""
    t0 = time.perf_counter()
    failures: list[str] = []
    rng = random.Random("braid:0")
    jobs = []
    for type_name in type_names:
        q, alg = _context(type_name)
        for i in range(q.vertex_count):
            for j in range(q.vertex_count):
                if i == j:
                    continue
                for v in range(q.vertex_count):
                    jobs.append((type_name, q, alg, i, j, v, BraidWord()))
    while len(jobs) < cases:
        type_name = rng.choice(type_names)
        q, alg = _context(type_name)
        i, j = rng.randrange(q.vertex_count), rng.randrange(q.vertex_count)
        if i == j:
            continue
        v = rng.randrange(q.vertex_count)
        jobs.append((type_name, q, alg, i, j, v, random_word(rng, q.vertex_count, 3)))
    done = 0
    for type_name, q, alg, i, j, v, prefix in jobs[:cases]:
        done += 1
        y = apply_braid(alg, prefix, simple_object(alg, v))
        if q.adjacent(i, j):
            lhs = apply_braid(alg, BraidWord(((i, 1), (j, 1), (i, 1))), y)
            rhs = apply_braid(alg, BraidWord(((j, 1), (i, 1), (j, 1))), y)
            kind = "braid"
        else:
            lhs = apply_braid(alg, BraidWord(((i, 1), (j, 1))), y)
            rhs = apply_braid(alg, BraidWord(((j, 1), (i, 1))), y)
            kind = "commute"
        if not is_isomorphic(lhs, rhs):
            failures.append(f"{type_name} ({i},{j}) on case#{done}: {kind} relation failed")
    return SuiteResult("braid relations", done, failures, time.perf_counter() - t0)


def suite_twist_inversion(type_name: str, cases: int = 200) -> SuiteResult:
    """twist and untwist by a simple are mutually inverse up to isomorphism
    on images under at most 6 letters."""
    t0 = time.perf_counter()
    q, alg = _context(type_name)
    failures: list[str] = []
    for i in range(cases):
        tag = f"{type_name} pair#{i}"
        rng = random.Random(f"invert:{type_name}:0:{i}")
        x = simple_object(alg, rng.randrange(q.vertex_count))
        y = random_image(rng, alg, 6, min_len=0)
        if not is_isomorphic(untwist(x, twist(x, y, True), True), y):
            failures.append(f"{tag}: untwist(twist(y)) is not y")
        if not is_isomorphic(twist(x, untwist(x, y, True), True), y):
            failures.append(f"{tag}: twist(untwist(y)) is not y")
    return SuiteResult("twist/untwist inversion", cases, failures, time.perf_counter() - t0)


def run_verify(type_name: str, seeds: int = 5) -> list[SuiteResult]:
    """The batch harness behind the verify command."""
    if seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {seeds}")
    q = named_quiver(type_name)
    results = [suite_stable_constructions(type_name, charges=seeds)]
    # uniqueness needs a root with two minimal words, which A1 lacks
    if any(minimal_word(q, w) != last_minimal_word(q, w) for w in positive_roots(q)):
        results.append(suite_uniqueness((type_name,), min_cases=0))
    results += [
        suite_reduction(type_name, runs=seeds, max_len=8, orbit_checks=3),
        suite_sandwich(type_name, cases=5 * seeds),
        suite_heart_align((type_name,), cases=max(2, seeds // 2), max_len=6),
        suite_serre_euler(type_name, cases=5 * seeds),
        suite_twist_inversion(type_name, cases=2 * seeds),
    ]
    if q.vertex_count >= 2:
        results.append(suite_braid_relations((type_name,), cases=2 * seeds))
    return results
