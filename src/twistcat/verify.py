"""Randomized verification suites over seeded inputs.

Each suite returns a SuiteResult with the executed case count and the list
of failure descriptions; it passes when it ran at least one case and the
failure list is empty.  All randomness flows through string-seeded
random.Random instances, so every run is reproducible from its seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolation
from .homcore import (
    find_shift_isomorphism,
    hom_dims,
    is_isomorphic,
    is_spherical,
    simple_object,
)
from .reduce import heart_align, reduce_to_stable, sandwich_check, OrbitStability
from .rootlat import (
    cartan_pairing,
    last_minimal_word,
    minimal_word,
    named_quiver,
    positive_roots,
)
from .stability import (
    ExactComplex,
    Phase,
    StabilityCondition,
    random_generic_charge,
)
from .twists import (
    BraidWord,
    apply_braid,
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


def suite_stable_constructions(type_name: str, charges: int = 20, seed: int = 0) -> SuiteResult:
    """Per charge and positive root: the constructed object is a spherical,
    heart-contained, spread-zero representative of its class, and flipping
    any single exponent breaks semistability or heart membership."""
    t0 = time.perf_counter()
    q, alg = _context(type_name)
    failures: list[str] = []
    cases = 0
    for c in range(charges):
        rng = random.Random(f"stable:{type_name}:{seed}:{c}")
        stab = StabilityCondition(alg, random_generic_charge(q, rng))
        for w in stab.roots:
            cases += 1
            tag = f"{type_name} charge#{c} root {w}"
            try:
                build = stab.stable_build(w)
            except InvariantViolation as exc:
                failures.append(f"{tag}: {exc}")
                continue
            obj = build.obj
            if obj.k_class() != w:
                failures.append(f"{tag}: class {obj.k_class()} != {w}")
            if not is_spherical(obj):
                failures.append(f"{tag}: not spherical")
            phases = stab.phi_probes(obj)
            if not phases.in_heart:
                failures.append(f"{tag}: not in the standard heart")
            if not phases.spread.is_zero():
                failures.append(f"{tag}: spread is not zero")
            for i in range(len(build.signs)):
                cases += 1
                phases = stab.phi_probes(build.flipped(i))
                if phases.spread.is_zero() and phases.in_heart:
                    failures.append(f"{tag}: flipping exponent {i} left a stable heart object")
    return SuiteResult("stable constructions", cases, failures, time.perf_counter() - t0)


def suite_uniqueness(
    type_names=("A3", "A4", "D4"), min_cases: int = 10, seed: int = 0
) -> SuiteResult:
    """Objects built from different minimal expressions of the same root agree."""
    t0 = time.perf_counter()
    failures: list[str] = []
    cases = 0
    for type_name in type_names:
        q, alg = _context(type_name)
        rng = random.Random(f"unique:{type_name}:{seed}")
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


def suite_reduction(
    type_name: str,
    runs: int,
    max_len: int = 12,
    strategy: str = "bottom",
    seed: int = 0,
    orbit_checks: int = 10,
) -> SuiteResult:
    """Random braid images of simples reduce to stable objects of their class.

    Step certificates run inside the loop, so completing a run already
    certifies strict spread decrease and one-sided improvement throughout.
    """
    t0 = time.perf_counter()
    q, alg = _context(type_name)
    failures: list[str] = []
    cases = 0
    for i in range(runs):
        cases += 1
        tag = f"{type_name} run#{i}"
        rng = random.Random(f"reduce:{type_name}:{seed}:{i}:{strategy}")
        stab = StabilityCondition(alg, random_generic_charge(q, rng))
        word = random_word(rng, q.vertex_count, max_len)
        start = apply_braid(alg, word, simple_object(alg, rng.randrange(q.vertex_count)))
        try:
            trace = reduce_to_stable(stab, start, strategy=strategy)
        except InvariantViolation as exc:
            failures.append(f"{tag}: {exc}")
            continue
        if not stab.phi_probes(trace.final).spread.is_zero():
            failures.append(f"{tag}: final object is not semistable")
            continue
        wf = trace.final.k_class()
        pos = wf if all(x >= 0 for x in wf) else tuple(-x for x in wf)
        if not all(x >= 0 for x in pos) or not any(x > 0 for x in pos):
            failures.append(f"{tag}: final class {wf} is not up to sign a positive root")
            continue
        if find_shift_isomorphism(trace.final, stab.stable_object(pos)) is None:
            failures.append(f"{tag}: final object differs from the stable model of {pos}")
        for a, b in zip(trace.steps, trace.steps[1:]):
            if not b.spread_before == a.spread_after:
                failures.append(f"{tag}: trace spreads do not chain")
        if i < orbit_checks:
            rebuilt = apply_braid(alg, trace.word, trace.final)
            if not is_isomorphic(rebuilt, trace.start):
                failures.append(f"{tag}: accumulated word does not reproduce the input")
    return SuiteResult(
        f"reduction ({strategy})", cases, failures, time.perf_counter() - t0
    )


def suite_sandwich(type_name: str, cases: int = 200, max_len: int = 6, seed: int = 0) -> SuiteResult:
    """Random twist triangles satisfy both middle-term phase inequalities."""
    t0 = time.perf_counter()
    q, alg = _context(type_name)
    failures: list[str] = []
    rng = random.Random(f"sandwich:{type_name}:{seed}")
    stab = StabilityCondition(alg, random_generic_charge(q, rng))
    done = 0
    attempts = 0
    while done < cases and attempts < cases * 20:
        attempts += 1
        word = random_word(rng, q.vertex_count, max_len)
        middle = apply_braid(alg, word, simple_object(alg, rng.randrange(q.vertex_count)))
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


def suite_heart_align(
    type_names=("A2", "A3"), cases: int = 30, max_len: int = 8, seed: int = 0
) -> SuiteResult:
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
            rng = random.Random(f"align:{type_name}:{seed}:{i}")
            stab = StabilityCondition(alg, random_generic_charge(q, rng))
            transport = random_word(rng, q.vertex_count, max_len, min_len=0)
            rotation = Phase.of(
                ExactComplex(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                    Fraction(rng.randint(1, 6), rng.randint(1, 4)),
                ),
                rng.randint(-2, 2),
            )
            try:
                heart_align(stab, OrbitStability(transport, rotation))
            except InvariantViolation as exc:
                failures.append(f"{tag}: {exc}")
    return SuiteResult("heart alignment", done, failures, time.perf_counter() - t0)


def suite_serre_euler(type_name: str, cases: int = 200, max_len: int = 5, seed: int = 0) -> SuiteResult:
    """Hom dimension symmetry across degree 2, and the alternating sum
    against the Cartan pairing of the classes."""
    t0 = time.perf_counter()
    q, alg = _context(type_name)
    failures: list[str] = []
    for i in range(cases):
        tag = f"{type_name} pair#{i}"
        rng = random.Random(f"serre:{type_name}:{seed}:{i}")
        x = apply_braid(
            alg, random_word(rng, q.vertex_count, max_len, min_len=0),
            simple_object(alg, rng.randrange(q.vertex_count)),
        )
        y = apply_braid(
            alg, random_word(rng, q.vertex_count, max_len, min_len=0),
            simple_object(alg, rng.randrange(q.vertex_count)),
        )
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


def suite_braid_relations(
    type_names=("A2", "A3", "A4", "D4"), cases: int = 200, seed: int = 0
) -> SuiteResult:
    """Adjacent twists braid, non-adjacent twists commute, on simples and
    random spherical images."""
    t0 = time.perf_counter()
    failures: list[str] = []
    rng = random.Random(f"braid:{seed}")
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
    if cases:
        jobs = jobs[:cases]
    done = 0
    for type_name, q, alg, i, j, v, prefix in jobs:
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


def suite_twist_inversion(type_name: str, cases: int = 200, max_len: int = 6, seed: int = 0) -> SuiteResult:
    """twist and untwist are mutually inverse up to isomorphism."""
    t0 = time.perf_counter()
    q, alg = _context(type_name)
    failures: list[str] = []
    for i in range(cases):
        tag = f"{type_name} pair#{i}"
        rng = random.Random(f"invert:{type_name}:{seed}:{i}")
        x = simple_object(alg, rng.randrange(q.vertex_count))
        y = apply_braid(
            alg, random_word(rng, q.vertex_count, max_len, min_len=0),
            simple_object(alg, rng.randrange(q.vertex_count)),
        )
        if not is_isomorphic(untwist(x, twist(x, y, True), True), y):
            failures.append(f"{tag}: untwist(twist(y)) is not y")
        if not is_isomorphic(twist(x, untwist(x, y, True), True), y):
            failures.append(f"{tag}: twist(untwist(y)) is not y")
    return SuiteResult("twist/untwist inversion", cases, failures, time.perf_counter() - t0)


def run_verify(type_name: str, seeds: int = 5, seed: int = 0) -> list[SuiteResult]:
    """The batch harness behind the verify command."""
    if seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {seeds}")
    q = named_quiver(type_name)
    results = [suite_stable_constructions(type_name, charges=seeds, seed=seed)]
    # uniqueness needs a root with two minimal words, which A1 lacks
    if any(minimal_word(q, w) != last_minimal_word(q, w) for w in positive_roots(q)):
        results.append(suite_uniqueness((type_name,), min_cases=0, seed=seed))
    results += [
        suite_reduction(type_name, runs=seeds, max_len=8, seed=seed, orbit_checks=3),
        suite_sandwich(type_name, cases=5 * seeds, seed=seed),
        suite_heart_align((type_name,), cases=max(2, seeds // 2), max_len=6, seed=seed),
        suite_serre_euler(type_name, cases=5 * seeds, seed=seed),
        suite_twist_inversion(type_name, cases=2 * seeds, seed=seed),
    ]
    if q.vertex_count >= 2:
        results.append(suite_braid_relations((type_name,), cases=2 * seeds, seed=seed))
    return results
