"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact rational arithmetic; there are no tolerances to
tune.  Randomized suites are seeded and sized as stated in each criterion.
"""

import time

import pytest

from twistcat import (
    StabilityCondition,
    WeylWord,
    ZigzagAlgebra,
    braid_word_to_text,
    is_isomorphic,
    named_quiver,
    reduce_to_stable,
)
from twistcat.verify import (
    power_image,
    reduction_failures,
    stable_checks,
    suite_braid_relations,
    suite_heart_align,
    suite_reduction,
    suite_sandwich,
    suite_serre_euler,
    suite_stable_constructions,
    suite_twist_inversion,
    suite_uniqueness,
)
from conftest import a3_reference_charge


def _report(number: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {status}")
    for failure in failures[:20]:
        print(f"  - {failure}")
    assert not failures, f"criterion {number} failed with {len(failures)} problems"


@pytest.fixture(scope="module")
def reduction_results():
    """Criterion 4's runs, shared with criterion 5 (its certificates run inline)."""
    return [
        suite_reduction("A3", runs=50, max_len=12, orbit_checks=10),
        suite_reduction("D4", runs=20, max_len=12, orbit_checks=5),
    ]


def test_criterion_1_figure_configuration():
    """The reference A3 charge reproduces the documented stable object."""
    failures = []
    t0 = time.perf_counter()
    alg = ZigzagAlgebra(named_quiver("A3"))
    stab = StabilityCondition(alg, a3_reference_charge())
    word = WeylWord(base=1, letters=(0, 2, 1))
    build = stab.stable_build((1, 1, 1), word)
    if build.signs != (1, -1, -1):
        failures.append(f"sign pattern {build.signs} != (1, -1, -1)")
    if braid_word_to_text(build.braid) != "s2' s3' s1":
        failures.append(f"braid word {braid_word_to_text(build.braid)!r} != \"s2' s3' s1\"")
    if build.sequence != [(1, 1, 1), (1, 1, 0), (0, 1, 1), (0, 1, 0)]:
        failures.append(f"unexpected root sequence {build.sequence}")
    checks, _ = stable_checks(stab, build.obj, (1, 1, 1))
    failures += [f"check {k} failed" for k, ok in checks.items() if not ok]
    if not is_isomorphic(build.obj, stab.stable_object((1, 1, 1))):
        failures.append("greedy-word construction is not isomorphic to the figure's")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _report(1, "golden stable object on A3", failures)


def test_criterion_2_stable_construction_suite():
    """Every positive root, every type, 20 random generic charges each."""
    failures = []
    for type_name in ("A1", "A2", "A3", "A4", "D4"):
        result = suite_stable_constructions(type_name, charges=20)
        failures.extend(f"{type_name}: {f}" for f in result.failures)
    _report(2, "signed lifts are stable, flips are not", failures)


def test_criterion_2_beyond_rank_four():
    """Criterion 2's checks on A5 and D5 (5 charges each) and E6 (2 charges)."""
    failures = []
    for type_name, charges in (("A5", 5), ("D5", 5), ("E6", 2)):
        result = suite_stable_constructions(type_name, charges=charges)
        if not result.cases:
            failures.append(f"{type_name}: no cases ran")
        failures.extend(f"{type_name}: {f}" for f in result.failures)
    _report(2, "signed lifts are stable beyond rank four", failures)


def test_criterion_3_uniqueness_across_expressions():
    result = suite_uniqueness(("A3", "A4", "D4"), min_cases=10)
    print(f"\n  distinct-expression roots exercised: {result.cases}")
    _report(3, "uniqueness across minimal expressions", result.failures)


def test_criterion_3_uniqueness_on_every_ade_family():
    """Criterion 3 beyond rank four: A5, A9, D5, D9, E6, E7 and E8 (322 roots)."""
    types = ("A5", "A9", "D5", "D9", "E6", "E7", "E8")
    result = suite_uniqueness(types, min_cases=322)
    print(f"\n  distinct-expression roots exercised: {result.cases}")
    _report(3, "uniqueness across minimal expressions on A, D and E", result.failures)


def test_criterion_4_reduction_at_desk_scale(reduction_results):
    failures = []
    for result in reduction_results:
        failures.extend(f"{result.name}: {f}" for f in result.failures)
    cases = sum(r.cases for r in reduction_results)
    print(f"\n  reductions executed: {cases}")
    _report(4, "orbit reduction terminates on stable objects", failures)


@pytest.mark.parametrize("strategy", ["bottom", "top"])
def test_criterion_4_reduction_of_a_large_object(strategy):
    """The 989-generator image of the middle A3 simple under (s1 s2' s3)^5
    passes every check of `reduction_failures`, the orbit check included."""
    alg = ZigzagAlgebra(named_quiver("A3"))
    stab = StabilityCondition(alg, a3_reference_charge())
    start = power_image(alg, "s1 s2' s3", 5, 1)
    assert len(start.generators) == 989
    trace = reduce_to_stable(stab, start, strategy=strategy)
    print(f"\n  steps: {len(trace.steps)}, final generators: {len(trace.final.generators)}")
    _report(4, f"reduction of a 989-generator A3 object ({strategy})",
            reduction_failures(stab, trace, True))


def test_criterion_5_runtime_certificates(reduction_results):
    """Zero certificate violations across criterion 4, plus 200 sandwich triangles."""
    failures = []
    for result in reduction_results:
        failures.extend(
            f"{result.name}: {f}" for f in result.failures if "phase" in f or "spread" in f
        )
    sandwich = suite_sandwich("A3", cases=200)
    failures.extend(sandwich.failures)
    _report(5, "phase improvement certificates", failures)


def test_criterion_6_heart_alignment():
    result = suite_heart_align(("A2", "A3"), cases=30, max_len=8)
    print(f"\n  alignments executed: {result.cases}")
    _report(6, "transported hearts realign", result.failures)


def test_criterion_7_structural_invariants():
    failures = []
    serre = suite_serre_euler("A3", cases=200, max_len=5)
    failures.extend(serre.failures)
    serre_d4 = suite_serre_euler("D4", cases=50, max_len=4)
    failures.extend(serre_d4.failures)
    braid = suite_braid_relations(("A2", "A3", "A4", "D4"), cases=200)
    failures.extend(braid.failures)
    inversion = suite_twist_inversion("A3", cases=150)
    failures.extend(inversion.failures)
    inversion_a2 = suite_twist_inversion("A2", cases=50)
    failures.extend(inversion_a2.failures)
    cases = serre.cases + serre_d4.cases + braid.cases + inversion.cases + inversion_a2.cases
    print(f"\n  structural cases executed: {cases}")
    _report(7, "duality, pairing, braid and inversion laws", failures)


# -- criteria 4-7 beyond rank four, with small case counts ---------------------

WIDER_TYPES = ("A5", "D5", "E6")


def _failures(results) -> list[str]:
    """Every failure of the (type, suite result) pairs, and one for each suite
    that ran no case."""
    failures = []
    for type_name, result in results:
        tag = f"{type_name} {result.name}"
        if not result.cases:
            failures.append(f"{tag}: no cases ran")
        failures.extend(f"{tag}: {f}" for f in result.failures)
    return failures


@pytest.fixture(scope="module")
def wider_reduction_results():
    """Criterion 4's runs on A5, D5 and E6 with both strategies, shared with criterion 5."""
    return [
        (t, suite_reduction(t, runs=runs, max_len=10, strategy=strategy, orbit_checks=checks))
        for t in WIDER_TYPES
        for strategy, runs, checks in (("bottom", 12, 4), ("top", 6, 2))
    ]


def test_criterion_4_reduction_beyond_rank_four(wider_reduction_results):
    print(f"\n  reductions executed: {sum(r.cases for _, r in wider_reduction_results)}")
    _report(4, "orbit reduction on A5, D5 and E6", _failures(wider_reduction_results))


def test_criterion_5_runtime_certificates_beyond_rank_four(wider_reduction_results):
    failures = [
        f for f in _failures(wider_reduction_results) if "phase" in f or "spread" in f
    ]
    failures += _failures((t, suite_sandwich(t, cases=30)) for t in WIDER_TYPES)
    _report(5, "phase improvement certificates on A5, D5 and E6", failures)


def test_criterion_6_heart_alignment_beyond_rank_four():
    results = [(t, suite_heart_align((t,), cases=4, max_len=6)) for t in WIDER_TYPES]
    print(f"\n  alignments executed: {sum(r.cases for _, r in results)}")
    _report(6, "transported hearts realign on A5, D5 and E6", _failures(results))


def test_criterion_7_structural_invariants_beyond_rank_four():
    results = []
    for t in WIDER_TYPES:
        results += [
            (t, suite_serre_euler(t, cases=30, max_len=5)),
            (t, suite_braid_relations((t,), cases=30)),
            (t, suite_twist_inversion(t, cases=30)),
        ]
    print(f"\n  structural cases executed: {sum(r.cases for _, r in results)}")
    _report(7, "duality, pairing, braid and inversion laws on A5, D5 and E6", _failures(results))
