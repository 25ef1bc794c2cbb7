"""Run the standing mutant table: small edits of the engine that a test must catch.

Each row names a file, an exact old text, the new text that replaces it
and the tests that must fail on the result.  For each row the repository
is copied to a temporary directory, the old text (which must occur exactly
once in the file) is replaced, and the tests run there with `pytest -x`.
The row's mutant is killed when they fail.  Only the standard library is
used; pytest and Hypothesis must be installed, as for the test suite.

    python3 scripts/mutants.py              # every row
    python3 scripts/mutants.py NAME ...     # the named rows

Exits 0 when every row ran and was killed, and 1 when a mutant survived,
an old text does not occur exactly once (the code moved, so the row must
follow it), or the tests could not run (a bad test id, a collection
error).  A row whose tests run past the timeout counts as killed.

A change that claims a mutant kill adds its row here.  Moving a row to
another test, or dropping one, is a test change.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "cohomology dimensions skip D_{d-1} when Hom^{d+1} is empty",
        "src/twistcat/homcore.py",
        "        if d - 1 in self.basis:\n",
        "        if d + 1 in self.basis:\n",
        ("tests/test_properties.py::"
         "test_hom0_matches_the_full_rank_formula_and_its_serre_dual",),
    ),
    Mutant(
        "the exact quotient of two ints is always a Fraction",
        "src/twistcat/linalg.py",
        "        return a // p if not a % p else Fraction(a, p)\n",
        "        return Fraction(a, p)\n",
        ("tests/test_linalg.py::test_rank_stays_in_ints_on_incidence_columns",),
    ),
    Mutant(
        "no sign on f o d_X in the Hom-complex matrix",
        "src/twistcat/homcore.py",
        "                    col[row] = c if odd else -c\n",
        "                    col[row] = c\n",
        ("tests/test_properties.py::test_matrix_equals_the_per_call_oracle_in_any_call_order",),
    ),
    Mutant(
        "Morphism.differential keeps zero sums",
        "src/twistcat/homcore.py",
        "        return Morphism._trusted(x, y, degree, {k: c for k, c in out.items() if c})\n",
        "        return Morphism._trusted(x, y, degree, out)\n",
        ("tests/test_homcore.py::test_cone_of_arrow",
         "tests/test_properties.py::test_engine_maps_pass_the_validated_constructor"),
    ),
    Mutant(
        "the twist's tensor copies of x keep an unshifted differential",
        "src/twistcat/homcore.py",
        "            diff[(h + offset, g + offset)] = c if d % 2 else -c\n",
        "            diff[(h + offset, g + offset)] = -c\n",
        ("tests/test_twists.py::test_each_twist_minimizes_the_checked_cone_of_its_map",),
    ),
    Mutant(
        "the untwist's rep entries take the wrong sign",
        "src/twistcat/homcore.py",
        "                diff[(h + offset, g + at_y)] = -vec[pos]\n",
        "                diff[(h + offset, g + at_y)] = vec[pos]\n",
        ("tests/test_twists.py::test_each_twist_minimizes_the_checked_cone_of_its_map",),
    ),
    Mutant(
        "a cone's map entries lose the offset of their copy of x",
        "src/twistcat/homcore.py",
        "                diff[(h, g + offset)] = vec[pos]\n",
        "                diff[(h, g)] = vec[pos]\n",
        ("tests/test_homcore.py::test_cone_lays_out_y_then_x_shifted_with_the_map_last",),
    ),
    Mutant(
        "a cone drops y's own differential",
        "src/twistcat/homcore.py",
        "    diff: Entries = dict(y.differential) if exponent == 1 else {}\n",
        "    diff: Entries = {}\n",
        ("tests/test_homcore.py::test_cone_lays_out_y_then_x_shifted_with_the_map_last",),
    ),
    Mutant(
        "a twist drops the last term of its tensor",
        "src/twistcat/twists.py",
        "    maps = HomComplex(source, target).rep_maps()\n",
        "    maps = HomComplex(source, target).rep_maps()[:-1]\n",
        ("tests/test_curves.py::test_braid_images_have_the_curve_counts",),
    ),
    Mutant(
        "the class prune of a one-shift walk compares the wrong way",
        "src/twistcat/stability.py",
        "all(map(operator.le, b.root, dim))",
        "all(map(operator.ge, b.root, dim))",
        ("tests/test_stability.py::test_pruned_walks_on_one_shift_sums_find_the_unpruned_hits",),
    ),
    Mutant(
        "a reader keeps its index by target in the slot of its index by source",
        "src/twistcat/homcore.py",
        ("        if self._by_target is None:\n"
         "            self._by_target = _index(self.complex.differential, False)\n"
         "        return self._by_target\n"),
        ("        if self._by_source is None:\n"
         "            self._by_source = _index(self.complex.differential, False)\n"
         "        return self._by_source\n"),
        ("tests/test_properties.py::test_a_shared_reader_changes_no_answer",),
    ),
    Mutant(
        "the coreach keys a path by its degree minus the generator's shift",
        "src/twistcat/homcore.py",
        "                (g, degree + sg)\n",
        "                (g, degree - sg)\n",
        ("tests/test_properties.py::test_a_shared_reader_changes_no_answer",),
    ),
    Mutant(
        "the bottom walk files from the record's reach",
        "src/twistcat/homcore.py",
        "        if type(source) is _Reader and type(target) is not _Reader:\n",
        "        if False:\n",
        ("tests/test_stability.py::test_a_walk_indexes_y_once_and_keeps_no_reader",),
    ),
    Mutant(
        "the open layout keeps only Hom degrees 0..2",
        "src/twistcat/homcore.py",
        "                basis.setdefault(offset + sg, []).append((g, h))\n",
        ("                if 0 <= offset + sg <= 2:\n"
         "                    basis.setdefault(offset + sg, []).append((g, h))\n"),
        ("tests/test_properties.py::test_hom_basis_order_is_the_pair_by_pair_order",),
    ),
    Mutant(
        "rep_vectors keeps every kernel vector when D_{d-1} has rank 1",
        "src/twistcat/homcore.py",
        "            if rank == 0:\n",
        "            if rank <= 1:\n",
        ("tests/test_properties.py::test_rep_vectors_match_the_oracle_on_every_count_branch",),
    ),
    Mutant(
        "phi_probes takes every input as minimal",
        "src/twistcat/stability.py",
        "            if gens[h].shift == gens[g].shift - 1:\n",
        "            if False:\n",
        ("tests/test_stability.py::"
         "test_bounded_walk_matches_the_unpruned_walk_on_shifted_and_padded_objects",),
    ),
    Mutant(
        "the one-walk probe ends without the ray test",
        "src/twistcat/stability.py",
        "            return hit.shift == s and _ray_cross(ray, self._rays[hit.root]) == 0\n",
        "            return hit.shift == s\n",
        ("tests/test_stability.py::test_a_sum_of_two_stable_objects_runs_the_top_walk",),
    ),
    Mutant(
        "the one-walk probe ends without the one-shift test",
        "src/twistcat/stability.py",
        "        if low is None or low[0] != high[0]:\n",
        "        if low is None:\n",
        ("tests/test_stability.py::"
         "test_a_class_on_the_bottom_ray_over_several_shifts_runs_the_top_walk",),
    ),
    Mutant(
        "the top walk's window is one shift off",
        "src/twistcat/stability.py",
        "            pad = 0 if bottom else 2\n",
        "            pad = 0 if bottom else 1\n",
        ("tests/test_stability.py::test_probe_candidates_follow_phase_order",),
    ),
    Mutant(
        "the bottom walk probes the top layer",
        "src/twistcat/stability.py",
        "            y = _layer(y, k)\n",
        "            y = _layer(y, y.shift_range()[1])\n",
        ("tests/test_stability.py::"
         "test_walks_on_multi_shift_images_test_one_layer_and_find_the_unpruned_hits",),
    ),
    Mutant(
        "the shift-0 certificate of a record is dropped",
        "src/twistcat/stability.py",
        "            if obj.shift_range() != (0, 0):\n",
        "            if False:\n",
        ("tests/test_stability.py::test_a_lift_off_shift_0_raises_and_is_not_stored",),
    ),
    Mutant(
        "every charge is taken as generic",
        "src/twistcat/stability.py",
        "        order, self._generic = _by_argument(rays)\n",
        "        order, self._generic = _by_argument(rays)[0], True\n",
        ("tests/test_stability.py::test_validate_generic",),
    ),
    Mutant(
        "the reduction prepends each step's letters instead of appending them",
        "src/twistcat/reduce.py",
        "        letters.extend(_conjugated_twist_word(build, record.exponent))\n",
        "        letters[:0] = _conjugated_twist_word(build, record.exponent)\n",
        ("tests/test_reduce.py",),
    ),
    Mutant(
        "find_isomorphism compares objects over different quivers",
        "src/twistcat/homcore.py",
        "    A spherical x never raises, since its End^0 has dimension 1.\n    \"\"\"\n"
        "    _same_quiver(x.alg, y.alg)\n",
        "    A spherical x never raises, since its End^0 has dimension 1.\n    \"\"\"\n",
        ("tests/test_homcore.py::"
         "test_objects_over_different_quivers_are_neither_equal_nor_compared",),
    ),
    Mutant(
        "find_isomorphism takes the one H^0 rep without testing its degree-0 block",
        "src/twistcat/homcore.py",
        "        return (rep if iso else None), 1\n",
        "        return rep, 1\n",
        ("tests/test_homcore.py::test_find_isomorphism_matches_bounded_search",),
    ),
    Mutant(
        "the degree-0 block is keyed on the vertex only",
        "src/twistcat/homcore.py",
        "            if xs[g] == ys[h]:\n",
        "            if xs[g][0] == ys[h][0]:\n",
        ("tests/test_homcore.py::test_find_isomorphism_matches_bounded_search",),
    ),
    Mutant(
        "the degree-0 block passes one short of full rank",
        "src/twistcat/homcore.py",
        "linalg.rank(list(block.values())) == len(xs)",
        "linalg.rank(list(block.values())) >= len(xs) - 1",
        ("tests/test_homcore.py::test_find_isomorphism_matches_bounded_search",),
    ),
    Mutant(
        "the degree-0 block test skips the generator count",
        "src/twistcat/homcore.py",
        "        iso = len(xs) == len(ys) and linalg.rank(",
        "        iso = linalg.rank(",
        ("tests/test_homcore.py::test_the_degree_0_block_decides_as_the_cone_did",),
    ),
    Mutant(
        "find_isomorphism raises on two-dimensional H^0 between unequal generators",
        "src/twistcat/homcore.py",
        "    if sorted(xs) != sorted(ys):\n        return None, 0\n",
        "",
        ("tests/test_homcore.py::test_sums_of_two_shifted_simples_raise_only_on_equal_generators",),
    ),
    Mutant(
        "`minimize` leaves one cancellation",
        "src/twistcat/homcore.py",
        "    heapq.heapify(heap)\n",
        "    heapq.heapify(heap)\n    heapq.heappop(heap)\n",
        ("tests/test_curves.py::test_braid_images_are_isomorphic_up_to_shift_exactly_on_one_curve",),
    ),
    Mutant(
        "has_path finds a path of every degree",
        "src/twistcat/zigzag.py",
        "        return degree in self.paths[(i, j)]\n",
        "        return True\n",
        ("tests/test_zigzag.py::test_product_rule_matches_basis_product",),
    ),
    Mutant(
        "last_minimal_word descends by the lowest-index reflection",
        "src/twistcat/rootlat.py",
        "    return _greedy_word(q, w, range(q.vertex_count - 1, -1, -1))\n",
        "    return _greedy_word(q, w, range(q.vertex_count))\n",
        ("tests/test_rootlat.py::test_greedy_descents_are_the_first_and_last_minimal_words",),
    ),
    Mutant(
        "a charge file may hold a bool",
        "src/twistcat/stability.py",
        "                if any(type(c) is not int for c in (nre, dre, nim, dim)):\n",
        "                if any(not isinstance(c, int) for c in (nre, dre, nim, dim)):\n",
        ("tests/test_cli.py::test_charge_file_with_malformed_entry_exits_2",),
    ),
    Mutant(
        "stable_checks reports every object in the heart",
        "src/twistcat/verify.py",
        "        \"heart\": phases.in_heart,\n",
        "        \"heart\": True,\n",
        ("tests/test_verify.py::test_stable_checks_name_the_check_that_fails",),
    ),
    Mutant(
        "reduction_failures skips the orbit check",
        "src/twistcat/verify.py",
        "    if orbit_check:\n",
        "    if False:\n",
        ("tests/test_verify.py::test_reduction_failures_catch_a_word_with_one_letter_flipped",),
    ),
    Mutant(
        "_reduce skips its step budget guard",
        "src/twistcat/reduce.py",
        "        if len(steps) >= budget:\n",
        "        if False:\n",
        ("tests/test_reduce.py::test_reduce_budget_guard",),
    ),
    Mutant(
        "BraidWord takes any container of letters",
        "src/twistcat/twists.py",
        "        if type(self.letters) is not tuple:\n",
        "        if False:\n",
        ("tests/test_homcore.py::test_validation_rejects_bad_generators_and_keys",),
    ),
    Mutant(
        "a Weyl word takes a bool letter",
        "src/twistcat/rootlat.py",
        "            type(v) is not int or v < 0 for v in self.letters\n",
        "            not isinstance(v, int) or v < 0 for v in self.letters\n",
        ("tests/test_rootlat.py::"
         "test_weyl_words_and_reflections_reject_bad_vertices_and_roots",),
    ),
    Mutant(
        "the CLI reads an empty --type as no --type",
        "src/twistcat/cli.py",
        "    if args.type is not None:\n",
        "    if args.type:\n",
        ("tests/test_cli.py::test_the_cli_exits_0_or_2_without_a_traceback_on_fuzzed_arguments",),
    ),
)


def table_problems(mutants=MUTANTS, root: Path = ROOT) -> list[str]:
    """Why rows cannot run as written: an old text that does not occur exactly
    once, an edit that changes nothing, no tests, or a test file or test
    function that is missing."""
    problems = []
    for m in mutants:
        path = root / m.file
        count = path.read_text().count(m.old) if path.is_file() else 0
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times in {m.file}")
        if m.old == m.new:
            problems.append(f"{m.name}: old and new text are equal")
        if not m.tests:
            problems.append(f"{m.name}: names no tests")
        for test in m.tests:
            file, _, func = test.partition("::")
            if not (root / file).is_file():
                problems.append(f"{m.name}: no test file for {test}")
            elif func and not re.search(rf"^def {re.escape(func)}\(", (root / file).read_text(), re.M):
                problems.append(f"{m.name}: no test function for {test}")
    return problems


def _ignored(directory: str, names: list[str]) -> set[str]:
    return {n for n in names if n in (".git", "__pycache__", ".pytest_cache", ".hypothesis")
            or n.endswith(".egg-info")}


def run(m: Mutant) -> tuple[str, float]:
    """Apply one mutant to a copy of the repository and run its tests:
    'killed', 'survived' or an error message."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_ignored)
        path = copy / m.file
        path.write_text(path.read_text().replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c", "import twistcat; print(twistcat.__file__)"],
            cwd=copy, env=env, capture_output=True, text=True,
        ).stdout.strip()
        if not Path(where).is_relative_to(copy):
            return f"error: the tests would import twistcat from {where or 'nowhere'}", 0.0
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *m.tests],
                cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "killed", time.perf_counter() - start
        seconds = time.perf_counter() - start
        if done.returncode == 1:
            return "killed", seconds
        if done.returncode == 0:
            return "survived", seconds
        tail = (done.stdout + done.stderr).strip().splitlines()[-3:]
        return f"error: pytest exited {done.returncode}: {' / '.join(tail)}", seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="rows to run (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"no such rows: {sorted(unknown)}")
    failed = False
    for m in MUTANTS:
        if args.names and m.name not in args.names:
            continue
        problems = table_problems([m])
        if problems:
            print("\n".join(f"STALE    {p}" for p in problems), flush=True)
            failed = True
            continue
        outcome, seconds = run(m)
        print(f"{outcome.split(':')[0].upper():8} {seconds:6.1f} s  {m.name}"
              + (f"\n         {outcome}" if outcome.startswith("error") else ""), flush=True)
        failed |= outcome != "killed"
    print("ALL KILLED" if not failed else "FAILED")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
