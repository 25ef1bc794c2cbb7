"""The mutant table of scripts/mutants.py still matches the code it mutates.

Running the mutants takes minutes and is a CI job of its own; this checks
only that every row can run: its old text occurs exactly once, its tests
exist, and the rows cover every engine layer.
"""

import pathlib

from conftest import load_script

mutants = load_script("mutants")


def test_every_row_matches_its_file_exactly_once():
    assert mutants.table_problems() == []


def test_rows_have_distinct_names_and_cover_every_engine_layer():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    layers = {pathlib.Path(m.file).stem for m in mutants.MUTANTS}
    assert {"rootlat", "zigzag", "linalg", "homcore", "twists", "stability", "reduce", "verify"} <= layers


def test_a_stale_row_is_reported(tmp_path):
    (tmp_path / "mod.py").write_text("x = 1\nx = 1\n")
    (tmp_path / "test_mod.py").write_text("def test_x():\n    pass\n")
    rows = [
        mutants.Mutant("twice", "mod.py", "x = 1\n", "x = 2\n", ("tests/none.py",)),
        mutants.Mutant("absent", "mod.py", "y = 1\n", "y = 2\n", ()),
        mutants.Mutant("misspelt", "test_mod.py", "pass", "1", ("test_mod.py::test_y",)),
        mutants.Mutant("sound", "test_mod.py", "pass", "1", ("test_mod.py::test_x",)),
    ]
    problems = mutants.table_problems(rows, root=tmp_path)
    assert problems == [
        "twice: old text occurs 2 times in mod.py",
        "twice: no test file for tests/none.py",
        "absent: old text occurs 0 times in mod.py",
        "absent: names no tests",
        "misspelt: no test function for test_mod.py::test_y",
    ]
