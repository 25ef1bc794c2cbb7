import contextlib
import io
import json
import pathlib
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from twistcat import (
    InvariantViolation, minimal_word, named_quiver, positive_roots, random_generic_charge,
)
from twistcat.cli import main
from twistcat.verify import SuiteResult
from conftest import a3_reference_charge


@pytest.fixture
def charge_file(tmp_path):
    path = tmp_path / "charge.json"
    path.write_text(json.dumps(a3_reference_charge().to_json_dict()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roots_command(capsys):
    code, out, _ = run(capsys, "roots", "--type", "A2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 3
    roots = {tuple(e["root"]) for e in report["roots"]}
    assert roots == {(1, 0), (0, 1), (1, 1)}


def test_roots_human_output(capsys):
    code, out, _ = run(capsys, "roots", "--type", "A1")
    assert code == 0
    assert "1 positive roots" in out


def test_roots_rejects_affine_quiver(tmp_path, capsys):
    # the triangle (affine A2) and the Kronecker quiver (affine A1, a double edge)
    for text in ("3\n1 2\n2 3\n1 3\n", "2\n1 2\n1 2\n"):
        bad = tmp_path / "affine.quiver"
        bad.write_text(text)
        code, _, err = run(capsys, "roots", "--quiver", str(bad))
        assert code == 2
        assert "finite" in err


@pytest.mark.parametrize("line, message", [
    ("1 5", "edge line '1 5': vertices are numbered 1..3"),
    ("2 2", "edge line '2 2': loop at vertex 2 is not allowed"),
    ("1 x", "bad edge line '1 x': an edge is two vertex numbers"),
    ("0 1", "edge line '0 1': vertices are numbered 1..3"),
    ("1 2 3", "bad edge line '1 2 3': an edge is two vertex numbers"),
], ids=("out of range", "loop", "not a number", "vertex 0", "three numbers"))
def test_a_bad_quiver_edge_line_is_quoted_as_written(tmp_path, capsys, line, message):
    bad = tmp_path / "bad.quiver"
    bad.write_text(f"3\n1 2\n{line}\n")
    code, out, err = run(capsys, "roots", "--quiver", str(bad))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_stable_command_figure_configuration(capsys, charge_file):
    code, out, _ = run(
        capsys, "stable", "--type", "A3", "--charge", charge_file,
        "--root", "1,1,1", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["checks"] == {
        "spherical": True, "class_matches": True, "heart": True, "spread_zero": True,
    }
    assert report["signs"] == [1, 1]  # greedy minimal word has two letters here
    assert report["charge"]["2"] == [0, 1, 1, 1]


def test_stable_command_explicit_expression(capsys, charge_file):
    code, out, _ = run(
        capsys, "stable", "--type", "A3", "--charge", charge_file,
        "--root", "1,1,1", "--expression", "s2 s3 s1 a2", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["word"] == "s2' s3' s1"
    assert report["signs"] == [1, -1, -1]
    assert all(report["checks"].values())


def test_stable_command_expression_mismatch(capsys, charge_file):
    code, _, err = run(
        capsys, "stable", "--type", "A3", "--charge", charge_file,
        "--root", "0,1,0", "--expression", "s2 s3 s1 a2",
    )
    assert code == 2
    assert "does not evaluate" in err


def test_stable_command_empty_expression(capsys, charge_file):
    code, out, err = run(
        capsys, "stable", "--type", "A3", "--charge", charge_file,
        "--root", "1,1,1", "--expression", "",
    )
    assert code == 2
    assert "must end with a base root" in err
    assert out == ""


def test_stable_command_flip_without_exponents(capsys):
    code, _, err = run(capsys, "stable", "--type", "A1", "--seed", "0", "--root", "1", "--flip", "1")
    assert code == 2
    assert "has no exponents to flip" in err
    assert "out of range" not in err and "Traceback" not in err


def test_stable_command_simple_root(capsys, charge_file):
    code, out, _ = run(
        capsys, "stable", "--type", "A3", "--charge", charge_file,
        "--root", "0,1,0", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["word"] == ""
    assert report["checks"]["spread_zero"]


def test_stable_command_flip_breaks_stability(capsys, charge_file):
    code, out, _ = run(
        capsys, "stable", "--type", "A3", "--charge", charge_file,
        "--root", "1,1,1", "--flip", "1", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["checks"]["spherical"]
    assert not (report["checks"]["spread_zero"] and report["checks"]["heart"])


def test_stable_command_bad_root(capsys, charge_file):
    code, _, err = run(
        capsys, "stable", "--type", "A3", "--charge", charge_file,
        "--root", "1,1", "--json",
    )
    assert code == 2
    assert "coordinates" in err
    for expression, token, vertex in (("s4 a1", "s4", 4), ("a4", "a4", 4), ("s2 a0", "a0", 0)):
        code, _, err = run(
            capsys, "stable", "--type", "A3", "--charge", charge_file,
            "--root", "1,0,0", "--expression", expression,
        )
        assert code == 2
        assert f"vertex {vertex} in {token} out of range 1..3" in err
        assert "Traceback" not in err


def test_reduce_command(capsys, charge_file):
    code, out, _ = run(
        capsys, "reduce", "--type", "A3", "--charge", charge_file,
        "--word", "s1'", "--start", "2", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["steps"] >= 1
    assert report["trace"]["steps"][0]["checks"]["spread_strictly_decreases"] == "ok"


def test_reduce_command_start_out_of_range(capsys, charge_file):
    for start in ("0", "4"):
        code, _, err = run(
            capsys, "reduce", "--type", "A3", "--charge", charge_file,
            "--word", "s1", "--start", start,
        )
        assert code == 2
        assert f"--start {start} out of range 1..3" in err


def test_charge_file_with_malformed_entry_exits_2(tmp_path, capsys):
    good = a3_reference_charge().to_json_dict()
    for entry in ([1, 0, 1, 1], [1, 1, "1", 2], 7, [1, 1, 1], [True, 1, 1, 1]):
        path = tmp_path / "charge.json"
        path.write_text(json.dumps({**good, "2": entry}))
        code, _, err = run(
            capsys, "stable", "--type", "A3", "--charge", str(path), "--root", "0,1,0",
        )
        assert code == 2
        assert "vertex 2" in err and "Traceback" not in err
    path.write_text("[1, 2]")
    code, _, err = run(capsys, "stable", "--type", "A3", "--charge", str(path), "--root", "0,1,0")
    assert code == 2


def test_charge_file_with_an_unknown_key_names_it(tmp_path, capsys):
    good = a3_reference_charge().to_json_dict()
    path = tmp_path / "charge.json"
    for data in ({"1": good["1"], "2": good["2"], "x": good["3"]}, {**good, "x": good["3"]}):
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "stable", "--type", "A3", "--charge", str(path), "--root", "0,1,0")
        assert code == 2 and out == ""
        assert err == f"error: charge key 'x' is not a vertex 1..{len(data)}\n"


@pytest.mark.parametrize(
    "command",
    [("stable", "--root", "0,1,0"), ("reduce", "--start", "1"), ("align",)],
)
def test_charge_file_of_wrong_length_exits_2(tmp_path, capsys, command):
    path = tmp_path / "charge.json"
    path.write_text(json.dumps(a3_reference_charge().to_json_dict()))
    code, out, err = run(capsys, command[0], "--type", "A2", "--charge", str(path), *command[1:])
    assert code == 2
    assert err == "error: charge length does not match the quiver\n" and out == ""


def test_invariant_violation_exits_1(capsys, charge_file, monkeypatch):
    def violate(*args, **kwargs):
        raise InvariantViolation("spread grew")

    monkeypatch.setattr("twistcat.cli.reduce_to_stable", violate)
    code, _, err = run(
        capsys, "reduce", "--type", "A3", "--charge", charge_file, "--word", "s1", "--start", "2",
    )
    assert code == 1
    assert err == "INVARIANT VIOLATION: spread grew\n"


def test_failing_verify_suite_exits_1(capsys, monkeypatch):
    failing = [SuiteResult("passing", 2, [], 0.0), SuiteResult("broken", 1, ["case 0"], 0.0)]
    monkeypatch.setattr("twistcat.cli.run_verify", lambda type_name, seeds: failing)
    code, out, _ = run(capsys, "verify", "--type", "A2", "--seeds", "1")
    assert code == 1
    assert out.splitlines()[-2:] == ["broken: FAIL (1) [1 cases, 0.0s]", "FAILURES PRESENT"]
    code, out, _ = run(capsys, "verify", "--type", "A2", "--seeds", "1", "--json")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_reduce_command_empty_word(capsys, charge_file):
    code, out, _ = run(
        capsys, "reduce", "--type", "A3", "--charge", charge_file,
        "--word", "", "--start", "1", "--json",
    )
    assert code == 0
    assert json.loads(out)["steps"] == 0


def test_reduce_command_seeded_charge_reproducible(capsys):
    code1, out1, _ = run(
        capsys, "reduce", "--type", "A2", "--seed", "7",
        "--word", "s1 s2' s1", "--start", "2", "--json",
    )
    code2, out2, _ = run(
        capsys, "reduce", "--type", "A2", "--seed", "7",
        "--word", "s1 s2' s1", "--start", "2", "--json",
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_align_command(capsys, charge_file):
    code, out, _ = run(
        capsys, "align", "--type", "A3", "--charge", charge_file,
        "--word", "s1 s2", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert "alpha" in report["alignment"]


def test_bad_braid_word(capsys, charge_file):
    code, _, err = run(
        capsys, "reduce", "--type", "A3", "--charge", charge_file,
        "--word", "x3", "--start", "1",
    )
    assert code == 2
    assert "braid letter" in err
    for command in (("reduce", "--start", "1"), ("align",)):
        code, _, err = run(
            capsys, command[0], "--type", "A3", "--charge", charge_file,
            "--word", "s1 s9'", *command[1:],
        )
        assert code == 2
        assert "vertex 9 in s9' out of range 1..3" in err


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A2", "--seeds", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"]
    assert {s["name"] for s in report["suites"]} >= {
        "stable constructions", "reduction (bottom)", "sandwich triangles",
    }


def test_verify_rejects_seeds_below_one(capsys):
    for seeds in ("0", "-1"):
        code, out, err = run(capsys, "verify", "--type", "A2", "--seeds", seeds)
        assert code == 2
        assert "seeds must be at least 1" in err and "ALL PASS" not in out
    # uniqueness runs no cases on A1; the smallest valid run still passes
    code, out, _ = run(capsys, "verify", "--type", "A1", "--seeds", "1")
    assert code == 0
    assert "ALL PASS" in out
    code, out, _ = run(capsys, "verify", "--type", "A1", "--seeds", "1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"]
    assert all(s["cases"] > 0 for s in report["suites"])
    assert "stable object uniqueness" not in {s["name"] for s in report["suites"]}


def test_suite_without_cases_fails():
    empty = SuiteResult("empty", 0, [], 0.0)
    assert not empty.ok
    assert empty.summary() == "empty: FAIL (no cases) [0 cases, 0.0s]"
    assert SuiteResult("one", 1, [], 0.0).ok


def test_verify_unknown_type(capsys):
    code, _, err = run(capsys, "verify", "--type", "A99", "--seeds", "1")
    assert code == 2
    assert "A99" in err or "error" in err


# -- fuzzing the command line ---------------------------------------------------

_FUZZ_TYPES = ("A1", "A2", "A3", "A4", "D4")
_FUZZ_QUIVERS = {name: named_quiver(name) for name in _FUZZ_TYPES}
_FUZZ_ROOTS = {name: positive_roots(q) for name, q in _FUZZ_QUIVERS.items()}
_BAD_TYPES = ("", "A0", "a3", "B2", "A10", "E9", "X3")
_BAD_QUIVER_TEXTS = (
    "", "x\n", "0\n", "-2\n", "2.5\n", "3\n1 2\nfoo\n", "2\n1 1\n", "2\n1 5\n",
    "3\n1 2 3\n", "2\n1 x\n", "3\n1 2\n2 3\n1 3\n", "2\n1 2\n1 2\n",
)
_BAD_CHARGES = (
    "", "{", "[]", "null", '{"x": "y"}', '{"0": [1, 1, 1, 1]}', '{"1": [1, 1, 1]}',
    '{"1": [true, 1, 1, 1]}', '{"1": [1.5, 1, 1, 1]}', '{"1": [0, 1, 0, 1]}',
    '{"1": [-1, 1, 0, 1]}', '{"1": [1, 0, 1, 1]}', '{"1": [1, 1, 1, 1], "2": [1, 1, 1, 1]}',
)
_BAD_TEXTS = ("", " ", "s", "s1''", "t1", "a", "s1 a", "s0", "a0", "1,,1", "1;1", "x", "-")


def _fuzz_value(draw, valid, invalid):
    """Mostly a valid value, one time in four a malformed one."""
    return draw(st.sampled_from(valid if draw(st.integers(0, 3)) else invalid))


def _fuzz_text(draw, kind, name):
    """A short braid word, reflection expression or root on the named type,
    valid or malformed."""
    n = _FUZZ_QUIVERS[name].vertex_count
    if not draw(st.integers(0, 3)):
        return draw(st.sampled_from(_BAD_TEXTS))
    vertex = st.integers(1, n) if draw(st.integers(0, 3)) else st.integers(0, n + 1)
    if kind == "word":
        letters = draw(st.lists(st.tuples(vertex, st.booleans()), max_size=3))
        return " ".join(f"s{v}" + ("'" if inv else "") for v, inv in letters)
    if kind == "expression":
        return " ".join([f"s{v}" for v in draw(st.lists(vertex, max_size=3))]
                        + [f"a{draw(vertex)}"])
    roots = _FUZZ_ROOTS[name] + [(1,) * (n + 1), (-1,) + (0,) * (n - 1), (2,) * n]
    return ",".join(str(c) for c in draw(st.sampled_from(roots)))


@st.composite
def _fuzz_argv(draw, command):
    """Tokens for the command, with its options valid or malformed, and the
    contents of the quiver and charge files those tokens name."""
    name = draw(st.sampled_from(_FUZZ_TYPES))
    q = _FUZZ_QUIVERS[name]
    argv, files = [command], {}
    if command == "verify":
        argv += ["--type", _fuzz_value(draw, (name,), _BAD_TYPES)]
        argv += ["--seeds", _fuzz_value(draw, ("1",), ("0", "-1", "x"))]
    elif draw(st.booleans()):
        argv += ["--type", _fuzz_value(draw, (name,), _BAD_TYPES)]
    else:
        text = f"{q.vertex_count}\n" + "".join(f"{a + 1} {b + 1}\n" for a, b in sorted(q.edges))
        files["quiver"] = _fuzz_value(draw, (text,), _BAD_QUIVER_TEXTS)
        argv += ["--quiver", "quiver"]
    if command in ("stable", "reduce", "align"):
        if draw(st.booleans()):
            charge = random_generic_charge(q, random.Random(f"fuzz:{draw(st.integers(0, 3))}"))
            files["charge"] = _fuzz_value(draw, (json.dumps(charge.to_json_dict()),), _BAD_CHARGES)
            argv += ["--charge", "charge"]
        else:
            argv += ["--seed", _fuzz_value(draw, ("0", "7", "-3"), ("x", "1.5"))]
    if command == "stable":
        root = draw(st.sampled_from(_FUZZ_ROOTS[name]))
        word = minimal_word(q, root)
        expression = " ".join(f"s{v + 1}" for v in reversed(word.letters)) + f" a{word.base + 1}"
        argv += ["--root", _fuzz_value(draw, (",".join(map(str, root)),),
                                       (_fuzz_text(draw, "root", name),))]
        if draw(st.booleans()):
            argv += ["--expression", _fuzz_value(draw, (expression,),
                                                 (_fuzz_text(draw, "expression", name),))]
        if draw(st.booleans()):
            argv += ["--flip", _fuzz_value(draw, ("1", "2"), ("0", "9", "x"))]
    if command in ("reduce", "align"):
        argv += ["--word", _fuzz_text(draw, "word", name)]
    if command == "reduce":
        argv += ["--start", _fuzz_value(draw, [str(v) for v in range(1, q.vertex_count + 1)],
                                        ("0", str(q.vertex_count + 1), "x"))]
        argv += ["--strategy", _fuzz_value(draw, ("bottom", "top"), ("sideways",))]
    if draw(st.booleans()):
        argv.append("--json")
    if not draw(st.integers(0, 9)):  # a stray option or a dropped token
        argv = draw(st.sampled_from((argv + ["--bogus"], argv[:-1])))
    return argv, files


@pytest.mark.parametrize("command", ["roots", "stable", "reduce", "align", "verify"])
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_the_cli_exits_0_or_2_without_a_traceback_on_fuzzed_arguments(command, data):
    """Every token list drawn from a command and its options, valid or
    malformed, either runs or is rejected with exit code 2, and an error
    prints one message, never a traceback."""
    argv, files = data.draw(_fuzz_argv(command))
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (pathlib.Path(tmp) / name).write_text(text)
        argv = [str(pathlib.Path(tmp) / tok) if tok in files else tok for tok in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own usage errors
                code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue() + out.getvalue()
    assert bool(err.getvalue()) == (code == 2), argv
