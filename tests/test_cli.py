import json

import pytest

from twistcat.cli import main
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
    for entry in ([1, 0, 1, 1], [1, 1, "1", 2], 7, [1, 1, 1]):
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


def test_verify_unknown_type(capsys):
    code, _, err = run(capsys, "verify", "--type", "A99", "--seeds", "1")
    assert code == 2
    assert "A99" in err or "error" in err
