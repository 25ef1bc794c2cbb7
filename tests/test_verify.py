"""The shared checks of `twistcat.verify`, and the large-object script that calls one."""

import dataclasses
import json

from twistcat import BraidWord, direct_sum, reduce_to_stable, simple_object
from twistcat.verify import power_image, reduction_failures, stable_checks
from conftest import load_script

large_objects = load_script("large_objects")


def test_stable_checks_name_the_check_that_fails(stab_a2, alg_a2):
    """Each of the four checks is the one false check on some object."""
    s1 = simple_object(alg_a2, 0)
    assert all(stable_checks(stab_a2, stab_a2.stable_object((1, 1)), (1, 1))[0].values())
    objects = {
        "spherical": (direct_sum(s1, s1), (2, 0)),
        "class_matches": (s1, (0, 1)),
        "heart": (s1.shift(2), (1, 0)),
        "spread_zero": (stab_a2.stable_build((1, 1)).flipped(0), (1, 1)),
    }
    for key, (obj, w) in objects.items():
        checks, _ = stable_checks(stab_a2, obj, w)
        assert [k for k, ok in checks.items() if not ok] == [key]


def test_reduction_failures_catch_a_word_with_one_letter_flipped(stab_a3, alg_a3):
    trace = reduce_to_stable(stab_a3, power_image(alg_a3, "s1 s2' s3", 2, 1))
    assert reduction_failures(stab_a3, trace, True) == []
    (v, e), *rest = trace.word.letters
    flipped = dataclasses.replace(trace, word=BraidWord(((v, -e), *rest)))
    assert reduction_failures(stab_a3, flipped, False) == []
    assert reduction_failures(stab_a3, flipped, True) == [
        "inverse of the accumulated word does not reduce the input"
    ]


def test_large_object_rows_pass_every_check(capsys):
    assert large_objects.main(["--k", "0", "2", "3"]) == 0
    assert large_objects.main(["--type", "D4", "--k", "2"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(row["type"], row["k"], row["ok"], row["failures"]) for row in rows] == [
        ("A3", 0, True, []), ("A3", 2, True, []), ("A3", 3, True, []), ("D4", 2, True, [])
    ]
    assert rows[-1]["generators"] == 39


def test_large_object_script_exits_1_on_a_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(large_objects, "reduction_failures", lambda *args: ["planted"])
    assert large_objects.main(["--k", "0"]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == ["planted"]
