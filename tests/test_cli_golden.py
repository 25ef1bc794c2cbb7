"""Golden `--json` reports of the CLI for a fixed set of seeded commands.

Every command runs in-process through `cli.main`; its JSON report, with
every wall-clock "seconds" key dropped, must equal the stored one in
`tests/data/cli_golden.json`.  To regenerate the file after an intended
change of output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from twistcat.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"
A3_CHARGE = {"1": [-1, 1, 1, 2], "2": [0, 1, 1, 1], "3": [1, 2, 1, 4]}

# "{charge}" stands for a file holding A3_CHARGE
COMMANDS = (
    ("stable", "--type", "A3", "--charge", "{charge}", "--root", "1,1,1"),
    ("stable", "--type", "A3", "--charge", "{charge}", "--root", "1,1,1",
     "--expression", "s2 s3 s1 a2"),
    ("stable", "--type", "A3", "--seed", "7", "--root", "1,1,1"),
    ("stable", "--type", "A3", "--seed", "7", "--root", "1,1,1", "--flip", "2"),
    ("stable", "--type", "A3", "--seed", "7", "--root", "1,1,1",
     "--expression", "s2 s3 s1 a2", "--flip", "1"),
    ("stable", "--type", "D4", "--seed", "3", "--root", "1,1,1,1"),
    ("stable", "--type", "D4", "--seed", "3", "--root", "1,1,1,1", "--flip", "1"),
    ("stable", "--type", "A4", "--seed", "5", "--root", "1,1,1,1"),
    ("stable", "--type", "A4", "--seed", "5", "--root", "1,1,1,1", "--flip", "3"),
    ("reduce", "--type", "A3", "--seed", "7", "--word", "s2' s3' s1", "--start", "2"),
    ("reduce", "--type", "A3", "--seed", "7", "--word", "s2' s3' s1", "--start", "2",
     "--strategy", "top"),
    ("reduce", "--type", "A3", "--seed", "7", "--start", "2"),
    ("reduce", "--type", "D4", "--seed", "2", "--word", "s1 s2' s3 s4' s2 s1", "--start", "3"),
    ("reduce", "--type", "D4", "--seed", "2", "--word", "s1 s2' s3 s4' s2 s1", "--start", "3",
     "--strategy", "top"),
    ("reduce", "--type", "E6", "--seed", "4", "--word", "s1 s3' s4 s2' s5 s6' s4",
     "--start", "2"),
    ("align", "--type", "A2", "--seed", "1", "--word", "s1 s2'"),
    ("align", "--type", "A3", "--seed", "2", "--word", "s1 s2' s3 s1"),
    ("align", "--type", "D4", "--seed", "3", "--word", "s2 s1' s3 s4'"),
    ("align", "--type", "E6", "--seed", "3", "--word", "s2 s1' s3 s4' s5 s6"),
    ("verify", "--type", "A2", "--seeds", "1"),
    ("verify", "--type", "A3", "--seeds", "1"),
)


def _key(command) -> str:
    return " ".join(command)


def _drop_seconds(value):
    if isinstance(value, dict):
        return {k: _drop_seconds(v) for k, v in value.items() if k != "seconds"}
    if isinstance(value, list):
        return [_drop_seconds(v) for v in value]
    return value


def _report(command, charge_path: str) -> dict:
    argv = [charge_path if arg == "{charge}" else arg for arg in command] + ["--json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "report": _drop_seconds(json.loads(out.getvalue()))}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def charge_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "charge.json"
    path.write_text(json.dumps(A3_CHARGE))
    return str(path)


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(_key(c) for c in COMMANDS)


@pytest.mark.parametrize("command", COMMANDS, ids=_key)
def test_cli_json_matches_golden(command, golden, charge_path):
    assert _report(command, charge_path) == golden[_key(command)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "charge.json"
        path.write_text(json.dumps(A3_CHARGE))
        reports = {_key(c): _report(c, str(path)) for c in COMMANDS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(reports, sort_keys=True, separators=(",", ":")) + "\n")
    sys.exit(0)
