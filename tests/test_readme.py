"""The README's command-line examples run as documented.

Every heredoc input (``cat > NAME <<'JSON'`` ... ``JSON``) is written to a
scratch directory, and every ``wfock --command ...`` line runs there through
``wfock.cli.main`` and must exit 0.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from wfock.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
INPUTS = re.findall(r"^cat > (\S+) <<'JSON'\n(.*?)^JSON$", README, re.M | re.S)
COMMANDS = [shlex.split(line, comments=True)[1:]
            for line in re.findall(r"^wfock --command .*$", README, re.M)]


def test_readme_examples_are_found():
    assert {name for name, _ in INPUTS} >= {"coeffs.json", "problem.json", "lift.json"}
    assert {argv[1] for argv in COMMANDS} >= {"selftest", "validate", "solve", "lift"}


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[1] for argv in COMMANDS])
def test_readme_command_exits_zero(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    for name, body in INPUTS:
        (tmp_path / name).write_text(body)
    assert main(argv) == 0


def test_readme_solve_lift_commutes_and_keeps_the_norm(tmp_path, monkeypatch, capsys):
    # the lift of the README solve meets the corollary's conclusions to roundoff, not
    # only to the truncation tails: its last steps take Parrott corners with mu = 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "problem.json").write_text(dict(INPUTS)["problem.json"])
    argv = next(argv for argv in COMMANDS if argv[1] == "solve")
    assert argv[argv.index("--N") + 1] == "40"
    assert main(argv) == 0
    conclusions = json.loads(capsys.readouterr().out)["trace"]["conclusions"]
    assert conclusions["intertwining"] <= 1e-10
    assert conclusions["norm"] <= 1e-10
