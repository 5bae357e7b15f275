"""The examples in README and docs/formats.md run as written."""

import json
import re
import shlex
from pathlib import Path

import pytest

from pzbeam import build_section, load_layup
from pzbeam.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
# each `pzbeam ...` command of README's sh blocks, backslash continuations joined
COMMANDS = [line for block in re.findall(r"```sh\n(.*?)```", README, re.S)
            for line in block.replace("\\\n", " ").splitlines() if line.startswith("pzbeam ")]


def test_library_example_runs(monkeypatch):
    (example,) = re.findall(r"```python\n(.*?)```", README, re.S)
    monkeypatch.chdir(ROOT)    # the example loads docs/sandwich.json
    exec(compile(example, "README.md", "exec"), {})


@pytest.mark.parametrize("command", COMMANDS, ids=[c.split()[1] for c in COMMANDS])
def test_command_line_example_runs(command, monkeypatch, capsys):
    assert len(COMMANDS) == 5    # no example dropped by a change to the blocks
    monkeypatch.chdir(ROOT)    # the examples name files under docs/
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out


def test_layup_example_is_the_shipped_sandwich():
    text = (ROOT / "docs" / "formats.md").read_text().split("## Layup description")[1]
    example = json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))
    sandwich = ROOT / "docs" / "sandwich.json"
    assert example == json.loads(sandwich.read_text())
    assert build_section(example) == load_layup(sandwich)
