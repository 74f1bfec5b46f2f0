"""The README's Python quickstart and CLI block run as written against the package."""

import re
import shlex
from pathlib import Path

import pytest

from spinpair.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert float(capsys.readouterr().out) == pytest.approx(5.876, abs=1e-6)  # the printed gamma3


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert block, "README has no CLI block"
    commands = block.group(1).replace("\\\n", " ").splitlines()
    assert commands and all(line.startswith("spinpair ") for line in commands)
    monkeypatch.chdir(tmp_path)
    for line in commands:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line


def test_readme_config_example_runs(tmp_path, capsys):
    # A field the CLI no longer reads would make the documented config exit 2.
    block = re.search(r"Config JSON fields .*?```json\n(.*?)```", README.read_text(encoding="utf-8"),
                      re.DOTALL)
    assert block, "README has no config JSON example"
    config = tmp_path / "config.json"
    config.write_text(block.group(1), encoding="utf-8")
    assert main(["prepare", "--target", "DQ", "--config", str(config)]) == 0
    assert capsys.readouterr().err == ""
