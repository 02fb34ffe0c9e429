import re
import shlex
from pathlib import Path

from latticewalks.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_cli_examples_run(capsys):
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = [line for block in blocks for line in block.splitlines() if line.startswith("latticewalks ")]
    assert len(commands) >= 9
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
        assert capsys.readouterr().out, line
