"""Each demo runs to completion as a script, against the sources in src/,
and so does each example of the README."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import lhca.cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def _code_blocks(text: str, info: str = "") -> list[str]:
    """The bodies of the fenced blocks opened by ``` + info, in order."""
    return re.findall(rf"^```{info}\n(.*?)^```$", text, re.M | re.S)


PYTHON_BLOCKS = _code_blocks(README, "python")
# the block under "## Command line", one lhca command a line, each with
# an optional comment that may name its exit code
COMMANDS = [line for line in
            _code_blocks(README.split("## Command line", 1)[1])[0].splitlines()
            if line.startswith("lhca ")]


def test_the_readme_examples_are_found():
    assert len(PYTHON_BLOCKS) == 2
    assert len(COMMANDS) == 7


def test_readme_library_examples_run():
    # the second block reads names the first one defined
    namespace = {}
    for block in PYTHON_BLOCKS:
        exec(compile(block, "README.md", "exec"), namespace)


@pytest.mark.parametrize("line", COMMANDS,
                         ids=lambda line: line.partition("#")[0].strip())
def test_readme_command_runs(capsys, line):
    command, _, comment = line.partition("#")
    named = re.search(r"\bexit (\d)\b", comment)
    code = lhca.cli.main(shlex.split(command)[1:])
    out = capsys.readouterr()
    assert code == (int(named.group(1)) if named else 0), out.err
    assert out.out


def test_readme_lists_the_public_api():
    # the "public names" list under "## Library", one name a line, in the
    # order of lhca.__all__
    library = README.split("## Library", 1)[1].split("\n## ", 1)[0]
    block = library.split("The public names", 1)[1].split("\n\n", 2)[1]
    assert re.findall(r"^- `(\w+)`: ", block, re.M) == lhca.__all__
    assert len(block.splitlines()) == len(lhca.__all__)
