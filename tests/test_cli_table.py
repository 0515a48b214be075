"""The command table is the one list of leaf commands: README's CLI block,
README's exit-code table and the census's ``CLI_LINES`` must agree with it,
and ``main`` refuses an exit code a row does not declare."""

import os
import re
import subprocess
import sys

import pytest

import repro.commands.tools
from repro.cli import TABLE, main
from tests.test_census import CLI_LINES

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEAVES = [command.name for command in TABLE]


def _readme() -> str:
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as handle:
        return handle.read()


def _leaf_of(text: str):
    """The longest leaf that ``text`` (command words, then flags) starts with."""
    named = [leaf for leaf in LEAVES if text == leaf or text.startswith(leaf + " ")]
    return max(named, key=len) if named else None


def test_every_leaf_is_one_row():
    assert len(LEAVES) == len(set(LEAVES)) == 20


def test_readme_cli_block_shows_every_leaf():
    readme = _readme()
    block = readme[readme.index("There is also a CLI:"):]
    block = block[block.index("```bash") : block.index("```", block.index("```bash") + 3)]
    shown = {_leaf_of(line.split("repro.cli ", 1)[1])
             for line in block.splitlines() if "python -m repro.cli " in line}
    assert sorted(set(LEAVES) - shown) == []


def test_census_drives_every_leaf():
    assert sorted(set(LEAVES) - {_leaf_of(line) for line, _ in CLI_LINES}) == []


@pytest.mark.parametrize("code", [3, 4, 5])
def test_readme_exit_code_rows_name_the_declaring_leaves(code):
    (row,) = re.findall(rf"^\| {code} \|.*$", _readme(), flags=re.MULTILINE)
    raised_by = row.rsplit("|", 2)[1]
    # a span that starts with a flag (``--faults``) qualifies the one before it
    named = {_leaf_of(span) for span in re.findall(r"`([^`]+)`", raised_by)
             if not span.startswith("-")}
    declared = {command.name for command in TABLE if code in command.exits}
    assert named == declared


def test_an_undeclared_exit_code_is_a_bug(monkeypatch):
    monkeypatch.setattr(repro.commands.tools, "list_workloads", lambda args: 4)
    with pytest.raises(AssertionError, match="list-workloads returned exit code 4"):
        main(["list-workloads"])


def test_bad_input_exits_2_under_python_m(tmp_path):
    # the runners import repro.cli while it runs as __main__: they must
    # raise the _BadInput that main() handles, not a twin class
    missing = str(tmp_path / "missing.jsonl")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "obs", "summarize", missing],
        env=dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {missing}: ") and "Traceback" not in proc.stderr
