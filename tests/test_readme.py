import ast
import os
import re
import shlex
import subprocess
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(_ROOT, "README.md"), encoding="utf-8") as _fh:
    _README = _fh.read()
_BLOCKS = re.findall(r"^```python\n(.*?)^```", _README, re.M | re.S)


def test_readme_has_python():
    assert _BLOCKS


@pytest.mark.parametrize("code", _BLOCKS, ids=[f"block {i}" for i in range(len(_BLOCKS))])
def test_readme_python_runs(code, tmp_path):
    # each block on its own, in a fresh interpreter, from the source tree
    env = dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _cli_lines(text):
    """Every `revolve ...` command of the README's ```sh blocks, in order, as
    argument lists, with continuation lines joined and comments dropped."""
    lines = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "revolve":
                lines.append(argv[1:])
    return lines


_CLI = _cli_lines(_README)


def test_readme_cli_lines_run(tmp_path):
    # the chain shares one state directory, so the lines run in order; a
    # line that names a deleted option or subcommand exits 2
    assert len(_CLI) >= 10
    env = dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src"))
    for argv in _CLI:
        proc = subprocess.run([sys.executable, "-m", "revolve.cli", *argv],
                              capture_output=True, text=True, env=env, cwd=tmp_path,
                              timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)


def _claim_rows(text):
    """The rows of the README's "Paper claims" table as (claim, status,
    test ids) triples, the ids as written: tests/<file>.py::<function>."""
    section = text.split("\n## Paper claims\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0] not in ("Claim", "---"):
            rows.append((cells[0], cells[1], re.findall(r"`([^`]+::[^`]+)`", cells[2])))
    return rows


def test_readme_paper_claims_name_existing_tests():
    rows = _claim_rows(_README)
    assert len(rows) >= 5
    for claim, status, ids in rows:
        assert status.split(":")[0] in ("covered", "partial", "open"), (claim, status)
        if status == "covered":
            assert ids, claim
        for test_id in ids:
            path, name = test_id.split("::")
            assert path.startswith("tests/") and name.startswith("test_"), test_id
            with open(os.path.join(_ROOT, path), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            assert any(isinstance(node, ast.FunctionDef) and node.name == name
                       for node in tree.body), test_id
