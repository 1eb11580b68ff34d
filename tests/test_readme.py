import os
import re
import subprocess
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(_ROOT, "README.md"), encoding="utf-8") as _fh:
    _BLOCKS = re.findall(r"^```python\n(.*?)^```", _fh.read(), re.M | re.S)


def test_readme_has_python():
    assert _BLOCKS


@pytest.mark.parametrize("code", _BLOCKS, ids=[f"block {i}" for i in range(len(_BLOCKS))])
def test_readme_python_runs(code, tmp_path):
    # each block on its own, in a fresh interpreter, from the source tree
    env = dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
