"""The README's Python examples and the names `sbacl` exports keep matching
the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import sbacl

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README.md has no python example"
    package_root = str(Path(sbacl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    for block in blocks:
        result = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                                env=dict(os.environ, PYTHONPATH=path), timeout=60)
        assert result.returncode == 0, result.stderr


def test_every_exported_name_exists():
    assert [name for name in sbacl.__all__ if not hasattr(sbacl, name)] == []
    assert len(set(sbacl.__all__)) == len(sbacl.__all__)
