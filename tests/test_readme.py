"""The python examples of README.md run as written.

Every ```python block of the README is run in order in one namespace, so
that a later block can use the names an earlier one defines, as a reader
would when pasting them into one session."""

import re

from conftest import REPO_ROOT

BLOCKS = re.findall(r"^```python\n(.*?)^```", (REPO_ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a block that writes files writes them here
    namespace: dict = {}
    for i, block in enumerate(BLOCKS):
        # the file name of the code object names the block in a traceback
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
