"""README's Library use example runs as written.

Run directly (``python tests/test_readme.py``), it executes the example
against whichever gcrb the interpreter imports, with numpy as the only
dependency.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    """The python block under README's "Library use" heading."""
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library use\n\n```python\n(.*?)^```$", text, re.S | re.M)
    assert match is not None, "README has no python block under ## Library use"
    return match.group(1)


def run_library_use() -> None:
    exec(compile(library_use_block(), f"{README.name} (Library use)", "exec"), {})


def test_readme_library_use_runs(capsys):
    run_library_use()
    assert "3.289" in capsys.readouterr().out


if __name__ == "__main__":
    run_library_use()
