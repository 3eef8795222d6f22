"""README's library example runs, and prints what it says it prints."""
from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_readme_library_example_prints_its_comments():
    # every print( line is followed by the comment line that gives its output
    blocks = _library_blocks()
    expected = [after[2:] for block in blocks
                for line, after in zip(block.splitlines(), block.splitlines()[1:])
                if line.startswith("print(") and after.startswith("# ")]
    printed: list[str] = []
    namespace = {"print": lambda *args: printed.append(" ".join(map(str, args)))}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert expected and printed == expected
