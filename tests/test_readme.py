"""The README's python examples run as written and print what their
comments say."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
# a print line and the output its trailing comment promises
PRINT_LINE = re.compile(r"^\s*print\(.*?\)\s+#\s*(.*?)\s*$")


def test_the_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_a_readme_example_prints_its_comments(block):
    expected = [m.group(1) for m in map(PRINT_LINE.match, block.splitlines()) if m]
    printed = []
    namespace = {"print": lambda *args, sep=" ": printed.append(sep.join(map(str, args)))}
    exec(compile(block, str(README), "exec"), namespace)
    assert printed == expected
