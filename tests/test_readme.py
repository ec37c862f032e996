"""The README's library example runs and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_what_its_comments_say(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["3", "(77, 3)", "[('opt', 3), 0, 1, 2, 3]"]
