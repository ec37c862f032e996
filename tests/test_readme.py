"""The README's library example runs and prints what its comments say, and
its config reference lists the keys the CLI reads."""

import re
from pathlib import Path

from spectral_options.cli import LAYOUT

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_what_its_comments_say(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["3", "(77, 3)", "[('opt', 3), 0, 1, 2, 3]"]


def test_config_blocks_paragraph_lists_the_layout():
    section = README.read_text().split("### Config blocks\n\n", 1)[1]
    paragraph = re.sub(r"\s*\([^)]*\)", "", section.split("\n\n", 1)[0])
    listed = {}
    for part in " ".join(paragraph.split()).rstrip(".").split("·"):
        block, keys = re.fullmatch(r"\s*`\[(\w+)\]` (.*?)\s*", part).groups()
        listed[block] = tuple(key.strip() for key in keys.split(","))
    assert list(listed.items()) == list(LAYOUT.items())
