"""The README's Python example runs as written, and its example config
lists every key."""

import re
from pathlib import Path

from nmotto import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_example_config_lists_every_key():
    [block] = re.findall(r"```\n(# example\.cfg\n.*?)```",
                         README.read_text(encoding="utf-8"), re.S)
    raw = cli.parse_config(block)
    cli.build_config(raw)
    assert set(raw) == set(cli._KEYS)
