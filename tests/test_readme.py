"""The README's Python example runs as written, its example config
lists every key, and every module it names imports."""

import importlib
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


def test_lower_layers_name_modules():
    [paragraph] = re.findall(r"\nLower layers are importable on their own:.*?\n\n",
                             README.read_text(encoding="utf-8"), re.S)
    names = re.findall(r"`(\w+)`\s+\(", paragraph)
    assert names
    for name in names:
        importlib.import_module(f"nmotto.{name}")
