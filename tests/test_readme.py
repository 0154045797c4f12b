"""The README's Python example runs as written, its example config
lists every key, every module and dotted name it gives exists, it
states the input range the checks apply, and it counts the acceptance
criteria that exist."""

import importlib
import pkgutil
import re
from pathlib import Path

import nmotto
from nmotto import cli
from nmotto.kernels import SCALE

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


def test_dotted_names_resolve():
    # a backticked reference such as `tcl2.lattice` or `OracleResult.ends`,
    # headed by a module or a public name of the package, names an attribute
    modules = {module.name for module in pkgutil.iter_modules(nmotto.__path__)}
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    checked = 0
    for span in spans:
        match = re.match(r"([A-Za-z_]\w*)((?:\.[A-Za-z_]\w*)+)", span)
        if match is None:
            continue
        head, attrs = match.group(1), match.group(2).split(".")[1:]
        if head in modules:
            owner = importlib.import_module(f"nmotto.{head}")
        elif head in nmotto.__all__:
            owner = getattr(nmotto, head)
        else:
            continue
        for attr in attrs:
            assert hasattr(owner, attr), match.group(0)
            owner = getattr(owner, attr)
        checked += 1
    assert checked


def test_input_range_stated_as_printed():
    # the one range, as a refused input's message prints it, in place of
    # the per-formula edges it replaced
    text = README.read_text(encoding="utf-8")
    assert f"[{1 / SCALE!r}, {SCALE!r}]" in text
    for edge in ("1.49e-154", "1.16e77", "1.34e154", "5.64e102", "7.5e-155"):
        assert edge not in text


def test_acceptance_criteria_counted_as_in_the_suite():
    # the count and the numbers of the acceptance module's criteria, as
    # its test names give them: "all 17 pass: criteria 1 to 15, 17 and 19"
    source = (README.parent / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    numbers = [int(n) for n in re.findall(r"^def test_criterion_(\d+)_", source, re.M)]
    runs = []
    for n in sorted(numbers):
        if runs and runs[-1][1] == n - 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    parts = [str(a) if a == b else f"{a} to {b}" for a, b in runs]
    listed = " and ".join(filter(None, (", ".join(parts[:-1]), parts[-1])))
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert f"all {len(numbers)} pass: criteria {listed}." in text
