"""The README's code and names: its lower-level quick-start block runs
as written, and every dotted ``kforms.<module>.<name>`` it names exists."""

import importlib
import re
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_lower_level_quick_start_runs_verbatim():
    after = README.split("Or work a level lower", 1)[1]
    block = re.search(r"```python\n(.*?)```", after, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["X"].shape == (3, 4)


def test_every_dotted_name_resolves():
    names = set(re.findall(r"\bkforms((?:\.\w+){2,})", README))
    assert names
    for name in sorted(names):
        module, *attributes = name[1:].split(".")
        obj = importlib.import_module(f"kforms.{module}")
        for attribute in attributes:
            assert hasattr(obj, attribute), f"kforms{name}"
            obj = getattr(obj, attribute)
