"""The package's public surface: its one export list and the README examples."""

import re
from pathlib import Path

import pytest

import jumptime
from jumptime import compensators, core, cox, predictable, processes, verify

MODULES = (compensators, core, cox, predictable, processes, verify)
README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_package_exports_each_module_name_once():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert jumptime.__all__ == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(jumptime, name) is getattr(module, name)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, f"{README.name} python block", "exec"), {})
