"""The package namespace is its modules' __all__ lists, re-exported."""

import re
from pathlib import Path

import pytest

import tensorstate
from tensorstate import analysis, fileio, multirate, simulate, systems, tensors

MODULES = (tensors, systems, simulate, analysis, multirate, fileio)


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_module_names_are_the_package_names(module):
    assert len(module.__all__) == len(set(module.__all__))
    for name in module.__all__:
        assert getattr(tensorstate, name) is getattr(module, name)


def test_package_all_is_the_union_once():
    names = tensorstate.__all__
    assert len(names) == len(set(names))
    assert set(names) == {name for module in MODULES for name in module.__all__} | {"__version__"}


def test_each_name_declared_once():
    """No name is in two modules' __all__: each is made public beside its
    definition, and the package's __all__ is the lists in module order."""
    owners = {}
    for module in MODULES:
        for name in module.__all__:
            assert name not in owners, f"{name} is in {owners[name]}.__all__ and {module.__name__}.__all__"
            owners[name] = module.__name__
    assert tensorstate.__all__ == [*owners, "__version__"]


@pytest.mark.parametrize("module, name", [(systems, "Piecewise"), (simulate, "MAX_GRID_CELLS")])
def test_module_level_names(module, name):
    assert hasattr(module, name)
    assert name not in module.__all__
    assert not hasattr(tensorstate, name)


def test_readme_example(capsys):
    """README's one python block runs and prints what it shows."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "[3.2566077995000002, 0.0]\nstable\n"
