"""The package namespace is its modules' __all__ lists, re-exported."""

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


@pytest.mark.parametrize("module, name", [(systems, "Piecewise"), (simulate, "MAX_GRID_CELLS")])
def test_module_level_names(module, name):
    assert hasattr(module, name)
    assert name not in module.__all__
    assert not hasattr(tensorstate, name)
