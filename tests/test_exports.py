"""Every name a module exports in __all__ is an attribute of that module.

Importing the package resolves only the names it imports itself, so a stale
entry in a module's __all__ would pass unnoticed; tools that walk __all__
(the perfbench tracer walks models.__all__) would fail on it.  The package
exports exactly its library modules' lists, in order and each name once.  No
public metrology function takes a ProjectorSet: the scenario's pair owns G's.
"""

import importlib
import inspect
import typing

import pytest

import twirlqfi
from twirlqfi import metrology
from twirlqfi.channels import ProjectorSet

LIBRARY = ["channels", "hilbert", "metrology", "models", "probeopt"]
MODULES = [
    "twirlqfi",
    "twirlqfi.channels",
    "twirlqfi.cli",
    "twirlqfi.hilbert",
    "twirlqfi.metrology",
    "twirlqfi.models",
    "twirlqfi.probeopt",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_exactly_the_library_modules_lists():
    modules = [importlib.import_module(f"twirlqfi.{name}") for name in LIBRARY]
    assert twirlqfi.__all__ == [attr for module in modules for attr in module.__all__]
    assert len(set(twirlqfi.__all__)) == len(twirlqfi.__all__)
    assert not set(twirlqfi.__all__) & {*LIBRARY, "cli"}
    for module in modules:
        for attr in module.__all__:
            assert getattr(twirlqfi, attr) is getattr(module, attr), attr


def test_no_public_metrology_function_takes_a_projector_set():
    # a scenario's (K, G) pair owns G's clusters; a free ProjectorSet argument
    # could be another generator's or another tolerance's and still pass
    takes = []
    for name in metrology.__all__:
        value = getattr(metrology, name)
        if inspect.isfunction(value):
            hints = typing.get_type_hints(value)
            takes += [f"{name}({p})" for p in inspect.signature(value).parameters
                      if hints.get(p) is ProjectorSet]
    assert takes == []
