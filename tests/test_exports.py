"""Every name a module exports in __all__ is an attribute of that module.

Importing the package resolves only the names it imports itself, so a stale
entry in a module's __all__ would pass unnoticed; tools that walk __all__
(the perfbench tracer walks models.__all__) would fail on it.
"""

import importlib

import pytest

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
