"""Every exported name resolves, so a trimmed export cannot leave a dangling
name behind in trafficrc or one of its modules."""

import importlib
import pkgutil

import pytest

import trafficrc

_MODULES = ["trafficrc"] + [f"trafficrc.{m.name}"
                            for m in pkgutil.iter_modules(trafficrc.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
