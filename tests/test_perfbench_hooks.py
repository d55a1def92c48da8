"""The benchmark's tracer and first-step hook look program names up by
attribute; a renamed or deleted name must fail here, not in a traced run."""

import importlib.util
import pathlib

import pytest

from trafficrc.agents import AgentSim
from trafficrc.density import DensitySim

_TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for owner, attr, name, _, _ in _tracer()._TARGETS:
        assert callable(getattr(owner, attr, None)), name


@pytest.mark.parametrize("cls", [DensitySim, AgentSim])
def test_step_is_defined_in_the_class_body(cls):
    assert "step" in cls.__dict__
