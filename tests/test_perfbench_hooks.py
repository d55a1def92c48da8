"""The benchmark's tracer and first-step hook look program names up by
attribute; a renamed or deleted name, or one the pipeline stops calling,
must fail here, not in a traced run."""

import importlib.util
import pathlib

import pytest

from trafficrc import kernels, tasks
from trafficrc.agents import AgentSim
from trafficrc.density import DensitySim
from trafficrc.io import config_from_dict
from trafficrc.lattice import build_lattice

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


# the readout layer's names, which the tracer wraps on tasks; each trial must
# call every one of them there, or its per-layer metrics silently read 0
_READOUT = ("assemble_matrix", "ridge_fit", "predict", "log_nrmse",
            "lag_diagnostic")
_SMALL = {
    "density": dict(n=3, T=2, washout=20, train=120, test=60, trials=2, seed=9),
    "agents": dict(model="agents", n=2, T=2, M=3, washout=15, train=80,
                   test=40, trials=2, seed=9),
    "series": dict(task="external_series", n=3, T=2, washout=20, train=150,
                   test=60, trials=2, seed=9, task2_feature="a"),
}


def test_the_readout_names_are_traced_on_tasks():
    traced = {attr for owner, attr, *_ in _tracer()._TARGETS if owner is tasks}
    assert set(_READOUT) <= traced


@pytest.mark.parametrize("kind", list(_SMALL))
def test_every_trial_calls_the_traced_readout_names(monkeypatch, kind):
    calls = {name: 0 for name in _READOUT}
    for name in _READOUT:
        def spy(*args, _fn=getattr(tasks, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(tasks, name, spy)
    cfg = config_from_dict(_SMALL[kind])
    assert len(tasks.run_experiment(cfg)) == cfg.trials
    once = {"assemble_matrix": cfg.trials, "ridge_fit": cfg.trials,
            "predict": cfg.trials}
    assert {name: calls[name] for name in once} == once
    assert calls["log_nrmse"] >= cfg.trials
    assert calls["lag_diagnostic"] >= cfg.trials


def test_every_agents_substep_calls_the_traced_kernel(monkeypatch):
    # the tracer counts kernels.agents_substep_calls through this module
    # attribute; a substep that inlined the kernel would read 0 there
    calls = []
    kernel = kernels.agents_substep

    def spy(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(kernels, "agents_substep", spy)
    cfg = config_from_dict({"model": "agents", "n": 2, "seed": 9,
                            "ov": {"dt": 0.25}})
    sim = tasks._union(cfg, build_lattice(cfg.n, cfg.link_length), range(2))
    steps = 7
    sim.run(steps)
    assert len(calls) == steps * cfg.ov.substeps == 28
