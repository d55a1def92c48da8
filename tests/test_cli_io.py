"""Config loading, series ingestion, result emission, CLI subcommands."""

import filecmp
import json
import math
import os
import pathlib

import numpy as np
import pytest

from trafficrc.cli import main
from trafficrc.io import (ConfigError, ExperimentConfig, config_from_dict,
                          config_to_dict, load_config, read_series_csv,
                          synth_series, write_series_csv)


# --- config resolution ---------------------------------------------------------

def test_default_recipe():
    cfg = config_from_dict({})
    assert (cfg.model, cfg.task) == ("density", "density_link")
    assert (cfg.n, cfg.T, cfg.tau, cfg.beta) == (5, 5, 100.0, 1e-8)
    assert (cfg.train, cfg.test, cfg.washout, cfg.trials) == (4000, 2000, 100, 20)
    assert (cfg.p, cfg.seed, cfg.sigma_in, cfg.trial_average) == (1.0, 12345, 1.0, 5)
    assert cfg.link_length == 1.0
    assert cfg.total_vehicles == 80.0     # one unit per link on the 5x5 grid
    assert cfg.n_links == 80


def test_model_dependent_defaults():
    agents = config_from_dict({"model": "agents"})
    assert agents.link_length == 20.0
    assert config_from_dict({"model": "agents", "link_length": 5.0}).link_length == 5.0
    assert config_from_dict({"n": 3}).total_vehicles == 24.0
    assert config_from_dict({"n": 1}).total_vehicles == 1.0


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="modle"):
        config_from_dict({"modle": "density"})
    with pytest.raises(ConfigError, match="sig"):
        config_from_dict({"series_synth": {"sig": 1.0}})
    with pytest.raises(ConfigError, match="'ov'"):
        config_from_dict({"ov": {"vmax": 3.0}})


@pytest.mark.parametrize("patch,key", [
    ({"test": 1}, "test"),
    ({"T": -1}, "T"),
    ({"p": 1.5}, "p"),
    ({"tau": 0}, "tau"),
    ({"tau": [100.0, 90.0]}, "tau"),
    ({"turn_weights": [0.5, 0.4, 0.2]}, "turn_weights"),
    ({"ns_stop_first": [1, 0, 1, 0]}, "ns_stop_first"),
    ({"task2_feature": "c"}, "task2_feature"),
    ({"series_synth": {"rho": 1.0}}, "series_synth"),
    ({"sigma_in": 0.0}, "sigma_in"),
    ({"model": "fluid"}, "model"),
])
def test_validation_names_the_key(patch, key):
    data = {"n": 2}
    data.update(patch)
    with pytest.raises(ConfigError, match=f"'{key}'"):
        config_from_dict(data)


@pytest.mark.parametrize("patch,key", [
    ({"link_length": math.inf}, "link_length"),
    ({"total_vehicles": math.inf}, "total_vehicles"),
    ({"tau": math.inf}, "tau"),
    ({"tau": [100.0, 90.0, 80.0, math.inf]}, "tau"),
    ({"beta": math.inf}, "beta"),
    ({"sigma_in": math.inf}, "sigma_in"),
])
def test_validation_rejects_infinite_values(patch, key):
    # inf passes a bare sign check and would only fail deep inside the run
    data = {"n": 2}
    data.update(patch)
    with pytest.raises(ConfigError, match=f"'{key}'.*finite"):
        config_from_dict(data)


@pytest.mark.parametrize("group,name", [
    ("series_synth", "amplitude"),
    ("series_synth", "offset"),
    ("series_synth", "period"),
    ("series_synth", "rho"),
    ("series_synth", "sigma"),
    ("ov", "a"),
    ("ov", "v_scale"),
    ("ov", "c"),
    ("ov", "w"),
    ("ov", "dt"),
    ("ov", "d_min"),
    ("ov", "horizon"),
])
def test_validation_rejects_infinite_nested_values(group, name):
    # without the check, inf surfaces mid-run as "external input must be
    # finite" or "teacher series is constant", naming no key
    with pytest.raises(ConfigError, match=f"'{group}': {name} must be finite"):
        config_from_dict({"n": 2, group: {name: math.inf}})


@pytest.mark.parametrize("patch,key", [
    ({"p": "0.5"}, "p"),
    ({"p": True}, "p"),
    ({"turn_weights": ["a", 0.5, 0.5]}, "turn_weights"),
    ({"turn_weights": [None, 0.5, 0.5]}, "turn_weights"),
    ({"series_synth": {"rho": "x"}}, "series_synth"),
    ({"model": "agents", "ov": {"a": None}}, "ov"),
    ({"ov": {"dt": [0.1]}}, "ov"),
])
def test_validation_refuses_wrongly_typed_values(patch, key):
    # a string once reached a numeric comparison and raised a bare TypeError
    data = {"n": 2}
    data.update(patch)
    with pytest.raises(ConfigError, match=f"'{key}'"):
        config_from_dict(data)


@pytest.mark.parametrize("patch", [
    {"agents_per_link": 250},                 # 20 / 251 < d_min = 0.1
    {"ov": {"d_min": 25.0}},                  # 20 / 11 < 25
    {"link_length": 1.0, "agents_per_link": 10},
])
def test_agent_spacing_is_refused_at_config_time(patch):
    # without the check, init_agents fails mid-run naming a link, not a key
    data = {"model": "agents", "n": 2}
    data.update(patch)
    with pytest.raises(ConfigError, match="'agents_per_link'.*d_min"):
        config_from_dict(data)


def test_agent_spacing_bound_is_inclusive_and_agents_only():
    # 20 / (199 + 1) == 0.1 exactly: the agents still fit
    cfg = config_from_dict({"model": "agents", "n": 2, "agents_per_link": 199})
    assert cfg.agents_per_link == 199
    # the density model places no agents
    assert config_from_dict({"n": 2, "agents_per_link": 250}).model == "density"


def test_list_fields_become_tuples():
    cfg = config_from_dict({"n": 2, "tau": [80.0, 90.0, 100.0, 110.0],
                            "turn_weights": [0.2, 0.3, 0.5],
                            "target_link": [0, 1],
                            "ns_stop_first": [True, False, True, False]})
    assert cfg.tau == (80.0, 90.0, 100.0, 110.0)
    assert cfg.turn_weights == (0.2, 0.3, 0.5)
    assert cfg.target_link == (0, 1)
    assert cfg.ns_stop_first == (True, False, True, False)


def test_config_round_trip():
    cfg = config_from_dict({"n": 3, "model": "agents", "T": 2,
                            "ov": {"d_min": 0.2}})
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_load_config_and_manifest_unwrap(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 3, "trials": 2}))
    assert load_config(path).n == 3
    wrapped = tmp_path / "manifest.json"
    wrapped.write_text(json.dumps(
        {"artifact": "trafficrc", "resolved_config": {"n": 4}}))
    assert load_config(wrapped).n == 4

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="root"):
        load_config(bad)


def test_config_error_is_value_error():
    assert issubclass(ConfigError, ValueError)


def test_shipped_recipes_echo_their_headline_values():
    configs = pathlib.Path(__file__).resolve().parent.parent / "configs"
    psweep = load_config(configs / "density_link_p_sweep.json")
    assert (psweep.n, psweep.T, psweep.tau, psweep.beta) == (5, 5, 100.0, 1e-8)
    assert (psweep.train, psweep.test, psweep.trials) == (4000, 2000, 20)
    roads = load_config(configs / "agents_road_subset.json")
    assert (roads.model, roads.n, roads.M) == ("agents", 3, 20)
    assert (roads.train, roads.test, roads.trials) == (2500, 2500, 10)
    horizon = load_config(configs / "external_series_horizon.json")
    assert (horizon.task, horizon.n, horizon.T) == ("external_series", 10, 10)
    assert (horizon.sigma_in, horizon.trial_average) == (0.05, 5)
    assert (horizon.series_synth.rho, horizon.series_synth.sigma) == (0.95, 0.8)


# --- series CSV ingestion ------------------------------------------------------

def test_read_bare_values(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1.5\n2.5\n-3.0\n")
    s = read_series_csv(path)
    assert s.values.tolist() == [1.5, 2.5, -3.0]
    assert s.step_seconds is None


def test_read_iso_timestamps_give_step_seconds(tmp_path):
    path = tmp_path / "s.csv"
    rows = ["time,value"]
    rows += [f"2021-06-01T00:{q:02d}:00,{20 + q}" for q in (0, 15, 30, 45)]
    path.write_text("\n".join(rows) + "\n")
    s = read_series_csv(path)
    assert s.step_seconds == 900.0     # 15-minute cadence
    assert s.values.tolist() == [20.0, 35.0, 50.0, 65.0]


def test_read_numeric_timestamps(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("0,1.0\n10,2.0\n20,3.0\n")
    assert read_series_csv(path).step_seconds == 10.0
    # non-uniform spacing: values load, no step recorded
    path.write_text("0,1.0\n10,2.0\n25,3.0\n")
    assert read_series_csv(path).step_seconds is None


def test_read_errors_cite_rows(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,value\n0,1.0\n1,nan\n")
    with pytest.raises(ValueError, match="row 3"):
        read_series_csv(path)
    path.write_text("0,1.0\n0,2.0\n")
    with pytest.raises(ValueError, match="row 2.*increase"):
        read_series_csv(path)
    path.write_text("0,1.0\nwat,wat,wat\n")
    with pytest.raises(ValueError, match="row 2"):
        read_series_csv(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_series_csv(path)
    path.write_text("2,3.0\n1.5\n")
    with pytest.raises(ValueError, match="mixed"):
        read_series_csv(path)


def test_series_csv_round_trip(tmp_path):
    values = np.random.default_rng(8).normal(size=64)
    path = tmp_path / "s.csv"
    write_series_csv(path, values)
    back = read_series_csv(path)
    assert np.array_equal(back.values, values)
    assert back.step_seconds == 1.0


# --- synthetic series ----------------------------------------------------------

def test_synth_sinusoid_period():
    y = synth_series("sinusoid", 400, np.random.default_rng(0))
    assert np.allclose(y[:-96], y[96:], atol=1e-9)
    assert y.min() >= 10.0 - 1e-9 and y.max() <= 30.0 + 1e-9


def test_synth_ar1_reduces_to_sinusoid_at_zero_sigma():
    rng = np.random.default_rng(1)
    noisy = synth_series("sinusoid+ar1", 300, np.random.default_rng(1))
    clean = synth_series("sinusoid+ar1", 300, np.random.default_rng(1), sigma=0.0)
    pure = synth_series("sinusoid", 300, rng)
    assert np.array_equal(clean, pure)
    assert not np.array_equal(noisy, pure)


def test_synth_white_noise_at_zero_rho():
    y = synth_series("sinusoid+ar1", 4000, np.random.default_rng(2),
                     rho=0.0, sigma=1.0)
    e = y - synth_series("sinusoid", 4000, np.random.default_rng(2))
    r1 = np.corrcoef(e[:-1], e[1:])[0, 1]
    assert abs(r1) < 0.05


def test_synth_rejections():
    with pytest.raises(ValueError, match="kind"):
        synth_series("square", 10, np.random.default_rng(0))
    with pytest.raises(ValueError, match="length"):
        synth_series("sinusoid", 1, np.random.default_rng(0))


# --- CLI ------------------------------------------------------------------------

# tau short enough that the gates switch inside the tiny train/test windows
_TINY = {"n": 3, "T": 2, "washout": 10, "train": 60, "test": 30, "trials": 2,
         "tau": 16.0, "seed": 11}


def _write_cfg(tmp_path, name="cfg.json", **extra):
    data = dict(_TINY)
    data.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_simulate(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--steps", "30",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == str(out)
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 31
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["notes"]["steps"] == 30
    assert (out / "network.json").exists()


def test_cli_task1_density_outputs(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["task1-density", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "trial,seed,lognrmse,lag"
    assert len(lines) == 3
    assert (out / "trial_000_series.csv").exists()
    assert (out / "trial_001_series.csv").exists()
    svg = (out / "series.svg").read_text()
    assert svg.startswith("<svg")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == sorted(manifest["outputs"])
    assert manifest["resolved_config"]["model"] == "density"
    assert "summary" in manifest["notes"]


def test_cli_task1_agents_forces_model(tmp_path):
    # no model key in the file: the subcommand must run the agents model,
    # which also flips the default road length to 20
    cfg = _write_cfg(tmp_path, n=2, M=3, train=40, test=20)
    out = tmp_path / "ag"
    assert main(["task1-agents", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_config"]["model"] == "agents"
    assert manifest["resolved_config"]["link_length"] == 20.0


def test_cli_task2_with_series_file(tmp_path):
    cfg = _write_cfg(tmp_path)
    series = np.linspace(0, 1, 200) + np.sin(np.arange(200) / 9.0)
    spath = tmp_path / "input.csv"
    write_series_csv(spath, series)
    out = tmp_path / "t2"
    assert main(["task2", "--config", cfg, "--series", str(spath),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    notes = manifest["notes"]
    assert notes["averaged_trials"] == 2
    assert math.isfinite(notes["averaged_lognrmse"])


@pytest.mark.parametrize("command", [
    ["task2"],
    ["sweep", "--param", "p", "--values", "0.5,1.0"],
])
def test_cli_series_run_reruns_from_its_manifest(tmp_path, command):
    cfg = _write_cfg(tmp_path, task="external_series")
    spath = tmp_path / "input.csv"
    write_series_csv(spath, np.linspace(0, 1, 200) + np.sin(np.arange(200) / 9.0))
    out1, out2, synth = tmp_path / "a", tmp_path / "b", tmp_path / "s"
    assert main(command + ["--config", cfg, "--series", str(spath),
                           "--out", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["resolved_config"]["series_csv"] == str(spath)
    assert main(command + ["--config", str(out1 / "manifest.json"),
                           "--out", str(out2)]) == 0
    for name in sorted(os.listdir(out1)):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name
    # the series is read, not replaced by the synthetic default
    assert main(command + ["--config", cfg, "--out", str(synth)]) == 0
    assert (synth / "results.csv").read_bytes() != \
        (out1 / "results.csv").read_bytes()


def test_cli_sweep(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--param", "p",
                 "--values", "0.5,1.0", "--out", str(out)]) == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "param,value,mean,stderr,trials"
    assert len(summary) == 3
    assert (out / "sweep.svg").exists()
    assert (out / "value_0p5_trial_000_series.csv").exists()


def test_cli_synth(tmp_path):
    cfg = _write_cfg(tmp_path, series_synth={"length": 50})
    out = tmp_path / "sy"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
    s = read_series_csv(out / "series.csv")
    assert s.values.size == 50


def test_cli_manifest_reruns_byte_identical(tmp_path):
    cfg = _write_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["task1-density", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["task1-density", "--config", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == 0
    for name in sorted(os.listdir(out1)):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


def test_cli_seed_and_trials_overrides(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "ov"
    assert main(["task1-density", "--config", cfg, "--seed", "99",
                 "--trials", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 99
    assert manifest["resolved_config"]["trials"] == 1
    assert len((out / "results.csv").read_text().splitlines()) == 2


def test_cli_error_is_json_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p": 2.0}))
    rc = main(["task1-density", "--config", str(bad), "--out",
               str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "'p'" in json.loads(err[0])["error"]
    assert main(["task1-density", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "y")]) == 2


def test_cli_out_env_root(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TRAFFICRC_OUT", str(tmp_path / "root"))
    cfg = _write_cfg(tmp_path, series_synth={"length": 10})
    assert main(["synth", "--config", cfg]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == str(tmp_path / "root" / "synth")
    assert (tmp_path / "root" / "synth" / "series.csv").exists()
