"""Config loading, series ingestion, result emission, CLI subcommands."""

import dataclasses
import filecmp
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import trafficrc
from trafficrc import tasks
from trafficrc.cli import main
from trafficrc.io import (ConfigError, ExperimentConfig, SynthSpec,
                          _series_heads, _trial_series_csv, _value_tag,
                          _write_csv, config_from_dict, config_to_dict,
                          load_config, read_series_csv, synth_series,
                          write_series_csv)
from trafficrc.tasks import TrialResult


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
    ({"tau": [80.0, 90.0, 100.0, 110.0]}, "tau"),  # one per junction
    ({"task2_feature": "c"}, "task2_feature"),
    ({"series_synth": {"rho": 1.0}}, "series_synth"),
    ({"sigma_in": 0.0}, "sigma_in"),
    ({"model": "fluid"}, "model"),
    ({"n": 1001}, "n"),
    ({"n": 10 ** 200}, "n"),  # 4n(n-1) overflows a float
    ({"n": 10 ** 200, "total_vehicles": 5.0}, "n"),
    # unbounded, each failed deep in numpy or in memory
    ({"trials": 10 ** 20}, "trials"),
    ({"washout": 10 ** 20}, "washout"),
    ({"train": 10 ** 20}, "train"),
    ({"test": 10 ** 20}, "test"),
    ({"T": 10 ** 20}, "T"),
    ({"steps": 10 ** 20}, "steps"),
    # with d_min 0 no spacing rule bounds the count: np.full overflowed
    ({"model": "agents", "agents_per_link": 10 ** 20, "ov": {"d_min": 0.0}},
     "agents_per_link"),
    # synth ended in numpy's "Maximum allowed size exceeded"
    ({"series_synth": {"length": 10 ** 20}}, "series_synth"),
    # the input weight draw overflowed in rng.uniform
    ({"sigma_in": 1e308}, "sigma_in"),
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


_FIELDS = dataclasses.fields(ExperimentConfig)


@pytest.mark.parametrize("field", [f for f in _FIELDS if f.name != "series_csv"],
                         ids=lambda f: f.name)
def test_every_key_refuses_a_wrongly_typed_value(field):
    # series_csv takes any string; every other row checks its kind, so a
    # key added without a check fails here
    bad = ["x", True] + ([1.5] if field.metadata["kind"] is int else [])
    for value in bad:
        with pytest.raises(ConfigError, match=f"'{field.name}'"):
            config_from_dict({field.name: value})


# (block key, its class) of every nested block, and each field of each block
_BLOCKS = {f.name: type(f.default) for f in _FIELDS
           if dataclasses.is_dataclass(f.default)}
_BLOCK_FIELDS = [(block, f) for block, cls in _BLOCKS.items()
                 for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("block,field", _BLOCK_FIELDS,
                         ids=[f"{b}.{f.name}" for b, f in _BLOCK_FIELDS])
def test_every_block_key_refuses_a_wrong_value(block, field):
    # a block checks each of its keys against its row as it is built, from
    # a config or directly, so a block key added without a row fails here
    non_finite = [math.inf, -math.inf, math.nan]
    bad = ["x", True, [1.0]] + non_finite
    bad += [1.5] if field.metadata["kind"] is int else []
    for value in bad:
        # without the check, a float key's inf surfaced mid-run as "external
        # input must be finite" or "teacher series is constant", naming no key
        finite = field.metadata["kind"] is float and value in non_finite
        for build in (lambda: config_from_dict({block: {field.name: value}}),
                      lambda: _BLOCKS[block](**{field.name: value})):
            with pytest.raises(ConfigError) as exc:
                build()
            # the block names its key once, then the field
            assert str(exc.value).startswith(
                f"config key '{block}': {field.name} must be "
                + ("finite" if finite else "")), value
            assert str(exc.value).count("config key") == 1


def test_an_int_block_value_stays_an_int():
    # as for the top-level keys, a block echoes the number it was given
    cfg = config_from_dict({"ov": {"a": 1}, "series_synth": {"period": 96}})
    data = config_to_dict(cfg)
    assert (data["ov"]["a"], data["series_synth"]["period"]) == (1, 96)
    assert type(data["ov"]["a"]) is int
    assert config_from_dict(data) == cfg


@pytest.mark.parametrize("key", [f.name for f in _FIELDS if f.default is not None])
def test_null_is_refused_where_the_default_is_not_null(key):
    # null once dropped the key, so {"tau": null} ran the default silently
    with pytest.raises(ConfigError, match=f"'{key}'"):
        config_from_dict({key: None})


def test_null_unsets_only_the_optional_keys():
    cfg = config_from_dict({"target_link": None, "series_csv": None,
                            "steps": None, "series_synth": {"length": None}})
    assert cfg == config_from_dict({})
    with pytest.raises(ConfigError, match="'series_synth': kind"):
        config_from_dict({"series_synth": {"kind": None}})


@pytest.mark.parametrize("dt", [0.3, 0.15, 2.0, 5e-324])
def test_ov_dt_must_split_one_time_unit(dt):
    # round(1 / dt) substeps of dt must span exactly one reservoir step
    with pytest.raises(ConfigError, match="'ov': dt must be 1/k"):
        config_from_dict({"ov": {"dt": dt}})


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


@pytest.mark.parametrize("ov,refused", [
    ({"dt": 1.0, "v_scale": 1.0}, False),           # one link exactly
    ({"dt": 1.0, "v_scale": 1.5}, True),
    ({"dt": 0.5, "v_scale": 2.0}, False),
    ({"dt": 1.0, "a": 2.0, "v_scale": 0.6}, True),  # a dt > 1 overshoots
    ({"v_scale": 1e20}, True),
])
def test_an_agent_may_not_pass_a_whole_link_in_one_substep(ov, refused):
    # under the Euler relaxation a speed stays below max(1, a dt) v_scale
    data = {"model": "agents", "n": 2, "link_length": 1.0,
            "agents_per_link": 1, "ov": ov}
    if refused:
        with pytest.raises(ConfigError, match="^config key 'ov': .*one 1.0-long link"):
            config_from_dict(data)
    else:
        assert config_from_dict(data).ov.v_scale == ov["v_scale"]
    # the density model reads no ov
    assert config_from_dict(dict(data, model="density")).model == "density"


def test_list_fields_become_tuples():
    cfg = config_from_dict({"n": 2, "turn_weights": [0.2, 0.3, 0.5],
                            "target_link": [0, 1]})
    assert cfg.turn_weights == (0.2, 0.3, 0.5)
    assert cfg.target_link == (0, 1)


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


def test_the_dropped_phase_mode_key_is_refused(tmp_path):
    # manifests written before the one phase law carry the key
    old = dict(config_to_dict(config_from_dict({"n": 3})),
               phase_mode="constant-rate")
    with pytest.raises(ConfigError, match="phase_mode"):
        config_from_dict(old)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"artifact": "trafficrc",
                                    "resolved_config": old}))
    with pytest.raises(ConfigError, match="phase_mode"):
        load_config(manifest)


@pytest.mark.parametrize("key,value,named", [
    ("init", "random", "unknown config keys: init"),
    ("ns_stop_first", True, "unknown config keys: ns_stop_first"),
    ("tau", [100.0] * 9, "config key 'tau'"),
], ids=["init", "ns_stop_first", "tau-list"])
def test_the_dropped_init_flag_and_tau_list_are_refused(tmp_path, key, value,
                                                        named):
    # manifests written before one period and one initial split carry
    # init and ns_stop_first; a per-junction tau once held n*n entries
    old = dict(config_to_dict(config_from_dict({"n": 3})), **{key: value})
    with pytest.raises(ConfigError, match=named):
        config_from_dict(old)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"artifact": "trafficrc",
                                    "resolved_config": old}))
    with pytest.raises(ConfigError, match=named):
        load_config(manifest)


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
    assert read_series_csv(path).tolist() == [1.5, 2.5, -3.0]


def test_read_iso_timestamped_values(tmp_path):
    path = tmp_path / "s.csv"
    rows = ["time,value"]
    rows += [f"2021-06-01T00:{q:02d}:00,{20 + q}" for q in (0, 15, 30, 45)]
    path.write_text("\n".join(rows) + "\n")
    assert read_series_csv(path).tolist() == [20.0, 35.0, 50.0, 65.0]


def test_read_numeric_timestamps(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("0,1.0\n10,2.0\n20,3.0\n")
    assert read_series_csv(path).tolist() == [1.0, 2.0, 3.0]
    # non-uniform spacing loads as well
    path.write_text("0,1.0\n10,2.0\n25,3.0\n")
    assert read_series_csv(path).tolist() == [1.0, 2.0, 3.0]


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


@pytest.mark.parametrize("text", ["1.5x\n2.0\n3.0\n", "t1,value\n0,1.0\n1,2.0\n",
                                  "0,1.0x\n1,2.0\n"])
def test_a_first_row_with_a_digit_is_data_not_a_header(tmp_path, text):
    # a typo in the first value must not drop it silently as a header
    path = tmp_path / "s.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="row 1: cannot parse series entry"):
        read_series_csv(path)


@pytest.mark.parametrize("text", ["2,3.0\n1.5\n", "1.5\n2,3.0\n5,4.0\n"])
def test_read_refuses_mixed_rows_in_either_order(tmp_path, text):
    path = tmp_path / "s.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="mixed"):
        read_series_csv(path)


def test_csv_cells_and_value_tags_write_numpy_scalars_as_numbers(tmp_path):
    # repr of a numpy 2 float is "np.float64(0.1)"; its str is the number
    path = tmp_path / "r.csv"
    _write_csv(path, ["a", "b", "c"], [[np.float64(0.1), np.int64(3), None]])
    assert path.read_text() == "a,b,c\n0.1,3,None\n"
    assert _value_tag(np.float64(-0.5)) == _value_tag(-0.5) == "m0p5"


def test_series_csv_round_trip(tmp_path):
    values = np.random.default_rng(8).normal(size=64)
    path = tmp_path / "s.csv"
    write_series_csv(path, values)
    assert np.array_equal(read_series_csv(path), values)


# --- series writers against the per-row writers they replaced --------------------

def series_csv_oracle(values):
    """write_series_csv's text, written one row at a time."""
    return "t,value\n" + "".join(f"{i},{repr(float(v))}\n"
                                 for i, v in enumerate(values))


def trial_series_oracle(result):
    """_trial_series_csv's text, written one row at a time."""
    teacher = np.atleast_2d(np.asarray(result.teacher, dtype=float))
    predicted = np.atleast_2d(np.asarray(result.predicted, dtype=float))
    m = teacher.shape[0]
    header = (["t", "teacher", "predicted"] if m == 1 else
              ["t"] + [f"teacher_{i}" for i in range(m)]
              + [f"predicted_{i}" for i in range(m)])
    rows = np.vstack([teacher, predicted]).T.tolist()
    return ",".join(header) + "\n" + "".join(
        f"{t}," + ",".join(map(repr, row)) + "\n"
        for t, row in enumerate(rows, int(result.t0)))


# magnitudes from subnormal to near overflow, signed zeros, and the non-finite
_CELLS = st.one_of(st.floats(width=64),
                   st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.1, 1e16, 1e300]))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), m=st.integers(1, 4), steps=st.integers(0, 12),
       t0=st.integers(0, 10**12))
def test_series_writers_match_the_per_row_writers(tmp_path, data, m, steps, t0):
    cells = data.draw(st.lists(_CELLS, min_size=2 * m * steps,
                               max_size=2 * m * steps))
    both = np.array(cells, dtype=float).reshape(2, m, steps)
    teacher, predicted = (both[0, 0], both[1, 0]) if m == 1 else both
    result = TrialResult(0, 1, 0.0, None, teacher, predicted, t0)
    path = tmp_path / "trial.csv"
    _trial_series_csv(path, result)
    assert path.read_bytes() == trial_series_oracle(result).encode()
    # the t,teacher text of a result with the same t0 and teacher, reused
    moved = both[1, :, ::-1].copy()
    other = TrialResult(1, 1, 0.0, None, teacher, moved[0] if m == 1 else moved, t0)
    _trial_series_csv(path, other, _series_heads(result))
    assert path.read_bytes() == trial_series_oracle(other).encode()
    write_series_csv(path, both[0, 0])
    assert path.read_bytes() == series_csv_oracle(both[0, 0]).encode()


# --- synthetic series ----------------------------------------------------------

_SINUSOID = SynthSpec(kind="sinusoid")


def test_synth_sinusoid_period():
    y = synth_series(_SINUSOID, 400, np.random.default_rng(0))
    assert np.allclose(y[:-96], y[96:], atol=1e-9)
    assert y.min() >= 10.0 - 1e-9 and y.max() <= 30.0 + 1e-9


def test_synth_ar1_reduces_to_sinusoid_at_zero_sigma():
    rng = np.random.default_rng(1)
    noisy = synth_series(SynthSpec(), 300, np.random.default_rng(1))
    clean = synth_series(SynthSpec(sigma=0.0), 300, np.random.default_rng(1))
    pure = synth_series(_SINUSOID, 300, rng)
    assert np.array_equal(clean, pure)
    assert not np.array_equal(noisy, pure)


def test_synth_white_noise_at_zero_rho():
    y = synth_series(SynthSpec(rho=0.0, sigma=1.0), 4000,
                     np.random.default_rng(2))
    e = y - synth_series(_SINUSOID, 4000, np.random.default_rng(2))
    r1 = np.corrcoef(e[:-1], e[1:])[0, 1]
    assert abs(r1) < 0.05


def test_synth_rejections():
    # the recipe's rows refuse a bad kind or length before any series is made
    with pytest.raises(ConfigError, match="kind"):
        SynthSpec(kind="square")
    with pytest.raises(ConfigError, match="length"):
        SynthSpec(kind="sinusoid", length=1)


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


def test_cli_sweep_with_every_road_monitored_writes_no_plot(tmp_path):
    # the 3x3 grid has 24 roads, so M=24 leaves none to predict
    cfg = _write_cfg(tmp_path, model="agents")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--param", "M", "--values", "24",
                 "--out", str(out)]) == 0
    assert (out / "results.csv").read_text().splitlines() == [
        "param,value,trial,seed,lognrmse,lag"]
    assert (out / "summary.csv").read_text().splitlines() == [
        "param,value,mean,stderr,trials"]
    assert not (out / "sweep.svg").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "sweep.svg" not in manifest["outputs"]


def test_cli_sweep_help_names_every_sweep_param(capsys, monkeypatch):
    def help_text():
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        return " ".join(capsys.readouterr().out.split())

    assert "parameter to sweep: " + ", ".join(tasks._SWEEP_PARAMS) in help_text()
    # the help follows the list, so a new entry needs no second edit
    monkeypatch.setattr(tasks, "_SWEEP_PARAMS", ("p", "sigma_in"))
    assert "parameter to sweep: p, sigma_in" in help_text()


@pytest.mark.parametrize("param,values,error", [
    ("p", "", "config key 'p': no sweep values given"),
    ("p", "abc", "config key 'p': sweep value 'abc' is not a number"),
    ("T", "2,x", "config key 'T': sweep value 'x' is not a number"),
    ("T", "2.5", "config key 'T': sweep value '2.5' is not an integer"),
])
def test_cli_sweep_refuses_bad_values(tmp_path, capsys, param, values, error):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--param", param, "--values", values,
                 "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == error
    assert not out.exists()


@pytest.mark.parametrize("extra", [{}, {"task": "external_series"}])
def test_cli_sweep_refuses_m_off_the_agents_model(tmp_path, capsys, extra):
    # only the agents readout reads M: every value would score the same
    cfg = _write_cfg(tmp_path, **extra)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--param", "M", "--values", "3,4",
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err.startswith("config key 'M'") and "agents" in err
    assert not out.exists()


def test_cli_simulate_refuses_a_single_junction_density_lattice(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, n=1)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 2
    assert "config key 'n'" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("extra", [{}, {"total_vehicles": 5.0}])
def test_cli_simulate_refuses_a_huge_n(tmp_path, capsys, extra):
    cfg = _write_cfg(tmp_path, n=10 ** 200, **extra)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith("config key 'n'")


_CAPPED_RUN = """
import resource, sys
from trafficrc.cli import main
# a run that lists its trials' batches fails here, not on the host's memory
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.exit(main(sys.argv[1:]))
"""


def test_cli_refuses_a_huge_trial_count(tmp_path):
    cfg = _write_cfg(tmp_path, trials=10 ** 20)
    src = pathlib.Path(trafficrc.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_RUN, "task1-density", "--config", cfg,
         "--out", str(tmp_path / "run")],
        env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    err, = proc.stderr.splitlines()
    assert json.loads(err)["error"].startswith("config key 'trials'")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command,data,key", [
    ("task1-agents", {"model": "agents", "n": 2, "M": 3,
                      "agents_per_link": 10 ** 20, "ov": {"d_min": 0.0}},
     "agents_per_link"),
    ("simulate", {"model": "agents", "n": 2, "M": 3,
                  "agents_per_link": 10 ** 20, "ov": {"d_min": 0.0}},
     "agents_per_link"),
    ("simulate", {"model": "agents", "n": 2, "agents_per_link": 10 ** 8,
                  "ov": {"d_min": 0.0}}, "agents_per_link"),
    ("synth", {"task": "external_series", "series_synth": {"length": 10 ** 20}},
     "series_synth"),
    ("task2", {"task": "external_series", "n": 3, "sigma_in": 1e308, "trials": 1,
               "train": 50, "test": 20, "washout": 5}, "sigma_in"),
    # an agent could pass many links a substep: 1e7 took 20 s, 1e20 never ended
    ("task1-agents", {"model": "agents", "n": 2, "M": 3, "ov": {"v_scale": 1e20},
                      "trials": 1, "train": 50, "test": 20, "washout": 5}, "ov"),
])
def test_cli_refuses_an_extreme_config_naming_its_key(tmp_path, command, data, key):
    # each once ended in a traceback, an error naming no key, or no end at
    # all; under the memory cap a refusal that comes too late fails here too
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    src = pathlib.Path(trafficrc.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_RUN, command, "--config", str(path),
         "--out", str(tmp_path / "run")],
        env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    err, = proc.stderr.splitlines()
    assert json.loads(err)["error"].startswith(f"config key '{key}': ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("extra,args", [
    ({"seed": -5}, []),
    ({}, ["--seed", "-1"]),
])
def test_cli_refuses_a_negative_seed(tmp_path, capsys, extra, args):
    cfg = _write_cfg(tmp_path, **extra)
    assert main(["task1-density", "--config", cfg, *args,
                 "--out", str(tmp_path / "run")]) == 2
    assert "config key 'seed'" in json.loads(capsys.readouterr().err)["error"]


def test_cli_task2_refuses_a_short_series_naming_its_key(tmp_path, capsys):
    # the tiny recipe spans 102 steps
    cfg = _write_cfg(tmp_path, series_synth={"length": 50})
    assert main(["task2", "--config", cfg, "--out", str(tmp_path / "a")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err.startswith("config key 'series_synth'") and "needs 102" in err
    spath = tmp_path / "short.csv"
    write_series_csv(spath, np.arange(50.0))
    assert main(["task2", "--config", cfg, "--series", str(spath),
                 "--out", str(tmp_path / "b")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err.startswith("config key 'series_csv'") and "needs 102" in err


# series files that can be read but not parsed, by name
_UNPARSABLE = {"bad_row.csv": "t,value\n0,1.5\n1,abc\n",
               "header_only.csv": "t,value\n", "empty.csv": ""}


@pytest.mark.parametrize("name,reason", [
    ("missing.csv", "No such file or directory"),
    ("", "Is a directory"),
    ("bad_row.csv", "row 3: cannot parse series entry"),
    ("header_only.csv", "no data rows"),
    ("empty.csv", "empty series file"),
])
def test_cli_task2_names_an_unreadable_series_file(tmp_path, capsys, name, reason):
    spath = str(tmp_path / name)
    if name in _UNPARSABLE:
        # the parse error keeps its path and row behind the key
        pathlib.Path(spath).write_text(_UNPARSABLE[name])
        want = f"{spath}: {reason}"
    else:
        want = f"cannot read {spath!r}: {reason}"
    assert main(["task2", "--config", _write_cfg(tmp_path), "--series", spath,
                 "--out", str(tmp_path / "t2")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == f"config key 'series_csv': {want}"


def test_cli_task2_refuses_a_constant_series_naming_its_key(tmp_path, capsys):
    spath = tmp_path / "flat.csv"
    write_series_csv(spath, np.full(200, 7.0))
    assert main(["task2", "--config", _write_cfg(tmp_path), "--series",
                 str(spath), "--out", str(tmp_path / "a")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err.startswith("config key 'series_csv': ") and "constant" in err
    cfg = _write_cfg(tmp_path, series_synth={"amplitude": 0.0, "sigma": 0.0})
    assert main(["task2", "--config", cfg, "--out", str(tmp_path / "b")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err.startswith("config key 'series_synth': ") and "constant" in err


def test_cli_synth(tmp_path):
    cfg = _write_cfg(tmp_path, series_synth={"length": 50})
    out = tmp_path / "sy"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
    assert read_series_csv(out / "series.csv").size == 50


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


_NO_SCIPY_RUN = """
import json, sys
from trafficrc.cli import main
cfg, out = sys.argv[1:]
for args in (["simulate", "--steps", "30"],
             ["sweep", "--param", "p", "--values", "0.5,1.0"], ["task2"]):
    if main([*args, "--config", cfg, "--out", f"{out}/{args[0]}"]) != 0:
        sys.exit(f"{args[0]} failed")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_a_run_imports_no_scipy(tmp_path):
    # numpy is the only run-time dependency: simulate, a readout sweep and
    # the external-series task all run without loading any scipy module
    src = pathlib.Path(trafficrc.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN, _write_cfg(tmp_path), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
