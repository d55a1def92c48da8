"""benchmarks/bench_kernels.py imports program internals (tasks._union,
tasks._plan, tasks._span and tasks._trial_bytes), of this tree and, with
--against, of a second one; short runs here keep it from rotting against
them."""

import importlib.util
import json
import pathlib

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_SCRIPT = _ROOT / "benchmarks" / "bench_kernels.py"


def _bench():
    spec = importlib.util.spec_from_file_location("bench_kernels", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_kernels_runs_and_reports_every_row(tmp_path, capsys):
    module = _bench()
    out = tmp_path / "bench.json"
    module.main(["--agents-n", "3", "--density-n", "5", "--union-k", "1,2",
                 "--agents-steps", "20", "--density-steps", "40",
                 "--warmup", "5", "--startup", "2", "--json", str(out)])
    rows = json.loads(out.read_text())
    assert {"env", "agents", "density", "agents_union", "density_union",
            "series_union", "startup"} <= rows.keys()
    assert [r["n"] for r in rows["agents"]] == [3]
    assert [r["n"] for r in rows["density"]] == [5]
    for key in ("agents_union", "density_union", "series_union"):
        assert [r["blocks"] for r in rows[key]] == [1, 2]
        aa, two = rows[key]
        # K=1 runs twice per round: its row is the A/A control of the ratios
        assert aa["control"] == "A/A" and "control" not in two
        assert all(r["vs_k1"]["q1"] <= r["vs_k1"]["median"] <= r["vs_k1"]["q3"]
                   for r in rows[key])
        assert aa["stored_bytes_per_trial"] == two["stored_bytes_per_trial"] > 0
        assert two["stored_bytes"] == 2 * two["stored_bytes_per_trial"]
    # the density recipe's trial stores 6105 steps of 25 junctions and 1 link
    assert rows["density_union"][0]["stored_bytes_per_trial"] == 8 * 6105 * 26
    # the external-series recipe's n = 10 trial: 5710 steps of 100 junctions
    # and no link
    assert [r["n"] for r in rows["series_union"]] == [10, 10]
    assert rows["series_union"][1]["links"] == 2 * 360
    assert rows["series_union"][0]["stored_bytes_per_trial"] == 8 * 5710 * 100
    assert rows["density"][0]["ms_per_step"]["median"] > 0
    startup, = rows["startup"]
    assert startup["runs"] == 2
    assert startup["ms"]["median"] > 0 and startup["peak_rss_mb"] > 0


def test_bench_kernels_times_the_writer(tmp_path):
    out = tmp_path / "bench.json"
    _bench().main(["--agents-n", "", "--density-n", "", "--union-k", "",
                   "--write-steps", "3", "--json", str(out)])
    writer, = json.loads(out.read_text())["writer"]
    assert writer["n"] == 40 and writer["rows"] == 3
    assert writer["pinned"]["median"] > 0 and writer["unpinned"]["median"] > 0


def _ordered(s):
    return s["q1"] <= s["median"] <= s["q3"]


def test_bench_kernels_against_a_second_tree(tmp_path, capsys):
    # this repository's src, imported a second time under another name,
    # stands in for the parent tree
    module = _bench()
    out = tmp_path / "bench.json"
    module.main(["--agents-n", "2", "--density-n", "3", "--union-k", "2",
                 "--agents-steps", "20", "--density-steps", "40",
                 "--warmup", "2", "--against", str(_ROOT / "src"),
                 "--json", str(out)])
    parent = module.sys.modules[module.AGAINST]
    assert pathlib.Path(parent.__file__).parent == _ROOT / "src" / "trafficrc"
    assert parent.tasks is not module.tasks
    rows = json.loads(out.read_text())
    per_n = rows["agents"] + rows["density"]
    unions = rows["agents_union"] + rows["density_union"] + rows["series_union"]
    assert [r["blocks"] for r in unions] == [1, 2] * 3
    for r in per_n + unions:
        vs = r["against"]
        assert vs["parent_ms_per_step"]["median"] > 0
        assert _ordered(vs["change_vs_parent"]) and _ordered(vs["parent_vs_parent"])
    header = capsys.readouterr().out.splitlines()[0]
    assert header.split()[-7:] == ["vs", "par", "q1", "q3", "A/A", "q1", "q3"]


def test_bench_kernels_against_refuses_a_tree_without_the_package(tmp_path):
    with pytest.raises(SystemExit, match="no trafficrc package"):
        _bench().main(["--agents-n", "", "--density-n", "", "--union-k", "",
                       "--against", str(tmp_path)])
