"""benchmarks/bench_kernels.py imports program internals (tasks._union,
tasks._plan, tasks._span and tasks._trial_bytes); a short run here keeps it
from rotting against them."""

import importlib.util
import json
import pathlib

_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"


def test_bench_kernels_runs_and_reports_every_row(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("bench_kernels", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "bench.json"
    module.main(["--agents-n", "3", "--density-n", "5", "--union-k", "1,2",
                 "--agents-steps", "20", "--density-steps", "40",
                 "--warmup", "5", "--startup", "2", "--json", str(out)])
    rows = json.loads(out.read_text())
    assert {"env", "agents", "density", "agents_union", "density_union",
            "startup"} <= rows.keys()
    assert [r["n"] for r in rows["agents"]] == [3]
    assert [r["n"] for r in rows["density"]] == [5]
    for key in ("agents_union", "density_union"):
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
    assert rows["density"][0]["ms_per_step"]["median"] > 0
    startup, = rows["startup"]
    assert startup["runs"] == 2
    assert startup["ms"]["median"] > 0 and startup["peak_rss_mb"] > 0
