"""benchmarks/bench_kernels.py imports program internals (tasks._phase_bank,
the sims' constructors and union); a short run here keeps it from rotting
against them."""

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
    assert rows["density"][0]["ms_per_step"]["median"] > 0
    startup, = rows["startup"]
    assert startup["runs"] == 2
    assert startup["ms"]["median"] > 0 and startup["peak_rss_mb"] > 0
