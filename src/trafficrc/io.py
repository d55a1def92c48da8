"""Config files, series CSV input, synthetic series, and result emission."""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .agents import OVParams

__all__ = [
    "VERSION", "OUT_ENV", "ConfigError", "ExperimentConfig", "load_config",
    "config_to_dict", "read_series_csv", "synth_series", "SynthSpec",
    "emit_run_results", "emit_sweep_results", "line_plot_svg",
]

VERSION = "0.1.0"
OUT_ENV = "TRAFFICRC_OUT"  # overrides the default output root ("runs")

_MODELS = ("density", "agents")
_TASKS = ("density_link", "external_series")
_SYNTH_KINDS = ("sinusoid", "sinusoid+ar1")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic external-series recipe (daily sinusoid, optional AR(1))."""
    kind: str = "sinusoid+ar1"
    length: int | None = None   # None: fit the experiment's required length
    amplitude: float = 10.0
    offset: float = 20.0
    period: float = 96.0
    # noise slow enough (corr time ~20 steps) that the reservoir's own
    # smoothing does not erase it: the forecast-horizon experiments need
    # an aperiodic component whose predictability actually decays with T
    rho: float = 0.95
    sigma: float = 0.8


_SYNTH_KEYS = {f.name for f in dataclasses.fields(SynthSpec)}
_OV_KEYS = {f.name for f in dataclasses.fields(OVParams)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment settings; every field has a concrete value."""
    model: str = "density"
    task: str = "density_link"
    n: int = 5
    link_length: float = 1.0
    total_vehicles: float = 80.0
    agents_per_link: int = 10
    turn_weights: tuple = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    tau: float = 100.0
    T: int = 5
    beta: float = 1e-8
    p: float = 1.0
    M: int = 20
    train: int = 4000
    test: int = 2000
    washout: int = 100
    trials: int = 20
    seed: int = 12345
    target_link: tuple | None = None
    series_csv: str | None = None
    series_synth: SynthSpec = SynthSpec()
    sigma_in: float = 1.0
    trial_average: int = 5
    steps: int | None = None
    ov: OVParams = OVParams()
    task2_feature: str = "b"

    @property
    def n_links(self):
        return 4 * self.n * (self.n - 1)


_CONFIG_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _require(cond, key, msg):
    if not cond:
        raise ConfigError(f"config key {key!r}: {msg}")


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _build_config(data):
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    values = dict(data)

    if "ov" in values and values["ov"] is not None:
        ov = values["ov"]
        _require(isinstance(ov, dict), "ov", "must be an object")
        bad = sorted(set(ov) - _OV_KEYS)
        _require(not bad, "ov", f"unknown keys: {', '.join(bad)}")
        bad = sorted(k for k, v in ov.items() if not _is_finite(v))
        _require(not bad, "ov", f"{', '.join(bad)} must be finite numbers")
        try:
            values["ov"] = OVParams(**{k: float(v) for k, v in ov.items()})
        except ValueError as exc:
            raise ConfigError(f"config key 'ov': {exc}") from None
    if "series_synth" in values and values["series_synth"] is not None:
        sp = values["series_synth"]
        _require(isinstance(sp, dict), "series_synth", "must be an object")
        bad = sorted(set(sp) - _SYNTH_KEYS)
        _require(not bad, "series_synth", f"unknown keys: {', '.join(bad)}")
        values["series_synth"] = SynthSpec(**sp)
    for key in ("turn_weights", "target_link"):
        if key in values and isinstance(values[key], list):
            values[key] = tuple(values[key])
    values = {k: v for k, v in values.items() if v is not None or
              k in ("target_link", "series_csv", "steps")}

    base = ExperimentConfig()
    merged = {f.name: values.get(f.name, getattr(base, f.name))
              for f in dataclasses.fields(ExperimentConfig)}

    # resolve model-dependent defaults before validation
    if "link_length" not in values:
        merged["link_length"] = 20.0 if merged["model"] == "agents" else 1.0
    if "total_vehicles" not in values:
        n = merged["n"]
        merged["total_vehicles"] = float(max(4 * n * (n - 1), 1))

    cfg = ExperimentConfig(**merged)
    validate_config(cfg)
    return cfg


def validate_config(cfg):
    _require(cfg.model in _MODELS, "model", f"must be one of {_MODELS}")
    _require(cfg.task in _TASKS, "task", f"must be one of {_TASKS}")
    _require(_is_int(cfg.n) and cfg.n >= 1, "n", "must be a positive integer")
    _require(_is_finite(cfg.link_length) and cfg.link_length > 0,
             "link_length", "must be finite and positive")
    _require(_is_finite(cfg.total_vehicles) and cfg.total_vehicles > 0,
             "total_vehicles", "must be finite and positive")
    _require(_is_int(cfg.agents_per_link) and cfg.agents_per_link >= 0,
             "agents_per_link", "must be a nonnegative integer")
    tw = cfg.turn_weights
    _require(isinstance(tw, tuple) and len(tw) == 3, "turn_weights",
             "must be a 3-vector")
    _require(all(_is_finite(v) for v in tw), "turn_weights",
             "entries must be finite numbers")
    _require(all(v >= 0 for v in tw) and abs(sum(tw) - 1.0) <= 1e-12,
             "turn_weights", "must be nonnegative and sum to 1")
    _require(_is_finite(cfg.tau) and cfg.tau > 0, "tau",
             "must be a finite positive number")
    _require(_is_int(cfg.T) and cfg.T >= 0, "T", "must be a nonnegative integer")
    _require(_is_finite(cfg.beta) and cfg.beta >= 0, "beta",
             "must be finite and nonnegative")
    _require(_is_finite(cfg.p) and 0.0 <= cfg.p <= 1.0, "p",
             "must be a number in [0, 1]")
    _require(_is_int(cfg.M) and cfg.M >= 0, "M", "must be a nonnegative integer")
    _require(_is_int(cfg.train) and cfg.train >= 1, "train", "must be >= 1")
    _require(_is_int(cfg.test) and cfg.test >= 2, "test", "must be >= 2")
    _require(_is_int(cfg.washout) and cfg.washout >= 0, "washout", "must be >= 0")
    _require(_is_int(cfg.trials) and cfg.trials >= 1, "trials", "must be >= 1")
    _require(_is_int(cfg.seed) and cfg.seed >= 0, "seed",
             "must be a nonnegative integer")
    if cfg.target_link is not None:
        tl = cfg.target_link
        _require(isinstance(tl, tuple) and len(tl) == 2 and all(_is_int(v) for v in tl),
                 "target_link", "must be a [from, to] junction pair")
    if cfg.series_csv is not None:
        _require(isinstance(cfg.series_csv, str), "series_csv", "must be a path")
    _require(cfg.series_synth.kind in _SYNTH_KINDS, "series_synth",
             f"kind must be one of {_SYNTH_KINDS}")
    if cfg.series_synth.length is not None:
        _require(_is_int(cfg.series_synth.length) and cfg.series_synth.length >= 2,
                 "series_synth", "length must be >= 2")
    for name in ("amplitude", "offset", "period", "rho", "sigma"):
        _require(_is_finite(getattr(cfg.series_synth, name)), "series_synth",
                 f"{name} must be finite")
    _require(cfg.series_synth.period > 0, "series_synth", "period must be positive")
    _require(abs(cfg.series_synth.rho) < 1, "series_synth", "rho must lie in (-1, 1)")
    _require(cfg.series_synth.sigma >= 0, "series_synth", "sigma must be >= 0")
    for name in sorted(_OV_KEYS):
        _require(_is_finite(getattr(cfg.ov, name)), "ov", f"{name} must be finite")
    if cfg.model == "agents":
        # init_agents spaces each link's agents length / (count + 1) apart
        _require(cfg.link_length / (cfg.agents_per_link + 1) >= cfg.ov.d_min,
                 "agents_per_link",
                 f"{cfg.agents_per_link} agents on a {cfg.link_length}-long "
                 f"link cannot keep ov.d_min={cfg.ov.d_min} apart "
                 "(needs link_length / (agents_per_link + 1) >= ov.d_min)")
    _require(_is_finite(cfg.sigma_in) and cfg.sigma_in > 0, "sigma_in",
             "must be finite and positive")
    _require(_is_int(cfg.trial_average) and cfg.trial_average >= 1,
             "trial_average", "must be >= 1")
    if cfg.steps is not None:
        _require(_is_int(cfg.steps) and cfg.steps >= 1, "steps", "must be >= 1")
    _require(cfg.task2_feature in ("a", "b"), "task2_feature",
             'must be "a" or "b"')
    return cfg


def read_config_dict(path):
    """Raw config dict from a JSON file (or a run manifest's resolved config)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if isinstance(data, dict) and "resolved_config" in data:
        data = data["resolved_config"]
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config root must be an object")
    return data


def load_config(path):
    """Read a strict JSON config (or a run manifest; its resolved config is used)."""
    return _build_config(read_config_dict(path))


def config_from_dict(data):
    """Build a config from an in-memory dict (same strict validation)."""
    return _build_config(data)


def config_to_dict(cfg):
    """Plain-JSON form of a resolved config (inverse of load_config)."""
    out = {}
    for f in dataclasses.fields(ExperimentConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, OVParams):
            v = {k: getattr(v, k) for k in sorted(_OV_KEYS)}
        elif isinstance(v, SynthSpec):
            v = {k: getattr(v, k) for k in sorted(_SYNTH_KEYS)}
        elif isinstance(v, tuple):
            v = list(v)
        out[f.name] = v
    return out


# --- external series ---------------------------------------------------------

def _parse_timestamp(text):
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(text).timestamp()
    except ValueError:
        return None


def read_series_csv(path):
    """Read a 1-column (value) or 2-column (timestamp, value) series CSV.

    Timestamps (numbers or ISO dates) must increase; only the values are
    returned. Errors cite 1-based row numbers. NaN or infinite values are
    rejected.
    """
    with open(path) as fh:
        raw = [ln.strip() for ln in fh]
    rows = [(i + 1, ln) for i, ln in enumerate(raw) if ln]
    if not rows:
        raise ValueError(f"{path}: empty series file")

    def parse(line):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) == 1:
            try:
                return None, float(cells[0])
            except ValueError:
                return "bad", None
        if len(cells) == 2:
            ts = _parse_timestamp(cells[0])
            try:
                val = float(cells[1])
            except ValueError:
                return "bad", None
            if ts is None:
                return "bad", None
            return ts, val
        return "bad", None

    start = 0
    first_ts, _ = parse(rows[0][1])
    if first_ts == "bad":
        start = 1  # header row
    times, values = [], []
    for rownum, line in rows[start:]:
        ts, val = parse(line)
        if ts == "bad":
            raise ValueError(f"{path}: row {rownum}: cannot parse series entry")
        if not math.isfinite(val):
            raise ValueError(f"{path}: row {rownum}: non-finite value")
        times.append(ts)
        values.append(val)
    if not values:
        raise ValueError(f"{path}: no data rows")
    stamped = [t is not None for t in times]
    if any(stamped) and not all(stamped):
        raise ValueError(f"{path}: mixed timestamped and bare rows")
    if stamped[0]:
        for i in range(1, len(times)):
            if times[i] <= times[i - 1]:
                raise ValueError(
                    f"{path}: row {rows[start + i][0]}: timestamps must increase")
    return np.asarray(values, dtype=float)


def synth_series(kind, length, rng, amplitude=10.0, offset=20.0, period=96.0,
                 rho=0.95, sigma=0.8):
    """Daily-profile surrogate: offset + amplitude sin(2 pi t / period).

    kind "sinusoid+ar1" adds AR(1) noise e[t] = rho e[t-1] + sigma z[t] with
    standard-normal z (rho=0 gives white offsets).
    """
    if kind not in _SYNTH_KINDS:
        raise ValueError(f"unknown series kind {kind!r}")
    if length < 2:
        raise ValueError("length must be >= 2")
    t = np.arange(length, dtype=float)
    out = offset + amplitude * np.sin(2.0 * np.pi * t / period)
    if kind == "sinusoid+ar1":
        z = rng.standard_normal(length)
        e = np.empty(length)
        prev = 0.0
        for i in range(length):
            prev = rho * prev + sigma * z[i]
            e[i] = prev
        out = out + e
    return out


def write_series_csv(path, values):
    """Write a series as t,value rows (round-trip exact)."""
    values = np.asarray(values, dtype=float).tolist()
    with open(path, "w") as fh:
        fh.write("t,value\n")
        fh.write(_rows_text(range(len(values)), [values]))


# --- results -----------------------------------------------------------------

def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _trial_series_csv(path, result):
    teacher = np.atleast_2d(np.asarray(result.teacher, dtype=float))
    predicted = np.atleast_2d(np.asarray(result.predicted, dtype=float))
    m = teacher.shape[0]
    if m == 1:
        header = ["t", "teacher", "predicted"]
    else:
        header = (["t"] + [f"teacher_{i}" for i in range(m)]
                  + [f"predicted_{i}" for i in range(m)])
    t0 = int(result.t0)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(_rows_text(range(t0, t0 + teacher.shape[1]),
                            np.vstack([teacher, predicted]).tolist()))


def _rows_text(times, columns):
    """The CSV rows t,c_0,c_1,.. as one %-format of a row template repeated
    per row: "%d" of a Python int is its str, and "%r" of a Python float
    its repr, the shortest round trip. columns holds lists of Python
    floats, each as long as times."""
    step = len(columns) + 1
    cells = [None] * (len(times) * step)
    cells[::step] = times
    for i, col in enumerate(columns, 1):
        cells[i::step] = col
    return ("%d" + ",%r" * len(columns) + "\n") * len(times) % tuple(cells)


def _manifest(out_dir, command, seed, cfg, outputs, notes=None):
    manifest = {
        "artifact": "trafficrc",
        "version": VERSION,
        "command": command,
        "seed": seed,
        "resolved_config": config_to_dict(cfg),
        "outputs": sorted(outputs),
    }
    if notes:
        manifest["notes"] = notes
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def emit_run_results(out_dir, command, cfg, results, notes=None):
    """Write results.csv, per-trial series CSVs, a series plot, and the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    outputs = []
    _write_csv(os.path.join(out_dir, "results.csv"),
               ["trial", "seed", "lognrmse", "lag"],
               [[r.trial, r.seed, float(r.score), r.lag] for r in results])
    outputs.append("results.csv")
    for r in results:
        name = f"trial_{r.trial:03d}_series.csv"
        _trial_series_csv(os.path.join(out_dir, name), r)
        outputs.append(name)
    if results:
        r0 = results[0]
        teacher = np.atleast_2d(r0.teacher)[0]
        predicted = np.atleast_2d(r0.predicted)[0]
        t = np.arange(r0.t0, r0.t0 + teacher.size)
        line_plot_svg(os.path.join(out_dir, "series.svg"), t,
                      {"teacher": teacher, "predicted": predicted},
                      title=f"{command} trial {r0.trial}", xlabel="t",
                      ylabel="value")
        outputs.append("series.svg")
    outputs.append("manifest.json")
    return _manifest(out_dir, command, cfg.seed, cfg, outputs, notes)


def emit_sweep_results(out_dir, command, cfg, sweep, notes=None):
    """Write sweep results/summary CSVs, per-trial series, plots, manifest."""
    os.makedirs(out_dir, exist_ok=True)
    outputs = []
    rows = []
    for value, results in sweep.by_value.items():
        for r in results:
            rows.append([sweep.param, value, r.trial, r.seed, float(r.score), r.lag])
    _write_csv(os.path.join(out_dir, "results.csv"),
               ["param", "value", "trial", "seed", "lognrmse", "lag"], rows)
    outputs.append("results.csv")
    _write_csv(os.path.join(out_dir, "summary.csv"),
               ["param", "value", "mean", "stderr", "trials"],
               [[sweep.param, row["value"], float(row["mean"]),
                 float(row["stderr"]), row["trials"]] for row in sweep.rows])
    outputs.append("summary.csv")
    for value, results in sweep.by_value.items():
        vtag = _value_tag(value)
        for r in results:
            name = f"value_{vtag}_trial_{r.trial:03d}_series.csv"
            _trial_series_csv(os.path.join(out_dir, name), r)
            outputs.append(name)
    if sweep.rows:
        xs = np.asarray([row["value"] for row in sweep.rows], dtype=float)
        means = np.asarray([row["mean"] for row in sweep.rows], dtype=float)
        errs = np.asarray([row["stderr"] for row in sweep.rows], dtype=float)
        line_plot_svg(os.path.join(out_dir, "sweep.svg"), xs, {"mean": means},
                      err={"mean": errs}, title=f"{command} over {sweep.param}",
                      xlabel=sweep.param, ylabel="lognrmse", markers=True)
        outputs.append("sweep.svg")
    outputs.append("manifest.json")
    return _manifest(out_dir, command, cfg.seed, cfg, outputs, notes)


def _value_tag(value):
    text = _fmt(value) if not isinstance(value, float) else repr(value)
    return text.replace(".", "p").replace("-", "m")


# --- plotting ----------------------------------------------------------------

_COLORS = ("#1f6f8b", "#c0392b", "#27ae60", "#8e44ad", "#d68910", "#2c3e50")


def line_plot_svg(path, x, series, err=None, title="", xlabel="", ylabel="",
                  markers=False, width=640, height=400):
    """Minimal deterministic SVG line plot (no external plotting deps)."""
    x = np.asarray(x, dtype=float)
    lo_x, hi_x = float(np.min(x)), float(np.max(x))
    vals = []
    for label, y in series.items():
        vals.append(np.asarray(y, dtype=float))
        if err and label in err:
            vals.append(np.asarray(y, dtype=float) + np.asarray(err[label]))
            vals.append(np.asarray(y, dtype=float) - np.asarray(err[label]))
    allv = np.concatenate(vals)
    lo_y, hi_y = float(np.min(allv)), float(np.max(allv))
    if hi_x == lo_x:
        hi_x = lo_x + 1.0
    if hi_y == lo_y:
        hi_y = lo_y + 1.0
    ml, mr, mt, mb = 62, 16, 28, 42
    pw, ph = width - ml - mr, height - mt - mb

    def sx(v):
        return ml + (v - lo_x) / (hi_x - lo_x) * pw

    def sy(v):
        return mt + (hi_y - v) / (hi_y - lo_y) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle">{title}</text>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml:.1f}" y="{height - 22}" text-anchor="middle">{lo_x:.6g}</text>',
        f'<text x="{ml + pw:.1f}" y="{height - 22}" text-anchor="middle">{hi_x:.6g}</text>',
        f'<text x="{ml - 6}" y="{mt + ph:.1f}" text-anchor="end">{lo_y:.6g}</text>',
        f'<text x="{ml - 6}" y="{mt + 10:.1f}" text-anchor="end">{hi_y:.6g}</text>',
        f'<text x="{width / 2:.1f}" y="{height - 6}" text-anchor="middle">{xlabel}</text>',
        f'<text x="14" y="{mt - 8}" text-anchor="start">{ylabel}</text>',
    ]
    for i, (label, y) in enumerate(series.items()):
        y = np.asarray(y, dtype=float)
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if markers:
            for a, b in zip(x, y):
                parts.append(
                    f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="3" fill="{color}"/>')
        if err and label in err:
            e = np.asarray(err[label], dtype=float)
            for a, b, d in zip(x, y, e):
                parts.append(
                    f'<line x1="{sx(a):.2f}" y1="{sy(b - d):.2f}" '
                    f'x2="{sx(a):.2f}" y2="{sy(b + d):.2f}" stroke="{color}"/>')
        parts.append(
            f'<text x="{ml + pw - 6}" y="{mt + 16 + 16 * i}" text-anchor="end" '
            f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
