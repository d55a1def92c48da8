"""Config files, series CSV input, synthetic series, and result emission."""

from __future__ import annotations

import dataclasses
import json
import math
import operator
import os
from dataclasses import dataclass
from datetime import datetime

import numpy as np

__all__ = [
    "VERSION", "OUT_ENV", "ConfigError", "ExperimentConfig", "load_config",
    "config_to_dict", "read_series_csv", "synth_series", "SynthSpec", "OVParams",
    "emit_run_results", "emit_sweep_results", "line_plot_svg",
]

VERSION = "0.1.0"
OUT_ENV = "TRAFFICRC_OUT"  # overrides the default output root ("runs")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


def _require(cond, key, msg):
    if not cond:
        raise ConfigError(f"config key {key!r}: {msg}")


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


# --- the key table: one ExperimentConfig field per config key ---------------

_KINDS = {int: ("an integer", _is_int), float: ("finite", _is_finite),
          str: ("a path", lambda v: isinstance(v, str))}
_BOUNDS = {"gt": (">", operator.gt), "ge": (">=", operator.ge),
           "lt": ("<", operator.lt), "le": ("<=", operator.le)}
_PAIR = ("a [from, to] junction pair",
         lambda v: isinstance(v, tuple) and len(v) == 2 and all(map(_is_int, v)))
_WEIGHTS = ("3 finite weights >= 0 that sum to 1",
            lambda v: isinstance(v, tuple) and len(v) == 3
            and all(_is_finite(w) and w >= 0 for w in v) and abs(sum(v) - 1.0) <= 1e-12)


# the lattice holds about 40 B per link, and each trial's turn table about
# 100 B per link (275 B at the peak of its drawing): n = 1000 (about 4 million
# links) holds about 0.6 GB, peaks near 1.1 GB and spends about 1.5 s on one
# table (4x n = 500's: 0.36 s, and a 274 MB tracemalloc peak)
_N_MAX = 1000
# a run stores u, one row per step: a million steps of the 5x5 recipe hold
# 200 MB of it, and each further key of the span adds as many
_SPAN_MAX = 10**6
# every trial's teacher and prediction stay in memory until the results are
# written, one series file per trial and value: 10^4 trials of the recipes
# hold about 0.3 GB
_TRIALS_MAX = 10**4
# init_agents draws each agent's first turn in a Python loop, and a step moves
# every agent round(1/ov.dt) times: 10^4 agents on each of the 3x3 recipe's
# 24 links take about 0.9 s to place and 80 ms a step (numpy, one core), so
# 8 minutes a trial of the recipe's span
_AGENTS_MAX = 10**4
# each step turns a phase by up to sigma_in times the standardized series,
# and a phase is read mod 2 pi: at 2 pi one standard deviation of input is a
# whole cycle already. Far above that a float phase keeps little of its
# fraction of a cycle (at 1e15 rad its spacing is 0.125 rad), and past about
# 9e307 the draw of the input weights overflows
_SIGMA_IN_MAX = 1e6


def _choice(*values):
    return f"one of {values}", lambda v: v in values


def _key(default, kind, moves=None, **bounds):
    """A config field whose metadata is its row. kind is int, float, str, a
    nested block's class, or a (what a value must be, test) pair; bounds are
    gt, ge, lt or le limits. A key a sweep takes names what a change to it
    moves: "readout" (every value reads one run), "span" (the run's length)
    or "run" (the run itself)."""
    return dataclasses.field(default=default, metadata={
        "kind": kind, "bounds": bounds, "moves": moves})


def _check(obj, block=None):
    """Check each field of obj, a config or its nested block, against its row;
    None passes only where it is the default."""
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if v is None and f.default is None:
            continue
        kind = f.metadata["kind"]
        what, test = kind if isinstance(kind, tuple) else _KINDS.get(
            kind, ("an object", lambda v: isinstance(v, kind)))
        bounds = [(*_BOUNDS[op], limit) for op, limit in f.metadata["bounds"].items()]
        if not (test(v) and all(fn(v, limit) for _, fn, limit in bounds)):
            must = " and ".join([what] + [f"{sym} {limit}" for sym, _, limit in bounds])
            name = f"{f.name} " if block else ""
            raise ConfigError(f"config key {block or f.name!r}: {name}must be {must}")


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic external-series recipe (daily sinusoid, optional AR(1))."""
    kind: str = _key("sinusoid+ar1", _choice("sinusoid", "sinusoid+ar1"))
    length: int | None = _key(None, int, ge=2, le=_SPAN_MAX)  # None: the span
    amplitude: float = _key(10.0, float)
    offset: float = _key(20.0, float)
    period: float = _key(96.0, float, gt=0)
    # noise slow enough (corr time ~20 steps) that the reservoir's own
    # smoothing does not erase it: the forecast-horizon experiments need
    # an aperiodic component whose predictability actually decays with T
    rho: float = _key(0.95, float, gt=-1, lt=1)
    sigma: float = _key(0.8, float, ge=0)

    def __post_init__(self):
        _check(self, "series_synth")


@dataclass(frozen=True)
class OVParams:
    """Optimal-velocity car following (Bando et al., Phys. Rev. E 51, 1035,
    1995), the agents model's `ov` block.

    dt is the Euler substep; one reservoir step spans one time unit, so
    round(1/dt) substeps run per sampled step. d_min is the hard minimum
    spacing, horizon the headway cap used when nothing is ahead.
    """
    a: float = _key(1.0, float, gt=0)
    v_scale: float = _key(2.0, float, ge=0)
    c: float = _key(2.0, float, ge=0)
    w: float = _key(1.0, float, gt=0)
    dt: float = _key(0.1, float, gt=0)
    d_min: float = _key(0.1, float, ge=0)
    horizon: float = _key(1e3, float, gt=0)

    def __post_init__(self):
        _check(self, "ov")
        _require(math.isfinite(1.0 / self.dt)
                 and abs(self.substeps * self.dt - 1.0) <= 1e-9, "ov",
                 "dt must be 1/k for a whole number k, so that k substeps "
                 "span one time unit")

    @property
    def substeps(self):
        """Euler substeps per reservoir step (one time unit)."""
        return max(1, int(round(1.0 / self.dt)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment settings: one field per config key, whose metadata
    is the key's row (see _key)."""
    model: str = _key("density", _choice("density", "agents"))
    task: str = _key("density_link", _choice("density_link", "external_series"))
    n: int = _key(5, int, ge=1, le=_N_MAX)
    link_length: float = _key(1.0, float, gt=0)
    total_vehicles: float = _key(80.0, float, gt=0)
    agents_per_link: int = _key(10, int, ge=0, le=_AGENTS_MAX)
    turn_weights: tuple = _key((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0), _WEIGHTS)
    tau: float = _key(100.0, float, "run", gt=0)
    T: int = _key(5, int, "span", ge=0, le=_SPAN_MAX)
    beta: float = _key(1e-8, float, "readout", ge=0)
    p: float = _key(1.0, float, "readout", ge=0, le=1)
    M: int = _key(20, int, "readout", ge=0)
    train: int = _key(4000, int, ge=1, le=_SPAN_MAX)
    test: int = _key(2000, int, ge=2, le=_SPAN_MAX)
    washout: int = _key(100, int, ge=0, le=_SPAN_MAX)
    trials: int = _key(20, int, ge=1, le=_TRIALS_MAX)
    seed: int = _key(12345, int, ge=0)
    target_link: tuple | None = _key(None, _PAIR)
    series_csv: str | None = _key(None, str)
    series_synth: SynthSpec = _key(SynthSpec(), SynthSpec)
    sigma_in: float = _key(1.0, float, gt=0, le=_SIGMA_IN_MAX)
    trial_average: int = _key(5, int, ge=1)
    steps: int | None = _key(None, int, ge=1, le=_SPAN_MAX)
    ov: OVParams = _key(OVParams(), OVParams)
    task2_feature: str = _key("b", _choice("a", "b"))

    @property
    def n_links(self):
        return 4 * self.n * (self.n - 1)


def _block(key, cls, raw):
    """A nested block (series_synth or ov) from its JSON object."""
    _require(isinstance(raw, dict), key, "must be an object")
    bad = sorted(set(raw) - {f.name for f in dataclasses.fields(cls)})
    _require(not bad, key, f"unknown keys: {', '.join(bad)}")
    return cls(**raw)   # a block checks itself as it is built


def config_from_dict(data):
    """Build a config from an in-memory dict: list values become tuples, nested
    objects their blocks, and every key is checked against its row."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    values = {}
    for key, v in data.items():
        if isinstance(v, list):
            v = tuple(v)
        elif dataclasses.is_dataclass(fields[key].default):
            v = _block(key, type(fields[key].default), v)
        values[key] = v
    cfg = ExperimentConfig(**values)

    # resolve the derived defaults before validation, which names a bad n
    derived = {}
    if "link_length" not in values:
        derived["link_length"] = 20.0 if cfg.model == "agents" else 1.0
    if "total_vehicles" not in values and _is_int(cfg.n) and cfg.n <= _N_MAX:
        derived["total_vehicles"] = float(max(cfg.n_links, 1))
    return validate_config(dataclasses.replace(cfg, **derived))


def validate_config(cfg):
    """Check every key of cfg against its row, then the keys that bound each
    other; a ConfigError names the first bad key."""
    _check(cfg)
    if cfg.model == "agents":
        # init_agents spaces each link's agents length / (count + 1) apart
        _require(cfg.link_length / (cfg.agents_per_link + 1) >= cfg.ov.d_min,
                 "agents_per_link",
                 f"{cfg.agents_per_link} agents on a {cfg.link_length}-long "
                 f"link cannot keep ov.d_min={cfg.ov.d_min} apart "
                 "(needs link_length / (agents_per_link + 1) >= ov.d_min)")
        # under the Euler relaxation a speed stays below max(1, a dt) v_scale,
        # so an agent that crosses a stop line cannot reach past its next link
        ov = cfg.ov
        reach = max(1.0, ov.a * ov.dt) * ov.v_scale * ov.dt
        _require(reach <= cfg.link_length, "ov",
                 f"an agent can move max(1, a*dt)*v_scale*dt={reach} per "
                 f"substep, more than one {cfg.link_length}-long link")
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
    return config_from_dict(read_config_dict(path))


def config_to_dict(cfg):
    """Plain-JSON form of a resolved config (inverse of load_config)."""
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in dataclasses.asdict(cfg).items()}


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


def _parse_row(line):
    """(timestamp or None, value) of a "value" or "timestamp,value" row, or
    None for a row that is neither."""
    cells = [c.strip() for c in line.split(",")]
    if len(cells) > 2:
        return None
    try:
        value = float(cells[-1])
    except ValueError:
        return None
    if len(cells) == 1:
        return None, value
    ts = _parse_timestamp(cells[0])
    return None if ts is None else (ts, value)


def read_series_csv(path):
    """Read a 1-column (value) or 2-column (timestamp, value) series CSV.

    Timestamps (numbers or ISO dates) must increase; only the values are
    returned. A first row that parses as neither form and holds no digit is
    a header; any other row that does not parse is refused, so a typo in the
    first value is never dropped as a header. Errors cite 1-based row
    numbers. NaN or infinite values are rejected.
    """
    with open(path) as fh:
        rows = [(i, ln) for i, ln in enumerate(map(str.strip, fh), 1) if ln]
    if not rows:
        raise ValueError(f"{path}: empty series file")
    first = rows[0][1]
    if _parse_row(first) is None and set(first).isdisjoint("0123456789"):
        rows = rows[1:]  # header row
    times, values = [], []
    for rownum, line in rows:
        parsed = _parse_row(line)
        if parsed is None:
            raise ValueError(f"{path}: row {rownum}: cannot parse series entry")
        if not math.isfinite(parsed[1]):
            raise ValueError(f"{path}: row {rownum}: non-finite value")
        times.append(parsed[0])
        values.append(parsed[1])
    if not values:
        raise ValueError(f"{path}: no data rows")
    stamped = [t is not None for t in times]
    if any(stamped) and not all(stamped):
        raise ValueError(f"{path}: mixed timestamped and bare rows")
    if stamped[0]:
        for i in range(1, len(times)):
            if times[i] <= times[i - 1]:
                raise ValueError(
                    f"{path}: row {rows[i][0]}: timestamps must increase")
    return np.asarray(values, dtype=float)


def synth_series(spec, length, rng):
    """`length` values of the SynthSpec recipe spec: offset + amplitude
    sin(2 pi t / period), plus for kind "sinusoid+ar1" the AR(1) noise
    e[t] = rho e[t-1] + sigma z[t] with standard-normal z drawn from rng
    (rho=0 gives white offsets).
    """
    t = np.arange(length, dtype=float)
    out = spec.offset + spec.amplitude * np.sin(2.0 * np.pi * t / spec.period)
    if spec.kind == "sinusoid+ar1":
        z = rng.standard_normal(length)
        e = np.empty(length)
        prev = 0.0
        for i in range(length):
            prev = spec.rho * prev + spec.sigma * z[i]
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

def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def _series_heads(result):
    """The text that opens each row of a trial's series CSV: t and the
    teacher values."""
    teacher = np.atleast_2d(np.asarray(result.teacher, dtype=float))
    t0 = int(result.t0)
    text = _rows_text(range(t0, t0 + teacher.shape[1]), teacher.tolist())
    return text.split("\n")[:-1]


def _trial_series_csv(path, result, heads=None):
    """Write a trial's t, teacher and predicted columns. heads, if given, is
    _series_heads of a result with the same t0 and teacher bits."""
    predicted = np.atleast_2d(np.asarray(result.predicted, dtype=float))
    m = predicted.shape[0]
    if m == 1:
        header = ["t", "teacher", "predicted"]
    else:
        header = (["t"] + [f"teacher_{i}" for i in range(m)]
                  + [f"predicted_{i}" for i in range(m)])
    if heads is None:
        heads = _series_heads(result)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(_rows_text(heads, predicted.tolist(), "%s"))


def _rows_text(lead, columns, lead_fmt="%d"):
    """The CSV rows lead,c_0,c_1,.. as one %-format of a row template
    repeated per row: "%d" of a Python int is its str, "%s" of a str the
    str itself, and "%r" of a Python float its repr, the shortest round
    trip. columns holds lists of Python floats, each as long as lead."""
    step = len(columns) + 1
    cells = [None] * (len(lead) * step)
    cells[::step] = lead
    for i, col in enumerate(columns, 1):
        cells[i::step] = col
    return (lead_fmt + ",%r" * len(columns) + "\n") * len(lead) % tuple(cells)


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
    heads = {}  # trial -> (t0 and teacher bits, _series_heads) of its last series
    for value, results in sweep.by_value.items():
        vtag = _value_tag(value)
        for r in results:
            # a readout sweep gives a trial one teacher for every value, so
            # its text is formatted once; the text is a function of the bits
            teacher = np.asarray(r.teacher, dtype=float)
            key = (r.t0, teacher.shape, teacher.tobytes())
            if heads.get(r.trial, (None,))[0] != key:
                heads[r.trial] = (key, _series_heads(r))
            name = f"value_{vtag}_trial_{r.trial:03d}_series.csv"
            _trial_series_csv(os.path.join(out_dir, name), r, heads[r.trial][1])
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
    return str(value).replace(".", "p").replace("-", "m")


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
