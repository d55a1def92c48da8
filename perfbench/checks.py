"""Correctness checks on one repetition's output directory.

Every check is recomputed here from the written artifacts; nothing imports
trafficrc. Each check returns the set of operations it found wrong, where an
operation is a scored trial ``(value text, trial)`` of a sweep or a written
row of a trajectory. A check over a whole sweep (a trend, a summary row)
marks every operation it speaks for.

The agents trend claim is statistical: at the benchmark's trial counts it
fails on some seeds with correct code (README.md lists the ones seen), so it
is reported in ``trends`` and never marks an operation.
"""

import json
import math
import os

import numpy as np


def log_nrmse(teacher, predicted, floor=-12.0):
    """log10 NRMSE over (outputs, steps) arrays, clamped below at floor."""
    err = np.mean(np.sum((teacher - predicted) ** 2, axis=0))
    centered = teacher - teacher.mean(axis=1, keepdims=True)
    denom = np.mean(np.sum(centered ** 2, axis=0))
    if err == 0.0:
        return floor
    return max(0.5 * math.log10(err / denom), floor)


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def _read_series(path):
    """(t, teacher, predicted) with teacher/predicted shaped (outputs, steps)."""
    header, rows = _read_csv(path)
    data = np.array(rows, dtype=float).T
    teacher = data[[i for i, h in enumerate(header) if h.startswith("teacher")]]
    predicted = data[[i for i, h in enumerate(header) if h.startswith("predicted")]]
    return data[0].astype(np.int64), teacher, predicted


def _value_tag(text):
    return text.replace(".", "p").replace("-", "m")


def _spearman(x, y):
    def ranks(a):
        order = np.argsort(a, kind="stable")
        r = np.empty(len(a))
        r[order] = np.arange(len(a), dtype=float)
        for v in np.unique(a):          # average ranks over ties
            tie = a == v
            r[tie] = r[tie].mean()
        return r
    return float(np.corrcoef(ranks(np.asarray(x)), ranks(np.asarray(y)))[0, 1])


def check_sweep(out, wl, cfg):
    """Checks shared by all sweeps plus the workload's own trend checks.

    Returns (operation set, failed operation set, notes, trends).
    """
    values = wl["values"]
    ops = {(v, k) for v in values for k in range(cfg["trials"])}
    failed, notes = set(), []
    header, rows = _read_csv(os.path.join(out, "results.csv"))
    col = {h: i for i, h in enumerate(header)}
    scores = {}
    for row in rows:
        scores[(row[col["value"]], int(row[col["trial"]]))] = float(row[col["lognrmse"]])
    series = {}
    for op in sorted(ops):
        value, trial = op
        path = os.path.join(out, f"value_{_value_tag(value)}_trial_{trial:03d}_series.csv")
        if op not in scores or not os.path.exists(path):
            failed.add(op)
            notes.append(f"{op}: missing result or series")
            continue
        series[op] = _read_series(path)
        _, teacher, predicted = series[op]
        if abs(log_nrmse(teacher, predicted) - scores[op]) > 1e-9:
            failed.add(op)
            notes.append(f"{op}: results.csv score differs from its series")
        if wl["param"] == "M" and not _agents_teacher_ok(teacher, value, cfg):
            failed.add(op)
            notes.append(f"{op}: teacher rows or vehicle counts wrong")

    means = {}
    header, rows = _read_csv(os.path.join(out, "summary.csv"))
    col = {h: i for i, h in enumerate(header)}
    summary = {row[col["value"]]: row for row in rows}
    for value in values:
        s = np.array([scores[(value, k)] for k in range(cfg["trials"])
                      if (value, k) in scores])
        row = summary.get(value)
        mean = float(s.mean()) if s.size else math.nan
        stderr = float(s.std(ddof=1) / math.sqrt(s.size)) if s.size > 1 else 0.0
        means[value] = mean
        if (row is None or int(row[col["trials"]]) != s.size
                or not math.isclose(float(row[col["mean"]]), mean, rel_tol=1e-12, abs_tol=1e-15)
                or not math.isclose(float(row[col["stderr"]]), stderr, rel_tol=1e-9, abs_tol=1e-15)):
            failed |= {op for op in ops if op[0] == value}
            notes.append(f"value {value}: summary.csv disagrees with results.csv")

    check = {"p": _p_trend, "M": _m_trend}[wl["param"]]
    bad, msg, trends = check(values, means, series, cfg)
    failed |= bad
    notes += msg
    return ops, failed, notes, trends


def _same_teacher(series, groups):
    """Operations whose teacher differs from the first of their group."""
    bad = set()
    for group in groups:
        group = [op for op in group if op in series]
        if not group:
            continue
        t0, ref, _ = series[group[0]]
        for op in group[1:]:
            t, teacher, _ = series[op]
            if not np.array_equal(t, t0) or not np.array_equal(teacher, ref):
                bad.add(op)
    return bad


def _p_trend(values, means, series, cfg):
    trials = range(cfg["trials"])
    bad = _same_teacher(series, [[(v, k) for v in values] for k in trials])
    notes = [f"{op}: teacher differs across p" for op in sorted(bad)]
    m = [means[v] for v in values]
    rho = _spearman([float(v) for v in values], m)
    holds = rho <= -0.8 and m[-1] < 0.0
    if not holds:
        bad |= {(v, k) for v in values for k in trials}
        notes.append(f"p trend: spearman {rho:+.3f}, mean(p=1) {m[-1]:+.3f}")
    return bad, notes, {"p_spearman_and_mean": holds}


def _agents_teacher_ok(teacher, value, cfg):
    n_links = 4 * cfg["n"] * (cfg["n"] - 1)
    vehicles = teacher * cfg["link_length"]
    return (teacher.shape[0] == n_links - int(value)
            and bool(np.all(np.abs(vehicles - np.round(vehicles)) <= 1e-9)))


def _m_trend(values, means, series, cfg):
    m = [means[v] for v in values]
    inv = int(np.sum(np.diff(m) > 0))     # steps in which the score gets worse
    note = f"M trend (not counted): {inv} inversions, mean(M={values[-1]}) {m[-1]:+.3f}"
    return set(), [note], {"m_inversions_and_mean": inv <= 1 and m[-1] < 0.0}


def check_trajectory(out, wl, cfg):
    """Mass, inflow, observable and range checks on every trajectory row."""
    steps = wl["steps"]
    ops = set(range(steps))
    with open(os.path.join(out, "network.json")) as fh:
        links = json.load(fh)["links"]
    with open(os.path.join(out, "manifest.json")) as fh:
        total = json.load(fh)["resolved_config"]["total_vehicles"]
    length = np.array([link["length"] for link in links])
    dst = np.array([link["to"] for link in links])
    path = os.path.join(out, "trajectory.csv")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    nj = sum(h.startswith("u_") for h in header)
    if data.shape[1] != 1 + 3 * nj + len(links):
        return ops, set(ops), [f"trajectory has {data.shape[1]} columns"], {}
    t = data[:, 0]
    u = data[:, 1:1 + nj]
    x1 = data[:, 1 + nj:1 + 2 * nj]
    x2 = data[:, 1 + 2 * nj:1 + 3 * nj]
    k = data[:, 1 + 3 * nj:]
    inflow = np.zeros_like(u)
    for l in range(len(links)):
        inflow[:, dst[l]] += k[:, l]
    ok = (np.isfinite(data).all(axis=1) & (data >= 0).all(axis=1)
          & (np.abs(k @ length - total) <= 1e-9 * total)
          & (np.abs(inflow - u) <= 1e-12 * np.maximum(u, 1.0)).all(axis=1)
          & (np.abs(x1 + x2 - u) <= 4 * np.spacing(u)).all(axis=1))
    rows = {int(s) for s, good in zip(t, ok) if good}
    failed = ops - rows
    notes = [f"{len(failed)} of {steps} rows fail the trajectory checks"] if failed else []
    return ops, failed, notes, {}
