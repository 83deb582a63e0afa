"""Tests for the benchmark's own code: tracing, fixtures, metric names, gate."""

import csv
import dataclasses
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import gate
import tracing
import workloads
from tracing import Span, Tracer, layer_metrics, self_times

REPO = Path(__file__).resolve().parents[2]
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def span(span_id, start, end, parent=None, name="f"):
    return Span(span_id, name, start, end, parent, "r")


def test_self_time_subtracts_nested_children():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 4.0, parent=1),
        span(3, 2.0, 3.0, parent=2),
        span(4, 6.0, 7.5, parent=1),
    ]
    own = self_times(spans)
    assert own == {1: pytest.approx(5.5), 2: pytest.approx(2.0), 3: pytest.approx(1.0), 4: pytest.approx(1.5)}


def test_self_time_counts_overlapping_children_once():
    # two worker threads' children overlap inside one parent
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 5.0, parent=1),
        span(3, 3.0, 6.0, parent=1),
        span(4, 9.0, 12.0, parent=1),  # runs past the parent's end: clipped
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)


def _fake_modules():
    timeseries = types.ModuleType("timeseries")
    zones = types.ModuleType("zones")
    stack = types.ModuleType("stack")

    def percent_change(x):
        return x * 2

    def zonal_mean(x):
        # looked up through the module at call time, as ntlpipe's globals are
        return timeseries.percent_change(x) + 1

    class MonthIndex:
        def __init__(self, n):
            self.n = n

        def __add__(self, k):
            return MonthIndex(self.n + k)

        def __sub__(self, other):
            return self.n - other.n

    timeseries.percent_change = percent_change
    zones.zonal_mean = zonal_mean
    timeseries.zonal_mean = zonal_mean  # an imported name, as in ntlpipe.timeseries
    stack.MonthIndex = MonthIndex
    return {"zones": zones, "timeseries": timeseries, "stack": stack}


def test_tracer_rebinds_every_namespace_and_restores():
    modules = _fake_modules()
    original = modules["zones"].zonal_mean
    MonthIndex = modules["stack"].MonthIndex
    add = MonthIndex.__add__
    tracer = Tracer(run="t")
    tracer.install(modules)
    try:
        assert modules["zones"].zonal_mean is not original
        assert modules["timeseries"].zonal_mean is modules["zones"].zonal_mean
        assert modules["timeseries"].zonal_mean(3) == 7
        (MonthIndex(5) + 2) - MonthIndex(1)
    finally:
        tracer.remove()
    assert modules["zones"].zonal_mean is original
    assert modules["timeseries"].zonal_mean is original
    assert MonthIndex.__add__ is add
    assert tracer.counts == {"stack.MonthIndex.arith_calls": 2}
    assert "grid.read_grid" in tracer.absent
    assert "zones.zonal_mean" not in tracer.absent


def test_tracer_links_parents_and_leaves_absent_names_out():
    modules = _fake_modules()
    tracer = Tracer(run="t")
    tracer.install(modules)
    try:
        modules["zones"].zonal_mean(1)
    finally:
        tracer.remove()
    by_name = {s.name: s for s in tracer.spans}
    outer, inner = by_name["zones.zonal_mean"], by_name["timeseries.percent_change"]
    assert outer.parent is None and inner.parent == outer.span_id
    assert outer.start <= inner.start <= inner.end <= outer.end
    metrics = layer_metrics(tracer.spans, tracer.counts, tracer.absent, n_zones=4)
    assert metrics["zones.zonal_mean.calls"] == 1
    assert metrics["zones.zonal_mean.self_s"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start)
    )
    assert "grid.read_grid.calls" not in metrics
    assert metrics["stack.MonthIndex.arith_calls"] == 0


def test_tracer_on_ntlpipe_finds_every_traced_function():
    import ntlpipe.cli  # noqa: F401  (loads every submodule)

    modules = {
        name.rpartition(".")[2]: module
        for name, module in sys.modules.items()
        if name == "ntlpipe" or name.startswith("ntlpipe.")
    }
    original = ntlpipe.grid.read_grid
    tracer = Tracer(run="t")
    tracer.install(modules)
    try:
        assert ntlpipe.cli.read_grid is ntlpipe.grid.read_grid is not original
        assert ntlpipe.read_grid is ntlpipe.grid.read_grid
    finally:
        tracer.remove()
    assert tracer.absent == []
    assert ntlpipe.cli.read_grid is original and ntlpipe.read_grid is original


@pytest.fixture
def small_workloads(monkeypatch):
    small = {
        "vsc-zones": dict(grid=12, zone_tiles=3),
        "vnp-tile": dict(grid=30, star_vertices=12),
        "vnp-daily": dict(grid=8, zone_tiles=2, daily_days=2, months_before=2, months_after=1),
    }
    for name, sizes in small.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(workloads.WORKLOADS[name], **sizes))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_fixtures_depend_only_on_seed(small_workloads, tmp_path, name):
    digests = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        workloads.write_inputs(name, seed, tmp_path / label)
        digests[label] = gate.tree_digest(tmp_path / label)
    assert digests["a"] == digests["b"]
    assert digests["a"] != digests["c"]


def test_ascii_grid_writer_round_trips_through_ntlpipe(tmp_path):
    from ntlpipe import read_grid

    values = [[0.1, 2.5], [float("nan"), 1e-7]]
    workloads.write_ascii_grid(tmp_path / "g.asc", np.array(values))
    grid = read_grid(tmp_path / "g.asc")
    assert grid.missing.tolist() == [[False, False], [True, False]]
    assert grid.values[0].tolist() == [0.1, 2.5] and grid.values[1, 1] == 1e-7
    workloads.write_ascii_grid(tmp_path / "q.asc", np.array([[50, 242]]))
    assert read_grid(tmp_path / "q.asc").values.tolist() == [[50, 242]]


def test_every_metric_name_is_well_formed():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer", "workloads") for m in spec[key]]
    assert all(NAME_RE.match(n) and len(n) <= 64 for n in names), names
    assert len(names) == len(set(names))
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.metric_names())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in workloads.WORKLOADS.values()]


def _write_csv(path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _pass_dir(tmp_path, pcc="0.9123", n_samples=None):
    w = workloads.WORKLOADS["vsc-zones"]
    labels = [f"c{i}" for i in range(w.n_configs)]
    zones = str(w.n_zones)
    _write_csv(tmp_path / "sim" / "oracle.csv", [["config", "recovered_pcc"]] + [[c, "0.9123"] for c in labels])
    report = [["dataset", "methods", "pcc", "n_samples"]] + [["VSC-NTL", c, "0.9123", zones] for c in labels]
    report[3] = ["VSC-NTL", labels[2], pcc, n_samples or zones]
    _write_csv(tmp_path / "out" / "report.csv", report)
    return w, tmp_path


def test_gate_accepts_matching_report(tmp_path):
    assert gate.check_outputs(*_pass_dir(tmp_path)) == []


@pytest.mark.parametrize("tamper", [dict(pcc="0.9124"), dict(pcc="0.91230"), dict(n_samples="1")])
def test_gate_rejects_tampered_report(tmp_path, tamper):
    problems = gate.check_outputs(*_pass_dir(tmp_path, **tamper))
    assert len(problems) == 1 and "c2" in problems[0]


def test_ledger_fails_a_pass_whose_outputs_differ_from_the_first(tmp_path):
    import run

    w, pass_dir = _pass_dir(tmp_path)
    ledger = run.Ledger(w, seed=1)
    codes = dict.fromkeys(run.COMMANDS, 0)
    ledger.record_pass("pass 0", codes, pass_dir)
    ledger.record_pass("pass 1", codes, pass_dir)
    assert (ledger.attempted, ledger.failed, ledger.problems) == (8, 0, [])
    with open(pass_dir / "out" / "report.csv", "a") as fh:
        fh.write("\n")
    ledger.record_pass("pass 2", codes, pass_dir)
    ledger.record_pass("pass 3", dict(codes, extract=1), pass_dir)
    assert (ledger.attempted, ledger.failed) == (16, 2)
    assert "output digest" in ledger.problems[0] and "extract exited 1" in ledger.problems[1]


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "vsc-zones", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
