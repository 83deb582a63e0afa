"""Out-of-program tracing: timing wrappers rebound onto ntlpipe's public functions.

``Tracer.install`` replaces each traced function with a wrapper in every
``ntlpipe`` module namespace that holds it (``ntlpipe.cli.read_grid`` as well
as ``ntlpipe.grid.read_grid``), so calls made through any import path are
seen. No source file is edited. Each call records a span (name, start, end,
parent span, run id) in memory; ``remove`` restores the originals. A
function a later version no longer has is listed in ``absent`` and its
metrics are left out rather than reported as 0.

``MonthIndex.__add__``/``__sub__`` run hundreds of thousands of times per
extract, so they get a counting-only hook: timing them would distort their
callers' self times.
"""

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

# Traced functions, as "<module>.<function>", with the stats reported for each.
TRACED = {
    "grid.read_grid": ("calls", "self_s", "bytes", "mcells_per_s"),
    "grid.write_grid": ("calls", "self_s", "bytes", "mcells_per_s"),
    "zones.rasterize_zone": ("calls", "self_s", "per_zone"),
    "zones.zonal_mean": ("calls", "self_s"),
    "zones.read_zones": ("self_s",),
    "zones.write_zones": ("self_s",),
    "timeseries.build_zone_series": ("calls", "self_s"),
    "timeseries.percent_change": ("calls", "self_s"),
    "timeseries.write_series_csv": ("calls", "self_s", "bytes"),
    "timeseries.read_series_csv": ("calls", "self_s"),
    "timeseries.event_drop": ("calls", "self_s"),
    "timeseries.monthly_median_composite": ("calls", "self_s"),
    "analysis.correlate_method": ("calls", "self_s"),
    "analysis.pearson": ("calls", "self_s"),
    "analysis.build_report": ("self_s",),
    "preprocess.run_pipeline": ("calls", "self_s"),
    "preprocess.threshold": ("calls", "self_s"),
    "preprocess.apply_built_mask": ("calls", "self_s"),
    "preprocess.quality_filter_and_impute": ("calls", "self_s", "per_pass"),
    "quality.high_quality_mask": ("calls", "self_s"),
    "synthetic.generate_scene": ("self_s",),
    "synthetic.oracle_check": ("calls", "self_s"),
    "cli.load_dataset": ("self_s",),
    "cli.cmd_simulate": ("self_s",),
    "cli.cmd_validate": ("self_s",),
    "cli.cmd_extract": ("self_s",),
    "cli.cmd_report": ("self_s",),
}
COUNTED = {"stack.MonthIndex.arith_calls": ("stack", "MonthIndex", ("__add__", "__sub__"))}
OVERHEAD_METRIC = "trace.overhead_frac"

UNITS = {
    "calls": "count",
    "self_s": "s",
    "bytes": "bytes",
    "mcells_per_s": "Mcells/s",
    "per_zone": "calls/zone",
    "per_pass": "calls/pass",
}

# Each traced pass sweeps every config twice: in simulate's oracle and in extract.
SWEEPS_PER_PASS = 2


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    names = {f"{func}.{stat}": UNITS[stat] for func, stats in TRACED.items() for stat in stats}
    names.update({name: "count" for name in COUNTED})
    names[OVERHEAD_METRIC] = "ratio"
    return names


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: object  # span_id of the enclosing span, or None
    run: str
    nbytes: int = 0
    cells: int = 0


def _read_grid_extra(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"]), result.spec.size


def _write_grid_extra(args, kwargs, result):
    grid = args[0] if args else kwargs["grid"]
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]), grid.spec.size


def _write_series_extra(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]), 0


# Sizes recorded after the span closes, so stat() calls cost no traced time.
EXTRAS = {
    "grid.read_grid": _read_grid_extra,
    "grid.write_grid": _write_grid_extra,
    "timeseries.write_series_csv": _write_series_extra,
}


class Tracer:
    """In-memory span store plus the wrappers that feed it, for one run.

    Install once, run, remove once; ``counts`` holds the counting-hook
    totals after ``remove``.
    """

    def __init__(self, run):
        self.run = run
        self.spans = []
        self.absent = []
        self.counts = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack = None
        self._undo = []
        self._counters = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            root = self._root_stack
            # a worker thread's outermost span belongs to the span open on the
            # installing thread, the call that started the worker
            parent = stack[-1] if stack else (root[-1] if root else None)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            nbytes, cells = extra(args, kwargs, result) if extra else (0, 0)
            self.spans.append(Span(span_id, name, start, end, parent, self.run, nbytes, cells))
            return result

        return wrapper

    def _count(self, counter, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            next(counter)  # itertools.count advances atomically under the GIL
            return fn(*args)

        return wrapper

    def install(self, modules):
        """Rebind every traced function found in ``modules`` (name -> module)."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self._root_stack = self._stack()
        for name in TRACED:
            module_name, func = name.split(".", 1)
            home = modules.get(module_name)
            original = getattr(home, func, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapper)
        for metric, (module_name, cls_name, methods) in COUNTED.items():
            cls = getattr(modules.get(module_name), cls_name, None)
            if cls is None or not all(m in vars(cls) for m in methods):
                self.absent.append(metric)
                continue
            counter = itertools.count()
            self._counters[metric] = counter
            for method in methods:
                original = vars(cls)[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self._count(counter, original))

    def remove(self):
        """Restore every original function, then freeze the counting-hook totals."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._root_stack = None
        self.counts = {metric: next(counter) for metric, counter in self._counters.items()}


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """span_id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[span.span_id]
            if c.end > span.start and c.start < span.end
        ]
        out[span.span_id] = (span.end - span.start) - _covered(clipped)
    return out


def layer_metrics(spans, counts, absent, n_zones):
    """Per-layer metrics of one traced pass; absent functions are left out."""
    own = self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    nbytes = defaultdict(int)
    cells = defaultdict(int)
    for span in spans:
        calls[span.name] += 1
        busy[span.name] += own[span.span_id]
        nbytes[span.name] += span.nbytes
        cells[span.name] += span.cells
    out = {}
    for name, stats in TRACED.items():
        if name in absent:
            continue
        values = {
            "calls": calls[name],
            "self_s": busy[name],
            "bytes": nbytes[name],
            "mcells_per_s": cells[name] / busy[name] / 1e6 if busy[name] > 0 else 0.0,
            "per_zone": calls[name] / n_zones,
            "per_pass": calls[name] / SWEEPS_PER_PASS,
        }
        for stat in stats:
            out[f"{name}.{stat}"] = values[stat]
    out.update(counts)
    return out
