"""ntlpipe benchmark: simulate -> validate -> extract -> report on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload vsc-zones --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all        # every workload, one summary
    python3 bench/run.py --workload vnp-tile --trace 1   # per-layer trace
    python3 bench/run.py --steadiness 10       # two sets of 10 seeded runs each

``--trace 0`` times each CLI command in its own fresh ``python -m ntlpipe.cli``
process, repeating the four-command pass until ``--seconds`` have elapsed,
and reports medians. ``--trace 1`` runs the same commands in this process
through ``ntlpipe.cli.main``, alternating untraced and traced passes, and
reports per-layer metrics. Every pass goes through the correctness gate.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it,
starting with ``#``, are for people.
"""

import argparse
import contextlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import gate
import tracing
from workloads import PASS_DIR, WORKLOADS, write_inputs

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
COMMANDS = ("simulate", "validate", "extract", "report")
DEFAULT_SEED = 0
SETUP_PROBE = ["-c", "import ntlpipe.cli"]
SETUP_PER_PASS = 3
CALIBRATION_RUNS = 3
ALL_CPUS = frozenset(os.sched_getaffinity(0))
# median calibrate() time on the 2-vCPU Xeon VM where the baseline was taken
CALIBRATION_REFERENCE_S = 0.011
COMMAND_TIMEOUT_S = 120


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def source_dir():
    src = ROOT / "src"
    if not (src / "ntlpipe" / "cli.py").is_file():
        fail(f"no ntlpipe source under {src}; run from the repository root")
    return src


def child_env(src):
    return dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")


def run_child(args, env, log_path):
    """Run ``python <args>``; return (wall seconds, peak RSS in MiB, exit code)."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT
        )
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode


def calibrate():
    """Seconds one fixed loop of float formatting, parsing and small numpy calls takes."""
    start = time.perf_counter()
    a = np.linspace(0.0, 1.0, 256)
    total = 0.0
    for i in range(1000):
        total += float(repr(float(a[i % 256]) * i))
        total += float(np.mean(a[a > 0.5]))
    return time.perf_counter() - start


def cpu_speed(cpus):
    """Calibration times on each of ``cpus``, measured by pinning this process there."""
    times = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        times.extend(calibrate() for _ in range(CALIBRATION_RUNS))
    return times


def timed_child(args, env, log_path, cpus):
    """``run_child`` on ``cpus``, plus its wall time scaled to a reference speed.

    A shared machine's CPUs switch between slow and fast spells lasting
    seconds, about 1.5x apart, and drift by tens of percent over minutes.
    The child inherits this process's affinity, so it runs on the CPUs that
    were just calibrated, and they are calibrated again once it exits. The
    scaled time is what the command would take where ``calibrate`` takes
    CALIBRATION_REFERENCE_S.
    """
    try:
        before = cpu_speed(cpus)
        os.sched_setaffinity(0, cpus)
        elapsed, rss, code = run_child(args, env, log_path)
        after = cpu_speed(cpus)
    finally:
        os.sched_setaffinity(0, ALL_CPUS)
    scaled = elapsed * CALIBRATION_REFERENCE_S / statistics.median(before + after)
    return scaled, elapsed, rss, code


def command_args(inputs, pass_dir):
    scene, run = str(inputs / "scene.json"), str(inputs / "run.json")
    return {
        "simulate": ["simulate", "--config", scene, "--out", str(pass_dir / "sim")],
        "validate": ["validate", "--config", run],
        "extract": ["extract", "--config", run],
        "report": ["report", "--config", run],
    }


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Ledger:
    """Attempted and failed commands, plus the problems behind each failure."""

    def __init__(self, workload, seed):
        self.workload = workload
        expected = json.loads((BENCH_DIR / "expected.json").read_text())
        self.expected = expected.get(workload.name, {}) if seed == DEFAULT_SEED else {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = self.expected.get("output_sha256")

    def record_pass(self, label, codes, pass_dir):
        """Gate one pass: exit codes, outputs, and the output digest."""
        self.attempted += len(codes)
        bad = [cmd for cmd, code in codes.items() if code != 0]
        for cmd in bad:
            self.problems.append(f"{label}: {cmd} exited {codes[cmd]}")
        self.failed += len(bad)
        if bad:
            return
        problems = gate.check_outputs(self.workload, pass_dir)
        digest = gate.tree_digest(pass_dir)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append(f"output digest {digest} != {self.reference}")
        if problems:
            # the gate judges the final outputs, so the pass's last command fails
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def check_inputs(self, digest):
        want = self.expected.get("input_sha256")
        if want is not None and digest != want:
            self.problems.append(f"input digest {digest} != {want}")


def check_import(env, src, log_path):
    """Fail unless children import ntlpipe from ``src``; also compiles its bytecode."""
    check = ["-c", "import ntlpipe.cli, sys; sys.exit(not ntlpipe.cli.__file__.startswith(sys.argv[1]))", str(src)]
    if run_child(check, env, log_path)[2] != 0:
        fail(f"ntlpipe does not import from {src}")


def untraced_run(w, inputs, work, seconds, ledger, src):
    env = child_env(src)
    log = work / "commands.log"
    samples = defaultdict(list)
    raw = defaultdict(list)
    check_import(env, src, log)
    # single-threaded commands take turns on each CPU, one CPU at a time
    one_cpu = itertools.cycle([{cpu} for cpu in sorted(ALL_CPUS)])
    pass_dir = work / PASS_DIR
    args = command_args(inputs, pass_dir)
    deadline = time.perf_counter() + seconds
    n = 0
    while True:
        fresh_dir(pass_dir)
        # set-up samples spread over the run, so slow and fast spells of a
        # shared machine weigh on them as on the commands
        for _ in range(SETUP_PER_PASS):
            scaled, elapsed, _, _ = timed_child(SETUP_PROBE, env, log, next(one_cpu))
            samples["setup_s"].append(scaled)
            raw["setup_s"].append(elapsed)
        codes = {}
        for cmd in COMMANDS:
            # extract runs worker threads, so it keeps every CPU
            cpus = ALL_CPUS if cmd == "extract" else next(one_cpu)
            scaled, elapsed, rss, codes[cmd] = timed_child(["-m", "ntlpipe.cli", *args[cmd]], env, log, cpus)
            samples[f"{cmd}_s"].append(scaled)
            raw[f"{cmd}_s"].append(elapsed)
            if cmd in ("simulate", "extract"):
                samples[f"{cmd}_rss_mb"].append(rss)
        ledger.record_pass(f"pass {n}", codes, pass_dir)
        n += 1
        if time.perf_counter() >= deadline:
            break
    notes = [f"unscaled {name} = {statistics.median(v)!r} s (median of n={len(v)})" for name, v in raw.items()]
    units = {"simulate_rss_mb": "MiB", "extract_rss_mb": "MiB"}
    metrics = {
        name: (statistics.median(values), units.get(name, "s"), values)
        for name, values in samples.items()
    }
    return metrics, notes


def inprocess_pass(main, args, log):
    """Run the four commands through ``main``; return {command: (seconds, code)}."""
    out = {}
    for cmd in COMMANDS:
        start = time.perf_counter()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            try:
                code = main(args[cmd])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash fails this command; the benchmark carries on
                traceback.print_exc(file=log)
                code = 1
        out[cmd] = (time.perf_counter() - start, code)
    return out


def dump_spans(path, spans):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("span_id,name,start,end,parent,run,bytes,cells\n")
        for s in spans:
            fh.write(f"{s.span_id},{s.name},{s.start!r},{s.end!r},{s.parent or ''},{s.run},{s.nbytes},{s.cells}\n")


def traced_run(w, inputs, work, seconds, ledger, src, seed):
    sys.path.insert(0, str(src))
    import ntlpipe.cli

    if not ntlpipe.cli.__file__.startswith(str(src)):
        fail(f"ntlpipe does not import from {src}")
    modules = {
        name.rpartition(".")[2]: module
        for name, module in sys.modules.items()
        if name == "ntlpipe" or name.startswith("ntlpipe.")
    }
    pass_dir = work / PASS_DIR
    args = command_args(inputs, pass_dir)
    layers = defaultdict(list)
    totals = {"untraced": [], "traced": []}
    counts = None
    spans = []
    deadline = time.perf_counter() + seconds
    with open(work / "commands.log", "w") as log:
        i = 0
        while True:
            order = ("untraced", "traced") if i % 2 == 0 else ("traced", "untraced")
            for kind in order:
                fresh_dir(pass_dir)
                if kind == "untraced":
                    result = inprocess_pass(ntlpipe.cli.main, args, log)
                else:
                    tracer = tracing.Tracer(run=f"{w.name}-seed{seed}-pass{i}")
                    tracer.install(modules)
                    try:
                        result = inprocess_pass(ntlpipe.cli.main, args, log)
                    finally:
                        tracer.remove()
                ledger.record_pass(f"{kind} pass {i}", {c: r[1] for c, r in result.items()}, pass_dir)
                totals[kind].append(sum(r[0] for r in result.values()))
                if kind == "traced":
                    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, tracer.absent, w.n_zones)
                    pass_counts = {k: v for k, v in metrics.items() if isinstance(v, int)}
                    if counts is None:
                        counts, absent = pass_counts, tracer.absent
                    elif pass_counts != counts:
                        ledger.problems.append(f"traced pass {i}: call counts differ from pass 0")
                    for k, v in metrics.items():
                        layers[k].append(v)
                    spans.extend(tracer.spans)
            i += 1
            # two iterations at least, so each side runs first once
            if i >= 2 and time.perf_counter() >= deadline:
                break
    dump_spans(WORK / "traces" / f"{w.name}-seed{seed}.csv", spans)
    units = tracing.metric_names()
    # counts repeat exactly (checked above), so report them as counts, not medians
    out = {k: (counts.get(k, statistics.median(v)), units[k], v) for k, v in layers.items()}
    overhead = statistics.median(totals["traced"]) / statistics.median(totals["untraced"]) - 1.0
    out[tracing.OVERHEAD_METRIC] = (overhead, "ratio", [overhead])
    return out, [f"absent in this version: {name}" for name in absent]


def run_workload(args):
    src = source_dir()
    w = WORKLOADS[args.workload]
    work = fresh_dir(WORK / f"{w.name}-seed{args.seed}-{os.getpid()}")
    try:
        inputs = work / "inputs"
        write_inputs(w.name, args.seed, inputs)
        ledger = Ledger(w, args.seed)
        input_digest = gate.tree_digest(inputs)
        ledger.check_inputs(input_digest)
        if args.trace:
            metrics, notes = traced_run(w, inputs, work, args.seconds, ledger, src, args.seed)
        else:
            metrics, notes = untraced_run(w, inputs, work, args.seconds, ledger, src)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = ledger.failed == 0 and not ledger.problems
    print(f"# workload {w.name} seed {args.seed} trace {args.trace}: {w.why}")
    print(f"# input sha256 {input_digest}; output sha256 {ledger.reference}")
    for name, (value, unit, values) in metrics.items():
        print(f"# {name} = {value!r} {unit} (median of n={len(values)}, range {min(values)!r}..{max(values)!r})")
    for note in notes:
        print(f"# {note}")
    frac = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"# failed_ops_frac = {frac!r} ({ledger.failed} of {ledger.attempted} commands)")
    for problem in ledger.problems:
        print(f"# problem: {problem}")
    print(f"# correct: {correct}")
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_child_json(argv):
    """Run this script with ``argv``; return (human lines, parsed last line)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        fail(f"benchmark run {' '.join(argv)} exited {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def run_all(args):
    verdicts = []
    for name in WORKLOADS:
        human, result = run_child_json(
            ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        )
        print("\n".join(human), flush=True)
        verdicts.append((name, result["correct"], result["failed"], result["attempted"]))
    for name, correct, failed, attempted in verdicts:
        print(f"{name}: correct={correct} failed={failed}/{attempted}")
    return 0 if all(v[1] for v in verdicts) else 1


def quartile_spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def steadiness(args):
    """Two sets of seeded runs per workload: spreads and drift against bounds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        sets = []
        for _ in range(2):
            values = defaultdict(list)
            for seed in range(1, args.steadiness + 1):
                _, result = run_child_json(
                    ["--workload", name, "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
                )
                ok &= result["correct"]
                for metric, entry in result["metrics"].items():
                    values[metric].append(entry["value"])
            sets.append(values)
        WORK.mkdir(exist_ok=True)
        (WORK / f"steadiness-{name}.json").write_text(json.dumps(sets, indent=1))
        print(f"{name}: {args.steadiness} runs per set")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a, b = sets[0][key], sets[1][key]
            spreads = [quartile_spread(a), quartile_spread(b)]
            drift = statistics.median(b) / statistics.median(a) - 1.0
            worse = drift if metric["better"] == "lower" else -drift
            spread_ok = key == "setup_s" or max(spreads) <= bound
            ok &= spread_ok and worse <= bound
            print(
                f"  {key:<16} median {statistics.median(a):.4f}/{statistics.median(b):.4f} {metric['unit']:<4}"
                f" spread {spreads[0]:.4f}/{spreads[1]:.4f} drift {drift:+.4f} bound {bound}"
                f" {'ok' if spread_ok and worse <= bound else 'OUT OF BOUND'}"
                f"{'' if max(spreads) < bound / 3 else ' (spread above a third of the bound)'}",
                flush=True,
            )
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS", help="two sets of RUNS seeded runs per workload")
    args = parser.parse_args(argv)
    source_dir()
    if args.steadiness:
        return steadiness(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
