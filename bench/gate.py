"""Correctness gate: exit codes, report-versus-oracle agreement, digests."""

import csv
import hashlib
from pathlib import Path


def tree_digest(root):
    """sha256 over every file under ``root``: relative path and content, path-sorted."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(workload, pass_dir):
    """Problems found in one pass's outputs; an empty list means it passed.

    ``report.csv`` must hold one row per config with every zone kept. Where
    the report and the simulated scene come from the same data (no daily
    files), each row's ``pcc`` must equal, as text, the ``recovered_pcc``
    that ``simulate`` scored for that config against its ground truth.
    """
    pass_dir = Path(pass_dir)
    problems = []
    try:
        report = _read_rows(pass_dir / "out" / "report.csv")
        oracle = {row["config"]: row["recovered_pcc"] for row in _read_rows(pass_dir / "sim" / "oracle.csv")}
    except (OSError, KeyError) as exc:
        return [f"unreadable output: {exc}"]
    if len(report) != workload.n_configs:
        problems.append(f"report.csv has {len(report)} rows, expected {workload.n_configs}")
    if len(oracle) != workload.n_configs or not all(oracle.values()):
        problems.append(f"oracle.csv does not score all {workload.n_configs} configs")
    for row in report:
        label = row.get("methods")
        if row.get("n_samples") != str(workload.n_zones):
            problems.append(f"{label}: n_samples {row.get('n_samples')}, expected {workload.n_zones}")
        if not workload.daily_days and row.get("pcc") != oracle.get(label):
            problems.append(f"{label}: report pcc {row.get('pcc')} != oracle {oracle.get(label)}")
    return problems
