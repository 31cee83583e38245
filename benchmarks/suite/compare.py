"""``run.py compare A B``: did B get worse than A?

``A`` and ``B`` are result files written by ``run.py`` (the combined file
of a full run, or one workload's ``--json`` file), or directories of
such files — several runs of one commit.  A side's figure is the median
of its runs' reported values; the samples that show its spread are those
values, or with a single run the raw (unfiltered) values of its passes.

One row per (workload, end-to-end metric): both medians, the quartiles
of the samples, B over A, the bound from ``BENCHMARK.json`` and a
verdict.  A change within the bound is ``unchanged``; one beyond it is
``improved`` or ``regressed``; either becomes ``unresolved`` when the
samples' own spread (interquartile range over median, the wider side) is
wider than the bound or than the change.  Exit code 1 on any
``regressed`` row or any rise in ``failed_share``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

# Metrics with a value per pass (peak RSS has one per run).
PER_PASS = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_p95_ms")


def _runs(path: Path) -> list[dict[str, dict]]:
    """Each run under ``path`` as {workload: result}."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for file in files:
        data = json.loads(file.read_text())
        if "workloads" in data:
            runs.append(data["workloads"])
        elif "workload" in data and not data.get("traced"):
            runs.append({data["workload"]: data})
    if not runs:
        raise SystemExit(f"no untraced results under {path}")
    return runs


def _values(runs: list[dict[str, dict]], workload: str, metric: str) -> list[float]:
    """The runs' reported values of ``metric``."""
    return [
        run[workload]["end_to_end"][metric]
        for run in runs
        if workload in run and metric in run[workload]["end_to_end"]
    ]


def _samples(runs: list[dict[str, dict]], workload: str, metric: str) -> list[float]:
    """What shows the spread: the runs' values, or one run's passes."""
    results = [run[workload] for run in runs if workload in run]
    if len(results) == 1 and metric in PER_PASS:
        return [p[metric] for p in results[0]["passes"] if not p["traced"]]
    return _values(runs, workload, metric)


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _failed_share(runs: list[dict[str, dict]], workload: str) -> float:
    return max(
        (run[workload]["extras"]["failed_share"] for run in runs if workload in run),
        default=0.0,
    )


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    side_a, side_b = _runs(Path(argv[0])), _runs(Path(argv[1]))
    status = 0
    header = (
        f"{'workload':<13}{'metric':<16}{'A median':>12} {'[q1, q3]':>24}"
        f"{'B median':>12} {'[q1, q3]':>24}{'B/A':>8}{'bound':>7}  verdict"
    )
    print(header)
    for entry in spec["workloads"]:
        workload = entry["name"]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values_a = _values(side_a, workload, name)
            values_b = _values(side_b, workload, name)
            if not values_a or not values_b:
                continue
            median_a, median_b = statistics.median(values_a), statistics.median(values_b)
            samples_a = _samples(side_a, workload, name)
            samples_b = _samples(side_b, workload, name)
            (a1, a3), (b1, b3) = _quartiles(samples_a), _quartiles(samples_b)
            spread = max(
                (a3 - a1) / statistics.median(samples_a),
                (b3 - b1) / statistics.median(samples_b),
            )
            ratio = median_b / median_a
            worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            if abs(worse) <= bound:
                verdict = "unchanged" if spread <= bound else "unresolved"
            elif spread > bound or spread >= abs(worse):
                verdict = "unresolved"
            else:
                verdict = "regressed" if worse > 0 else "improved"
            if verdict == "regressed":
                status = 1
            print(
                f"{workload:<13}{name:<16}{median_a:>12.4f} {f'[{a1:.4f}, {a3:.4f}]':>24}"
                f"{median_b:>12.4f} {f'[{b1:.4f}, {b3:.4f}]':>24}{ratio:>8.3f}"
                f"{bound:>7.2f}  {verdict}"
            )
        failed_a, failed_b = _failed_share(side_a, workload), _failed_share(side_b, workload)
        if failed_b > failed_a:
            status = 1
        verdict = "regressed" if failed_b > failed_a else "unchanged"
        print(
            f"{workload:<13}{'failed_share':<16}{failed_a:>12.4f} {'':>24}"
            f"{failed_b:>12.4f} {'':>24}{'':>8}{'any':>7}  {verdict}"
        )
    return status
