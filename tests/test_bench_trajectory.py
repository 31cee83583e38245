"""Tier-1 guard for the committed benchmark trajectory.

Each PR that measures itself commits one ``BENCH_<pr>.json`` at the repo
root; a later speed-up claim is a diff between two of them (ROADMAP, first
aim).  That only works while every file parses, says which PR and parent
commit it measured and what it claimed, and names workloads the suite
still defines — a renamed workload would otherwise orphan its history
silently.  Workload names are read from the ``name = "..."`` class
attributes of ``benchmarks/suite/wl_*.py`` without importing the harness.
A claim, where a file makes one, must be checkable against the file
itself: a workload measured there and an end-to-end metric that
``BENCHMARK.json`` declares, so a mistyped claim cannot enter the
trajectory.
"""

import ast
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SUITE = ROOT / "benchmarks" / "suite"
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ("pr", "parent_commit", "claim", "workloads")


def _suite_workloads() -> set[str]:
    names = set()
    for path in SUITE.glob("wl_*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                names |= {
                    stmt.value.value
                    for stmt in node.body
                    if isinstance(stmt, ast.Assign)
                    and [getattr(t, "id", None) for t in stmt.targets] == ["name"]
                    and isinstance(stmt.value, ast.Constant)
                }
    return names


def test_the_trajectory_is_not_empty():
    # The parametrized test below vanishes silently if the files do.
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_is_a_readable_trajectory_point(path):
    if not SUITE.is_dir():
        pytest.skip("benchmarks/suite is not part of this checkout")
    point = json.loads(path.read_text(encoding="utf-8"))
    assert [key for key in REQUIRED if key not in point] == []
    assert path.name == f"BENCH_{point['pr']}.json"
    assert point["workloads"], "no workload measured"
    assert set(point["workloads"]) <= _suite_workloads()
    claim = point["claim"]
    if claim is not None:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        assert claim["workload"] in point["workloads"]
        assert claim["metric"] in {m["name"] for m in declared["end_to_end"]}
