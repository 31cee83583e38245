"""Smoke test of the benchmark suite (``pytest benchmarks/suite/``).

Not part of tier-1 (``testpaths`` is ``tests``): it runs every workload
at smoke size, untraced and traced, in subprocesses — about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Spans a smoke-sized traced pass of each workload must produce.  (At
# smoke size the sparse graphs and the trickle store sit below the numpy
# threshold, so kernel.* is reachable from sweep_dense only.)
REACHED = {
    "rewrite_cold": {
        "parser.parse", "rewriter.maximal_rewriting", "compiled.determinize_dense",
        "compiled.minimize_dense", "compiled.view_transition_masks",
        "compiled.rewrite_sweep", "rewriting.rewrite_rpq", "plancache.get",
        "plancache.get_or_build",
    },
    "sweep_sparse": {"engine.evaluate_all_sorted"},
    "sweep_dense": {
        "engine.evaluate_all_sorted", "kernel.all_pairs_ids", "kernel.sweep_window",
        "kernel.decode_matrix", "csr.gather_plan", "csr.adjacency_bitmap",
        "sharded.evaluate_all_sorted",
    },
    "trickle": {
        "store.add", "store.remove", "store.delta_since", "session.answer_sorted",
        "incremental.apply_insertions", "incremental.apply_deletions",
        "incremental.answers",
    },
    "serve_mix": {
        "client.request", "server.run_query", "server.run_update",
        "session.answer_sorted", "session.answer_from", "session.answer_pair",
        "store.add", "wal.append", "wal.commit", "engine.evaluate_single_source",
        "engine.evaluate_pair",
    },
    # wal.append / wal.commit are left unwrapped here (WalRecover.trace_skip).
    "wal_recover": {
        "store.add", "store.remove", "recovery.recover_store",
        "recovery.load_checkpoint", "csr.load",
    },
}


def run_suite(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SUITE / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    target = tmp_path_factory.mktemp("suite") / "smoke.json"
    done = run_suite("--smoke", "--trace", "--json", str(target))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return done.stdout, json.loads(target.read_text())


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_every_workload_and_metric_is_printed_with_its_unit(smoke):
    stdout, result = smoke
    for workload in SPEC["workloads"]:
        name = workload["name"]
        assert f"== {name}: ok" in stdout
        assert result["workloads"][name]["correct"], result["workloads"][name]["failures"]
        assert result["traced"][name]["correct"], result["traced"][name]["failures"]
        for metric in SPEC["end_to_end"]:
            assert metric["name"] in result["workloads"][name]["end_to_end"]
        assert set(result["traced"][name]["per_layer"]) == {
            m["name"] for m in SPEC["per_layer"]
        }
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.search(
            rf"^\s+{re.escape(metric['name'])}\s+-?[0-9.]+ {re.escape(metric['unit'])}$",
            stdout, re.MULTILINE,
        ), metric["name"]


def test_result_file_carries_provenance_and_the_noise_flag(smoke):
    _stdout, result = smoke
    for key in ("git_sha", "git_dirty", "python", "numpy", "nproc", "cpu_model",
                "seed", "load_1m_start", "load_1m_end"):
        assert key in result["provenance"]
    assert isinstance(result["noisy"], bool)
    for workload in result["workloads"].values():
        assert workload["sizes"] and isinstance(workload["noisy"], bool)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_contract_line(trace):
    done = run_suite("--workload", "trickle", "--seed", "7", "--seconds", "1",
                     "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in line["metrics"].items()
    }
    if trace == "0":
        assert all(metric["value"] > 0 for metric in line["metrics"].values())


@pytest.mark.parametrize("workload", sorted(REACHED))
def test_traced_pass_reaches_its_spans_and_forms_a_forest(smoke, workload):
    _stdout, result = smoke
    layers = result["traced"][workload]["per_layer"]
    missing = {name for name in REACHED[workload] if not layers[f"{name}.calls"]}
    assert not missing, missing

    spans = [
        json.loads(line)
        for line in (SUITE / "out" / f"trace_{workload}.jsonl").read_text().splitlines()
    ]
    assert [span["id"] for span in spans] == list(range(len(spans)))
    self_s = [span["end"] - span["start"] for span in spans]
    root_of = list(range(len(spans)))
    for span in spans:
        parent = span["parent"]
        # A parent opened first, so links only point backwards: a forest.
        assert -1 <= parent < span["id"]
        if parent != -1:
            assert spans[parent]["start"] <= span["start"]
            assert span["end"] <= spans[parent]["end"]
            self_s[parent] -= span["end"] - span["start"]
            root_of[span["id"]] = root_of[parent]
    total: dict[int, float] = {}
    for span in spans:
        total[root_of[span["id"]]] = total.get(root_of[span["id"]], 0.0) + self_s[span["id"]]
    for root, summed in total.items():
        duration = spans[root]["end"] - spans[root]["start"]
        assert summed == pytest.approx(duration, rel=0.01, abs=1e-6)


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the suite there is
    nothing to measure: non-zero exit, no result line."""
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "trickle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
