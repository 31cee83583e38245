#!/usr/bin/env python3
"""The repo benchmark: six workloads from cold rewrite to crash recovery.

    python3 benchmarks/suite/run.py                       # every workload, untraced
    python3 benchmarks/suite/run.py --trace               # ... then a traced pass each
    python3 benchmarks/suite/run.py --smoke               # ~1/10 sizes, well under a minute
    python3 benchmarks/suite/run.py --workload trickle --seed 7 --seconds 10 --trace 0
    python3 benchmarks/suite/run.py compare A.json B.json

With ``--workload`` the run happens in this process and the last line of
stdout is the one JSON object the driver's contract asks for (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
Without it every workload runs in its own subprocess — so peak RSS and
cache state are per workload — and the results land in one JSON file
under ``benchmarks/suite/out/``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parent.parent


def _workloads() -> dict:
    from wl_rewrite import RewriteCold
    from wl_serve import ServeMix
    from wl_sweep import SweepDense, SweepSparse
    from wl_trickle import Trickle
    from wl_wal import WalRecover

    classes = (RewriteCold, SweepSparse, SweepDense, Trickle, ServeMix, WalRecover)
    return {cls.name: cls for cls in classes}


def _parser() -> argparse.ArgumentParser:
    import harness

    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        run_seconds = json.load(handle)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help=f"timed seconds per workload (default {run_seconds}; 1 with --smoke)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="1 (or bare --trace): record spans and report the per-layer metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="~1/10 sizes")
    parser.add_argument("--json", type=Path, help="write the full result here")
    parser.add_argument(
        "--write-digests", action="store_true",
        help="with --workload unset: rewrite expected_digests.json from this run",
    )
    parser.set_defaults(run_seconds=run_seconds)
    return parser


def run_one(args) -> int:
    import harness

    workloads = _workloads()
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}",
              file=sys.stderr)
        return 2
    result = harness.run_workload(
        workloads[args.workload], args.seed, args.seconds, bool(args.trace), args.smoke
    )
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(result, indent=1))
    harness.print_metrics(result)
    print(harness.contract_line(result))
    return 0


def run_all(args) -> int:
    import harness

    out_dir = harness.OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.seed}{'_smoke' if args.smoke else ''}"
    target = args.json or out_dir / f"result_{tag}.json"
    combined = {"seed": args.seed, "smoke": args.smoke, "seconds": args.seconds,
                "workloads": {}, "traced": {}}
    status = 0
    for name in _workloads():
        for traced in (0, 1) if args.trace else (0,):
            part = out_dir / f"part_{name}_{tag}_{traced}.json"
            command = [
                sys.executable, str(SUITE_DIR / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(traced), "--json", str(part),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, capture_output=True, text=True)
            # The child's last line is the driver's JSON; the rest is the table.
            sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
            if done.returncode != 0 or not part.exists():
                sys.stderr.write(done.stderr)
                print(f"== {name}: run failed with exit code {done.returncode}")
                status = 1
                continue
            result = json.loads(part.read_text())
            part.unlink()
            combined["traced" if traced else "workloads"][name] = result
            if not result["correct"]:
                status = 1
    first = next(iter(combined["workloads"].values()), None)
    if first is not None:
        combined["provenance"] = first["provenance"]
    combined["noisy"] = any(
        result["noisy"]
        for group in ("workloads", "traced")
        for result in combined[group].values()
    )
    target.write_text(json.dumps(combined, indent=1))
    if combined["noisy"]:
        print("NOISY: load average exceeded 1 + nproc/2 before a pass; do not compare this run")
    print(f"result file: {target}")
    if args.write_digests:
        digests = {
            name: result["digests"] for name, result in combined["workloads"].items()
        }
        (SUITE_DIR / "expected_digests.json").write_text(
            json.dumps(digests, indent=0, sort_keys=True) + "\n"
        )
        print("expected_digests.json rewritten; review the diff before committing")
    return status


def main(argv: list[str]) -> int:
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {REPO_ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO_ROOT / "src"))
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    args = _parser().parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(args.run_seconds)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
