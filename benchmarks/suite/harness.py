"""Pass loop, statistics and result assembly shared by the six workloads.

A run is: build the seeded inputs once, then several *passes*.  Each pass
opens fresh state (store, session, server, data directory — whatever the
workload serves from), warms it, and executes ops in a closed loop until
its share of ``--seconds`` is used.  Everything before a pass's first
timed op counts as set-up.  Oracles run after the last pass, outside
every timed section.

An untraced run has one pass per ``Workload.pass_seconds`` of ``--seconds``
(at least :data:`MIN_PASSES`) over the same ops and yields the end-to-end
metrics with every op taken at its *fastest* repetition: the noise of a
shared two-core sandbox is one-sided and large (a neighbour slows the
machine by up to a half for seconds to minutes, nothing speeds it up — a
fixed CPU loop's median moved 40% between two minutes of one afternoon
while its minimum over half a minute stayed within a few percent), so an
op's fastest run is its least contaminated one, and the more repetitions
a run holds the closer that gets to the op's undisturbed time.  Work the
program does at fixed points of the stream (checkpoints, collections,
matrix growth) hits the same op every time and stays in.  Every pass's own
rate and percentiles stay in the result file.  The seeded inputs are built
:data:`SETUPS` times and the fastest build counts, for the same reason.

The neighbour's load comes and goes per virtual CPU, independently of the
other one, in episodes of seconds to minutes.  So every build and every
pass first times a fixed loop on each CPU it may use and pins the process
to the one that ran it fastest (:func:`pin_to_quietest_cpu`); the oracles
and the traced run's extra measurements run with the original mask.
A traced run has three passes over the same ops — untraced, traced with
:class:`tracing.Tracer` installed, untraced — so the per-layer numbers and
the tracing overhead come from one process and one seed, and a drift in
machine speed across the run cancels out of the overhead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from tracing import CLIENT_SPAN, EXTRA, SETUP, SPAN_NAMES, Tracer

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parent.parent
OUT_DIR = SUITE_DIR / "out"
DEFAULT_SEED = 20260928
MIN_PASSES = 4
SETUPS = 5

# name -> unit; the bound and direction live in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mib": "MiB",
}

# Workload-specific end-to-end figures.  Not every workload has them, so
# they cannot carry a regression bound under the driver's contract; they
# are reported beside the per-layer numbers instead.
EXTRAS = {
    "write_p50_ms": "ms",
    "write_p95_ms": "ms",
    "latency_p99_ms": "ms",
    "recovery_s": "s",
    "disk_bytes_per_tuple": "B",
    "failed_share": "ratio",
}

COUNTERS = {
    "rewriter.ad_states": "count",
    "rewriter.a_prime_transitions": "count",
    "rewriter.rewriting_states": "count",
    "compiled.relation_cache.hit_share": "ratio",
    "engine.compile_cache.hit_share": "ratio",
    "plancache.hit_share": "ratio",
    "plancache.built": "count",
    "plancache.loaded": "count",
    "sweep.answer_pairs": "count",
    "session.memo_hit_share": "ratio",
    "session.incremental_share": "ratio",
    "session.full_recomputes": "count",
    "session.rederived_bits": "count",
    "incremental.edges_applied": "count",
    "server.rejected_share": "ratio",
    "server.max_pending": "count",
    "server.residual_share": "ratio",
    "wal.appends": "count",
    "wal.syncs": "count",
    "wal.bytes_per_write": "B",
    "recovery.checkpoints": "count",
    "recovery.replayed": "count",
    "sharded.speedup_vs_engine.w1": "ratio",
    "sharded.speedup_vs_engine.w2": "ratio",
    "engine.forced_bigint_s": "s",
    "engine.forced_numpy_s": "s",
    "trace.overhead_share": "ratio",
    "trace.span_cost_share": "ratio",
    "unattributed_share": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    units: dict[str, str] = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    units.update(EXTRAS)
    return units


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (which must not be empty)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def answer_bytes(pairs) -> bytes:
    """Canonical bytes of a sorted answer list (nodes are strings)."""
    return "\n".join(map("\t".join, pairs)).encode()


@dataclass
class Failure:
    """An op that failed its oracle (``pass_index`` None = every pass)."""

    pass_index: int | None
    op_id: int
    reason: str


@dataclass
class PassLog:
    """What one timed pass did."""

    index: int
    tracer: Tracer | None = None
    setup_s: float = 0.0
    # Time the ops took: the sum of their latencies for a sequential
    # workload, the wall time for one with overlapping requests.
    busy_s: float = 0.0
    samples: list[tuple[int, str, float]] = field(default_factory=list)
    errors: list[tuple[int, str, str]] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    conflicts: list[str] = field(default_factory=list)
    # Counts read from the program's own stats dicts and return values.
    counts: Counter = field(default_factory=Counter)
    noisy: bool = False
    cpu: int | None = None

    def time(self, op_id: int, kind: str, fn, *args):
        """Run one op, record its latency, return its result (None if it raised)."""
        if self.tracer is not None:
            self.tracer.op_index = op_id
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.busy_s += time.perf_counter() - start
            self.errors.append((op_id, kind, f"{type(exc).__name__}: {exc}"))
            return None
        elapsed = time.perf_counter() - start
        self.busy_s += elapsed
        self.samples.append((op_id, kind, elapsed))
        return result

    def record(self, key: str, payload: bytes) -> None:
        """File the digest of an op's output under ``key``."""
        value = digest(payload)
        if self.digests.setdefault(key, value) != value:
            self.conflicts.append(key)

    @property
    def rate(self) -> float:
        return share(len(self.samples), self.busy_s)


@dataclass
class Context:
    seed: int
    seconds: float
    smoke: bool
    traced: bool
    workdir: Path


class Workload:
    """Base class; see the module docstring for the life cycle."""

    name = ""
    why = ""
    # The op kind whose latencies feed latency_p50/p95 (None = every kind).
    primary: str | None = None
    # Spans left unwrapped on this workload to keep tracing overhead low.
    trace_skip: frozenset[str] = frozenset()
    # Timed seconds a pass aims for.  A workload whose ops repeat only from
    # pass to pass takes shorter passes, so that each op repeats more often.
    pass_seconds = 2.5

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.sizes: dict = {}

    def plan(self) -> list[bool]:
        """One entry per pass: whether it runs traced."""
        if self.ctx.traced:
            return [False, True, False]
        return [False] * max(MIN_PASSES, round(self.ctx.seconds / self.pass_seconds))

    def build(self) -> None:
        raise NotImplementedError

    def prepare_pass(self, log: PassLog) -> None:
        """Untimed work a pass needs before its set-up clock starts."""

    def open_pass(self, log: PassLog):
        return None

    def run_pass(self, state, log: PassLog, budget_s: float) -> None:
        raise NotImplementedError

    def close_pass(self, state, log: PassLog) -> None:
        pass

    def verify(self, logs: list[PassLog]) -> list[Failure]:
        raise NotImplementedError

    def counters(self, logs: list[PassLog]) -> dict[str, float]:
        return {}

    def extras(self, logs: list[PassLog]) -> dict[str, float]:
        return {}

    def trace_extras(self) -> dict[str, float]:
        """Extra measurements only a traced run pays for (run with the
        tracer installed)."""
        return {}


def sum_counts(logs: list[PassLog]) -> Counter:
    total: Counter = Counter()
    for log in logs:
        total.update(log.counts)
    return total


def run_rounds(log: PassLog, budget_s: float, one_round) -> None:
    """Call ``one_round()`` until the pass's budget is used; whole rounds
    only, so every pass measures the same mix of ops.  Stops when the next
    round would overshoot by more than it undershoots."""
    while True:
        before = log.busy_s
        one_round()
        if log.busy_s + (log.busy_s - before) / 2 >= budget_s:
            return


# ----------------------------------------------------------------------
# Provenance and the noise guard
# ----------------------------------------------------------------------


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed: int) -> dict:
    import numpy

    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }


def load_is_noisy() -> tuple[float, bool]:
    """(1-minute load average, whether it exceeds 1 + nproc/2).

    The 1 is the benchmark itself: a run of half a minute, or the
    workload that ran just before this one, is one busy thread in the
    kernel's average.
    """
    load = os.getloadavg()[0]
    return load, load > 1 + (os.cpu_count() or 1) / 2


def _reference_loop() -> int:
    total = 0
    for i in range(40_000):
        total += i * i % 7
    return total


def pin_to_quietest_cpu(cpus: list[int]) -> int | None:
    """Pin the calling thread (threads it starts inherit the mask) to the
    CPU on which a fixed ~3 ms loop ran fastest just now (median of five).
    A one-thread process sits on one CPU anyway; this only picks which.
    Returns the CPU, or None where the platform has no affinity calls."""
    if not cpus:
        return None
    timings = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        samples = []
        for _ in range(5):
            started = time.perf_counter()
            _reference_loop()
            samples.append(time.perf_counter() - started)
        timings[cpu] = statistics.median(samples)
    best = min(timings, key=timings.get)
    os.sched_setaffinity(0, {best})
    return best


# ----------------------------------------------------------------------
# One workload, one process
# ----------------------------------------------------------------------


def expected_digests(name: str) -> dict[str, str]:
    with open(SUITE_DIR / "expected_digests.json", encoding="utf-8") as handle:
        return json.load(handle).get(name, {})


def _check_digests(
    name: str, ctx: Context, logs: list[PassLog]
) -> tuple[dict[str, str], int, list[Failure]]:
    """An op's output must not change between repetitions or passes, and
    on the default seed must be the committed one.  Returns the digests,
    how many were checked against the committed file, and the failures."""
    failures = [
        Failure(log.index, -1, f"op output for {key!r} changed within a pass")
        for log in logs
        for key in log.conflicts
    ]
    digests: dict[str, str] = {}
    for log in logs:
        for key, value in log.digests.items():
            if digests.setdefault(key, value) != value:
                failures.append(
                    Failure(log.index, -1, f"digest of {key!r} differs between passes")
                )
    checked = 0
    if ctx.seed == DEFAULT_SEED and not ctx.smoke:
        reference = expected_digests(name)
        for key in digests.keys() & reference.keys():
            checked += 1
            if reference[key] != digests[key]:
                failures.append(
                    Failure(None, -1, f"digest of {key!r} is not the committed one")
                )
    return digests, checked, failures


def _paired_overhead(before: PassLog, traced: PassLog, after: PassLog) -> float:
    """How much slower the typical op ran traced than untraced.

    The untraced reference is the mean of the passes before and after
    the traced one.  Ops present in all three passes are compared op for
    op: the median, over those ops, of traced over reference latency
    (each an op's median within its pass).  When the passes ran different
    ops, the passes' median latencies are compared instead.  Medians,
    because one stall or scheduler hiccup outweighs the few microseconds
    a span costs.
    """

    def medians(log: PassLog) -> dict[int, float]:
        groups: dict[int, list[float]] = {}
        for op_id, _kind, seconds in log.samples:
            groups.setdefault(op_id, []).append(seconds)
        return {op_id: statistics.median(v) for op_id, v in groups.items()}

    if not (before.samples and traced.samples and after.samples):
        return 0.0
    a, t, b = medians(before), medians(traced), medians(after)
    common = a.keys() & t.keys() & b.keys()
    if 2 * len(common) >= min(len(a), len(t), len(b)):
        return statistics.median(t[i] / ((a[i] + b[i]) / 2) for i in common) - 1.0

    def typical(log: PassLog) -> float:
        return statistics.median(s for _i, _k, s in log.samples)

    return typical(traced) / ((typical(before) + typical(after)) / 2) - 1.0


def _layer_report(
    workload: Workload, tracer: Tracer, logs: list[PassLog], extras: dict[str, float]
) -> dict[str, float]:
    """Every per-layer metric of a traced run (passes: plain, traced, plain)."""
    before, traced_log, after = logs
    layers = dict.fromkeys(per_layer_units(), 0.0)
    tracer.op_index = EXTRA
    tracer.install(skip=workload.trace_skip)
    try:
        layers.update(workload.trace_extras())
    finally:
        tracer.uninstall()
    tracer.finish()
    layers.update(tracer.layer_metrics())
    layers.update(workload.counters([traced_log]))
    layers.update(extras)
    layers["trace.overhead_share"] = _paired_overhead(before, traced_log, after)
    # The same overhead, computed: spans opened by the timed ops times the
    # measured cost of one span.  Immune to machine-speed drift, which the
    # paired figure above is not.
    layers["trace.span_cost_share"] = share(
        tracer.op_spans() * tracer.span_cost_seconds(), traced_log.busy_s
    )
    layers["server.residual_share"] = share(
        layers[f"{CLIENT_SPAN}.self_s"], tracer.seconds(CLIENT_SPAN)
    )
    layers["unattributed_share"] = max(
        0.0, 1.0 - share(tracer.seconds(), traced_log.busy_s)
    )
    return layers


def run_workload(cls, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload in this process; returns its full result dict."""
    work_root = OUT_DIR / "work"
    work_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{cls.name}-", dir=work_root))
    # The sharded evaluator stages snapshots through tempfile; keep them
    # inside the checkout too.
    tempfile.tempdir = str(workdir)
    os.environ["TMPDIR"] = str(workdir)
    try:
        return _run(cls, Context(seed, seconds, smoke, trace, workdir))
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)


def _run(cls, ctx: Context) -> dict:
    trace = ctx.traced
    load_start, _ = load_is_noisy()
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    builds = []
    for _ in range(SETUPS):
        pin_to_quietest_cpu(cpus)
        workload: Workload = cls(ctx)
        started = time.perf_counter()
        workload.build()
        builds.append(time.perf_counter() - started)
    build_s = min(builds)

    tracer = Tracer() if trace else None
    plan = workload.plan()
    budget_s = ctx.seconds / len(plan)
    logs: list[PassLog] = []
    for index, traced in enumerate(plan):
        log = PassLog(index, tracer if traced else None, noisy=load_is_noisy()[1])
        # Every pass starts from a collected heap, whatever the last one left.
        gc.collect()
        log.cpu = pin_to_quietest_cpu(cpus)
        if traced:
            tracer.op_index = SETUP
            tracer.install(skip=workload.trace_skip)
        try:
            workload.prepare_pass(log)
            started = time.perf_counter()
            state = workload.open_pass(log)
            log.setup_s = time.perf_counter() - started
            try:
                workload.run_pass(state, log, budget_s)
            finally:
                workload.close_pass(state, log)
        finally:
            if traced:
                tracer.uninstall()
        logs.append(log)
    if cpus:
        os.sched_setaffinity(0, cpus)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ---- oracles (untimed) -------------------------------------------
    started = time.perf_counter()
    failures = workload.verify(logs)
    verify_s = time.perf_counter() - started
    digests, digests_checked, mismatches = _check_digests(cls.name, ctx, logs)
    failures += mismatches

    # A failed op has no latency: drop its samples before the statistics.
    # ``attempted`` counts every op sent; ``failed`` those that raised,
    # were refused, or failed an oracle (a failure not tied to one op
    # counts once).
    bad = {(f.pass_index, f.op_id) for f in failures if f.op_id >= 0}
    failed = sum(len(log.errors) for log in logs) + sum(f.op_id < 0 for f in failures)
    attempted = 0
    for log in logs:
        attempted += len(log.samples) + len(log.errors)
        kept = [
            sample
            for sample in log.samples
            if (log.index, sample[0]) not in bad and (None, sample[0]) not in bad
        ]
        failed += len(log.samples) - len(kept)
        log.samples = kept
    attempted = max(attempted, failed, 1)

    measured = [log for log in logs if (log.tracer is not None) == trace]

    def primary(log: PassLog) -> list[tuple[int, float]]:
        """(op id, seconds) of the samples the latency percentiles are about."""
        return [(op, s) for op, kind, s in log.samples if workload.primary in (None, kind)]

    def raw_percentile_ms(log: PassLog, fraction: float) -> float:
        return percentile([s for _op, s in primary(log)] or [0.0], fraction) * 1e3

    per_pass = [
        {
            "index": log.index,
            "traced": log.tracer is not None,
            "setup_s": build_s + log.setup_s,
            "busy_s": log.busy_s,
            "ops": len(log.samples),
            "samples": len(primary(log)),
            "ops_per_s": log.rate,
            "latency_p50_ms": raw_percentile_ms(log, 0.50),
            "latency_p95_ms": raw_percentile_ms(log, 0.95),
            "noisy": log.noisy,
            "cpu": log.cpu,
        }
        for log in logs
    ]
    # Every measured pass runs the same ops, and ops that share an id do
    # identical work: an id's fastest latency is its least contaminated
    # one (see the module docstring).  The end-to-end figures describe the
    # run with every sample at its id's fastest.
    fastest: dict[int, float] = {}
    for log in measured:
        for op_id, _kind, seconds in log.samples:
            if seconds < fastest.get(op_id, math.inf):
                fastest[op_id] = seconds
    clean = [fastest[op_id] for log in measured for op_id, _kind, _s in log.samples]
    clean_primary = [fastest[op_id] for log in measured for op_id, _s in primary(log)]
    end_to_end: dict[str, float] = {}
    if clean_primary:
        # How much requests overlapped: 1 for a sequential workload, whose
        # latencies add up to the time its pass took.
        overlap = statistics.median(
            share(sum(s for _i, _k, s in log.samples), log.busy_s) for log in measured
        )
        end_to_end = {
            "setup_s": build_s + min(log.setup_s for log in measured),
            "ops_per_s": overlap * len(clean) / sum(clean),
            "latency_p50_ms": percentile(clean_primary, 0.50) * 1e3,
            "latency_p95_ms": percentile(clean_primary, 0.95) * 1e3,
            "peak_rss_mib": peak_rss_mib,
        }
    extras = workload.extras(measured)
    extras["failed_share"] = failed / attempted

    result = {
        "workload": cls.name,
        "why": cls.why,
        "traced": trace,
        "smoke": ctx.smoke,
        "seconds": ctx.seconds,
        "sizes": workload.sizes,
        "correct": failed == 0 and bool(end_to_end),
        "attempted": attempted,
        "failed": failed,
        "failures": [
            f"pass {f.pass_index} op {f.op_id}: {f.reason}" for f in failures
        ]
        + [
            f"pass {log.index} op {op_id} ({kind}): {reason}"
            for log in logs
            for op_id, kind, reason in log.errors
        ],
        "samples": sum(p["samples"] for p in per_pass if p["traced"] == trace),
        "distinct_ops": len(fastest),
        "digests_checked": digests_checked,
        "digests": digests,
        "end_to_end": end_to_end,
        "extras": extras,
        "passes": per_pass,
        "build_s": build_s,
        "builds_s": builds,
        "verify_s": verify_s,
    }

    if trace:
        result["per_layer"] = _layer_report(workload, tracer, logs, extras)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(OUT_DIR / f"trace_{cls.name}.jsonl", cls.name)

    load_end, _ = load_is_noisy()
    result["noisy"] = any(log.noisy for log in logs)
    result["provenance"] = {
        **provenance(ctx.seed),
        "load_1m_start": load_start,
        "load_1m_end": load_end,
    }
    return result


def contract_line(result: dict) -> str:
    """The one JSON object the driver reads from the last stdout line."""
    if result["traced"]:
        units = per_layer_units()
        metrics = {
            name: {"value": result["per_layer"][name], "unit": unit}
            for name, unit in units.items()
        }
    else:
        metrics = {
            name: {"value": result["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def print_metrics(result: dict) -> None:
    """Every metric of one workload by name, with its unit."""
    name = result["workload"]
    state = "ok" if result["correct"] else "FAILED"
    noisy = "  NOISY (load average above 1 + nproc/2 before a pass)" if result["noisy"] else ""
    print(
        f"== {name}: {state}, {result['attempted']} ops attempted, "
        f"{result['failed']} failed, {result['samples']} latency samples{noisy}"
    )
    for failure in result["failures"][:10]:
        print(f"   ! {failure}")
    for metric, unit in END_TO_END.items():
        if metric in result["end_to_end"]:
            print(f"   {metric:<42} {result['end_to_end'][metric]:>14.4f} {unit}")
    for metric, value in result["extras"].items():
        print(f"   {metric:<42} {value:>14.4f} {EXTRAS[metric]}")
    if result["traced"]:
        units = per_layer_units()
        for metric, value in result["per_layer"].items():
            if metric not in EXTRAS:
                print(f"   {metric:<42} {value:>14.6f} {units[metric]}")
