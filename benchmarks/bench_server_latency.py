"""SERVER: closed-loop multi-tenant latency/throughput, oracle-checked.

The ISSUE 9 acceptance gate, run end to end over real HTTP: a seeded
closed-loop query/update mix (concurrent reader clients plus a writer
client per tenant, two tenants at least) driven against
:class:`repro.service.server.RPQServer` must

* sustain a throughput floor with a bounded p99 latency,
* finish with zero 5xx responses (429s are admission control working,
  not failures), and
* serve answers *byte-identical* to a single-threaded oracle that
  replays each tenant's accepted writes in sequence order and
  re-answers every read at its pinned store version
  (:func:`repro.service.loadgen.replay_oracle` — it raises on any
  divergence, so the differential check is not optional here).

The floors are deliberately coarse (10x under local measurements, which
show thousands of requests per second and single-digit-millisecond
p99s): the gate exists to catch an event loop blocked by a sweep, a
version pin torn by interleaving, or an oracle mismatch — not to police
CI hardware.

An all-pairs read after a write takes the miss path: the session folds
the delta into its sorted answer and records the fold's edit script, and
the tenant patches its stored per-pair bytes by that script, so only the
changed pairs are encoded.  The replay above therefore checks every
patched body.  A repeated query string skips the parse on the event loop.
Each tenant's thread drains a FIFO job queue and settles one asyncio
future per request.  On a 2-vCPU Linux VM (six alternated runs a side)
this gate read 5 550-6 070 req/s with p50 0.96-1.12 ms and p99
6.5-7.8 ms, against 5 410-5 580 req/s, p50 1.12-1.17 ms and p99
6.8-7.2 ms when every request took a ``run_in_executor`` round trip
onto a one-worker executor per tenant.

Run with ``-s`` to see the report::

    PYTHONPATH=src python -m pytest benchmarks/bench_server_latency.py -s
"""

from repro.service.loadgen import run_server_benchmark

# Coarse floors/ceilings, far from locally measured values (see above).
THROUGHPUT_FLOOR_RPS = 50.0
P99_CEILING_MS = 500.0


def test_server_latency_gate_two_tenants_concurrent_mix():
    report = run_server_benchmark(
        families=("grid", "chain"),
        seed=20260808,
        edges=240,
        requests_per_tenant=150,
        write_fraction=0.2,
        batch_size=2,
        readers_per_tenant=3,
    )
    print()
    for line in report.lines():
        print(line)

    assert len(report.tenants) >= 2
    assert report.requests >= 300
    assert report.updates > 0, "the mix must exercise the write path"
    assert report.errors == 0, (
        f"{report.errors} non-2xx/non-429 responses — the server must "
        "degrade (429) or answer, never fail"
    )
    # Every accepted read matched the single-threaded replay byte for
    # byte (replay_oracle raised otherwise); make the coverage explicit.
    assert report.oracle_checked == report.queries
    assert report.oracle_checked > 0
    assert report.throughput >= THROUGHPUT_FLOOR_RPS, (
        f"throughput {report.throughput:.1f} req/s under the "
        f"{THROUGHPUT_FLOOR_RPS} req/s floor"
    )
    assert report.p99_ms <= P99_CEILING_MS, (
        f"p99 {report.p99_ms:.1f} ms over the {P99_CEILING_MS} ms ceiling"
    )
