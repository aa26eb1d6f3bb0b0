"""E20: incremental network engine — affected-set vs global recompute.

The exploding-star workload (§2.1) puts hundreds of concurrent transfers
on a star of tier links. The reference fluid-flow engine re-rates *every*
active transfer on every start/finish (O(active × links) per event,
superlinear per workload); the incremental engine re-rates only the
transfers sharing a link with the event and tracks finishes in a
lazily-invalidated min-heap behind one persistent timer. The reference
is `GlobalRecomputeTransferService` (`_references.py`), a `TransferService`
that overrides only the affected-set re-rate; both settle a transfer only
when its rate changes, and therefore produce **bit-identical**
per-transfer completion times — asserted here, not approximated.

Results land in ``BENCH_network.json`` at the repo root. The speedup gate
(>=5x) applies at the 5000-transfer point when it is in the sweep.

Set ``NETWORK_BENCH_SIZES`` (comma-separated) to override the sweep — CI
smoke runs ``100,1000`` to keep wall time down (the reference model alone
needs ~20 s at 5000).
"""

import gc
import json
import os
import time
from pathlib import Path

from _references import GlobalRecomputeTransferService
from repro.network import Topology, TransferService
from repro.sim import Environment
from repro.storage import MB

DEFAULT_SIZES = [100, 1_000, 5_000]
N_LEAVES = 64            # tier links fanning out of the source domain
TRANSFER_BYTES = 50 * MB
STAGGER_S = 0.001        # start spacing: every start is its own event
SPEEDUP_GATE = 5.0       # incremental vs global recompute at 5000 transfers

_REPO_ROOT = Path(__file__).resolve().parents[1]
_RESULT_PATH = _REPO_ROOT / "BENCH_network.json"


def bench_sizes():
    raw = os.environ.get("NETWORK_BENCH_SIZES", "")
    if not raw:
        return list(DEFAULT_SIZES)
    return [int(part) for part in raw.split(",") if part.strip()]


def run_star_sweep(n_transfers: int, service_type=TransferService):
    """Wall time + completion record of an n-way exploding-star fan-out."""
    env = Environment()
    topology = Topology.star(
        "cern", [f"tier-{index}" for index in range(N_LEAVES)],
        latency_s=0.01, bandwidth_bps=100 * MB)
    service = service_type(env, topology)

    def starter():
        events = []
        for index in range(n_transfers):
            events.append(service.transfer(
                "cern", f"tier-{index % N_LEAVES}", TRANSFER_BYTES))
            yield env.timeout(STAGGER_S)
        yield env.all_of(events)

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        env.run_process(starter())
        wall = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    completions = sorted(
        (stats.src, stats.dst, stats.nbytes, stats.start_time,
         stats.end_time)
        for stats in service.completed)
    assert len(completions) == n_transfers
    return wall, completions


def test_e20_network_incremental_vs_full(benchmark, experiment):
    report = experiment(
        "E20", "Incremental network engine: affected-set vs global recompute",
        header=["transfers", "incremental_s", "reference_s", "speedup",
                "identical"],
        expectation="affected-set recomputation scales near-linearly while "
                    "the global model is superlinear; completion times are "
                    "bit-identical")
    rows = []
    speedup_at_5k = None
    for n_transfers in bench_sizes():
        incr_wall, incr_completions = run_star_sweep(n_transfers)
        ref_wall, ref_completions = run_star_sweep(
            n_transfers, GlobalRecomputeTransferService)
        identical = incr_completions == ref_completions
        speedup = ref_wall / incr_wall if incr_wall > 0 else float("inf")
        report.row(n_transfers, incr_wall, ref_wall, speedup, identical)
        rows.append({
            "transfers": n_transfers,
            "incremental_s": round(incr_wall, 4),
            "reference_s": round(ref_wall, 4),
            "speedup": round(speedup, 1),
            "identical": identical,
        })
        if n_transfers == 5_000:
            speedup_at_5k = speedup

    report.conclusion = (
        "per-link indexing keeps event cost proportional to the contention "
        "component, not the whole active set")

    # The speedup gate only arms when the sweep includes 5000 transfers.
    gate_passed = (None if speedup_at_5k is None
                   else speedup_at_5k >= SPEEDUP_GATE)
    _RESULT_PATH.write_text(json.dumps({
        "experiment": "E20",
        "title": "incremental network engine vs global recompute",
        "sizes": bench_sizes(),
        "n_leaves": N_LEAVES,
        "transfer_bytes": TRANSFER_BYTES,
        "rows": rows,
        "gate": SPEEDUP_GATE,
        "gate_passed": gate_passed,
    }, indent=2) + "\n")

    diverged = [row["transfers"] for row in rows if not row["identical"]]
    assert not diverged, f"completion times diverged at {diverged} transfers"
    if speedup_at_5k is not None:
        assert gate_passed, (
            f"incremental engine only {speedup_at_5k:.1f}x faster than the "
            f"global recompute at 5k transfers (needs "
            f">={SPEEDUP_GATE:.0f}x)")
        benchmark.extra_info["speedup_at_5k"] = round(speedup_at_5k, 1)

    benchmark.pedantic(lambda: run_star_sweep(200),
                       rounds=5, iterations=1)
