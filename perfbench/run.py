#!/usr/bin/env python3
"""End-to-end datagridflow benchmark: run one workload, print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload flow_engine --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` repeats the workload (fresh set-up each time) until
``--seconds`` of host time have passed, checks every repetition's
invariants and simulated signature, and prints the end-to-end metrics.
``--trace 1`` runs the workload once untraced and once traced, prints the
per-layer table and the per-layer metrics, and checks that both runs
have the same simulated signature. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(each ``{"value", "unit"}``). A run record goes to ``perfbench/out/``.

Exit status: 0 when every check passed, 1 when a check failed (the
result line then says ``"correct": false``), 2 when the benchmark cannot
run here at all (for instance no ``src/repro`` next to it).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: The seed a run uses unless told otherwise, and the held-out seed a
#: later performance claim must also hold on (it is never used while a
#: change is being written).
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009

#: A timed run makes at least this many repetitions, however long each
#: takes, so every host-time metric is a median.
MIN_REPS = 3

#: End-to-end metrics: name → unit. Host kind unless named ``sim_*``.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "sim_makespan_s": "sim_s",
    "sim_sojourn_p50_s": "sim_s",
    "sim_sojourn_p99_s": "sim_s",
    "sim_goodput_per_s": "ops/sim_s",
    "sim_admit_frac": "ratio",
}

#: Per-layer metrics from the traced run: name → unit.
PER_LAYER = {
    "sim.events": "count", "sim.processes": "count", "sim.self_s": "s",
    "dgl.renders": "count", "dgl.evals": "count", "dgl.self_s": "s",
    "dfms.engine.steps": "count", "dfms.engine.step_retries": "count",
    "dfms.engine.self_s": "s", "dfms.engine.self_us_per_step": "us",
    "dfms.server.requests": "count", "dfms.server.failed": "count",
    "dfms.server.self_s": "s",
    "dfms.gateway.requests": "count", "dfms.gateway.admitted": "count",
    "dfms.gateway.shed": "count", "dfms.gateway.coalesced": "count",
    "dfms.gateway.queue_wait_p50_s": "sim_s",
    "dfms.gateway.queue_wait_p99_s": "sim_s", "dfms.gateway.self_s": "s",
    "dfms.cache.lookups": "count", "dfms.cache.hit_ratio": "ratio",
    "dfms.cache.invalidations": "count", "dfms.cache.self_s": "s",
    "dfms.checkpoint.snapshots": "count", "dfms.checkpoint.self_s": "s",
    "grid.queries": "count", "grid.query_rows": "count",
    "grid.query_self_s": "s", "grid.replica_selections": "count",
    "grid.select_self_s": "s", "grid.writes": "count",
    "grid.write_self_s": "s", "grid.namespace_events": "count",
    "grid.self_s": "s",
    "network.transfers": "count", "network.bytes_moved": "bytes",
    "network.useful_byte_ratio": "ratio", "network.interrupted": "count",
    "network.transfer_p99_s": "sim_s", "network.self_s": "s",
    "storage.self_s": "s",
    "faults.windows": "count", "faults.self_s": "s",
    "faults.recovery.actions": "count", "faults.recovery.restarts": "count",
    "faults.recovery.self_s": "s",
    "federation.copies": "count", "federation.copies_failed": "count",
    "federation.self_s": "s",
    "federation.rls.locates": "count", "federation.rls.lrc_queries": "count",
    "federation.rls.false_positive_ratio": "ratio",
    "federation.rls.self_s": "s",
    "federation.sync.shards_published": "count",
    "federation.sync.self_s": "s",
    "ilm.actions": "count", "ilm.self_s": "s",
    "triggers.firings": "count", "triggers.self_s": "s",
    "provenance.records": "count", "provenance.self_s": "s",
    "telemetry.spans": "count", "telemetry.self_s": "s",
    "bench.self_s": "s", "trace.overhead": "ratio",
}


class BenchmarkUnavailable(Exception):
    """The program under test cannot be imported from here."""


def _import_workloads():
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchmarkUnavailable(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import workloads
    return workloads


# --------------------------------------------------------------------------
# Run record: host, source, repeat count
# --------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]),
                      encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def _source_stats():
    """Line count and sha256 of every ``.py`` file under ``src/``."""
    digest = hashlib.sha256()
    lines = 0
    for folder, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, "rb") as handle:
                    data = handle.read()
                lines += data.count(b"\n")
                digest.update(os.path.relpath(path, SRC).encode() + data)
    return lines, digest.hexdigest()


def _host() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "platform": platform.platform()}


def _spread(values) -> dict:
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, q2, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q2 = q3 = ordered[0]
    return {"median": q2, "q1": q1, "q3": q3, "n": len(ordered)}


def _peak_rss_mb() -> float:
    kilobytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kilobytes / 1024.0


# --------------------------------------------------------------------------
# Timed runs
# --------------------------------------------------------------------------


def _one_rep(workload, seed: int, scale: float):
    """Set up, run, check: (setup seconds, run seconds, outcome)."""
    gc.collect()
    began = perf_counter()
    deployment = workload.build(seed, scale)
    built = perf_counter()
    workload.run(deployment)
    ran = perf_counter()
    return built - began, ran - built, workload.check(deployment)


def _sim_metrics(outcome, quantile) -> dict:
    attempted = max(1, outcome.attempted)
    return {
        "ok_frac": (attempted - outcome.failed) / attempted,
        "sim_makespan_s": outcome.makespan,
        "sim_sojourn_p50_s": quantile(outcome.sojourns, 0.50),
        "sim_sojourn_p99_s": quantile(outcome.sojourns, 0.99),
        "sim_goodput_per_s": outcome.ops / outcome.makespan,
        "sim_admit_frac": ((outcome.offered - outcome.shed) / outcome.offered
                           if outcome.offered else 1.0),
    }


def _result(problems, outcomes, metrics: dict, units: dict) -> dict:
    """The result line: every failed operation, plus one failure per
    failed check, counts against the operations attempted; any of them
    makes the run incorrect."""
    attempted = sum(outcome.attempted for outcome in outcomes)
    failed = sum(outcome.failed for outcome in outcomes) + len(problems)
    return {"correct": not failed, "attempted": max(1, attempted),
            "failed": min(failed, max(1, attempted)),
            "metrics": {key: {"value": metrics[key], "unit": units[key]}
                        for key in units}}


def _problems(outcome, scale: float, min_samples: int):
    problems = list(outcome.violations)
    needed = min_samples if scale >= 1.0 else 1
    if len(outcome.sojourns) < needed:
        problems.append(f"{len(outcome.sojourns)} sojourn samples, "
                        f"need {needed}")
    return problems


def timed_run(name: str, seed: int, seconds: float, scale: float = 1.0):
    """Repeat the workload for ``seconds``; return (result, record)."""
    workloads = _import_workloads()
    from repro.telemetry.slo import quantile

    workload = workloads.WORKLOADS[name]
    reps = []
    began = perf_counter()
    while (len(reps) < MIN_REPS
           or perf_counter() - began < seconds):
        reps.append(_one_rep(workload, seed, scale))
    first = reps[0][2]
    problems = _problems(first, scale, workloads.MIN_SOJOURN_SAMPLES)
    digests = sorted({outcome.digest for _, _, outcome in reps})
    if len(digests) != 1:
        problems.append(f"same seed, {len(digests)} different simulated "
                        "signatures across repetitions")
    for index, (_, _, outcome) in enumerate(reps[1:], start=1):
        if outcome.violations != first.violations:
            problems.append(f"repetition {index} broke other invariants")
    setups = [setup for setup, _, _ in reps]
    rates = [outcome.ops / run for _, run, outcome in reps]
    metrics = {"setup_s": statistics.median(setups),
               "ops_per_s": statistics.median(rates),
               "peak_rss_mb": _peak_rss_mb()}
    metrics.update(_sim_metrics(first, quantile))
    # Host metrics vary by repetition; the rest are equal in every one.
    samples = {key: [value] for key, value in metrics.items()}
    samples.update(setup_s=setups, ops_per_s=rates)
    record = {
        "workload": name, "seed": seed, "scale": scale, "trace": 0,
        "seconds": seconds, "repeats": len(reps),
        "digest": first.digest,
        "metrics": {key: {"unit": END_TO_END[key], **_spread(samples[key])}
                    for key in END_TO_END},
        "sojourn_samples": len(first.sojourns),
        "ops_per_rep": first.ops,
        "fail_frac": first.failed / max(1, first.attempted),
        "sim_shed_frac": first.shed / first.offered if first.offered else 0.0,
        "run_s": [run for _, run, _ in reps],
        "problems": problems,
    }
    result = _result(problems, [outcome for _, _, outcome in reps],
                     metrics, END_TO_END)
    return result, record


# --------------------------------------------------------------------------
# Traced run
# --------------------------------------------------------------------------


def _counters(dep) -> dict:
    """Cumulative public counters of a deployment (deltas are taken
    around the traced run)."""
    grids = list(dep.grids.values())
    counters = {
        "sim.events": dep.env._eid,
        "grid.namespace_events": sum(g.events.published_count
                                     for g in grids),
        "network.bytes_moved": sum(g.transfers.total_bytes_moved
                                   for g in grids),
        "network.interrupted": sum(g.transfers.interrupted_count
                                   for g in grids),
        "provenance.records": len(dep.provenance) if dep.provenance else 0,
        "telemetry.spans": (len(dep.telemetry.tracer.finished)
                            if dep.telemetry else 0),
        "dfms.engine.step_retries": (dep.telemetry.dfms_step_retries.value
                                     if dep.telemetry else 0),
        "triggers.firings": (sum(t.firings for t in dep.triggers.triggers())
                             if dep.triggers else 0),
        "ilm.actions": dep.tallies.get("ilm_actions", 0),
        "faults.windows": sum(d.begun for d in dep.fault_drivers),
        "faults.recovery.actions": sum(s.total_actions
                                       for s in dep.recoveries),
        "faults.recovery.restarts": (dep.supervisor.restarts
                                     if dep.supervisor else 0),
    }
    if dep.cache is not None:
        stats = dep.cache.stats()
        counters["dfms.cache.lookups"] = sum(
            sum(stats[kind].values()) for kind in ("hits", "misses",
                                                   "bypasses"))
        counters["cache_hits"] = sum(stats["hits"].values())
        counters["cache_misses"] = sum(stats["misses"].values())
        counters["dfms.cache.invalidations"] = sum(
            stats["invalidations"].values())
    if dep.gateway is not None:
        gateway = dep.gateway
        counters["dfms.gateway.admitted"] = gateway.admitted
        counters["dfms.gateway.shed"] = sum(gateway.sheds.values())
        counters["dfms.gateway.coalesced"] = gateway.coalesced
    if dep.federation is not None:
        counters["federation.copies"] = (dep.federation.copies_completed
                                         + dep.federation.copies_failed)
        counters["federation.copies_failed"] = dep.federation.copies_failed
    if dep.rls is not None:
        rls = dep.rls
        counters["federation.rls.locates"] = rls.lookups
        counters["federation.rls.lrc_queries"] = rls.lrc_queries
        counters["rls_false_positives"] = rls.false_positives
        counters["federation.sync.shards_published"] = sum(
            s.shards_published for s in rls.syncers.values())
    return counters


def _layer_metrics(dep, tracer, before: dict, after: dict,
                   before_transfers: dict, untraced_s: float,
                   quantile) -> dict:
    from layers import GRID_WRITE_BODIES, GRID_WRITES

    delta = {key: after[key] - before.get(key, 0) for key in after}
    table = tracer.layer_table()
    counts = tracer.counts
    metrics = {key: 0.0 for key in PER_LAYER}
    for key in ("sim.events", "grid.namespace_events", "network.bytes_moved",
                "network.interrupted", "provenance.records",
                "telemetry.spans", "dfms.engine.step_retries",
                "triggers.firings", "ilm.actions", "faults.windows",
                "faults.recovery.actions", "faults.recovery.restarts",
                "dfms.cache.lookups", "dfms.cache.invalidations",
                "dfms.gateway.admitted", "dfms.gateway.shed",
                "dfms.gateway.coalesced", "federation.copies",
                "federation.copies_failed", "federation.rls.locates",
                "federation.rls.lrc_queries",
                "federation.sync.shards_published"):
        metrics[key] = delta.get(key, 0)
    for key in ("sim.processes", "dgl.renders", "dgl.evals",
                "dfms.engine.steps", "dfms.server.requests",
                "dfms.gateway.requests", "dfms.checkpoint.snapshots",
                "grid.query_rows", "network.transfers"):
        metrics[key] = counts.get(key, 0)
    for layer in table:
        if f"{layer}.self_s" in metrics:
            metrics[f"{layer}.self_s"] = table[layer]["self_s"]
    steps = metrics["dfms.engine.steps"]
    metrics["dfms.engine.self_us_per_step"] = (
        1e6 * metrics["dfms.engine.self_s"] / steps if steps else 0.0)
    metrics["dfms.server.failed"] = sum(
        1 for server in dep.servers for execution in server.executions()
        if execution.state.value == "failed")
    if dep.gateway is not None and dep.gateway.queue_waits:
        waits = dep.gateway.queue_waits
        metrics["dfms.gateway.queue_wait_p50_s"] = quantile(waits, 0.50)
        metrics["dfms.gateway.queue_wait_p99_s"] = quantile(waits, 0.99)
    looked_up = delta.get("cache_hits", 0) + delta.get("cache_misses", 0)
    if looked_up:
        metrics["dfms.cache.hit_ratio"] = delta["cache_hits"] / looked_up
    metrics["grid.queries"] = tracer.calls_of(
        "grid:DataGridManagementSystem.query")
    metrics["grid.query_self_s"] = tracer.self_s(
        ["grid:DataGridManagementSystem.query"])
    metrics["grid.replica_selections"] = tracer.calls_of(
        "grid:DataGridManagementSystem.select_replica")
    metrics["grid.select_self_s"] = tracer.self_s(
        ["grid:DataGridManagementSystem.select_replica"])
    write_calls = [f"grid:DataGridManagementSystem.{name}"
                   for name in GRID_WRITES]
    metrics["grid.writes"] = sum(tracer.calls_of(name)
                                 for name in write_calls)
    metrics["grid.write_self_s"] = tracer.self_s(
        write_calls + [f"grid:DataGridManagementSystem.{body}"
                       for body in GRID_WRITE_BODIES])
    # Network transfers the run completed (a same-domain "transfer"
    # crosses no link and moves nothing).
    fresh = [stats for name, grid in dep.grids.items()
             for stats in grid.transfers.completed[before_transfers[name]:]
             if stats.hops]
    if delta["network.bytes_moved"]:
        metrics["network.useful_byte_ratio"] = (
            sum(stats.nbytes for stats in fresh)
            / delta["network.bytes_moved"])
    if fresh:
        metrics["network.transfer_p99_s"] = quantile(
            [stats.end_time - stats.start_time for stats in fresh], 0.99)
    if delta.get("federation.rls.lrc_queries"):
        metrics["federation.rls.false_positive_ratio"] = (
            delta["rls_false_positives"]
            / delta["federation.rls.lrc_queries"])
    metrics["trace.overhead"] = tracer.wall_s / untraced_s
    return metrics, table


def traced_run(name: str, seed: int, scale: float = 1.0,
               spans_path: str = None):
    """One untraced and one traced run; return (result, record)."""
    workloads = _import_workloads()
    from layers import LayerTracer
    from repro.telemetry.slo import quantile

    workload = workloads.WORKLOADS[name]
    _, untraced_s, plain = _one_rep(workload, seed, scale)
    tracer = LayerTracer().install()
    try:
        gc.collect()
        deployment = workload.build(seed, scale)
        before = _counters(deployment)
        before_transfers = {name: len(grid.transfers.completed)
                            for name, grid in deployment.grids.items()}
        tracer.start()
        workload.run(deployment)
        tracer.stop()
    finally:
        tracer.uninstall()
    after = _counters(deployment)
    traced = workload.check(deployment)
    metrics, table = _layer_metrics(deployment, tracer, before, after,
                                    before_transfers, untraced_s, quantile)
    problems = _problems(traced, scale, workloads.MIN_SOJOURN_SAMPLES)
    if traced.digest != plain.digest:
        problems.append("traced run's simulated signature differs from "
                        "the untraced run's")
    if spans_path:
        tracer.write_spans(spans_path)
    record = {
        "workload": name, "seed": seed, "scale": scale, "trace": 1,
        "digest": plain.digest, "traced_digest": traced.digest,
        "untraced_s": untraced_s, "traced_s": tracer.wall_s,
        "spans": tracer.spans(), "spans_file": spans_path,
        "layers": table, "problems": problems,
    }
    return _result(problems, [plain, traced], metrics, PER_LAYER), record


# --------------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------------


def _print_table(table: dict, wall_s: float) -> None:
    print(f"{'layer':<18} {'calls':>10} {'self_s':>10} {'share':>7}")
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{layer:<18} {row['calls']:>10d} {row['self_s']:>10.4f} "
              f"{100 * row['share']:>6.1f}%")
    print(f"{'run':<18} {'':>10} {wall_s:>10.4f} {100.0:>6.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the load (self-test only)")
    args = parser.parse_args(argv)
    try:
        workloads = _import_workloads()
    except BenchmarkUnavailable as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (choose "
              f"from {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    if args.trace:
        result, record = traced_run(args.workload, args.seed, args.scale,
                                    spans_path=stem + "-spans.jsonl.gz")
        _print_table(record["layers"], record["traced_s"])
        print(f"tracing overhead: {record['traced_s']:.3f} s traced / "
              f"{record['untraced_s']:.3f} s untraced = "
              f"{result['metrics']['trace.overhead']['value']:.2f}x; "
              f"{record['spans']} spans -> {record['spans_file']}")
        print(f"simulated signature: untraced {record['digest'][:16]} "
              f"traced {record['traced_digest'][:16]}")
    else:
        result, record = timed_run(args.workload, args.seed, args.seconds,
                                   args.scale)
        print(f"simulated signature {record['digest']} over "
              f"{record['repeats']} repetitions; "
              f"{record['sojourn_samples']} sojourn samples; "
              f"fail_frac {record['fail_frac']:.4f}; "
              f"sim_shed_frac {record['sim_shed_frac']:.4f}")
    lines, source_digest = _source_stats()
    record.update(host=_host(), commit=_commit(), src_lines=lines,
                  src_sha256=source_digest, correct=result["correct"])
    with open(stem + f"-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    for problem in record["problems"][:20]:
        print(f"CHECK FAILED: {problem}")
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
