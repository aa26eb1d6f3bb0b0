"""E18: MCAT-style catalog — indexed queries vs namespace scans.

The SRB's MCAT answers namespace/metadata queries from indexes instead of
walking collections. This experiment measures the reproduction's catalog
(`repro.grid.catalog.GridCatalog` + the `Query.run` planner) against the
brute-force subtree scan (`scan` in `_references.py`) at growing
namespace sizes, for a selective metadata-equality query, an
attribute-existence query, and a size-range query. Selective indexed queries must be at least 10x
faster than the scan by 10k objects.

Results land in ``BENCH_catalog.json`` at the repo root.

Set ``CATALOG_BENCH_SIZES`` (comma-separated) to override the populated
sizes — CI smoke runs ``1000,10000`` to keep wall time down.
"""

import json
import os
import time
from pathlib import Path

from _references import scan
from repro.grid import Condition, LogicalNamespace, Op, Query, User

DEFAULT_SIZES = [1_000, 10_000, 100_000]
SPEEDUP_GATE = 10.0       # selective indexed query vs scan at 10k objects
RARE_EVERY = 100          # 1% of objects carry the selective attribute
N_COLLECTIONS = 64

_REPO_ROOT = Path(__file__).resolve().parents[1]
_RESULT_PATH = _REPO_ROOT / "BENCH_catalog.json"


def bench_sizes():
    raw = os.environ.get("CATALOG_BENCH_SIZES", "")
    if not raw:
        return list(DEFAULT_SIZES)
    return [int(part) for part in raw.split(",") if part.strip()]


def build_namespace(n_objects: int) -> LogicalNamespace:
    owner = User("curator", "sdsc")
    ns = LogicalNamespace()
    for index in range(N_COLLECTIONS):
        ns.create_collection(f"/data/c{index:03d}", owner, 0.0, parents=True)
    for index in range(n_objects):
        path = f"/data/c{index % N_COLLECTIONS:03d}/obj-{index:07d}.dat"
        obj = ns.create_object(path, float(index % 4096), owner, 0.0)
        obj.metadata.set("stage", ("raw", "cooked", "final")[index % 3])
        if index % RARE_EVERY == 0:
            obj.metadata.set("flagged", "yes")
    return ns


def best_of(callable_, repeats: int = 5) -> float:
    """Best-of-N wall time in seconds (best filters scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


QUERIES = [
    ("meta-eq (selective)",
     Query(conditions=[Condition("meta:flagged", Op.EQ, "yes")])),
    ("meta-exists",
     Query(conditions=[Condition("meta:flagged", Op.EXISTS)])),
    ("size-range",
     Query(conditions=[Condition("size", Op.LT, 40)])),
    ("meta-eq limit-10",
     Query(conditions=[Condition("meta:stage", Op.EQ, "raw")], limit=10)),
]


def test_e18_catalog_vs_scan(benchmark, experiment):
    report = experiment(
        "E18", "MCAT-style catalog: indexed queries vs namespace scan",
        header=["objects", "query", "matches", "indexed_ms", "scan_ms",
                "speedup"],
        expectation="selective indexed queries are >=10x faster than a "
                    "full scan by 10k objects, and the gap widens with "
                    "namespace size")
    rows = []
    speedup_at_10k = None
    for n_objects in bench_sizes():
        ns = build_namespace(n_objects)
        # Fewer repeats at the large end: the scan alone costs ~100ms+.
        repeats = 5 if n_objects <= 10_000 else 3
        for label, query in QUERIES:
            indexed = query.run(ns)
            scanned = scan(query, ns)
            assert [o.path for o in indexed] == [o.path for o in scanned]
            indexed_s = best_of(lambda: query.run(ns), repeats)
            scan_s = best_of(lambda: scan(query, ns), repeats)
            speedup = scan_s / indexed_s if indexed_s > 0 else float("inf")
            report.row(n_objects, label, len(indexed),
                       indexed_s * 1e3, scan_s * 1e3, speedup)
            rows.append({
                "objects": n_objects,
                "query": label,
                "matches": len(indexed),
                "indexed_ms": round(indexed_s * 1e3, 4),
                "scan_ms": round(scan_s * 1e3, 4),
                "speedup": round(speedup, 1),
            })
            if n_objects == 10_000 and label == "meta-eq (selective)":
                speedup_at_10k = speedup

    report.conclusion = (
        "catalog answers selective queries in near-constant time while "
        "scan cost grows linearly with namespace size")

    # The gate only arms when the sweep includes 10k objects.
    gate_passed = (None if speedup_at_10k is None
                   else speedup_at_10k >= SPEEDUP_GATE)
    _RESULT_PATH.write_text(json.dumps({
        "experiment": "E18",
        "title": "catalog indexed queries vs namespace scan",
        "sizes": bench_sizes(),
        "rare_every": RARE_EVERY,
        "rows": rows,
        "gate": SPEEDUP_GATE,
        "gate_passed": gate_passed,
    }, indent=2) + "\n")

    if speedup_at_10k is not None:
        assert gate_passed, (
            f"selective indexed query only {speedup_at_10k:.1f}x faster "
            f"than scan at 10k objects (needs >={SPEEDUP_GATE:.0f}x)")
        benchmark.extra_info["speedup_at_10k"] = round(speedup_at_10k, 1)

    ns = build_namespace(1_000)
    query = QUERIES[0][1]
    benchmark.pedantic(lambda: query.run(ns), rounds=10, iterations=5)
