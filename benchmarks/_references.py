"""Reference models — benchmark and equivalence-test baselines only.

Each class or function here is the brute-force ground truth a production
mechanism under ``src/`` is compared against. None of them is a product
path, so they live beside the benchmarks (as ``_kernel_reference.py``
does for the kernel) rather than in the shipped package. Nothing under
``src/`` may import this module.

* :class:`GlobalRecomputeTransferService` — the global network engine:
  every start, finish, link failure or link swap re-rates *all* active
  transfers instead of just the ones sharing a touched link. E20 and
  ``tests/test_network_transfer.py`` assert its completion times are
  bit-identical to :class:`~repro.network.TransferService`'s.
* :func:`full_rates` — every active transfer's fair-share rate computed
  from scratch, for instant-by-instant rate checks.
* :func:`scan` — the brute-force query evaluation :meth:`Query.run
  <repro.grid.Query.run>`'s planner must match (E18,
  ``tests/test_grid_catalog.py``).
* :class:`FlatReplicaDirectory` — the single flat replica catalog the
  sharded two-tier RLS replaced (E25,
  ``tests/test_federation_rls.py``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.federation import ReplicaLocation
from repro.grid import DataObject, LogicalNamespace, Query
from repro.network import TransferService

__all__ = [
    "FlatReplicaDirectory",
    "GlobalRecomputeTransferService",
    "full_rates",
    "scan",
]


class GlobalRecomputeTransferService(TransferService):
    """The global re-rate engine: O(active × links) per event.

    It differs from the production engine in one method only. Both settle
    a transfer only when its rate changes, so re-rating transfers whose
    links were untouched is a no-op on their state, and completion times
    match the affected-set engine bit for bit.
    """

    def _recompute_rates_affected(self, touched) -> None:
        self._apply_rates(self._active)


def full_rates(service: TransferService) -> Dict[object, float]:
    """Every active transfer's fair-share rate, computed from scratch."""
    by_link = service._by_link
    return {
        transfer: min(link.bandwidth_bps / len(by_link[link.ends])
                      for link in transfer.links)
        for transfer in service._active
    }


def scan(query: Query, namespace: LogicalNamespace) -> List[DataObject]:
    """Brute-force evaluation of ``query`` (the pre-catalog semantics)."""
    if query.recursive:
        candidates = namespace.iter_objects(query.collection)
    else:
        parent = namespace.resolve_collection(query.collection)
        candidates = (c for c in parent.children()
                      if isinstance(c, DataObject))
    results = [obj for obj in candidates if query.matches(obj)]
    results.sort(key=lambda o: o.path)
    if query.limit is not None:
        results = results[: query.limit]
    return results


class FlatReplicaDirectory:
    """One flat list of ``(guid, location)`` rows for the whole federation.

    This is the "one big replica catalog" a non-federated deployment
    would keep. :meth:`locate` scans it, so cost grows with total
    federation size while the sharded service's lookup cost stays at
    one shard.
    """

    def __init__(self) -> None:
        self._rows: List[Tuple[str, ReplicaLocation]] = []
        self.rows_scanned = 0

    def add(self, guid: str, locations: Sequence[ReplicaLocation]) -> None:
        """Append one row per location for ``guid``."""
        for location in locations:
            self._rows.append((guid, location))

    def __len__(self) -> int:
        return len(self._rows)

    def locate(self, guid: str) -> Tuple[ReplicaLocation, ...]:
        """Scan every row for ``guid`` (cost grows with the directory)."""
        found = []
        scanned = 0
        for row_guid, location in self._rows:
            scanned += 1
            if row_guid == guid:
                found.append(location)
        self.rows_scanned += scanned
        return tuple(found)
