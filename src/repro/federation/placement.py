"""Cross-zone replica placement policies.

"A Taxonomy of Data Grids" (PAPERS.md) frames replica placement as a
trade between locality, dispersion, and transport cost; these are the
three policies the federation ships, all deterministic (ties break on
zone name) so placement decisions replay bit-identically:

* ``local-first`` — serve from the destination zone when it already
  holds the object, otherwise prefer zone-name order: the cheapest
  answer when bridges are uniform and the reader cares only about
  avoiding the WAN;
* ``bridge-cost-aware`` — rank candidate source zones by what the hop
  would cost *right now* (`Federation.bridge_cost`, which sees open
  :class:`~repro.faults.model.BridgeDegradation` windows), so a degraded
  bridge loses its preference for exactly its degradation window;
* ``k-zones-spread`` — pick the ``k`` zones an object should fan out to
  for survivability, preferring zones that do not yet hold it and, among
  those, the emptiest (then name order) — the dispersion side of the
  taxonomy.

The source-selection policies feed
:meth:`~repro.grid.federation.Federation.cross_zone_copy` through
:func:`cross_zone_copy_by_guid`; within the chosen zone the copy still
goes through :meth:`~repro.grid.dgms.DataGridManagementSystem.
select_replica`, so intra-zone choice (and failover) stays the DGMS's.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import FederationError
from repro.grid.federation import Federation
from repro.sim.kernel import Process

__all__ = [
    "PLACEMENT_POLICIES",
    "cross_zone_copy_by_guid",
    "rank_source_zones",
    "select_source_zone",
    "spread_zones",
]

PLACEMENT_POLICIES = ("local-first", "bridge-cost-aware", "k-zones-spread")


def _holder_zones(locations: Iterable) -> List[str]:
    """Distinct zones out of RLS locations, first-seen order."""
    zones: Dict[str, None] = {}
    for location in locations:
        zones[location.zone] = None
    return list(zones)


def rank_source_zones(federation: Federation, locations: Sequence,
                      dst_zone: str, nbytes: float = 0.0,
                      policy: str = "bridge-cost-aware") -> List[str]:
    """Holder zones ordered best-source-first for a copy into ``dst_zone``.

    ``locations`` is an RLS answer (:attr:`LocateResult.locations` or any
    sequence with ``.zone``). The destination zone itself, when it holds
    the object, always ranks first — a copy from yourself is free.
    """
    holders = _holder_zones(locations)
    if policy == "local-first":
        return sorted(holders,
                      key=lambda zone: (0 if zone == dst_zone else 1, zone))
    if policy == "bridge-cost-aware":
        return sorted(holders,
                      key=lambda zone: (federation.bridge_cost(
                          zone, dst_zone, nbytes), zone))
    raise FederationError(
        f"unknown source-selection policy {policy!r} "
        f"(expected one of {PLACEMENT_POLICIES[:2]})")


def select_source_zone(federation: Federation, guid: str, dst_zone: str,
                       nbytes: float = 0.0,
                       policy: str = "bridge-cost-aware") -> Optional[str]:
    """The zone a copy of ``guid`` into ``dst_zone`` should read from.

    Resolves holders through the federation's RLS and ranks them; the
    destination zone is excluded (nothing to copy). ``None`` when the
    RLS knows no other holder — possibly staleness, possibly loss; the
    caller decides whether to wait out the sync bound or fail.
    """
    result = federation.locate(guid)
    ranked = rank_source_zones(federation, result.locations, dst_zone,
                               nbytes=nbytes, policy=policy)
    for zone in ranked:
        if zone != dst_zone:
            return zone
    return None


def spread_zones(federation: Federation, guid: str, k: int) -> List[str]:
    """The ``k-zones-spread`` targets for ``guid``: zones to copy into.

    Prefers zones that (per the RLS) do not hold the object yet; among
    them the emptiest first (live zones by namespace size), names
    breaking ties. Zones already holding the object fill the tail when
    fewer than ``k`` non-holders exist, so the answer always has
    ``min(k, zones)`` entries.
    """
    if k < 0:
        raise FederationError(f"k cannot be negative: {k}")
    result = federation.locate(guid)
    holding = {zone: None for zone in _holder_zones(result.locations)}

    def load(zone_name: str) -> int:
        return len(federation.zone(zone_name).namespace.catalog)

    ranked = sorted(
        federation.zones(),
        key=lambda zone: (1 if zone in holding else 0, load(zone), zone))
    return ranked[:k]


def cross_zone_copy_by_guid(federation: Federation, user, guid: str,
                            dst_zone: str, dst_path: str,
                            dst_logical_resource: str,
                            policy: str = "bridge-cost-aware") -> Process:
    """Placement-driven copy: locate ``guid``, pick the source zone by
    ``policy``, and run the federation's resilient cross-zone copy.

    This is the read path that replaces hand-picked source zones: the
    RLS says who holds the object, the placement policy says who to read
    from, and :meth:`Federation.cross_zone_copy` says how (select_replica
    within the zone + recovery-aware retries).
    """
    result = federation.locate(guid)
    # Size matters to the cost ranking; take it from the first holder
    # that still has the object (RLS answers are verified at answer
    # time, but a holder can vanish between locate and here).
    obj_size = 0.0
    for zone in _holder_zones(result.locations):
        candidate = federation.zone(zone).namespace.lookup_guid(guid)
        if candidate is not None:
            obj_size = candidate.size
            break
    ranked = rank_source_zones(federation, result.locations, dst_zone,
                               nbytes=obj_size, policy=policy)
    for src_zone in ranked:
        if src_zone == dst_zone:
            continue
        obj = federation.zone(src_zone).namespace.lookup_guid(guid)
        if obj is not None:
            return federation.cross_zone_copy(
                user, src_zone, obj.path, dst_zone, dst_path,
                dst_logical_resource)
    raise FederationError(
        f"no zone other than {dst_zone!r} is known to hold {guid!r} "
        "(replica location may be stale; retry after the sync bound)")
