"""Federation of multiple datagrids (zones).

A single :class:`~repro.grid.dgms.DataGridManagementSystem` already spans
many administrative domains; *federation* goes one level up and joins
several independently-operated datagrids so users can address data in a
peer grid with ``zone:/path`` names and pull copies across grid boundaries.
This mirrors SRB zone federation, which the BBSRC/CCLRC deployment (§2.1)
relied on.

Zones share nothing below this class: each keeps its own namespace,
catalog, topology, and transfer engine. What joins them is

* the **zone name registry** (:meth:`Federation.add_zone`) — names obey
  :func:`validate_zone_name` so every ``zone:/path`` string round-trips
  through :func:`split_zone_path`;
* **bridges** (:meth:`Federation.connect_zones`) — fixed-capacity
  inter-zone hops with their own latency/bandwidth, degradable by
  zone-scoped chaos (:class:`~repro.faults.model.BridgeDegradation`);
* the **resilient cross-zone copy** — read at the source zone through
  :meth:`~repro.grid.dgms.DataGridManagementSystem.select_replica` (so an
  attached recovery service fails over between source replicas), one
  bridge hop, then a put at the target zone; retryable failures back off
  and rerun the whole leg when either zone has recovery attached;
* an attach point for the two-tier **replica location service**
  (:mod:`repro.federation.rls` sets :attr:`Federation.rls`) — duck-typed
  like ``dgms.recovery``/``dgms.cache`` so this module stays import-free
  of the federation package above it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import FederationError, ReplicaError, Retryable
from repro.grid.dgms import DataGridManagementSystem
from repro.grid.users import User
from repro.sim.kernel import Environment, Process

__all__ = ["Bridge", "Federation", "split_zone_path", "validate_zone_name",
           "qualify"]

#: Characters a zone name may not contain: the zone/path separator and
#: the path separator (either would make ``zone:/path`` ambiguous).
_FORBIDDEN_IN_ZONE = (":", "/")

#: A bridge's bandwidth and latency unless the caller says otherwise
#: (also the ad-hoc hop of a copy between unbridged zones).
BRIDGE_BANDWIDTH_BPS = 10 * 1024 * 1024
BRIDGE_LATENCY_S = 0.2


def validate_zone_name(zone: str) -> str:
    """Check ``zone`` is usable in ``zone:/path`` names; returns it.

    Zone names must be non-empty and must not contain ``:`` or ``/`` —
    exactly the property that makes :func:`split_zone_path` a bijection
    on well-formed names.
    """
    if not zone:
        raise FederationError("zone name cannot be empty")
    for char in _FORBIDDEN_IN_ZONE:
        if char in zone:
            raise FederationError(
                f"zone name {zone!r} cannot contain {char!r}")
    return zone


def split_zone_path(name: str) -> Tuple[Optional[str], str]:
    """Split ``zone:/path`` into (zone, path); zone is None for plain paths.

    The zone part must be a valid zone name (non-empty, no embedded
    ``:`` or ``/``) and the path part must be absolute; anything else
    raises :class:`~repro.errors.FederationError`. Plain absolute paths
    pass through untouched, so ``qualify(*split_zone_path(name))`` is the
    identity on every well-formed zone-qualified name.
    """
    if ":" in name and not name.startswith("/"):
        zone, _, path = name.partition(":")
        validate_zone_name(zone)
        if not path.startswith("/"):
            raise FederationError(f"malformed zone path {name!r}")
        return zone, path
    return None, name


def qualify(zone: Optional[str], path: str) -> str:
    """Inverse of :func:`split_zone_path`: ``zone:/path`` (or the plain
    path when ``zone`` is None)."""
    if zone is None:
        return path
    validate_zone_name(zone)
    if not path.startswith("/"):
        raise FederationError(f"zone-qualified path must be absolute, "
                              f"got {path!r}")
    return f"{zone}:{path}"


class Bridge:
    """A fixed-capacity inter-zone hop.

    Zones do not share a :class:`~repro.network.topology.Topology`, so
    cross-zone bytes ride a bridge: a latency plus a bandwidth that
    zone-scoped chaos can degrade (factors compose multiplicatively,
    mirroring :class:`~repro.faults.model.LinkDegradation` semantics).
    The rate is sampled when a hop starts; an in-flight hop keeps the
    rate it started with.
    """

    __slots__ = ("zone_a", "zone_b", "bandwidth_bps", "latency_s",
                 "_degradations")

    def __init__(self, zone_a: str, zone_b: str, bandwidth_bps: float,
                 latency_s: float) -> None:
        if zone_a == zone_b:
            raise FederationError(
                f"a bridge needs two distinct zones, got {zone_a!r} twice")
        if bandwidth_bps <= 0 or latency_s < 0:
            raise FederationError(
                "bridge needs positive bandwidth and non-negative latency")
        self.zone_a = zone_a
        self.zone_b = zone_b
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency_s = float(latency_s)
        # Open degradation factors, composed multiplicatively.
        self._degradations: List[float] = []

    @property
    def ends(self) -> FrozenSet[str]:
        return frozenset((self.zone_a, self.zone_b))

    @property
    def name(self) -> str:
        return "~~".join(sorted((self.zone_a, self.zone_b)))

    @property
    def effective_bandwidth_bps(self) -> float:
        """Current rate: pristine bandwidth times every open degradation."""
        bandwidth = self.bandwidth_bps
        for factor in self._degradations:
            bandwidth *= factor
        return bandwidth

    def degrade(self, factor: float) -> None:
        """Open a degradation window scaling the rate by ``factor``."""
        if not 0.0 < factor < 1.0:
            raise FederationError(
                f"degradation factor must be in (0, 1), got {factor}")
        self._degradations.append(factor)

    def restore(self, factor: float) -> None:
        """Close one degradation window opened with ``factor``."""
        self._degradations.remove(factor)

    def transfer_time(self, nbytes: float) -> float:
        """Sim seconds one hop of ``nbytes`` takes at the current rate."""
        return self.latency_s + nbytes / self.effective_bandwidth_bps

    def __repr__(self) -> str:
        return (f"Bridge({self.name}, "
                f"{self.effective_bandwidth_bps / 1e6:.1f}MB/s, "
                f"{self.latency_s}s)")


class Federation:
    """A set of named zones (datagrids) that trust each other."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._zones: Dict[str, DataGridManagementSystem] = {}
        self._bridges: Dict[FrozenSet[str], Bridge] = {}
        #: Replica location service (duck-typed; see
        #: :func:`repro.federation.rls.attach_rls`). ``None`` means
        #: :meth:`locate` is unavailable — keeping this module
        #: import-free of the federation package.
        self.rls = None
        #: Cross-zone copy outcomes, for reports that run without
        #: telemetry (telemetry mirrors them when attached).
        self.copies_completed = 0
        self.copies_failed = 0

    # -- zone registry --------------------------------------------------------

    def add_zone(self, zone_name: str, dgms: DataGridManagementSystem) -> None:
        """Join ``dgms`` to the federation as ``zone_name``.

        The zone's namespace becomes a guid authority: objects minted
        from here on carry ``guid-<zone>-`` prefixes, so guid-level
        services (the RLS) see federation-unique identities. Join zones
        *before* populating them — guids minted earlier keep their
        namespace-scoped form and may collide with a sibling zone's.
        """
        validate_zone_name(zone_name)
        if zone_name in self._zones:
            raise FederationError(f"zone {zone_name!r} already federated")
        if dgms.zone_name is not None:
            raise FederationError(
                f"datagrid {dgms.name!r} is already federated as "
                f"{dgms.zone_name!r}")
        dgms.zone_name = zone_name
        dgms.namespace.guid_authority = zone_name
        self._zones[zone_name] = dgms

    def zone(self, zone_name: str) -> DataGridManagementSystem:
        """The datagrid federated as ``zone_name`` (raises if unknown)."""
        try:
            return self._zones[zone_name]
        except KeyError:
            raise FederationError(f"unknown zone {zone_name!r}") from None

    def zones(self) -> List[str]:
        """Federated zone names, sorted."""
        return sorted(self._zones)

    def resolve(self, default_zone: str, name: str):
        """Resolve ``zone:/path`` (or a plain path in ``default_zone``)."""
        zone_name, path = split_zone_path(name)
        dgms = self.zone(zone_name or default_zone)
        return dgms, dgms.namespace.resolve(path)

    # -- bridges --------------------------------------------------------------

    def connect_zones(self, zone_a: str, zone_b: str,
                      bandwidth_bps: float = BRIDGE_BANDWIDTH_BPS,
                      latency_s: float = BRIDGE_LATENCY_S) -> Bridge:
        """Install the inter-zone bridge ``zone_a ~~ zone_b``."""
        self.zone(zone_a)
        self.zone(zone_b)
        bridge = Bridge(zone_a, zone_b, bandwidth_bps, latency_s)
        if bridge.ends in self._bridges:
            raise FederationError(f"bridge {bridge.name} already exists")
        self._bridges[bridge.ends] = bridge
        return bridge

    def bridge(self, zone_a: str, zone_b: str) -> Optional[Bridge]:
        """The registered bridge between two zones, if any."""
        return self._bridges.get(frozenset((zone_a, zone_b)))

    def bridges(self) -> List[Bridge]:
        """Every registered bridge, sorted by name."""
        return sorted(self._bridges.values(), key=lambda b: b.name)

    def bridge_cost(self, zone_a: str, zone_b: str, nbytes: float) -> float:
        """Sim seconds ``nbytes`` would take over the registered bridge
        right now (``inf`` when the zones are not bridged)."""
        if zone_a == zone_b:
            return 0.0
        bridge = self.bridge(zone_a, zone_b)
        if bridge is None:
            return float("inf")
        return bridge.transfer_time(nbytes)

    # -- replica location -----------------------------------------------------

    def locate(self, guid):
        """Federation-wide replica locations for ``guid``, through the
        attached replica location service (raises when none is)."""
        if self.rls is None:
            raise FederationError(
                "no replica location service attached; see "
                "repro.federation.rls.attach_rls")
        return self.rls.locate(guid)

    # -- cross-zone copy ------------------------------------------------------

    def cross_zone_copy(self, user: User, src_zone: str, src_path: str,
                        dst_zone: str, dst_path: str,
                        dst_logical_resource: str) -> Process:
        """Copy an object from one zone into another.

        The zones have independent namespaces and networks, so the copy is
        read-out + inter-grid hop + put-in. The hop rides the registered
        bridge between the zones when one exists; otherwise an ad-hoc
        bridge at the default bandwidth and latency (the pre-federation
        behaviour, kept so unbridged copies still work). When either zone
        has a recovery service attached, a retryable failure of any leg
        backs the whole copy off and reruns it (replicas already excluded
        by the source zone's own failover are retried fresh — an outage
        may have ended); without recovery the copy stays fail-fast.
        """
        bridge = self.bridge(src_zone, dst_zone)
        if bridge is None:
            bridge = Bridge(src_zone, dst_zone, BRIDGE_BANDWIDTH_BPS,
                            BRIDGE_LATENCY_S)
        return self.env.process(self._cross_zone_copy(
            user, src_zone, src_path, dst_zone, dst_path,
            dst_logical_resource, bridge))

    def _cross_zone_copy(self, user, src_zone, src_path, dst_zone, dst_path,
                         dst_logical_resource, bridge):
        source = self.zone(src_zone)
        target = self.zone(dst_zone)
        obj = source.namespace.resolve_object(src_path)
        recovery = target.recovery if target.recovery is not None \
            else source.recovery
        attempt = 0
        while True:
            try:
                copied = yield from self._copy_once(
                    user, source, target, obj, src_zone, src_path,
                    dst_path, dst_logical_resource, bridge)
            except Exception as exc:
                if recovery is None or not isinstance(exc, Retryable):
                    self._note_copy("failed")
                    raise
                attempt += 1
                if attempt >= recovery.policy.max_attempts:
                    self._note_copy("failed")
                    raise
                recovery.note("federation-failover",
                              src=qualify(src_zone, src_path),
                              dst=qualify(dst_zone, dst_path),
                              error=type(exc).__name__)
                yield from recovery.backoff(attempt,
                                            operation="cross_zone_copy",
                                            path=src_path)
                continue
            self._note_copy("completed")
            return copied

    def _copy_once(self, user, source, target, obj, src_zone, src_path,
                   dst_path, dst_logical_resource, bridge):
        """Generator: one attempt at read → bridge hop → put."""
        good = obj.good_replicas()
        if not good:
            raise ReplicaError(
                f"{src_path} has no good replicas in zone {src_zone}")
        # Read at the source zone, to the selected replica's own domain
        # (no WAN hop inside the source grid; the bridge below charges
        # the inter-zone cost). The anchor replica — lowest replica
        # number — only seeds the destination-domain choice; the actual
        # source replica is the nearest one to that destination, and a
        # recovery-attached get fails over between replicas on its own.
        anchor = min(good, key=lambda r: r.replica_number).domain
        replica = source.select_replica(obj, to_domain=anchor)
        yield source.get(user, src_path, to_domain=replica.domain)
        yield self.env.timeout(bridge.transfer_time(obj.size))
        self._note_bridge_bytes(obj.size)
        # The copy keeps the source guid: it is a *replica of the same
        # logical object* in another zone (the SRB federation model), so
        # guid-level services (the RLS) see one identity across zones.
        copied = yield target.put(
            user, dst_path, obj.size, dst_logical_resource,
            metadata=dict(obj.metadata.items()), guid=obj.guid)
        copied.metadata.set("federation:source", qualify(src_zone, src_path))
        return copied

    # -- accounting -----------------------------------------------------------

    def _note_copy(self, outcome: str) -> None:
        if outcome == "completed":
            self.copies_completed += 1
        else:
            self.copies_failed += 1
        telemetry = self.env.telemetry
        if telemetry is not None:
            telemetry.federation_copies.labels(outcome=outcome).inc()

    def _note_bridge_bytes(self, nbytes: float) -> None:
        telemetry = self.env.telemetry
        if telemetry is not None:
            telemetry.federation_bridge_bytes.inc(nbytes)
