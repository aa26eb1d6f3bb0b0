"""Two-tier replica location service (RLS) for federated zones.

This follows the EU DataGrid RLS split ("Next-Generation EU DataGrid
Data Management Services", PAPERS.md): the *authoritative* tier is one
:class:`LocalReplicaCatalog` (LRC) per zone, answering "where does this
zone hold guid X" from the zone's own catalog; the *index* tier is a
sharded :class:`ReplicaLocationIndex` (RLI) holding only **compressed
digests** — one bloom filter per (shard, zone) — so the federation-wide
index stays a small constant factor of the namespace no matter how many
zones publish into it.

A :meth:`ReplicaLocationService.locate` therefore touches exactly one
shard (``crc32(guid) % n_shards``), tests each zone's digest in that
shard, and queries only the LRCs whose digest matched. Every match is
re-verified against the authoritative LRC, which yields the service's
consistency contract, **stale but never wrong**:

* a digest published before a replica appeared can make the service
  *miss* that replica (bounded by the sync period — see
  :mod:`repro.federation.sync`);
* a digest false positive or a since-deleted replica costs one wasted
  LRC query, never a wrong answer — :meth:`locate` returns only
  locations the owning zone vouches for at answer time.

Per-lookup accounting (shards touched, digests checked, LRC queries,
false positives, digest staleness) is first-class: the E25 benchmark
asserts a 1M-object locate touches only its one shard's digests, and
telemetry mirrors the counters when attached.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import FederationError

__all__ = [
    "BloomDigest",
    "LocalReplicaCatalog",
    "LocateResult",
    "ReplicaLocation",
    "ReplicaLocationIndex",
    "ReplicaLocationService",
    "attach_rls",
    "shard_of",
]

#: Default index shard count (guid-hash partitions of the RLI).
DEFAULT_SHARDS = 64

#: Bits a digest budgets per expected entry (~1–2 % false positives at
#: the 4 probes below).
BITS_PER_ENTRY = 10

#: Hash probes per digest membership test.
_PROBES = 4


def shard_of(guid: str, n_shards: int) -> int:
    """The RLI shard responsible for ``guid`` (stable guid-hash)."""
    return zlib.crc32(guid.encode()) % n_shards


def _mix(h: int) -> int:
    """32-bit avalanche finalizer (murmur3's), applied to the salted
    CRCs the digest probes derive from. CRC32 is affine over GF(2), so
    without this every same-length guid in one shard (fixed
    ``crc32 % n_shards``) would land its probes on the *same* bit
    positions — a 100% false-positive digest. The multiplies are
    carry-propagating, which breaks the affinity."""
    h &= 0xFFFFFFFF
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & 0xFFFFFFFF
    h ^= h >> 16
    return h


class ReplicaLocation(NamedTuple):
    """One zone-qualified replica location, as the RLS reports it."""

    zone: str
    domain: str
    logical_resource: str
    physical_name: str


class BloomDigest:
    """A compressed membership summary of one LRC shard.

    Plain bloom filter over a ``bytearray`` bit set: :attr:`_PROBES`
    probe positions per key derived by double hashing two salted,
    :func:`_mix`-finalized CRC32s (deterministic across runs and
    processes — no :func:`hash`, which randomizes per interpreter; and
    decorrelated from the CRC-based shard partition, which raw salted
    CRCs are not). False positives at the configured load are ~1–2 %;
    false negatives are impossible, which is what lets the index tier
    promise "stale but never wrong" after LRC verification.
    """

    __slots__ = ("n_bits", "bits", "count")

    def __init__(self, n_bits: int) -> None:
        if n_bits < 8:
            n_bits = 8
        self.n_bits = n_bits
        self.bits = bytearray((n_bits + 7) // 8)
        self.count = 0

    @classmethod
    def for_capacity(cls, n_entries: int,
                     bits_per_entry: int = BITS_PER_ENTRY) -> "BloomDigest":
        """A digest sized for ``n_entries`` keys."""
        return cls(max(64, n_entries * bits_per_entry))

    def _probes(self, guid: str) -> Iterable[int]:
        data = guid.encode()
        h1 = _mix(zlib.crc32(b"rls-a:" + data))
        h2 = _mix(zlib.crc32(b"rls-b:" + data)) | 1
        n_bits = self.n_bits
        for i in range(_PROBES):
            yield (h1 + i * h2) % n_bits

    def add(self, guid: str) -> None:
        """Set ``guid``'s probe bits (irreversible, as blooms are)."""
        bits = self.bits
        for position in self._probes(guid):
            bits[position >> 3] |= 1 << (position & 7)
        self.count += 1

    def might_contain(self, guid: str) -> bool:
        """Membership test: False is definitive, True may be a false
        positive (the caller verifies against the authoritative LRC)."""
        bits = self.bits
        for position in self._probes(guid):
            if not bits[position >> 3] & (1 << (position & 7)):
                return False
        return True

    @property
    def size_bytes(self) -> int:
        """Digest wire size — what a zone actually ships to the index."""
        return len(self.bits)


class LocalReplicaCatalog:
    """Tier 1: one zone's authoritative guid → locations catalog.

    Two modes share one surface:

    * **live** (``dgms`` given): membership mirrors the zone's
      :class:`~repro.grid.catalog.GridCatalog` through its change-listener
      feed, and :meth:`locations` resolves through the live namespace —
      answers are authoritative by construction. Registration/deregistration
      notifies :attr:`listeners` (the digest syncer's dirty feed).
    * **synthetic** (``dgms`` None): entries are added directly with
      :meth:`add` — the benchmark path, where millions of locations would
      be too heavy to back with real namespace objects.
    """

    def __init__(self, zone_name: str, dgms=None) -> None:
        self.zone_name = zone_name
        self.dgms = dgms
        #: Membership-change listeners: ``listener(guid)`` after a guid
        #: joins or leaves this catalog.
        self.listeners = []
        self._static: Dict[str, Tuple[ReplicaLocation, ...]] = {}
        #: Authoritative queries answered (the "wasted query" accounting
        #: for digest false positives lives at the service level).
        self.queries = 0
        if dgms is not None:
            dgms.namespace.catalog.listeners.append(self._on_catalog_change)

    # -- live mode ------------------------------------------------------------

    def _on_catalog_change(self, kind: str, obj, attribute) -> None:
        if kind in ("register", "deregister"):
            for listener in self.listeners:
                listener(obj.guid)

    # -- synthetic mode -------------------------------------------------------

    def add(self, guid: str,
            locations: Sequence[ReplicaLocation] = ()) -> None:
        """Record ``guid`` with static ``locations`` (synthetic mode)."""
        if self.dgms is not None:
            raise FederationError(
                f"LRC {self.zone_name!r} mirrors a live datagrid; "
                "synthetic entries would shadow it")
        self._static[guid] = tuple(locations)
        for listener in self.listeners:
            listener(guid)

    def discard(self, guid: str) -> None:
        """Drop a synthetic entry (no-op when absent)."""
        if self._static.pop(guid, None) is not None:
            for listener in self.listeners:
                listener(guid)

    # -- the shared surface ---------------------------------------------------

    def guids(self) -> List[str]:
        """Every guid this zone holds, in registration order."""
        if self.dgms is not None:
            return self.dgms.namespace.guids()
        return list(self._static)

    def __len__(self) -> int:
        if self.dgms is not None:
            return len(self.dgms.namespace.catalog)
        return len(self._static)

    def locations(self, guid: str) -> Tuple[ReplicaLocation, ...]:
        """Authoritative locations for ``guid`` here, now (may be empty).

        This is the verification step of every index hit: whatever the
        digest claimed, only what the zone actually holds is returned.
        """
        self.queries += 1
        if self.dgms is not None:
            obj = self.dgms.namespace.lookup_guid(guid)
            if obj is None:
                return ()
            return tuple(
                ReplicaLocation(self.zone_name, replica.domain,
                                replica.logical_resource,
                                replica.physical_name)
                for replica in obj.good_replicas())
        return self._static.get(guid, ())


class _ZoneDigest:
    """One (shard, zone) cell of the index: a digest plus its publish time."""

    __slots__ = ("digest", "published_at")

    def __init__(self, digest: BloomDigest, published_at: float) -> None:
        self.digest = digest
        self.published_at = published_at


class ReplicaLocationIndex:
    """Tier 2: the sharded index of zone digests.

    ``n_shards`` hash-partitions of the guid space; each shard holds one
    digest per publishing zone. The index never stores a guid or a
    location — membership claims come compressed, answers come from the
    authoritative tier.
    """

    def __init__(self, n_shards: int = DEFAULT_SHARDS) -> None:
        if n_shards < 1:
            raise FederationError(f"need at least 1 shard, got {n_shards}")
        self.n_shards = n_shards
        self._shards: List[Dict[str, _ZoneDigest]] = [
            {} for _ in range(n_shards)]

    def shard_of(self, guid: str) -> int:
        """The shard responsible for ``guid`` under this index's count."""
        return shard_of(guid, self.n_shards)

    def publish(self, zone_name: str, shard_index: int,
                digest: BloomDigest, published_at: float) -> None:
        """Replace ``zone_name``'s digest for one shard."""
        self._shards[shard_index][zone_name] = _ZoneDigest(digest,
                                                           published_at)

    def withdraw(self, zone_name: str) -> None:
        """Drop every digest a (decommissioned) zone published."""
        for shard in self._shards:
            shard.pop(zone_name, None)

    def candidates(self, guid: str) -> Tuple[int, List[Tuple[str, float]]]:
        """The shard index and the ``(zone, published_at)`` pairs whose
        digest claims ``guid`` — the only zones worth querying."""
        index = self.shard_of(guid)
        shard = self._shards[index]
        matched = [(zone_name, cell.published_at)
                   for zone_name, cell in shard.items()
                   if cell.digest.might_contain(guid)]
        return index, matched

    def digests_in_shard(self, shard_index: int) -> int:
        """How many zones currently publish a digest into this shard."""
        return len(self._shards[shard_index])

    @property
    def size_bytes(self) -> int:
        """Total compressed index size across all shards and zones."""
        return sum(cell.digest.size_bytes
                   for shard in self._shards for cell in shard.values())


class LocateResult(NamedTuple):
    """One :meth:`ReplicaLocationService.locate` answer plus its receipts."""

    guid: str
    locations: Tuple[ReplicaLocation, ...]
    shard: int
    shards_touched: int
    digests_checked: int
    lrc_queries: int
    false_positives: int
    #: Age (sim seconds) of the *oldest* digest consulted; 0.0 when no
    #: digest matched or no clock is attached.
    max_staleness_s: float

    @property
    def found(self) -> bool:
        return bool(self.locations)


class ReplicaLocationService:
    """The federation-facing face of both tiers.

    Holds the LRC registry and the sharded index, answers
    :meth:`locate`, and keeps the service-level accounting. ``env`` is
    optional so the index scaling benchmark can run the service as a
    plain data structure; with an environment attached, digest staleness
    is measured in sim time and telemetry counters are mirrored.
    """

    def __init__(self, env=None, n_shards: int = DEFAULT_SHARDS) -> None:
        self.env = env
        self.index = ReplicaLocationIndex(n_shards)
        self._lrcs: Dict[str, LocalReplicaCatalog] = {}
        #: Zone name → :class:`~repro.federation.sync.DigestSyncer`, when
        #: :func:`attach_rls` wires eventually-consistent publication.
        self.syncers: Dict[str, object] = {}
        #: Service counters (telemetry mirrors them when attached).
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.false_positives = 0
        self.lrc_queries = 0
        self.shards_touched = 0

    @property
    def now(self) -> float:
        return self.env.now if self.env is not None else 0.0

    # -- zone membership ------------------------------------------------------

    def add_zone(self, lrc: LocalReplicaCatalog,
                 publish: bool = True) -> LocalReplicaCatalog:
        """Register a zone's LRC (publishing its current digests unless
        a syncer will — see :func:`repro.federation.sync.attach_rls`)."""
        if lrc.zone_name in self._lrcs:
            raise FederationError(
                f"zone {lrc.zone_name!r} already publishes to this index")
        self._lrcs[lrc.zone_name] = lrc
        if publish:
            self.publish_zone(lrc.zone_name)
        return lrc

    def lrc(self, zone_name: str) -> LocalReplicaCatalog:
        """The registered LRC for ``zone_name`` (raises if unknown)."""
        try:
            return self._lrcs[zone_name]
        except KeyError:
            raise FederationError(
                f"zone {zone_name!r} does not publish here") from None

    def zone_names(self) -> List[str]:
        """Zones publishing into this service, sorted."""
        return sorted(self._lrcs)

    # -- publishing -----------------------------------------------------------

    def _shard_guids(self, lrc: LocalReplicaCatalog
                     ) -> Dict[int, List[str]]:
        partitions: Dict[int, List[str]] = {}
        n_shards = self.index.n_shards
        for guid in lrc.guids():
            partitions.setdefault(shard_of(guid, n_shards), []).append(guid)
        return partitions

    def publish_zone(self, zone_name: str) -> None:
        """(Re)build and publish every shard digest for one zone."""
        lrc = self.lrc(zone_name)
        partitions = self._shard_guids(lrc)
        now = self.now
        for shard_index in range(self.index.n_shards):
            guids = partitions.get(shard_index, ())
            digest = BloomDigest.for_capacity(len(guids))
            for guid in guids:
                digest.add(guid)
            self.index.publish(zone_name, shard_index, digest, now)

    def publish_shards(self, zone_name: str,
                       shard_indexes: Sequence[int]) -> None:
        """Rebuild and publish just ``shard_indexes`` for one zone (the
        dirty-shard path the digest syncer drives)."""
        lrc = self.lrc(zone_name)
        wanted = set(shard_indexes)
        if not wanted:
            return
        partitions: Dict[int, List[str]] = {index: [] for index in wanted}
        n_shards = self.index.n_shards
        for guid in lrc.guids():
            index = shard_of(guid, n_shards)
            if index in wanted:
                partitions[index].append(guid)
        now = self.now
        for shard_index in sorted(wanted):
            guids = partitions[shard_index]
            digest = BloomDigest.for_capacity(len(guids))
            for guid in guids:
                digest.add(guid)
            self.index.publish(zone_name, shard_index, digest, now)

    # -- lookups --------------------------------------------------------------

    def locate(self, guid: str) -> LocateResult:
        """Federation-wide locations for ``guid``, stale-but-never-wrong.

        One shard, a digest test per publishing zone in that shard, an
        authoritative LRC query per digest match — and only
        LRC-confirmed locations in the answer.
        """
        now = self.now
        shard_index, candidates = self.index.candidates(guid)
        digests_checked = self.index.digests_in_shard(shard_index)
        locations: List[ReplicaLocation] = []
        false_positives = 0
        max_staleness = 0.0
        for zone_name, published_at in candidates:
            staleness = max(0.0, now - published_at)
            if staleness > max_staleness:
                max_staleness = staleness
            found = self._lrcs[zone_name].locations(guid)
            if found:
                locations.extend(found)
            else:
                false_positives += 1
        result = LocateResult(
            guid=guid, locations=tuple(locations), shard=shard_index,
            shards_touched=1, digests_checked=digests_checked,
            lrc_queries=len(candidates), false_positives=false_positives,
            max_staleness_s=max_staleness)
        self._account(result)
        return result

    def _account(self, result: LocateResult) -> None:
        self.lookups += 1
        self.shards_touched += result.shards_touched
        self.lrc_queries += result.lrc_queries
        self.false_positives += result.false_positives
        if result.found:
            self.hits += 1
        else:
            self.misses += 1
        if self.env is None:
            return
        telemetry = self.env.telemetry
        if telemetry is None:
            return
        outcome = "hit" if result.found else "miss"
        telemetry.rls_lookups.labels(outcome=outcome).inc()
        telemetry.rls_shards_touched.inc(result.shards_touched)
        if result.lrc_queries:
            telemetry.rls_digest_checks.labels(outcome="match").inc(
                result.lrc_queries - result.false_positives)
            telemetry.rls_digest_checks.labels(outcome="false-positive").inc(
                result.false_positives)
        rejected = result.digests_checked - result.lrc_queries
        if rejected:
            telemetry.rls_digest_checks.labels(outcome="reject").inc(rejected)
        telemetry.rls_staleness.observe(result.max_staleness_s)

    def flush_all(self) -> None:
        """Flush every zone's pending digest publications immediately
        (convergence helper for end-of-run checks; no-op without
        syncers)."""
        for zone_name in sorted(self.syncers):
            self.syncers[zone_name].flush_now()

    def stats(self) -> Dict[str, object]:
        """A plain-dict snapshot for reports and benchmarks."""
        return {
            "zones": len(self._lrcs),
            "n_shards": self.index.n_shards,
            "index_bytes": self.index.size_bytes,
            "lookups": self.lookups, "hits": self.hits,
            "misses": self.misses,
            "false_positives": self.false_positives,
            "lrc_queries": self.lrc_queries,
            "shards_touched": self.shards_touched,
        }


def attach_rls(federation, n_shards: int = DEFAULT_SHARDS,
               sync_period_s: Optional[float] = None,
               streams=None) -> ReplicaLocationService:
    """Wire a two-tier RLS onto ``federation`` and return it.

    Builds one live :class:`LocalReplicaCatalog` per federated zone,
    registers each with a fresh :class:`ReplicaLocationService`, and sets
    ``federation.rls`` (the duck-typed attach point
    :meth:`~repro.grid.federation.Federation.locate` resolves through).

    With ``sync_period_s`` set, digest propagation is *eventually
    consistent*: each zone gets a seeded
    :class:`~repro.federation.sync.DigestSyncer` that batches catalog
    changes and republishes dirty shards one jittered period later —
    bounded staleness, visible in sim time. Without it, digests are
    republished synchronously on every change (the zero-staleness mode
    unit tests use).
    """
    from repro.federation.sync import DigestSyncer

    if federation.rls is not None:
        raise FederationError("federation already has an RLS attached")
    service = ReplicaLocationService(federation.env, n_shards)
    for zone_name in federation.zones():
        lrc = LocalReplicaCatalog(zone_name, federation.zone(zone_name))
        service.add_zone(lrc, publish=True)
        if sync_period_s is not None:
            service.syncers[zone_name] = DigestSyncer(
                federation.env, service, lrc,
                period_s=sync_period_s, streams=streams)
        else:
            lrc.listeners.append(
                lambda guid, z=zone_name, s=service:
                s.publish_shards(z, [s.index.shard_of(guid)]))
    federation.rls = service
    return service
