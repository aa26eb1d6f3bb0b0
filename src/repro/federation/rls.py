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

Publication reads a per-zone membership index the service keeps beside
the LRCs (``{guid: packed probe hash}`` per shard, fed by the LRC change
listeners), so republishing a dirty shard costs that shard's members,
not a rescan of the zone.

Per-lookup accounting (shards touched, digests checked, LRC queries,
false positives, digest staleness) is first-class: the E25 benchmark
asserts a 1M-object locate touches only its one shard's digests, and
telemetry mirrors the counters when attached.
"""

from __future__ import annotations

import zlib
from typing import (
    Collection, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

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


#: CRC32 of the two probe salts: ``crc32(data, _SALT_A)`` is
#: ``crc32(b"rls-a:" + data)`` without building the salted bytes.
_SALT_A = zlib.crc32(b"rls-a:")
_SALT_B = zlib.crc32(b"rls-b:")

_LOW32 = 0xFFFFFFFF


def _packed_hash(guid: str) -> int:
    """``guid``'s two probe hashes packed as ``h1 << 32 | h2``.

    Every digest test and digest build derives its probe positions from
    this one int (see :class:`BloomDigest`); the membership index keeps
    it per guid, one small int rather than a pair, so a republish never
    re-hashes a member.
    """
    data = guid.encode()
    return (_mix(zlib.crc32(data, _SALT_A)) << 32
            | _mix(zlib.crc32(data, _SALT_B)) | 1)


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

    @classmethod
    def of_hashes(cls, hashes: Collection[int]) -> "BloomDigest":
        """A digest sized for and holding the guids whose packed hashes
        (:func:`_packed_hash`) are ``hashes`` — bit for bit the digest
        :meth:`for_capacity` plus one :meth:`add` per guid builds, in one
        pass over cached hashes (no guid is re-hashed)."""
        digest = cls.for_capacity(len(hashes))
        bits, n_bits = digest.bits, digest.n_bits
        for packed in hashes:   # the _PROBES (4) probes, unrolled
            h1 = packed >> 32
            h2 = packed & _LOW32
            position = h1 % n_bits
            bits[position >> 3] |= 1 << (position & 7)
            h1 += h2
            position = h1 % n_bits
            bits[position >> 3] |= 1 << (position & 7)
            h1 += h2
            position = h1 % n_bits
            bits[position >> 3] |= 1 << (position & 7)
            h1 += h2
            position = h1 % n_bits
            bits[position >> 3] |= 1 << (position & 7)
        digest.count = len(hashes)
        return digest

    def add(self, guid: str) -> None:
        """Set ``guid``'s probe bits (irreversible, as blooms are)."""
        packed = _packed_hash(guid)
        h1, h2 = packed >> 32, packed & _LOW32
        bits, n_bits = self.bits, self.n_bits
        for _ in range(_PROBES):
            position = h1 % n_bits
            bits[position >> 3] |= 1 << (position & 7)
            h1 += h2
        self.count += 1

    def might_contain(self, guid: str) -> bool:
        """Membership test: False is definitive, True may be a false
        positive (the caller verifies against the authoritative LRC)."""
        return self.contains_hash(_packed_hash(guid))

    def contains_hash(self, packed: int) -> bool:
        """:meth:`might_contain` for a guid already hashed by
        :func:`_packed_hash` (a locate hashes once for every zone)."""
        h1, h2 = packed >> 32, packed & _LOW32
        bits, n_bits = self.bits, self.n_bits
        for _ in range(_PROBES):
            position = h1 % n_bits
            if not bits[position >> 3] & (1 << (position & 7)):
                return False
            h1 += h2
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

    def holds(self, guid: str) -> bool:
        """Whether this zone holds ``guid`` now — membership only; unlike
        :meth:`locations` it is not counted as an authoritative query."""
        if self.dgms is not None:
            return self.dgms.namespace.lookup_guid(guid) is not None
        return guid in self._static

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

    def candidates(self, guid: str) -> Tuple[int, List[Tuple[str, float]]]:
        """The shard index and the ``(zone, published_at)`` pairs whose
        digest claims ``guid`` — the only zones worth querying. The guid
        is hashed once, whatever the number of zone digests tested."""
        index = self.shard_of(guid)
        packed = _packed_hash(guid)
        matched = [(zone_name, cell.published_at)
                   for zone_name, cell in self._shards[index].items()
                   if cell.digest.contains_hash(packed)]
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
        #: Zone name → per-shard membership index: ``{guid: packed
        #: probe hash}`` for every guid the zone's LRC holds, the source
        #: every digest publish reads instead of rescanning the zone.
        self._members: Dict[str, List[Dict[str, int]]] = {}
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
        #: ``(metric, outcome)`` → labelled telemetry series (see
        #: :meth:`_series`).
        self._outcome_series: Dict[Tuple[object, str], object] = {}

    @property
    def now(self) -> float:
        return self.env.now if self.env is not None else 0.0

    # -- zone membership ------------------------------------------------------

    def add_zone(self, lrc: LocalReplicaCatalog,
                 publish: bool = True) -> LocalReplicaCatalog:
        """Register a zone's LRC (publishing its current digests unless
        a syncer will — see :func:`repro.federation.sync.attach_rls`).

        The zone's membership index is seeded from
        :meth:`LocalReplicaCatalog.guids` and kept current by a listener
        registered here — ahead of any digest syncer's, so a publish
        always reads the catalog's current membership.
        """
        zone_name = lrc.zone_name
        if zone_name in self._lrcs:
            raise FederationError(
                f"zone {zone_name!r} already publishes to this index")
        self._lrcs[zone_name] = lrc
        self._seed(zone_name)
        lrc.listeners.append(
            lambda guid, zone_name=zone_name:
            self._track(zone_name, guid))
        if publish:
            self.publish_zone(zone_name)
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

    def _seed(self, zone_name: str) -> None:
        """Rebuild one zone's membership index from its LRC."""
        n_shards = self.index.n_shards
        members: List[Dict[str, int]] = [{} for _ in range(n_shards)]
        for guid in self._lrcs[zone_name].guids():
            members[shard_of(guid, n_shards)][guid] = _packed_hash(guid)
        self._members[zone_name] = members

    def _track(self, zone_name: str, guid: str) -> None:
        """Follow one LRC membership change into the index."""
        shard = self._members[zone_name][shard_of(guid,
                                                  self.index.n_shards)]
        if self._lrcs[zone_name].holds(guid):
            if guid not in shard:
                shard[guid] = _packed_hash(guid)
        else:
            shard.pop(guid, None)

    def publish_zone(self, zone_name: str) -> None:
        """Re-seed one zone's membership index from its LRC, then
        rebuild and publish every shard digest. A caller that changes an
        LRC behind its listeners (a bulk load into ``_static``) calls
        this to bring the index back in step."""
        self.lrc(zone_name)
        self._seed(zone_name)
        self._publish(zone_name, range(self.index.n_shards))

    def publish_shards(self, zone_name: str,
                       shard_indexes: Sequence[int]) -> None:
        """Rebuild and publish just ``shard_indexes`` for one zone (the
        dirty-shard path the digest syncer drives). Costs the members of
        those shards, not the zone."""
        self.lrc(zone_name)
        self._publish(zone_name, sorted(set(shard_indexes)))

    def _publish(self, zone_name: str, shard_indexes: Sequence[int]) -> None:
        members = self._members[zone_name]
        now = self.now
        for shard_index in shard_indexes:
            self.index.publish(
                zone_name, shard_index,
                BloomDigest.of_hashes(members[shard_index].values()), now)

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
        series = self._series
        outcome = "hit" if result.found else "miss"
        series(telemetry.rls_lookups, outcome).inc()
        telemetry.rls_shards_touched.inc(result.shards_touched)
        if result.lrc_queries:
            checks = telemetry.rls_digest_checks
            series(checks, "match").inc(
                result.lrc_queries - result.false_positives)
            series(checks, "false-positive").inc(result.false_positives)
        rejected = result.digests_checked - result.lrc_queries
        if rejected:
            series(telemetry.rls_digest_checks, "reject").inc(rejected)
        telemetry.rls_staleness.observe(result.max_staleness_s)

    def _series(self, metric, outcome: str):
        """``metric``'s series for one ``outcome`` label, looked up once
        per metric (a hot-path reference, as :mod:`repro.telemetry.metrics`
        recommends)."""
        key = (metric, outcome)
        child = self._outcome_series.get(key)
        if child is None:
            child = self._outcome_series[key] = metric.labels(
                outcome=outcome)
        return child

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
