"""Differential property tests: the two-tier RLS against its references.

* hypothesis draws the zone count, the shard count and which guids each
  zone holds; the sharded replica location service must then answer
  every lookup exactly as the single flat catalog it replaced, touching
  one shard per lookup, and unknown guids must miss in both.
* hypothesis draws interleavings of catalog changes (synthetic adds and
  discards; live puts, deletes and cross-zone copies) and publications
  (``publish_shards``, ``publish_zone``, syncer flushes, sync timers);
  after every publication each (shard, zone) digest built from the
  service's membership index must equal, bit for bit, the digest a
  rescan of the zone builds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks._references import (
    FlatReplicaDirectory,
    rescan_publish_shards,
)
from repro.federation import (
    LocalReplicaCatalog,
    ReplicaLocation,
    ReplicaLocationIndex,
    ReplicaLocationService,
    federation_scenario,
)
from repro.grid.acl import Permission


def guid(index):
    return f"guid-test-{index:08d}"


def location(zone):
    return ReplicaLocation(zone, f"{zone}-d0", f"{zone}-d0-disk",
                           f"{zone}-d0-disk-1")


@settings(max_examples=30, deadline=None)
@given(n_zones=st.integers(1, 6), n_shards=st.integers(1, 16),
       data=st.data())
def test_sharded_rls_matches_the_flat_directory(n_zones, n_shards, data):
    pool = [guid(i) for i in range(30)]
    service = ReplicaLocationService(n_shards=n_shards)
    flat = FlatReplicaDirectory()
    for z in range(n_zones):
        zone = f"z{z}"
        lrc = LocalReplicaCatalog(zone)
        service.add_zone(lrc, publish=False)
        held = data.draw(st.lists(st.sampled_from(pool), unique=True,
                                  max_size=len(pool)), label=zone)
        for g in held:
            lrc.add(g, [location(zone)])
            flat.add(g, [location(zone)])
        service.publish_zone(zone)
    unknown = [f"absent-{i:08d}" for i in range(10)]
    for g in pool + unknown:
        result = service.locate(g)
        assert result.shards_touched == 1
        assert sorted(result.locations) == sorted(flat.locate(g))
    assert not any(service.locate(g).found or flat.locate(g)
                   for g in unknown)


# -- incremental digests against a rescan -------------------------------------


def cells(index):
    """Every (shard, zone) cell of ``index``, in publication order."""
    return [[(zone, cell.published_at, cell.digest.n_bits,
              bytes(cell.digest.bits), cell.digest.count)
             for zone, cell in shard.items()]
            for shard in index._shards]


class RescanMirror:
    """Republishes every publication of ``service`` by rescanning the
    zone into a shadow index, and asserts the two indexes agree."""

    def __init__(self, service):
        self.service = service
        self.shadow = ReplicaLocationIndex(service.index.n_shards)
        for zone in service.zone_names():
            rescan_publish_shards(service.lrc(zone), self.shadow,
                                  range(service.index.n_shards), service.now)
        self.check()
        publish_shards = service.publish_shards
        publish_zone = service.publish_zone

        def mirrored_shards(zone, shard_indexes):
            publish_shards(zone, shard_indexes)
            self._rescan(zone, shard_indexes)

        def mirrored_zone(zone):
            publish_zone(zone)
            self._rescan(zone, range(service.index.n_shards))

        service.publish_shards = mirrored_shards
        service.publish_zone = mirrored_zone

    def _rescan(self, zone, shard_indexes):
        rescan_publish_shards(self.service.lrc(zone), self.shadow,
                              shard_indexes, self.service.now)
        self.check()

    def check(self):
        assert cells(self.service.index) == cells(self.shadow)


def synthetic_world(n_shards):
    """Two synthetic zones, one starting with 24 guids (enough that its
    shards outgrow the smallest digest size), one empty."""
    service = ReplicaLocationService(n_shards=n_shards)
    for zone, held in (("s0", 24), ("s1", 0)):
        lrc = LocalReplicaCatalog(zone)
        for i in range(held):
            lrc.add(guid(i), [location(zone)])
        service.add_zone(lrc)
    return service, RescanMirror(service)


class LiveWorld:
    """A two-zone federation driven one operation at a time."""

    def __init__(self, n_shards, sync_period_s):
        self.scenario = federation_scenario(
            n_zones=2, domains_per_zone=1, objects_per_zone=8,
            n_shards=n_shards, sync_period_s=sync_period_s,
            replicate_within_zone=False)
        self.mirror = RescanMirror(self.scenario.rls)
        self.serial = 0

    def paths(self, zone):
        namespace = self.scenario.zones[zone].namespace
        return sorted(obj.path for obj in namespace.iter_objects("/"))

    def put(self, zone):
        scenario = self.scenario
        self.serial += 1
        path = f"/data/new-{self.serial:04d}.dat"

        def go():
            obj = yield scenario.zones[zone].put(
                scenario.admins[zone], path, 1024, f"{zone}-d0-disk")
            obj.acl.grant("*", Permission.READ)
        scenario.run(go())

    def delete(self, zone, pick):
        paths = self.paths(zone)
        if not paths:
            return
        scenario = self.scenario

        def go():
            yield scenario.zones[zone].delete(scenario.admins[zone],
                                              paths[pick % len(paths)])
        scenario.run(go())

    def copy(self, src, pick):
        scenario = self.scenario
        dst = "z1" if src == "z0" else "z0"
        # A zone refuses a second object with a guid it already holds.
        source = scenario.zones[src].namespace
        held = scenario.zones[dst].namespace
        paths = [path for path in self.paths(src)
                 if held.lookup_guid(source.resolve_object(path).guid)
                 is None]
        if not paths:
            return
        self.serial += 1

        path = f"/data/copy-{self.serial:04d}.dat"

        def go():
            yield scenario.federation.cross_zone_copy(
                scenario.admins[dst], src, paths[pick % len(paths)], dst,
                path, f"{dst}-d0-disk")
            # World-readable like every scenario object, so it can be
            # copied back.
            scenario.zones[dst].namespace.resolve_object(path).acl.grant(
                "*", Permission.READ)
        scenario.run(go())

    def flush(self, zone):
        syncer = self.scenario.rls.syncers.get(zone)
        if syncer is not None:
            syncer.flush_now()

    def advance(self):
        env = self.scenario.env
        env.run(until=env.now + 5.0)


ZONES = st.sampled_from(["z0", "z1"])
SYNTHETIC_ZONES = st.sampled_from(["s0", "s1"])
GUIDS = st.integers(0, 31).map(guid)
OPERATIONS = st.one_of(
    st.tuples(st.just("add"), SYNTHETIC_ZONES, GUIDS),
    st.tuples(st.just("discard"), SYNTHETIC_ZONES, GUIDS),
    st.tuples(st.just("synthetic-publish"), SYNTHETIC_ZONES,
              st.lists(st.integers(0, 5), max_size=4)),
    st.tuples(st.just("synthetic-publish-zone"), SYNTHETIC_ZONES),
    st.tuples(st.just("put"), ZONES),
    st.tuples(st.just("delete"), ZONES, st.integers(0, 99)),
    st.tuples(st.just("copy"), ZONES, st.integers(0, 99)),
    st.tuples(st.just("live-publish"), ZONES,
              st.lists(st.integers(0, 5), max_size=4)),
    st.tuples(st.just("flush"), ZONES),
    st.tuples(st.just("advance")),
)


@settings(max_examples=60, deadline=None)
@given(n_shards=st.integers(1, 6),
       sync_period_s=st.sampled_from([None, 4.0]),
       operations=st.lists(OPERATIONS, min_size=5, max_size=30))
def test_incremental_digests_match_a_rescan(n_shards, sync_period_s,
                                            operations):
    synthetic, synthetic_mirror = synthetic_world(n_shards)
    live = LiveWorld(n_shards, sync_period_s)
    for kind, *args in operations:
        if kind == "add":
            synthetic.lrc(args[0]).add(args[1], [location(args[0])])
        elif kind == "discard":
            synthetic.lrc(args[0]).discard(args[1])
        elif kind == "synthetic-publish":
            synthetic.publish_shards(
                args[0], [shard % n_shards for shard in args[1]])
        elif kind == "synthetic-publish-zone":
            synthetic.publish_zone(args[0])
        elif kind == "live-publish":
            live.scenario.rls.publish_shards(
                args[0], [shard % n_shards for shard in args[1]])
        else:
            getattr(live, kind)(*args)
    live.scenario.rls.flush_all()
    for zone in synthetic.zone_names():
        synthetic.publish_shards(zone, range(n_shards))
    synthetic_mirror.check()
    live.mirror.check()
