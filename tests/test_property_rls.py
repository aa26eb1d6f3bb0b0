"""Differential property test: the two-tier RLS against a flat directory.

hypothesis draws the zone count, the shard count and which guids each
zone holds; the sharded replica location service must then answer every
lookup exactly as the single flat catalog it replaced, touching one
shard per lookup, and unknown guids must miss in both.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks._references import FlatReplicaDirectory
from repro.federation import (
    LocalReplicaCatalog,
    ReplicaLocation,
    ReplicaLocationService,
)


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
