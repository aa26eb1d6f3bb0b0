"""Tests for the memoizing DGMS cache tier: hits, capacity, precise
invalidation via the catalog change feed, replica-choice staleness
stamps (fault windows included), and ACL safety."""

import pytest

from repro.dfms.cache import DgmsCache, attach_cache
from repro.grid.acl import Permission
from repro.grid.query import Condition, Op, Query
from repro.storage import MB


@pytest.fixture
def cached(grid):
    cache = attach_cache(grid.dgms)
    return grid, cache


def hot_query(collection="/home", conditions=()):
    return Query(collection=collection, conditions=list(conditions))


# -- attach surface ----------------------------------------------------------


def test_attach_is_idempotent_and_detach_unwires(grid):
    cache = attach_cache(grid.dgms)
    assert attach_cache(grid.dgms) is cache
    assert grid.dgms.cache is cache
    assert cache._on_catalog_change in grid.dgms.namespace.catalog.listeners
    cache.detach()
    assert grid.dgms.cache is None
    assert grid.dgms.namespace.catalog.listeners == []


# -- query caching -----------------------------------------------------------


def test_repeated_query_hits_and_returns_equal_results(cached):
    grid, cache = cached
    grid.put_file("/home/alice/a.dat")
    grid.put_file("/home/alice/b.dat")
    first = grid.dgms.query(grid.alice, hot_query())
    second = grid.dgms.query(grid.alice, hot_query())
    assert first == second
    assert cache.hits["query"] == 1
    assert cache.misses["query"] == 1


def test_query_cache_is_keyed_per_caller(cached):
    grid, cache = cached
    obj = grid.put_file("/home/alice/secret.dat")
    obj.acl.revoke(grid.bob.qualified_name)
    obj.acl.revoke("*")
    assert grid.dgms.query(grid.alice, hot_query()) == [obj]
    # Bob's identical query fills (and then hits) his own entry, with
    # his own visibility — never alice's.
    assert grid.dgms.query(grid.bob, hot_query()) == []
    assert grid.dgms.query(grid.bob, hot_query()) == []
    assert cache.misses["query"] == 2
    assert cache.hits["query"] == 1


def test_grant_through_the_dgms_invalidates_query_entries(cached):
    grid, cache = cached
    obj = grid.put_file("/home/alice/secret.dat")
    obj.acl.revoke(grid.bob.qualified_name)
    obj.acl.revoke("*")
    assert grid.dgms.query(grid.bob, hot_query()) == []
    grid.dgms.grant(grid.alice, "/home/alice/secret.dat",
                    grid.bob.qualified_name, Permission.READ)
    assert grid.dgms.query(grid.bob, hot_query()) == [obj]
    assert cache.invalidations["acl"] >= 1


def test_new_object_invalidates_query_entries(cached):
    grid, cache = cached
    grid.put_file("/home/alice/a.dat")
    assert len(grid.dgms.query(grid.alice, hot_query())) == 1
    grid.put_file("/home/alice/b.dat")
    assert len(grid.dgms.query(grid.alice, hot_query())) == 2
    assert cache.invalidations.get("register", 0) >= 1


def test_delete_invalidates_query_entries(cached):
    grid, cache = cached
    grid.put_file("/home/alice/a.dat")
    assert len(grid.dgms.query(grid.alice, hot_query())) == 1

    def _delete():
        yield grid.dgms.delete(grid.alice, "/home/alice/a.dat")

    grid.run(_delete())
    assert grid.dgms.query(grid.alice, hot_query()) == []


def test_metadata_change_evicts_only_matching_conditions(cached):
    grid, cache = cached
    obj = grid.put_file("/home/alice/a.dat")
    obj.metadata.set("stage", "raw")
    stage = hot_query(conditions=[Condition("meta:stage", Op.EQ, "raw")])
    plain = hot_query()
    assert grid.dgms.query(grid.alice, stage) == [obj]
    assert grid.dgms.query(grid.alice, plain) == [obj]
    obj.metadata.set("stage", "cooked")
    # The stage-conditioned entry was dropped; the unconditioned one
    # survived the metadata change.
    assert grid.dgms.query(grid.alice, stage) == []
    assert cache.invalidations["metadata"] == 1
    grid.dgms.query(grid.alice, plain)
    assert cache.hits["query"] == 1


def test_move_invalidates_through_the_catalog_feed(cached):
    grid, cache = cached
    grid.put_file("/home/alice/a.dat")
    narrowed = hot_query(collection="/home/alice")
    assert len(grid.dgms.query(grid.alice, narrowed)) == 1
    grid.dgms.create_collection(grid.alice, "/home/attic")
    grid.dgms.move(grid.alice, "/home/alice/a.dat", "/home/attic/a.dat")
    assert grid.dgms.query(grid.alice, narrowed) == []


def test_checksum_conditions_bypass_the_cache(cached):
    grid, cache = cached
    grid.put_file("/home/alice/a.dat")
    query = hot_query(conditions=[Condition("checksum", Op.EXISTS, None)])
    assert grid.dgms.query(grid.alice, query) == []

    def _checksum():
        yield grid.dgms.checksum(grid.alice, "/home/alice/a.dat")

    grid.run(_checksum())
    assert len(grid.dgms.query(grid.alice, query)) == 1
    assert cache.bypasses["query"] == 2
    assert cache.misses["query"] == 0


def test_capacity_evicts_oldest_entry(grid):
    cache = DgmsCache(grid.dgms, max_entries=2).attach()
    grid.put_file("/home/alice/a.dat")
    for collection in ("/home", "/home/alice", "/"):
        grid.dgms.query(grid.alice, hot_query(collection))
    assert len(cache._queries) == 2
    assert cache.evictions["capacity"] == 1
    grid.dgms.query(grid.alice, hot_query("/home"))   # evicted → miss
    assert cache.misses["query"] == 4


# -- replica-choice caching --------------------------------------------------


def _get(grid, path="/home/alice/a.dat", to="ucsd"):
    def _go():
        yield grid.dgms.get(grid.alice, path, to)

    grid.run(_go())


def test_repeated_replica_selection_hits(cached):
    grid, cache = cached
    grid.put_file("/home/alice/a.dat", size=4 * MB)
    _get(grid)
    _get(grid)
    assert cache.hits["replica"] == 1
    assert cache.misses["replica"] == 1


def test_replica_change_invalidates_choice(cached):
    grid, cache = cached
    obj = grid.put_file("/home/alice/a.dat", size=4 * MB)
    choice = grid.dgms.select_replica(obj, "ucsd")
    assert grid.dgms.select_replica(obj, "ucsd") is choice

    def _replicate():
        yield grid.dgms.replicate(grid.alice, "/home/alice/a.dat",
                                  "ucsd-disk")

    grid.run(_replicate())
    fresh = grid.dgms.select_replica(obj, "ucsd")
    # The new local replica wins; the stale cached choice was dropped.
    assert fresh.domain == "ucsd"
    assert cache.evictions["stale"] == 1


def test_topology_version_bump_evicts_replica_choice(cached):
    """A degraded/restored link must evict affected replica choices —
    fault windows drive the topology through disconnect/connect, each of
    which bumps the version the cache stamps entries with."""
    grid, cache = cached
    obj = grid.put_file("/home/alice/a.dat", size=4 * MB)
    grid.dgms.select_replica(obj, "ucsd")
    grid.dgms.topology.disconnect("sdsc", "ucsd")
    grid.dgms.topology.connect("sdsc", "ucsd", latency_s=0.01,
                               bandwidth_bps=MB)
    grid.dgms.select_replica(obj, "ucsd")
    assert cache.evictions["stale"] == 1
    assert cache.misses["replica"] == 2


def test_exclude_lookups_bypass_the_cache(cached):
    grid, cache = cached
    obj = grid.put_file("/home/alice/a.dat", size=4 * MB)

    def _replicate():
        yield grid.dgms.replicate(grid.alice, "/home/alice/a.dat",
                                  "ucsd-disk")

    grid.run(_replicate())
    cached_choice = grid.dgms.select_replica(obj, "ucsd")
    before = (cache.hits["replica"], cache.misses["replica"])
    excluded = grid.dgms.select_replica(
        obj, "ucsd", exclude={cached_choice.replica_number})
    assert excluded is not cached_choice
    # The failover lookup never touched the cache.
    assert (cache.hits["replica"], cache.misses["replica"]) == before
