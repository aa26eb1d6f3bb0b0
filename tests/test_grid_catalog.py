"""Catalog + query-planner tests: equivalence, invalidation, determinism.

The planner (:meth:`Query.run`) must return byte-identical results to the
brute-force reference ``scan`` (``benchmarks/_references.py``) on any
namespace, including after moves, removes, metadata updates, and
overwrites — the catalog indexes are only allowed to make it faster,
never different.
"""

import random

import pytest

from benchmarks._references import scan
from repro.grid import (
    Condition,
    DataObject,
    LogicalNamespace,
    Op,
    Query,
    Replica,
    User,
    parse_conditions,
)

ALICE = User("alice", "sdsc")

STAGES = ["raw", "cooked", "final"]
TAGS = [1, 2, "2", 2.0, "x"]


def build_random_namespace(seed: int, n_objects: int = 120) -> LogicalNamespace:
    """A namespace with random nesting, metadata, and sizes."""
    rng = random.Random(seed)
    ns = LogicalNamespace()
    collections = ["/"]
    for index in range(8):
        parent = rng.choice(collections)
        path = (parent.rstrip("/") or "") + f"/c{index}"
        ns.create_collection(path, ALICE, 0.0)
        collections.append(path)
    for index in range(n_objects):
        parent = rng.choice(collections)
        path = (parent.rstrip("/") or "") + f"/o{index:04d}.dat"
        obj = ns.create_object(path, rng.randint(0, 5000), ALICE, 0.0)
        if rng.random() < 0.8:
            obj.metadata.set("stage", rng.choice(STAGES))
        if rng.random() < 0.3:
            obj.metadata.set("tag", rng.choice(TAGS))
        if rng.random() < 0.1:
            obj.metadata.set("rare", "yes")
    return ns


def random_query(rng: random.Random, ns: LogicalNamespace) -> Query:
    pool = [
        Condition("meta:stage", Op.EQ, rng.choice(STAGES)),
        Condition("meta:stage", Op.EXISTS),
        Condition("meta:tag", Op.EQ, rng.choice(TAGS)),
        Condition("meta:tag", Op.NE, rng.choice(TAGS)),
        Condition("meta:rare", Op.EQ, "yes"),
        Condition("size", Op.GT, rng.randint(0, 5000)),
        Condition("size", Op.LE, rng.randint(0, 5000)),
        Condition("name", Op.LIKE, "*.dat"),
        Condition("name", Op.CONTAINS, str(rng.randint(0, 9))),
    ]
    conditions = rng.sample(pool, k=rng.randint(0, 3))
    collections = ["/"] + [c.path for c, _, _ in ns.walk("/") if c.path != "/"]
    return Query(collection=rng.choice(collections), conditions=conditions,
                 recursive=rng.random() < 0.9,
                 limit=rng.choice([None, None, 1, 5]))


def assert_equivalent(query: Query, ns: LogicalNamespace) -> None:
    planned = [o.path for o in query.run(ns)]
    scanned = [o.path for o in scan(query, ns)]
    assert planned == scanned, (
        f"planner diverged from scan for {query}: {planned} != {scanned}")


# -- planner vs scan equivalence ----------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_planner_equals_scan_on_random_namespaces(seed):
    ns = build_random_namespace(seed)
    rng = random.Random(1000 + seed)
    for _ in range(40):
        assert_equivalent(random_query(rng, ns), ns)


@pytest.mark.parametrize("seed", range(4))
def test_planner_equals_scan_after_mutations(seed):
    ns = build_random_namespace(seed)
    rng = random.Random(2000 + seed)
    for round_number in range(12):
        objects = list(ns.iter_objects("/"))
        action = rng.choice(["move", "remove", "meta_set", "meta_del",
                             "resize", "move_collection"])
        if action == "move" and objects:
            obj = rng.choice(objects)
            dst = f"/c0/moved-{round_number}.dat"
            if not ns.exists(dst) and ns.exists("/c0"):
                ns.move(obj.path, dst)
        elif action == "remove" and objects:
            ns.remove(rng.choice(objects).path)
        elif action == "meta_set" and objects:
            rng.choice(objects).metadata.set("stage", rng.choice(STAGES))
        elif action == "meta_del" and objects:
            rng.choice(objects).metadata.remove("stage")
        elif action == "resize" and objects:
            rng.choice(objects).size = rng.randint(0, 5000)
        elif action == "move_collection":
            subtrees = [c.path for c, _, _ in ns.walk("/")
                        if c.path.count("/") == 1 and c.path != "/"]
            if subtrees:
                src = rng.choice(subtrees)
                dst = f"/moved-{round_number}"
                if not ns.exists(dst):
                    ns.move(src, dst)
        for _ in range(8):
            assert_equivalent(random_query(rng, ns), ns)


# -- targeted invalidation cases ----------------------------------------------

def small_namespace():
    ns = LogicalNamespace()
    ns.create_collection("/data/raw", ALICE, 0.0, parents=True)
    a = ns.create_object("/data/raw/a.dat", 100.0, ALICE, 0.0)
    b = ns.create_object("/data/raw/b.dat", 200.0, ALICE, 0.0)
    a.metadata.set("stage", "raw")
    b.metadata.set("stage", "raw")
    return ns, a, b


def stage_query(collection="/"):
    return Query(collection=collection,
                 conditions=[Condition("meta:stage", Op.EQ, "raw")])


def test_index_updates_on_metadata_change():
    ns, a, b = small_namespace()
    assert len(stage_query().run(ns)) == 2
    a.metadata.set("stage", "final")
    assert [o.path for o in stage_query().run(ns)] == ["/data/raw/b.dat"]
    a.metadata.remove("stage")
    exists = Query(conditions=[Condition("meta:stage", Op.EXISTS)])
    assert [o.path for o in exists.run(ns)] == ["/data/raw/b.dat"]


def test_index_updates_on_remove_and_move():
    ns, a, b = small_namespace()
    ns.remove("/data/raw/a.dat")
    assert [o.path for o in stage_query().run(ns)] == ["/data/raw/b.dat"]
    ns.move("/data/raw", "/archive")
    results = stage_query().run(ns)
    assert [o.path for o in results] == ["/archive/b.dat"]
    # Scoping honors the *new* subtree.
    assert stage_query("/data").run(ns) == []
    assert [o.path for o in stage_query("/archive").run(ns)] == ["/archive/b.dat"]


def test_moved_subtree_paths_are_recomputed():
    ns, a, b = small_namespace()
    assert a.path == "/data/raw/a.dat"
    ns.move("/data/raw", "/data/cooked")
    assert a.path == "/data/cooked/a.dat"
    assert b.path == "/data/cooked/b.dat"
    ns.move("/data", "/top")
    assert a.path == "/top/cooked/a.dat"


def test_size_index_follows_overwrite():
    ns, a, b = small_namespace()
    big = Query(conditions=[Condition("size", Op.GT, 150)])
    assert [o.path for o in big.run(ns)] == ["/data/raw/b.dat"]
    a.size = 500.0
    assert [o.path for o in big.run(ns)] == ["/data/raw/a.dat",
                                             "/data/raw/b.dat"]
    assert_equivalent(big, ns)


def test_guid_lookup_and_query():
    ns, a, b = small_namespace()
    assert ns.lookup_guid(a.guid) is a
    assert ns.lookup_guid("guid-nonexistent") is None
    by_guid = Query(conditions=[Condition("guid", Op.EQ, b.guid)])
    assert by_guid.run(ns) == [b]
    ns.remove("/data/raw/b.dat")
    assert ns.lookup_guid(b.guid) is None
    assert by_guid.run(ns) == []


def test_limit_early_exit_matches_scan():
    ns = build_random_namespace(99, n_objects=60)
    unindexed = Query(collection="/",
                      conditions=[Condition("name", Op.LIKE, "*.dat")],
                      limit=5)
    assert_equivalent(unindexed, ns)
    indexed = Query(collection="/",
                    conditions=[Condition("meta:stage", Op.EQ, "raw")],
                    limit=3)
    assert_equivalent(indexed, ns)


def test_detached_subtree_is_not_queryable():
    ns, a, b = small_namespace()
    detached = ns.remove("/data/raw/a.dat")
    assert detached is a
    assert len(stage_query().run(ns)) == 1
    # Mutating a detached object's metadata must not corrupt the catalog.
    a.metadata.set("stage", "raw")
    assert len(stage_query().run(ns)) == 1
    assert_equivalent(stage_query(), ns)


# -- deterministic identities -------------------------------------------------

def build_twice(builder):
    def run():
        ns = LogicalNamespace()
        return builder(ns)
    return run(), run()


def test_guids_are_namespace_scoped_and_repeatable():
    def builder(ns):
        ns.create_collection("/d", ALICE, 0.0)
        return [ns.create_object(f"/d/o{i}", 1.0, ALICE, 0.0).guid
                for i in range(5)]
    first, second = build_twice(builder)
    assert first == second
    assert first == [f"guid-{i:08d}" for i in range(1, 6)]


def test_replica_numbers_are_namespace_scoped():
    def builder(ns):
        ns.create_collection("/d", ALICE, 0.0)
        obj = ns.create_object("/d/o", 1.0, ALICE, 0.0)
        ids = []
        for name in ("disk-1", "disk-2"):
            replica = Replica(obj.guid, "lr", "sdsc", name, 0.0,
                              replica_number=ns.next_replica_number())
            obj.add_replica(replica)
            ids.append(replica.allocation_id)
        return ids
    first, second = build_twice(builder)
    assert first == second
    assert first == ["guid-00000001#1", "guid-00000001#2"]


def test_standalone_guids_cannot_collide_with_namespace_guids():
    standalone = DataObject("f", 1.0, ALICE, 0.0)
    ns = LogicalNamespace()
    ns.create_collection("/d", ALICE, 0.0)
    managed = ns.create_object("/d/o", 1.0, ALICE, 0.0)
    assert standalone.guid.startswith("guid-local-")
    assert managed.guid != standalone.guid


# -- parser regression --------------------------------------------------------

def test_parse_conditions_quote_aware_and():
    conds = parse_conditions("meta:note = 'R AND D' AND size > 5")
    assert conds == [Condition("meta:note", Op.EQ, "R AND D"),
                     Condition("size", Op.GT, 5)]


def test_parse_conditions_double_quoted_and():
    conds = parse_conditions('meta:note = "A AND B AND C"')
    assert conds == [Condition("meta:note", Op.EQ, "A AND B AND C")]


def test_parse_conditions_and_inside_word_not_split():
    (cond,) = parse_conditions("meta:brand = OPERAND")
    assert cond == Condition("meta:brand", Op.EQ, "OPERAND")
