"""Differential property test: a cached DGMS answers like a cache-less twin.

hypothesis draws one sequence of operations and runs it against two
identically built grids, one with a :class:`~repro.dfms.cache.DgmsCache`
attached (``max_entries`` drawn small, so capacity eviction fires too)
and one without. The mutations cover every path the cache must notice:
put, overwrite (a resize that also stales the other replicas),
set_metadata, move, delete, replicate, checksum, ACL grants, and link
outages, degradations and restores driven through the topology's
``disconnect``/``connect``, the way fault windows drive it. Catalog
queries (cacheable and checksum-conditioned, for both users) and
``select_replica`` calls (both policies, every destination domain) are
asked before and after each write — all of them when the cache can hold
them all — and each must return the same answer on both grids: the same
objects in the same order, the same replica, or the same error.

An entry lives until precise invalidation or capacity eviction drops
it; nothing expires with time, so this test is what shows no
invalidation is missing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfms.cache import attach_cache
from repro.grid import DataGridManagementSystem, DomainRole, Permission
from repro.grid.query import Condition, Op, Query
from repro.network import Topology
from repro.sim import Environment
from repro.storage import GB, MB, PhysicalStorageResource, StorageClass

#: (a, b, latency_s, bandwidth_bps): a triangle, so an outage reroutes.
LINKS = (("sdsc", "ucsd", 0.01, 100 * MB),
         ("ucsd", "ncsa", 0.02, 50 * MB),
         ("sdsc", "ncsa", 0.05, 20 * MB))
DOMAINS = ("sdsc", "ucsd", "ncsa")
RESOURCES = ("sdsc-disk", "sdsc-tape", "ucsd-disk", "ncsa-disk")
DIRS = ("/home/alice", "/home/alice/sub", "/home/shared")
NAMES = ("a.dat", "b.dat", "c.dat")
PATHS = tuple(f"{d}/{n}" for d in DIRS for n in NAMES)
SIZES = (1 * MB, 2 * MB, 3 * MB, 8 * MB)
QUERIES = (
    Query("/home"),
    Query("/home/alice", recursive=False),
    Query("/home", [Condition("meta:tag", Op.EQ, "x")]),
    Query("/home", [Condition("meta:tag", Op.EXISTS)]),
    Query("/home", [Condition("meta:tier", Op.GE, 2)]),
    Query("/home", [Condition("size", Op.GE, 2 * MB)]),
    Query("/home/alice", [Condition("size", Op.LT, 3 * MB)]),
    Query("/home", [Condition("meta:tag", Op.EQ, "y"),
                    Condition("size", Op.LE, 2 * MB)]),
    Query("/home", [Condition("name", Op.LIKE, "a*")]),
    Query("/home", limit=2),
    Query("/home", [Condition("checksum", Op.EXISTS)]),
)


class Twin:
    """One of the two grids: three domains, alice and bob, three dirs."""

    def __init__(self, max_entries=None):
        self.env = Environment()
        topology = Topology()
        for a, b, latency, bandwidth in LINKS:
            topology.connect(a, b, latency_s=latency, bandwidth_bps=bandwidth)
        dgms = self.dgms = DataGridManagementSystem(self.env, topology)
        dgms.register_domain("sdsc", DomainRole.PRODUCER)
        dgms.register_domain("ucsd", DomainRole.PARTICIPANT)
        dgms.register_domain("ncsa", DomainRole.PARTICIPANT)
        for logical, domain, storage_class in (
                ("sdsc-disk", "sdsc", StorageClass.DISK),
                ("sdsc-tape", "sdsc", StorageClass.ARCHIVE),
                ("ucsd-disk", "ucsd", StorageClass.DISK),
                ("ncsa-disk", "ncsa", StorageClass.DISK)):
            dgms.register_resource(logical, domain, PhysicalStorageResource(
                f"{logical}-1", storage_class, 100 * GB))
        self.users = {"alice": dgms.register_user("alice", "sdsc"),
                      "bob": dgms.register_user("bob", "ucsd")}
        alice = self.users["alice"]
        dgms.create_collection(alice, "/home", parents=True)
        for path in DIRS:
            dgms.create_collection(alice, path, parents=True)
        dgms.namespace.resolve("/home/shared").acl.grant(
            self.users["bob"].qualified_name, Permission.WRITE)
        self.cache = (attach_cache(dgms, max_entries=max_entries)
                      if max_entries is not None else None)

    def _run(self, process):
        def _wait():
            result = yield process
            return result

        return self.env.run_process(_wait())

    def apply(self, op):
        """Run one drawn operation; its answer, or the error it raised."""
        try:
            return ("ok", self._apply(op))
        except Exception as exc:   # both twins must fail the same way
            return ("error", type(exc).__name__, str(exc))

    def _apply(self, op):
        kind, *args = op
        dgms = self.dgms
        alice = self.users["alice"]
        if kind == "query":
            user, index = args
            return tuple((obj.path, obj.guid, obj.size) for obj in
                         dgms.query(self.users[user], QUERIES[index]))
        if kind == "select":
            path, domain, policy = args
            obj = dgms.namespace.resolve_object(path)
            replica = dgms.select_replica(obj, domain, policy)
            return (replica.replica_number, replica.domain,
                    replica.physical_name)
        if kind == "put":
            path, size, resource = args
            self._run(dgms.put(alice, path, size, resource))
        elif kind == "overwrite":
            path, size = args
            self._run(dgms.overwrite(alice, path, size))
        elif kind == "set_metadata":
            path, attribute, value = args
            dgms.set_metadata(alice, path, attribute, value)
        elif kind == "move":
            src, dst = args
            dgms.move(alice, src, dst)
        elif kind == "delete":
            self._run(dgms.delete(alice, args[0]))
        elif kind == "replicate":
            path, resource = args
            self._run(dgms.replicate(alice, path, resource))
        elif kind == "checksum":
            self._run(dgms.checksum(alice, args[0]))
        elif kind == "grant":
            path, permission = args
            dgms.grant(alice, path, self.users["bob"].qualified_name,
                       permission)
        elif kind == "outage":
            a, b, _latency, _bandwidth = LINKS[args[0]]
            dgms.topology.disconnect(a, b)
        elif kind == "degrade":
            index, factor = args
            a, b, latency, bandwidth = LINKS[index]
            dgms.topology.disconnect(a, b)
            dgms.topology.connect(a, b, latency_s=latency,
                                  bandwidth_bps=bandwidth * factor)
        elif kind == "restore":
            a, b, latency, bandwidth = LINKS[args[0]]
            dgms.topology.disconnect(a, b)
            dgms.topology.connect(a, b, latency_s=latency,
                                  bandwidth_bps=bandwidth)
        return None


paths = st.sampled_from(PATHS)
reads = st.one_of(
    st.tuples(st.just("query"), st.sampled_from(("alice", "bob")),
              st.integers(0, len(QUERIES) - 1)),
    st.tuples(st.just("select"), paths, st.sampled_from(DOMAINS),
              st.sampled_from(("nearest", "fixed"))),
)
writes = st.one_of(
    st.tuples(st.just("put"), paths, st.sampled_from(SIZES),
              st.sampled_from(RESOURCES)),
    st.tuples(st.just("overwrite"), paths, st.sampled_from(SIZES)),
    st.tuples(st.just("set_metadata"), paths,
              st.sampled_from(("tag", "tier")),
              st.sampled_from(("x", "y", 1, 3))),
    st.tuples(st.just("move"), paths, paths),
    st.tuples(st.just("delete"), paths),
    st.tuples(st.just("replicate"), paths, st.sampled_from(RESOURCES)),
    st.tuples(st.just("checksum"), paths),
    st.tuples(st.just("grant"), st.sampled_from(PATHS + DIRS),
              st.sampled_from((Permission.READ, Permission.WRITE))),
    st.tuples(st.just("outage"), st.integers(0, len(LINKS) - 1)),
    st.tuples(st.just("degrade"), st.integers(0, len(LINKS) - 1),
              st.sampled_from((0.05, 0.3))),
    st.tuples(st.just("restore"), st.integers(0, len(LINKS) - 1)),
)
#: A step asks a few reads, applies one write and asks the same reads
#: again, so an entry the write should drop is asked for after it.
steps = st.tuples(st.lists(reads, min_size=1, max_size=6), writes)
#: Every read there is. When the cache can hold all of them, each step
#: also asks all of them before and after its write.
SWEEP = tuple(("query", user, index) for user in ("alice", "bob")
              for index in range(len(QUERIES))) + tuple(
    ("select", path, domain, policy) for path in PATHS
    for domain in DOMAINS for policy in ("nearest", "fixed"))
#: Objects the reads can find before the first drawn write, each with a
#: second replica in another domain, so a link change can move the
#: nearest choice.
SEED = tuple(op for i, path in enumerate(PATHS) if i % 3 != 2 for op in (
    ("put", path, SIZES[i % len(SIZES)], ("sdsc-disk", "ucsd-disk")[i % 2]),
    ("replicate", path, ("ncsa-disk", "sdsc-tape")[i % 2])))


@settings(max_examples=200, deadline=None)
@given(max_entries=st.sampled_from((3, 4096)),
       script=st.lists(steps, min_size=1, max_size=16))
def test_cached_grid_answers_like_its_cacheless_twin(max_entries, script):
    cached, plain = Twin(max_entries), Twin()
    sweep = SWEEP if max_entries >= len(SWEEP) else ()
    ops = list(SEED)
    for probe, write in script:
        ops.extend(probe)
        ops.extend(sweep)
        ops.append(write)
        ops.extend(probe)
        ops.extend(sweep)
    for step, op in enumerate(ops):
        assert cached.apply(op) == plain.apply(op), (step, op)
        assert cached.env.now == plain.env.now
    assert len(cached.cache._queries) <= max_entries
    assert len(cached.cache._replicas) <= max_entries
