"""Tests for the baseline comparators and workload/scenario generators."""

import pytest

from repro.baselines import (
    ClientDisconnected,
    ClientSideEngine,
    CronScriptArchiver,
    HardwiredIntegrityPipeline,
    dgl_integrity_flow,
)
from repro.dgl import ExecutionState
from repro.errors import LogicalResourceError
from repro.sim import RandomStreams, ExecutionWindow
from repro.storage import MB
from repro.workloads import (
    bbsrc_scenario,
    cms_scenario,
    populate_collection,
    scec_scenario,
    sleep_bag_flow,
    sleep_chain_flow,
    ucsd_library_scenario,
    uniform_sizes,
)


# -- cron-script baseline -----------------------------------------------------

def test_cron_archiver_copies_everything_eventually(grid):
    for index in range(3):
        grid.put_file(f"/home/alice/f{index}.dat", size=MB)
    cron = CronScriptArchiver(grid.env, grid.dgms, grid.alice,
                              "/home/alice", "sdsc-tape", interval=3600.0)
    cron.start()

    def run_two_hours():
        yield grid.env.timeout(2 * 3600.0)
        cron.stop()

    grid.run(run_two_hours())
    grid.env.run()
    assert cron.stats.replicas_created == 3
    assert cron.stats.passes >= 1
    for index in range(3):
        obj = grid.dgms.namespace.resolve_object(f"/home/alice/f{index}.dat")
        assert any(r.physical_name == "sdsc-tape-1"
                   for r in obj.good_replicas())


def test_cron_archiver_violates_windows(grid):
    grid.put_file("/home/alice/f.dat", size=MB)
    window = ExecutionWindow.weekends()    # epoch is Monday: closed now
    cron = CronScriptArchiver(grid.env, grid.dgms, grid.alice,
                              "/home/alice", "sdsc-tape", interval=3600.0,
                              window=window)
    cron.start()

    def run_an_hour():
        yield grid.env.timeout(10.0)
        cron.stop()

    grid.run(run_an_hour())
    grid.env.run()
    # The script copied anyway, and the violation was counted.
    assert cron.stats.replicas_created == 1
    assert cron.stats.window_violations == 1


def test_two_cron_scripts_race_and_conflict(grid):
    grid.put_file("/home/alice/shared.dat", size=10 * MB)
    cron_a = CronScriptArchiver(grid.env, grid.dgms, grid.alice,
                                "/home/alice", "sdsc-tape", interval=3600.0)
    cron_b = CronScriptArchiver(grid.env, grid.dgms, grid.alice,
                                "/home/alice", "sdsc-tape", interval=3600.0)
    cron_a.start()
    cron_b.start()

    def run_briefly():
        yield grid.env.timeout(600.0)
        cron_a.stop()
        cron_b.stop()

    grid.run(run_briefly())
    grid.env.run()
    # Exactly one copy exists; the loser hit a conflict.
    obj = grid.dgms.namespace.resolve_object("/home/alice/shared.dat")
    assert len(obj.good_replicas()) == 2
    assert cron_a.stats.conflicts + cron_b.stats.conflicts == 1


# -- client-side baseline -----------------------------------------------------

def client_steps(grid, n=4):
    paths = []
    for index in range(n):
        path = f"/home/alice/c{index}.dat"
        grid.put_file(path, size=MB)
        paths.append(path)
    return [(f"sum-{index}", "checksum", {"path": path})
            for index, path in enumerate(paths)]


def test_clientside_engine_runs_steps(grid):
    engine = ClientSideEngine(grid.env, grid.dgms, grid.alice)
    steps = client_steps(grid)
    grid.run(engine.run(steps))
    assert engine.stats.steps_executed == 4
    assert engine.stats.steps_reexecuted == 0


def test_clientside_disconnect_loses_progress(grid):
    engine = ClientSideEngine(grid.env, grid.dgms, grid.alice)
    steps = [("slow-0", "sleep", {"duration": 10.0}),
             ("slow-1", "sleep", {"duration": 10.0}),
             ("slow-2", "sleep", {"duration": 10.0})]
    start = grid.env.now

    def crashing_run():
        yield from engine.run(steps, disconnect_at=start + 5.0)

    with pytest.raises(ClientDisconnected):
        grid.run(crashing_run())
    # Restart: the engine re-executes everything (no server-side journal).
    grid.run(engine.run(steps))
    assert engine.stats.disconnects == 1
    assert engine.stats.steps_reexecuted == 1   # slow-0 ran twice
    assert engine.stats.steps_executed == 4     # 1 before crash + 3 after


def test_clientside_unknown_op(grid):
    engine = ClientSideEngine(grid.env, grid.dgms, grid.alice)
    from repro.errors import ExecutionError
    with pytest.raises(ExecutionError):
        grid.run(engine.run([("x", "teleport", {})]))


# -- hard-wired baseline ------------------------------------------------------

def library_grid(grid):
    from repro.storage import GB, PhysicalStorageResource, StorageClass
    grid.dgms.register_resource(
        "library-tape", "sdsc",
        PhysicalStorageResource("library-tape-1", StorageClass.ARCHIVE,
                                1000 * GB))
    grid.dgms.create_collection(grid.alice, "/library/ingest", parents=True)
    for index in range(3):
        grid.put_file(f"/library/ingest/scan-{index}.dat", size=MB)
    return grid


def test_hardwired_pipeline_works_on_matching_infrastructure(grid):
    library_grid(grid)
    pipeline = HardwiredIntegrityPipeline(grid.env, grid.dgms, grid.alice)
    grid.run(pipeline.run())
    assert pipeline.objects_processed == 3
    obj = grid.dgms.namespace.resolve_object("/library/ingest/scan-0.dat")
    assert obj.metadata.get("md5") == obj.checksum
    assert len(obj.good_replicas()) == 2


def test_hardwired_pipeline_breaks_on_renamed_infrastructure(grid):
    """Rename the archive resource: the hard-wired code simply fails."""
    from repro.storage import GB, PhysicalStorageResource, StorageClass
    grid.dgms.register_resource(
        "library-tape-NEW", "sdsc",
        PhysicalStorageResource("library-tape-1", StorageClass.ARCHIVE,
                                1000 * GB))
    grid.dgms.create_collection(grid.alice, "/library/ingest", parents=True)
    grid.put_file("/library/ingest/scan-0.dat", size=MB)
    pipeline = HardwiredIntegrityPipeline(grid.env, grid.dgms, grid.alice)
    with pytest.raises(LogicalResourceError):
        grid.run(pipeline.run())


def test_dgl_version_retargets_by_parameter(dfms):
    """The DGL document re-targets to new infrastructure without code
    changes — the same flow builder, a different parameter."""
    dfms.dgms.create_collection(dfms.alice, "/library/ingest", parents=True)
    dfms.put_file("/library/ingest/scan-0.dat", size=MB)
    flow = dgl_integrity_flow("/library/ingest", "sdsc-tape")
    response = dfms.submit_sync(flow)
    assert response.body.state is ExecutionState.COMPLETED
    obj = dfms.dgms.namespace.resolve_object("/library/ingest/scan-0.dat")
    assert any(r.physical_name == "sdsc-tape-1" for r in obj.good_replicas())


# -- workload generators -----------------------------------------------------

def test_populate_collection_creates_metadata_and_sizes(grid):
    rng = RandomStreams(3).stream("wl")

    def go():
        paths = yield from populate_collection(
            grid.dgms, grid.alice, "/home/alice/bulk", 5, "sdsc-disk",
            size=uniform_sizes(rng, low=MB, high=2 * MB),
            metadata=lambda i: {"index": i})
        return paths

    paths = grid.run(go())
    assert len(paths) == 5
    obj = grid.dgms.namespace.resolve_object(paths[3])
    assert obj.metadata.get("index") == 3
    assert MB <= obj.size <= 2 * MB


def test_sleep_bag_and_chain_flows():
    bag = sleep_bag_flow("bag", 10, 1.0, parallel=True, max_concurrent=2)
    assert bag.count_steps() == 10
    chain = sleep_chain_flow("chain", depth=5, duration=1.0)
    assert chain.depth() == 5
    assert chain.count_steps() == 1


# -- scenarios ------------------------------------------------------------------

def test_bbsrc_scenario_shape():
    scenario = bbsrc_scenario(n_hospitals=2, files_per_hospital=3)
    assert scenario.dgms.domains.get("ral").role.value == "archiver"
    assert len(scenario.collections) == 2
    objects = list(scenario.dgms.namespace.iter_objects("/bbsrc"))
    assert len(objects) == 6
    # The archiver can act on hospital data (granted during population).
    archivist = scenario.users["archivist"]
    assert all(obj.acl.allows(archivist, 3) for obj in objects)


def test_cms_scenario_shape():
    scenario = cms_scenario(n_tier1=2, n_tier2_per_t1=1, n_events=4)
    assert len(scenario.extras["tier1"]) == 2
    assert len(scenario.extras["tier2"]) == 2
    events = list(scenario.dgms.namespace.iter_objects("/cms/run1"))
    assert len(events) == 4
    assert all(r.domain == "cern"
               for obj in events for r in obj.replicas)


def test_scec_scenario_manifest():
    scenario = scec_scenario(n_files=5)
    manifest = scenario.extras["manifest"]
    assert len(manifest) == 5
    assert all(entry["size"] > 0 for entry in manifest)
    # Nothing ingested yet: ingestion is the experiment.
    assert list(scenario.dgms.namespace.iter_objects("/scec/runs")) == []


def test_ucsd_library_scenario_population():
    scenario = ucsd_library_scenario(n_files=4)
    objects = list(scenario.dgms.namespace.iter_objects("/library/ingest"))
    assert len(objects) == 4
    assert {o.metadata.get("format") for o in objects} == {"tiff", "pdf"}


def test_scenarios_are_deterministic():
    a = bbsrc_scenario(n_hospitals=2, files_per_hospital=2, seed=9)
    b = bbsrc_scenario(n_hospitals=2, files_per_hospital=2, seed=9)
    sizes_a = [o.size for o in a.dgms.namespace.iter_objects("/bbsrc")]
    sizes_b = [o.size for o in b.dgms.namespace.iter_objects("/bbsrc")]
    assert sizes_a == sizes_b
