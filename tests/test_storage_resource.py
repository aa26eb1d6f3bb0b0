"""Unit tests for simulated physical storage resources."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CapacityExceeded, StorageError, StorageFailure
from repro.sim import RandomStreams
from repro.storage import (
    FailureInjector,
    GB,
    MB,
    PhysicalStorageResource,
    StorageClass,
)


def make_disk(capacity=10 * GB, failures=None):
    return PhysicalStorageResource(
        "disk-1", StorageClass.DISK, capacity, failures=failures)


def test_capacity_must_be_positive():
    with pytest.raises(StorageError):
        PhysicalStorageResource("x", StorageClass.DISK, 0)


def test_write_allocates_and_returns_duration():
    disk = make_disk()
    duration = disk.write("obj-1", 100 * MB)
    assert duration > 0
    assert disk.holds("obj-1")
    assert disk.used_bytes == 100 * MB
    assert disk.free_bytes == 10 * GB - 100 * MB


def test_duplicate_write_rejected():
    disk = make_disk()
    disk.write("obj-1", MB)
    with pytest.raises(StorageError, match="already holds"):
        disk.write("obj-1", MB)


def test_write_beyond_capacity_rejected():
    disk = make_disk(capacity=1 * GB)
    with pytest.raises(CapacityExceeded):
        disk.write("big", 2 * GB)
    assert not disk.holds("big")
    assert disk.used_bytes == 0


def test_read_unknown_object_rejected():
    disk = make_disk()
    with pytest.raises(StorageError, match="does not hold"):
        disk.read("ghost")


def test_delete_frees_space():
    disk = make_disk()
    disk.write("obj-1", GB)
    disk.delete("obj-1")
    assert not disk.holds("obj-1")
    assert disk.used_bytes == 0


def test_offline_resource_refuses_operations():
    disk = make_disk()
    disk.write("obj-1", MB)
    disk.online = False
    with pytest.raises(StorageError, match="offline"):
        disk.read("obj-1")
    with pytest.raises(StorageError, match="offline"):
        disk.write("obj-2", MB)


def test_stats_track_operations():
    disk = make_disk()
    disk.write("a", MB)
    disk.write("b", 2 * MB)
    disk.read("a")
    disk.delete("b")
    assert disk.stats.writes == 2
    assert disk.stats.reads == 1
    assert disk.stats.deletes == 1
    assert disk.stats.bytes_written == 3 * MB
    assert disk.stats.bytes_read == MB
    assert disk.stats.busy_seconds > 0


def test_read_time_scales_with_object_size():
    disk = make_disk()
    disk.write("small", MB)
    disk.write("large", 100 * MB)
    assert disk.read("large") > disk.read("small")


def test_retention_cost_of_current_contents():
    disk = make_disk()
    assert disk.retention_cost(3600.0) == 0.0
    disk.write("obj", GB)
    assert disk.retention_cost(3600.0) > 0.0


def test_deterministic_failure_injection():
    injector = FailureInjector(fail_ops=[2])
    disk = make_disk(failures=injector)
    disk.write("a", MB)                       # op 1: fine
    with pytest.raises(StorageFailure):
        disk.write("b", MB)                   # op 2: injected fault
    assert not disk.holds("b")                # failed write leaves no residue
    assert injector.failures_injected == 1


def test_probabilistic_failure_injection_is_seeded():
    def run():
        rng = RandomStreams(seed=11).stream("failures")
        injector = FailureInjector(probability=0.5, rng=rng)
        disk = make_disk(failures=injector)
        outcomes = []
        for i in range(20):
            try:
                disk.write(f"obj-{i}", MB)
                outcomes.append(True)
            except StorageFailure:
                outcomes.append(False)
        return outcomes

    first, second = run(), run()
    assert first == second
    assert any(first) and not all(first)


def test_injector_requires_rng_for_probability():
    with pytest.raises(ValueError):
        FailureInjector(probability=0.1)
    with pytest.raises(ValueError):
        FailureInjector(probability=1.5, rng=RandomStreams(0).stream("x"))


@given(st.lists(st.tuples(st.integers(0, 5),
                          st.floats(0.0, 1e6, allow_nan=False)),
                max_size=40))
def test_used_bytes_running_total_equals_a_resum(ops):
    # Interleaved writes and deletes of float sizes: the running total
    # must stay bit-identical to summing the allocations afresh.
    disk = make_disk(capacity=1e12)
    for slot, size in ops:
        object_id = f"obj-{slot}"
        if disk.holds(object_id):
            disk.delete(object_id)
        else:
            disk.write(object_id, size)
        assert disk.used_bytes == sum(disk._allocations.values())
        assert disk.free_bytes == disk.capacity_bytes - disk.used_bytes
