"""Tests for the declarative fault model and its kernel-timeout driver."""

import pytest

from repro.errors import FaultError, StorageFailure, TransferInterrupted
from repro.faults import (
    DomainOutage,
    FaultSchedule,
    FlakyWindow,
    LinkDegradation,
    LinkOutage,
    StorageOutage,
    attach_faults,
)
from repro.sim.rng import RandomStreams
from repro.storage import MB
from repro.storage.failures import NO_FAILURES


# -- event validation --------------------------------------------------------


def test_events_validate_their_parameters():
    with pytest.raises(FaultError):
        StorageOutage(-1.0, 2.0, "r")
    with pytest.raises(FaultError):
        StorageOutage(0.0, 0.0, "r")
    with pytest.raises(FaultError):
        LinkDegradation(0.0, 1.0, "a", "b", factor=1.5)
    with pytest.raises(FaultError):
        FlakyWindow(0.0, 1.0, "r", probability=0.0)


def test_schedule_rejects_non_events():
    with pytest.raises(FaultError):
        FaultSchedule(["not-an-event"])


def test_schedule_horizon_is_last_window_close():
    schedule = FaultSchedule([StorageOutage(1.0, 2.0, "r"),
                              LinkOutage(0.5, 5.0, "a", "b")])
    assert schedule.horizon == 5.5
    assert FaultSchedule().horizon == 0.0


# -- randomized schedules ----------------------------------------------------


def test_random_schedule_is_seed_deterministic(grid):
    one = FaultSchedule.random(RandomStreams(7), grid.dgms, horizon=50.0)
    two = FaultSchedule.random(RandomStreams(7), grid.dgms, horizon=50.0)
    other = FaultSchedule.random(RandomStreams(8), grid.dgms, horizon=50.0)
    assert one.events == two.events
    assert one.events != other.events
    assert len(one) == 6
    assert all(event.end <= 50.0 for event in one)


def test_random_schedule_draws_only_from_its_own_stream(grid):
    streams = RandomStreams(7)
    before = streams.stream("unrelated").random()
    streams2 = RandomStreams(7)
    FaultSchedule.random(streams2, grid.dgms, horizon=50.0)
    after = streams2.stream("unrelated").random()
    assert before == after


# -- storage outages ---------------------------------------------------------


def test_storage_outage_takes_resource_down_and_back(grid):
    attach_faults(grid.dgms,
                  FaultSchedule([StorageOutage(1.0, 2.0, "sdsc-disk-1")]))
    grid.env.run(until=1.5)
    assert not grid.sdsc_disk.online
    grid.env.run(until=3.5)
    assert grid.sdsc_disk.online


def test_overlapping_outages_are_refcounted(grid):
    attach_faults(grid.dgms, FaultSchedule([
        StorageOutage(1.0, 2.0, "sdsc-disk-1"),
        StorageOutage(2.0, 3.0, "sdsc-disk-1"),
    ]))
    grid.env.run(until=2.5)
    assert not grid.sdsc_disk.online
    grid.env.run(until=3.5)   # first window ended, second still open
    assert not grid.sdsc_disk.online
    grid.env.run(until=5.5)
    assert grid.sdsc_disk.online


def test_domain_outage_hits_every_resource_and_link(grid):
    attach_faults(grid.dgms, FaultSchedule([DomainOutage(1.0, 2.0, "sdsc")]))
    grid.env.run(until=1.5)
    assert not grid.sdsc_disk.online
    assert not grid.sdsc_tape.online
    assert grid.dgms.topology.link_between("sdsc", "ucsd") is None
    assert grid.ucsd_disk.online   # the other domain is untouched
    grid.env.run(until=3.5)
    assert grid.sdsc_disk.online
    assert grid.sdsc_tape.online
    restored = grid.dgms.topology.link_between("sdsc", "ucsd")
    assert restored is not None and restored.bandwidth_bps == 100 * MB


# -- link outages ------------------------------------------------------------


def test_link_outage_interrupts_inflight_transfer(grid):
    attach_faults(grid.dgms,
                  FaultSchedule([LinkOutage(1.0, 1.0, "sdsc", "ucsd")]))

    def go():
        with pytest.raises(TransferInterrupted) as exc_info:
            yield grid.dgms.transfers.transfer("sdsc", "ucsd", 500 * MB)
        return exc_info.value

    exc = grid.run(go())
    # Admitted at t=0.01 (latency), streamed at 100 MB/s until t=1.0.
    assert exc.transferred == pytest.approx(0.99 * 100 * MB)
    assert exc.nbytes == 500 * MB
    assert grid.dgms.transfers.interrupted_count == 1
    grid.env.run(until=2.5)
    assert grid.dgms.topology.link_between("sdsc", "ucsd") is not None


def test_link_outage_during_latency_phase_interrupts_at_zero_offset(grid):
    attach_faults(grid.dgms,
                  FaultSchedule([LinkOutage(0.005, 1.0, "sdsc", "ucsd")]))

    def go():
        with pytest.raises(TransferInterrupted) as exc_info:
            yield grid.dgms.transfers.transfer("sdsc", "ucsd", 10 * MB)
        return exc_info.value

    exc = grid.run(go())
    assert exc.transferred == 0.0


# -- degradations ------------------------------------------------------------


def test_degradations_compose_multiplicatively_and_restore(grid):
    attach_faults(grid.dgms, FaultSchedule([
        LinkDegradation(1.0, 3.0, "sdsc", "ucsd", factor=0.5),
        LinkDegradation(2.0, 1.0, "sdsc", "ucsd", factor=0.5),
    ]))
    link = grid.dgms.topology.link_between
    grid.env.run(until=1.5)
    assert link("sdsc", "ucsd").bandwidth_bps == pytest.approx(50 * MB)
    grid.env.run(until=2.5)
    assert link("sdsc", "ucsd").bandwidth_bps == pytest.approx(25 * MB)
    grid.env.run(until=3.5)
    assert link("sdsc", "ucsd").bandwidth_bps == pytest.approx(50 * MB)
    grid.env.run(until=4.5)
    assert link("sdsc", "ucsd").bandwidth_bps == pytest.approx(100 * MB)


def test_degradation_slows_an_inflight_transfer(grid):
    attach_faults(grid.dgms, FaultSchedule([
        LinkDegradation(1.0, 100.0, "sdsc", "ucsd", factor=0.5)]))

    def go():
        stats = yield grid.dgms.transfers.transfer("sdsc", "ucsd", 200 * MB)
        return stats

    stats = grid.run(go())
    # 0.01 latency + ~0.99 s at 100 MB/s + the rest at 50 MB/s.
    expected = 1.0 + (200 * MB - 0.99 * 100 * MB) / (50 * MB)
    assert stats.end_time == pytest.approx(expected, rel=1e-6)


# -- flaky windows -----------------------------------------------------------


def test_flaky_window_installs_and_restores_injector(grid):
    attach_faults(grid.dgms, FaultSchedule(
        [FlakyWindow(0.5, 1.0, "sdsc-disk-1", probability=1.0)]),
        RandomStreams(3))
    assert grid.sdsc_disk.failures is NO_FAILURES
    grid.env.run(until=0.6)
    with pytest.raises(StorageFailure):
        grid.sdsc_disk.write("obj#1", MB)
    grid.env.run(until=2.0)
    assert grid.sdsc_disk.failures is NO_FAILURES
    grid.sdsc_disk.write("obj#2", MB)   # healthy again


# -- driver bookkeeping ------------------------------------------------------


def test_driver_validates_targets_at_arm_time(grid):
    with pytest.raises(FaultError):
        attach_faults(grid.dgms,
                      FaultSchedule([LinkOutage(0.0, 1.0, "sdsc", "mars")]))
    with pytest.raises(FaultError):
        attach_faults(grid.dgms,
                      FaultSchedule([DomainOutage(0.0, 1.0, "mars")]))


def test_driver_logs_balanced_begin_end_pairs(grid):
    driver = attach_faults(grid.dgms, FaultSchedule([
        StorageOutage(1.0, 1.0, "sdsc-disk-1"),
        LinkOutage(2.0, 1.0, "sdsc", "ucsd"),
    ]))
    grid.env.run()
    assert driver.begun == driver.ended == 2
    assert driver.open_faults == 0
    phases = [entry[1] for entry in driver.log]
    assert phases == ["begin", "end", "begin", "end"]


def test_driver_cannot_be_armed_twice(grid):
    driver = attach_faults(grid.dgms, FaultSchedule())
    with pytest.raises(FaultError, match="^fault driver is already armed$"):
        driver.arm()
