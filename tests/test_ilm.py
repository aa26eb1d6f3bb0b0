"""Tests for ILM: value model, policies, manager, windows, and patterns."""

import pytest

from repro.errors import PolicyError
from repro.dgl import ExecutionState, ForEach, expressions
from repro.ilm import (
    DomainValueModel,
    ILMManager,
    ILMPolicy,
    PlacementRule,
    exploding_star_flow,
    imploding_star_policy,
)
from repro.sim import SECONDS_PER_DAY, ExecutionWindow
from repro.storage import MB

DAY = SECONDS_PER_DAY


# -- value model ------------------------------------------------------------

def test_explicit_domain_value_wins(grid):
    obj = grid.put_file("/home/alice/f.dat")
    obj.metadata.set("value:sdsc", 7.5)
    obj.metadata.set("value", 100.0)
    model = DomainValueModel()
    assert model.domain_value(obj, "sdsc", now=0.0) == 7.5
    assert model.domain_value(obj, "ucsd", now=0.0) == pytest.approx(100.0,
                                                                     rel=1e-3)


def test_value_decays_with_half_life(grid):
    obj = grid.put_file("/home/alice/f.dat")
    model = DomainValueModel(half_life_days=30.0)
    t0 = obj.modified_at
    fresh = model.domain_value(obj, "sdsc", now=t0)
    month = model.domain_value(obj, "sdsc", now=t0 + 30 * DAY)
    assert month == pytest.approx(fresh / 2)
    assert model.age_days(obj, t0 + 30 * DAY) == pytest.approx(30.0)


def test_non_numeric_value_rejected(grid):
    obj = grid.put_file("/home/alice/f.dat")
    obj.metadata.set("value:sdsc", "lots")
    with pytest.raises(PolicyError):
        DomainValueModel().domain_value(obj, "sdsc", now=0.0)


def test_invalid_half_life():
    with pytest.raises(PolicyError):
        DomainValueModel(half_life_days=0.0)


# -- policy structure ------------------------------------------------------------

def test_rule_validation():
    with pytest.raises(PolicyError, match="unknown action"):
        PlacementRule("r", "true", "teleport")
    with pytest.raises(PolicyError, match="needs a"):
        PlacementRule("r", "true", "replicate_to")
    with pytest.raises(PolicyError, match="empty condition"):
        PlacementRule("r", " ", "delete")


def test_policy_validation():
    with pytest.raises(PolicyError, match="no rules"):
        ILMPolicy(name="p", collection="/", domain="d", rules=[])
    rule = PlacementRule("r", "true", "delete")
    with pytest.raises(PolicyError, match="duplicate"):
        ILMPolicy(name="p", collection="/", domain="d", rules=[rule, rule])


def test_policy_compiles_to_foreach_flow():
    policy = ILMPolicy(
        name="tidy", collection="/data", domain="sdsc",
        rules=[PlacementRule("purge", "age_days > 365", "delete")],
        window=ExecutionWindow.weekends())
    flow = policy.compile_to_flow()
    assert isinstance(flow.logic.pattern, ForEach)
    assert [step.name for step in flow.children] == ["gate", "apply"]
    no_window = ILMPolicy(
        name="t2", collection="/data", domain="sdsc",
        rules=[PlacementRule("purge", "true", "delete")])
    assert [s.name for s in no_window.compile_to_flow().children] == ["apply"]


# -- manager / pass execution ---------------------------------------------------

def manager_with(dfms, policy):
    manager = ILMManager(dfms.server)
    manager.add_policy(policy)
    return manager


def test_replicate_rule_applies_once(dfms):
    dfms.put_file("/home/alice/a.dat", size=MB)
    policy = ILMPolicy(
        name="mirror", collection="/home/alice", domain="ucsd",
        rules=[PlacementRule("mirror", "replica_count < 2",
                             "replicate_to", "ucsd-disk")])
    manager = manager_with(dfms, policy)

    def one_pass():
        status = yield from manager.run_pass_sync("mirror", dfms.alice)
        return status

    status = dfms.run(one_pass())
    assert status.state is ExecutionState.COMPLETED
    obj = dfms.dgms.namespace.resolve_object("/home/alice/a.dat")
    assert len(obj.good_replicas()) == 2
    # Second pass: rule no longer matches; nothing copied.
    dfms.run(one_pass())
    assert len(obj.good_replicas()) == 2


def test_migrate_rule_moves_old_data_to_tape(dfms):
    obj = dfms.put_file("/home/alice/cold.dat", size=MB)
    policy = ILMPolicy(
        name="tier-down", collection="/home/alice", domain="sdsc",
        rules=[PlacementRule("to-tape", "value < 0.6",
                             "migrate_to", "sdsc-tape")])
    manager = manager_with(dfms, policy)

    def scenario():
        # Fresh data: value 1.0, rule does not match.
        yield from manager.run_pass_sync("tier-down", dfms.alice)
        assert obj.replicas[0].physical_name == "sdsc-disk-1"
        # A month later the value halved; the rule bites.
        yield dfms.env.timeout(31 * DAY)
        yield from manager.run_pass_sync("tier-down", dfms.alice)

    dfms.run(scenario())
    assert obj.replicas[0].physical_name == "sdsc-tape-1"
    assert obj.metadata.get("ilm:last_action") == "to-tape"


def test_delete_rule_removes_expired_data(dfms):
    dfms.put_file("/home/alice/tmp.dat", size=MB)
    policy = ILMPolicy(
        name="expire", collection="/home/alice", domain="sdsc",
        rules=[PlacementRule("expire", "age_days > 10", "delete")])
    manager = manager_with(dfms, policy)

    def scenario():
        yield dfms.env.timeout(11 * DAY)
        yield from manager.run_pass_sync("expire", dfms.alice)

    dfms.run(scenario())
    assert not dfms.dgms.namespace.exists("/home/alice/tmp.dat")


def test_first_matching_rule_wins(dfms):
    dfms.put_file("/home/alice/x.dat", size=MB)
    policy = ILMPolicy(
        name="ordered", collection="/home/alice", domain="sdsc",
        rules=[PlacementRule("keep", "true", "none"),
               PlacementRule("never", "true", "delete")])
    manager = manager_with(dfms, policy)

    def one_pass():
        yield from manager.run_pass_sync("ordered", dfms.alice)

    dfms.run(one_pass())
    assert dfms.dgms.namespace.exists("/home/alice/x.dat")


def test_rule_conditions_are_parsed_once_per_manager(dfms, monkeypatch):
    parsed = []
    compile_source = expressions._compile_source

    def counting(source):
        parsed.append(source)
        return compile_source(source)

    monkeypatch.setattr(expressions, "_compile_source", counting)
    for index in range(4):
        dfms.put_file(f"/home/alice/f{index}.dat", size=MB)
    policy = ILMPolicy(
        name="keep", collection="/home/alice", domain="sdsc",
        rules=[PlacementRule("never", "size > 2 * size", "delete"),
               PlacementRule("rest", "true", "none")])
    manager = manager_with(dfms, policy)

    def two_passes():
        for _ in range(2):
            yield from manager.run_pass_sync("keep", dfms.alice)

    dfms.run(two_passes())
    assert [p.state for p in manager.passes] == ["completed"] * 2
    assert parsed.count("size > 2 * size") == 1
    assert parsed.count("true") == 1


def test_broken_rule_condition_fails_the_pass_with_a_policy_error(dfms):
    for index in range(2):
        dfms.put_file(f"/home/alice/f{index}.dat", size=MB)
    policy = ILMPolicy(
        name="bad", collection="/home/alice", domain="sdsc",
        rules=[PlacementRule("typo", "undefined_var > 1", "none")])
    manager = manager_with(dfms, policy)

    def two_passes():
        statuses = []
        for _ in range(2):
            status = yield from manager.run_pass_sync("bad", dfms.alice)
            statuses.append(status)
        return statuses

    statuses = dfms.run(two_passes())
    # The compiled condition fails every pass with the same message.
    assert [s.state for s in statuses] == [ExecutionState.FAILED] * 2
    for status in statuses:
        assert ("policy 'bad' rule 'typo': undefined DGL variable "
                "'undefined_var'") in status.error


def test_pass_skips_vanished_objects(dfms):
    dfms.put_file("/home/alice/gone.dat", size=MB)
    policy = ILMPolicy(
        name="p", collection="/home/alice", domain="sdsc",
        rules=[PlacementRule("r", "true", "none")])
    manager = manager_with(dfms, policy)

    def scenario():
        request_id = manager.run_pass("p", dfms.alice)
        # Delete the object before the pass's apply step reaches it.
        yield dfms.dgms.delete(dfms.alice, "/home/alice/gone.dat")
        yield dfms.server.wait(request_id)
        return dfms.server.status(request_id)

    status = dfms.run(scenario())
    assert status.state in (ExecutionState.COMPLETED, ExecutionState.FAILED)


def test_window_gate_delays_work(dfms):
    dfms.put_file("/home/alice/w.dat", size=MB)
    window = ExecutionWindow.weekends()
    policy = ILMPolicy(
        name="weekend-only", collection="/home/alice", domain="sdsc",
        rules=[PlacementRule("mirror", "true", "replicate_to", "ucsd-disk")],
        window=window)
    manager = manager_with(dfms, policy)
    # It is Monday 00:00 (virtual epoch): the gate must hold until Saturday.
    assert not window.contains(dfms.env.now)

    def one_pass():
        yield from manager.run_pass_sync("weekend-only", dfms.alice)
        return dfms.env.now

    finished = dfms.run(one_pass())
    assert finished >= 5 * DAY     # Saturday 00:00


def test_recurring_passes(dfms):
    dfms.put_file("/home/alice/r.dat", size=MB)
    policy = ILMPolicy(
        name="heartbeat", collection="/home/alice", domain="sdsc",
        rules=[PlacementRule("noop", "true", "none")])
    manager = manager_with(dfms, policy)

    def scenario():
        process = manager.start_recurring("heartbeat", dfms.alice,
                                          interval=100.0, max_passes=3)
        yield process

    dfms.run(scenario())
    assert len(manager.passes) == 3
    assert all(p.state == "completed" for p in manager.passes)


def test_duplicate_policy_rejected(dfms):
    policy = ILMPolicy(
        name="p", collection="/", domain="d",
        rules=[PlacementRule("r", "true", "none")])
    manager = manager_with(dfms, policy)
    with pytest.raises(PolicyError):
        manager.add_policy(policy)
    with pytest.raises(PolicyError):
        manager.policy("ghost")


# -- patterns ------------------------------------------------------------------

def test_imploding_star_archives_then_trims(dfms):
    obj = dfms.put_file("/home/alice/obs.dat", size=MB)
    policy = imploding_star_policy(
        name="pull-in", collection="/home/alice",
        archiver_domain="sdsc", archive_resource="sdsc-tape",
        trim_below_value=0.6)
    manager = manager_with(dfms, policy)

    def scenario():
        # Pass 1: archive (replicate to tape).
        yield from manager.run_pass_sync("pull-in", dfms.alice)
        assert {r.physical_name for r in obj.good_replicas()} == {
            "sdsc-disk-1", "sdsc-tape-1"}
        # A month later interest decays; pass 2 trims the disk copy.
        yield dfms.env.timeout(31 * DAY)
        yield from manager.run_pass_sync("pull-in", dfms.alice)

    dfms.run(scenario())
    assert [r.physical_name for r in obj.good_replicas()] == ["sdsc-tape-1"]


def test_imploding_star_with_expiry(dfms):
    obj = dfms.put_file("/home/alice/fleeting.dat", size=MB)
    policy = imploding_star_policy(
        name="pull-expire", collection="/home/alice",
        archiver_domain="sdsc", archive_resource="sdsc-tape",
        trim_below_value=0.9, delete_after_days=60)
    manager = manager_with(dfms, policy)

    def scenario():
        yield from manager.run_pass_sync("pull-expire", dfms.alice)   # archive
        yield dfms.env.timeout(10 * DAY)
        yield from manager.run_pass_sync("pull-expire", dfms.alice)   # trim
        yield dfms.env.timeout(61 * DAY)
        yield from manager.run_pass_sync("pull-expire", dfms.alice)   # expire

    dfms.run(scenario())
    assert not dfms.dgms.namespace.exists("/home/alice/fleeting.dat")


def test_exploding_star_flow_structure():
    flow = exploding_star_flow(
        "push-out", "/cms/run1",
        tier_resources=[["t1-a", "t1-b"], ["t2-a"]])
    assert isinstance(flow.logic.pattern, ForEach)
    (per_object,) = flow.children
    assert [child.name for child in per_object.children] == ["tier-1",
                                                             "tier-2"]
    tier1 = per_object.children[0]
    assert [s.name for s in tier1.children] == ["to-t1-a", "to-t1-b"]


def test_exploding_star_requires_tiers():
    with pytest.raises(PolicyError):
        exploding_star_flow("bad", "/c", tier_resources=[])
    with pytest.raises(PolicyError):
        exploding_star_flow("bad", "/c", tier_resources=[[]])
