"""Tests for checkpoint/restart of long-run executions."""

import pytest

from repro.errors import CheckpointError
from repro.dfms import (
    DfMSServer,
    checkpoint_execution,
    checkpoint_from_json,
    checkpoint_to_json,
    restore_execution,
)
from repro.dgl import DataGridRequest, ExecutionState, flow_builder
from repro.storage import MB


def submit_async(dfms, flow):
    return dfms.server.submit(DataGridRequest(
        user=dfms.alice.qualified_name, virtual_organization="vo",
        body=flow))


def three_puts():
    builder = flow_builder("ingest")
    for i in range(3):
        builder.step(f"put{i}", "srb.put", path=f"/home/alice/c{i}.dat",
                     size=MB, resource="sdsc-disk")
    return builder.build()


def test_checkpoint_captures_journal(dfms):
    ack = submit_async(dfms, three_puts())

    def scenario():
        # Pause while put0 is still in flight: it completes (~0.03 s) and is
        # journalled; the pause bites at the boundary before put1.
        yield dfms.env.timeout(0.01)
        dfms.server.pause(ack.request_id)
        yield dfms.env.timeout(1.0)
        return checkpoint_execution(dfms.server, ack.request_id)

    snapshot = dfms.run(scenario())
    keys = {entry["key"] for entry in snapshot["journal"]}
    assert "put0" in keys
    assert "put2" not in keys
    assert "<dataGridRequest" in snapshot["request_xml"]


def test_checkpoint_json_round_trip(dfms):
    ack = submit_async(dfms, three_puts())

    def scenario():
        yield dfms.server.wait(ack.request_id)

    dfms.run(scenario())
    snapshot = checkpoint_execution(dfms.server, ack.request_id)
    assert checkpoint_from_json(checkpoint_to_json(snapshot)) == snapshot


def test_restore_skips_completed_steps_and_finishes_rest(dfms):
    ack = submit_async(dfms, three_puts())

    def run_until_paused():
        yield dfms.env.timeout(0.01)
        dfms.server.pause(ack.request_id)
        yield dfms.env.timeout(0.5)
        snapshot = checkpoint_execution(dfms.server, ack.request_id)
        dfms.server.cancel(ack.request_id)       # the "crash"
        yield dfms.server.wait(ack.request_id)
        return snapshot

    snapshot = dfms.run(run_until_paused())
    done_before = {entry["key"] for entry in snapshot["journal"]}
    assert done_before == {"put0"}

    # New server instance over the SAME datagrid (the grid state survived).
    new_server = DfMSServer(dfms.env, dfms.dgms, name="matrix-restarted")
    execution = restore_execution(new_server, snapshot)

    def wait_done():
        yield new_server.wait(execution.request_id)

    dfms.run(wait_done())
    assert execution.state is ExecutionState.COMPLETED
    # All three objects exist; put0 was NOT re-ingested (no duplicate error).
    for i in range(3):
        assert dfms.dgms.namespace.exists(f"/home/alice/c{i}.dat")
    # Exactly one replica each — a rerun of put0 would have raised.
    obj0 = dfms.dgms.namespace.resolve_object("/home/alice/c0.dat")
    assert len(obj0.replicas) == 1


def test_restore_keeps_request_id(dfms):
    ack = submit_async(dfms, three_puts())

    def scenario():
        yield dfms.server.wait(ack.request_id)

    dfms.run(scenario())
    snapshot = checkpoint_execution(dfms.server, ack.request_id)
    new_server = DfMSServer(dfms.env, dfms.dgms, name="matrix-2")
    execution = restore_execution(new_server, snapshot)
    assert execution.request_id == ack.request_id
    # Status queries against the old identifier work on the new server.
    def wait_done():
        yield new_server.wait(execution.request_id)
    dfms.run(wait_done())
    assert new_server.status(ack.request_id).state is ExecutionState.COMPLETED


def test_restore_replays_variable_effects(dfms):
    flow = (flow_builder("calc")
            .variable("x", 0)
            .variable("y", 0)
            .step("set", "dgl.set", variable="x", value=41)
            .step("use", "dgl.set", variable="y", value="${x + 1}")
            .build())
    # Run to completion, checkpoint, restore: both steps replay from journal.
    ack = submit_async(dfms, flow)

    def scenario():
        yield dfms.server.wait(ack.request_id)

    dfms.run(scenario())
    snapshot = checkpoint_execution(dfms.server, ack.request_id)
    new_server = DfMSServer(dfms.env, dfms.dgms, name="matrix-3")
    execution = restore_execution(new_server, snapshot)

    def wait_done():
        yield new_server.wait(execution.request_id)

    dfms.run(wait_done())
    assert execution.state is ExecutionState.COMPLETED
    # Both steps were replayed from the journal; the "use" entry carries the
    # effect computed from the replayed value of x (41 + 1).
    assert ("y", 42) in [tuple(e) for e in execution.journal["use"].effects]


def test_restore_rejects_bad_snapshots(dfms):
    with pytest.raises(CheckpointError):
        restore_execution(dfms.server, {"format": 99})
    with pytest.raises(CheckpointError):
        restore_execution(dfms.server, {"format": 1})
    with pytest.raises(CheckpointError):
        checkpoint_from_json("{not json")


def test_restored_execution_cannot_collide_with_live_one(dfms):
    from repro.errors import DfMSError
    ack = submit_async(dfms, three_puts())

    def scenario():
        yield dfms.server.wait(ack.request_id)

    dfms.run(scenario())
    snapshot = checkpoint_execution(dfms.server, ack.request_id)
    with pytest.raises(DfMSError, match="already registered"):
        restore_execution(dfms.server, snapshot)


def test_json_round_trip_restores_midflow_snapshot_to_completion(dfms):
    # The full persistence path: pause mid-flow, serialize the snapshot to
    # its JSON wire form, "crash", and restore a NEW server from the
    # parsed text — the execution picks up where the journal left off.
    ack = submit_async(dfms, three_puts())

    def run_until_paused():
        yield dfms.env.timeout(0.01)
        dfms.server.pause(ack.request_id)
        yield dfms.env.timeout(0.5)
        text = checkpoint_to_json(
            checkpoint_execution(dfms.server, ack.request_id))
        dfms.server.cancel(ack.request_id)
        yield dfms.server.wait(ack.request_id)
        return text

    text = dfms.run(run_until_paused())
    assert isinstance(text, str)
    new_server = DfMSServer(dfms.env, dfms.dgms, name="matrix-json")
    execution = restore_execution(new_server, checkpoint_from_json(text))

    def wait_done():
        yield new_server.wait(execution.request_id)

    dfms.run(wait_done())
    assert execution.state is ExecutionState.COMPLETED
    for i in range(3):
        obj = dfms.dgms.namespace.resolve_object(f"/home/alice/c{i}.dat")
        assert len(obj.replicas) == 1


def test_restore_replace_overwrites_terminal_execution_in_place(dfms):
    # The supervisor's restart path: a FAILED execution may be replaced on
    # the SAME server, and the old request id resolves to the new attempt.
    from repro.storage.failures import FailureInjector
    dfms.sdsc_disk.failures = FailureInjector(fail_ops=[2])
    ack = submit_async(dfms, three_puts())

    def run_to_failure():
        yield dfms.server.wait(ack.request_id)

    dfms.run(run_to_failure())
    assert dfms.server.status(ack.request_id).state is ExecutionState.FAILED
    snapshot = checkpoint_execution(dfms.server, ack.request_id)
    execution = restore_execution(dfms.server, snapshot, replace=True)

    def wait_done():
        yield dfms.server.wait(execution.request_id)

    dfms.run(wait_done())
    assert dfms.server.status(ack.request_id).state is (
        ExecutionState.COMPLETED)


def test_restore_replace_refuses_live_execution(dfms):
    from repro.errors import DfMSError
    ack = submit_async(dfms, three_puts())
    # Not yet terminal (the engine has not even started): even with
    # replace=True two engines must never race on one request id.
    snapshot = checkpoint_execution(dfms.server, ack.request_id)
    with pytest.raises(DfMSError, match="already registered"):
        restore_execution(dfms.server, snapshot, replace=True)

    def drain():
        yield dfms.server.wait(ack.request_id)

    dfms.run(drain())


def test_checkpoint_that_fails_to_compile_leaves_the_server_untouched(dfms):
    # The flow is compiled before the execution is built or adopted, so
    # a document that no longer passes the schema leaves nothing behind.
    from repro.dgl.model import Variable
    from repro.dgl.xml_io import request_to_xml
    from repro.errors import DGLValidationError, UnknownRequestError
    flow = flow_builder("broken").step("s", "dgl.noop").build()
    flow.variables.extend([Variable("x", 1), Variable("x", 2)])
    snapshot = {
        "format": 1, "request_id": "matrix-1.dgr-broken", "journal": [],
        "request_xml": request_to_xml(DataGridRequest(
            user=dfms.alice.qualified_name, virtual_organization="vo",
            body=flow)),
    }
    with pytest.raises(DGLValidationError, match="duplicate"):
        restore_execution(dfms.server, snapshot)
    assert dfms.server.executions() == []
    with pytest.raises(UnknownRequestError):
        dfms.server.execution("matrix-1.dgr-broken")
