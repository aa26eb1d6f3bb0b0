"""Checkpoint and restart of long-run executions.

§2.1 requires that datagrid ILM processes "could be started, stopped and
restarted at any time" — including across DfMS server restarts, which is
more than :meth:`~repro.dfms.execution.FlowExecution.pause` gives. A
checkpoint is a JSON document holding the original DGL request plus the
journal of completed step instances. Restoring replays the flow in
recovery mode: journalled steps are skipped instantly (their recorded
variable effects re-applied), and execution continues live from the first
instance not in the journal.

This is step-granularity recovery, the standard discipline for workflow
engines: datagrid side effects of completed steps already live in the grid,
so skipping them is exactly right; a step that was mid-flight at checkpoint
time reruns from scratch.
"""

from __future__ import annotations

import json

from repro.errors import CheckpointError
from repro.dfms.context import ExecutionContext
from repro.dfms.execution import FlowExecution, JournalEntry
from repro.dfms.server import DfMSServer
from repro.dgl.expressions import Scope
from repro.dgl.model import Flow
from repro.dgl.xml_io import request_from_xml, request_to_xml

__all__ = ["checkpoint_execution", "restore_execution",
           "checkpoint_to_json", "checkpoint_from_json"]

FORMAT_VERSION = 1


def checkpoint_execution(server: DfMSServer, request_id: str) -> dict:
    """Capture a restartable snapshot of one execution.

    Typically taken while the execution is paused, but any instant works:
    the journal only ever contains *completed* step instances.
    """
    execution = server.execution(request_id)
    request = server.request_document(request_id)
    return {
        "format": FORMAT_VERSION,
        "request_id": request_id,
        "request_xml": request_to_xml(request),
        "submitted_at": execution.submitted_at,
        "journal": [
            {"key": entry.instance_key,
             "effects": [[name, value] for name, value in entry.effects],
             "finished_at": entry.finished_at}
            for entry in execution.journal.values()
        ],
    }


def restore_execution(server: DfMSServer, snapshot: dict,
                      replace: bool = False) -> FlowExecution:
    """Recreate and restart an execution from a checkpoint snapshot.

    The restored execution keeps its original request identifier, so status
    queries issued against the old identifier keep working on the new
    server instance. ``replace=True`` permits restoring onto a server
    that still holds the (terminal) original — the automatic
    checkpoint/restart path of
    :class:`repro.faults.recovery.FlowSupervisor`.
    """
    if snapshot.get("format") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format {snapshot.get('format')!r}")
    try:
        request = request_from_xml(snapshot["request_xml"])
        request_id = snapshot["request_id"]
        journal_entries = snapshot["journal"]
    except KeyError as exc:
        raise CheckpointError(f"checkpoint is missing {exc}") from None
    if not isinstance(request.body, Flow):
        raise CheckpointError("checkpointed request does not carry a flow")
    # Compile before anything is built or adopted, so a flow that no
    # longer compiles leaves the server untouched.
    plan = server.engine.compile(request.body)
    execution = FlowExecution(
        request_id=request_id, flow=request.body, plan=plan,
        user_name=request.user,
        virtual_organization=request.virtual_organization, env=server.env)
    execution.submitted_at = snapshot.get("submitted_at",
                                          execution.submitted_at)
    for entry in journal_entries:
        execution.journal[entry["key"]] = JournalEntry(
            instance_key=entry["key"],
            effects=[(name, value) for name, value in entry["effects"]],
            finished_at=entry["finished_at"])
    execution.replaying = True
    server.adopt_execution(execution, request, replace=replace)
    user = server.dgms.users.get(request.user)
    ctx = ExecutionContext(env=server.env, dgms=server.dgms, user=user,
                           scope=Scope(), execution=execution, server=server)
    server.engine.start(execution, ctx)
    return execution


def checkpoint_to_json(snapshot: dict) -> str:
    """Serialize a snapshot for durable storage."""
    try:
        return json.dumps(snapshot, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint not serializable: {exc}") from None


def checkpoint_from_json(text: str) -> dict:
    """Parse a snapshot previously produced by :func:`checkpoint_to_json`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt checkpoint: {exc}") from None
