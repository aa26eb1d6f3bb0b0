"""Default operation bindings for the DfMS.

"DGL supports a number of DataGrid related operations for SDSC's Storage
Resource Broker (SRB) or execution of business logic (code) by the DfMS
server" (Appendix A). Three families:

* ``dgl.*`` — language utilities (logging, variable assignment, sleeping,
  deliberate failure for tests, and the onError markers);
* ``srb.*`` — the datagrid operations, delegating to the DGMS;
* ``exec`` — business-logic execution: inputs staged from their nearest
  replicas, a compute slot acquired (placement chosen *late*, at this
  instant, unless a ``compute`` pin is present), the task run, the output
  ingested back into the grid. Integrates the virtual-data catalog:
  declaring a ``transformation`` makes equivalent re-derivations no-ops.

Handlers return JSON-safe values (paths, digests, dicts) so journal replay
and checkpointing stay serializable.
"""

from __future__ import annotations

from repro.errors import ExecutionError, SchedulingError
from repro.dfms.context import ExecutionContext
from repro.dfms.scheduler.cost import TaskSpec
from repro.dgl.operations import OperationRegistry
from repro.grid.query import Query, parse_conditions

__all__ = ["bind_default_operations"]


# --------------------------------------------------------------------------
# dgl.* utilities
# --------------------------------------------------------------------------


def _dgl_noop(ctx: ExecutionContext, params) -> None:
    return None


def _dgl_log(ctx: ExecutionContext, params) -> None:
    ctx.log(params.get("message", ""))


def _dgl_set(ctx: ExecutionContext, params):
    try:
        name = params["variable"]
    except KeyError:
        raise ExecutionError("dgl.set needs a 'variable' parameter") from None
    value = params.get("value")
    ctx.assign(name, value)
    return value


def _dgl_sleep(ctx: ExecutionContext, params):
    duration = float(params.get("duration", 0.0))
    if duration < 0:
        raise ExecutionError(f"dgl.sleep duration cannot be negative: {duration}")
    yield ctx.env.timeout(duration)
    return duration


def _dgl_fail(ctx: ExecutionContext, params) -> None:
    raise ExecutionError(params.get("message", "dgl.fail invoked"))


def _dgl_call(ctx: ExecutionContext, params):
    """Invoke a stored procedure and wait for it (§2.2 composition).

    Parameters: ``procedure`` names the stored procedure; ``arg:<name>``
    parameters become its arguments. The calling step fails if the
    procedure's execution fails, so errors propagate naturally.
    """
    name = _require(params, "procedure", "dgl.call")
    if ctx.server is None:
        raise ExecutionError("dgl.call needs a DfMS server")
    arguments = {key[len("arg:"):]: value for key, value in params.items()
                 if key.startswith("arg:")}
    response = ctx.server.procedures.call(
        ctx.user, name, arguments,
        virtual_organization=ctx.execution.virtual_organization)
    if not response.body.valid:
        raise ExecutionError(
            f"dgl.call {name!r} rejected: {response.body.message}")
    yield ctx.server.wait(response.request_id)
    status = ctx.server.status(response.request_id)
    if status.state.value != "completed":
        raise ExecutionError(
            f"procedure {name!r} ({response.request_id}) ended "
            f"{status.state.value}: {status.error}")
    return response.request_id


def _only_in_on_error(name: str):
    def _handler(ctx: ExecutionContext, params) -> None:
        raise ExecutionError(
            f"{name} is a fault-handling marker; it is only meaningful as "
            "an onError rule action")
    return _handler


# --------------------------------------------------------------------------
# srb.* datagrid operations
# --------------------------------------------------------------------------


def _metadata_from_params(params) -> dict:
    """Collect ``meta:<attr>`` parameters into a metadata dict."""
    return {key[len("meta:"):]: value for key, value in params.items()
            if key.startswith("meta:")}


def _require(params, name: str, operation: str):
    try:
        return params[name]
    except KeyError:
        raise ExecutionError(
            f"{operation} needs a {name!r} parameter") from None


def _srb_create_collection(ctx: ExecutionContext, params):
    path = _require(params, "path", "srb.create_collection")
    ctx.dgms.create_collection(ctx.user, path,
                               parents=bool(params.get("parents", True)))
    return path


def _srb_put(ctx: ExecutionContext, params):
    path = _require(params, "path", "srb.put")
    size = float(_require(params, "size", "srb.put"))
    resource = _require(params, "resource", "srb.put")
    obj = yield ctx.dgms.put(
        ctx.user, path, size, resource,
        source_domain=params.get("source_domain"),
        metadata=_metadata_from_params(params) or None)
    return obj.path


def _srb_get(ctx: ExecutionContext, params):
    path = _require(params, "path", "srb.get")
    to_domain = _require(params, "to_domain", "srb.get")
    obj = yield ctx.dgms.get(ctx.user, path, to_domain,
                             replica_policy=params.get("replica_policy",
                                                       "nearest"))
    return obj.path


def _srb_replicate(ctx: ExecutionContext, params):
    path = _require(params, "path", "srb.replicate")
    resource = _require(params, "resource", "srb.replicate")
    replica = yield ctx.dgms.replicate(
        ctx.user, path, resource,
        replica_policy=params.get("replica_policy", "nearest"))
    return replica.physical_name


def _srb_migrate(ctx: ExecutionContext, params):
    path = _require(params, "path", "srb.migrate")
    from_physical = _require(params, "from_physical", "srb.migrate")
    resource = _require(params, "resource", "srb.migrate")
    replica = yield ctx.dgms.migrate(ctx.user, path, from_physical, resource)
    return replica.physical_name


def _srb_delete(ctx: ExecutionContext, params):
    path = _require(params, "path", "srb.delete")
    yield ctx.dgms.delete(ctx.user, path)
    return path


def _srb_remove_replica(ctx: ExecutionContext, params):
    path = _require(params, "path", "srb.remove_replica")
    physical = _require(params, "physical", "srb.remove_replica")
    yield ctx.dgms.remove_replica(ctx.user, path, physical)
    return path


def _srb_checksum(ctx: ExecutionContext, params):
    path = _require(params, "path", "srb.checksum")
    digest = yield ctx.dgms.checksum(ctx.user, path,
                                     algorithm=params.get("algorithm", "md5"))
    return digest


def _srb_set_metadata(ctx: ExecutionContext, params):
    path = _require(params, "path", "srb.set_metadata")
    attribute = _require(params, "attribute", "srb.set_metadata")
    value = _require(params, "value", "srb.set_metadata")
    ctx.dgms.set_metadata(ctx.user, path, attribute, value,
                          unit=params.get("unit"))
    return value


def _srb_move(ctx: ExecutionContext, params):
    src = _require(params, "src", "srb.move")
    dst = _require(params, "dst", "srb.move")
    ctx.dgms.move(ctx.user, src, dst)
    return dst


def _srb_grant(ctx: ExecutionContext, params):
    """Change an ACL from a flow.

    §2.1's ILM processes "could involve … changing access permissions on
    some data before they are migrated or archived"; this is that step.
    """
    from repro.grid.acl import Permission
    path = _require(params, "path", "srb.grant")
    principal = _require(params, "principal", "srb.grant")
    level_name = str(_require(params, "permission", "srb.grant")).upper()
    try:
        permission = Permission[level_name]
    except KeyError:
        raise ExecutionError(
            f"srb.grant: unknown permission {level_name!r} "
            f"(use NONE/READ/WRITE/OWN)") from None
    ctx.dgms.grant(ctx.user, path, principal, permission)
    return level_name


def _srb_stat(ctx: ExecutionContext, params):
    """Stat one entry; returns a JSON-safe summary dict."""
    path = _require(params, "path", "srb.stat")
    node = ctx.dgms.stat(ctx.user, path)
    from repro.grid.namespace import DataObject
    if isinstance(node, DataObject):
        return {"path": node.path, "kind": "object", "size": node.size,
                "version": node.version,
                "replicas": len(node.good_replicas()),
                "checksum": node.checksum,
                "metadata": node.metadata.as_dict()}
    return {"path": node.path, "kind": "collection",
            "children": len(node),
            "metadata": node.metadata.as_dict()}


def _srb_query(ctx: ExecutionContext, params):
    collection = _require(params, "collection", "srb.query")
    conditions = parse_conditions(params.get("query", ""))
    query = Query(collection=collection, conditions=conditions,
                  recursive=bool(params.get("recursive", True)),
                  limit=params.get("limit"))
    return [obj.path for obj in ctx.dgms.query(ctx.user, query)]


# --------------------------------------------------------------------------
# fed.* — cross-zone (federated) operations
# --------------------------------------------------------------------------


def _fed_copy(ctx: ExecutionContext, params):
    """Copy an object from one federated zone into another (§2.1's
    cross-grid archival, e.g. hospital grids into the BBSRC archive).

    Parameters: ``src_zone``, ``src_path``, ``dst_zone``, ``dst_path``,
    ``dst_resource``. Requires the server to be joined to a federation.
    """
    if ctx.server is None or ctx.server.federation is None:
        raise ExecutionError(
            "fed.copy needs a DfMS server joined to a federation")
    copied = yield ctx.server.federation.cross_zone_copy(
        ctx.user,
        _require(params, "src_zone", "fed.copy"),
        _require(params, "src_path", "fed.copy"),
        _require(params, "dst_zone", "fed.copy"),
        _require(params, "dst_path", "fed.copy"),
        _require(params, "dst_resource", "fed.copy"))
    return copied.path


# --------------------------------------------------------------------------
# exec — business logic
# --------------------------------------------------------------------------


def _resolve_compute(ctx: ExecutionContext, params, task: TaskSpec):
    """Concrete compute resource: a pin if present, else late binding."""
    pin = params.get("compute")
    if pin is not None:
        if ctx.server is None:
            raise SchedulingError("a pinned exec step needs a DfMS server")
        compute = ctx.server.compute_resource(pin)
        if compute is None:
            raise SchedulingError(
                f"pinned compute resource {pin!r} is not registered")
        if not compute.online:
            raise SchedulingError(
                f"pinned compute resource {pin!r} is offline "
                "(early binding met infrastructure churn)")
        return compute
    if ctx.server is not None and ctx.server.placer is not None:
        return ctx.server.placer.place(ctx.execution.virtual_organization,
                                       task)
    return None   # no infrastructure description: run unscheduled


def _exec(ctx: ExecutionContext, params):
    """Run business logic: stage in, compute, stage out."""
    duration = float(params.get("duration", 0.0))
    inputs_text = str(params.get("inputs", "") or "")
    input_paths = [p for p in inputs_text.split(",") if p]
    output_path = params.get("output_path")
    output_size = float(params.get("output_size", 0.0))
    transformation = params.get("transformation")

    catalog = ctx.server.virtual_data if ctx.server is not None else None
    if catalog is not None and transformation and output_path:
        existing = catalog.lookup(transformation, input_paths)
        if existing is not None:
            ctx.log(f"virtual data hit: {transformation} -> {existing}")
            return {"output": existing, "virtual_data_hit": True,
                    "domain": None, "elapsed": 0.0}

    task = TaskSpec(name=transformation or "exec",
                    duration=duration,
                    input_paths=tuple(input_paths),
                    output_size=output_size,
                    requirements=dict(ctx.requirements))
    compute = _resolve_compute(ctx, params, task)
    domain = compute.domain if compute is not None else ctx.user.domain
    started = ctx.env.now

    # Claim the core slot *before* staging, in the same resume that chose
    # the placement: later placements then see this claim in the live load
    # counters, which is what keeps greedy placement from dog-piling one
    # resource when many steps start at the same instant.
    slot = compute.slots.request() if compute is not None else None
    try:
        if slot is not None:
            yield slot
        for path in input_paths:
            yield ctx.dgms.get(ctx.user, path, to_domain=domain,
                               replica_policy=params.get("replica_policy",
                                                         "nearest"))
        if compute is not None:
            run_seconds = compute.run_time(duration)
            yield ctx.env.timeout(run_seconds)
            compute.busy_core_seconds += run_seconds
            compute.tasks_run += 1
        elif duration > 0:
            yield ctx.env.timeout(duration)
    finally:
        if slot is not None:
            compute.slots.release(slot)

    if output_path:
        resource = params.get("output_resource")
        if resource is None:
            raise ExecutionError(
                "exec with output_path needs an output_resource")
        yield ctx.dgms.put(ctx.user, output_path, output_size, resource,
                           source_domain=domain)
        if catalog is not None and transformation:
            catalog.record(transformation, input_paths, output_path,
                           time=ctx.env.now)
    return {"output": output_path, "virtual_data_hit": False,
            "domain": domain, "elapsed": ctx.env.now - started}


# --------------------------------------------------------------------------
# Registry assembly
# --------------------------------------------------------------------------


def bind_default_operations() -> OperationRegistry:
    """A new registry holding every default operation."""
    registry = OperationRegistry()
    registry.register("dgl.noop", _dgl_noop)
    registry.register("dgl.log", _dgl_log)
    registry.register("dgl.set", _dgl_set, required_params=("variable",))
    registry.register("dgl.sleep", _dgl_sleep)
    registry.register("dgl.fail", _dgl_fail)
    registry.register("dgl.call", _dgl_call, required_params=("procedure",))
    for marker in ("dgl.retry", "dgl.ignore", "dgl.abort"):
        registry.register(marker, _only_in_on_error(marker))
    registry.register("srb.create_collection", _srb_create_collection,
                      required_params=("path",))
    registry.register("srb.put", _srb_put,
                      required_params=("path", "size", "resource"))
    registry.register("srb.get", _srb_get,
                      required_params=("path", "to_domain"))
    registry.register("srb.replicate", _srb_replicate,
                      required_params=("path", "resource"))
    registry.register("srb.migrate", _srb_migrate,
                      required_params=("path", "from_physical", "resource"))
    registry.register("srb.delete", _srb_delete, required_params=("path",))
    registry.register("srb.remove_replica", _srb_remove_replica,
                      required_params=("path", "physical"))
    registry.register("srb.checksum", _srb_checksum,
                      required_params=("path",))
    registry.register("srb.set_metadata", _srb_set_metadata,
                      required_params=("path", "attribute", "value"))
    registry.register("srb.move", _srb_move, required_params=("src", "dst"))
    registry.register("srb.grant", _srb_grant,
                      required_params=("path", "principal", "permission"))
    registry.register("srb.stat", _srb_stat, required_params=("path",))
    registry.register("srb.query", _srb_query,
                      required_params=("collection",))
    registry.register("fed.copy", _fed_copy,
                      required_params=("src_zone", "src_path", "dst_zone",
                                       "dst_path", "dst_resource"))
    registry.register("exec", _exec)
    return registry
