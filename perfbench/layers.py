"""Per-layer attribution by timing calls into each layer from outside.

:class:`LayerTracer` patches, for the duration of a traced run, the
public entry points of every package layer under ``src/repro`` — plus the
generator handed to ``Environment.process`` — with thin wrappers that
record a span per call and per process resume. Nothing under ``src/``
changes: the wrappers are installed on the classes and modules at run
time and removed afterwards, and they never touch simulation state, so a
traced run's simulated signature is byte-identical to an untraced one.

A span holds a name, a start and end (host ``perf_counter`` seconds), its
parent span and a request id: the DfMS request id for work done on
behalf of a flow or status poll, the guid for a cross-zone copy. Work a
process spawns inherits the id of the span that spawned it. Spans are
kept in memory in flat arrays and written out once the run ends.

A layer's *self time* is the duration of its spans minus the part their
child spans cover. Process bodies are attributed to the layer whose
module defined the generator; ``sim`` is the run's wall time minus every
span, i.e. the kernel's own dispatch loop.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "BENCH", "LayerTracer", "layer_of_module"]

#: The package layers, named after their modules under ``src/repro``.
LAYERS = (
    "sim", "dgl", "dfms.engine", "dfms.server", "dfms.gateway", "dfms.cache",
    "dfms.checkpoint", "grid", "network", "storage", "faults",
    "faults.recovery", "federation", "federation.rls", "federation.sync",
    "ilm", "triggers", "provenance", "telemetry",
)

#: Pseudo-layer for the benchmark's own load-generating processes.
BENCH = "bench"

#: Modules whose layer is not their first package component.
_MODULE_LAYERS = {
    "dfms.server": "dfms.server", "dfms.gateway": "dfms.gateway",
    "dfms.cache": "dfms.cache", "dfms.checkpoint": "dfms.checkpoint",
    "grid.federation": "federation", "faults.recovery": "faults.recovery",
    "federation.rls": "federation.rls", "federation.sync": "federation.sync",
    # The zone-scoped fault driver lives beside the federation harness.
    "federation.chaos": "faults",
}
_PACKAGE_LAYERS = {
    "sim": "sim", "dgl": "dgl", "dfms": "dfms.engine", "grid": "grid",
    "network": "network", "storage": "storage", "faults": "faults",
    "federation": "federation", "ilm": "ilm", "triggers": "triggers",
    "provenance": "provenance", "telemetry": "telemetry",
    "workloads": BENCH,
}


def layer_of_module(module: str) -> str:
    """The layer a ``repro.*`` module belongs to (``bench`` otherwise)."""
    if not module.startswith("repro."):
        return BENCH
    rest = module[len("repro."):]
    for prefix, layer in _MODULE_LAYERS.items():
        if rest == prefix or rest.startswith(prefix + "."):
            return layer
    return _PACKAGE_LAYERS.get(rest.split(".")[0], "sim")


def _layer_of_code(code) -> str:
    path = code.co_filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return BENCH
    module = "repro." + path[at + len(marker):].rsplit(".", 1)[0]
    return layer_of_module(module.replace("/", "."))


class _TracedGenerator:
    """A generator stand-in that records one span per resume.

    Handed to ``Environment.process`` in place of the real generator (or
    returned by a wrapped generator function used with ``yield from``);
    ``send``/``throw``/``close`` delegate unchanged, so the kernel sees
    exactly the values and exceptions it would have seen.
    """

    __slots__ = ("_gen", "_tracer", "_name", "_rid")

    def __init__(self, gen, tracer: "LayerTracer", name: int,
                 rid: int) -> None:
        self._gen = gen
        self._tracer = tracer
        self._name = name
        self._rid = rid

    @property
    def __name__(self) -> str:
        return getattr(self._gen, "__name__", "generator")

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tracer = self._tracer
        if not tracer.active:
            return self._gen.send(value)
        token = tracer.open(self._name, self._rid)
        try:
            return self._gen.send(value)
        finally:
            tracer.close(token)

    def throw(self, *args):
        tracer = self._tracer
        if not tracer.active:
            return self._gen.throw(*args)
        token = tracer.open(self._name, self._rid)
        try:
            return self._gen.throw(*args)
        finally:
            tracer.close(token)

    def close(self):
        return self._gen.close()


class LayerTracer:
    """Span recorder plus the patch set that feeds it.

    Use :meth:`install` before building the deployment (so listeners and
    worker processes registered during set-up are wrapped), flip
    :attr:`active` on for the timed run only, then :meth:`uninstall`.
    """

    def __init__(self) -> None:
        self.active = False
        self.names: List[str] = []
        self.layers: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.rids: List[str] = [""]
        self._rid_ids: Dict[str, int] = {"": 0}
        # Span columns: name id, start, end, parent index, request id.
        self.s_name = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("i")
        self.s_rid = array("i")
        # Open spans: [index, child seconds, caller's request id].
        self._stack: List[list] = []
        self._rid = 0
        self.self_time: Dict[int, float] = {}
        self.calls: Dict[int, int] = {}
        #: Counters fed by wrapper hooks (rows returned, requests, …).
        self.counts: Dict[str, float] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self.started = 0.0
        self.stopped = 0.0

    # -- span recording ------------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        """Intern a span name (``layer:qualname``) with its layer."""
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.self_time[index] = 0.0
            self.calls[index] = 0
        return index

    def rid_id(self, rid: Optional[str]) -> int:
        if not rid:
            return self._rid
        index = self._rid_ids.get(rid)
        if index is None:
            index = self._rid_ids[rid] = len(self.rids)
            self.rids.append(rid)
        return index

    def open(self, name: int, rid: int = 0) -> int:
        if not rid:
            rid = self._rid
        index = len(self.s_name)
        stack = self._stack
        self.s_name.append(name)
        self.s_parent.append(stack[-1][0] if stack else -1)
        self.s_rid.append(rid)
        self.s_end.append(0.0)
        stack.append([index, 0.0, self._rid])
        self._rid = rid
        self.s_start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        now = perf_counter()
        frame = self._stack.pop()
        duration = now - self.s_start[index]
        self.s_end[index] = now
        name = self.s_name[index]
        self.self_time[name] += duration - frame[1]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration
        self._rid = frame[2]

    def top_name(self) -> Optional[str]:
        """Name of the innermost open span, if any."""
        if not self._stack:
            return None
        return self.names[self.s_name[self._stack[-1][0]]]

    def set_rid(self, index: int, rid: Optional[str]) -> None:
        """Give an already-recorded span its request id after the fact
        (a submit only learns its id from the response)."""
        if rid and not self.s_rid[index]:
            self.s_rid[index] = self.rid_id(rid)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- patching ------------------------------------------------------------

    def _replace(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def wrap_call(self, owner, attribute: str, layer: str,
                  rid: Optional[Callable] = None,
                  post: Optional[Callable] = None,
                  pre: Optional[Callable] = None,
                  span: bool = True) -> None:
        """Time every call of ``owner.attribute`` as a ``layer`` span.

        ``rid(args, kwargs)`` names the request the call serves; ``pre``
        and ``post(tracer, args, result, span_index)`` feed counters. A
        module-level function is also replaced in every ``repro`` module
        that imported it by name. ``span=False`` only counts.
        """
        fn = owner.__dict__[attribute]
        qualname = getattr(fn, "__qualname__", attribute)
        name = self.name_id(f"{layer}:{qualname}", layer)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(tracer, args)
            if not span:
                tracer.calls[name] += 1
                result = fn(*args, **kwargs)
                if post is not None:
                    post(tracer, args, result, -1)
                return result
            token = tracer.open(name, tracer.rid_id(
                rid(args, kwargs) if rid is not None else None))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(token)
            if post is not None:
                post(tracer, args, result, token)
            return result

        wrapper.__name__ = getattr(fn, "__name__", attribute)
        wrapper.__qualname__ = qualname
        wrapper.__doc__ = fn.__doc__
        self._replace(owner, attribute, wrapper)
        if inspect.ismodule(owner):
            for module in list(sys.modules.values()):
                if (module is not owner and module is not None
                        and getattr(module, "__name__", "").startswith(
                            "repro")
                        and module.__dict__.get(attribute) is fn):
                    self._replace(module, attribute, wrapper)

    def wrap_generator_function(self, owner, attribute: str,
                                layer: str) -> None:
        """Time each resume of the generators ``owner.attribute`` makes
        (for generator functions driven with ``yield from``)."""
        fn = owner.__dict__[attribute]
        name = self.name_id(f"{layer}:{fn.__qualname__}", layer)
        tracer = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.active:
                return gen
            return _TracedGenerator(gen, tracer, name, tracer._rid)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        self._replace(owner, attribute, wrapper)

    def wrap_processes(self) -> None:
        """Count ``Environment.process`` calls and time every resume of
        the generator handed to it, attributed by defining module."""
        from repro.sim.kernel import Environment

        original = Environment.__dict__["process"]
        tracer = self
        by_code: Dict[object, int] = {}

        def process(env, generator):
            if isinstance(generator, _TracedGenerator):
                return original(env, generator)
            if tracer.active:
                tracer.count("sim.processes")
            code = getattr(generator, "gi_code", None)
            name = by_code.get(code)
            if name is None:
                layer = BENCH if code is None else _layer_of_code(code)
                label = getattr(code, "co_qualname",
                                getattr(code, "co_name", "generator"))
                name = by_code[code] = tracer.name_id(
                    f"{layer}:{label}", layer)
            return original(env, _TracedGenerator(generator, tracer, name,
                                                  tracer._rid))

        process.__doc__ = original.__doc__
        self._replace(Environment, "process", process)

    def install(self) -> "LayerTracer":
        """Patch every layer's public entry points (see :func:`_install`)."""
        _install(self)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        self.active = False

    # -- results -------------------------------------------------------------

    def start(self) -> None:
        self.started = perf_counter()
        self.active = True

    def stop(self) -> None:
        self.active = False
        self.stopped = perf_counter()

    @property
    def wall_s(self) -> float:
        return self.stopped - self.started

    def spans(self) -> int:
        return len(self.s_name)

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per layer: spans (calls + resumes), self seconds, share of run.

        ``sim`` gets the run's wall time not covered by any span.
        """
        table = {layer: {"calls": 0, "self_s": 0.0}
                 for layer in LAYERS + (BENCH,)}
        covered = 0.0
        for index, layer in enumerate(self.layers):
            row = table[layer]
            row["calls"] += self.calls[index]
            row["self_s"] += self.self_time[index]
            covered += self.self_time[index]
        table["sim"]["self_s"] += max(0.0, self.wall_s - covered)
        for row in table.values():
            row["share"] = row["self_s"] / self.wall_s if self.wall_s else 0.0
        return table

    def self_s(self, names) -> float:
        """Summed self time of the named spans."""
        return sum(self.self_time[self._name_ids[name]]
                   for name in names if name in self._name_ids)

    def calls_of(self, name: str) -> int:
        index = self._name_ids.get(name)
        return 0 if index is None else self.calls[index]

    def write_spans(self, path: str) -> None:
        """Write every span as gzipped JSON lines: a header with the
        name/layer and request-id tables, then one
        ``[name, start_us, end_us, parent, rid]`` array per span (times
        from the run's start, parent -1 for a root span)."""
        base = self.started
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"names": self.names, "layers": self.layers,
                                  "rids": self.rids}) + "\n")
            for index in range(len(self.s_name)):
                out.write("[%d,%.3f,%.3f,%d,%d]\n" % (
                    self.s_name[index],
                    (self.s_start[index] - base) * 1e6,
                    (self.s_end[index] - base) * 1e6,
                    self.s_parent[index], self.s_rid[index]))


# --------------------------------------------------------------------------
# The patch set: which public calls mark a layer boundary
# --------------------------------------------------------------------------

#: DGMS calls that change the catalog or the stored bytes.
GRID_WRITES = ("put", "replicate", "migrate", "delete", "remove_replica",
               "set_metadata", "overwrite")
#: Their process bodies (the timed part of a write).
GRID_WRITE_BODIES = tuple("_" + name for name in GRID_WRITES
                          if name != "set_metadata")


def _arg(position: int, keyword: str):
    def rid(args, kwargs):
        value = kwargs.get(keyword) if keyword in kwargs else (
            args[position] if len(args) > position else None)
        return value if isinstance(value, str) else None
    return rid


def _status_rid(args, kwargs):
    body = getattr(args[1], "body", None)
    return getattr(body, "request_id", None)


def _response_rid(tracer, args, result, token):
    if token >= 0:
        tracer.set_rid(token, getattr(result, "request_id", None))


def _install(tracer: LayerTracer) -> None:
    mod = importlib.import_module
    dgl_expr = mod("repro.dgl.expressions")
    dgl_xml = mod("repro.dgl.xml_io")
    dgl_schema = mod("repro.dgl.schema")
    execution = mod("repro.dfms.execution")
    engine = mod("repro.dfms.engine")
    server = mod("repro.dfms.server")
    gateway = mod("repro.dfms.gateway")
    cache = mod("repro.dfms.cache")
    checkpoint = mod("repro.dfms.checkpoint")
    dgms = mod("repro.grid.dgms")
    events = mod("repro.grid.events")
    transfer = mod("repro.network.transfer")
    storage = mod("repro.storage.resource")
    faults = mod("repro.faults.model")
    recovery = mod("repro.faults.recovery")
    grid_fed = mod("repro.grid.federation")
    placement = mod("repro.federation.placement")
    fed_chaos = mod("repro.federation.chaos")
    rls = mod("repro.federation.rls")
    sync = mod("repro.federation.sync")
    ilm = mod("repro.ilm.engine")
    triggers = mod("repro.triggers.manager")
    provenance = mod("repro.provenance.store")
    tel_core = mod("repro.telemetry.core")
    tel_events = mod("repro.telemetry.events")
    tel_tracing = mod("repro.telemetry.tracing")
    wrap = tracer.wrap_call

    tracer.wrap_processes()

    # dgl: expression evaluation, templates, validation, XML I/O.
    for name in ("evaluate", "evaluate_condition"):
        wrap(dgl_expr, name, "dgl",
             pre=lambda t, a: t.count("dgl.evals"))
    wrap(dgl_expr, "render_template", "dgl",
         pre=lambda t, a: t.count("dgl.renders"))
    wrap(dgl_schema, "validate_request", "dgl")
    for name in ("request_to_xml", "request_from_xml"):
        wrap(dgl_xml, name, "dgl")

    # dfms: engine entry, step completions, server, gateway, cache,
    # checkpoint.
    wrap(engine.FlowEngine, "start", "dfms.engine")
    wrap(execution.FlowExecution, "record_step", "dfms.engine", span=False,
         pre=lambda t, a: t.count("dfms.engine.steps"))

    submit_name = "dfms.server:DfMSServer.submit"

    def _server_request(t, args):
        t.count("dfms.server.requests")

    def _started_flow(t, args):
        if t.top_name() != submit_name:
            t.count("dfms.server.requests")

    wrap(server.DfMSServer, "submit", "dfms.server", rid=_status_rid,
         pre=_server_request, post=_response_rid)
    wrap(server.DfMSServer, "start_flow", "dfms.server",
         rid=_arg(2, "request_id"), pre=_started_flow)
    wrap(server.DfMSServer, "status", "dfms.server",
         rid=_arg(1, "request_id"))
    wrap(server.DfMSServer, "wait", "dfms.server", rid=_arg(1, "request_id"))
    wrap(gateway.DfMSGateway, "submit", "dfms.gateway", rid=_status_rid,
         pre=lambda t, a: t.count("dfms.gateway.requests"),
         post=_response_rid)
    for name in ("run_query", "lookup_replica", "store_replica",
                 "_on_catalog_change", "on_acl_change"):
        wrap(cache.DgmsCache, name, "dfms.cache")
    wrap(checkpoint, "checkpoint_execution", "dfms.checkpoint",
         rid=_arg(1, "request_id"),
         pre=lambda t, a: t.count("dfms.checkpoint.snapshots"))
    wrap(checkpoint, "restore_execution", "dfms.checkpoint",
         rid=lambda a, k: (a[1] if len(a) > 1 else k["snapshot"]).get(
             "request_id"))

    # grid: queries, replica selection, writes, other catalog calls.
    def _rows(t, args, result, token):
        t.count("grid.query_rows", len(result))

    wrap(dgms.DataGridManagementSystem, "query", "grid", post=_rows)
    wrap(dgms.DataGridManagementSystem, "select_replica", "grid")
    for name in GRID_WRITES + ("get", "checksum", "create_collection",
                               "grant", "move", "stat"):
        wrap(dgms.DataGridManagementSystem, name, "grid")
    wrap(events.EventBus, "publish", "grid")

    # network and storage.
    def _transfer(t, args):
        t.count("network.transfers")

    wrap(transfer.TransferService, "transfer", "network", pre=_transfer)
    for name in ("fail_link", "replace_link"):
        wrap(transfer.TransferService, name, "network")
    for name in ("write", "read", "delete"):
        wrap(storage.PhysicalStorageResource, name, "storage")

    # faults: both drivers' window transitions and hold/release mechanics.
    for owner in (faults.FaultDriver, fed_chaos.FederationFaultDriver):
        for name in ("_begin", "_end"):
            wrap(owner, name, "faults")
    for name in ("hold_storage", "release_storage", "hold_link",
                 "release_link"):
        wrap(faults.FaultDriver, name, "faults")
    wrap(recovery.RecoveryService, "note", "faults.recovery")
    for name in ("backoff", "run_transfer"):
        tracer.wrap_generator_function(recovery.RecoveryService, name,
                                       "faults.recovery")
    for name in ("run", "supervise"):
        tracer.wrap_generator_function(recovery.FlowSupervisor, name,
                                       "faults.recovery")

    # federation: copies, locates, placement; the RLS and digest sync.
    wrap(grid_fed.Federation, "locate", "federation", rid=_arg(1, "guid"))
    wrap(grid_fed.Federation, "cross_zone_copy", "federation")
    wrap(grid_fed.Federation, "bridge_cost", "federation")
    wrap(placement, "cross_zone_copy_by_guid", "federation",
         rid=_arg(2, "guid"))
    wrap(rls.ReplicaLocationService, "locate", "federation.rls",
         rid=_arg(1, "guid"))
    for name in ("publish_shards", "publish_zone", "flush_all"):
        wrap(rls.ReplicaLocationService, name, "federation.rls")
    for name in ("add", "discard"):
        wrap(rls.LocalReplicaCatalog, name, "federation.rls")
    for name in ("_on_change", "_flush", "flush_now"):
        wrap(sync.DigestSyncer, name, "federation.sync")

    # ilm, triggers, provenance, telemetry.
    wrap(ilm.ILMManager, "run_pass", "ilm")
    for name in ("_op_gate", "_op_apply"):
        wrap(ilm.ILMManager, name, "ilm")
    tracer.wrap_generator_function(ilm.ILMManager, "run_pass_sync", "ilm")
    wrap(triggers.TriggerManager, "_on_event", "triggers")
    wrap(provenance.ProvenanceStore, "append", "provenance")
    wrap(tel_core.Telemetry, "engine_listener", "telemetry")
    wrap(tel_events.EventLog, "emit", "telemetry")
    for name in ("begin", "finish"):
        wrap(tel_tracing.Tracer, name, "telemetry")
