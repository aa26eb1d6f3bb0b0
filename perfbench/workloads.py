"""The benchmark's three workloads: deployment, load, invariants, signature.

Each workload is a pair of steps the runner times separately:

* ``build(seed, scale)`` — set-up: construct the deployment and load its
  data (the ``setup_s`` metric). Returns a :class:`Deployment`.
* ``run(deployment)`` — the timed region: generate the open-loop load
  inside the simulation, run the clock until every operation is
  terminal, check the workload's invariants and fingerprint the run.
  Returns an :class:`Outcome`.

Every input is drawn from ``random.Random`` instances seeded from the
workload seed, before the simulation sees it: the program receives only
generated DGL documents, schedules and sizes. ``scale`` shrinks the load
(the self-test runs at a few percent); 1.0 is the benchmark size.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.dfms.cache import attach_cache
from repro.dfms.gateway import DfMSGateway, VOPolicy
from repro.dfms.server import DfMSServer
from repro.dgl.builder import flow_builder, operation
from repro.dgl.model import (
    Action,
    DataGridRequest,
    ExecutionState,
    FlowStatusQuery,
    RequestAcknowledgement,
    Step,
    UserDefinedRule,
)
from repro.faults.model import FaultSchedule, attach_faults
from repro.faults.recovery import FlowSupervisor, RetryPolicy, attach_recovery
from repro.federation import placement
from repro.federation.chaos import (
    attach_federation_faults,
    federation_fault_schedule,
)
from repro.federation.scenario import federation_scenario
from repro.grid.acl import Permission
from repro.grid.dgms import DataGridManagementSystem
from repro.grid.domains import DomainRole
from repro.grid.events import EventKind
from repro.grid.query import Query, parse_conditions
from repro.ilm.engine import ILMManager
from repro.ilm.policy import ILMPolicy, PlacementRule
from repro.network.topology import Topology
from repro.provenance import ProvenanceStore, attach_to_dgms, attach_to_server
from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams
from repro.storage import GB, MB, PhysicalStorageResource, StorageClass
from repro.telemetry.instrument import attach_telemetry
from repro.triggers import DatagridTrigger, TriggerManager
from repro.workloads.generators import populate_collection
from repro.workloads.scenarios import cms_scenario

__all__ = ["Deployment", "Outcome", "WORKLOADS", "MIN_SOJOURN_SAMPLES"]

#: Each workload yields at least this many sojourn samples at scale 1.0,
#: so the reported p99 has at least ten samples beyond it.
MIN_SOJOURN_SAMPLES = 1000

#: Recovery budget for the fault-carrying workloads: long enough that a
#: retry outwaits the longest fault window, so no operation fails.
RETRY_POLICY = RetryPolicy(max_attempts=12, base_delay=1.0, multiplier=2.0,
                           max_delay=30.0, jitter=0.1)

#: Restart budget of the supervised ILM passes: a pass spans many fault
#: windows, and each window it meets may cost one checkpoint restart.
RESTART_POLICY = RetryPolicy(max_attempts=40, base_delay=1.0,
                             multiplier=2.0, max_delay=30.0, jitter=0.1)


@dataclass
class Deployment:
    """A built deployment plus handles the runner, checks and tracer read.

    ``grids`` maps a name to each datagrid; the optional handles are the
    subsystems a workload attaches (``None`` where it attaches none).
    """

    env: Environment
    grids: Dict[str, DataGridManagementSystem]
    servers: List[DfMSServer] = field(default_factory=list)
    provenance: Optional[ProvenanceStore] = None
    gateway: Optional[DfMSGateway] = None
    cache: object = None
    telemetry: object = None
    triggers: Optional[TriggerManager] = None
    ilm: Optional[ILMManager] = None
    supervisor: Optional[FlowSupervisor] = None
    recoveries: List[object] = field(default_factory=list)
    fault_drivers: List[object] = field(default_factory=list)
    federation: object = None
    rls: object = None
    #: The generated inputs and whatever the workload's run step needs.
    plan: Dict[str, object] = field(default_factory=dict)
    #: Counters the workload keeps through public listener surfaces.
    tallies: Dict[str, int] = field(default_factory=dict)


@dataclass
class Outcome:
    """What one timed run produced."""

    #: Operations completed successfully / attempted / failed.
    ops: int
    attempted: int
    failed: int
    #: Requests offered at the front door and refused there (0 with no
    #: gateway; sheds are not failures).
    offered: int
    shed: int
    #: Per top-level operation, submit → terminal, in sim seconds.
    sojourns: List[float]
    #: First operation → last terminal operation, in sim seconds.
    makespan: float
    #: Broken invariants (failed operations are counted, not listed).
    violations: List[str]
    #: sha256 over the run's simulated signature.
    digest: str


def _digest(signature: Tuple) -> str:
    return hashlib.sha256(repr(signature).encode()).hexdigest()


def _transfer_signature(dgms: DataGridManagementSystem) -> Tuple:
    transfers = dgms.transfers
    return (transfers.total_bytes_moved, transfers.interrupted_count,
            tuple((s.src, s.dst, s.nbytes, s.start_time, s.end_time)
                  for s in transfers.completed))


def _execution_signature(server: DfMSServer) -> Tuple:
    return tuple(sorted((e.request_id, e.state.value, e.submitted_at,
                         e.finished_at, len(e.journal))
                        for e in server.executions()))


def _lost_replicas(name: str, dgms: DataGridManagementSystem) -> List[str]:
    """No lost replicas: catalog and physical allocations agree."""
    violations = []
    for obj in dgms.namespace.iter_objects("/"):
        good = obj.good_replicas()
        if not good:
            violations.append(f"{name}:{obj.path}: no good replicas left")
        for replica in good:
            physical = dgms.resources.physical(replica.physical_name).physical
            if not physical.holds(replica.allocation_id):
                violations.append(
                    f"{name}:{obj.path}: replica {replica.allocation_id} "
                    f"missing from {replica.physical_name}")
    return violations


def _unfinished_executions(server: DfMSServer) -> List[str]:
    """Every execution reached a terminal state."""
    return [f"{e.request_id}: stuck in {e.state.value}"
            for e in server.executions() if not e.state.is_terminal]


def _provenance_gaps(server: DfMSServer,
                     provenance: ProvenanceStore) -> List[str]:
    """Provenance complete: start, terminal record, and a completion
    record per journalled step instance of every execution."""
    violations = []
    for execution in server.executions():
        kinds = {record.operation
                 for record in provenance.for_subject(execution.request_id)}
        if "execution_started" not in kinds:
            violations.append(f"{execution.request_id}: provenance missing "
                              "execution_started")
        terminal = f"execution_{execution.state.value}"
        if execution.state.is_terminal and terminal not in kinds:
            violations.append(
                f"{execution.request_id}: provenance missing {terminal}")
        for key in execution.journal:
            step_kinds = {record.operation for record in provenance.
                          for_subject(f"{execution.request_id}/{key}")}
            if not step_kinds & {"step_completed", "step_replayed"}:
                violations.append(f"{execution.request_id}/{key}: step has "
                                  "no completion provenance")
    return violations


def _fault_accounting(driver, telemetry, recoveries) -> List[str]:
    """Every fault window began, ended and left a telemetry pair; every
    recovery action was mirrored into the telemetry log."""
    violations = []
    if driver.begun != len(driver.schedule):
        violations.append(
            f"{driver.begun}/{len(driver.schedule)} fault windows began")
    if driver.ended != driver.begun:
        violations.append(
            f"{driver.ended}/{driver.begun} fault windows ended")
    begins = len(telemetry.log.of_kind("fault.begin"))
    ends = len(telemetry.log.of_kind("fault.end"))
    if begins != driver.begun or ends != driver.ended:
        violations.append(f"telemetry saw {begins} begins/{ends} ends for "
                          f"{driver.begun}/{driver.ended} fault transitions")
    kinds = set()
    for service in recoveries:
        kinds.update(service.counts)
    logged = sum(len(telemetry.log.of_kind(f"recovery.{kind}"))
                 for kind in kinds)
    total = sum(service.total_actions for service in recoveries)
    if logged != total:
        violations.append(
            f"telemetry logged {logged} of {total} recovery actions")
    return violations


def _shifted(schedule: FaultSchedule, offset: float) -> FaultSchedule:
    """``schedule`` with every window moved ``offset`` sim seconds later:
    schedules are drawn over ``[0, horizon)`` and armed once set-up has
    already advanced the clock."""
    return FaultSchedule([dataclasses.replace(event,
                                              start=event.start + offset)
                          for event in schedule])


def _segmented(draw: Callable[[float, int], FaultSchedule], horizon: float,
               segments: int, per_segment: int) -> FaultSchedule:
    """Fault windows spread over the whole horizon: ``draw(length, n)``
    yields a random schedule over ``[0, length)``; one is drawn per
    segment and moved into place, so windows stay short next to the
    recovery budget however long the horizon is."""
    length = horizon / segments
    events = []
    for segment in range(segments):
        events.extend(_shifted(draw(length, per_segment),
                               segment * length))
    return FaultSchedule(events)


def _scaled(count: int, scale: float, floor: int = 2) -> int:
    return max(floor, int(round(count * scale)))


def _request(user: str, vo: str, body,
             asynchronous: bool = True) -> DataGridRequest:
    return DataGridRequest(user=user, virtual_organization=vo, body=body,
                           asynchronous=asynchronous)


def _dgl_list(values) -> str:
    return "[" + ", ".join(values) + "]"


# --------------------------------------------------------------------------
# flow_engine: the paper's two §4 prototype pipelines at scale
# --------------------------------------------------------------------------

FLOW_ENGINE_FLOWS = 1250          # top-level flows at scale 1.0
FLOW_ENGINE_BATCHES = 192         # pre-loaded integrity collections
FLOW_ENGINE_BATCH_SIZE = 8        # objects per integrity collection
FLOW_ENGINE_RATE = 2.0            # flow arrivals per sim second


def _scec_flow(index: int, names: List[str], sizes: List[float]):
    """SCEC-style ingest: forEach over a manifest → srb.put plus a
    ``${…}``-templated srb.set_metadata."""
    run = f"run-{index:05d}"
    return (flow_builder(f"scec-{index:05d}")
            .variable("run", run)
            .before_entry(operation("srb.create_collection",
                                    path="/scec/${run}"))
            .for_each("i", items=_dgl_list(
                str(i) for i in range(len(names))))
            .step("put", "srb.put", assign_to="path",
                  path="/scec/${run}/${" + _dgl_list(
                      f"'{n}'" for n in names) + "[i]}",
                  size="${" + _dgl_list(f"{s:.0f}" for s in sizes) + "[i]}",
                  resource="sdsc-disk")
            .step("tag", "srb.set_metadata", path="${path}",
                  attribute="run", value="${run}")
            .build())


def _integrity_flow(index: int, collection: str, fmt: str):
    """UCSD-style integrity: forEach over a query → srb.checksum →
    srb.set_metadata md5=…, guarded by beforeEntry/afterExit rules."""
    return (flow_builder(f"integrity-{index:05d}")
            .for_each("f", collection=collection,
                      query=f"meta:format = '{fmt}'")
            .variable("round", index)
            .before_entry(operation("dgl.log",
                                    message="integrity round ${round}"),
                          condition="round >= 0")
            .after_exit(operation("dgl.log",
                                  message="verified ${f}"),
                        condition="round >= 0")
            .step("checksum", "srb.checksum", assign_to="digest",
                  path="${f}")
            .step("tag", "srb.set_metadata", path="${f}", attribute="md5",
                  value="${digest}")
            .build())


def _parallel_flow(index: int, paths: List[str], limit: int):
    """A ``parallel`` block with ``max_concurrent``: per object a
    checksum then an audit stamp, at most ``limit`` objects at once."""
    builder = flow_builder(f"audit-{index:05d}").parallel(
        max_concurrent=limit)
    for slot, path in enumerate(paths):
        builder.subflow(
            flow_builder(f"obj-{slot}")
            .step("checksum", "srb.checksum", assign_to="digest", path=path)
            .step("stamp", "srb.set_metadata", path=path,
                  attribute="audit", value="${digest}"))
    return builder.build()


def build_flow_engine(seed: int, scale: float) -> Deployment:
    """A single-domain SRB grid with provenance, an INSERT trigger and
    pre-loaded integrity collections; no gateway, cache, telemetry,
    faults or federation."""
    rng = random.Random(f"flow_engine/{seed}")
    env = Environment()
    dgms = DataGridManagementSystem(env, Topology(), name="srb")
    dgms.register_domain("sdsc", DomainRole.CURATOR)
    dgms.register_resource("sdsc-disk", "sdsc", PhysicalStorageResource(
        "sdsc-disk-1", StorageClass.DISK, 100_000 * GB))
    server = DfMSServer(env, dgms, name="srb-matrix")
    provenance = ProvenanceStore()
    attach_to_dgms(provenance, dgms)
    attach_to_server(provenance, server)
    scientist = dgms.register_user("scientist", "sdsc")
    dgms.create_collection(scientist, "/scec", parents=True)
    dgms.create_collection(scientist, "/library", parents=True)

    triggers = TriggerManager(dgms, server, ordering="priority")
    triggers.register(DatagridTrigger(
        name="stamp-ingest", owner=scientist,
        kinds=frozenset({EventKind.INSERT}), path_pattern="/scec/*",
        action=(flow_builder("stamp")
                .step("stamp", "srb.set_metadata", path="${event_path}",
                      attribute="ingested_by", value="${event_user}")
                .build())))

    n_batches = _scaled(FLOW_ENGINE_BATCHES, scale)
    batch_paths: List[List[str]] = []

    def _load():
        for batch in range(n_batches):
            collection = f"/library/batch-{batch:03d}"
            dgms.create_collection(scientist, collection)
            paths = []
            for item in range(FLOW_ENGINE_BATCH_SIZE):
                path = f"{collection}/scan-{item:03d}.dat"
                yield dgms.put(scientist, path,
                               rng.uniform(1 * MB, 40 * MB), "sdsc-disk",
                               metadata={"format": ("tiff", "pdf")[item % 2],
                                         "batch": batch})
                paths.append(path)
            batch_paths.append(paths)

    env.run_process(_load())

    # The load: open-loop Poisson arrivals of the three flow shapes over
    # a fixed horizon (a Poisson process given its count places the
    # arrivals uniformly, so the horizon does not vary with the seed).
    n_flows = _scaled(FLOW_ENGINE_FLOWS, scale, floor=6)
    horizon = n_flows / FLOW_ENGINE_RATE
    arrivals = []
    for index, now in enumerate(sorted(rng.uniform(0.0, horizon)
                                       for _ in range(n_flows))):
        kind = index % 5
        if kind in (0, 1):
            count = rng.randint(3, 6)
            flow = _scec_flow(
                index, [f"wave-{i:03d}.dat" for i in range(count)],
                [rng.uniform(10 * MB, 200 * MB) for _ in range(count)])
        elif kind in (2, 3):
            batch = rng.randrange(n_batches)
            flow = _integrity_flow(index, f"/library/batch-{batch:03d}",
                                   rng.choice(("tiff", "pdf")))
        else:
            paths = rng.sample(batch_paths[rng.randrange(n_batches)], 4)
            flow = _parallel_flow(index, paths, limit=2)
        arrivals.append((now, flow))
    return Deployment(
        env=env, grids={"srb": dgms}, servers=[server],
        provenance=provenance, triggers=triggers,
        plan={"arrivals": arrivals, "user": scientist.qualified_name})


def run_flow_engine(dep: Deployment) -> None:
    env = dep.env
    server = dep.servers[0]
    user = dep.plan["user"]
    start = env.now
    request_ids: List[str] = []

    def _driver():
        for at, flow in dep.plan["arrivals"]:
            delay = start + at - env.now
            if delay > 0:
                yield env.timeout(delay)
            response = server.submit(_request(user, "scec", flow))
            request_ids.append(response.request_id)
        for request_id in request_ids:
            yield server.wait(request_id)

    env.run_process(_driver())
    env.run()
    dep.plan["request_ids"] = request_ids


def check_flow_engine(dep: Deployment) -> Outcome:
    env = dep.env
    server = dep.servers[0]
    dgms = dep.grids["srb"]
    request_ids = dep.plan["request_ids"]
    executions = server.executions()
    mine = [server.execution(rid) for rid in request_ids]
    steps_ok = sum(len(e.journal) for e in executions
                   if e.state is ExecutionState.COMPLETED)
    failed = [e for e in executions if e.state is not ExecutionState.COMPLETED]
    steps_attempted = steps_ok + sum(max(1, len(e.journal)) for e in failed)
    violations = (_lost_replicas("srb", dgms)
                  + _unfinished_executions(server)
                  + _provenance_gaps(server, dep.provenance))
    # Every ingested object was stamped by the INSERT trigger and tagged
    # by its flow; every integrity pass left a verified md5.
    ingested = list(dgms.namespace.iter_objects("/scec"))
    for obj in ingested:
        if obj.metadata.get("ingested_by") is None:
            violations.append(f"{obj.path}: INSERT trigger never stamped it")
        if obj.metadata.get("run") is None:
            violations.append(f"{obj.path}: ingest flow never tagged it")
    fired = sum(t.firings for t in dep.triggers.triggers())
    if fired != len(ingested):
        violations.append(f"trigger fired {fired} times for "
                          f"{len(ingested)} ingests")
    for obj in dgms.namespace.iter_objects("/library"):
        md5 = obj.metadata.get("md5")
        if md5 is not None and md5 != obj.checksum:
            violations.append(f"{obj.path}: md5 metadata {md5} != "
                              f"checksum {obj.checksum}")
    first = min(e.submitted_at for e in mine)
    last = max(e.finished_at for e in executions
               if e.finished_at is not None)
    signature = (env.now, _transfer_signature(dgms),
                 _execution_signature(server), len(dep.provenance),
                 dgms.events.published_count)
    return Outcome(
        ops=steps_ok, attempted=steps_attempted,
        failed=steps_attempted - steps_ok,
        offered=len(request_ids), shed=0,
        sojourns=[e.finished_at - e.submitted_at for e in mine],
        makespan=last - first, violations=violations,
        digest=_digest(signature))


# --------------------------------------------------------------------------
# gateway_mix: a day at the front end
# --------------------------------------------------------------------------

GATEWAY_HORIZON_S = 900.0         # sim seconds of offered load at scale 1.0
GATEWAY_OBJECTS = 360             # objects in the populated collection
GATEWAY_DATASET_SIZE = 6          # objects per dataset value
GATEWAY_CACHE_ENTRIES = 48        # fewer than the distinct queries
GATEWAY_MEAN_GAP_S = 0.3          # mean sim seconds between sessions
GATEWAY_EVENT_SIZE = 12 * MB      # median bytes per event object
GATEWAY_WORKERS = 4               # gateway worker pool (concurrency)
GATEWAY_QUEUE = 16                # gateway queue bound
GATEWAY_PARETO_ALPHA = 2.5        # session gap tail (lower = burstier)
GATEWAY_FAULT_SEGMENTS = 90       # horizon slices, each with its own
GATEWAY_FAULTS_PER_SEGMENT = 1    # ... random fault windows
#: VO → (arrival weight, token rate/s, burst, DRR weight, role).
GATEWAY_VOS = {
    "cms-analysis": (6.0, 3.0, 12.0, 3.0, "reader"),
    "cms-monitor": (3.0, 1.6, 6.0, 1.0, "reader"),
    "cms-calib": (1.0, 1.0, 4.0, 2.0, "writer"),
}


#: The reader's onError rule: replica selection raises NoRouteError,
#: outside the DGMS failover loop, while a link outage cuts the reader's
#: tier-2 domain off; the rule retries the read once the link is back.
#: Retries are counted (``dfms.engine.step_retries``), so the defect
#: stays visible in the traced run.
FETCH_RETRY = UserDefinedRule(
    name="onError", condition="true",
    actions=[Action(name="retry",
                    operation=operation("dgl.retry", max=12, delay=2.0))])


def _zipf_weights(n: int, exponent: float = 0.8) -> List[float]:
    """Cumulative Zipf weights over ``range(n)``: rank r has weight
    ``1 / (r + 1) ** exponent`` (a skewed key popularity)."""
    return list(itertools.accumulate(
        1.0 / (rank + 1) ** exponent for rank in range(n)))


def build_gateway_mix(seed: int, scale: float) -> Deployment:
    """A CMS tier grid with a populated, replicated collection behind a
    DfMSGateway (per-VO buckets, DRR weights, bounded queue), with the
    cache tier, telemetry, DGMS recovery, a supervised ILM manager and
    a random fault schedule attached."""
    rng = random.Random(f"gateway_mix/{seed}")
    n_objects = _scaled(GATEWAY_OBJECTS, scale, floor=24)
    n_datasets = max(2, n_objects // GATEWAY_DATASET_SIZE)
    horizon = GATEWAY_HORIZON_S * max(scale, 0.02)
    scenario = cms_scenario(n_tier1=2, n_tier2_per_t1=2, n_events=0,
                            seed=seed)
    env, dgms, server = scenario.env, scenario.dgms, scenario.server
    physicist = scenario.users["physicist"]
    paths = env.run_process(populate_collection(
        dgms, physicist, "/cms/run1", n_objects, "cern-disk",
        size=lambda: rng.lognormvariate(math.log(GATEWAY_EVENT_SIZE), 0.3),
        name_prefix="events",
        metadata=lambda i: {"run": 1, "dataset": f"d{i % n_datasets:03d}",
                            "quality": 0}))
    tier1 = scenario.extras["tier1"]
    tier2 = scenario.extras["tier2"]
    users = {}
    for index, vo in enumerate(sorted(GATEWAY_VOS)):
        users[vo] = dgms.register_user(vo.split("-")[1],
                                       tier2[index % len(tier2)])

    def _replicate():
        for path in paths:
            obj = dgms.namespace.resolve_object(path)
            obj.acl.grant("*", Permission.READ)
            obj.acl.grant(users["cms-calib"].qualified_name,
                          Permission.WRITE)
            for t1 in tier1:
                yield dgms.replicate(physicist, path, f"{t1}-disk")

    env.run_process(_replicate())

    telemetry = attach_telemetry(env, server=server, dgms=dgms)
    cache = attach_cache(dgms, max_entries=GATEWAY_CACHE_ENTRIES)
    streams = RandomStreams(seed)
    recovery = attach_recovery(dgms, streams, policy=RETRY_POLICY)
    supervisor = FlowSupervisor(server, streams, policy=RESTART_POLICY,
                                recovery=recovery)
    gateway = DfMSGateway(
        env, server, workers=GATEWAY_WORKERS, queue_limit=GATEWAY_QUEUE,
        vo_policies={vo: VOPolicy(rate=rate, burst=burst, weight=weight)
                     for vo, (_, rate, burst, weight, _)
                     in GATEWAY_VOS.items()})
    manager = ILMManager(server)
    tallies = {"ilm_actions": 0}

    def _on_ilm(kind, _policy, _time, _detail):
        if kind == "applied":
            tallies["ilm_actions"] += 1

    manager.listeners.append(_on_ilm)
    for resource in scenario.extras["tier2_resources"]:
        manager.add_policy(ILMPolicy(
            name=f"mirror-{resource}", collection="/cms/run1",
            query=f"meta:dataset < 'd{n_datasets // 4:03d}'",
            domain=resource[:-len("-disk")],
            rules=[PlacementRule("fan-out", "replica_count < 5",
                                 "replicate_to", resource)]))

    # The generated load: sessions with Pareto gaps, each a VO, a kind,
    # a tier-2 vantage and its request documents, drawn up front.
    alpha = GATEWAY_PARETO_ALPHA
    xm = GATEWAY_MEAN_GAP_S * (alpha - 1.0) / alpha
    vos = sorted(GATEWAY_VOS)
    weights = [GATEWAY_VOS[vo][0] for vo in vos]
    popularity = _zipf_weights(n_datasets)
    datasets = range(n_datasets)
    sessions = []
    now = 0.0
    while True:
        now += rng.paretovariate(alpha) * xm
        if now >= horizon:
            break
        vo = rng.choices(vos, weights=weights)[0]
        index = len(sessions)
        if GATEWAY_VOS[vo][4] == "writer":
            targets = rng.sample(paths, 2)
            builder = flow_builder(f"calib-{index:05d}")
            for slot, path in enumerate(targets):
                builder.step(f"w{slot}", "srb.set_metadata", path=path,
                             attribute="quality", value=rng.randint(1, 9))
            flow = builder.build()
        else:
            dataset = "d%03d" % rng.choices(datasets,
                                            cum_weights=popularity)[0]
            query = f"meta:dataset = '{dataset}'"
            if rng.random() < 0.25:
                query += " and meta:quality >= 0"
            flow = (flow_builder(f"read-{index:05d}")
                    .step("lookup", "srb.query", assign_to="hits",
                          collection="/cms/run1", query=query)
                    .add_step(Step(
                        name="fetch",
                        operation=operation(
                            "srb.get", to_domain=rng.choice(tier2),
                            path="${hits[%d]}" % rng.randrange(
                                GATEWAY_DATASET_SIZE)),
                        rules=[FETCH_RETRY]))
                    .build())
        # Like TrafficGenerator: 10 % of sessions hold a synchronous
        # submission; the rest poll a geometric number of times (mean 3)
        # with exponential think gaps.
        sync = rng.random() < 0.1
        polls = []
        if not sync:
            while rng.random() >= 1.0 / (1.0 + 3.0):
                polls.append(rng.expovariate(1.0 / 0.8))
        sessions.append((now, vo, flow, sync, polls))
    ilm_passes = [(horizon * 0.8 * (k + 0.5) / len(tier2),
                   f"mirror-{resource}")
                  for k, resource in enumerate(
                      scenario.extras["tier2_resources"])]
    schedule = _segmented(
        lambda length, n: FaultSchedule.random(streams, dgms, length,
                                               n_events=n),
        horizon, _scaled(GATEWAY_FAULT_SEGMENTS, scale, floor=1),
        GATEWAY_FAULTS_PER_SEGMENT)
    return Deployment(
        env=env, grids={"cms": dgms}, servers=[server],
        provenance=scenario.provenance, gateway=gateway, cache=cache,
        telemetry=telemetry, ilm=manager, supervisor=supervisor,
        recoveries=[recovery], tallies=tallies,
        plan={"sessions": sessions, "users": users, "horizon": horizon,
              "ilm_passes": ilm_passes, "physicist": physicist,
              "schedule": schedule, "streams": streams,
              "datasets": n_datasets})


def run_gateway_mix(dep: Deployment) -> None:
    env = dep.env
    dgms = dep.grids["cms"]
    gateway = dep.gateway
    plan = dep.plan
    start = env.now
    driver = attach_faults(dgms, _shifted(plan["schedule"], start),
                           plan["streams"])
    dep.fault_drivers = [driver]
    polls = {"offered": 0, "answered": 0, "shed": 0, "wrong": 0}
    flows = {"offered": 0, "shed": 0, "ids": []}
    ilm_statuses: List[object] = []

    def _session(vo, flow, sync, poll_gaps):
        user = plan["users"][vo].qualified_name
        flows["offered"] += 1
        if sync:
            response = yield from gateway.submit_sync(
                _request(user, vo, flow, asynchronous=False))
            if response.is_rejection:
                flows["shed"] += 1
            else:
                flows["ids"].append(response.request_id)
            return
        response = gateway.submit(_request(user, vo, flow))
        if response.is_rejection:
            flows["shed"] += 1
            return
        request_id = response.request_id
        flows["ids"].append(request_id)
        for gap in poll_gaps:
            yield env.timeout(gap)
            polls["offered"] += 1
            answer = gateway.submit(_request(
                user, vo, FlowStatusQuery(request_id=request_id,
                                          max_depth=0)))
            if answer.is_rejection:
                polls["shed"] += 1
            elif (isinstance(answer.body, RequestAcknowledgement)
                    and not answer.body.valid):
                polls["wrong"] += 1
            else:
                polls["answered"] += 1

    def _ilm(at, name):
        yield env.timeout(at)
        status = yield from dep.ilm.run_pass_sync(
            name, plan["physicist"], supervisor=dep.supervisor)
        ilm_statuses.append(status)

    def _driver():
        processes = [env.process(_ilm(at, name))
                     for at, name in plan["ilm_passes"]]
        for at, vo, flow, sync, poll_gaps in plan["sessions"]:
            delay = start + at - env.now
            if delay > 0:
                yield env.timeout(delay)
            processes.append(env.process(
                _session(vo, flow, sync, poll_gaps)))
        for process in processes:
            yield process

    env.run_process(_driver())
    env.run()
    dep.plan.update(start=start, polls=polls, flows=flows,
                    ilm_statuses=ilm_statuses)


def check_gateway_mix(dep: Deployment) -> Outcome:
    env = dep.env
    dgms = dep.grids["cms"]
    server = dep.servers[0]
    gateway = dep.gateway
    plan = dep.plan
    start, polls, flows = plan["start"], plan["polls"], plan["flows"]
    ilm_statuses = plan["ilm_statuses"]
    driver = dep.fault_drivers[0]
    executions = {e.request_id: e for e in server.executions()}
    mine = [executions[rid] for rid in flows["ids"]]
    flows_ok = sum(1 for e in mine if e.state is ExecutionState.COMPLETED)
    violations = (_lost_replicas("cms", dgms)
                  + _unfinished_executions(server)
                  + _provenance_gaps(server, dep.provenance)
                  + _fault_accounting(driver, dep.telemetry,
                                      dep.recoveries))
    for status in ilm_statuses:
        if status.state is not ExecutionState.COMPLETED:
            violations.append(f"ILM pass ended {status.state.value}")
    if len(ilm_statuses) != len(plan["ilm_passes"]):
        violations.append(f"{len(ilm_statuses)}/"
                          f"{len(plan['ilm_passes'])} ILM "
                          "passes finished")
    if gateway.completed != gateway.admitted or gateway.queue_depth:
        violations.append(f"gateway finished {gateway.completed} of "
                          f"{gateway.admitted} admitted requests")
    if polls["wrong"]:
        violations.append(f"{polls['wrong']} status polls were answered "
                          "as unknown requests")
    # Cached query answers equal fresh catalog answers (a sample of keys).
    for user in plan["users"].values():
        for dataset in range(0, plan["datasets"], 7):
            for suffix in ("", " and meta:quality >= 0"):
                query = Query(collection="/cms/run1",
                              conditions=parse_conditions(
                                  f"meta:dataset = 'd{dataset:03d}'{suffix}"))
                fresh = [obj.path for obj in query.run(dgms.namespace)
                         if obj.acl.allows(user, Permission.READ)]
                cached = [obj.path for obj in dgms.query(user, query)]
                if cached != fresh:
                    violations.append(f"cache served a stale answer for "
                                      f"{user.qualified_name} {query}")
    attempted = len(flows["ids"]) + polls["answered"]
    failed = len(flows["ids"]) - flows_ok
    offered = flows["offered"] + polls["offered"]
    finished = [e.finished_at for e in server.executions()
                if e.finished_at is not None]
    signature = (env.now, _transfer_signature(dgms),
                 _execution_signature(server), len(dep.provenance),
                 gateway.stats(), tuple(gateway.sojourns),
                 tuple(gateway.queue_waits), dep.cache.stats(),
                 tuple(driver.log), dict(dep.recoveries[0].counts),
                 dep.supervisor.restarts, dep.tallies["ilm_actions"],
                 tuple(sorted(polls.items())))
    return Outcome(
        ops=flows_ok + polls["answered"], attempted=attempted,
        failed=failed, offered=offered,
        shed=flows["shed"] + polls["shed"],
        sojourns=list(gateway.sojourns),
        makespan=max(finished) - start, violations=violations,
        digest=_digest(signature))


# --------------------------------------------------------------------------
# zone_chaos: federated replication under zone faults
# --------------------------------------------------------------------------

ZONE_OBJECTS = 1500               # objects per zone at scale 1.0
ZONE_OBJECT_SIZE = 8 * MB         # median bytes per object
ZONE_HORIZON_S = 900.0            # sim seconds the copies and faults span
ZONE_FAULT_SEGMENTS = 36          # horizon slices, each with its own
ZONE_FAULTS_PER_SEGMENT = 2       # ... zone outages / bridge degradations


def build_zone_chaos(seed: int, scale: float) -> Deployment:
    """A 3-zone federation (intra-zone replicas, RLS with a DigestSyncer
    per zone), per-zone recovery, telemetry and a zone fault schedule."""
    rng = random.Random(f"zone_chaos/{seed}")
    horizon = ZONE_HORIZON_S * max(scale, 0.05)
    scenario = federation_scenario(n_zones=3, domains_per_zone=2,
                                   objects_per_zone=0, seed=seed,
                                   sync_period_s=4.0)
    n_objects = _scaled(ZONE_OBJECTS, scale, floor=4)

    def _load():
        # Many objects per zone, each with one intra-zone replica, sized
        # from the seed (the scenario's own loader uses one fixed size).
        for zone in sorted(scenario.zones):
            dgms = scenario.zones[zone]
            admin = scenario.admins[zone]
            for index in range(n_objects):
                path = f"/data/obj-{index:04d}.dat"
                obj = yield dgms.put(
                    admin, path,
                    rng.lognormvariate(math.log(ZONE_OBJECT_SIZE), 0.3),
                    f"{zone}-d{index % 2}-disk",
                    metadata={"zone": zone, "index": index})
                obj.acl.grant("*", Permission.READ)
                scenario.paths[zone].append(path)
                yield dgms.replicate(admin, path,
                                     f"{zone}-d{(index + 1) % 2}-disk")

    scenario.env.run_process(_load())
    scenario.rls.flush_all()
    telemetry = attach_telemetry(scenario.env)
    recoveries = [attach_recovery(scenario.zones[zone],
                                  scenario.streams.spawn(f"recovery/{zone}"),
                                  policy=RETRY_POLICY)
                  for zone in sorted(scenario.zones)]
    schedule = _segmented(
        lambda length, n: federation_fault_schedule(
            scenario.streams, scenario.federation, length, n_events=n),
        horizon, _scaled(ZONE_FAULT_SEGMENTS, scale, floor=1),
        ZONE_FAULTS_PER_SEGMENT)
    zone_names = sorted(scenario.zones)
    copies = []
    targets = []
    for zone_index, name in enumerate(zone_names):
        dgms = scenario.zones[name]
        for object_index, path in enumerate(scenario.paths[name]):
            guid = dgms.namespace.resolve_object(path).guid
            targets.append((name, guid))
            dst = zone_names[(zone_index + 1 + object_index % 2) % 3]
            copies.append({
                "start": rng.uniform(0.0, 0.8 * horizon), "guid": guid,
                "src": name, "dst": dst,
                "dst_path": f"/data/from-{name}-obj-{object_index:04d}.dat",
                "dst_resource": f"{dst}-d{object_index % 2}-disk"})
    probes = [targets[rng.randrange(len(targets))][1]
              for _ in range(2 * len(targets))]
    return Deployment(
        env=scenario.env, grids=dict(scenario.zones),
        telemetry=telemetry, recoveries=recoveries,
        federation=scenario.federation, rls=scenario.rls,
        plan={"scenario": scenario, "copies": copies, "probes": probes,
              "horizon": horizon, "schedule": schedule})


def run_zone_chaos(dep: Deployment) -> None:
    env = dep.env
    plan = dep.plan
    scenario = plan["scenario"]
    federation = dep.federation
    horizon = plan["horizon"]
    driver = attach_federation_faults(
        federation, _shifted(plan["schedule"], env.now), scenario.streams)
    dep.fault_drivers = [driver]
    records: List[Dict] = []
    audits = {"checks": 0, "stale": 0, "wrong": 0}

    def _copy(job):
        yield env.timeout(job["start"])
        record = {"job": job, "begin": env.now, "end": None,
                  "outcome": ""}
        records.append(record)
        try:
            yield placement.cross_zone_copy_by_guid(
                federation, scenario.admins[job["dst"]], job["guid"],
                job["dst"], job["dst_path"], job["dst_resource"])
        except Exception as exc:   # a terminal failure is an outcome
            record["outcome"] = type(exc).__name__
        else:
            record["outcome"] = "completed"
        record["end"] = env.now

    def _audit():
        # A rolling locate audit: each answer is checked against the
        # authoritative catalogs at the same instant ("never wrong"),
        # and misses of a zone that holds the object are counted
        # ("may be stale").
        period = horizon / len(plan["probes"])
        for guid in plan["probes"]:
            yield env.timeout(period)
            result = federation.locate(guid)
            audits["checks"] += 1
            for location in result.locations:
                obj = dep.grids[location.zone].namespace.lookup_guid(guid)
                if obj is None or not any(
                        r.physical_name == location.physical_name
                        for r in obj.good_replicas()):
                    audits["wrong"] += 1
            reported = {location.zone for location in result.locations}
            for zone, dgms in dep.grids.items():
                obj = dgms.namespace.lookup_guid(guid)
                if (obj is not None and obj.good_replicas()
                        and zone not in reported):
                    audits["stale"] += 1
                    break

    def _driver():
        processes = [env.process(_copy(job)) for job in plan["copies"]]
        audit = env.process(_audit())
        for process in processes:
            yield process
        yield audit

    env.run_process(_driver())
    env.run()
    dep.rls.flush_all()
    dep.plan.update(records=records, audits=audits)


def check_zone_chaos(dep: Deployment) -> Outcome:
    env = dep.env
    plan = dep.plan
    federation = dep.federation
    records, audits = plan["records"], plan["audits"]
    driver = dep.fault_drivers[0]
    violations = []
    for name in sorted(dep.grids):
        violations += _lost_replicas(name, dep.grids[name])
    if audits["wrong"]:
        violations.append(f"RLS returned {audits['wrong']} locations the "
                          "owning zone disavowed")
    for record in records:
        job = record["job"]
        label = f"copy {job['guid']}→{job['dst']}"
        if not record["outcome"]:
            violations.append(f"{label}: never reached a terminal outcome")
        if record["outcome"] != "completed":
            continue
        dst = dep.grids[job["dst"]]
        if (not dst.namespace.exists(job["dst_path"])
                or not dst.namespace.resolve_object(
                    job["dst_path"]).good_replicas()):
            violations.append(f"{label}: completed but not present")
    if len(records) != len(plan["copies"]):
        violations.append(f"{len(records)}/{len(plan['copies'])} copies "
                          "started")
    violations += _fault_accounting(driver, dep.telemetry, dep.recoveries)
    # Post-flush convergence: every surviving object is located in
    # every zone that holds it.
    for name in sorted(dep.grids):
        for obj in dep.grids[name].namespace.iter_objects("/"):
            if name not in {loc.zone for loc in
                            federation.locate(obj.guid).locations}:
                violations.append(f"post-flush locate misses "
                                  f"{name}:{obj.path}")
    completed = sum(1 for r in records if r["outcome"] == "completed")
    attempted = len(plan["copies"]) + audits["checks"]
    rls = dep.rls
    signature = (
        env.now,
        tuple((name, _transfer_signature(dep.grids[name]))
              for name in sorted(dep.grids)),
        federation.copies_completed, federation.copies_failed,
        (rls.lookups, rls.hits, rls.misses, rls.false_positives,
         rls.lrc_queries),
        tuple(sorted((r["job"]["guid"], r["job"]["dst"], r["begin"],
                      r["end"], r["outcome"]) for r in records)),
        tuple(sorted(audits.items())), tuple(driver.log),
        tuple(tuple(sorted(s.counts.items())) for s in dep.recoveries))
    ends = [r["end"] for r in records if r["end"] is not None]
    return Outcome(
        ops=completed + audits["checks"], attempted=attempted,
        failed=len(plan["copies"]) - completed,
        offered=attempted, shed=0,
        sojourns=[r["end"] - r["begin"] for r in records
                  if r["end"] is not None],
        makespan=max(ends) - min(r["begin"] for r in records),
        violations=violations, digest=_digest(signature))


@dataclass(frozen=True)
class Workload:
    """One named workload: its set-up, its timed run, and the untimed
    check that turns the finished deployment into an :class:`Outcome`."""

    name: str
    build: Callable[[int, float], Deployment]
    run: Callable[[Deployment], None]
    check: Callable[[Deployment], Outcome]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("flow_engine", build_flow_engine, run_flow_engine,
                 check_flow_engine),
        Workload("gateway_mix", build_gateway_mix, run_gateway_mix,
                 check_gateway_mix),
        Workload("zone_chaos", build_zone_chaos, run_zone_chaos,
                 check_zone_chaos),
    )}
