"""Chaos harness: seeded fault schedules against standard scenarios.

The faults subsystem earns its keep only if recovery actually preserves
the datagrid's guarantees under arbitrary (seeded) failure timing. Every
chaos run goes through one serial skeleton, :func:`run_scenario`: build
→ telemetry/sanitizer attach and tracking → recovery and fault
attachment → workload → drain → report → invariants → canonical
signature. A :class:`ChaosScenario` supplies only what differs. Two
ship: :class:`GridChaos` (the CMS exploding-star workload — staged
replication flows, an ILM fan-out pass and an audit read pass — on one
datagrid) and :class:`repro.federation.chaos.FederationChaos`
(cross-zone copies under zone outages and bridge degradations).

Shared survival invariants: **no lost replicas** (every object keeps a
good replica whose allocation really exists) and **accounted faults**
(every fault window begin/end pair and every recovery action is visible
in telemetry). The grid adds **terminal executions** (COMPLETED, with
recovery on) and **complete provenance** (start, terminal record, and a
completion record per journalled step).

Everything is seeded, so a violating schedule is a reproducible test
case: rerun with the reported seed. :func:`sweep_fingerprint` hashes a
sweep into the pinned ``benchmarks/*.sha256`` values.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dgl.builder import flow_builder
from repro.dgl.model import DataGridRequest, ExecutionState
from repro.faults.model import FaultSchedule, attach_faults
from repro.faults.recovery import FlowSupervisor, RetryPolicy, attach_recovery
from repro.ilm.engine import ILMManager
from repro.ilm.policy import ILMPolicy, PlacementRule
from repro.sim.rng import RandomStreams
from repro.storage import MB
from repro.telemetry.instrument import attach_observability, attach_telemetry
from repro.workloads.scenarios import cms_scenario

__all__ = ["ChaosReport", "ChaosScenario", "GridChaos", "ObserveReport",
           "ScenarioReport", "CHAOS_POLICY", "default_chaos_seeds",
           "lost_replicas", "placement_signature",
           "prove_chaos_order_independence", "prove_run_order_independence",
           "run_chaos", "run_chaos_sweep", "run_scenario", "run_sweep",
           "sweep_fingerprint", "transfer_signature", "unaccounted_faults",
           "unaccounted_recovery"]

#: Generous budget: a chaos outage can hold a resource down for a fifth
#: of the horizon, so retries must be able to outwait the longest window
#: (capped delays sum well past it) without spinning hot.
CHAOS_POLICY = RetryPolicy(max_attempts=12, base_delay=1.0, multiplier=2.0,
                           max_delay=30.0, jitter=0.1)


def default_chaos_seeds(count: int = 20) -> List[int]:
    """The seed list the invariant suite sweeps (env-overridable size).

    ``CHAOS_SEEDS`` shrinks or grows the sweep — CI smoke jobs run a
    handful, the acceptance run does at least twenty.
    """
    return list(range(int(os.environ.get("CHAOS_SEEDS", count))))


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------


@dataclass
class ScenarioReport:
    """What every chaos run reports, whatever its scenario."""

    seed: int
    faults: bool
    recovery: bool
    makespan: float
    faults_begun: int = 0
    faults_ended: int = 0
    #: Recovery action counts by kind (per zone for a federation).
    recovery_actions: Dict = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    #: Bit-identity fingerprint of the run (the scenario's
    #: :meth:`ChaosScenario.run_signature`).
    signature: Tuple = ()
    #: Schedule-sanitizer summary (only with ``sanitize=...``): plain
    #: :meth:`~repro.analysis.sanitizer.ScheduleSanitizer.to_dict`.
    sanitizer: Optional[Dict] = None
    #: Order-insensitive fingerprint (the scenario's
    #: :meth:`ChaosScenario.canonical_signature` plus the violations);
    #: filled only for sanitized runs — permutation proofs diff this.
    canonical: Tuple = ()

    @property
    def ok(self) -> bool:
        """True when every invariant held."""
        return not self.violations


@dataclass
class ObserveReport:
    """What the observability stack saw during one chaos run."""

    #: Every SLO alert raised, as plain dicts (labels flattened).
    alerts: List[Dict] = field(default_factory=list)
    #: Injected fault windows seen by telemetry, and the subset no
    #: fault-window alert covered (the recall gate asserts it is empty).
    fault_windows: int = 0
    uncovered_windows: List[Tuple] = field(default_factory=list)
    #: Flight-recorder state at the end of the run.
    recorder_records: int = 0
    recorder_dropped: int = 0
    dump_reason: Optional[str] = None
    dump_lines: List[str] = field(default_factory=list)
    #: Full JSONL telemetry export (only when ``observe_export=True``).
    jsonl: List[str] = field(default_factory=list)


@dataclass
class ChaosReport(ScenarioReport):
    """Outcome of one single-grid chaos run (:func:`run_chaos`)."""

    interrupted_transfers: int = 0
    restarts: int = 0
    executions: Dict[str, str] = field(default_factory=dict)
    #: Observability results (only when ``run_chaos(observe=True)``).
    observe: Optional[ObserveReport] = None


# --------------------------------------------------------------------------
# The scenario protocol and the shared pieces
# --------------------------------------------------------------------------


class ChaosScenario:
    """What one chaos scenario supplies to :func:`run_scenario`.

    One instance drives one run. :meth:`build` sets ``self.env``,
    ``self.streams`` (the run's :class:`~repro.sim.rng.RandomStreams`,
    which the sanitizer draw-tracks) and ``self.grids`` (the
    ``(label, dgms)`` pairs the no-lost-replicas check walks).
    """

    #: Faults armed before recovery (the grid) or after (the
    #: federation). Attach order is part of the pinned fingerprint.
    faults_first = True
    #: The :class:`ScenarioReport` subclass the run fills.
    report_type = ScenarioReport

    def build(self, seed: int) -> None:
        """Build the deployment for ``seed``, telemetry attached."""

    def track(self, sanitizer) -> None:
        """Register the shared state the schedule sanitizer watches."""

    def attach_faults(self, schedule: Optional[FaultSchedule]):
        """Arm ``schedule`` (drawn from the seed when ``None``); return
        the driver."""

    def attach_recovery(self) -> List:
        """Attach recovery; return the services to account."""

    def workload(self) -> None:
        """Run the workload until every operation is terminal."""

    def drain(self) -> None:
        """Run on until every open fault window has closed."""
        self.env.run()

    def report_fields(self) -> Dict:
        """The scenario's own report fields (``recovery_actions`` too)."""
        return {}

    def invariants(self) -> List[str]:
        """Violations of the scenario's own survival invariants."""
        return []

    def run_signature(self) -> Tuple:
        """Bit-identical iff two runs behaved the same (the replay pin)."""

    def canonical_signature(self) -> Tuple:
        """Terminal outcome only: what order-independence *means*."""



def transfer_signature(dgms) -> Tuple:
    """Every completed transfer's endpoints, size and exact timings."""
    return tuple((s.src, s.dst, s.nbytes, s.start_time, s.end_time)
                 for s in dgms.transfers.completed)


def placement_signature(dgms) -> Tuple:
    """Full replica placement: path → sorted physical homes."""
    return tuple(sorted(
        (obj.path,
         tuple(sorted(replica.physical_name
                      for replica in obj.good_replicas())))
        for obj in dgms.namespace.iter_objects("/")))


def lost_replicas(grids: Sequence[Tuple[str, object]]) -> List[str]:
    """No lost replicas: each catalog and its physical allocations agree.

    ``grids`` holds ``(label, dgms)`` pairs; a non-empty label prefixes
    each object path (``zone:/path``).
    """
    violations: List[str] = []
    for label, dgms in grids:
        prefix = f"{label}:" if label else ""
        for obj in dgms.namespace.iter_objects("/"):
            good = obj.good_replicas()
            if not good:
                violations.append(f"{prefix}{obj.path}: no good replicas "
                                  "left")
            for replica in good:
                physical = dgms.resources.physical(
                    replica.physical_name).physical
                if not physical.holds(replica.allocation_id):
                    violations.append(
                        f"{prefix}{obj.path}: replica "
                        f"{replica.allocation_id} missing from "
                        f"{replica.physical_name}")
    return violations


def unaccounted_faults(driver, telemetry) -> List[str]:
    """Every fault window opened, closed, and left a telemetry pair."""
    if driver is None:
        return []
    violations: List[str] = []
    if driver.begun != len(driver.schedule):
        violations.append(
            f"{driver.begun}/{len(driver.schedule)} fault windows began")
    if driver.ended != driver.begun:
        violations.append(
            f"{driver.ended}/{driver.begun} fault windows ended")
    if telemetry is not None:
        begins = len(telemetry.log.of_kind("fault.begin"))
        ends = len(telemetry.log.of_kind("fault.end"))
        if begins != driver.begun or ends != driver.ended:
            violations.append(
                f"telemetry saw {begins} begins/{ends} ends for "
                f"{driver.begun}/{driver.ended} fault transitions")
    return violations


def unaccounted_recovery(services: Sequence, telemetry) -> List[str]:
    """Every recovery action was mirrored into the (shared) telemetry
    log."""
    if not services or telemetry is None:
        return []
    kinds = {kind for service in services for kind in service.counts}
    logged = sum(len(telemetry.log.of_kind(f"recovery.{kind}"))
                 for kind in kinds)
    total = sum(service.total_actions for service in services)
    if logged == total:
        return []
    return [f"telemetry logged {logged} of {total} recovery actions"]


def _coerce_sanitizer(sanitize):
    """``sanitize=...`` as a ScheduleSanitizer, or ``None`` when off
    (imported lazily: the harness does not need the analysis package)."""
    if sanitize is None or sanitize is False:
        return None
    from repro.analysis.sanitizer import SanitizeConfig, ScheduleSanitizer

    if isinstance(sanitize, ScheduleSanitizer):
        return sanitize
    return ScheduleSanitizer(sanitize if isinstance(sanitize, SanitizeConfig)
                             else SanitizeConfig())


# --------------------------------------------------------------------------
# The run skeleton, the sweep loop, the prover, the fingerprint
# --------------------------------------------------------------------------


def run_scenario(scenario: ChaosScenario, seed: int, faults: bool = True,
                 recovery: bool = True,
                 schedule: Optional[FaultSchedule] = None,
                 sanitize=None) -> ScenarioReport:
    """One chaos run of ``scenario`` for ``seed``.

    ``faults=False`` runs the identical workload with no schedule (the
    bit-identity baseline); ``recovery=False`` leaves the grid
    fail-fast, so a schedule's damage is measurable; ``schedule``
    replays a known schedule instead of drawing one from the seed.
    ``sanitize`` (``True``, a ``SanitizeConfig``, or a
    ``ScheduleSanitizer`` to read back) attaches the schedule sanitizer
    and fills ``sanitizer`` and ``canonical``; with permutation off the
    dispatch order, and so the signature, is untouched.
    """
    scenario.build(seed)
    env = scenario.env
    sanitizer = _coerce_sanitizer(sanitize)
    if sanitizer is not None:
        sanitizer.attach(env)
        # Before any consumer pulls a substream, so the recovery
        # backoff/supervisor draws (the shared-stream hazard DGF007
        # exists for) are draw-tracked; spawn() children inherit it.
        sanitizer.track_streams(scenario.streams)
        scenario.track(sanitizer)
    driver = None
    services: List = []
    if faults and scenario.faults_first:
        driver = scenario.attach_faults(schedule)
    if recovery:
        services = scenario.attach_recovery()
    if faults and not scenario.faults_first:
        driver = scenario.attach_faults(schedule)
    scenario.workload()
    makespan = env.now
    scenario.drain()
    report = scenario.report_type(
        seed=seed, faults=faults, recovery=recovery, makespan=makespan,
        faults_begun=driver.begun if driver else 0,
        faults_ended=driver.ended if driver else 0,
        signature=scenario.run_signature(), **scenario.report_fields())
    report.violations = (lost_replicas(scenario.grids)
                         + scenario.invariants()
                         + unaccounted_faults(driver, env.telemetry)
                         + unaccounted_recovery(services, env.telemetry))
    if sanitizer is not None:
        sanitizer.detach()
        report.sanitizer = sanitizer.to_dict()
        # A permuted schedule that breaks a survival invariant must
        # refute the proof even if the terminal placement matches.
        report.canonical = (scenario.canonical_signature()
                            + (tuple(report.violations),))
    return report


def run_sweep(run: Callable[..., ScenarioReport], seeds: Sequence[int],
              **kwargs) -> List[ScenarioReport]:
    """The one sweep loop: ``run(seed, **kwargs)`` per seed, serially,
    reports in seed order."""
    return [run(seed, **kwargs) for seed in seeds]


def sweep_fingerprint(reports: Sequence[ScenarioReport]) -> str:
    """One hex digest over a whole sweep's signatures — the value the
    ``benchmarks/*.sha256`` pins record."""
    blob = "\n".join(repr(report.signature) for report in reports)
    return hashlib.sha256(blob.encode()).hexdigest()


def prove_run_order_independence(run: Callable[..., ScenarioReport],
                                 seed: int, *, order: str = "reverse",
                                 permute_seed: int = 0, max_runs: int = 40,
                                 **kwargs):
    """Prove (or refute with a minimized witness) that ``run(seed)`` is
    independent of legal same-timestamp dispatch order: drives
    :func:`repro.analysis.sanitizer.prove_order_independence` over fresh
    sanitized runs (``kwargs`` forward to each), diffing ``canonical``.
    """
    from repro.analysis.sanitizer import (
        ScheduleSanitizer,
        prove_order_independence,
    )

    def _run(config):
        sanitizer = ScheduleSanitizer(config)
        report = run(seed, sanitize=sanitizer, **kwargs)
        return report.canonical, sanitizer

    return prove_order_independence(_run, order=order,
                                    permute_seed=permute_seed,
                                    max_runs=max_runs)


# --------------------------------------------------------------------------
# The single-grid scenario
# --------------------------------------------------------------------------


def _per_path_flow(name: str, prefix: str, operation: str,
                   paths: List[str], **params):
    """A sequential flow of one ``operation`` step per path."""
    builder = flow_builder(name)
    for index, path in enumerate(paths):
        builder.step(f"{prefix}-{index}", operation, path=path, **params)
    return builder.build()


@dataclass
class GridChaos(ChaosScenario):
    """The CMS exploding-star workload on one datagrid.

    ``observe=True`` attaches the full observability stack (flight
    recorder + SLO engine) on top of telemetry and fills
    :attr:`ChaosReport.observe`; ``cache=True`` attaches the memoizing
    DGMS cache tier. Both are read-only over the simulation.
    """

    n_fault_events: int = 6
    horizon: float = 40.0
    n_events: int = 4
    event_size: float = 16 * MB
    observe: bool = False
    observe_dump_path: Optional[str] = None
    observe_export: bool = False
    cache: bool = False

    report_type = ChaosReport

    def build(self, seed: int) -> None:
        self.scenario = cms_scenario(n_tier1=2, n_tier2_per_t1=1,
                                     n_events=self.n_events,
                                     event_size=self.event_size, seed=seed)
        self.env = self.scenario.env
        self.dgms = self.scenario.dgms
        self.grids = [("", self.dgms)]
        attach_telemetry(self.env, server=self.scenario.server,
                         dgms=self.dgms)
        if self.cache:
            from repro.dfms.cache import attach_cache
            attach_cache(self.dgms)
        self.obs = None
        if self.observe:
            self.obs = attach_observability(
                self.env, server=self.scenario.server, dgms=self.dgms,
                dump_path=self.observe_dump_path)
        self.streams = RandomStreams(seed)
        self.service = self.supervisor = None

    def track(self, sanitizer) -> None:
        sanitizer.track_object("dgms.transfers", self.dgms.transfers)
        sanitizer.track_object("dgms.namespace", self.dgms.namespace)
        sanitizer.track_object("dgms.resources", self.dgms.resources)
        sanitizer.track_object("server", self.scenario.server)
        sanitizer.track_object("provenance", self.scenario.provenance)

    def attach_faults(self, schedule):
        if schedule is None:
            schedule = FaultSchedule.random(self.streams, self.dgms,
                                            self.horizon,
                                            n_events=self.n_fault_events)
        return attach_faults(self.dgms, schedule, self.streams)

    def attach_recovery(self) -> List:
        self.service = attach_recovery(self.dgms, self.streams,
                                       policy=CHAOS_POLICY)
        self.supervisor = FlowSupervisor(self.scenario.server, self.streams,
                                         policy=CHAOS_POLICY,
                                         recovery=self.service)
        return [self.service]

    def workload(self) -> None:
        scenario = self.scenario
        env = self.env
        server = scenario.server
        supervisor = self.supervisor
        user = scenario.users["physicist"]
        paths = [obj.path for obj in
                 self.dgms.namespace.iter_objects_in_path_order("/cms/run1")]
        tier2_domain = scenario.extras["tier2"][0]
        tier2_resource = scenario.extras["tier2_resources"][0]

        def submit(flow):
            """Start one flow; returns a process resolving to its
            execution."""
            request = DataGridRequest(user=user.qualified_name,
                                      virtual_organization="chaos",
                                      body=flow, asynchronous=True)
            if supervisor is not None:
                return env.process(supervisor.run(request))
            response = server.submit(request)

            def _unsupervised():
                execution = yield server.wait(response.request_id)
                return execution
            return env.process(_unsupervised())

        def _driver():
            # Stage 1: staged replication, one concurrent flow per tier-1.
            stage1 = [submit(_per_path_flow(f"stage1-{resource}", "rep",
                                            "srb.replicate", paths,
                                            resource=resource))
                      for resource in scenario.extras["tier1_resources"]]
            for process in stage1:
                yield process
            # Stage 2: an ILM fan-out pass mirrors everything to a tier-2
            # resource — the months-long lifecycle process, supervised.
            manager = ILMManager(server)
            manager.add_policy(ILMPolicy(
                name="t2-mirror", collection="/cms/run1",
                domain=tier2_domain,
                rules=[PlacementRule("fan-out", "replica_count < 4",
                                     "replicate_to", tier2_resource)]))
            yield from manager.run_pass_sync("t2-mirror", user,
                                             supervisor=supervisor)
            # Stage 3: audit reads to a tier-2 domain (exercises the
            # alternate-replica failover path in DGMS.get).
            yield submit(_per_path_flow("audit", "get", "srb.get", paths,
                                        to_domain=tier2_domain))

        env.run_process(_driver())

    def report_fields(self) -> Dict:
        return {
            "interrupted_transfers": self.dgms.transfers.interrupted_count,
            "restarts": self.supervisor.restarts if self.supervisor else 0,
            "recovery_actions": (dict(self.service.counts)
                                 if self.service else {}),
            "executions": {execution.request_id: execution.state.value
                           for execution in self.scenario.server.executions()},
        }

    def invariants(self) -> List[str]:
        violations: List[str] = []
        provenance = self.scenario.provenance
        for execution in self.scenario.server.executions():
            # Terminal; with recovery attached the chaos workload must
            # come out COMPLETED, not merely terminal.
            if not execution.state.is_terminal:
                violations.append(
                    f"{execution.request_id}: stuck in "
                    f"{execution.state.value}")
            elif (self.service is not None
                  and execution.state is not ExecutionState.COMPLETED):
                violations.append(
                    f"{execution.request_id}: {execution.state.value} "
                    f"despite recovery ({execution.error})")
            # Provenance chain complete: start, terminal record, and one
            # completion record per journalled step instance.
            kinds = {record.operation for record in
                     provenance.for_subject(execution.request_id)}
            if "execution_started" not in kinds:
                violations.append(
                    f"{execution.request_id}: provenance missing "
                    "execution_started")
            if execution.state.is_terminal:
                terminal = f"execution_{execution.state.value}"
                if terminal not in kinds:
                    violations.append(
                        f"{execution.request_id}: provenance missing "
                        f"{terminal}")
            for key in execution.journal:
                step_kinds = {record.operation for record in provenance.
                              for_subject(f"{execution.request_id}/{key}")}
                if not step_kinds & {"step_completed", "step_replayed"}:
                    violations.append(
                        f"{execution.request_id}/{key}: journalled step "
                        "has no completion provenance")
        return violations

    def run_signature(self) -> Tuple:
        """Covers the clock, every completed transfer's exact float
        timings, the terminal state and finish time of every execution,
        and the provenance record count — enough that any behavioural
        drift in the no-fault path shows up as a mismatch."""
        return (
            self.env.now,
            transfer_signature(self.dgms),
            self.dgms.transfers.total_bytes_moved,
            tuple(sorted((e.request_id, e.state.value, e.finished_at)
                         for e in self.scenario.server.executions())),
            len(self.scenario.provenance.records()),
        )

    def canonical_signature(self) -> Tuple:
        """Covers the makespan, the full replica placement and every
        execution's terminal state.

        Not covered: exact transfer timings, byte totals and provenance
        counts. Recovery retries draw backoff jitter from substreams
        *shared* across consumers (``recovery/backoff``,
        ``recovery/supervisor``), so same-timestamp retries swap jitter
        under reordering — pinned, shipped behaviour that DGF007 keeps
        new code from adding to. What this proves is the paper-level
        guarantee: under *every* legal same-timestamp schedule the grid
        converges to the same terminal state in the same sim time.
        """
        return (
            self.env.now,
            placement_signature(self.dgms),
            tuple(sorted((e.request_id, e.state.value)
                         for e in self.scenario.server.executions())),
        )


def _observe_report(obs, report: ChaosReport,
                    export: bool) -> ObserveReport:
    """Evaluate the SLO probes and snapshot the recorder for one run."""
    from repro.telemetry.exporters import jsonl_lines
    from repro.telemetry.slo import fault_coverage

    obs.slo.evaluate()
    windows, uncovered = fault_coverage(obs.slo)
    recorder = obs.recorder
    if report.violations:
        recorder.record("chaos.invariant_violation",
                        {"seed": report.seed,
                         "violations": list(report.violations)})
        recorder.dump("invariant-violation")
    elif recorder.dump_path is not None:
        # CI's smoke job uploads the on-demand dump as an artifact.
        recorder.dump("on-demand")
    return ObserveReport(
        alerts=[{"probe": alert.probe, "severity": alert.severity,
                 "time": alert.time, "window": alert.window,
                 "value": alert.value, "threshold": alert.threshold,
                 "labels": dict(alert.labels), "message": alert.message}
                for alert in obs.slo.alerts],
        fault_windows=len(windows),
        uncovered_windows=list(uncovered),
        recorder_records=len(recorder.ring),
        recorder_dropped=recorder.dropped,
        dump_reason=recorder.last_dump_reason,
        dump_lines=list(recorder.last_dump),
        jsonl=jsonl_lines(obs.telemetry) if export else [],
    )


def run_chaos(seed: int, faults: bool = True, recovery: bool = True,
              schedule: Optional[FaultSchedule] = None, sanitize=None,
              **params) -> ChaosReport:
    """One chaos run: the CMS workload under a seeded fault schedule.

    ``params`` configure :class:`GridChaos` (``n_fault_events``,
    ``horizon``, ``n_events``, ``event_size``, ``observe``,
    ``observe_dump_path``, ``observe_export``, ``cache``); the rest is
    :func:`run_scenario`. With ``observe=True`` the SLO probes are
    evaluated after the run; the recorder dumps on an invariant
    violation, or on demand when ``observe_dump_path`` is set, and
    ``observe_export=True`` keeps the full JSONL export on the report.
    """
    scenario = GridChaos(**params)
    report = run_scenario(scenario, seed, faults=faults, recovery=recovery,
                          schedule=schedule, sanitize=sanitize)
    if scenario.obs is not None:
        report.observe = _observe_report(scenario.obs, report,
                                         scenario.observe_export)
    return report


def run_chaos_sweep(seeds: Optional[Sequence[int]] = None,
                    **kwargs) -> List[ChaosReport]:
    """:func:`run_chaos` for every seed (default
    :func:`default_chaos_seeds`), serially, in seed order."""
    if seeds is None:
        seeds = default_chaos_seeds()
    return run_sweep(run_chaos, seeds, **kwargs)


def prove_chaos_order_independence(seed: int, **kwargs):
    """:func:`prove_run_order_independence` over :func:`run_chaos`
    (``order``, ``permute_seed``, ``max_runs`` and run parameters
    forward)."""
    return prove_run_order_independence(run_chaos, seed, **kwargs)
