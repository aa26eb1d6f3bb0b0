"""Zone-scoped chaos: federation-level fault schedules and invariants.

The single-grid chaos harness (:mod:`repro.workloads.chaos`) proves one
datagrid survives arbitrary seeded fault timing; this module lifts that
to the federation. The fault vocabulary gains two zone-scoped events —
:class:`~repro.faults.model.ZoneOutage` (every resource and intra-zone
link of one zone, down for a window) and
:class:`~repro.faults.model.BridgeDegradation` (an inter-zone bridge
loses bandwidth) — armed by a :class:`FederationFaultDriver` that
composes each zone's refcounted :class:`~repro.faults.model.FaultDriver`
mechanics, so zone faults and any intra-zone schedule stack and release
correctly.

:class:`FederationChaos` is the zone-scoped scenario of the one chaos
run skeleton (:func:`repro.workloads.chaos.run_scenario`):
:func:`run_federation_chaos` drives a cross-zone copy workload plus a
continuous locate audit under such a schedule. On top of the shared
invariants (no lost replicas in any zone, every fault window and
recovery action accounted in telemetry) it checks:

* **stale but never wrong** — the RLS may *miss* a fresh replica (the
  audit counts those; they are bounded by the sync period) but every
  location it *returns* must be vouched for by the owning zone's
  authoritative catalog at answer time;
* **terminal copies** — every cross-zone copy either completed (and the
  object is really there) or failed terminally; none hang;
* **post-flush convergence** — once every digest syncer flushes, the
  RLS locates every surviving object in every zone that holds it.

Everything is seeded; a violating schedule replays from its seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import FaultError
from repro.faults.model import (
    ZONE_EVENT_TYPES,
    BridgeDegradation,
    FaultDriver,
    FaultEvent,
    FaultSchedule,
    FaultWindowDriver,
    ZoneOutage,
    check_random_schedule,
    draw_windows,
)
from repro.faults.recovery import attach_recovery
from repro.federation.placement import cross_zone_copy_by_guid
from repro.federation.scenario import federation_scenario
from repro.sim.rng import RandomStreams
from repro.storage import MB
from repro.telemetry.instrument import attach_telemetry
from repro.workloads.chaos import (
    CHAOS_POLICY,
    ChaosScenario,
    ScenarioReport,
    placement_signature,
    prove_run_order_independence,
    run_scenario,
    run_sweep,
    transfer_signature,
)

__all__ = [
    "FederationChaos",
    "FederationChaosReport",
    "FederationFaultDriver",
    "attach_federation_faults",
    "default_federation_seeds",
    "federation_fault_schedule",
    "prove_federation_order_independence",
    "run_federation_chaos",
    "run_federation_sweep",
]

#: Stream :func:`federation_fault_schedule` draws from.
FEDERATION_SCHEDULE_STREAM = "federation/fault-schedule"

#: Stream the chaos workload's start-time stagger draws from.
WORKLOAD_STREAM = "federation/workload"

#: Zone-scoped event kinds the random schedule picks between.
FEDERATION_RANDOM_KINDS = ("zone-outage", "bridge-degradation")


def default_federation_seeds(count: int = 10) -> List[int]:
    """Seeds the federation chaos sweep runs (``FEDERATION_CHAOS_SEEDS``
    shrinks or grows it — CI smoke runs a handful, E25 at least ten)."""
    return list(range(int(os.environ.get("FEDERATION_CHAOS_SEEDS", count))))


def federation_fault_schedule(streams: RandomStreams, federation,
                              horizon: float, n_events: int = 5
                              ) -> FaultSchedule:
    """A seeded random zone-scoped schedule against ``federation``.

    Draws only from the ``federation/fault-schedule`` substream (never
    perturbing intra-zone streams); starts land in the first three
    quarters of ``horizon``, windows last 5–20 % of it — the same
    :func:`~repro.faults.model.draw_windows` geometry as
    :meth:`~repro.faults.model.FaultSchedule.random`.
    """
    check_random_schedule(horizon, n_events)
    zones = federation.zones()
    if not zones:
        raise FaultError("federation has no zones to fault")
    bridges = federation.bridges()
    usable = [kind for kind in FEDERATION_RANDOM_KINDS
              if kind != "bridge-degradation" or bridges]
    rng = streams.stream(FEDERATION_SCHEDULE_STREAM)

    def pick(kind: str, start: float, duration: float) -> FaultEvent:
        if kind == "zone-outage":
            return ZoneOutage(start, duration, rng.choice(zones))
        bridge = rng.choice(bridges)
        return BridgeDegradation(start, duration, bridge.zone_a,
                                 bridge.zone_b,
                                 round(rng.uniform(0.1, 0.6), 3))

    return FaultSchedule(draw_windows(rng, horizon, n_events, usable, pick))


class FederationFaultDriver(FaultWindowDriver):
    """Arms zone-scoped schedules against a federation.

    A zone outage is "hold every physical resource and every intra-zone
    link of the zone, then release them" — the holds go through one
    per-zone :class:`~repro.faults.model.FaultDriver` whose refcounted
    mechanics this driver composes, so an overlapping intra-zone
    schedule (armed on the same mechanics driver) and zone outages
    restore each resource exactly once. Bridge degradations compose
    multiplicatively on the :class:`~repro.grid.federation.Bridge`
    itself, which is what ``bridge_cost`` (and therefore cost-aware
    placement) reads.
    """

    label = "federation fault driver"

    def __init__(self, federation, schedule: FaultSchedule,
                 streams: Optional[RandomStreams] = None) -> None:
        super().__init__(federation.env, schedule)
        self.federation = federation
        # One mechanics driver per zone, sharing the run's streams so a
        # caller can arm intra-zone schedules on the same drivers.
        self.mechanics: Dict[str, FaultDriver] = {
            zone: FaultDriver(federation.zone(zone), FaultSchedule(),
                              streams)
            for zone in federation.zones()}
        # Per zone-outage (resource names, link end pairs), resolved at
        # arm time against the then-pristine topology.
        self._zone_members: Dict[ZoneOutage,
                                 Tuple[List[str],
                                       List[Tuple[str, str]]]] = {}
        self._bridges: Dict[BridgeDegradation, object] = {}

    def _resolve_targets(self) -> None:
        for event in self.schedule:
            if not isinstance(event, ZONE_EVENT_TYPES):
                raise FaultError(
                    f"{event.kind} targets one datagrid, not a federation; "
                    "arm it with attach_faults on that zone's grid")
            if isinstance(event, ZoneOutage):
                if event.zone not in self.mechanics:
                    raise FaultError(
                        f"unknown zone {event.zone!r} in schedule")
                dgms = self.federation.zone(event.zone)
                names = sorted(dgms.resources.physical_names())
                pairs = [(link.a, link.b) for link in dgms.topology.links]
                self._zone_members[event] = (names, pairs)
            else:
                bridge = self.federation.bridge(event.zone_a, event.zone_b)
                if bridge is None:
                    raise FaultError(
                        f"no bridge {event.target} to degrade")
                self._bridges[event] = bridge

    # -- transitions ---------------------------------------------------------

    def _begin(self, event: FaultEvent) -> None:
        if isinstance(event, ZoneOutage):
            mechanics = self.mechanics[event.zone]
            names, pairs = self._zone_members[event]
            for name in names:
                mechanics.hold_storage(name)
            for a, b in pairs:
                mechanics.hold_link(a, b)
        else:
            self._bridges[event].degrade(event.factor)
        self._note("begin", event)

    def _end(self, event: FaultEvent) -> None:
        if isinstance(event, ZoneOutage):
            mechanics = self.mechanics[event.zone]
            names, pairs = self._zone_members[event]
            for name in names:
                mechanics.release_storage(name)
            for a, b in pairs:
                mechanics.release_link(a, b)
        else:
            self._bridges[event].restore(event.factor)
        self._note("end", event)


def attach_federation_faults(federation, schedule: FaultSchedule,
                             streams: Optional[RandomStreams] = None
                             ) -> FederationFaultDriver:
    """Arm a zone-scoped ``schedule``; returns the armed driver."""
    return FederationFaultDriver(federation, schedule, streams).arm()


# --------------------------------------------------------------------------
# The chaos scenario
# --------------------------------------------------------------------------


@dataclass
class FederationChaosReport(ScenarioReport):
    """Outcome of one federation chaos run (:func:`run_federation_chaos`);
    ``recovery_actions`` maps zone → action counts by kind."""

    n_zones: int = 0
    copies_attempted: int = 0
    copies_completed: int = 0
    copies_failed: int = 0
    locate_audits: int = 0
    #: Audit probes where a zone held an object the RLS did not yet
    #: report — *allowed* (bounded staleness), counted to prove the
    #: eventual-consistency window is real and visible.
    stale_misses: int = 0
    #: Audit probes where the RLS reported a location the owning zone's
    #: catalog disavows — must be zero (the "never wrong" half).
    wrong_answers: int = 0
    rls_stats: Dict[str, object] = field(default_factory=dict)


@dataclass
class FederationChaos(ChaosScenario):
    """Cross-zone copies and a rolling locate audit across a seeded
    federation, under a zone-scoped fault schedule."""

    n_zones: int = 3
    domains_per_zone: int = 2
    objects_per_zone: int = 3
    object_size: float = 8 * MB
    horizon: float = 60.0
    n_fault_events: int = 5
    sync_period_s: float = 4.0
    placement_policy: str = "bridge-cost-aware"

    faults_first = False
    report_type = FederationChaosReport

    def build(self, seed: int) -> None:
        self.scenario = federation_scenario(
            n_zones=self.n_zones, domains_per_zone=self.domains_per_zone,
            objects_per_zone=self.objects_per_zone,
            object_size=self.object_size, seed=seed,
            sync_period_s=self.sync_period_s)
        self.env = self.scenario.env
        self.streams = self.scenario.streams
        self.zones = sorted(self.scenario.zones)
        self.grids = [(name, self.scenario.zones[name])
                      for name in self.zones]
        attach_telemetry(self.env)
        self.services: Dict[str, object] = {}

    def track(self, sanitizer) -> None:
        for name, dgms in self.grids:
            sanitizer.track_object(f"{name}.transfers", dgms.transfers)
            sanitizer.track_object(f"{name}.namespace", dgms.namespace)
        sanitizer.track_object("rls", self.scenario.rls)
        sanitizer.track_object("federation", self.scenario.federation)

    def attach_recovery(self) -> List:
        for zone, dgms in self.grids:
            self.services[zone] = attach_recovery(
                dgms, self.streams.spawn(f"recovery/{zone}"),
                policy=CHAOS_POLICY)
        return list(self.services.values())

    def attach_faults(self, schedule):
        federation = self.scenario.federation
        if schedule is None:
            schedule = federation_fault_schedule(
                self.streams, federation, self.horizon,
                n_events=self.n_fault_events)
        return attach_federation_faults(federation, schedule, self.streams)

    def workload(self) -> None:
        scenario = self.scenario
        env = self.env
        horizon = self.horizon
        federation = scenario.federation
        zone_names = self.zones
        n_zones = len(zone_names)
        rng = self.streams.stream(WORKLOAD_STREAM)
        self.copies: List[Dict] = []
        self.audits = audits = {"checks": 0, "stale_misses": 0, "wrong": 0}

        jobs = []
        targets: List[Tuple[str, str]] = []   # (origin zone, guid)
        for zone_index, name in enumerate(zone_names):
            dgms = scenario.zones[name]
            for object_index, path in enumerate(scenario.paths[name]):
                guid = dgms.namespace.resolve_object(path).guid
                targets.append((name, guid))
                offset = 1 + (object_index % (n_zones - 1))
                dst = zone_names[(zone_index + offset) % n_zones]
                start = rng.uniform(0.0, 0.5 * horizon)
                jobs.append({
                    "start": start, "guid": guid, "src": name, "dst": dst,
                    "dst_path": f"/data/from-{name}-obj-"
                                f"{object_index:04d}.dat",
                    "dst_resource": f"{dst}-d0-disk",
                })

        def _copy_job(job):
            yield env.timeout(job["start"])
            record = {"guid": job["guid"], "src": job["src"],
                      "dst": job["dst"], "dst_path": job["dst_path"],
                      "outcome": "", "error": ""}
            self.copies.append(record)
            user = scenario.admins[job["dst"]]
            try:
                yield cross_zone_copy_by_guid(
                    federation, user, job["guid"], job["dst"],
                    job["dst_path"], job["dst_resource"],
                    policy=self.placement_policy)
            except Exception as exc:   # terminal failure is valid
                record["outcome"] = "failed"
                record["error"] = type(exc).__name__
            else:
                record["outcome"] = "completed"

        def _audit():
            # Two passes over every object, spread across the horizon.
            # Each probe verifies the RLS answer against the
            # authoritative catalogs *at the same instant*, so "wrong"
            # is exact.
            probes = 2 * len(targets)
            period = horizon / max(1, probes)
            for probe_index in range(probes):
                yield env.timeout(period)
                origin, guid = targets[probe_index % len(targets)]
                result = federation.locate(guid)
                audits["checks"] += 1
                for location in result.locations:
                    namespace = scenario.zones[location.zone].namespace
                    obj = namespace.lookup_guid(guid)
                    held = obj is not None and any(
                        replica.physical_name == location.physical_name
                        for replica in obj.good_replicas())
                    if not held:
                        audits["wrong"] += 1
                reported = {location.zone for location in result.locations}
                actual = set()
                for zone in zone_names:
                    obj = scenario.zones[zone].namespace.lookup_guid(guid)
                    if obj is not None and obj.good_replicas():
                        actual.add(zone)
                if actual - reported:
                    audits["stale_misses"] += 1

        def _driver():
            processes = [env.process(_copy_job(job)) for job in jobs]
            audit_process = env.process(_audit())
            for process in processes:
                yield process
            yield audit_process

        env.run_process(_driver())

    def drain(self) -> None:
        """Also flush every syncer, so the convergence invariant sees
        current digests."""
        self.env.run()
        self.scenario.rls.flush_all()

    def report_fields(self) -> Dict:
        federation = self.scenario.federation
        return {
            "n_zones": self.n_zones,
            "copies_attempted": len(self.copies),
            "copies_completed": federation.copies_completed,
            "copies_failed": federation.copies_failed,
            "locate_audits": self.audits["checks"],
            "stale_misses": self.audits["stale_misses"],
            "wrong_answers": self.audits["wrong"],
            "rls_stats": self.scenario.rls.stats(),
            "recovery_actions": {zone: dict(service.counts)
                                 for zone, service in self.services.items()},
        }

    def invariants(self) -> List[str]:
        violations: List[str] = []
        scenario = self.scenario
        # Stale but never wrong: the audit may count misses (bounded
        # staleness) but must never have caught an unvouched location.
        if self.audits["wrong"]:
            violations.append(
                f"RLS returned {self.audits['wrong']} location answers "
                "the owning zone disavowed")
        # Terminal copies: every cross-zone copy completed or failed —
        # and a completed copy's object really exists at the
        # destination.
        for record in self.copies:
            label = f"copy {record['guid'][:8]}→{record['dst']}"
            if record["outcome"] not in ("completed", "failed"):
                violations.append(
                    f"{label}: never reached a terminal outcome")
                continue
            if record["outcome"] != "completed":
                continue
            dst = scenario.zones[record["dst"]]
            if not dst.namespace.exists(record["dst_path"]):
                violations.append(
                    f"{label}: reported completed but "
                    f"{record['dst_path']} does not exist")
                continue
            obj = dst.namespace.resolve_object(record["dst_path"])
            if not obj.good_replicas():
                violations.append(
                    f"{label}: completed but has no good replica")
        # Post-flush convergence: with every digest published, the RLS
        # must locate every surviving object in every zone holding it.
        for name, dgms in self.grids:
            for obj in dgms.namespace.iter_objects("/"):
                if not obj.good_replicas():
                    continue   # flagged as lost by the shared check
                result = scenario.federation.locate(obj.guid)
                if name not in {loc.zone for loc in result.locations}:
                    violations.append(
                        f"post-flush locate misses {name}:{obj.path}")
        return violations

    def run_signature(self) -> Tuple:
        """Covers the clock, every zone's completed transfer timings and
        byte totals, the federation copy counters, and the RLS lookup
        counters — any drift in copy routing, fault timing, sync timing,
        or placement shows up here."""
        zones = self.scenario.zones
        rls = self.scenario.rls
        return (
            self.env.now,
            tuple((name, zones[name].transfers.total_bytes_moved,
                   transfer_signature(zones[name]))
                  for name in self.zones),
            self.scenario.federation.copies_completed,
            self.scenario.federation.copies_failed,
            (rls.lookups, rls.hits, rls.misses, rls.false_positives,
             rls.lrc_queries),
        )

    def canonical_signature(self) -> Tuple:
        """Covers the makespan, every zone's full replica placement, the
        federation copy outcome counters, and the RLS lookup count.

        Deliberately *not* covered: exact per-transfer float timings,
        byte totals, and RLS hit/miss splits — retry jitter is drawn
        from shared recovery substreams in arrival order (see
        :meth:`repro.workloads.chaos.GridChaos.canonical_signature`),
        and a digest flush landing on an audit probe's timestamp may
        legitimately be observed in either order (the invariant is
        "stale but never wrong", checked separately).
        """
        return (
            self.env.now,
            tuple((name, placement_signature(self.scenario.zones[name]))
                  for name in self.zones),
            self.scenario.federation.copies_completed,
            self.scenario.federation.copies_failed,
            self.scenario.rls.lookups,
        )


def run_federation_chaos(seed: int, faults: bool = True,
                         recovery: bool = True,
                         schedule: Optional[FaultSchedule] = None,
                         sanitize=None, **params) -> FederationChaosReport:
    """One federation chaos run: cross-zone copies and a locate audit
    under a seeded zone-scoped fault schedule.

    ``params`` configure :class:`FederationChaos` (``n_zones``,
    ``domains_per_zone``, ``objects_per_zone``, ``object_size``,
    ``horizon``, ``n_fault_events``, ``sync_period_s``,
    ``placement_policy``); ``faults``, ``recovery``, ``schedule`` and
    ``sanitize`` mean what they do in
    :func:`repro.workloads.chaos.run_scenario`.
    """
    return run_scenario(FederationChaos(**params), seed, faults=faults,
                        recovery=recovery, schedule=schedule,
                        sanitize=sanitize)


def run_federation_sweep(seeds: Optional[Sequence[int]] = None,
                         **kwargs) -> List[FederationChaosReport]:
    """:func:`run_federation_chaos` for every seed (default
    :func:`default_federation_seeds`), serially, in seed order."""
    if seeds is None:
        seeds = default_federation_seeds()
    return run_sweep(run_federation_chaos, seeds, **kwargs)


def prove_federation_order_independence(seed: int, **kwargs):
    """:func:`~repro.workloads.chaos.prove_run_order_independence` over
    :func:`run_federation_chaos`."""
    return prove_run_order_independence(run_federation_chaos, seed,
                                        **kwargs)
