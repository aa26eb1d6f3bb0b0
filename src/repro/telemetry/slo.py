"""Sim-time SLO probes and the alerting engine that evaluates them.

§2.1's management requirement is not satisfied by raw telemetry — an
operator of a months-long datagrid process needs *judgements*: is the
grid healthy, which windows were degraded, which execution is stuck. An
:class:`SLOEngine` holds a set of declarative probes and evaluates them
over the structured telemetry a run already produces, on **sim-time
windows**, emitting structured ``slo.alert`` events and a
``slo_alerts_total`` counter labelled by probe.

Evaluation is demand-driven (call :meth:`SLOEngine.evaluate` at any
instant, typically at the end of a run or from a monitoring process) and
strictly read-only over the simulation: probes inspect the event log,
histogram samples, and kernel queue lanes, schedule nothing, and draw no
randomness — so an attached engine cannot perturb a run's
``run_signature``. Repeat evaluations are idempotent: each (probe,
window, labels) breach alerts exactly once.

The stock probe set (:func:`default_probes`):

* :class:`FaultWindowProbe` — one critical alert per injected fault
  window (component availability is the hardest SLO there is); this is
  the probe the chaos acceptance gate holds to 100% recall.
* :class:`TransferLatencyProbe` — windowed p99 of WAN transfer duration,
  per link, against a threshold; the symptom-side view of degradation.
* :class:`RecoveryPressureProbe` — recovery actions (retries, resumes,
  failovers, restarts) per window; any recovery activity above the
  budget means the grid is burning resilience headroom.
* :class:`QueueDepthProbe` — kernel scheduling-lane depth (and any
  published gateway backlog) at the evaluation instant; a runaway
  workload shows up here first.
* :class:`StallProbe` — execution-stall watchdog: a live (non-terminal)
  execution with no engine event for longer than the quiet budget is
  stuck *right now*.

The windowed per-link latency history :class:`TransferLatencyProbe`
computes is exactly the substrate ROADMAP item 4's predictive replica
selection needs; :func:`window_series` is exported for that reuse.
"""

from __future__ import annotations

from math import ceil
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

__all__ = [
    "Alert", "SLOEngine", "default_probes", "fault_coverage",
    "quantile", "window_series",
    "FaultWindowProbe", "TransferLatencyProbe", "RecoveryPressureProbe",
    "QueueDepthProbe", "StallProbe",
]


class Alert(NamedTuple):
    """One SLO breach: a probe, the window it judged, and the numbers."""

    probe: str
    severity: str
    time: float                    # sim instant the alert refers to
    window: Tuple[float, float]    # (start, end); instant probes use (t, t)
    value: float
    threshold: float
    labels: Tuple[Tuple[str, str], ...]   # sorted, hashable label pairs
    message: str


def _labels(**labels: object) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (exact, deterministic).

    Computed from the full sample list, not bucket boundaries, so p99 of
    a window is a real observed value.
    """
    if not values:
        raise ValueError("quantile of an empty sample set")
    ordered = sorted(values)
    rank = max(0, ceil(q * len(ordered)) - 1)
    return ordered[min(rank, len(ordered) - 1)]


def window_series(points: Iterable[Tuple[float, float]],
                  window_s: float) -> Dict[int, List[float]]:
    """Bucket ``(time, value)`` points into fixed sim-time windows.

    Window ``i`` covers ``[i*window_s, (i+1)*window_s)``. Returns
    window-index -> values, insertion-ordered by first occurrence.
    """
    series: Dict[int, List[float]] = {}
    for when, value in points:
        index = int(when // window_s)
        bucket = series.get(index)
        if bucket is None:
            series[index] = [value]
        else:
            bucket.append(value)
    return series


# --------------------------------------------------------------------------
# Probes
# --------------------------------------------------------------------------


class FaultWindowProbe:
    """One alert per injected fault window (availability SLO).

    Pairs ``fault.begin`` / ``fault.end`` log records FIFO per
    (kind, target); a window still open at evaluation alerts with the
    evaluation instant as its provisional end.
    """

    name = "fault-window"

    def evaluate(self, engine, now: float) -> List[Alert]:
        """Pair begin/end records into windows; one alert each."""
        open_windows: Dict[Tuple[str, str], List[float]] = {}
        windows: List[Tuple[str, str, float, float]] = []
        for record in engine.telemetry.log.records:
            if record.kind == "fault.begin":
                key = (record.fields["fault"], record.fields["target"])
                open_windows.setdefault(key, []).append(record.time)
            elif record.kind == "fault.end":
                key = (record.fields["fault"], record.fields["target"])
                starts = open_windows.get(key)
                if starts:
                    windows.append((*key, starts.pop(0), record.time))
        for (kind, target), starts in sorted(open_windows.items()):
            for start in starts:
                windows.append((kind, target, start, now))
        alerts = []
        for kind, target, start, end in sorted(windows,
                                               key=lambda w: (w[2], w[0],
                                                              w[1])):
            alerts.append(Alert(
                probe=self.name, severity="critical", time=start,
                window=(start, end), value=end - start, threshold=0.0,
                labels=_labels(fault=kind, target=target),
                message=f"{kind} on {target} open "
                        f"t={start:.2f}..{end:.2f}"))
        return alerts


class TransferLatencyProbe:
    """Windowed p99 WAN transfer duration per link vs a threshold."""

    name = "transfer-latency"

    def __init__(self, p99_threshold_s: float = 20.0,
                 window_s: float = 5.0) -> None:
        self.p99_threshold_s = p99_threshold_s
        self.window_s = window_s

    def evaluate(self, engine, now: float) -> List[Alert]:
        """Alert on every (link, window) whose p99 breaches the SLO."""
        per_link: Dict[str, List[Tuple[float, float]]] = {}
        for record in engine.telemetry.log.records:
            if record.kind != "net.transfer":
                continue
            fields = record.fields
            for link in fields.get("links", ()):
                per_link.setdefault(link, []).append(
                    (record.time, fields["duration"]))
        alerts = []
        for link in sorted(per_link):
            for index, values in window_series(per_link[link],
                                               self.window_s).items():
                p99 = quantile(values, 0.99)
                if p99 <= self.p99_threshold_s:
                    continue
                window = (index * self.window_s,
                          (index + 1) * self.window_s)
                alerts.append(Alert(
                    probe=self.name, severity="warning", time=window[1],
                    window=window, value=p99,
                    threshold=self.p99_threshold_s,
                    labels=_labels(link=link),
                    message=f"p99 transfer latency {p99:.2f}s on {link} "
                            f"in t={window[0]:.0f}..{window[1]:.0f} "
                            f"(threshold {self.p99_threshold_s:.0f}s)"))
        return alerts


class RecoveryPressureProbe:
    """Recovery actions per window against an action budget.

    The default budget is zero: on a healthy grid *any* retry, resume,
    failover, or restart means something broke and resilience headroom
    is being spent — exactly the signal an operator wants windowed.
    """

    name = "recovery-pressure"

    def __init__(self, max_actions: int = 0, window_s: float = 5.0) -> None:
        self.max_actions = max_actions
        self.window_s = window_s

    def evaluate(self, engine, now: float) -> List[Alert]:
        """Alert on every window whose action count exceeds the budget."""
        points = [(record.time, 1.0)
                  for record in engine.telemetry.log.records
                  if record.kind.startswith("recovery.")]
        alerts = []
        for index, values in sorted(window_series(points,
                                                  self.window_s).items()):
            count = len(values)
            if count <= self.max_actions:
                continue
            window = (index * self.window_s, (index + 1) * self.window_s)
            alerts.append(Alert(
                probe=self.name, severity="warning", time=window[1],
                window=window, value=float(count),
                threshold=float(self.max_actions), labels=(),
                message=f"{count} recovery actions in "
                        f"t={window[0]:.0f}..{window[1]:.0f} "
                        f"(budget {self.max_actions})"))
        return alerts


class QueueDepthProbe:
    """Kernel scheduling-lane — and gateway backlog — depth right now.

    Two depth surfaces, one probe: the kernel's scheduling lanes (a
    runaway workload shows up here first) and, when a
    :class:`~repro.dfms.gateway.DfMSGateway` is publishing its
    ``gateway_queue_depth`` gauge, each gateway's admission backlog
    against ``max_gateway_depth``. A gateway pinned at its bound means
    requests are being shed — the operator-side view of saturation.
    """

    name = "queue-depth"

    def __init__(self, max_depth: int = 100_000,
                 max_gateway_depth: int = 1_000) -> None:
        self.max_depth = max_depth
        self.max_gateway_depth = max_gateway_depth

    def evaluate(self, engine, now: float) -> List[Alert]:
        """Alert when any watched queue exceeds its depth cap right now."""
        alerts = []
        depth = engine.telemetry._queued()
        if depth > self.max_depth:
            alerts.append(Alert(
                probe=self.name, severity="warning", time=now,
                window=(now, now), value=float(depth),
                threshold=float(self.max_depth), labels=(),
                message=f"{depth} events queued on the kernel lanes at "
                        f"t={now:.2f} (max {self.max_depth})"))
        family = engine.telemetry.metrics.get("gateway_queue_depth")
        if family is not None:
            for values, series in sorted(family.series()):
                backlog = series.value
                if backlog <= self.max_gateway_depth:
                    continue
                gateway = values[0] if values else "?"
                alerts.append(Alert(
                    probe=self.name, severity="warning", time=now,
                    window=(now, now), value=float(backlog),
                    threshold=float(self.max_gateway_depth),
                    labels=_labels(gateway=gateway),
                    message=f"{backlog:.0f} requests backlogged at "
                            f"{gateway} at t={now:.2f} "
                            f"(max {self.max_gateway_depth})"))
        return alerts


class StallProbe:
    """Execution-stall watchdog: live executions quiet for too long.

    Judges *now*, not history: an execution that went quiet mid-run but
    finished is fine; one that is still non-terminal with no engine
    event for ``max_quiet_s`` of sim time is stuck. Needs the engine's
    server handle (``SLOEngine(server=...)``); without one it is inert.
    """

    name = "execution-stall"

    def __init__(self, max_quiet_s: float = 30.0) -> None:
        self.max_quiet_s = max_quiet_s

    def evaluate(self, engine, now: float) -> List[Alert]:
        """Alert per live execution quiet for longer than the budget."""
        server = engine.server
        if server is None:
            return []
        last_seen: Dict[str, float] = {}
        for record in engine.telemetry.log.records:
            if record.kind.startswith("engine."):
                last_seen[record.fields["request_id"]] = record.time
        alerts = []
        for execution in server.executions():
            if execution.state.is_terminal:
                continue
            last = last_seen.get(execution.request_id,
                                 execution.submitted_at)
            quiet = now - last
            if quiet <= self.max_quiet_s:
                continue
            alerts.append(Alert(
                probe=self.name, severity="critical", time=now,
                window=(last, now), value=quiet,
                threshold=self.max_quiet_s,
                labels=_labels(request_id=execution.request_id),
                message=f"execution {execution.request_id} "
                        f"({execution.state.value}) quiet for "
                        f"{quiet:.1f}s at t={now:.2f}"))
        return alerts


def default_probes() -> List[object]:
    """The stock probe set, each probe at its default thresholds."""
    return [FaultWindowProbe(), TransferLatencyProbe(),
            RecoveryPressureProbe(), QueueDepthProbe(), StallProbe()]


# --------------------------------------------------------------------------
# The engine
# --------------------------------------------------------------------------


class SLOEngine:
    """Evaluates a probe set over one telemetry session, idempotently."""

    def __init__(self, telemetry, probes: Optional[List[object]] = None,
                 server=None) -> None:
        self.telemetry = telemetry
        self.server = server
        self.probes = list(probes) if probes is not None else default_probes()
        #: Every alert ever raised, in raise order (the export surface).
        self.alerts: List[Alert] = []
        self._seen = set()
        # Lazily registered so sessions without an SLO engine attached
        # expose exactly the same metric families as before.
        self.counter = telemetry.metrics.counter(
            "slo_alerts_total", "SLO alert events raised, by probe",
            ["probe"])

    def evaluate(self, now: Optional[float] = None) -> List[Alert]:
        """Run every probe; returns (and remembers) the *new* alerts.

        Folds the telemetry session first so probes see materialized
        engine events and transfer completions. A breach already alerted
        on (same probe, window, labels) is not re-raised, so calling this
        every N sim-seconds from a watchdog process is safe.
        """
        telemetry = self.telemetry
        telemetry.collect()
        instant = telemetry.env.now if now is None else now
        fresh: List[Alert] = []
        for probe in self.probes:
            for alert in probe.evaluate(self, instant):
                key = (alert.probe, alert.window, alert.labels)
                if key in self._seen:
                    continue
                self._seen.add(key)
                fresh.append(alert)
                self.alerts.append(alert)
                self.counter.labels(probe=alert.probe).inc()
                telemetry.log.emit(
                    "slo.alert", probe=alert.probe,
                    severity=alert.severity,
                    window_start=alert.window[0],
                    window_end=alert.window[1], value=alert.value,
                    threshold=alert.threshold, message=alert.message,
                    **dict(alert.labels))
        return fresh


def fault_coverage(engine: SLOEngine):
    """Recall check: did every injected fault window raise its alert?

    Returns ``(windows, uncovered)`` where ``windows`` is every
    (kind, target, start) fault window the telemetry log holds and
    ``uncovered`` the subset no ``fault-window`` alert matches. The
    chaos acceptance gate asserts ``uncovered`` is empty.
    """
    windows = [(record.fields["fault"], record.fields["target"], record.time)
               for record in engine.telemetry.log.records
               if record.kind == "fault.begin"]
    alerted = {(dict(alert.labels)["fault"], dict(alert.labels)["target"],
                alert.window[0])
               for alert in engine.alerts if alert.probe == "fault-window"}
    uncovered = [window for window in windows if window not in alerted]
    return windows, uncovered
