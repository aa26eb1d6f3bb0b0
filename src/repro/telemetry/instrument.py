"""Wiring telemetry into a deployment.

Instrumentation points live inside each subsystem, guarded on
``env.telemetry is None`` — this module is only the attach surface:

* :func:`attach_telemetry` — create a session on one environment and
  (optionally) subscribe it to a DfMS server's engine event bus and a
  DGMS's namespace, covering all six instrumented subsystems.
* :func:`attach_observability` — the same, plus the flight recorder and
  the SLO engine.

Nothing here (or anywhere) turns telemetry on implicitly: the default is
no session at all, and the instrumentation guards keep that default
effectively free (``benchmarks/test_e19_telemetry.py`` measures both
modes).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.telemetry.core import Telemetry

__all__ = ["attach_telemetry", "attach_observability", "Observability"]


def attach_telemetry(env, server=None, dgms=None) -> Telemetry:
    """Create a telemetry session and wire it to a deployment.

    ``env`` gains a ``telemetry`` attribute the sim kernel, DfMS engine,
    ILM manager, trigger manager, and transfer service all read. When a
    ``server`` is given, the session subscribes to its engine's listener
    bus — the same emission path :class:`~repro.dfms.monitoring.
    ExecutionMonitor` uses — and its DGMS's namespace is tagged so the
    catalog query planner can report access-path metrics. Attaching twice
    returns the existing session.
    """
    existing: Optional[Telemetry] = getattr(env, "telemetry", None)
    telemetry = existing if existing is not None else Telemetry(env)
    env.telemetry = telemetry
    if server is not None and dgms is None:
        dgms = server.dgms
    if server is not None:
        if telemetry.engine_listener not in server.engine.listeners:
            server.engine.listeners.append(telemetry.engine_listener)
    if dgms is not None:
        dgms.namespace.telemetry = telemetry
    return telemetry


class Observability(NamedTuple):
    """The full observability stack attached to one environment."""

    telemetry: Telemetry
    recorder: object   # FlightRecorder
    slo: object        # SLOEngine


def attach_observability(env, server=None, dgms=None,
                         capacity: Optional[int] = None,
                         dump_path: Optional[str] = None) -> Observability:
    """Attach telemetry plus the flight recorder and SLO engine.

    Builds (or reuses) the telemetry session, hangs a
    :class:`~repro.telemetry.recorder.FlightRecorder` off it (fed by the
    event log and, when a ``server`` is given, the engine listener bus),
    and constructs an :class:`~repro.telemetry.slo.SLOEngine` over the
    same session. Both are strictly read-only over the simulation —
    attaching them cannot move a float (the E23 benchmark pins the
    20-seed chaos fingerprint with and without). Idempotent: a second
    call returns the existing stack (``capacity`` is ignored then).
    """
    from repro.telemetry.recorder import DEFAULT_CAPACITY, FlightRecorder
    from repro.telemetry.slo import SLOEngine

    telemetry = attach_telemetry(env, server=server, dgms=dgms)
    recorder = telemetry.recorder
    if recorder is None:
        recorder = FlightRecorder(
            telemetry,
            capacity=DEFAULT_CAPACITY if capacity is None else capacity,
            dump_path=dump_path)
        telemetry.recorder = recorder
        telemetry.log.recorder = recorder
        if server is not None:
            server.engine.listeners.append(recorder.engine_listener)
    slo = telemetry.slo
    if slo is None:
        slo = SLOEngine(telemetry, server=server)
        telemetry.slo = slo
    return Observability(telemetry, recorder, slo)
