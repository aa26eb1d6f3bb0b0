"""The trigger manager: registration, ordering, firing.

"DGMSs will allow multiple users to define triggers. Different results
might be produced based on the order in which triggers defined by multiple
users are processed for the same event. Further complicating the situation
is the non-transactional nature of datagrid processes." (§2.2)

The manager subscribes to the DGMS event bus and, per event, evaluates the
matching triggers under a configurable *ordering strategy* — registration
order, priority, or owner name. Actions are submitted to a DfMS server as
asynchronous DGL requests by the trigger's owner; they run as ordinary
flows after the delivering operation proceeds, which is exactly the
non-transactional semantics the paper describes (and experiment E11
measures the resulting order-dependence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import ExpressionError, TriggerError
from repro.dfms.server import DfMSServer
from repro.dgl.expressions import Compiler, evaluate_condition
from repro.dgl.model import DataGridRequest
from repro.grid.dgms import DataGridManagementSystem
from repro.grid.events import NamespaceEvent
from repro.triggers.trigger import DatagridTrigger

__all__ = ["TriggerFiring", "TriggerManager", "ORDERING_STRATEGIES"]

ORDERING_STRATEGIES = ("registration", "priority", "owner")


@dataclass(frozen=True)
class TriggerFiring:
    """One trigger activation (or condition rejection)."""

    trigger_name: str
    event_path: str
    event_kind: str
    time: float
    condition_met: bool
    request_id: Optional[str] = None   # the submitted action's request


class TriggerManager:
    """Routes namespace events to registered triggers."""

    def __init__(self, dgms: DataGridManagementSystem,
                 server: Optional[DfMSServer] = None,
                 ordering: str = "registration") -> None:
        if ordering not in ORDERING_STRATEGIES:
            raise TriggerError(
                f"unknown ordering {ordering!r} "
                f"(choose from {ORDERING_STRATEGIES})")
        self.dgms = dgms
        self.server = server
        self.ordering = ordering
        # Name -> trigger; the dict keeps registration order.
        self._triggers: Dict[str, DatagridTrigger] = {}
        self.firing_log: List[TriggerFiring] = []
        self.events_seen = 0
        #: Observers of trigger activity (same idiom as ``FlowEngine.
        #: listeners``); each is called as
        #: listener(kind, trigger_name, time, detail_dict).
        self.listeners: List[Callable] = []
        #: Each distinct condition source is parsed once, on its first
        #: evaluation, however often its trigger fires.
        self._compiler = Compiler()
        dgms.events.subscribe(self._on_event)

    # -- notifications -------------------------------------------------------

    def _notify(self, kind: str, trigger_name: str, **detail) -> None:
        for listener in self.listeners:
            listener(kind, trigger_name, self.dgms.env.now, detail)
        t = self.dgms.env.telemetry
        if t is not None:
            t.log.emit(f"trigger.{kind}", trigger=trigger_name, **detail)

    # -- registration ------------------------------------------------------

    def register(self, trigger: DatagridTrigger) -> None:
        """Register a trigger (names are unique grid-wide)."""
        if trigger.name in self._triggers:
            raise TriggerError(f"trigger {trigger.name!r} already registered")
        self._triggers[trigger.name] = trigger

    def unregister(self, name: str) -> None:
        """Remove a trigger by name (raises if unknown)."""
        if name not in self._triggers:
            raise TriggerError(f"no trigger named {name!r}")
        del self._triggers[name]

    def triggers(self) -> List[DatagridTrigger]:
        """Registered triggers, in registration order."""
        return list(self._triggers.values())

    def __len__(self) -> int:
        return len(self._triggers)

    # -- ordering ------------------------------------------------------------

    def _ordered_matches(self, event: NamespaceEvent) -> List[DatagridTrigger]:
        matches = [t for t in self._triggers.values()
                   if t.matches_event(event)]
        if self.ordering == "priority":
            matches.sort(key=lambda t: (-t.priority, t.name))
        elif self.ordering == "owner":
            matches.sort(key=lambda t: (t.owner.qualified_name, t.name))
        # "registration": keep the registration order as collected.
        return matches

    # -- delivery ------------------------------------------------------------

    def _condition_scope(self, event: NamespaceEvent) -> dict:
        scope = {
            "path": event.path,
            "kind": event.kind.value,
            "phase": event.phase.value,
            "user": event.user or "",
            "time": event.time,
        }
        scope.update(event.detail)
        # One catalog-backed walk instead of a separate exists + resolve.
        node = self.dgms.namespace.try_resolve(event.path)
        scope["meta"] = {} if node is None else node.metadata.as_dict()
        return scope

    def _on_event(self, event: NamespaceEvent) -> None:
        self.events_seen += 1
        t = self.dgms.env.telemetry
        if t is not None:
            t.trigger_events.inc()
        matches = self._ordered_matches(event)
        if not matches:
            return
        if t is not None and len(matches) > 1:
            # More than one trigger on the same event: the §2.2
            # order-dependence hazard the ordering strategy arbitrates.
            t.trigger_conflicts.inc()
        scope = self._condition_scope(event)
        condition = self._compiler.condition
        for trigger in matches:
            try:
                met = bool(evaluate_condition(condition(trigger.condition),
                                              scope))
            except ExpressionError:
                met = False   # a broken condition never fires (documented)
            if t is not None:
                t.trigger_evals.inc()
            request_id = None
            if met:
                trigger.firings += 1
                if t is not None:
                    t.trigger_firings.labels(trigger=trigger.name).inc()
                if self.server is not None:
                    response = self.server.submit(DataGridRequest(
                        user=trigger.owner.qualified_name,
                        virtual_organization="triggers",
                        body=trigger.action_flow(event),
                        asynchronous=True))
                    request_id = response.request_id
            self.firing_log.append(TriggerFiring(
                trigger_name=trigger.name, event_path=event.path,
                event_kind=event.kind.value, time=event.time,
                condition_met=met, request_id=request_id))
            self._notify("fired" if met else "rejected", trigger.name,
                         event_path=event.path,
                         event_kind=event.kind.value,
                         request_id=request_id)

    # -- introspection ------------------------------------------------------

    def firings_for(self, trigger_name: str) -> List[TriggerFiring]:
        """Condition-met firings of one trigger, in event order."""
        return [firing for firing in self.firing_log
                if firing.trigger_name == trigger_name and
                firing.condition_met]
