"""The DGL operation registry.

"DGL supports a number of DataGrid related operations for SDSC's Storage
Resource Broker (SRB) or execution of business logic (code) by the DfMS
server" (Appendix A). The registry maps operation names to handlers; the
DfMS binds the datagrid operations (``srb.*``), business-logic execution
(``exec``), and control utilities (``dgl.*``) when it starts — see
:mod:`repro.dfms.bindings`.

A handler is called as ``handler(context, params)`` where ``params`` are
the step's parameters with all ``${...}`` templates already expanded.
Handlers may return a plain value (instant operations) or a generator to
run as a simulation process (timed operations).
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, List, Optional

from repro.errors import UnknownOperationError
from repro.dgl.model import Operation

__all__ = ["OperationHandler", "OperationRegistry"]

#: Handler signature: (execution context, expanded parameters) -> result.
OperationHandler = Callable[[Any, Dict[str, Any]], Any]


class OperationRegistry:
    """Name → handler mapping with registration helpers."""

    def __init__(self) -> None:
        self._handlers: Dict[str, OperationHandler] = {}
        self._required_params: Dict[str, tuple] = {}

    def register(self, name: str, handler: OperationHandler,
                 replace: bool = False,
                 required_params: tuple = ()) -> None:
        """Bind ``handler`` to operation ``name``.

        ``required_params`` declares parameters every use of the operation
        must supply (values may still be ``${...}`` templates); documents
        missing them are rejected at admission, before anything runs —
        the "SQL for datagrids" stance applied to static checking.
        """
        if name in self._handlers and not replace:
            raise UnknownOperationError(
                f"operation {name!r} is already registered")
        self._handlers[name] = handler
        self._required_params[name] = tuple(required_params)

    def operation(self, name: str) -> Callable[[OperationHandler], OperationHandler]:
        """Decorator form of :meth:`register`."""

        def _decorator(handler: OperationHandler) -> OperationHandler:
            self.register(name, handler)
            return handler

        return _decorator

    def get(self, name: str) -> OperationHandler:
        """The handler for ``name``; raises :class:`UnknownOperationError`."""
        try:
            return self._handlers[name]
        except KeyError:
            raise UnknownOperationError(
                f"unknown operation {name!r} "
                f"(registered: {sorted(self._handlers)})") from None

    def resolve(self, name: str) -> Optional[OperationHandler]:
        """The handler for ``name``, or None if none is registered."""
        return self._handlers.get(name)

    def names(self) -> List[str]:
        """Registered operation names, sorted."""
        return sorted(self._handlers)

    def __contains__(self, name: str) -> bool:
        return name in self._handlers

    # -- static checking -------------------------------------------------------

    def parameter_problem(self, where: str,
                          operation: Operation) -> Optional[str]:
        """The required-parameter violation of one use of an operation.

        ``where`` names the use (``step 'flow/s'``, ``flow 'flow' rule
        'beforeEntry'``). Unregistered operations have no requirements.
        :meth:`repro.dfms.engine.FlowEngine.compile` applies it to every
        operation use at admission.
        """
        required = self._required_params.get(operation.name)
        if not required:
            return None
        missing = [parameter for parameter in required
                   if parameter not in operation.parameters]
        if not missing:
            return None
        return (f"{where}: {operation.name} is missing required "
                f"parameter(s) {', '.join(missing)}")

    @staticmethod
    def is_timed(result: Any) -> bool:
        """True if a handler result is a generator to run in virtual time."""
        return inspect.isgenerator(result)

