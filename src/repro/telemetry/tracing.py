"""Hierarchical tracing spans over simulation processes.

A span is one timed piece of work — a flow, a step, a transfer — with a
parent, so a whole execution reconstructs as a tree: the *flow → step →
transfer* chain §2.1's monitoring requirement implies. Start/end stamps
are **simulation time**, and span ids are minted from a deterministic
counter, so traces are reproducible run to run.

The subtlety is context: the sim kernel interleaves many generator-based
processes, so a single global "current span" stack would attribute a
transfer started by process B to whatever span process A happened to have
open. Two propagation schemes coexist:

* **Explicit parents** (:meth:`Tracer.begin` / :meth:`Tracer.finish`) —
  the caller passes the parent span as an argument and the tracer does
  no context bookkeeping at all. The engine threads its span down the
  ``_run_*`` call chain this way, and pins it on each
  :class:`~repro.sim.kernel.Process` it spawns (``Process._tspan``) so
  cross-process work — a transfer inside an operation handler — finds
  its parent on the *active process*. This is the hot path.
* **Context stacks** (:meth:`Tracer.start_span` / :meth:`end_span`) —
  spans nest implicitly per active process, crossing boundaries via
  :meth:`current_span` / :meth:`activate` or :meth:`wrap_process`.
  Convenient for ad-hoc instrumentation and tests.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Generator, List, Optional

__all__ = ["Span", "Tracer"]


class Span:
    """One timed, attributed piece of work in the span tree.

    A hand-written ``__slots__`` class, not a dataclass: one is created
    per flow, step, and transfer, so construction cost and per-instance
    footprint both matter. Ids are small ints minted from a deterministic
    counter; exporters format them for display.
    """

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "status",
                 "attrs", "context_key")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 start: float, attrs: Dict[str, object],
                 context_key: int) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.status = "ok"
        self.attrs = attrs
        #: Context key (active process identity) the span was opened under.
        self.context_key = context_key

    def __repr__(self) -> str:
        return (f"Span(id={self.span_id}, parent={self.parent_id}, "
                f"name={self.name!r}, status={self.status!r})")

    @property
    def duration(self) -> float:
        """Span length in virtual seconds (0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start


class Tracer:
    """Creates, nests, and collects spans for one telemetry session."""

    def __init__(self, clock: Callable[[], float], env=None) -> None:
        self._clock = clock
        self._env = env
        self._next_id = 1
        #: context key -> stack of open spans (innermost last).
        self._stacks: Dict[int, List[Span]] = {}
        #: Every ended span, in end order (the export surface).
        self.finished: List[Span] = []

    # -- context -----------------------------------------------------------

    def current_span(self) -> Optional[Span]:
        """The innermost open span of the calling process context."""
        env = self._env
        # _active_process, not the property: this path runs per span.
        active = None if env is None else env._active_process
        stack = self._stacks.get(0 if active is None else id(active))
        return stack[-1] if stack else None

    def activate(self, span: Span) -> int:
        """Make ``span`` the current span of *this* process context.

        Used to propagate a parent captured in one simulation process into
        another (the engine does this for operation handlers and parallel
        branches). Returns the context key to pass to :meth:`deactivate`.
        """
        env = self._env
        active = None if env is None else env._active_process
        key = 0 if active is None else id(active)
        self._stacks.setdefault(key, []).append(span)
        return key

    def deactivate(self, span: Span, key: int) -> None:
        """Undo :meth:`activate` for ``span`` in context ``key``."""
        stack = self._stacks.get(key)
        if stack is None:
            return
        try:
            stack.remove(span)
        except ValueError:
            pass
        if not stack:
            del self._stacks[key]

    # -- spans, explicit-parent fast path ------------------------------------

    def begin(self, name: str, parent: Optional[Span],
              attrs: Dict[str, object]) -> Span:
        """Open a span under an explicit ``parent`` (may be None).

        The no-bookkeeping path: nothing is pushed on any context stack,
        so close with :meth:`finish`, not :meth:`end_span`. Callers that
        hold their parent span in hand (the engine's ``_run_*`` chain,
        the transfer service reading ``Process._tspan``) use this; the
        positional-dict signature keeps call overhead minimal.
        """
        span_id = self._next_id
        self._next_id = span_id + 1
        return Span(span_id, None if parent is None else parent.span_id,
                    name, self._clock(), attrs, 0)

    def finish(self, span: Span, status: str = "ok") -> None:
        """Close a :meth:`begin` span and collect it. Twice is a no-op."""
        if span.end is None:
            span.end = self._clock()
            span.status = status
            self.finished.append(span)

    # -- spans, context-stack path -------------------------------------------

    def start_span(self, name: str, parent: Optional[Span] = None,
                   **attrs: object) -> Span:
        """Open a span; the parent defaults to the context's current span."""
        env = self._env
        active = None if env is None else env._active_process
        key = 0 if active is None else id(active)
        stack = self._stacks.get(key)
        if parent is None and stack:
            parent = stack[-1]
        span_id = self._next_id
        self._next_id = span_id + 1
        span = Span(span_id,
                    None if parent is None else parent.span_id,
                    name, self._clock(), attrs, key)
        if stack is None:
            self._stacks[key] = [span]
        else:
            stack.append(span)
        return span

    def end_span(self, span: Span, status: str = "ok") -> Span:
        """Close ``span`` at the current sim time and collect it.

        The span is removed from whatever context stack it was opened
        under (ending from a different process — a transfer finishing in
        the service's wake process — is fine). Ending twice is a no-op.
        """
        if span.end is not None:
            return span
        span.end = self._clock()
        span.status = status
        stack = self._stacks.get(span.context_key)
        if stack:
            if stack[-1] is span:
                stack.pop()
            else:
                try:
                    stack.remove(span)
                except ValueError:
                    pass
            if not stack:
                del self._stacks[span.context_key]
        self.finished.append(span)
        return span

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None,
             **attrs: object):
        """Context manager: open a span, close it on exit (error-aware)."""
        opened = self.start_span(name, parent=parent, **attrs)
        try:
            yield opened
        except BaseException:
            self.end_span(opened, status="error")
            raise
        self.end_span(opened)

    # -- cross-process propagation ------------------------------------------

    def wrap_process(self, generator: Generator) -> Generator:
        """Carry the caller's current span into a new sim process.

        Captures the current span *now* (in the caller's context) and
        returns a generator that activates it inside the process the
        kernel later runs, so spans opened there nest under the caller's.
        For stack-based spans only; explicit-parent (:meth:`begin`)
        callers pin the span on ``Process._tspan`` instead.
        """
        parent = self.current_span()
        if parent is None:
            return generator

        def _carried():
            key = self.activate(parent)
            try:
                result = yield from generator
                return result
            finally:
                self.deactivate(parent, key)

        return _carried()
