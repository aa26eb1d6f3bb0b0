"""The recursive DGL flow interpreter.

Executes a :class:`~repro.dgl.model.Flow` over the simulation kernel:

* each Flow opens a variable scope and runs its children under its
  FlowLogic's control pattern (sequential, parallel, while, repeat,
  for-each over a datagrid query, switch-case);
* each Step expands its operation's ``${...}`` parameter templates against
  the scope chain and invokes the bound operation handler (timed handlers
  run as simulation processes);
* the reserved ``beforeEntry`` / ``afterExit`` rules run around flows and
  steps; the reserved ``onError`` rule gives steps fault handling
  (retry / ignore / abort — "fault handling information for the processes
  could also be provided in the execution logic", §2.3);
* the engine honours pause / resume / cancel at every step boundary and
  journals completed step instances so a checkpointed execution can be
  restarted without redoing work (§2.1: ILM processes "could be started,
  stopped and restarted at any time").

Observability: every progress notification goes through the
``listeners`` event bus (one emission path shared by
:class:`~repro.dfms.monitoring.ExecutionMonitor` push-watchers and the
telemetry layer), and when a telemetry session is attached to the
environment the engine additionally opens execution → flow → step tracing
spans, propagating span context into the separate simulation processes it
spawns for parallel branches and timed operation handlers.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import (
    DGLValidationError,
    ExecutionError,
    ExpressionError,
    ReproError,
)
from repro.dfms.context import ExecutionContext
from repro.dfms.execution import FlowExecution
from repro.dgl.expressions import (
    Scope,
    evaluate,
    evaluate_condition,
    render_template,
)
from repro.dgl.model import (
    AFTER_EXIT,
    BEFORE_ENTRY,
    ExecutionState,
    Flow,
    FlowStatus,
    ForEach,
    Operation,
    Parallel,
    Repeat,
    Sequential,
    Step,
    SwitchCase,
    UserDefinedRule,
    WhileLoop,
)
from repro.dgl.operations import OperationRegistry
from repro.grid.query import Query, parse_conditions
from repro.sim.kernel import Environment
from repro.sim.resources import Resource

__all__ = ["FlowEngine", "FlowCancelled", "ON_ERROR"]

#: Reserved rule name for step fault handling.
ON_ERROR = "onError"

#: Safety bound on while/repeat loops, so a buggy DGL document cannot hang
#: the simulation. Generous relative to any workload in the experiments.
MAX_LOOP_ITERATIONS = 1_000_000

#: Flow nesting is interpreted with native recursion (a few Python frames
#: per level), so Python's recursion limit caps practical depth near 200.
#: Documents are validated against this before execution.
MAX_NESTING_DEPTH = 150


class FlowCancelled(ReproError):
    """Internal control-flow signal: the execution was cancelled."""


def _select_action(rule: UserDefinedRule, value):
    """The action a rule's condition ``value`` picks, or None.

    ``True`` picks the first action; a string picks the action of that
    name; anything else picks none.
    """
    if value is True:
        return rule.actions[0]
    if isinstance(value, str):
        for action in rule.actions:
            if action.name == value:
                return action
    return None


class FlowEngine:
    """Interprets flows for a DfMS server."""

    def __init__(self, env: Environment, registry: OperationRegistry) -> None:
        self.env = env
        self.registry = registry
        #: Observers of engine progress; each is called as
        #: listener(kind, execution, instance_key, time, detail_dict).
        self.listeners: List[Callable] = []

    # -- public entry -----------------------------------------------------

    def start(self, execution: FlowExecution, ctx: ExecutionContext):
        """Launch ``execution`` as a simulation process and return it."""
        return self.env.process(self._run_root(execution, ctx))

    # -- notifications ------------------------------------------------------

    def _notify(self, kind: str, execution: FlowExecution, key: str,
                **detail) -> None:
        listeners = self.listeners
        if listeners:
            now = self.env._now
            for listener in listeners:
                listener(kind, execution, key, now, detail)

    # -- control gate --------------------------------------------------------

    def _gate(self, execution: FlowExecution):
        """Honour pause/cancel requests; runs at every step boundary."""
        if execution.cancel_requested:
            raise FlowCancelled(execution.request_id)
        while execution.pause_requested:
            if execution.state is not ExecutionState.PAUSED:
                execution.state = ExecutionState.PAUSED
                self._notify("paused", execution, "")
            yield execution.wait_for_resume()
            if execution.cancel_requested:
                raise FlowCancelled(execution.request_id)
        if execution.state is ExecutionState.PAUSED:
            execution.state = ExecutionState.RUNNING
            self._notify("resumed", execution, "")

    # -- root ------------------------------------------------------------------

    def _run_root(self, execution: FlowExecution, ctx: ExecutionContext):
        execution.state = ExecutionState.RUNNING
        self._notify("execution_started", execution, "")
        t = self.env.telemetry
        # Spans are parented explicitly: each _run_* level holds its own
        # span in a local and passes it down as the children's parent
        # (Tracer.begin/finish — no context-stack bookkeeping).
        span = None if t is None else t.tracer.begin(
            "execution", None,
            {"request_id": execution.request_id,
             "flow": execution.flow.name})
        try:
            yield from self._run_flow(execution.flow, execution.status,
                                      ctx.scope, ctx, execution, "", span)
        except FlowCancelled:
            execution.finish(ExecutionState.CANCELLED)
            self._notify("execution_cancelled", execution, "")
        except Exception as exc:
            execution.finish(ExecutionState.FAILED, error=str(exc),
                             failure=exc)
            self._notify("execution_failed", execution, "", error=str(exc),
                         error_type=type(exc).__name__)
        else:
            execution.finish(ExecutionState.COMPLETED)
            self._notify("execution_completed", execution, "")
        if span is not None:
            t.tracer.finish(
                span, status="ok" if execution.state is
                ExecutionState.COMPLETED else execution.state.value)
        return execution

    # -- flows ------------------------------------------------------------------

    def _run_flow(self, flow: Flow, status: FlowStatus, parent_scope: Scope,
                  ctx: ExecutionContext, execution: FlowExecution,
                  prefix: str, parent_span=None):
        yield from self._gate(execution)
        if status.started_at is None:
            status.started_at = self.env.now
        status.state = ExecutionState.RUNNING
        self._notify("flow_started", execution, prefix or flow.name)
        t = self.env.telemetry
        span = None if t is None else t.tracer.begin(
            "flow", parent_span,
            {"key": prefix or flow.name,
             "request_id": execution.request_id})
        scope = Scope(parent=parent_scope)
        for variable in flow.variables:
            scope.declare(variable.name,
                          render_template(variable.value, parent_scope))
        try:
            yield from self._run_rule_if_defined(
                flow.logic.rule(BEFORE_ENTRY), scope, ctx, execution)
            yield from self._dispatch_pattern(flow, status, scope, ctx,
                                              execution, prefix, span)
            yield from self._run_rule_if_defined(
                flow.logic.rule(AFTER_EXIT), scope, ctx, execution)
        except FlowCancelled:
            status.state = ExecutionState.CANCELLED
            status.finished_at = self.env.now
            if span is not None:
                t.tracer.finish(span, status="cancelled")
            raise
        except Exception as exc:
            status.state = ExecutionState.FAILED
            status.error = str(exc)
            status.finished_at = self.env.now
            self._notify("flow_failed", execution, prefix or flow.name,
                         error=str(exc), error_type=type(exc).__name__)
            if span is not None:
                t.tracer.finish(span, status="error")
            raise
        status.state = ExecutionState.COMPLETED
        status.finished_at = self.env.now
        if span is not None:
            t.tracer.finish(span)
        self._notify("flow_completed", execution, prefix or flow.name)

    def _dispatch_pattern(self, flow, status, scope, ctx, execution, prefix,
                          span=None):
        pattern = flow.logic.pattern
        if isinstance(pattern, Sequential):
            yield from self._run_children_once(flow, status, scope, ctx,
                                               execution, prefix, span)
        elif isinstance(pattern, Parallel):
            yield from self._run_parallel(flow, status, scope, ctx,
                                          execution, prefix, pattern, span)
        elif isinstance(pattern, WhileLoop):
            yield from self._run_loop(
                flow, status, scope, ctx, execution, prefix, span,
                should_continue=lambda i: bool(
                    evaluate_condition(pattern.condition, scope)))
        elif isinstance(pattern, Repeat):
            count = pattern.count
            if isinstance(count, str):
                count = int(render_template(count, scope)
                            if "${" in count else evaluate(count, scope))
            if count < 0:
                raise ExecutionError(f"repeat count is negative: {count}")
            yield from self._run_loop(
                flow, status, scope, ctx, execution, prefix, span,
                should_continue=lambda i: i < count)
        elif isinstance(pattern, ForEach):
            yield from self._run_foreach(flow, status, scope, ctx,
                                         execution, prefix, pattern, span)
        elif isinstance(pattern, SwitchCase):
            yield from self._run_switch(flow, status, scope, ctx,
                                        execution, prefix, pattern, span)
        else:  # pragma: no cover - FlowLogic already validates
            raise DGLValidationError(
                f"unknown control pattern {type(pattern).__name__}")

    def _run_children_once(self, flow, status, scope, ctx, execution, prefix,
                           span=None):
        for child, child_status in zip(flow.children, status.children):
            yield from self._run_child(child, child_status, scope, ctx,
                                       execution, prefix, span)

    def _run_child(self, child, child_status, scope, ctx, execution, prefix,
                   span=None):
        key = f"{prefix}/{child.name}" if prefix else child.name
        if isinstance(child, Flow):
            yield from self._run_flow(child, child_status, scope, ctx,
                                      execution, key, span)
        else:
            yield from self._run_step(child, child_status, scope, ctx,
                                      execution, key, span)

    def _run_parallel(self, flow, status, scope, ctx, execution, prefix,
                      pattern: Parallel, span=None):
        limiter: Optional[Resource] = None
        if pattern.max_concurrent:
            limiter = Resource(self.env, capacity=pattern.max_concurrent)

        def _bounded(child, child_status):
            if limiter is None:
                yield from self._run_child(child, child_status, scope, ctx,
                                           execution, prefix, span)
                return
            request = limiter.request()
            yield request
            try:
                yield from self._run_child(child, child_status, scope, ctx,
                                           execution, prefix, span)
            finally:
                limiter.release(request)

        # Branches run as separate kernel processes. The flow span
        # reaches their steps as the closed-over `span` argument; pin it
        # on the process too so any work that reads the active process's
        # span context (rules spawning, transfers) parents correctly.
        def _branch(child, child_status):
            process = self.env.process(_bounded(child, child_status))
            process._tspan = span
            return process

        processes = [_branch(child, child_status)
                     for child, child_status in
                     zip(flow.children, status.children)]
        # Wait for every branch to settle, then surface the first error —
        # failing fast would orphan still-running siblings.
        first_error: Optional[BaseException] = None
        for process in processes:
            try:
                yield process
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    def _run_loop(self, flow, status, scope, ctx, execution, prefix, span=None,
                  should_continue=None):
        iteration = 0
        while should_continue(iteration):
            if iteration >= MAX_LOOP_ITERATIONS:
                raise ExecutionError(
                    f"flow {flow.name!r} exceeded {MAX_LOOP_ITERATIONS} "
                    "iterations; aborting (runaway loop?)")
            yield from self._gate(execution)
            iter_prefix = (f"{prefix}[{iteration}]" if prefix
                           else f"{flow.name}[{iteration}]")
            for child, child_status in zip(flow.children, status.children):
                yield from self._run_child(child, child_status, scope, ctx,
                                           execution, iter_prefix, span)
            iteration += 1
            status.iterations = iteration

    def _run_foreach(self, flow, status, scope, ctx, execution, prefix,
                     pattern: ForEach, span=None):
        if pattern.items is not None:
            items = evaluate(pattern.items, scope)
            if not isinstance(items, list):
                raise ExecutionError(
                    f"forEach items expression must yield a list, "
                    f"got {type(items).__name__}")
        else:
            collection = render_template(pattern.collection, scope)
            conditions = parse_conditions(
                render_template(pattern.query, scope) if pattern.query else "")
            query = Query(collection=collection, conditions=conditions)
            items = [obj.path for obj in ctx.dgms.query(ctx.user, query)]
        scope.declare(pattern.item_variable, None)
        for index, item in enumerate(items):
            yield from self._gate(execution)
            scope.declare(pattern.item_variable, item)
            iter_prefix = (f"{prefix}[{index}]" if prefix
                           else f"{flow.name}[{index}]")
            for child, child_status in zip(flow.children, status.children):
                yield from self._run_child(child, child_status, scope, ctx,
                                           execution, iter_prefix, span)
            status.iterations = index + 1

    def _run_switch(self, flow, status, scope, ctx, execution, prefix,
                    pattern: SwitchCase, span=None):
        value = evaluate_condition(pattern.expression, scope)
        child = flow.child(value) if isinstance(value, str) else None
        if child is None and pattern.default is not None:
            child = flow.child(pattern.default)
        if child is None:
            return   # no matching case and no default: a no-op (documented)
        index = flow.children.index(child)
        yield from self._run_child(child, status.children[index], scope, ctx,
                                   execution, prefix, span)

    # -- steps ------------------------------------------------------------------

    def _run_step(self, step: Step, status: FlowStatus, parent_scope: Scope,
                  ctx: ExecutionContext, execution: FlowExecution, key: str,
                  parent_span=None):
        yield from self._gate(execution)
        entry = execution.journalled(key)
        if entry is not None:
            # Recovery: this instance already completed before the restart.
            for name, value in entry.effects:
                parent_scope.assign(name, value)
            status.state = ExecutionState.COMPLETED
            if status.started_at is None:
                status.started_at = self.env.now
            status.finished_at = self.env.now
            self._notify("step_replayed", execution, key)
            return
        if status.started_at is None:
            status.started_at = self.env.now
        status.state = ExecutionState.RUNNING
        self._notify("step_started", execution, key,
                     operation=step.operation.name)
        t = self.env.telemetry
        if t is None:
            span = None
        else:
            span = t.tracer.begin(
                "step", parent_span,
                {"key": key, "operation": step.operation.name,
                 "request_id": execution.request_id})
            # Make the step span this process's span context for the
            # step's duration, so synchronous transfers and spawned
            # handler processes (_invoke) parent under it.
            active = self.env._active_process
            prev_tspan = active._tspan
            active._tspan = span
        scope = Scope(parent=parent_scope)
        for variable in step.variables:
            scope.declare(variable.name,
                          render_template(variable.value, parent_scope))
        step_ctx = ctx.for_step(scope, step.requirements)
        try:
            yield from self._run_rule_if_defined(
                step.rule(BEFORE_ENTRY), scope, step_ctx, execution)
            result = yield from self._run_operation_with_fault_handling(
                step, scope, step_ctx, execution)
            if step.operation.assign_to is not None:
                parent_scope.assign(step.operation.assign_to, result)
                step_ctx.effects.append((step.operation.assign_to, result))
            yield from self._run_rule_if_defined(
                step.rule(AFTER_EXIT), scope, step_ctx, execution)
        except FlowCancelled:
            status.state = ExecutionState.CANCELLED
            status.finished_at = self.env.now
            if span is not None:
                active._tspan = prev_tspan
                t.tracer.finish(span, status="cancelled")
            raise
        except Exception as exc:
            status.state = ExecutionState.FAILED
            status.error = str(exc)
            status.finished_at = self.env.now
            self._notify("step_failed", execution, key, error=str(exc),
                         error_type=type(exc).__name__)
            if span is not None:
                active._tspan = prev_tspan
                t.tracer.finish(span, status="error")
            raise
        status.state = ExecutionState.COMPLETED
        status.finished_at = self.env.now
        if span is not None:
            active._tspan = prev_tspan
            t.tracer.finish(span)
            # Raw sample append; buckets fold at export (see Histogram).
            t.dfms_step_duration.samples.append(
                (status.finished_at,
                 status.finished_at - status.started_at))
        execution.record_step(key, step_ctx.effects)
        self._notify("step_completed", execution, key,
                     operation=step.operation.name)

    def _run_operation_with_fault_handling(self, step, scope, step_ctx,
                                           execution):
        attempts = 0
        while True:
            try:
                result = yield from self._invoke(step.operation, scope,
                                                 step_ctx)
                return result
            except FlowCancelled:
                raise
            except Exception as exc:
                decision = self._fault_decision(step, scope, exc)
                if decision is None:
                    raise
                action, params = decision
                if action == "retry":
                    attempts += 1
                    t = self.env.telemetry
                    if t is not None:
                        t.dfms_step_retries.inc()
                    max_attempts = int(params.get("max", 3))
                    if attempts > max_attempts:
                        raise ExecutionError(
                            f"step {step.name!r} failed after "
                            f"{attempts} attempts: {exc}") from exc
                    delay = float(params.get("delay", 0.0))
                    if delay > 0:
                        yield self.env.timeout(delay)
                    continue
                if action == "ignore":
                    return None
                raise   # "abort" or a notification action that ran already

    def _fault_decision(self, step, scope, exc):
        """Consult the step's onError rule. Returns (kind, params) or None.

        The rule's condition is evaluated with ``error`` bound to the
        failure message; the chosen action's operation decides the outcome:
        ``dgl.retry`` / ``dgl.ignore`` / ``dgl.abort``. Any other operation
        is treated as abort (the step still fails after it is noted).
        """
        rule = step.rule(ON_ERROR)
        if rule is None:
            return None
        error_scope = Scope(parent=scope)
        error_scope.declare("error", str(exc))
        try:
            value = evaluate_condition(rule.condition, error_scope)
        except ExpressionError:
            return None
        action = _select_action(rule, value)
        if action is None:
            return None
        operation = action.operation
        if operation.name == "dgl.retry":
            return "retry", operation.parameters
        if operation.name == "dgl.ignore":
            return "ignore", operation.parameters
        return "abort", operation.parameters

    # -- rules -------------------------------------------------------------------

    def _run_rule_if_defined(self, rule: Optional[UserDefinedRule],
                             scope: Scope, ctx: ExecutionContext,
                             execution: FlowExecution):
        if rule is None:
            return
        action = _select_action(rule,
                                evaluate_condition(rule.condition, scope))
        if action is None:
            return
        yield from self._invoke(action.operation, scope, ctx)

    # -- operations -----------------------------------------------------------------

    def _invoke(self, operation: Operation, scope: Scope,
                ctx: ExecutionContext):
        handler = self.registry.get(operation.name)
        params = {name: render_template(value, scope)
                  for name, value in operation.parameters.items()}
        result = handler(ctx, params)
        if OperationRegistry.is_timed(result):
            process = self.env.process(result)
            t = self.env.telemetry
            if t is not None:
                # Timed handlers run as separate kernel processes; hand
                # them the invoking process's span context (the step's
                # span) so transfers they start parent under it.
                process._tspan = self.env._active_process._tspan
            result = yield process
        return result
