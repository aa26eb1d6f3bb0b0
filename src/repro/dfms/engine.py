"""The DGL flow compiler and plan interpreter.

A :class:`~repro.dgl.model.Flow` runs in two stages, the way §2.3 likens
turning abstract execution logic into infrastructure-bound logic to SQL
query compilation:

* **compile, once, at admission** — :meth:`FlowEngine.compile` lowers a
  validated flow into a :class:`FlowPlan` in one walk: every parameter
  template, variable value, rule condition and loop/switch/forEach
  expression compiled to closures (:mod:`repro.dgl.expressions`), each
  operation handler resolved, and per step only the reserved rules it
  has. The same walk is admission's only check of the flow: it raises on
  the first structural problem (:func:`~repro.dgl.schema.check_flow`,
  :func:`~repro.dgl.schema.check_step`) and on nesting past
  :data:`MAX_NESTING_DEPTH`, and collects unknown operations and missing
  required parameters. It also builds the all-PENDING status tree the
  execution reports through;
* **interpret the plan** over the simulation kernel:

  * each Flow opens a variable scope and runs its children under its
    FlowLogic's control pattern (sequential, parallel, while, repeat,
    for-each over a datagrid query, switch-case);
  * each Step renders its operation's parameters against the scope chain
    and calls the resolved handler (timed handlers run as simulation
    processes);
  * the reserved ``beforeEntry`` / ``afterExit`` rules run around flows
    and steps; the reserved ``onError`` rule gives steps fault handling
    (retry / ignore / abort — "fault handling information for the
    processes could also be provided in the execution logic", §2.3);
  * the engine honours pause / resume / cancel at every step boundary and
    journals completed step instances so a checkpointed execution can be
    restarted without redoing work (§2.1: ILM processes "could be
    started, stopped and restarted at any time"). A restored execution
    has its plan rebuilt from its flow before it is adopted.

Observability: every progress notification goes through the
``listeners`` event bus (one emission path shared by
:class:`~repro.dfms.monitoring.ExecutionMonitor` push-watchers and the
telemetry layer), and when a telemetry session is attached to the
environment the engine additionally opens execution → flow → step tracing
spans, propagating span context into the separate simulation processes it
spawns for parallel branches and timed operation handlers.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.errors import (
    DGLValidationError,
    ExecutionError,
    ExpressionError,
    ReproError,
)
from repro.dfms.context import ExecutionContext
from repro.dfms.execution import FlowExecution
from repro.dgl.expressions import (
    Compiled,
    Compiler,
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
    Variable,
    WhileLoop,
)
from repro.dgl.operations import OperationRegistry
from repro.dgl.schema import check_flow, check_step
from repro.grid.query import Query, parse_conditions
from repro.sim.kernel import Environment
from repro.sim.resources import Resource

__all__ = ["FlowEngine", "FlowPlan", "FlowCancelled", "NestingTooDeep",
           "ON_ERROR"]

#: Reserved rule name for step fault handling.
ON_ERROR = "onError"

#: Safety bound on while/repeat loops, so a buggy DGL document cannot hang
#: the simulation. Generous relative to any workload in the experiments.
MAX_LOOP_ITERATIONS = 1_000_000

#: Flow nesting is compiled and interpreted with native recursion (a few
#: Python frames per level), so Python's recursion limit caps practical
#: depth near 200. The compile walk refuses to descend past this.
MAX_NESTING_DEPTH = 150

_PENDING = ExecutionState.PENDING
_RUNNING = ExecutionState.RUNNING
_PAUSED = ExecutionState.PAUSED
_COMPLETED = ExecutionState.COMPLETED


class FlowCancelled(ReproError):
    """Internal control-flow signal: the execution was cancelled."""


class NestingTooDeep(DGLValidationError):
    """A flow nests more than :data:`MAX_NESTING_DEPTH` levels deep."""

    def __init__(self) -> None:
        super().__init__(
            f"flow nests more than {MAX_NESTING_DEPTH} levels deep; "
            f"the engine supports at most {MAX_NESTING_DEPTH}")


# --------------------------------------------------------------------------
# The plan
# --------------------------------------------------------------------------

class _Operation:
    """An operation with its handler resolved and its parameters split
    into their document values and the compiled templates among them."""

    __slots__ = ("name", "handler", "params", "templates")

    def __init__(self, name: str, handler, params: dict,
                 templates: Tuple[Tuple[str, Compiled], ...]) -> None:
        self.name = name
        #: None if unregistered when compiled; resolved again when called.
        self.handler = handler
        self.params = params
        self.templates = templates


class _Rule:
    """A user-defined rule: its compiled condition and named actions."""

    __slots__ = ("condition", "actions")

    def __init__(self, condition: Compiled,
                 actions: Tuple[Tuple[str, _Operation], ...]) -> None:
        self.condition = condition
        self.actions = actions

    def select(self, value) -> Optional[_Operation]:
        """The action a condition ``value`` picks, or None.

        ``True`` picks the first action; a string picks the action of that
        name; anything else picks none.
        """
        if value is True:
            return self.actions[0][1]
        if isinstance(value, str):
            for name, operation in self.actions:
                if name == value:
                    return operation
        return None


class _Step:
    """A step's plan: operation, variables, and the reserved rules it has."""

    __slots__ = ("name", "operation", "variables", "requirements",
                 "assign_to", "before", "after", "on_error")
    is_step = True

    def __init__(self, name, operation, variables, requirements, assign_to,
                 rules) -> None:
        self.name = name
        self.operation = operation
        self.variables = variables
        self.requirements = requirements
        self.assign_to = assign_to
        self.before = rules.get(BEFORE_ENTRY)
        self.after = rules.get(AFTER_EXIT)
        self.on_error = rules.get(ON_ERROR)


class _Flow:
    """A flow's plan: variables, reserved rules, control pattern, children.

    ``control`` is the pattern's compiled expression: the while
    condition, the repeat count (or a plain count), the forEach items
    expression, or the switch expression. ``index`` maps child names to
    positions, for switch.
    """

    __slots__ = ("name", "variables", "before", "after", "children",
                 "pattern", "limit", "control", "collection", "query",
                 "item_variable", "default", "index")
    is_step = False

    def __init__(self, name, variables, rules, children) -> None:
        self.name = name
        self.variables = variables
        self.before = rules.get(BEFORE_ENTRY)
        self.after = rules.get(AFTER_EXIT)
        self.children = children
        self.pattern = Sequential
        self.limit = self.control = self.collection = self.query = None
        self.item_variable = self.default = self.index = None


class FlowPlan:
    """A flow compiled for the engine, plus what admission checks.

    ``status`` is the all-PENDING status tree, one node per flow and
    step, that the execution running this plan adopts. ``missing`` lists
    unregistered operation names used by steps or rule actions (sorted),
    ``problems`` the required-parameter violations of registered ones,
    in document order.
    """

    __slots__ = ("root", "status", "missing", "problems")

    def __init__(self, root: _Flow, status: FlowStatus, missing: List[str],
                 problems: List[str]) -> None:
        self.root = root
        self.status = status
        self.missing = missing
        self.problems = problems


_NO_RULES: Mapping[str, _Rule] = MappingProxyType({})


def _is_template(value) -> bool:
    """Whether ``value`` may render to something other than itself."""
    return isinstance(value, str) and "${" in value


class _Lowering:
    """One walk over a flow: checks it, builds its plan and status tree
    and collects diagnostics.

    Structural rules are checked on entry to each flow and step, in
    pre-order, so the first problem raised is the one
    :func:`~repro.dgl.schema.validate_flow` would raise.
    """

    def __init__(self, registry: OperationRegistry,
                 compiler: Compiler) -> None:
        self.registry = registry
        self.compiler = compiler
        self.missing: Set[str] = set()
        self.problems: List[str] = []

    def variables(self, variables: List[Variable]) -> tuple:
        """Declarations lowered to ``(name, value, compiled)``: ``compiled``
        is the value's compiled template, or None when the value renders
        to itself."""
        template = self.compiler.template
        return tuple([
            (variable.name, variable.value, template(variable.value)
             if _is_template(variable.value) else None)
            for variable in variables])

    def operation(self, operation: Operation, where: str) -> _Operation:
        handler = self.registry.resolve(operation.name)
        if handler is None:
            self.missing.add(operation.name)
        else:
            problem = self.registry.parameter_problem(where, operation)
            if problem is not None:
                self.problems.append(problem)
        template = self.compiler.template
        return _Operation(operation.name, handler, dict(operation.parameters),
                          tuple([(name, template(value)) for name, value
                                 in operation.parameters.items()
                                 if _is_template(value)]))

    def rules(self, rules: List[UserDefinedRule],
              where: str) -> Mapping[str, _Rule]:
        if not rules:
            return _NO_RULES
        lowered: Dict[str, _Rule] = {}
        for rule in rules:
            at = f"{where} rule {rule.name!r}"
            actions = tuple([(action.name,
                              self.operation(action.operation, at))
                             for action in rule.actions])
            lowered.setdefault(rule.name, _Rule(
                self.compiler.condition(rule.condition), actions))
        return lowered

    def step(self, step: Step, path: str) -> Tuple[_Step, FlowStatus]:
        where = f"step {path!r}"
        check_step(step, where)
        operation = self.operation(step.operation, where)
        return (_Step(step.name, operation, self.variables(step.variables),
                      step.requirements, step.operation.assign_to,
                      self.rules(step.rules, where)),
                FlowStatus(name=step.name, state=_PENDING))

    def flow(self, flow: Flow, path: str,
             level: int) -> Tuple[_Flow, FlowStatus]:
        """The plan and status tree of ``flow``, which sits ``level``
        flows deep."""
        if level > MAX_NESTING_DEPTH:
            raise NestingTooDeep()
        where = f"flow {path!r}"
        check_flow(flow, where)
        rules = self.rules(flow.logic.rules, where)
        children = []
        statuses = []
        for child in flow.children:
            child_path = f"{path}/{child.name}"
            if isinstance(child, Step):
                lowered, status = self.step(child, child_path)
            else:
                lowered, status = self.flow(child, child_path, level + 1)
            children.append(lowered)
            statuses.append(status)
        node = _Flow(flow.name, self.variables(flow.variables), rules,
                     tuple(children))
        self.pattern(node, flow)
        return node, FlowStatus(name=flow.name, state=_PENDING,
                                children=statuses)

    def pattern(self, node: _Flow, flow: Flow) -> None:
        pattern = flow.logic.pattern
        compiler = self.compiler
        node.pattern = type(pattern)
        if isinstance(pattern, Parallel):
            node.limit = pattern.max_concurrent
        elif isinstance(pattern, WhileLoop):
            node.control = compiler.condition(pattern.condition)
        elif isinstance(pattern, Repeat):
            count = pattern.count
            if isinstance(count, str):
                count = (compiler.template(count) if "${" in count
                         else compiler.expression(count))
            node.control = count
        elif isinstance(pattern, ForEach):
            node.item_variable = pattern.item_variable
            if pattern.items is not None:
                node.control = compiler.expression(pattern.items)
            else:
                node.collection = compiler.template(pattern.collection)
                if pattern.query:
                    node.query = compiler.template(pattern.query)
        elif isinstance(pattern, SwitchCase):
            node.control = compiler.condition(pattern.expression)
            node.default = pattern.default
            node.index = {child.name: index
                          for index, child in enumerate(flow.children)}


class FlowEngine:
    """Compiles flows into plans and interprets them for a DfMS server."""

    def __init__(self, env: Environment, registry: OperationRegistry) -> None:
        self.env = env
        self.registry = registry
        #: Observers of engine progress; each is called as
        #: listener(kind, execution, instance_key, time, detail_dict).
        self.listeners: List[Callable] = []
        # Expression closures shared by every plan this engine compiles.
        self._compiler = Compiler()

    # -- public entry -----------------------------------------------------

    def compile(self, flow: Flow) -> FlowPlan:
        """Check ``flow`` and lower it into a plan, in one walk.

        Raises :class:`~repro.errors.DGLValidationError` on the first
        structural problem, and :class:`NestingTooDeep` (a subclass) on
        reaching a flow nested past :data:`MAX_NESTING_DEPTH`; unknown
        operations and missing parameters are collected on the plan.
        """
        lowering = _Lowering(self.registry, self._compiler)
        root, status = lowering.flow(flow, flow.name, 1)
        return FlowPlan(root, status, sorted(lowering.missing),
                        lowering.problems)

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
        """Honour pause/cancel requests at a step boundary.

        Callers enter it only when a request or a paused state is
        pending (see :func:`_held`).
        """
        if execution.cancel_requested:
            raise FlowCancelled(execution.request_id)
        while execution.pause_requested:
            if execution.state is not _PAUSED:
                execution.state = _PAUSED
                self._notify("paused", execution, "")
            yield execution.wait_for_resume()
            if execution.cancel_requested:
                raise FlowCancelled(execution.request_id)
        if execution.state is _PAUSED:
            execution.state = _RUNNING
            self._notify("resumed", execution, "")

    # -- root ------------------------------------------------------------------

    def _run_root(self, execution: FlowExecution, ctx: ExecutionContext):
        execution.state = _RUNNING
        self._notify("execution_started", execution, "")
        t = self.env.telemetry
        # Spans are parented explicitly: each _run_* level holds its own
        # span in a local and passes it down as the children's parent
        # (Tracer.begin/finish).
        span = None if t is None else t.tracer.begin(
            "execution", None,
            {"request_id": execution.request_id,
             "flow": execution.flow.name})
        try:
            yield from self._run_flow(execution.plan.root, execution.status,
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
            execution.finish(_COMPLETED)
            self._notify("execution_completed", execution, "")
        if span is not None:
            t.tracer.finish(
                span, status="ok" if execution.state is
                _COMPLETED else execution.state.value)
        execution.plan = None   # only a running execution needs its plan
        return execution

    # -- flows ------------------------------------------------------------------

    def _run_flow(self, flow: _Flow, status: FlowStatus, parent_scope: Scope,
                  ctx: ExecutionContext, execution: FlowExecution,
                  prefix: str, parent_span=None):
        if _held(execution):
            yield from self._gate(execution)
        if status.started_at is None:
            status.started_at = self.env.now
        status.state = _RUNNING
        key = prefix or flow.name
        self._notify("flow_started", execution, key)
        t = self.env.telemetry
        span = None if t is None else t.tracer.begin(
            "flow", parent_span,
            {"key": key, "request_id": execution.request_id})
        scope = _open_scope(flow.variables, parent_scope)
        try:
            if flow.before is not None:
                yield from self._run_rule(flow.before, scope, ctx)
            yield from self._dispatch_pattern(flow, status, scope, ctx,
                                              execution, prefix, span)
            if flow.after is not None:
                yield from self._run_rule(flow.after, scope, ctx)
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
            self._notify("flow_failed", execution, key,
                         error=str(exc), error_type=type(exc).__name__)
            if span is not None:
                t.tracer.finish(span, status="error")
            raise
        status.state = _COMPLETED
        status.finished_at = self.env.now
        if span is not None:
            t.tracer.finish(span)
        self._notify("flow_completed", execution, key)

    def _dispatch_pattern(self, flow: _Flow, status, scope, ctx, execution,
                          prefix, span=None):
        """The generator that runs ``flow``'s control pattern."""
        pattern = flow.pattern
        if pattern is Sequential:
            return self._run_children_once(flow, status, scope, ctx,
                                           execution, prefix, span)
        if pattern is Parallel:
            return self._run_parallel(flow, status, scope, ctx, execution,
                                      prefix, span)
        if pattern is WhileLoop:
            condition = flow.control
            return self._run_loop(
                flow, status, scope, ctx, execution, prefix, span,
                should_continue=lambda i: bool(
                    evaluate_condition(condition, scope)))
        if pattern is Repeat:
            count = flow.control
            if isinstance(count, Compiled):
                count = int(render_template(count, scope))
            if count < 0:
                raise ExecutionError(f"repeat count is negative: {count}")
            return self._run_loop(
                flow, status, scope, ctx, execution, prefix, span,
                should_continue=lambda i: i < count)
        if pattern is ForEach:
            return self._run_foreach(flow, status, scope, ctx, execution,
                                     prefix, span)
        if pattern is SwitchCase:
            return self._run_switch(flow, status, scope, ctx, execution,
                                    prefix, span)
        raise DGLValidationError(   # pragma: no cover - FlowLogic validates
            f"unknown control pattern {pattern.__name__}")

    def _run_child(self, child, child_status, scope, ctx, execution, prefix,
                   span=None):
        """The generator that runs one child, keyed under ``prefix``."""
        key = f"{prefix}/{child.name}" if prefix else child.name
        run = self._run_step if child.is_step else self._run_flow
        return run(child, child_status, scope, ctx, execution, key, span)

    def _run_children_once(self, flow, status, scope, ctx, execution, prefix,
                           span=None):
        for child, child_status in zip(flow.children, status.children):
            yield from self._run_child(child, child_status, scope, ctx,
                                       execution, prefix, span)

    def _run_parallel(self, flow, status, scope, ctx, execution, prefix,
                      span=None):
        limiter: Optional[Resource] = None
        if flow.limit:
            limiter = Resource(self.env, capacity=flow.limit)

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
            if _held(execution):
                yield from self._gate(execution)
            iter_prefix = (f"{prefix}[{iteration}]" if prefix
                           else f"{flow.name}[{iteration}]")
            for child, child_status in zip(flow.children, status.children):
                yield from self._run_child(child, child_status, scope, ctx,
                                           execution, iter_prefix, span)
            iteration += 1
            status.iterations = iteration

    def _run_foreach(self, flow, status, scope, ctx, execution, prefix,
                     span=None):
        if flow.control is not None:
            items = evaluate(flow.control, scope)
            if not isinstance(items, list):
                raise ExecutionError(
                    f"forEach items expression must yield a list, "
                    f"got {type(items).__name__}")
        else:
            collection = render_template(flow.collection, scope)
            conditions = parse_conditions(
                render_template(flow.query, scope) if flow.query else "")
            query = Query(collection=collection, conditions=conditions)
            items = [obj.path for obj in ctx.dgms.query(ctx.user, query)]
        scope.declare(flow.item_variable, None)
        for index, item in enumerate(items):
            if _held(execution):
                yield from self._gate(execution)
            scope.declare(flow.item_variable, item)
            iter_prefix = (f"{prefix}[{index}]" if prefix
                           else f"{flow.name}[{index}]")
            for child, child_status in zip(flow.children, status.children):
                yield from self._run_child(child, child_status, scope, ctx,
                                           execution, iter_prefix, span)
            status.iterations = index + 1

    def _run_switch(self, flow, status, scope, ctx, execution, prefix,
                    span=None):
        value = evaluate_condition(flow.control, scope)
        index = flow.index.get(value) if isinstance(value, str) else None
        if index is None and flow.default is not None:
            index = flow.index.get(flow.default)
        if index is None:
            return   # no matching case and no default: a no-op (documented)
        yield from self._run_child(flow.children[index],
                                   status.children[index], scope, ctx,
                                   execution, prefix, span)

    # -- steps ------------------------------------------------------------------

    def _run_step(self, step: _Step, status: FlowStatus, parent_scope: Scope,
                  ctx: ExecutionContext, execution: FlowExecution, key: str,
                  parent_span=None):
        if _held(execution):
            yield from self._gate(execution)
        env = self.env
        if execution.replaying:
            entry = execution.journalled(key)
            if entry is not None:
                # Recovery: this instance already completed before the
                # restart.
                for name, value in entry.effects:
                    parent_scope.assign(name, value)
                status.state = _COMPLETED
                if status.started_at is None:
                    status.started_at = env.now
                status.finished_at = env.now
                self._notify("step_replayed", execution, key)
                return
        if status.started_at is None:
            status.started_at = env.now
        status.state = _RUNNING
        operation = step.operation
        self._notify("step_started", execution, key,
                     operation=operation.name)
        t = env.telemetry
        if t is None:
            span = None
        else:
            span = t.tracer.begin(
                "step", parent_span,
                {"key": key, "operation": operation.name,
                 "request_id": execution.request_id})
            # Make the step span this process's span context for the
            # step's duration, so synchronous transfers and spawned
            # handler processes (_spawn) parent under it.
            active = env._active_process
            prev_tspan = active._tspan
            active._tspan = span
        scope = _open_scope(step.variables, parent_scope)
        step_ctx = ctx.for_step(scope, step.requirements)
        try:
            if step.before is not None:
                yield from self._run_rule(step.before, scope, step_ctx)
            if step.on_error is None:
                result = self._call(operation, scope, step_ctx)
                if OperationRegistry.is_timed(result):
                    result = yield self._spawn(result)
            else:
                result = yield from self._run_guarded(step, scope, step_ctx)
            if step.assign_to is not None:
                parent_scope.assign(step.assign_to, result)
                step_ctx.effects.append((step.assign_to, result))
            if step.after is not None:
                yield from self._run_rule(step.after, scope, step_ctx)
        except FlowCancelled:
            status.state = ExecutionState.CANCELLED
            status.finished_at = env.now
            if span is not None:
                active._tspan = prev_tspan
                t.tracer.finish(span, status="cancelled")
            raise
        except Exception as exc:
            status.state = ExecutionState.FAILED
            status.error = str(exc)
            status.finished_at = env.now
            self._notify("step_failed", execution, key, error=str(exc),
                         error_type=type(exc).__name__)
            if span is not None:
                active._tspan = prev_tspan
                t.tracer.finish(span, status="error")
            raise
        status.state = _COMPLETED
        status.finished_at = env.now
        if span is not None:
            active._tspan = prev_tspan
            t.tracer.finish(span)
            # Raw sample append; buckets fold at export (see Histogram).
            t.dfms_step_duration.samples.append(
                (status.finished_at,
                 status.finished_at - status.started_at))
        execution.record_step(key, step_ctx.effects)
        self._notify("step_completed", execution, key,
                     operation=operation.name)

    def _run_guarded(self, step: _Step, scope: Scope,
                     step_ctx: ExecutionContext):
        """Run the step's operation under its onError rule."""
        attempts = 0
        while True:
            try:
                result = self._call(step.operation, scope, step_ctx)
                if OperationRegistry.is_timed(result):
                    result = yield self._spawn(result)
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

    def _fault_decision(self, step: _Step, scope: Scope, exc: Exception):
        """Consult the step's onError rule. Returns (kind, params) or None.

        The rule's condition is evaluated with ``error`` bound to the
        failure message; the chosen action's operation decides the outcome:
        ``dgl.retry`` / ``dgl.ignore`` / ``dgl.abort``. Any other operation
        is treated as abort (the step still fails after it is noted).
        A retry's parameters (``max``, ``delay``) are rendered against the
        same scope, so they may be ``${...}`` templates.
        """
        rule = step.on_error
        error_scope = Scope(parent=scope)
        error_scope.declare("error", str(exc))
        try:
            value = evaluate_condition(rule.condition, error_scope)
        except ExpressionError:
            return None
        operation = rule.select(value)
        if operation is None:
            return None
        if operation.name == "dgl.retry":
            return "retry", _render(operation, error_scope)
        if operation.name == "dgl.ignore":
            return "ignore", None
        return "abort", None

    # -- rules -------------------------------------------------------------------

    def _run_rule(self, rule: _Rule, scope: Scope, ctx: ExecutionContext):
        operation = rule.select(evaluate_condition(rule.condition, scope))
        if operation is None:
            return
        result = self._call(operation, scope, ctx)
        if OperationRegistry.is_timed(result):
            yield self._spawn(result)

    # -- operations -----------------------------------------------------------------

    def _call(self, operation: _Operation, scope: Scope,
              ctx: ExecutionContext):
        """Call the operation's handler with freshly rendered parameters.

        Returns the handler's result; a timed handler's is a generator,
        which the caller hands to :meth:`_spawn` and waits on.
        """
        handler = operation.handler or self.registry.get(operation.name)
        return handler(ctx, _render(operation, scope))

    def _spawn(self, generator):
        """Run a timed handler's generator as its own kernel process."""
        env = self.env
        process = env.process(generator)
        if env.telemetry is not None:
            # Timed handlers run as separate kernel processes; hand them
            # the invoking process's span context (the step's span) so
            # transfers they start parent under it.
            process._tspan = env._active_process._tspan
        return process


def _held(execution: FlowExecution) -> bool:
    """True when the control gate has work: a pause or cancel request,
    or a paused state to leave."""
    return (execution.cancel_requested or execution.pause_requested
            or execution.state is _PAUSED)


def _open_scope(variables: tuple, parent: Scope) -> Scope:
    """A child scope of ``parent`` with ``variables`` declared in it,
    their values rendered against ``parent``."""
    scope = Scope(parent=parent)
    for name, value, compiled in variables:
        scope.declare(name, value if compiled is None
                      else render_template(compiled, parent))
    return scope


def _render(operation: _Operation, scope: Scope) -> dict:
    """A fresh parameter dict, templates rendered against ``scope``."""
    params = dict(operation.params)
    for name, compiled in operation.templates:
        params[name] = render_template(compiled, scope)
    return params
