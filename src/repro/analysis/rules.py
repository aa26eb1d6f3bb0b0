"""The shipped rule pack: the determinism contract, rule by rule.

Each class encodes one convention the reproduction's bit-identity
guarantee rests on (see ``docs/simulation-model.md`` and
``docs/static-analysis.md``). Rules are instantiated once per run with
the resolved :class:`~repro.analysis.config.LintConfig` and must stay
stateless across files — all per-file state lives on the
:class:`~repro.analysis.core.LintContext`.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import List, Optional

from repro.analysis.config import LintConfig
from repro.analysis.core import LintContext, Rule, split_tokens

__all__ = ["RULES", "all_rules", "WallClock", "UnseededRandomness",
           "UnorderedIteration", "FloatEquality", "RetryContract",
           "LabelCardinality", "SubstreamLedger", "SharedModuleState"]


# --------------------------------------------------------------------------
# DGF001 — wall clock
# --------------------------------------------------------------------------


class WallClock(Rule):
    """Flag wall-clock reads and sleeps inside simulation code."""

    code = "DGF001"
    name = "no-wall-clock"
    rationale = (
        "Simulated processes live on the kernel's virtual clock "
        "(env.now, env.timeout). A wall-clock read or sleep couples the "
        "run to the host machine, so the same inputs and seeds stop "
        "producing bit-identical trajectories and every replay-based "
        "guarantee (provenance, run_signature, checkpoint restart) "
        "silently breaks.")

    _TIME_FUNCS = frozenset({
        "time", "time_ns", "monotonic", "monotonic_ns",
        "perf_counter", "perf_counter_ns", "process_time",
        "process_time_ns", "sleep",
    })
    _DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        """Flag resolved calls into time/datetime wall-clock APIs."""
        target = ctx.resolve_call_target(node.func)
        if target is None:
            return
        module, attr = target
        if module == "time" and attr in self._TIME_FUNCS:
            ctx.report(self, node,
                       f"wall-clock call time.{attr}(): sim code must use "
                       "env.now / env.timeout so runs stay replayable")
        elif (module in ("datetime", "datetime.datetime", "datetime.date")
              and attr in self._DATETIME_FUNCS):
            ctx.report(self, node,
                       f"wall-clock call {module.split('.')[-1]}.{attr}(): "
                       "derive timestamps from env.now, never the host "
                       "clock")


# --------------------------------------------------------------------------
# DGF002 — unseeded randomness
# --------------------------------------------------------------------------


class UnseededRandomness(Rule):
    """Flag the global ``random`` module, bare ``Random()``, and numpy RNG."""

    code = "DGF002"
    name = "no-unseeded-randomness"
    rationale = (
        "Every stochastic component draws from a named RandomStreams "
        "substream so that changing how much randomness one consumer "
        "uses never perturbs another. The process-global random module "
        "(shared, import-order-sensitive state), an ad-hoc Random() with "
        "a made-up seed, or numpy's global generator all break that "
        "isolation and with it seed-for-seed reproducibility.")

    _MODULE_FUNCS = frozenset({
        "random", "randint", "uniform", "choice", "choices", "shuffle",
        "sample", "randrange", "getrandbits", "seed", "gauss",
        "normalvariate", "expovariate", "lognormvariate", "betavariate",
        "triangular", "vonmisesvariate", "paretovariate",
        "weibullvariate", "binomialvariate", "randbytes",
    })

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        """Flag global-random, bare-Random, and numpy.random calls."""
        target = ctx.resolve_call_target(node.func)
        if target is None:
            return
        module, attr = target
        if module == "random":
            if attr in self._MODULE_FUNCS:
                ctx.report(self, node,
                           f"global random.{attr}(): draw from a named "
                           "RandomStreams substream instead")
            elif attr in ("Random", "SystemRandom"):
                ctx.report(self, node,
                           f"bare random.{attr}() construction: obtain "
                           "streams via RandomStreams.stream(name) so "
                           "substreams stay independent under one seed")
        elif module == "numpy.random" or module.startswith("numpy.random."):
            ctx.report(self, node,
                       f"numpy.random.{attr}(): numpy's global generator "
                       "is process state; seed a dedicated generator from "
                       "a RandomStreams substream")


# --------------------------------------------------------------------------
# DGF003 — iteration order over unordered collections
# --------------------------------------------------------------------------


class UnorderedIteration(Rule):
    """Flag effectful loops whose iteration order a set determines."""

    code = "DGF003"
    name = "no-unordered-effects"
    rationale = (
        "set/frozenset iteration order depends on insertion history and "
        "hash randomization of the values involved. When such a loop "
        "schedules kernel events, emits telemetry, or mutates shared "
        "state, the nondeterministic order leaks into the event heap and "
        "two identically-seeded runs diverge. Iterate a list, a dict "
        "used as an ordered set, or sorted(...) instead.")

    _EFFECT_METHODS = frozenset({
        # kernel scheduling
        "process", "timeout", "event", "schedule", "succeed", "fail",
        "interrupt", "run_process", "reschedule", "cancel",
        # telemetry
        "emit", "inc", "dec", "observe", "record", "labels", "set_value",
        # shared-state mutation / dispatch
        "append", "extend", "add", "remove", "discard", "pop", "push",
        "heappush", "submit", "put", "send", "note", "register",
    })

    def __init__(self, config: LintConfig) -> None:
        super().__init__(config)
        self._effects = self._EFFECT_METHODS | frozenset(
            config.effect_methods)

    def visit_For(self, node: ast.For, ctx: LintContext) -> None:
        """Flag for-loops over sets whose body has effects."""
        if not ctx.is_unordered(node.iter):
            return
        effect = self._first_effect(node, ctx)
        if effect is None:
            return
        ctx.report(self, node,
                   "iterating an unordered set with an effectful body "
                   f"({effect}): order leaks into shared state — iterate "
                   "a list/dict or sorted(...)")

    #: Commutative set mutations: inserting into an unordered target in
    #: any order yields the same value, so no order can leak.
    _COMMUTATIVE = frozenset({"add", "discard", "remove", "update"})

    def _first_effect(self, loop: ast.For,
                      ctx: LintContext) -> Optional[str]:
        """A human-readable description of the first effect in the body."""
        assigned_in_loop = {
            target.id
            for stmt in ast.walk(loop)
            if isinstance(stmt, ast.Assign)
            for target in stmt.targets if isinstance(target, ast.Name)
        }
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
                    return "yields to the kernel"
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in self._effects):
                    receiver = node.func.value
                    # Calls on names created inside the loop body are
                    # loop-local accumulation, not shared-state effects.
                    if (isinstance(receiver, ast.Name)
                            and receiver.id in assigned_in_loop):
                        continue
                    # Commutative inserts into another unordered
                    # collection cannot leak iteration order.
                    if (node.func.attr in self._COMMUTATIVE
                            and ctx.is_unordered(receiver)):
                        continue
                    return f"calls .{node.func.attr}()"
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    for target in targets:
                        if isinstance(target, (ast.Attribute, ast.Subscript)):
                            base = target.value
                            if (isinstance(base, ast.Name)
                                    and base.id in assigned_in_loop):
                                continue
                            return "writes through to outer state"
        return None


# --------------------------------------------------------------------------
# DGF004 — float equality on time/rate quantities
# --------------------------------------------------------------------------


class FloatEquality(Rule):
    """Flag ``==`` / ``!=`` between time- or rate-derived floats."""

    code = "DGF004"
    name = "no-float-time-equality"
    rationale = (
        "Simulation times and transfer rates are accumulated floats; "
        "docs/simulation-model.md's tolerance rule says comparisons must "
        "allow a few ulps of clock rounding (see "
        "TransferService._finish_tolerance). Exact ==/!= on such values "
        "is true on one machine and false on another, which is exactly "
        "the drift the bit-identity contract exists to prevent. Compare "
        "with an explicit tolerance, or suppress with a reason when the "
        "comparison is an intentional exact-identity check.")

    _TIME_TOKENS = frozenset({
        "time", "now", "rate", "finish", "when", "deadline", "latency",
        "duration", "makespan", "bandwidth", "timestamp", "elapsed",
    })

    def __init__(self, config: LintConfig) -> None:
        super().__init__(config)
        self._tokens = self._TIME_TOKENS | frozenset(
            token.lower() for token in config.time_tokens)

    def visit_Compare(self, node: ast.Compare, ctx: LintContext) -> None:
        """Flag ==/!= whose operands look time- or rate-derived."""
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        operands = [node.left, *node.comparators]
        # Comparisons against strings, None, or bools are identity /
        # sentinel checks, never float arithmetic.
        for operand in operands:
            if (isinstance(operand, ast.Constant)
                    and isinstance(operand.value, (str, bool, bytes))
                    or isinstance(operand, ast.Constant)
                    and operand.value is None):
                return
        suspect = next((name for operand in operands
                        for name in self._time_names(operand)), None)
        if suspect is not None:
            ctx.report(self, node,
                       f"exact float comparison on {suspect!r}: time/rate "
                       "values need the tolerance rule (or a reasoned "
                       "noqa for intentional identity checks)")

    def _time_names(self, node: ast.AST) -> List[str]:
        names: List[str] = []
        for sub in ast.walk(node):
            identifier = None
            if isinstance(sub, ast.Name):
                identifier = sub.id
            elif isinstance(sub, ast.Attribute):
                identifier = sub.attr
            if identifier and (split_tokens(identifier) & self._tokens):
                names.append(identifier)
        return names


# --------------------------------------------------------------------------
# DGF005 — retry-contract hygiene
# --------------------------------------------------------------------------


class RetryContract(Rule):
    """Keep the Retryable hierarchy and recovery dispatch honest."""

    code = "DGF005"
    name = "retry-contract"
    rationale = (
        "Recovery dispatches strictly on the Retryable marker type — "
        "never on message strings. A transient-sounding error class "
        "outside that hierarchy silently becomes fatal (no retry, no "
        "failover, no restart); and a bare `except Exception` inside a "
        "dispatch path drags logic errors into the retry loop, turning "
        "real bugs into infinite backoff. The whitelist below is audited "
        "against repro.errors by tests/test_retryable_audit.py.")

    _TRANSIENT_TOKENS = ("offline", "outage", "interrupted", "unavailable",
                         "timeout", "transient", "flaky", "throttled",
                         "congested", "degraded", "busy")
    # Suffixes that mark a name as exception-like. Deliberately narrow:
    # a transient-sounding name alone (Timeout, Outage) is not enough —
    # the sim kernel's Timeout is an *event*, a FaultSchedule's Outage
    # is a *record* — it must also read as an error or derive from one.
    _EXCEPTIONISH = ("error", "exception", "failure", "fault")

    def __init__(self, config: LintConfig) -> None:
        super().__init__(config)
        self._retryable = frozenset(config.retryable) | {"Retryable"}
        self._dispatch_paths = tuple(config.dispatch_paths)

    def _in_dispatch_path(self, ctx: LintContext) -> bool:
        return any(fnmatch(ctx.path, pattern)
                   for pattern in self._dispatch_paths)

    @staticmethod
    def _base_names(node: ast.ClassDef) -> List[str]:
        names = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                names.append(base.id)
            elif isinstance(base, ast.Attribute):
                names.append(base.attr)
        return names

    def _looks_transient(self, name: str) -> bool:
        lowered = name.lower()
        return any(token in lowered for token in self._TRANSIENT_TOKENS)

    def _looks_exceptionish(self, name: str) -> bool:
        lowered = name.lower()
        return any(lowered.endswith(suffix) for suffix in self._EXCEPTIONISH)

    def visit_ClassDef(self, node: ast.ClassDef, ctx: LintContext) -> None:
        """Flag transient-sounding error classes outside the hierarchy."""
        if not self._looks_transient(node.name):
            return
        bases = self._base_names(node)
        exception_like = (
            self._looks_exceptionish(node.name)
            or any(self._looks_exceptionish(base) or base in self._retryable
                   for base in bases))
        if not exception_like or not bases:
            return
        if not any(base in self._retryable for base in bases):
            ctx.report(self, node,
                       f"class {node.name} sounds transient but no base is "
                       "in the Retryable hierarchy "
                       f"({', '.join(sorted(self._retryable))}): recovery "
                       "will treat it as fatal")

    def visit_Raise(self, node: ast.Raise, ctx: LintContext) -> None:
        """Flag raises of transient-sounding non-Retryable errors."""
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        name = None
        if isinstance(exc, ast.Name):
            name = exc.id
        elif isinstance(exc, ast.Attribute):
            name = exc.attr
        if name is None or name in self._retryable:
            return
        if self._looks_transient(name) and self._looks_exceptionish(name):
            ctx.report(self, node,
                       f"raising {name}, which sounds transient but is not "
                       "a known Retryable type: recovery cannot dispatch "
                       "on it")

    def visit_ExceptHandler(self, node: ast.ExceptHandler,
                            ctx: LintContext) -> None:
        """Flag broad catches inside recovery dispatch paths."""
        if not self._in_dispatch_path(ctx):
            return
        names = []
        handler_type = node.type
        if handler_type is None:
            names.append("<bare except>")
        else:
            elements = (handler_type.elts
                        if isinstance(handler_type, ast.Tuple)
                        else [handler_type])
            for element in elements:
                if isinstance(element, ast.Name):
                    names.append(element.id)
        broad = [name for name in names
                 if name in ("Exception", "BaseException", "<bare except>")]
        if broad:
            ctx.report(self, node,
                       f"catching {broad[0]} in a recovery dispatch path: "
                       "dispatch must be by Retryable type only, or logic "
                       "errors end up inside the retry loop")


# --------------------------------------------------------------------------
# DGF006 — telemetry label cardinality
# --------------------------------------------------------------------------


class LabelCardinality(Rule):
    """Flag metric labels whose values are unbounded identifiers."""

    code = "DGF006"
    name = "bounded-metric-labels"
    rationale = (
        "Every distinct label value materializes a new metric series "
        "that lives for the rest of the run. Keying a series on a raw "
        "namespace path, GUID, or URL means series count grows with the "
        "object population — exports balloon, and cross-run comparisons "
        "stop lining up. Put unbounded identifiers in the event log "
        "(log.emit) and keep metric labels to small closed enums.")

    _UNBOUNDED = frozenset({"path", "guid", "oid", "uuid", "url", "uri",
                            "filename", "object"})

    def __init__(self, config: LintConfig) -> None:
        super().__init__(config)
        self._allowed = frozenset(config.allowed_labels)

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        """Flag .labels() keywords carrying unbounded identifiers."""
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "labels"):
            return
        for keyword in node.keywords:
            if keyword.arg is None or keyword.arg in self._allowed:
                continue
            offender = self._unbounded_reason(keyword.arg, keyword.value)
            if offender is not None:
                ctx.report(self, node,
                           f"metric label {keyword.arg!r} {offender}: "
                           "unbounded cardinality — move it to log.emit() "
                           "or label with a closed enum")

    def _unbounded_reason(self, arg: str, value: ast.AST) -> Optional[str]:
        if split_tokens(arg) & self._UNBOUNDED:
            return "is named like a raw identifier"
        for sub in ast.walk(value):
            identifier = None
            if isinstance(sub, ast.Name):
                identifier = sub.id
            elif isinstance(sub, ast.Attribute):
                identifier = sub.attr
            if (identifier is not None and identifier not in self._allowed
                    and split_tokens(identifier) & self._UNBOUNDED):
                return f"is derived from {identifier!r}"
        return None


# --------------------------------------------------------------------------
# DGF007 — whole-program substream ledger
# --------------------------------------------------------------------------


def _module_of(path: str) -> str:
    """Dotted module name for a source path (best-effort, src-layout).

    ``src/repro/faults/recovery.py`` -> ``repro.faults.recovery``. Used
    to join ``from m import CONST`` references with the module that
    defines ``CONST``, so the ledger resolves stream-name constants
    across files.
    """
    parts = path.replace("\\", "/").split("/")
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class SubstreamLedger(Rule):
    """Cross-file ledger of ``RandomStreams.stream(name)`` draw sites.

    A program-scope rule: ``visit_*`` hooks accumulate every draw site
    and every module-level string constant across the shared-rule file
    loop; :meth:`finalize` resolves names (literals, constants,
    cross-file constant imports, f-string patterns) and flags each
    stream name drawn from more than one subsystem scope.
    """

    code = "DGF007"
    name = "substream-ledger"
    rationale = (
        "A named substream is one consumer's private randomness: that "
        "isolation is what lets one component change how much it draws "
        "without perturbing any other. When two subsystems (or two "
        "classes) draw the same stream name, they either share one "
        "Random — so their draw *interleaving* becomes part of the "
        "trajectory and any same-timestamp reordering silently changes "
        "both — or they independently reconstruct it, which silently "
        "correlates randomness that looks independent. Either way the "
        "collision must be explicit: hand the stream over in one place, "
        "derive per-consumer names, or waive with the sharing contract "
        "spelled out.")

    #: Receiver identifier tokens that mark a ``.stream(...)`` call as a
    #: RandomStreams draw (``streams.stream``, ``self._streams.stream``,
    #: ``scenario.rng_streams.stream`` ...).
    _RECEIVER_TOKENS = frozenset({"stream", "streams", "rng"})

    def __init__(self, config: LintConfig) -> None:
        super().__init__(config)
        #: (module, CONST) -> string value, from module-level assigns.
        self._constants: dict = {}
        #: Draw sites: list of (key, path, scope_kind, scope, line, col)
        #: where key is ("lit", value) or ("ref", module, const_name).
        self._sites: list = []

    def visit_Module(self, node: ast.Module, ctx: LintContext) -> None:
        """Collect module-level string constants (stream-name homes)."""
        module = _module_of(ctx.path)
        for stmt in node.body:
            if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)):
                self._constants[(module, stmt.targets[0].id)] = (
                    stmt.value.value)

    def _streamish(self, receiver: ast.AST) -> bool:
        identifier = None
        if isinstance(receiver, ast.Name):
            identifier = receiver.id
        elif isinstance(receiver, ast.Attribute):
            identifier = receiver.attr
        return (identifier is not None
                and bool(split_tokens(identifier) & self._RECEIVER_TOKENS))

    def _name_key(self, arg: ast.AST, ctx: LintContext):
        """Resolve a stream-name argument to a ledger key, or None."""
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return ("lit", arg.value)
        if isinstance(arg, ast.JoinedStr):
            parts = []
            for value in arg.values:
                if isinstance(value, ast.Constant):
                    parts.append(str(value.value))
                else:
                    parts.append("{}")
            return ("lit", "".join(parts))
        if isinstance(arg, ast.Name):
            imported = ctx.from_imports.get(arg.id)
            if imported is not None:
                return ("ref", imported[0], imported[1])
            return ("ref", _module_of(ctx.path), arg.id)
        if (isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add)):
            # PREFIX + suffix concatenation: treat like an f-string
            # pattern anchored on whichever side resolves.
            left = self._name_key(arg.left, ctx)
            right = self._name_key(arg.right, ctx)
            left_lit = left[1] if left and left[0] == "lit" else "{}"
            right_lit = right[1] if right and right[0] == "lit" else "{}"
            if left or right:
                return ("concat", left or ("lit", "{}"),
                        right or ("lit", "{}"), left_lit + right_lit)
        return None

    def _scope(self, ctx: LintContext) -> tuple:
        """(kind, name) of the innermost subsystem scope at this site."""
        if ctx.class_stack:
            return ("class", ctx.class_stack[-1].name)
        if ctx.function_stack:
            function = ctx.function_stack[0]
            return ("function", getattr(function, "name", "<lambda>"))
        return ("module", "<module>")

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        """Record every ``<streams>.stream(<name>)`` draw site."""
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "stream"):
            return
        if not self._streamish(func.value):
            return
        if not node.args:
            return
        key = self._name_key(node.args[0], ctx)
        if key is None:
            return
        kind, scope = self._scope(ctx)
        self._sites.append((key, ctx.path, kind, scope,
                            node.lineno, node.col_offset))

    def _resolve(self, key) -> str:
        """Final stream-name (or pattern) text for a ledger key."""
        if key[0] == "lit":
            return key[1]
        if key[0] == "ref":
            return self._constants.get((key[1], key[2]), f"<{key[2]}>")
        # concat
        return self._resolve(key[1]) + self._resolve(key[2])

    def finalize(self) -> List["Finding"]:
        from repro.analysis.core import Finding
        by_name: dict = {}
        for key, path, kind, scope, line, col in self._sites:
            by_name.setdefault(self._resolve(key), []).append(
                (path, kind, scope, line, col))
        findings: List[Finding] = []
        for name, sites in sorted(by_name.items()):
            scopes = {(path, scope) for path, _kind, scope, _l, _c in sites}
            if len(scopes) < 2:
                continue
            paths = {path for path, _scope in scopes}
            class_scopes = {(path, scope)
                            for path, kind, scope, _l, _c in sites
                            if kind == "class"}
            # Within one file, only distinct *classes* collide — separate
            # top-level functions routinely build their own private
            # RandomStreams families (tests, scenario builders).
            if len(paths) < 2 and len(class_scopes) < 2:
                continue
            for path, kind, scope, line, col in sites:
                others = sorted(
                    f"{other_path}:{other_line} ({other_scope})"
                    for other_path, _k, other_scope, other_line, _c2 in sites
                    if (other_path, other_scope) != (path, scope))
                if not others:
                    continue
                shown = ", ".join(others[:3])
                if len(others) > 3:
                    shown += f", +{len(others) - 3} more"
                findings.append(Finding(
                    code=self.code, path=path, line=line, col=col,
                    message=f"substream {name!r} is also drawn at {shown}: "
                            "shared streams couple consumers' draw order — "
                            "derive per-consumer names or hand the stream "
                            "over explicitly"))
        return findings


# --------------------------------------------------------------------------
# DGF008 — module-level mutable state reachable from kernel processes
# --------------------------------------------------------------------------


class SharedModuleState(Rule):
    """Flag module-level mutable containers mutated from functions."""

    code = "DGF008"
    name = "no-shared-module-state"
    rationale = (
        "A module-level dict/list/set mutated from inside functions is "
        "state the kernel cannot see: it outlives every Environment and "
        "leaks between back-to-back runs in one process (a seed sweep "
        "runs them back to back), so a run's output depends on which "
        "runs came before it — 'same inputs, same seeds' stops meaning "
        "'same outputs'. Hang the "
        "state off an object the run owns (the environment, a service, "
        "a scenario), or pass it explicitly. Import-time population of "
        "registries is fine; it is post-import mutation that aliases "
        "runs together.")

    _MUTABLE_CALLS = frozenset({"dict", "list", "set", "deque",
                                "defaultdict", "OrderedDict", "Counter"})
    _MUTATORS = frozenset({"append", "extend", "insert", "add", "discard",
                           "remove", "pop", "popleft", "popitem",
                           "appendleft", "extendleft", "clear", "update",
                           "setdefault"})

    def _mutable_ctor(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            return name in self._MUTABLE_CALLS
        return False

    @staticmethod
    def _subscript_base(node: ast.AST):
        if isinstance(node, ast.Subscript) and isinstance(node.value,
                                                          ast.Name):
            return node.value.id
        return None

    def _mutation_target(self, node: ast.AST):
        """Name of the module global ``node`` mutates, if any."""
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.attr in self._MUTATORS):
            return node.func.value.id
        if isinstance(node, ast.Assign):
            for target in node.targets:
                base = self._subscript_base(target)
                if base is not None:
                    return base
        if isinstance(node, ast.AugAssign):
            return self._subscript_base(node.target)
        if isinstance(node, ast.Delete):
            for target in node.targets:
                base = self._subscript_base(target)
                if base is not None:
                    return base
        return None

    def visit_Module(self, node: ast.Module, ctx: LintContext) -> None:
        """Self-contained per-file pass (runs once, at the module node)."""
        candidates: dict = {}
        for stmt in node.body:
            target = None
            if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)):
                target = stmt.targets[0].id
                value = stmt.value
            elif (isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)
                  and stmt.value is not None):
                target = stmt.target.id
                value = stmt.value
            if target is not None and self._mutable_ctor(value):
                candidates[target] = stmt
        if not candidates:
            return
        mutators: dict = {}
        for scope in ast.walk(node):
            if not isinstance(scope, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                continue
            # A function that rebinds the name locally (no ``global``)
            # mutates its own copy, not the module state.
            local = {arg.arg for arg in scope.args.args}
            local.update(arg.arg for arg in scope.args.kwonlyargs)
            has_global = set()
            for sub in ast.walk(scope):
                if isinstance(sub, ast.Global):
                    has_global.update(sub.names)
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            local.add(target.id)
            local -= has_global
            for sub in ast.walk(scope):
                name = self._mutation_target(sub)
                if (name in candidates and name not in local
                        and name not in mutators):
                    mutators[name] = (scope.name, sub.lineno)
        for name in sorted(mutators):
            function, line = mutators[name]
            stmt = candidates[name]
            ctx.report(self, stmt,
                       f"module-level mutable {name!r} is mutated from "
                       f"{function}() (line {line}): module state outlives "
                       "the environment and aliases runs/processes "
                       "together — own it from the run (env, service, "
                       "scenario) or pass it explicitly")


#: The shipped rule classes, in code order. ``docs/static-analysis.md``
#: renders its catalog from these attributes.
RULES = (WallClock, UnseededRandomness, UnorderedIteration, FloatEquality,
         RetryContract, LabelCardinality, SubstreamLedger,
         SharedModuleState)


def all_rules(config: LintConfig) -> List[Rule]:
    """Instantiate every selected rule under ``config``."""
    return [rule(config) for rule in RULES if config.selects(rule.code)]
