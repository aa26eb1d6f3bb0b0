"""The DGL expression language.

DGL documents embed small expressions in three places:

* **templates** in operation parameters — ``"/archive/${site}/file-${i}.dat"``;
* **tconditions** in user-defined rules — "a usually simple string that is
  evaluated", possibly referencing DGL variables (Appendix A);
* loop/switch control expressions — ``${count < 10}``.

Expressions inside ``${...}`` are parsed with Python's :mod:`ast` and
compiled by a strict whitelist into nested closures evaluated against the
flow's variable scope: literals, variable names, arithmetic, comparisons,
boolean logic, unary ops, and indexing. No calls, no attribute access, no
comprehensions — a DGL document can never execute arbitrary code.

Compiling never fails. A source that does not parse, or that uses syntax
outside the whitelist, compiles to a closure that raises
:class:`~repro.errors.ExpressionError` when it is evaluated — so, exactly
as for text evaluated on the spot, a bad expression on a branch that
never runs never fails a flow. :class:`Compiler` parses each distinct
source once; the flow engine owns one, so a flow's templates are parsed
at admission and every later evaluation only runs closures.
"""

from __future__ import annotations

import ast
import operator
import re
from typing import Any, Callable, Dict, Mapping, Optional, Union

from repro.errors import ExpressionError

__all__ = ["Scope", "Compiled", "Compiler", "evaluate", "render_template",
           "evaluate_condition"]


class Scope:
    """A chain of variable bindings with lexical lookup.

    Each :class:`~repro.dgl.model.Flow` opens a scope; lookups walk outward
    to the parent, matching "each flow is like a block of code in modern
    programming languages with its own variable scope" (§4).
    """

    def __init__(self, parent: Optional["Scope"] = None) -> None:
        self.parent = parent
        self._bindings: dict = {}

    def declare(self, name: str, value: Any) -> None:
        """Introduce ``name`` in *this* scope (shadows outer bindings)."""
        self._bindings[name] = value

    def lookup(self, name: str) -> Any:
        """Innermost binding of ``name``."""
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope._bindings:
                return scope._bindings[name]
            scope = scope.parent
        raise ExpressionError(f"undefined DGL variable {name!r}")

    def assign(self, name: str, value: Any) -> None:
        """Rebind the innermost existing ``name`` (declare here if new)."""
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope._bindings:
                scope._bindings[name] = value
                return
            scope = scope.parent
        self._bindings[name] = value

    def __contains__(self, name: str) -> bool:
        try:
            self.lookup(name)
            return True
        except ExpressionError:
            return False

    def flatten(self) -> dict:
        """All visible bindings (inner shadowing outer)."""
        chain = []
        scope: Optional[Scope] = self
        while scope is not None:
            chain.append(scope._bindings)
            scope = scope.parent
        merged: dict = {}
        for bindings in reversed(chain):
            merged.update(bindings)
        return merged


#: What every compiled node is: scope in, value out.
Closure = Callable[[Union[Scope, Mapping]], Any]


# --------------------------------------------------------------------------
# Whitelist compiler
# --------------------------------------------------------------------------

_BIN_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
    ast.Pow: operator.pow,
}

_CMP_OPS = {
    ast.Eq: operator.eq,
    ast.NotEq: operator.ne,
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
    ast.In: lambda a, b: a in b,
    ast.NotIn: lambda a, b: a not in b,
}

_CONSTANTS = {"true": True, "false": False, "null": None}


def _fail(message: str) -> Closure:
    def fail(scope):
        raise ExpressionError(message)
    return fail


def _constant(value: Any) -> Closure:
    return lambda scope: value


def _constant_node(node: ast.Constant) -> Closure:
    value = node.value
    if isinstance(value, (str, int, float, bool)) or value is None:
        return _constant(value)
    return _fail(f"literal type not allowed: {value!r}")


def _name_node(node: ast.Name) -> Closure:
    name = node.id
    if name in _CONSTANTS:
        return _constant(_CONSTANTS[name])

    def lookup(scope):
        if isinstance(scope, Scope):
            return scope.lookup(name)
        try:
            return scope[name]
        except KeyError:
            raise ExpressionError(
                f"undefined DGL variable {name!r}") from None
    return lookup


def _binop_node(node: ast.BinOp) -> Closure:
    op = _BIN_OPS.get(type(node.op))
    if op is None:
        return _fail(f"operator not allowed: {ast.dump(node.op)}")
    left = _compile_node(node.left)
    right = _compile_node(node.right)
    return lambda scope: op(left(scope), right(scope))


def _unaryop_node(node: ast.UnaryOp) -> Closure:
    operand = _compile_node(node.operand)
    kind = type(node.op)
    if kind is ast.USub:
        return lambda scope: -operand(scope)
    if kind is ast.UAdd:
        return lambda scope: +operand(scope)
    if kind is ast.Not:
        return lambda scope: not operand(scope)
    message = f"unary operator not allowed: {ast.dump(node.op)}"

    def refuse(scope):
        operand(scope)          # the operand is evaluated first
        raise ExpressionError(message)
    return refuse


def _boolop_node(node: ast.BoolOp) -> Closure:
    # DGL's and/or evaluate every operand (no short circuit), then pick
    # the operand Python's and/or would.
    operands = [_compile_node(value) for value in node.values]
    conjunction = isinstance(node.op, ast.And)

    def boolean(scope):
        values = [operand(scope) for operand in operands]
        result = conjunction
        for value in values:
            result = (result and value) if conjunction else (result or value)
        return result
    return boolean


def _compare_node(node: ast.Compare) -> Closure:
    left = _compile_node(node.left)
    links = []
    for op_node, comparator in zip(node.ops, node.comparators):
        op = _CMP_OPS.get(type(op_node))
        message = (None if op is not None else
                   f"comparison not allowed: {ast.dump(op_node)}")
        links.append((op, _compile_node(comparator), message))
    if len(links) == 1 and links[0][0] is not None:
        (op, right, _), = links
        return lambda scope: bool(op(left(scope), right(scope)))

    def chain(scope):
        current = left(scope)
        for op, comparator, message in links:
            if op is None:
                raise ExpressionError(message)
            value = comparator(scope)
            if not op(current, value):
                return False
            current = value
        return True
    return chain


def _ifexp_node(node: ast.IfExp) -> Closure:
    test = _compile_node(node.test)
    body = _compile_node(node.body)
    orelse = _compile_node(node.orelse)
    return lambda scope: body(scope) if test(scope) else orelse(scope)


def _subscript_node(node: ast.Subscript) -> Closure:
    container = _compile_node(node.value)
    index = _compile_node(node.slice)

    def subscript(scope):
        value = container(scope)
        key = index(scope)
        try:
            return value[key]
        except (KeyError, IndexError, TypeError) as exc:
            raise ExpressionError(f"bad subscript: {exc}") from None
    return subscript


def _sequence_node(node: Union[ast.List, ast.Tuple]) -> Closure:
    items = [_compile_node(item) for item in node.elts]
    return lambda scope: [item(scope) for item in items]


_NODE_COMPILERS = {
    ast.Constant: _constant_node,
    ast.Name: _name_node,
    ast.BinOp: _binop_node,
    ast.UnaryOp: _unaryop_node,
    ast.BoolOp: _boolop_node,
    ast.Compare: _compare_node,
    ast.IfExp: _ifexp_node,
    ast.Subscript: _subscript_node,
    ast.List: _sequence_node,
    ast.Tuple: _sequence_node,
}


def _compile_node(node: ast.AST) -> Closure:
    compile_node = _NODE_COMPILERS.get(type(node))
    if compile_node is None:
        return _fail(f"syntax not allowed in DGL expressions: "
                     f"{type(node).__name__}")
    return compile_node(node)


def _compile_source(source: str) -> Closure:
    """One bare expression (no ``${}`` wrapper), compiled; never raises."""
    try:
        tree = ast.parse(source.strip(), mode="eval")
    except SyntaxError as exc:
        return _fail(f"cannot parse expression {source!r}: {exc}")
    except (AttributeError, TypeError, ValueError, RecursionError) as exc:
        # A non-string source, or one the parser refuses outright: the
        # error is raised where evaluating the text would have raised it.
        return _defer(exc)
    try:
        return _compile_node(tree.body)
    except RecursionError as exc:   # nested too deep to compile (or run)
        return _defer(exc)


def _defer(exc: Exception) -> Closure:
    """A closure raising an exception like ``exc`` each time it runs."""
    kind, args = type(exc), exc.args

    def fail(scope):
        raise kind(*args)
    return fail


_TEMPLATE_RE = re.compile(r"\$\{([^{}]*)\}")


def _expression_closure(expression: str,
                        compile_source: Callable[[str], Closure]) -> Closure:
    return compile_source(expression)


def _template_closure(template: Any,
                      compile_source: Callable[[str], Closure]) -> Closure:
    """``template`` split once into literal text and compiled parts."""
    if not isinstance(template, str):
        return _constant(template)
    full = _TEMPLATE_RE.fullmatch(template.strip())
    if full is not None:
        return compile_source(full.group(1))
    pieces: list = []
    parts = []
    start = 0
    for match in _TEMPLATE_RE.finditer(template):
        pieces.append(template[start:match.start()])
        parts.append((len(pieces), compile_source(match.group(1))))
        pieces.append("")
        start = match.end()
    if not parts:
        return _constant(template)
    pieces.append(template[start:])
    if len(parts) == 1:
        prefix, (_, part), suffix = pieces[0], parts[0], pieces[2]
        return lambda scope: prefix + str(part(scope)) + suffix

    def interpolate(scope):
        text = list(pieces)
        for index, part in parts:
            text[index] = str(part(scope))
        return "".join(text)
    return interpolate


def _condition_closure(condition: Any,
                       compile_source: Callable[[str], Closure]) -> Closure:
    try:
        condition = condition.strip()
    except AttributeError as exc:   # not a string
        return _defer(exc)
    if _TEMPLATE_RE.fullmatch(condition):
        return _template_closure(condition, compile_source)
    return compile_source(condition)


class Compiled:
    """A DGL expression, template or tcondition compiled to a closure.

    :func:`evaluate`, :func:`render_template` and
    :func:`evaluate_condition` accept one in place of source text and
    return what they would have returned for the source it was compiled
    from, raising the same errors at the same moment.
    """

    __slots__ = ("source", "run")

    def __init__(self, source: Any, run: Closure) -> None:
        self.source = source
        self.run = run

    def __repr__(self) -> str:
        return f"Compiled({self.source!r})"


class Compiler:
    """Compiles DGL sources once, memoising the result by source text.

    Each distinct expression text is parsed once, and each distinct
    template or tcondition is split once; the memo keeps closures and
    source strings, never syntax trees. A template shared by many flows
    — a trigger's action flow fires with the same templates every time —
    is therefore compiled once. Whoever evaluates the same sources
    repeatedly owns a compiler; the flow engine keeps one for its
    lifetime.
    """

    __slots__ = ("_closures", "_expressions", "_templates", "_conditions")

    def __init__(self) -> None:
        self._closures: Dict[str, Closure] = {}
        self._expressions: Dict[str, Compiled] = {}
        self._templates: Dict[str, Compiled] = {}
        self._conditions: Dict[str, Compiled] = {}

    def _closure(self, source: str) -> Closure:
        closure = self._closures.get(source)
        if closure is None:
            closure = self._closures[source] = _compile_source(source)
        return closure

    def _memo(self, memo: Dict[str, Compiled], source: Any,
              lower: Callable[[Any, Callable[[str], Closure]], Closure]
              ) -> Compiled:
        if not isinstance(source, str):   # fails when evaluated; not shared
            return Compiled(source, lower(source, _compile_source))
        compiled = memo.get(source)
        if compiled is None:
            compiled = memo[source] = Compiled(
                source, lower(source, self._closure))
        return compiled

    def expression(self, expression: str) -> Compiled:
        """A bare expression, for :func:`evaluate`."""
        return self._memo(self._expressions, expression, _expression_closure)

    def template(self, template: str) -> Compiled:
        """A parameter template, for :func:`render_template`."""
        return self._memo(self._templates, template, _template_closure)

    def condition(self, condition: str) -> Compiled:
        """A tcondition, for :func:`evaluate_condition`."""
        return self._memo(self._conditions, condition, _condition_closure)


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------


def evaluate(expression: Union[str, Compiled],
             scope: Union[Scope, Mapping]) -> Any:
    """Evaluate a bare DGL expression (no ``${}`` wrapper) against ``scope``."""
    if isinstance(expression, Compiled):
        return expression.run(scope)
    return _compile_source(expression)(scope)


def render_template(template: Any, scope: Union[Scope, Mapping]) -> Any:
    """Expand ``${...}`` occurrences in ``template``.

    * Non-strings pass through unchanged.
    * A template that is *exactly* one ``${expr}`` (surrounding whitespace
      aside) returns the expression's typed value (so numeric parameters
      stay numeric).
    * Otherwise each occurrence is stringified into the surrounding text.
    """
    if isinstance(template, Compiled):
        return template.run(scope)
    if not isinstance(template, str):
        return template
    return _template_closure(template, _compile_source)(scope)


def evaluate_condition(condition: Union[str, Compiled],
                       scope: Union[Scope, Mapping]) -> Any:
    """Evaluate a tcondition.

    Conditions are written either as a bare expression (``count < 10``) or
    with template syntax (``${count < 10}``); both forms are accepted.
    """
    if isinstance(condition, Compiled):
        return condition.run(scope)
    return _condition_closure(condition, _compile_source)(scope)
