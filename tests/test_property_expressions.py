"""Property-based tests for the DGL expression language."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benchmarks._references import (
    walk_evaluate,
    walk_evaluate_condition,
    walk_render_template,
)
from repro.errors import ExpressionError
from repro.dgl import Scope, evaluate, evaluate_condition, render_template
from repro.dgl.expressions import Compiler

# -- strategies ----------------------------------------------------------

import keyword

identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s not in ("true", "false", "null")
    and not keyword.iskeyword(s))

small_ints = st.integers(min_value=-1000, max_value=1000)


@st.composite
def arithmetic(draw, depth=0):
    """A random arithmetic expression string plus its expected value."""
    if depth >= 3 or draw(st.booleans()):
        value = draw(small_ints)
        return (f"({value})" if value < 0 else str(value)), value
    left_text, left = draw(arithmetic(depth + 1))
    right_text, right = draw(arithmetic(depth + 1))
    op = draw(st.sampled_from(["+", "-", "*"]))
    text = f"({left_text} {op} {right_text})"
    result = {"+": left + right, "-": left - right,
              "*": left * right}[op]
    return text, result


# -- evaluation properties ------------------------------------------------------

@given(arithmetic())
def test_arithmetic_matches_python(expression):
    text, expected = expression
    assert evaluate(text, {}) == expected


@given(small_ints, small_ints)
def test_comparisons_are_consistent(a, b):
    scope = {"a": a, "b": b}
    assert evaluate("a < b", scope) == (a < b)
    assert evaluate("a == b", scope) == (a == b)
    assert evaluate("a >= b", scope) == (a >= b)
    # Trichotomy: exactly one of <, ==, > holds.
    outcomes = [evaluate("a < b", scope), evaluate("a == b", scope),
                evaluate("a > b", scope)]
    assert outcomes.count(True) == 1


@given(identifiers, small_ints)
def test_variable_lookup_round_trip(name, value):
    assert evaluate(name, {name: value}) == value


@given(st.text(alphabet=st.characters(blacklist_characters="${}"),
               max_size=40))
def test_template_without_placeholder_is_identity(text):
    assert render_template(text, {}) == text


@given(identifiers, small_ints)
def test_full_template_preserves_type(name, value):
    result = render_template(f"${{{name}}}", {name: value})
    assert result == value
    assert isinstance(result, int)


@given(identifiers, small_ints,
       st.text(alphabet="abc/-.", max_size=10),
       st.text(alphabet="abc/-.", max_size=10))
def test_embedded_template_concatenates(name, value, prefix, suffix):
    if not prefix and not suffix:
        return   # a bare ${...} is the full-template (typed) case
    result = render_template(f"{prefix}${{{name}}}{suffix}", {name: value})
    assert result == f"{prefix}{value}{suffix}"


@given(identifiers)
def test_undefined_variables_always_raise(name):
    with pytest.raises(ExpressionError):
        evaluate(name, {})


# -- scope properties -------------------------------------------------------

@given(st.dictionaries(identifiers, small_ints, max_size=5),
       st.dictionaries(identifiers, small_ints, max_size=5))
def test_scope_shadowing_law(outer_bindings, inner_bindings):
    outer = Scope()
    for name, value in outer_bindings.items():
        outer.declare(name, value)
    inner = Scope(parent=outer)
    for name, value in inner_bindings.items():
        inner.declare(name, value)
    merged = dict(outer_bindings)
    merged.update(inner_bindings)
    assert inner.flatten() == merged
    for name, value in merged.items():
        assert inner.lookup(name) == value
    # Outer scope never sees inner-only names.
    for name in set(inner_bindings) - set(outer_bindings):
        assert name not in outer


@given(st.dictionaries(identifiers, small_ints, min_size=1, max_size=5),
       small_ints)
def test_assign_rebinds_at_declaration_site(bindings, new_value):
    outer = Scope()
    for name, value in bindings.items():
        outer.declare(name, value)
    inner = Scope(parent=outer)
    target = sorted(bindings)[0]
    inner.assign(target, new_value)
    assert outer.lookup(target) == new_value    # reached the declaration
    assert inner.flatten()[target] == new_value


# -- differential: compiled closures against the tree walk ---------------------

#: Bindings the drawn expressions read; ``missing`` is never bound.
BINDINGS = {"a": 3, "b": -2, "n": 0, "f": 2.5, "s": "abc", "t": "",
            "items": [1, "two", 3.0], "table": {"k": "v", "1": 2}}

_leaves = st.one_of(
    st.integers(-9, 9).map(str),
    st.floats(-100, 100, allow_nan=False).map(repr),
    st.sampled_from(["'x'", '"abc"', "''", "'k'", "true", "false", "null",
                     "True", "None"]),
    st.sampled_from(sorted(BINDINGS) + ["missing"]),
    # literals outside the whitelist
    st.sampled_from(["b'x'", "1j", "..."]),
)

#: Source that parses but uses syntax outside the whitelist; ``{}`` is
#: the operand.
_DISALLOWED = ["len({})", "({}).real", "{{{}: 1}}", "{{{}}}",
               "[x for x in {}]", "(lambda: {})", "({})[1:2]", "[*{}]",
               "(y := {})", "f'{{{}}}'", "({} if)", "({} +", "{} )"]


def _extend(children):
    # Growth is bounded by construction: * and ** only ever take a small
    # literal on the right, so no draw can build a huge string or list.
    small = st.integers(0, 3).map(str)
    return st.one_of(
        st.tuples(children, st.sampled_from(
            ["+", "-", "/", "//", "%", "<<", "|", "&", "^", "@"]),
            children).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(children, st.sampled_from(["*", "**"]), small).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["-", "+", "not ", "~"]), children).map(
            lambda t: f"({t[0]}{t[1]})"),
        st.tuples(st.sampled_from([" and ", " or "]),
                  st.lists(children, min_size=2, max_size=4)).map(
            lambda t: "(" + t[0].join(t[1]) + ")"),
        st.tuples(children, st.lists(st.tuples(st.sampled_from(
            ["==", "!=", "<", "<=", ">", ">=", "in", "not in", "is",
             "is not"]), children), min_size=1, max_size=3)).map(
            lambda t: "(" + t[0] + "".join(f" {op} {c}" for op, c in t[1])
            + ")"),
        st.tuples(children, children, children).map(
            lambda t: f"({t[1]} if {t[0]} else {t[2]})"),
        st.tuples(children, children).map(lambda t: f"({t[0]})[{t[1]}]"),
        st.lists(children, max_size=3).map(
            lambda items: "[" + ", ".join(items) + "]"),
        st.lists(children, min_size=2, max_size=3).map(
            lambda items: "(" + ", ".join(items) + ")"),
        st.tuples(st.sampled_from(_DISALLOWED), children).map(
            lambda t: t[0].format(t[1])),
    )


expressions = st.recursive(_leaves, _extend, max_leaves=10)

_padding = st.sampled_from(["", " ", "  ", "\t", "\n "])
_literal_text = st.text(alphabet="ab/-. ${}", max_size=6)


@st.composite
def templates(draw):
    """Literal text mixed with ``${...}`` parts, optionally padded."""
    parts = draw(st.lists(st.one_of(
        _literal_text,
        expressions.map(lambda text: "${" + text + "}")), max_size=4))
    return draw(_padding) + "".join(parts) + draw(_padding)


def _outcome(function, source, scope):
    try:
        value = function(source, scope)
    except Exception as exc:
        return "raised", type(exc).__name__, str(exc)
    return "value", type(value).__name__, repr(value)


def _scopes():
    """The bindings as a plain mapping and as a two-level Scope chain."""
    outer = Scope()
    for name in ("a", "s", "items"):
        outer.declare(name, BINDINGS[name])
    inner = Scope(parent=outer)
    for name, value in BINDINGS.items():
        if name not in ("a", "s", "items"):
            inner.declare(name, value)
    return dict(BINDINGS), inner


def _assert_same(compiled_fn, compile_kind, reference_fn, source):
    for scope in _scopes():
        expected = _outcome(reference_fn, source, scope)
        assert _outcome(compiled_fn, source, scope) == expected, source
        compiled = getattr(Compiler(), compile_kind)(source)
        assert _outcome(compiled_fn, compiled, scope) == expected, source


@settings(max_examples=400, deadline=None)
@given(expressions)
@example("true or missing")
@example("false and missing")
@example("1 < a < 5 > n")
@example("1 < 2 is 3")
@example("2 > 3 is 4")
@example("items[9]")
@example("table['nope']")
@example("s['k']")
@example("a.real")
@example("1 +")
def test_compiled_expressions_match_the_tree_walk(source):
    _assert_same(evaluate, "expression", walk_evaluate, source)


@settings(max_examples=300, deadline=None)
@given(templates())
@example("  ${a}  ")
@example("/x/${s}/${items[0]}-${a + 1}")
@example("${missing} and ${a}")
@example("${}")
@example("${a")
def test_compiled_templates_match_the_tree_walk(template):
    _assert_same(render_template, "template", walk_render_template,
                 template)


@settings(max_examples=200, deadline=None)
@given(expressions, _padding, st.booleans())
def test_compiled_conditions_match_the_tree_walk(source, padding, wrapped):
    condition = ("${" + source + "}" if wrapped else source) + padding
    _assert_same(evaluate_condition, "condition", walk_evaluate_condition,
                 padding + condition)
