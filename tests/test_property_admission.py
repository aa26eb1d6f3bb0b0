"""Property-based differential test of flow admission.

The DfMS server checks a flow in one compile walk. The reference
(:func:`benchmarks._references.reference_admission`) checks it in three:
schema validation, the operation and parameter diagnostics, then nesting
depth. For random documents mixing every control pattern, registered and
unknown operations, missing required parameters, duplicate variables,
empty rule conditions, bad switch defaults and empty parameter names,
both must give the same verdict and byte-identical rejection messages.
"""

from functools import lru_cache
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks._references import reference_admission
from repro.dfms.engine import MAX_NESTING_DEPTH
from repro.dgl import (
    Action,
    DataGridRequest,
    Flow,
    FlowLogic,
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
from tests.conftest import DfMSGrid

#: Flows nest at most this many levels in the random documents.
MAX_DRAWN_DEPTH = 6

names = st.sampled_from(["a", "b", "c", "d"])
by_name = attrgetter("name")

#: Registered operations with and without required parameters, and
#: unregistered ones.
operation_names = st.sampled_from([
    "dgl.noop", "dgl.set", "srb.delete", "srb.replicate",
    "srb.set_metadata", "no.such.op", "srb.typo"])

#: Required-parameter names of the operations above, one other name, and
#: the empty name the schema rejects.
parameter_names = st.sampled_from([
    "path", "resource", "attribute", "value", "variable", "x", ""])

operations = st.builds(
    Operation, name=operation_names,
    parameters=st.dictionaries(parameter_names,
                               st.sampled_from([1, "v", "${x}", None]),
                               max_size=4))

#: Names may repeat within a scope: duplicates are a schema error.
variables = st.lists(st.builds(Variable,
                               name=st.sampled_from(["u", "w", "y", "z"]),
                               value=st.sampled_from([0, "s", "${u}"])),
                     max_size=2)


@st.composite
def draw_rule(draw):
    actions = draw(st.lists(st.builds(Action, name=names,
                                      operation=operations),
                            min_size=1, max_size=2,
                            unique_by=by_name))
    return UserDefinedRule(
        name=draw(st.sampled_from(["beforeEntry", "afterExit", "onError",
                                   "audit"])),
        condition=draw(st.sampled_from(["true", "u > 1", "${u}", "false",
                                        "yes", "", "  "])),
        actions=actions)


rules = draw_rule()

steps = st.builds(Step, name=names, operation=operations,
                  variables=variables,
                  rules=st.lists(rules, max_size=1))


#: Control patterns; "switch" draws a switch-case whose default may name
#: a child, a missing child, or nothing.
patterns = st.sampled_from([
    Sequential(), Parallel(max_concurrent=2), WhileLoop("u < 2"), Repeat(2),
    Repeat("u + 1"), Repeat("${u}"), ForEach("item", items="[1, 2]"),
    "switch"])


@lru_cache(maxsize=None)
def flows(level=1):
    """Random flows whose root sits ``level`` flows deep (one strategy
    object per level, so hypothesis builds each once)."""

    @st.composite
    def draw_flow(draw):
        if level >= MAX_DRAWN_DEPTH or draw(st.integers(0, 3)) == 0:
            children = draw(st.lists(steps, max_size=3, unique_by=by_name))
        else:
            children = draw(st.lists(flows(level + 1), max_size=2,
                                     unique_by=by_name))
        pattern = draw(patterns)
        if pattern == "switch":
            pattern = SwitchCase("u", default=draw(st.sampled_from(
                [None, "ghost", *[child.name for child in children]])))
        logic = FlowLogic(pattern=pattern,
                          rules=draw(st.lists(rules, max_size=1)))
        return Flow(name=draw(names), logic=logic, variables=draw(variables),
                    children=children)

    return draw_flow()


@pytest.fixture(scope="module")
def grid():
    return DfMSGrid()


def check_admission(grid, user, flow):
    request = DataGridRequest(user=user, virtual_organization="vo",
                              body=flow)
    expected = reference_admission(grid.server.registry, grid.dgms.users,
                                   request)
    ack = grid.server.submit(request).body
    assert ack.valid is (expected is None)
    if expected is not None:
        assert ack.message == expected


@settings(max_examples=200, deadline=None)
@given(flow=flows(), user=st.sampled_from(["member", "", "ghost@nowhere"]))
def test_admission_matches_the_three_walk_reference(grid, flow, user):
    if user == "member":
        user = grid.alice.qualified_name
    check_admission(grid, user, flow)


@pytest.mark.parametrize("problem", [None, "variables", "parameter"])
def test_admission_checks_reach_the_deepest_allowed_level(grid, problem):
    """The walk checks every level up to the nesting limit: a problem in
    the innermost flow of a maximally nested document is reported as the
    reference reports it."""
    operation = Operation("dgl.noop")
    inner_variables = []
    if problem == "variables":
        inner_variables = [Variable("u"), Variable("u")]
    elif problem == "parameter":
        operation = Operation("srb.delete", {"": 1})
    flow = Flow(name=f"level-{MAX_NESTING_DEPTH}", variables=inner_variables,
                children=[Step(name="s", operation=operation)])
    for level in range(MAX_NESTING_DEPTH - 1, 0, -1):
        flow = Flow(name=f"level-{level}", children=[flow])
    check_admission(grid, grid.alice.qualified_name, flow)
