"""Tests for static required-parameter checking at admission."""

import pytest

from repro.dfms import bind_default_operations
from repro.dfms.engine import FlowEngine
from repro.dgl import (
    Action,
    DataGridRequest,
    Flow,
    FlowLogic,
    Operation,
    Step,
    UserDefinedRule,
    flow_builder,
)
from repro.sim import Environment


def compiled(flow):
    """The admission compile of ``flow`` against the default bindings."""
    return FlowEngine(Environment(), bind_default_operations()).compile(flow)


def test_complete_documents_have_no_problems():
    flow = (flow_builder("ok")
            .step("a", "srb.put", path="/x", size=1.0, resource="disk")
            .step("b", "srb.checksum", path="/x")
            .build())
    assert compiled(flow).problems == []


def test_missing_parameters_are_located_precisely():
    flow = (flow_builder("outer")
            .subflow(flow_builder("inner")
                     .step("bad", "srb.migrate", path="/x"))
            .build())
    (problem,) = compiled(flow).problems
    assert "outer/inner/bad" in problem
    assert "from_physical" in problem and "resource" in problem


def test_template_values_satisfy_requirements():
    flow = (flow_builder("templated")
            .step("s", "srb.replicate", path="${f}", resource="${target}")
            .build())
    assert compiled(flow).problems == []


def test_rule_action_operations_are_checked():
    rule = UserDefinedRule(
        name="beforeEntry", condition="true",
        actions=[Action("a", Operation("srb.delete"))])   # missing path
    flow = Flow(name="f", logic=FlowLogic(rules=[rule]),
                children=[Step(name="s", operation=Operation("dgl.noop"))])
    (problem,) = compiled(flow).problems
    assert "rule 'beforeEntry'" in problem
    assert "path" in problem


def test_unregistered_operations_are_not_double_reported():
    flow = flow_builder("f").step("s", "no.such.op", x=1).build()
    assert compiled(flow).problems == []
    assert compiled(flow).missing == ["no.such.op"]


def test_server_rejects_at_admission_without_running(dfms):
    flow = (flow_builder("broken")
            .step("ok", "dgl.sleep", duration=5)
            .step("bad", "srb.replicate", path="/x")   # missing resource
            .build())
    response = dfms.server.submit(DataGridRequest(
        user=dfms.alice.qualified_name, virtual_organization="vo",
        body=flow))
    assert not response.body.valid
    assert "resource" in response.body.message
    # Nothing ran: no execution registered, no time passed.
    assert dfms.server.running_count == 0
    assert dfms.env.now == 0.0
