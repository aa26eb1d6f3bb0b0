"""MoML interchange: the IDE's modeling language (§3.2, §5).

"A modeling markup language describes datagridflows and stores it locally
for the users to use again or view the datagridflow rendered on the IDE.
MoML, used in Ptolemy II/Kepler, uses this approach. … The user interface
will be defined by the MoML modeling language, with execution taking place
using the DGL."

This module implements that bridge for the structural subset an IDE
manipulates: a datagridflow drawn as a MoML model — nested
``<entity class="datagridflow.Flow">`` composites holding
``<entity class="datagridflow.Step">`` actors, with ``<property>``
elements for the control pattern, variables, and operation parameters —
converts losslessly to and from DGL :class:`~repro.dgl.model.Flow` trees.

Out of the subset (by design): user-defined rules and step requirements
are execution-logic details the paper keeps in DGL, not in the canvas
model; round-tripping a flow that uses them raises so nothing is silently
dropped.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Union

from repro.errors import DGLParseError, DGLValidationError
from repro.dgl.model import (
    Flow,
    FlowLogic,
    ForEach,
    Operation,
    Parallel,
    Repeat,
    Sequential,
    Step,
    SwitchCase,
    Variable,
    WhileLoop,
)
from repro.dgl.xml_io import _get_value, _set_value

__all__ = ["flow_to_moml", "moml_to_flow"]

_FLOW_CLASS = "datagridflow.Flow"
_STEP_CLASS = "datagridflow.Step"


def _pattern_properties(pattern, entity: ET.Element) -> None:
    def prop(name: str, value: str) -> None:
        ET.SubElement(entity, "property", name=name, value=value)

    if isinstance(pattern, Sequential):
        prop("flowLogic", "sequential")
    elif isinstance(pattern, Parallel):
        prop("flowLogic", "parallel")
        if pattern.max_concurrent:
            prop("maxConcurrent", str(pattern.max_concurrent))
    elif isinstance(pattern, WhileLoop):
        prop("flowLogic", "while")
        prop("condition", pattern.condition)
    elif isinstance(pattern, Repeat):
        prop("flowLogic", "repeat")
        prop("count", str(pattern.count))
    elif isinstance(pattern, ForEach):
        prop("flowLogic", "forEach")
        prop("itemVariable", pattern.item_variable)
        if pattern.collection is not None:
            prop("collection", pattern.collection)
        if pattern.query is not None:
            prop("query", pattern.query)
        if pattern.items is not None:
            prop("items", pattern.items)
    elif isinstance(pattern, SwitchCase):
        prop("flowLogic", "switch")
        prop("expression", pattern.expression)
        if pattern.default is not None:
            prop("default", pattern.default)
    else:
        raise DGLValidationError(
            f"MoML cannot express pattern {type(pattern).__name__}")


def _flow_entity(flow: Flow) -> ET.Element:
    if flow.logic.rules:
        raise DGLValidationError(
            f"flow {flow.name!r} has user-defined rules; rules are "
            "execution logic and have no MoML representation")
    entity = ET.Element("entity", name=flow.name)
    entity.set("class", _FLOW_CLASS)
    _pattern_properties(flow.logic.pattern, entity)
    for variable in flow.variables:
        var_el = ET.SubElement(entity, "property",
                               name=f"var:{variable.name}")
        _set_value(var_el, variable.value)
    for child in flow.children:
        if isinstance(child, Flow):
            entity.append(_flow_entity(child))
        else:
            entity.append(_step_entity(child))
    return entity


def _step_entity(step: Step) -> ET.Element:
    if step.rules or step.variables or step.requirements:
        raise DGLValidationError(
            f"step {step.name!r} carries rules/variables/requirements; "
            "those are execution logic and have no MoML representation")
    entity = ET.Element("entity", name=step.name)
    entity.set("class", _STEP_CLASS)
    ET.SubElement(entity, "property", name="operation",
                  value=step.operation.name)
    if step.operation.assign_to is not None:
        ET.SubElement(entity, "property", name="assignTo",
                      value=step.operation.assign_to)
    for name in sorted(step.operation.parameters):
        param = ET.SubElement(entity, "property", name=f"param:{name}")
        _set_value(param, step.operation.parameters[name])
    return entity


def flow_to_moml(flow: Flow) -> str:
    """Serialize a (structural-subset) flow as a MoML model document."""
    root = _flow_entity(flow)
    ET.indent(root)
    header = ('<?xml version="1.0" standalone="no"?>\n'
              '<!DOCTYPE entity PUBLIC "-//UC Berkeley//DTD MoML 1//EN" '
              '"http://ptolemy.eecs.berkeley.edu/xml/dtd/MoML_1.dtd">\n')
    return header + ET.tostring(root, encoding="unicode")


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------


def _properties(entity: ET.Element) -> dict:
    return {prop.get("name"): prop
            for prop in entity.findall("property")}


def _parse_pattern(properties: dict):
    logic = properties.get("flowLogic")
    kind = logic.get("value") if logic is not None else "sequential"

    def value_of(name: str, default=None):
        prop = properties.get(name)
        return prop.get("value") if prop is not None else default

    if kind == "sequential":
        return Sequential()
    if kind == "parallel":
        return Parallel(max_concurrent=int(value_of("maxConcurrent", "0")))
    if kind == "while":
        condition = value_of("condition")
        if condition is None:
            raise DGLParseError("MoML while flow needs a condition property")
        return WhileLoop(condition=condition)
    if kind == "repeat":
        count_text = value_of("count", "0")
        try:
            count: Union[int, str] = int(count_text)
        except ValueError:
            count = count_text
        return Repeat(count=count)
    if kind == "forEach":
        item = value_of("itemVariable")
        if item is None:
            raise DGLParseError("MoML forEach flow needs itemVariable")
        return ForEach(item_variable=item,
                       collection=value_of("collection"),
                       query=value_of("query"),
                       items=value_of("items"))
    if kind == "switch":
        expression = value_of("expression")
        if expression is None:
            raise DGLParseError("MoML switch flow needs an expression")
        return SwitchCase(expression=expression,
                          default=value_of("default"))
    raise DGLParseError(f"unknown MoML flowLogic {kind!r}")


def _parse_entity(entity: ET.Element) -> Union[Flow, Step]:
    name = entity.get("name")
    if not name:
        raise DGLParseError("MoML entity needs a name")
    entity_class = entity.get("class")
    properties = _properties(entity)
    if entity_class == _STEP_CLASS:
        operation_prop = properties.get("operation")
        if operation_prop is None:
            raise DGLParseError(f"MoML step {name!r} needs an operation")
        parameters = {
            prop_name[len("param:"):]: _get_value(prop)
            for prop_name, prop in properties.items()
            if prop_name.startswith("param:")}
        assign_prop = properties.get("assignTo")
        return Step(name=name, operation=Operation(
            name=operation_prop.get("value"),
            parameters=parameters,
            assign_to=(assign_prop.get("value")
                       if assign_prop is not None else None)))
    if entity_class == _FLOW_CLASS:
        variables = [Variable(prop_name[len("var:"):], _get_value(prop))
                     for prop_name, prop in properties.items()
                     if prop_name.startswith("var:")]
        children = [_parse_entity(child)
                    for child in entity.findall("entity")]
        return Flow(name=name,
                    logic=FlowLogic(pattern=_parse_pattern(properties)),
                    variables=variables, children=children)
    raise DGLParseError(f"unknown MoML entity class {entity_class!r}")


def moml_to_flow(text: str) -> Flow:
    """Parse a MoML model document into a DGL flow."""
    # Strip the doctype line(s); ElementTree rejects external DTDs.
    body = "\n".join(line for line in text.splitlines()
                     if not line.lstrip().startswith(("<?xml", "<!DOCTYPE")))
    try:
        root = ET.fromstring(body)
    except ET.ParseError as exc:
        raise DGLParseError(f"malformed MoML: {exc}") from None
    if root.tag != "entity":
        raise DGLParseError(f"expected MoML <entity>, got <{root.tag}>")
    parsed = _parse_entity(root)
    if not isinstance(parsed, Flow):
        raise DGLParseError("top-level MoML entity must be a flow composite")
    return parsed
