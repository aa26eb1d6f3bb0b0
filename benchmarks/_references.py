"""Reference models — benchmark and equivalence-test baselines only.

Each class or function here is the brute-force ground truth a production
mechanism under ``src/`` is compared against. None of them is a product
path, so they live beside the benchmarks (as ``_kernel_reference.py``
does for the kernel) rather than in the shipped package. Nothing under
``src/`` may import this module.

* :class:`GlobalRecomputeTransferService` — the global network engine:
  every start, finish, link failure or link swap re-rates *all* active
  transfers instead of just the ones sharing a touched link. E20 and
  ``tests/test_network_transfer.py`` assert its completion times are
  bit-identical to :class:`~repro.network.TransferService`'s.
* :func:`full_rates` — every active transfer's fair-share rate computed
  from scratch, for instant-by-instant rate checks.
* :func:`scan` — the brute-force query evaluation :meth:`Query.run
  <repro.grid.Query.run>`'s planner must match (E18,
  ``tests/test_grid_catalog.py``).
* :class:`FlatReplicaDirectory` — the single flat replica catalog the
  sharded two-tier RLS replaced (E25,
  ``tests/test_federation_rls.py``).
* :func:`rescan_publish_shards` — the dirty-shard digest publish as a
  rescan of the whole zone (every guid re-partitioned, every member
  re-hashed), which the RLS membership index replaced
  (``tests/test_property_rls.py`` asserts both publish the same digests).
* :func:`walk_evaluate`, :func:`walk_render_template` and
  :func:`walk_evaluate_condition` — the DGL expression language as a
  tree walk over the parsed AST on every evaluation, which the compiled
  closures of :mod:`repro.dgl.expressions` replaced
  (``tests/test_property_expressions.py`` asserts both give the same
  value or the same error).
* :func:`reference_admission` — flow admission as three walks (schema
  validation, the operation and parameter diagnostics over every
  operation use, then :meth:`~repro.dgl.model.Flow.depth`), which the
  DfMS server's single compile walk replaced
  (``tests/test_property_admission.py`` asserts both give the same
  verdict and the same message).
"""

from __future__ import annotations

import ast
import re
from typing import (
    Any, Container, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
    Union,
)

from repro.dfms.engine import MAX_NESTING_DEPTH
from repro.dgl.expressions import Scope
from repro.dgl.model import DataGridRequest, Flow, Operation, Step
from repro.dgl.operations import OperationRegistry
from repro.dgl.schema import validate_request
from repro.errors import DGLValidationError, ExpressionError
from repro.federation import (
    BloomDigest,
    LocalReplicaCatalog,
    ReplicaLocation,
    ReplicaLocationIndex,
    shard_of,
)
from repro.grid import DataObject, LogicalNamespace, Query
from repro.network import TransferService

__all__ = [
    "FlatReplicaDirectory",
    "GlobalRecomputeTransferService",
    "full_rates",
    "reference_admission",
    "rescan_publish_shards",
    "scan",
    "walk_evaluate",
    "walk_evaluate_condition",
    "walk_render_template",
]


class GlobalRecomputeTransferService(TransferService):
    """The global re-rate engine: O(active × links) per event.

    It differs from the production engine in one method only. Both settle
    a transfer only when its rate changes, so re-rating transfers whose
    links were untouched is a no-op on their state, and completion times
    match the affected-set engine bit for bit.
    """

    def _recompute_rates_affected(self, touched) -> None:
        self._apply_rates(self._active)


def full_rates(service: TransferService) -> Dict[object, float]:
    """Every active transfer's fair-share rate, computed from scratch."""
    by_link = service._by_link
    return {
        transfer: min(link.bandwidth_bps / len(by_link[link.ends])
                      for link in transfer.links)
        for transfer in service._active
    }


def scan(query: Query, namespace: LogicalNamespace) -> List[DataObject]:
    """Brute-force evaluation of ``query`` (the pre-catalog semantics)."""
    if query.recursive:
        candidates = namespace.iter_objects(query.collection)
    else:
        parent = namespace.resolve_collection(query.collection)
        candidates = (c for c in parent.children()
                      if isinstance(c, DataObject))
    results = [obj for obj in candidates if query.matches(obj)]
    results.sort(key=lambda o: o.path)
    if query.limit is not None:
        results = results[: query.limit]
    return results


class FlatReplicaDirectory:
    """One flat list of ``(guid, location)`` rows for the whole federation.

    This is the "one big replica catalog" a non-federated deployment
    would keep. :meth:`locate` scans it, so cost grows with total
    federation size while the sharded service's lookup cost stays at
    one shard.
    """

    def __init__(self) -> None:
        self._rows: List[Tuple[str, ReplicaLocation]] = []
        self.rows_scanned = 0

    def add(self, guid: str, locations: Sequence[ReplicaLocation]) -> None:
        """Append one row per location for ``guid``."""
        for location in locations:
            self._rows.append((guid, location))

    def __len__(self) -> int:
        return len(self._rows)

    def locate(self, guid: str) -> Tuple[ReplicaLocation, ...]:
        """Scan every row for ``guid`` (cost grows with the directory)."""
        found = []
        scanned = 0
        for row_guid, location in self._rows:
            scanned += 1
            if row_guid == guid:
                found.append(location)
        self.rows_scanned += scanned
        return tuple(found)


def rescan_publish_shards(lrc: LocalReplicaCatalog,
                          index: ReplicaLocationIndex,
                          shard_indexes: Sequence[int],
                          published_at: float = 0.0) -> None:
    """Rebuild and publish ``shard_indexes`` of one zone into ``index`` by
    rescanning the zone: O(zone) per call, however few shards are dirty.

    Every guid the LRC holds is re-partitioned with :func:`shard_of` to
    find the dirty shards' members, and each digest is rebuilt with one
    :meth:`BloomDigest.add` per member.
    """
    wanted = set(shard_indexes)
    if not wanted:
        return
    partitions: Dict[int, List[str]] = {shard: [] for shard in wanted}
    n_shards = index.n_shards
    for guid in lrc.guids():
        shard = shard_of(guid, n_shards)
        if shard in wanted:
            partitions[shard].append(guid)
    for shard in sorted(wanted):
        guids = partitions[shard]
        digest = BloomDigest.for_capacity(len(guids))
        for guid in guids:
            digest.add(guid)
        index.publish(lrc.zone_name, shard, digest, published_at)


# --------------------------------------------------------------------------
# The DGL expression language as a tree walk
# --------------------------------------------------------------------------

_BIN_OPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
    ast.Pow: lambda a, b: a ** b,
}

_CMP_OPS = {
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
    ast.In: lambda a, b: a in b,
    ast.NotIn: lambda a, b: a not in b,
}

_CONSTANTS = {"true": True, "false": False, "null": None}


def eval_node(node: ast.AST, scope: Union[Scope, Mapping]) -> Any:
    """Evaluate one whitelisted AST node, walking its children."""
    if isinstance(node, ast.Expression):
        return eval_node(node.body, scope)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (str, int, float, bool)) or node.value is None:
            return node.value
        raise ExpressionError(f"literal type not allowed: {node.value!r}")
    if isinstance(node, ast.Name):
        if node.id in _CONSTANTS:
            return _CONSTANTS[node.id]
        if isinstance(scope, Scope):
            return scope.lookup(node.id)
        try:
            return scope[node.id]
        except KeyError:
            raise ExpressionError(f"undefined DGL variable {node.id!r}") from None
    if isinstance(node, ast.BinOp):
        op = _BIN_OPS.get(type(node.op))
        if op is None:
            raise ExpressionError(f"operator not allowed: {ast.dump(node.op)}")
        return op(eval_node(node.left, scope), eval_node(node.right, scope))
    if isinstance(node, ast.UnaryOp):
        operand = eval_node(node.operand, scope)
        if isinstance(node.op, ast.USub):
            return -operand
        if isinstance(node.op, ast.UAdd):
            return +operand
        if isinstance(node.op, ast.Not):
            return not operand
        raise ExpressionError(f"unary operator not allowed: {ast.dump(node.op)}")
    if isinstance(node, ast.BoolOp):
        values = [eval_node(v, scope) for v in node.values]
        if isinstance(node.op, ast.And):
            result = True
            for value in values:
                result = result and value
            return result
        result = False
        for value in values:
            result = result or value
        return result
    if isinstance(node, ast.Compare):
        left = eval_node(node.left, scope)
        for op_node, comparator in zip(node.ops, node.comparators):
            op = _CMP_OPS.get(type(op_node))
            if op is None:
                raise ExpressionError(f"comparison not allowed: {ast.dump(op_node)}")
            right = eval_node(comparator, scope)
            if not op(left, right):
                return False
            left = right
        return True
    if isinstance(node, ast.IfExp):
        condition = eval_node(node.test, scope)
        return eval_node(node.body if condition else node.orelse, scope)
    if isinstance(node, ast.Subscript):
        container = eval_node(node.value, scope)
        index = eval_node(node.slice, scope)
        try:
            return container[index]
        except (KeyError, IndexError, TypeError) as exc:
            raise ExpressionError(f"bad subscript: {exc}") from None
    if isinstance(node, (ast.List, ast.Tuple)):
        return [eval_node(item, scope) for item in node.elts]
    raise ExpressionError(f"syntax not allowed in DGL expressions: "
                          f"{type(node).__name__}")


def walk_evaluate(expression: str, scope: Union[Scope, Mapping]) -> Any:
    """Parse ``expression`` and walk its tree (no ``${}`` wrapper)."""
    try:
        tree = ast.parse(expression.strip(), mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression {expression!r}: {exc}") from None
    return eval_node(tree, scope)


_TEMPLATE_RE = re.compile(r"\$\{([^{}]*)\}")


def walk_render_template(template: Any, scope: Union[Scope, Mapping]) -> Any:
    """Expand ``${...}`` in ``template``, re-parsing every occurrence."""
    if not isinstance(template, str):
        return template
    full = _TEMPLATE_RE.fullmatch(template.strip())
    if full is not None:
        return walk_evaluate(full.group(1), scope)

    def _sub(match: re.Match) -> str:
        return str(walk_evaluate(match.group(1), scope))

    return _TEMPLATE_RE.sub(_sub, template)


def walk_evaluate_condition(condition: str,
                            scope: Union[Scope, Mapping]) -> Any:
    """Evaluate a tcondition, bare or ``${...}``-wrapped."""
    condition = condition.strip()
    if _TEMPLATE_RE.fullmatch(condition):
        return walk_render_template(condition, scope)
    return walk_evaluate(condition, scope)


# --------------------------------------------------------------------------
# Flow admission as three walks
# --------------------------------------------------------------------------

def _operation_uses(flow: Flow) -> Iterator[Tuple[str, Operation]]:
    """Every operation use in ``flow`` with where it sits, in document
    order: a flow's rule actions before its children, a step's operation
    before its rule actions."""

    def _rules(where: str, rules):
        for rule in rules:
            for action in rule.actions:
                yield f"{where} rule {rule.name!r}", action.operation

    def _walk(node, path: str):
        if isinstance(node, Step):
            yield f"step {path!r}", node.operation
            yield from _rules(f"step {path!r}", node.rules)
            return
        yield from _rules(f"flow {path!r}", node.logic.rules)
        for child in node.children:
            yield from _walk(child, f"{path}/{child.name}")

    return _walk(flow, flow.name)


def reference_admission(registry: OperationRegistry, users: Container[str],
                        request: DataGridRequest) -> Optional[str]:
    """The message a DfMS server rejects a flow ``request`` with, or None
    if it admits it.

    Checks in order: the schema (:func:`~repro.dgl.schema.validate_request`),
    unregistered operations, required parameters of registered ones,
    nesting depth, and the grid user.
    """
    try:
        validate_request(request)
    except DGLValidationError as exc:
        return f"invalid DGL document: {exc}"
    flow = request.body
    uses = list(_operation_uses(flow))
    missing = sorted({operation.name for _, operation in uses
                      if operation.name not in registry})
    if missing:
        return f"unknown operations: {', '.join(missing)}"
    problems = [registry.parameter_problem(where, operation)
                for where, operation in uses]
    problems = [problem for problem in problems if problem is not None]
    if problems:
        return "; ".join(problems)
    depth = flow.depth()
    if depth > MAX_NESTING_DEPTH:
        return (f"flow nests {depth} levels deep; "
                f"the engine supports at most {MAX_NESTING_DEPTH}")
    if request.user not in users:
        return f"unknown grid user {request.user!r}"
    return None
