"""The datagrid query language.

DGL execution logic iterates "some set of tasks over collections of files.
The files are used as input data and processed according to a datagrid
query, which could be part of the execution logic itself" (§2.3). This
module defines that query language: conjunctive conditions over a data
object's name, path, size, checksum, and user-defined metadata, evaluated
against a collection subtree.

Queries have both an object form (:class:`Query`) and a compact text form
used inside DGL documents, e.g.::

    name like '*.dat' AND size > 1048576 AND meta:stage = 'raw'
"""

from __future__ import annotations

import enum
import fnmatch
import re
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.errors import MetadataError
from repro.grid.namespace import DataObject, LogicalNamespace

__all__ = ["Op", "Condition", "Query", "parse_conditions"]


class Op(enum.Enum):
    """Comparison operators."""

    EQ = "="
    NE = "!="
    GT = ">"
    GE = ">="
    LT = "<"
    LE = "<="
    LIKE = "like"          # glob-style pattern on the string form
    CONTAINS = "contains"  # substring on the string form
    EXISTS = "exists"      # the field has a value at all


#: Fields addressable without the ``meta:`` prefix.
_BUILTIN_FIELDS = {"name", "path", "size", "checksum", "guid"}


@dataclass(frozen=True)
class Condition:
    """One conjunct: ``field op value``.

    ``field`` is a builtin (name, path, size, checksum, guid) or
    ``meta:<attribute>`` for user-defined metadata.
    """

    field: str
    op: Op
    value: Union[str, int, float, None] = None

    def __post_init__(self) -> None:
        if not (self.field in _BUILTIN_FIELDS or self.field.startswith("meta:")):
            raise MetadataError(
                f"unknown query field {self.field!r} "
                f"(builtins: {sorted(_BUILTIN_FIELDS)}, or meta:<attr>)")
        if self.op is not Op.EXISTS and self.value is None:
            raise MetadataError(f"operator {self.op.value!r} needs a value")

    def _extract(self, obj: DataObject):
        if self.field == "name":
            return obj.name
        if self.field == "path":
            return obj.path
        if self.field == "size":
            return obj.size
        if self.field == "checksum":
            return obj.checksum
        if self.field == "guid":
            return obj.guid
        attribute = self.field[len("meta:"):]
        return obj.metadata.get(attribute)

    def matches(self, obj: DataObject) -> bool:
        """Evaluate this condition against one data object."""
        actual = self._extract(obj)
        if self.op is Op.EXISTS:
            return actual is not None
        if actual is None:
            return False
        if self.op is Op.LIKE:
            return fnmatch.fnmatchcase(str(actual), str(self.value))
        if self.op is Op.CONTAINS:
            return str(self.value) in str(actual)
        expected = self.value
        # Numeric comparison when both sides are numeric; string otherwise.
        if isinstance(actual, (int, float)) and isinstance(expected, (int, float)):
            left, right = float(actual), float(expected)
        else:
            left, right = str(actual), str(expected)
        if self.op is Op.EQ:
            return left == right
        if self.op is Op.NE:
            return left != right
        if self.op is Op.GT:
            return left > right
        if self.op is Op.GE:
            return left >= right
        if self.op is Op.LT:
            return left < right
        if self.op is Op.LE:
            return left <= right
        raise MetadataError(f"unhandled operator {self.op!r}")


#: Operators the size index can bound a candidate range for.
_SIZE_RANGE_OPS = {Op.EQ, Op.GT, Op.GE, Op.LT, Op.LE}


@dataclass
class Query:
    """A conjunctive query over a collection subtree.

    :meth:`run` plans the evaluation against the namespace's
    :class:`~repro.grid.catalog.GridCatalog`: each conjunct that an index
    can answer (metadata EQ/EXISTS, guid EQ, size ranges) is scored by its
    candidate count, evaluation starts from the most selective access
    path, and every candidate is re-verified against the full conjunction
    — so results are always identical to a brute-force scan (the
    reference ``scan`` in ``benchmarks/_references.py``), just sublinear
    for selective queries.
    """

    collection: str = "/"
    conditions: List[Condition] = field(default_factory=list)
    recursive: bool = True
    limit: Optional[int] = None

    def matches(self, obj: DataObject) -> bool:
        """True if every condition holds."""
        return all(condition.matches(obj) for condition in self.conditions)

    def run(self, namespace: LogicalNamespace) -> List[DataObject]:
        """Evaluate against ``namespace``, in deterministic path order."""
        telemetry = getattr(namespace, "telemetry", None)
        scope = namespace.resolve_collection(self.collection)
        if not self.recursive:
            children = [c for c in scope.children()
                        if isinstance(c, DataObject)]
            results = [c for c in children if self.matches(c)]
            results.sort(key=lambda o: o.path)
            if telemetry is not None:
                self._account(telemetry, "children", len(children))
            return results[: self.limit] if self.limit is not None else results

        candidates = self._best_index_candidates(namespace)
        if candidates is not None:
            scope_path = scope.path
            in_scope = (candidates if scope_path == "/" else
                        [o for o in candidates
                         if o.path.startswith(scope_path + "/")])
            results = [obj for obj in in_scope if self.matches(obj)]
            results.sort(key=lambda o: o.path)
            if telemetry is not None:
                self._account(telemetry, "index", len(in_scope))
            return results[: self.limit] if self.limit is not None else results

        # Scan path: path-ordered traversal allows a true early exit once
        # ``limit`` matches are in hand.
        results = []
        examined = 0
        for obj in namespace.iter_objects_in_path_order(self.collection):
            examined += 1
            if self.matches(obj):
                results.append(obj)
                if self.limit is not None and len(results) >= self.limit:
                    break
        if telemetry is not None:
            self._account(telemetry, "scan", examined)
        return results

    @staticmethod
    def _account(telemetry, access_path: str, examined: int) -> None:
        """Record which access path answered a query and at what cost."""
        telemetry.catalog_queries.labels(access_path=access_path).inc()
        telemetry.catalog_candidates.inc(examined)

    # -- planning -----------------------------------------------------------

    def _best_index_candidates(
            self, namespace: LogicalNamespace) -> Optional[List[DataObject]]:
        """Candidates from the most selective indexed conjunct, or None.

        Scores every index-eligible conjunct by its (cheaply counted)
        candidate population and fetches only the winner; returns None when
        no conjunct is indexable, sending :meth:`run` down the scan path.
        """
        catalog = getattr(namespace, "catalog", None)
        if catalog is None:
            return None
        best_count: Optional[int] = None
        best_fetch = None
        for condition in self.conditions:
            count, fetch = self._access_path(namespace, catalog, condition)
            if fetch is None:
                continue
            if best_count is None or count < best_count:
                best_count, best_fetch = count, fetch
        return None if best_fetch is None else best_fetch()

    @staticmethod
    def _access_path(namespace: LogicalNamespace, catalog, condition):
        """(estimated candidate count, fetch thunk) for one conjunct."""
        field_name, op, value = condition.field, condition.op, condition.value
        if field_name.startswith("meta:"):
            attribute = field_name[len("meta:"):]
            if op is Op.EQ:
                return (catalog.count_meta_eq(attribute, value),
                        lambda: catalog.candidates_meta_eq(attribute, value))
            if op is Op.EXISTS or op in (Op.NE, Op.GT, Op.GE, Op.LT, Op.LE,
                                         Op.LIKE, Op.CONTAINS):
                # Every non-EQ operator still requires the attribute to be
                # present, so the EXISTS set bounds its candidates.
                return (catalog.count_meta_exists(attribute),
                        lambda: catalog.candidates_meta_exists(attribute))
        if field_name == "guid" and op is Op.EQ:
            def fetch_guid():
                obj = catalog.lookup_guid(str(value))
                return [obj] if obj is not None else []
            found = catalog.lookup_guid(str(value))
            return (1 if found is not None else 0, fetch_guid)
        if field_name == "path" and op is Op.EQ and isinstance(value, str):
            def fetch_path():
                node = namespace.try_resolve(str(value))
                return [node] if isinstance(node, DataObject) else []
            return (1, fetch_path)
        if (field_name == "size" and op in _SIZE_RANGE_OPS
                and isinstance(value, (int, float))
                and not isinstance(value, bool)):
            return (catalog.count_size(op.value, float(value)),
                    lambda: catalog.candidates_size(op.value, float(value)))
        return (None, None)


# --------------------------------------------------------------------------
# Text form
# --------------------------------------------------------------------------

_CLAUSE_RE = re.compile(
    r"""^\s*(?P<field>[A-Za-z_][\w:.-]*)\s*
        (?P<op>!=|>=|<=|=|>|<|\blike\b|\bcontains\b|\bexists\b)\s*
        (?P<value>.*?)\s*$""",
    re.VERBOSE | re.IGNORECASE,
)


def _parse_value(text: str) -> Union[str, int, float]:
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in ("'", '"'):
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _split_conjuncts(text: str) -> List[str]:
    """Split on ``AND`` keywords, ignoring any inside quoted values.

    A bare ``re.split(r"\\bAND\\b")`` would shear a clause like
    ``meta:note = 'R AND D'`` in half; this scanner tracks single- and
    double-quote state so only top-level connectives split.
    """
    clauses: List[str] = []
    quote: Optional[str] = None
    start = index = 0
    upper = text.upper()
    while index < len(text):
        char = text[index]
        if quote is not None:
            if char == quote:
                quote = None
        elif char in ("'", '"'):
            quote = char
        elif (upper.startswith("AND", index)
              and (index == 0 or not (text[index - 1].isalnum()
                                      or text[index - 1] == "_"))
              and (index + 3 >= len(text)
                   or not (text[index + 3].isalnum()
                           or text[index + 3] == "_"))):
            clauses.append(text[start:index])
            index += 3
            start = index
            continue
        index += 1
    clauses.append(text[start:])
    return clauses


def parse_conditions(text: str) -> List[Condition]:
    """Parse the compact text form: clauses joined with ``AND``.

    >>> parse_conditions("size > 100 AND meta:stage = 'raw'")
    ... # doctest: +ELLIPSIS
    [Condition(...), Condition(...)]
    """
    conditions: List[Condition] = []
    if not text or not text.strip():
        return conditions
    for clause in _split_conjuncts(text):
        clause = clause.strip()
        if not clause:
            raise MetadataError(f"empty clause in query {text!r}")
        match = _CLAUSE_RE.match(clause)
        if match is None:
            raise MetadataError(f"cannot parse query clause {clause!r}")
        op_text = match.group("op").lower()
        op = Op(op_text) if op_text in ("=", "!=", ">", ">=", "<", "<=") else Op[op_text.upper()]
        value_text = match.group("value")
        if op is Op.EXISTS:
            if value_text:
                raise MetadataError(f"'exists' takes no value: {clause!r}")
            value = None
        else:
            if not value_text:
                raise MetadataError(f"operator {op.value!r} needs a value: {clause!r}")
            value = _parse_value(value_text)
        conditions.append(Condition(match.group("field"), op, value))
    return conditions
