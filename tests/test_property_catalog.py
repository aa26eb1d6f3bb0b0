"""Differential property test: the catalog query planner against the
brute-force ``scan`` reference.

hypothesis draws the namespace size and shape (collection nesting,
metadata and sizes come from a drawn seed) and a stream of queries; the
planner's answer must equal the scan's, in order, every time. Size
thresholds are drawn from the namespace's own object sizes, so the
boundary of every size range (``<=`` and ``>=`` keep an object whose
size equals the threshold, ``<`` and ``>`` drop it) is exercised.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import Condition, Op, Query
from tests.test_grid_catalog import (
    assert_equivalent,
    build_random_namespace,
    random_query,
)

_SIZE_OPS = (Op.LT, Op.LE, Op.GT, Op.GE, Op.EQ)


def _at_namespace_sizes(query: Query, rng, sizes) -> Query:
    """``query`` with its size conjuncts re-drawn on the namespace's own
    object sizes, plus one more size conjunct."""
    if not sizes:
        return query
    conditions = [
        Condition("size", condition.op, rng.choice(sizes))
        if condition.field == "size" else condition
        for condition in query.conditions]
    conditions.append(Condition("size", rng.choice(_SIZE_OPS),
                                rng.choice(sizes)))
    return dataclasses.replace(query, conditions=conditions)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_objects=st.integers(0, 300),
       rng=st.randoms(use_true_random=False))
def test_planner_matches_scan_on_drawn_namespaces(seed, n_objects, rng):
    ns = build_random_namespace(seed, n_objects)
    sizes = sorted(obj.size for obj in ns.iter_objects("/"))
    for _ in range(10):
        assert_equivalent(
            _at_namespace_sizes(random_query(rng, ns), rng, sizes), ns)
