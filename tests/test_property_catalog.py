"""Differential property test: the catalog query planner against the
brute-force ``scan`` reference.

hypothesis draws the namespace size and shape (collection nesting,
metadata and sizes come from a drawn seed) and a stream of queries; the
planner's answer must equal the scan's, in order, every time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.test_grid_catalog import (
    assert_equivalent,
    build_random_namespace,
    random_query,
)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_objects=st.integers(0, 300),
       rng=st.randoms(use_true_random=False))
def test_planner_matches_scan_on_drawn_namespaces(seed, n_objects, rng):
    ns = build_random_namespace(seed, n_objects)
    for _ in range(10):
        assert_equivalent(random_query(rng, ns), ns)
