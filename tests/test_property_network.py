"""Differential property test: the affected-set transfer engine against
its global-recompute reference.

hypothesis draws the domain count, a random spanning tree plus extra
links (latencies and bandwidths), and a transfer schedule; at every
probe instant the incremental :class:`TransferService` must hold exactly
the rates a from-scratch ``full_rates`` recomputation gives, and its
completion times must be bit-identical to
``GlobalRecomputeTransferService``'s.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks._references import GlobalRecomputeTransferService
from repro.network import TransferService
from repro.storage import MB
from tests.test_network_transfer import run_scenario

LINK = st.tuples(st.floats(0.001, 0.02), st.sampled_from([10, 25, 100]))


@st.composite
def scenarios(draw):
    """A connected topology spec and a sorted transfer plan."""
    n_domains = draw(st.integers(2, 12), label="domains")
    domains = [f"d{index}" for index in range(n_domains)]
    spec = []
    for index in range(1, n_domains):
        parent = draw(st.integers(0, index - 1))
        latency, bandwidth = draw(LINK)
        spec.append((domains[parent], domains[index], latency,
                     bandwidth * MB))
    pair = st.tuples(st.sampled_from(domains), st.sampled_from(domains))
    for a, b in draw(st.lists(pair.filter(lambda p: p[0] != p[1]),
                              max_size=6), label="extra links"):
        latency, bandwidth = draw(LINK)
        spec.append((a, b, latency, bandwidth * MB))
    plan = draw(st.lists(
        st.tuples(st.floats(0.0, 5.0), st.sampled_from(domains),
                  st.sampled_from(domains), st.floats(0.0, 80.0)),
        min_size=1, max_size=40), label="plan")
    return spec, sorted((at, src, dst, megabytes * MB)
                        for at, src, dst, megabytes in plan)


@settings(max_examples=25, deadline=None)
@given(scenarios())
def test_affected_set_engine_matches_the_global_reference(scenario):
    spec, plan = scenario
    incremental = run_scenario(spec, plan, TransferService, check_rates=True)
    reference = run_scenario(spec, plan, GlobalRecomputeTransferService)
    assert incremental == reference
