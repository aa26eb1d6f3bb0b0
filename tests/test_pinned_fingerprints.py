"""The pinned sweep fingerprints, asserted where tier-1 runs.

The determinism contract is the product: the same seeds must give the
same bytes, so provenance recorded years ago stays replayable. Both
sweeps run at their full pinned size (20 grid seeds, 10 federation
seeds; ~0.25 s together) regardless of ``CHAOS_SEEDS`` /
``FEDERATION_CHAOS_SEEDS``, and are hashed by the one
:func:`~repro.workloads.chaos.sweep_fingerprint`.
"""

from pathlib import Path

import pytest

from repro.federation.chaos import run_federation_sweep
from repro.workloads.chaos import run_chaos_sweep, sweep_fingerprint

_BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.mark.parametrize("pin, sweep, n_seeds", [
    ("chaos_sweep_baseline.sha256", run_chaos_sweep, 20),
    ("federation_chaos_baseline.sha256", run_federation_sweep, 10),
], ids=["grid", "federation"])
def test_sweep_matches_its_pinned_fingerprint(pin, sweep, n_seeds):
    reports = sweep(seeds=list(range(n_seeds)))
    assert all(report.ok for report in reports), [
        (report.seed, report.violations) for report in reports
        if not report.ok]
    pinned = (_BENCHMARKS / pin).read_text().strip()
    assert sweep_fingerprint(reports) == pinned
