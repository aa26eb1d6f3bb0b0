"""Synthetic workload generators.

Deterministic (seeded) builders for the populations and flow shapes the
benchmarks sweep over: collections of files with size distributions and
metadata, and bag-of-steps and chain flows.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro.dgl.builder import flow_builder
from repro.dgl.model import Flow
from repro.grid.dgms import DataGridManagementSystem
from repro.grid.users import User
from repro.storage import MB

__all__ = [
    "populate_collection", "uniform_sizes", "lognormal_sizes",
    "sleep_bag_flow", "sleep_chain_flow",
]


def uniform_sizes(rng: random.Random, low: float = MB,
                  high: float = 100 * MB) -> Callable[[], float]:
    """Sampler: uniform object sizes in [low, high]."""
    return lambda: rng.uniform(low, high)


def lognormal_sizes(rng: random.Random, median: float = 10 * MB,
                    sigma: float = 1.0) -> Callable[[], float]:
    """Sampler: heavy-tailed object sizes (the realistic archive shape)."""
    import math
    mu = math.log(median)
    return lambda: rng.lognormvariate(mu, sigma)


def populate_collection(dgms: DataGridManagementSystem, user: User,
                        collection: str, count: int, resource: str,
                        size: Optional[Callable[[], float]] = None,
                        metadata: Optional[Callable[[int], Dict]] = None,
                        name_prefix: str = "obj"):
    """Generator (sim process body): ingest ``count`` objects.

    Returns the list of created paths. ``size`` is a sampler (default
    1 MB constant); ``metadata`` maps the object index to its AVUs.
    """
    if not dgms.namespace.exists(collection):
        dgms.create_collection(user, collection, parents=True)
    paths: List[str] = []
    for index in range(count):
        path = f"{collection}/{name_prefix}-{index:05d}.dat"
        nbytes = size() if size is not None else float(MB)
        avus = metadata(index) if metadata is not None else None
        yield dgms.put(user, path, nbytes, resource, metadata=avus)
        paths.append(path)
    return paths


def sleep_bag_flow(name: str, count: int, duration: float,
                   parallel: bool = False,
                   max_concurrent: int = 0) -> Flow:
    """A flow of ``count`` independent fixed-duration steps."""
    builder = flow_builder(name)
    if parallel:
        builder.parallel(max_concurrent=max_concurrent)
    for index in range(count):
        builder.step(f"task-{index:05d}", "dgl.sleep", duration=duration)
    return builder.build()


def sleep_chain_flow(name: str, depth: int, duration: float) -> Flow:
    """A maximally nested chain: one step per nesting level (ablation A1)."""
    inner = flow_builder(f"{name}-level-{depth - 1}").step(
        "work", "dgl.sleep", duration=duration)
    for level in range(depth - 2, -1, -1):
        outer = flow_builder(f"{name}-level-{level}")
        outer.subflow(inner)
        inner = outer
    return inner.build()
