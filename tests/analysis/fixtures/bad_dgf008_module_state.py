"""BAD: module-level mutable state mutated from inside functions.

The cache outlives every Environment: back-to-back runs in one process
(a seed sweep) see each other's entries, so a seed's output depends on
which seeds ran before it — same inputs, different outputs.
"""

_ROUTE_CACHE = {}

SEEN_ZONES = set()


def best_route(src: str, dst: str, topology) -> list:
    key = (src, dst)
    if key not in _ROUTE_CACHE:
        _ROUTE_CACHE[key] = topology.shortest_path(src, dst)
    return _ROUTE_CACHE[key]


def note_zone(zone: str) -> None:
    SEEN_ZONES.add(zone)
