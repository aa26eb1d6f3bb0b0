"""Eventually-consistent digest propagation between the RLS tiers.

A zone's Local Replica Catalog changes the moment its namespace does;
the sharded index only learns about it when the zone *republishes* the
affected shard digests. Real federations batch that publication — the
EU DataGrid RLI accepted soft-state updates on a period — and this
module models exactly that as seeded sim-time machinery:

* every LRC membership change marks the guid's shard **dirty** on the
  zone's :class:`DigestSyncer`;
* the first dirty mark schedules one flush a jittered period later
  (drawn from the zone's own ``federation/sync/<zone>`` substream, so
  sync timing never perturbs any other stochastic component);
* the flush republishes every dirty shard at once and the cycle re-arms
  on the next change.

Staleness is therefore **bounded**: an index answer can lag the
authoritative catalogs by at most ``period_s * (1 + JITTER)`` sim
seconds (:attr:`DigestSyncer.staleness_bound_s`), and because flushes
ride kernel timeouts the bound is exact, visible, and testable in sim
time — advance the clock past the bound and a fresh replica becomes
locatable. Idle zones schedule nothing, so a drained simulation
(``env.run()``) terminates: the syncer is event-driven, not a free-
running heartbeat.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.rng import RandomStreams

__all__ = ["DigestSyncer", "SYNC_STREAM_PREFIX"]

#: Per-zone substream prefix sync jitter draws from.
SYNC_STREAM_PREFIX = "federation/sync/"

#: Each flush waits ``period_s`` scaled by a uniform draw from
#: ``[1 - JITTER, 1 + JITTER]``.
JITTER = 0.2


class DigestSyncer:
    """Bounded-staleness digest publication for one zone."""

    def __init__(self, env, service, lrc, period_s: float = 5.0,
                 streams: Optional[RandomStreams] = None) -> None:
        if period_s <= 0:
            raise ValueError(f"sync period must be positive: {period_s}")
        self.env = env
        self.service = service
        self.lrc = lrc
        self.period_s = float(period_s)
        streams = streams if streams is not None else RandomStreams(0)
        self.rng = streams.stream(SYNC_STREAM_PREFIX + lrc.zone_name)
        # Dirty shard indexes (dict-as-ordered-set; sorted at flush).
        self._dirty: Dict[int, None] = {}
        self._flush_armed = False
        #: Flush/publication counters for reports and tests.
        self.flushes = 0
        self.shards_published = 0
        lrc.listeners.append(self._on_change)

    @property
    def staleness_bound_s(self) -> float:
        """Worst-case lag between a catalog change and its digest."""
        return self.period_s * (1.0 + JITTER)

    @property
    def pending_shards(self) -> List[int]:
        """Shards dirty but not yet republished, sorted."""
        return sorted(self._dirty)

    # -- the dirty feed -------------------------------------------------------

    def _on_change(self, guid: str) -> None:
        self._dirty[self.service.index.shard_of(guid)] = None
        if self._flush_armed:
            return   # changes join the already-scheduled batch
        self._flush_armed = True
        delay = self.period_s * (1.0 + self.rng.uniform(-JITTER, JITTER))
        timeout = self.env.timeout(delay)
        timeout.callbacks.append(self._flush)

    def _flush(self, _event) -> None:
        self._flush_armed = False
        self._publish_dirty()

    def _publish_dirty(self) -> None:
        shards = sorted(self._dirty)
        self._dirty.clear()
        if not shards:
            return
        self.service.publish_shards(self.lrc.zone_name, shards)
        self.flushes += 1
        self.shards_published += len(shards)

    def flush_now(self) -> None:
        """Publish every pending dirty shard immediately.

        Convergence helper for end-of-run invariant checks: after all
        syncers flush, every index answer is current. A still-armed
        timer fires later on an empty dirty set and publishes nothing.
        """
        self._publish_dirty()
