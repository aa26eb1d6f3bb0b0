"""Label-aware metrics clocked on virtual time.

§2.1 demands a "programmatic API to query and monitor any step in the
datagrid ILM process"; the operational half of that requirement is a
metrics surface. This module provides the three classic instrument kinds —
:class:`Counter`, :class:`Gauge`, :class:`Histogram` — registered in a
:class:`MetricsRegistry` and stamped with **simulation time**
(:attr:`~repro.sim.kernel.Environment.now`), never wall time, so a run's
telemetry is as deterministic as the run itself.

Each instrument is label-aware in the Prometheus style: ``counter.labels
(policy="archive").inc()`` tracks one time series per label combination.
Label-less instruments are their own single series, so hot paths can hold
a direct reference and call ``inc()`` / ``observe()`` with no dict work.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS"]

#: Default histogram bucket upper bounds (seconds-ish scale; virtual time
#: in this reproduction spans milliseconds to months).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0, 3600.0, 86400.0, 604800.0)


class _Instrument:
    """Shared base: name, help text, label plumbing, child management."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: Tuple[str, ...],
                 clock: Callable[[], float]) -> None:
        self.name = name
        self.help_text = help_text
        self.labelnames = labelnames
        self._clock = clock
        self._children: Dict[Tuple[str, ...], "_Instrument"] = {}
        #: Sim time of the most recent update to *any* series.
        self.last_updated: Optional[float] = None

    def labels(self, **labels: object) -> "_Instrument":
        """The child series for one label combination (created on demand).

        Label values are stringified; the combination must bind exactly
        the registered label names.
        """
        try:
            key = tuple(str(labels[name]) for name in self.labelnames)
        except KeyError:
            key = None
        if key is None or len(labels) != len(self.labelnames):
            raise ReproError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        child = self._children.get(key)
        if child is None:
            child = type(self)(self.name, self.help_text, (), self._clock)
            self._children[key] = child
        return child

    def series(self) -> Iterable[Tuple[Tuple[str, ...], "_Instrument"]]:
        """All (label values, series) pairs; label-less = one empty key."""
        if self.labelnames:
            return list(self._children.items())
        return [((), self)]

    def _touch(self) -> None:
        self.last_updated = self._clock()


class Counter(_Instrument):
    """A monotonically increasing count (events, bytes, retries)."""

    kind = "counter"

    def __init__(self, name, help_text="", labelnames=(),
                 clock=lambda: 0.0) -> None:
        super().__init__(name, help_text, tuple(labelnames), clock)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the label-less series."""
        if amount < 0:
            raise ReproError(f"counter {self.name!r} cannot decrease")
        self.value += amount
        self.last_updated = self._clock()


class Gauge(_Instrument):
    """A value that can go up and down (queue depth, utilization)."""

    kind = "gauge"

    def __init__(self, name, help_text="", labelnames=(),
                 clock=lambda: 0.0) -> None:
        super().__init__(name, help_text, tuple(labelnames), clock)
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value`` at the current sim time."""
        self.value = float(value)
        self._touch()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        self.value += amount
        self._touch()

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self.inc(-amount)


class Histogram(_Instrument):
    """A distribution with cumulative buckets plus raw stamped samples.

    Besides the Prometheus-style bucket counts / sum / count, every
    observation is kept as a ``(sim_time, value)`` pair so exports can
    replay the full sample stream (the JSONL exporter does).
    """

    kind = "histogram"

    def __init__(self, name, help_text="", labelnames=(),
                 clock=lambda: 0.0, buckets=DEFAULT_BUCKETS) -> None:
        super().__init__(name, help_text, tuple(labelnames), clock)
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        self.bucket_counts: List[int] = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        #: Raw (sim_time, value) observations, in observation order.
        #: Hot paths append here directly and leave the bucket work to
        #: :meth:`_fold` (run by ``Telemetry.collect`` at export time).
        self.samples: List[Tuple[float, float]] = []
        self._folded = 0

    def labels(self, **labels: object) -> "Histogram":
        """Child series; inherits this histogram's bucket boundaries."""
        child = super().labels(**labels)
        child.buckets = self.buckets
        if len(child.bucket_counts) != len(self.buckets) + 1:
            child.bucket_counts = [0] * (len(self.buckets) + 1)
        return child  # type: ignore[return-value]

    def observe(self, value: float) -> None:
        """Record one observation, at the current sim time.

        Buckets, sum, and count update immediately. Hot paths skip this
        method and append ``(at, value)`` to :attr:`samples` directly;
        :meth:`_fold` catches the buckets up at export time.
        """
        self.samples.append((self._clock(), value))
        self._fold()

    def _fold(self) -> None:
        """Fold samples not yet in the buckets into them (idempotent)."""
        samples = self.samples
        folded = self._folded
        total = len(samples)
        if folded == total:
            return
        buckets = self.buckets
        counts = self.bucket_counts
        for when, value in samples[folded:]:
            counts[bisect.bisect_left(buckets, value)] += 1
            self.sum += value
        self.count = total
        self._folded = total
        self.last_updated = samples[-1][0]


class MetricsRegistry:
    """Owns every instrument of one telemetry session.

    ``clock`` supplies the timestamp for every sample — wire it to
    ``lambda: env.now`` so all series share the simulation clock.
    Registering the same name twice returns the existing instrument
    (names are the identity, as in Prometheus).
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self._metrics: Dict[str, _Instrument] = {}

    def _register(self, cls, name: str, help_text: str,
                  labelnames, **kwargs) -> _Instrument:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ReproError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}")
            return existing
        metric = cls(name, help_text, tuple(labelnames), self.clock,
                     **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_text: str = "",
                labelnames: Iterable[str] = ()) -> Counter:
        """Get or create a counter."""
        return self._register(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Iterable[str] = ()) -> Gauge:
        """Get or create a gauge."""
        return self._register(Gauge, name, help_text, labelnames)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Iterable[str] = (),
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        """Get or create a histogram."""
        return self._register(Histogram, name, help_text, labelnames,
                              buckets=tuple(buckets))

    def get(self, name: str) -> Optional[_Instrument]:
        """The instrument called ``name``, if registered."""
        return self._metrics.get(name)

    def metrics(self) -> List[_Instrument]:
        """All instruments, in registration order."""
        return list(self._metrics.values())
