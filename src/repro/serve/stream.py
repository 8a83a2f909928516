"""Streaming (O(1)-memory) metric accumulators for the fleet simulator.

Million-job traces cannot afford per-job metric lists: this module
provides the constant-space accumulators the scheduler
(:func:`repro.serve.scheduler.simulate_fleet_streaming`) folds each
job into as it dispatches —

* :class:`P2Quantile` — the P² algorithm of Jain & Chlamtac (1985):
  five markers track one quantile of an unbounded observation stream
  with parabolic height adjustment, O(1) memory and O(1) update.  The
  target quantile may drift per observation (the standard adaptive
  extension), which the zero-split wrapper below relies on.
* :class:`StreamingStats` — running count / sum / max plus
  *zero-split* P² percentiles: queueing-wait streams carry a large
  point mass at exactly zero (jobs that dispatch immediately), which
  plain P² smears badly, so zeros are counted exactly and only the
  positive substream feeds the markers, each estimator re-targeted to
  the equivalent substream quantile.  Pinned by tolerance tests
  against the exact nearest-rank percentiles on small traces.
"""

from __future__ import annotations


class P2Quantile:
    """P² streaming estimator of one quantile in [0, 1]."""

    __slots__ = ("p", "_count", "_heights", "_positions")

    def __init__(self, p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {p}")
        self.p = p
        self._count = 0
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]

    def __len__(self) -> int:
        return self._count

    def add(self, x: float, p: float | None = None) -> None:
        """Fold one observation in, optionally drifting the target.

        ``p`` overrides the target quantile for this update (adaptive
        P²: the desired marker positions advance by the *current*
        target, so a converging ``p`` sequence converges the marker).
        """
        if p is None:
            p = self.p
        else:
            self.p = p
        self._count += 1
        q = self._heights
        if self._count <= 5:
            q.append(x)
            q.sort()
            return
        n = self._positions
        # Locate the marker cell and clamp the extreme heights.
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        elif x < q[1]:
            k = 0
        elif x < q[2]:
            k = 1
        elif x < q[3]:
            k = 2
        else:
            k = 3
        for i in range(k + 1, 5):
            n[i] += 1.0
        # Desired marker positions from the *current* count and target
        # (not incrementally accumulated): with a drifting target the
        # stale early increments would otherwise bias the markers for
        # the rest of the stream.
        span = self._count - 1.0
        desired = (1.0, 1.0 + span * p / 2.0, 1.0 + span * p,
                   1.0 + span * (1.0 + p) / 2.0, 1.0 + span)
        # Adjust the three interior markers toward their desired
        # positions, parabolically when the result stays monotone.
        for i in (1, 2, 3):
            d = desired[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or \
                    (d <= -1.0 and n[i - 1] - n[i] < -1.0):
                d = 1.0 if d > 0 else -1.0
                qi = q[i] + d / (n[i + 1] - n[i - 1]) * (
                    (n[i] - n[i - 1] + d) * (q[i + 1] - q[i])
                    / (n[i + 1] - n[i])
                    + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1])
                    / (n[i] - n[i - 1]))
                if not q[i - 1] < qi < q[i + 1]:  # fall back to linear
                    j = i + int(d)
                    qi = q[i] + d * (q[j] - q[i]) / (n[j] - n[i])
                q[i] = qi
                n[i] += d

    def seed(self, sorted_sample: list[float], p: float) -> None:
        """Initialize the markers from an exact sorted sample.

        Places the five markers at the sample's true quantile ranks for
        target ``p`` — the warmup hand-off of :class:`StreamingStats`:
        an exact buffer absorbs the unstable early stream (where the
        zero fraction, and therefore the re-targeted quantile, still
        drifts), then seeds the estimator with converged markers.
        """
        self.p = p
        n = len(sorted_sample)
        self._count = n
        if n <= 5:
            self._heights = list(sorted_sample)
            self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
            return
        span = n - 1.0
        ideal = (1.0, 1.0 + span * p / 2.0, 1.0 + span * p,
                 1.0 + span * (1.0 + p) / 2.0, float(n))
        ranks: list[int] = []
        for i, position in enumerate(ideal):
            low = ranks[-1] + 1 if ranks else 1
            ranks.append(max(low, min(round(position), n - (4 - i))))
        self._heights = [float(sorted_sample[r - 1]) for r in ranks]
        self._positions = [float(r) for r in ranks]

    def value(self) -> float:
        """Current quantile estimate (0.0 on an empty stream).

        Below five observations the estimate is the exact nearest-rank
        percentile of the buffered sample.
        """
        count = self._count
        if count == 0:
            return 0.0
        if count <= 5:
            rank = max(1, min(count, -(-int(count * self.p * 1000) // 1000)))
            return float(self._heights[rank - 1])
        return float(self._heights[2])


#: Observations buffered exactly before the P² hand-off.  Below this
#: count every quantile is the exact nearest-rank percentile; past it
#: memory stays constant regardless of stream length.
WARMUP_OBSERVATIONS = 4096


class StreamingStats:
    """Zero-split running stats of one nonnegative observation stream.

    Tracks count / sum / max in O(1) and estimates percentiles in two
    regimes:

    * the first :data:`WARMUP_OBSERVATIONS` observations are buffered
      and quantiles answered *exactly* (nearest-rank, matching
      :func:`repro.serve.metrics.percentile`) — small traces never see
      an approximation;
    * past the warmup the buffer seeds one :class:`P2Quantile` per
      requested percentile and is dropped.  Exact-zero observations
      (jobs that dispatched without queueing — a large point mass in
      wait streams) are only ever *counted*: each estimator tracks the
      positive substream, re-targeted every update to the equivalent
      substream quantile ``(p * count - zeros) / positives``, and
      ``quantile(p)`` is exactly 0.0 whenever the zero mass alone
      covers ``p``.
    """

    __slots__ = ("count", "zeros", "total", "maximum", "_estimators",
                 "_items", "_buffer")

    def __init__(self, quantiles: tuple[float, ...] = (0.5, 0.95, 0.99)
                 ) -> None:
        self.count = 0
        self.zeros = 0
        self.total = 0.0
        self.maximum = 0.0
        self._estimators = {p: P2Quantile(p) for p in quantiles}
        self._items = list(self._estimators.items())
        self._buffer: list[float] | None = []

    def _adjusted(self, p: float) -> float:
        positives = self.count - self.zeros
        adjusted = (p * self.count - self.zeros) / positives
        return min(max(adjusted, 0.0), 1.0)

    def _graduate(self) -> None:
        """Seed the P² estimators from the warmup buffer and drop it."""
        sample = sorted(self._buffer)
        for target, estimator in self._estimators.items():
            estimator.seed(sample, self._adjusted(target)
                           if sample else target)
        self._buffer = None

    def add(self, x: float) -> None:
        self.count += 1
        if x > 0.0:
            self.total += x
            if x > self.maximum:
                self.maximum = x
        else:
            self.zeros += 1
        if self._buffer is not None:
            if x > 0.0:
                self._buffer.append(x)
            if self.count >= WARMUP_OBSERVATIONS:
                self._graduate()
            return
        if x > 0.0:
            positives = self.count - self.zeros
            zeros = self.zeros
            n = self.count
            for target, estimator in self._items:
                adjusted = (target * n - zeros) / positives
                estimator.add(
                    x, 0.0 if adjusted < 0.0
                    else 1.0 if adjusted > 1.0 else adjusted)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, p: float) -> float:
        """Streaming estimate of the ``p`` quantile of the full stream.

        Exact while the warmup buffer is alive; P²-approximate after,
        and then nondecreasing across the tracked ``p``.
        Only the quantiles named at construction are answerable — the
        markers exist per target — and that contract holds in both
        regimes (the warmup buffer could answer any ``p``, but
        allowing it would make the API silently degrade at
        graduation).
        """
        if p not in self._estimators:
            raise ValueError(
                f"quantile {p} not tracked; this stream records "
                f"{sorted(self._estimators)}")
        if self.count == 0:
            return 0.0
        if self._buffer is not None:
            rank = max(1.0, -(-self.count * (p * 100) // 100))
            if rank <= self.zeros:
                return 0.0
            positives = sorted(self._buffer)
            return float(positives[int(rank) - self.zeros - 1])
        # The P² markers of different targets move independently and
        # can cross on non-stationary streams; answering from the
        # sorted estimates keeps quantiles nondecreasing in p.
        estimates = sorted(
            0.0 if target * self.count <= self.zeros
            else estimator.value()
            for target, estimator in self._items)
        return estimates[sorted(self._estimators).index(p)]

    def to_dict(self) -> dict[str, float]:
        """JSON summary: count / mean / max plus every tracked quantile.

        The serialization the observability layer's streamed
        histograms (:class:`repro.obs.metrics.Histogram`) emit —
        quantile keys are ``p50``-style, from the targets named at
        construction.
        """
        summary: dict[str, float] = {
            "count": float(self.count),
            "mean": self.mean,
            "max": self.maximum,
        }
        for p in sorted(self._estimators):
            summary[f"p{100 * p:g}"] = self.quantile(p)
        return summary
