"""Per-actor counters and per-link gauges/histograms.

Everything here is updated by the span builder from the normalised
telemetry event stream, so the same registry contents are reproducible
from a :class:`~repro.sim.replay.ReplayJournal` (the deriver) — the
``render()`` output is deterministic and is compared byte-for-byte in
the equivalence tests.

Latency histograms use power-of-two buckets (0, 1, 2, 4, 8, ... sim
ticks): O(1) insert, bounded size, and exactly reproducible — no
quantile estimation.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class Histogram:
    """Power-of-two-bucketed histogram of non-negative integer samples."""

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def add(self, value: int) -> None:
        bucket = 0 if value <= 0 else 1 << (value - 1).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def bounds(self) -> List[tuple]:
        """Cumulative ``(upper_bound, count)`` pairs in ascending bound
        order — the OpenMetrics bucket shape.  Empty histogram → ``[]``."""
        out: List[tuple] = []
        running = 0
        for bound in sorted(self.buckets):
            running += self.buckets[bound]
            out.append((bound, running))
        return out

    def percentile(self, q: float) -> int:
        """The q-th percentile (0..100) as a bucket upper bound, clamped
        to the observed ``[min, max]`` range.

        Well-defined at the edges rather than raising: an empty histogram
        reports 0, and a single-bucket (or single-sample) histogram
        reports the exact observed range endpoint instead of the coarse
        power-of-two bound.
        """
        if not self.count:
            return 0
        if q <= 0:
            return self.min or 0
        target = self.count if q >= 100 else int(self.count * q / 100.0) + 1
        if target > self.count:
            target = self.count
        for bound, cumulative in self.bounds():
            if cumulative >= target:
                # clamp the pow-2 bound to the observed range so degenerate
                # shapes (one sample, one bucket) stay exact
                lo = self.min or 0
                hi = self.max if self.max is not None else bound
                return max(lo, min(bound, hi))
        return self.max if self.max is not None else 0  # pragma: no cover

    def summary(self) -> Dict[str, float]:
        """Fixed-key summary dict, total order defined for every shape
        including zero samples (all zeros) and one bucket."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0,
            "mean": round(self.mean, 4),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self.max if self.max is not None else 0,
        }

    def render(self) -> str:
        if not self.count:
            return "(empty)"
        body = " ".join(f"<={b}:{n}" for b, n in sorted(self.buckets.items()))
        return f"n={self.count} min={self.min} mean={self.mean:.2f} max={self.max} [{body}]"


class ActorMetrics:
    """Counters for one actor (filter, controller, or host source/sink)."""

    __slots__ = ("firings", "steps", "produced", "consumed", "busy", "blocked")

    def __init__(self) -> None:
        self.firings = 0  # WORK invocations (filters)
        self.steps = 0  # scheduling steps (controllers)
        self.produced = 0  # tokens pushed
        self.consumed = 0  # tokens popped
        self.busy = 0  # sim ticks executing Filter-C, net of framework calls
        self.blocked = 0  # sim ticks inside framework calls during a firing/step

    def render(self) -> str:
        return (
            f"firings={self.firings} steps={self.steps} "
            f"produced={self.produced} consumed={self.consumed} "
            f"busy={self.busy} blocked={self.blocked}"
        )


class LinkMetrics:
    """Gauges and histograms for one link (occupancy, latency)."""

    __slots__ = (
        "pushes",
        "pops",
        "occupancy",
        "high_water",
        "occ_integral",
        "_last_time",
        "push_latency",
        "pop_latency",
    )

    def __init__(self) -> None:
        self.pushes = 0
        self.pops = 0
        self.occupancy = 0  # tokens in flight, as derived from push/pop exits
        self.high_water = 0
        #: time-weighted occupancy integral (token·ticks since t=0)
        self.occ_integral = 0
        self._last_time = 0
        self.push_latency = Histogram()  # push call duration, sim ticks
        self.pop_latency = Histogram()  # pop call duration, sim ticks

    def _advance(self, time: int) -> None:
        if time > self._last_time:
            self.occ_integral += self.occupancy * (time - self._last_time)
            self._last_time = time

    def on_push(self, time: int, duration: int) -> None:
        self._advance(time)
        self.pushes += 1
        self.occupancy += 1
        if self.occupancy > self.high_water:
            self.high_water = self.occupancy
        self.push_latency.add(duration)

    def on_pop(self, time: int, duration: int) -> None:
        self._advance(time)
        self.pops += 1
        # tokens injected by the debugger are popped without a matching
        # observed push; the derived gauge clamps at zero
        if self.occupancy > 0:
            self.occupancy -= 1
        self.pop_latency.add(duration)

    def mean_occupancy(self, until: int) -> float:
        self._advance(until)
        return self.occ_integral / until if until > 0 else 0.0

    def render(self, until: int) -> List[str]:
        return [
            f"pushed={self.pushes} popped={self.pops} queued={self.occupancy} "
            f"peak={self.high_water} avg={self.mean_occupancy(until):.3f}",
            f"  push latency: {self.push_latency.render()}",
            f"  pop latency:  {self.pop_latency.render()}",
        ]


class MetricsRegistry:
    """All per-actor and per-link metrics for one run (live or derived)."""

    def __init__(self) -> None:
        self.actors: Dict[str, ActorMetrics] = {}
        self.links: Dict[str, LinkMetrics] = {}
        #: simulated time of the last event fed to the builder — the
        #: horizon occupancy integrals are closed against
        self.last_time = 0

    def actor(self, name: str) -> ActorMetrics:
        m = self.actors.get(name)
        if m is None:
            m = self.actors[name] = ActorMetrics()
        return m

    def link(self, name: str) -> LinkMetrics:
        m = self.links.get(name)
        if m is None:
            m = self.links[name] = LinkMetrics()
        return m

    def render(self) -> List[str]:
        """Deterministic text report (compared byte-for-byte in tests)."""
        lines: List[str] = [f"metrics through t={self.last_time}"]
        lines.append("actors:")
        for name in sorted(self.actors):
            lines.append(f"  {name}: {self.actors[name].render()}")
        if not self.actors:
            lines.append("  (none)")
        lines.append("links:")
        for name in sorted(self.links):
            head, *rest = self.links[name].render(self.last_time)
            lines.append(f"  {name}: {head}")
            lines.extend(f"  {r}" for r in rest)
        if not self.links:
            lines.append("  (none)")
        return lines
