"""Cross-shard FIFO proxies: bounded timestamped queues between kernels.

A cut link ``A::o->B::i`` elaborates into three pieces:

- on the producer shard, a normal local link (same name, same capacity)
  whose consumer is an *egress pump* process draining it into the shared
  :class:`CrossShardChannel`;
- the channel itself: a bounded queue of ``(send_time, token)`` pairs plus
  a monotone *horizon* — the producer shard's promise that it will never
  send another token with a timestamp below it (the null message of
  conservative parallel discrete-event simulation);
- on the consumer shard, an *ingress pump* process replaying the queue
  into a local link (same name again) at — or as soon after as the
  consumer's clock allows — each token's send time.

The pumps are raw simulation processes: they never touch the framework
API, so they are invisible to capture, journals and telemetry.  Every
push/pop the application performs still happens on an ordinary
:class:`~repro.pedf.links.LinkInst`, which is why per-shard recording
keeps working unchanged.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple

from ..process import Delay, WaitEvent

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel import Scheduler

#: effectively-infinite horizon for closed channels / finished shards
INFINITE_TIME = 1 << 62


class CrossShardChannel:
    """One cut link's shared queue, horizon and wakeup events."""

    def __init__(self, name: str, capacity: int = 0):
        self.name = name
        self.capacity = capacity  # 0 = unbounded, like Fifo
        self.queue: Deque[Tuple[int, Any]] = deque()
        #: lower bound on the timestamp of any future send (monotone)
        self.horizon = 0
        self.closed = False
        self.src_shard: Optional[int] = None
        self.dst_shard: Optional[int] = None
        self.total_forwarded = 0
        #: bounded log of the most recent forwards, as ``(ordinal,
        #: send_time)`` pairs (ordinal is 1-based FIFO position — the
        #: cross-shard token identity the observability plane keys on)
        self.recent: Deque[Tuple[int, int]] = deque(maxlen=16)
        self.high_water = 0
        self._data_avail = None  # consumer-shard Event
        self._space_avail = None  # producer-shard Event

    # ------------------------------------------------------------ attachment

    def attach_producer(self, scheduler: "Scheduler", shard_id: int) -> None:
        self.src_shard = shard_id
        self._space_avail = scheduler.event(f"xshard:{self.name}.space")

    def attach_consumer(self, scheduler: "Scheduler", shard_id: int) -> None:
        self.dst_shard = shard_id
        self._data_avail = scheduler.event(f"xshard:{self.name}.data")

    # --------------------------------------------------------------- queries

    @property
    def full(self) -> bool:
        return self.capacity > 0 and len(self.queue) >= self.capacity

    def head_time(self) -> Optional[int]:
        return self.queue[0][0] if self.queue else None

    def stats(self) -> Dict[str, Any]:
        """Deterministic forward statistics for the observability plane
        (flight-recorder bundles, ``info aggregate`` cross-checks)."""
        return {
            "link": self.name,
            "route": f"{self.src_shard}->{self.dst_shard}",
            "forwarded": self.total_forwarded,
            "in_flight": len(self.queue),
            "high_water": self.high_water,
            "horizon": "inf" if self.horizon >= INFINITE_TIME else self.horizon,
            "closed": self.closed,
            "recent": list(self.recent),
        }

    # ------------------------------------------------------------- producer

    def send(self, time: int, token: Any) -> None:
        """Forward one token with its producer-side timestamp."""
        self.queue.append((time, token))
        self.total_forwarded += 1
        self.recent.append((self.total_forwarded, time))
        if len(self.queue) > self.high_water:
            self.high_water = len(self.queue)
        if time > self.horizon:
            self.horizon = time
        if self._data_avail is not None:
            self._data_avail.notify()

    def commit_horizon(self, horizon: int) -> bool:
        """Raise the promise (null message).  Returns True on progress."""
        if horizon > self.horizon:
            self.horizon = horizon
            return True
        return False

    def close(self) -> None:
        """The producer will never send again (shard finished)."""
        if not self.closed:
            self.closed = True
            self.horizon = INFINITE_TIME
            if self._data_avail is not None:
                self._data_avail.notify()

    # ------------------------------------------------------------- consumer

    def pop(self) -> Any:
        _, token = self.queue.popleft()
        if self._space_avail is not None:
            self._space_avail.notify()
        return token


def egress_pump(scheduler: "Scheduler", fifo, channel: CrossShardChannel):
    """Producer-shard process: staging link -> channel, with backpressure."""
    while True:
        while channel.full:
            yield WaitEvent(channel._space_avail)
        token = yield from fifo.get()
        channel.send(scheduler.now, token)


def ingress_pump(scheduler: "Scheduler", fifo, channel: CrossShardChannel):
    """Consumer-shard process: channel -> local link, honouring send times.

    The conservative bound guarantees the consumer's clock never *passes*
    an undelivered token's timestamp by more than the +1 lookahead floor,
    so the pump only ever has to delay forward (never rewind)."""
    while True:
        while not channel.queue:
            if channel.closed:
                return
            yield WaitEvent(channel._data_avail)
        t = channel.head_time()
        if t is not None and t > scheduler.now:
            yield Delay(t - scheduler.now)
            continue  # re-check: the head may have been consumed meanwhile
        token = channel.pop()
        yield from fifo.put(token)


class ShardContext:
    """Everything one shard's elaboration needs to know about the cut.

    Handed to :class:`~repro.pedf.runtime.PedfRuntime`; drives which units
    elaborate locally and wires cut links to shared channels.  The
    ``channels`` dict is shared across all shards of a run (or holds
    pipe-backed adapters in the process-pool backend).
    """

    def __init__(self, shard_id: int, plan, channels: Optional[Dict[str, Any]] = None):
        self.shard_id = shard_id
        self.plan = plan
        self.channels: Dict[str, Any] = channels if channels is not None else {}
        #: (local staging LinkInst, channel) pairs, in elaboration order
        self.egress: List[Tuple[Any, Any]] = []
        self.ingress: List[Tuple[Any, Any]] = []

    def owns(self, unit: str) -> bool:
        return self.plan.shard_of(unit) == self.shard_id

    def channel(self, name: str, capacity: int) -> Any:
        ch = self.channels.get(name)
        if ch is None:
            ch = CrossShardChannel(name, capacity)
            self.channels[name] = ch
        return ch
