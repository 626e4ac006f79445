"""Cross-shard telemetry aggregation: one run-level view from N kernels.

A sharded run (PR 6) records one ReplayJournal per shard kernel.  Each
journal is independently derivable into spans + metrics (PR 4), but the
story of the *run* — which actor was busy, how a token travelled across
a cut link — needs the per-shard streams stitched back together.  This
module does that deterministically:

- **merge**: every shard's journal is replayed through
  :func:`~repro.sim.replay.replay_into` — the same
  :class:`~repro.sim.trace.EventRecord` stream the single-kernel
  deriver uses — merged into one global stream ordered by
  ``(time, shard, event index)`` (a stable total order; per-track
  nesting is preserved because tracks are shard-disjoint), and fed
  through a single
  :class:`~repro.obs.builder.TelemetryBuilder`.  Metrics for a cut link
  become *exact* on the merged timeline: pushes observed on the
  producer shard interleave with pops observed on the consumer shard.
- **stitching**: for each cut link, the Nth push exit (producer shard)
  and the Nth pop exit (consumer shard) are the same token — FIFO
  channels forward in order — so they form a
  :class:`CrossShardEdge` (the DeWiz-style causal cross-process edge),
  cross-checked against ``CrossShardChannel.total_forwarded``.
- **canonical projection**: sharded execution genuinely reorders
  concurrent events across shards (quantum barriers shift timestamps,
  token seqs are per-shard), so raw span bytes cannot match a
  single-kernel run.  What *is* invariant — per the Kahn-determinism
  contract PR 6 proves via link-stream fingerprints — is everything
  order-determined: per-actor work done (firings, steps, produced,
  consumed, interpreter-charged busy cycles), per-link token counts and
  value streams, and each actor's ordered span sequence with io spans
  identified by their per-link token ordinal rather than shard-local
  seq numbers.  :meth:`AggregateTelemetry.canonical_lines` renders
  exactly that projection, and the equivalence tests compare it
  byte-for-byte against the same projection of single-kernel
  ``derive_telemetry`` output (per-kernel elaboration scaffolding — the
  ``pedf.init`` track — is excluded by definition).

The merged view exports as a multi-process Chrome trace (one process
lane per shard, stable pid/tid mapping) with cut-link io spans
annotated by their cross-shard edge.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..errors import DataflowDebugError
from ..pedf.api import SYM_POP, SYM_PUSH
from ..sim.replay import replay_into
from ..sim.sharding.merge import stream_digest
from .builder import INIT_TRACK, TelemetryBuilder
from .export import to_chrome_trace_multi
from .metrics import MetricsRegistry
from .spans import Span, SpanSink


class CrossShardEdge(NamedTuple):
    """One token's journey across a cut link: the causal edge stitching
    an egress push (producer shard) to its ingress pop (consumer
    shard).  ``ordinal`` is the token's 1-based position in the link's
    FIFO stream — the shard-invariant identity."""

    link: str
    ordinal: int
    src_shard: int
    dst_shard: int
    send_time: int  # producer-side push exit
    recv_time: int  # consumer-side pop exit

    def describe(self) -> str:
        return (
            f"{self.link}#{self.ordinal}: shard {self.src_shard} t={self.send_time} "
            f"-> shard {self.dst_shard} t={self.recv_time}"
        )


class AggregateTelemetry:
    """The stitched run-level view: merged spans + metrics + edges."""

    def __init__(self, n_shards: int, cut_links: Optional[set] = None) -> None:
        self.n_shards = n_shards
        self.cut_links: set = cut_links or set()
        self.sink = SpanSink()
        self.metrics = MetricsRegistry()
        self.builder = TelemetryBuilder(self.sink, self.metrics)
        #: first shard each track was observed on (tracks are
        #: shard-disjoint; init tracks are per-shard by construction)
        self.track_shard: Dict[str, int] = {}
        self.edges: List[CrossShardEdge] = []
        #: per-link merged value streams (producer-order token values)
        self.streams: Dict[str, List[str]] = {}
        self.warnings: List[str] = []

    # -------------------------------------------------------- projection

    def canonical_lines(self) -> List[str]:
        """The timing-invariant canonical projection (see module doc).

        Byte-identical between a sharded run and the single-kernel run
        of the same program, at any shard count — the merge-determinism
        contract.
        """
        lines = ["canonical telemetry v1"]
        m = self.metrics
        for name in sorted(m.actors):
            a = m.actors[name]
            lines.append(
                f"actor {name}: firings={a.firings} steps={a.steps} "
                f"produced={a.produced} consumed={a.consumed} busy={a.busy}"
            )
        for name in sorted(m.links):
            link = m.links[name]
            lines.append(f"link {name}: pushed={link.pushes} popped={link.pops}")
        for name in sorted(self.streams):
            values = self.streams[name]
            lines.append(
                f"stream {name}: n={len(values)} sha256={stream_digest(values)}"
            )
        ordinals: Dict[Tuple[str, str], int] = {}
        tracks: Dict[str, List[str]] = {}
        for span in self.sink.snapshot().spans:
            if span.track.startswith(INIT_TRACK):
                continue  # per-kernel elaboration scaffolding
            args = dict(span.args)
            link = args.get("link")
            if link is not None:
                key = (link, span.name)
                ordinals[key] = ordinals.get(key, 0) + 1
                label = f"{span.name}[{link}#{ordinals[key]}]"
            else:
                label = span.name
            tracks.setdefault(span.track, []).append(label)
        for track in sorted(tracks):
            lines.append(f"track {track}: " + " ".join(tracks[track]))
        return lines

    def canonical_fingerprint(self) -> str:
        """sha256 over the canonical projection — the run-level analogue
        of the PR 6 link-stream fingerprint."""
        h = hashlib.sha256()
        for line in self.canonical_lines():
            h.update(line.encode("utf-8"))
            h.update(b"\x00")
        return h.hexdigest()

    # ------------------------------------------------------------ queries

    def render(self) -> List[str]:
        lines = [
            f"aggregate telemetry: {self.n_shards} shard(s), "
            f"{len(self.sink)} span(s), {self.builder.events_fed} event(s) fed"
        ]
        lines.append(f"  fingerprint: {self.canonical_fingerprint()}")
        if self.cut_links:
            lines.append(
                f"  cross-shard edges: {len(self.edges)} over "
                f"{len(self.cut_links)} cut link(s)"
            )
            for edge in self.edges[:8]:
                lines.append(f"    {edge.describe()}")
            if len(self.edges) > 8:
                lines.append(f"    … ({len(self.edges) - 8} more edge(s))")
        lines.extend(f"  {w}" for w in self.warnings)
        return lines

    # ------------------------------------------------------------- export

    def _edge_index(self) -> Dict[Tuple[str, str, int], CrossShardEdge]:
        index: Dict[Tuple[str, str, int], CrossShardEdge] = {}
        for edge in self.edges:
            index[(edge.link, "push", edge.ordinal)] = edge
            index[(edge.link, "pop", edge.ordinal)] = edge
        return index

    def chrome_trace(self, process_prefix: str = "shard") -> str:
        """Merged multi-process Chrome trace: one process per shard
        (``pid`` = shard id + 1), cut-link io spans annotated with
        their cross-shard edge.  Deterministic and stable across
        repeated exports and re-runs."""
        edge_index = self._edge_index()
        ordinals: Dict[Tuple[str, str], int] = {}
        per_shard: Dict[int, List[Span]] = {sid: [] for sid in range(self.n_shards)}
        for span in self.sink.snapshot().spans:
            sid = self.track_shard.get(span.track, 0)
            args = dict(span.args)
            link = args.get("link")
            if link in self.cut_links and span.name in ("push", "pop"):
                key = (link, span.name)
                ordinals[key] = ordinals.get(key, 0) + 1
                edge = edge_index.get((link, span.name, ordinals[key]))
                if edge is not None:
                    span = Span(
                        span.track,
                        span.name,
                        span.cat,
                        span.begin,
                        span.end,
                        span.args
                        + (
                            ("xshard", f"{edge.src_shard}->{edge.dst_shard}"),
                            ("ordinal", edge.ordinal),
                        ),
                    )
            per_shard.setdefault(sid, []).append(span)
        groups = [
            (f"{process_prefix} {sid}", per_shard.get(sid, ()))
            for sid in range(self.n_shards)
        ]
        return to_chrome_trace_multi(groups)


# ------------------------------------------------------------ construction


class _MergeKey:
    """A :func:`replay_into` consumer turning each of one shard's events
    into its ``(time, shard, position, event)`` merge-sort key; events
    with no acting actor land on the shard's own init track."""

    def __init__(self, sid: int, init_track: str) -> None:
        self.sid = sid
        self.init_track = init_track

    def feed(self, ev, position: int) -> tuple:
        if not ev.actor:
            ev = ev._replace(actor=self.init_track)
        return (ev.time, self.sid, position, ev)


def _feed_merged(agg: AggregateTelemetry, events: List[tuple]) -> Dict[str, Dict[str, List[Tuple[int, int]]]]:
    """Feed the merged stream; collect cut-link push/pop exit times."""
    sides: Dict[str, Dict[str, List[Tuple[int, int]]]] = {
        link: {"push": [], "pop": []} for link in agg.cut_links
    }
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    for time, sid, _index, te in events:
        track = te.actor
        if track not in agg.track_shard:
            agg.track_shard[track] = sid
        agg.builder.feed(te)
        if (
            te.link is not None
            and te.link in sides
            and te.phase == "exit"
            and te.seq is not None
        ):
            if te.symbol == SYM_PUSH:
                sides[te.link]["push"].append((time, sid))
            elif te.symbol == SYM_POP:
                sides[te.link]["pop"].append((time, sid))
    return sides


def aggregate_sharded(run) -> AggregateTelemetry:
    """Stitch a recorded :class:`~repro.core.shards.ShardedRun` into one
    :class:`AggregateTelemetry`."""
    journals = []
    for session in run.sessions:
        master = session.replay.master
        if master is None:
            raise DataflowDebugError(
                "sharded run was not recorded (use ShardedRun(..., record=True))"
            )
        journals.append(master)
    agg = AggregateTelemetry(n_shards=len(journals), cut_links=set(run.channels))
    events: List[tuple] = []
    for sid, journal in enumerate(journals):
        events.extend(replay_into(journal, _MergeKey(sid, f"{INIT_TRACK}/shard{sid}")))
    sides = _feed_merged(agg, events)
    for link in sorted(agg.cut_links):
        pushes = sides[link]["push"]
        pops = sides[link]["pop"]
        for ordinal, ((st, ss), (rt, rs)) in enumerate(zip(pushes, pops), start=1):
            agg.edges.append(CrossShardEdge(link, ordinal, ss, rs, st, rt))
        channel = run.channels.get(link)
        if channel is not None and len(pushes) != channel.total_forwarded:
            agg.warnings.append(
                f"cut link {link}: journal saw {len(pushes)} push(es) but the "
                f"channel forwarded {channel.total_forwarded} token(s)"
            )
    agg.streams = run.link_streams()
    return agg


def aggregate_journal(journal) -> AggregateTelemetry:
    """The single-kernel counterpart: one journal, no cut links — the
    reference view the sharded canonical projection must match."""
    agg = AggregateTelemetry(n_shards=1)
    _feed_merged(agg, replay_into(journal, _MergeKey(0, INIT_TRACK)))
    agg.streams = journal.link_value_streams()
    return agg
