"""Island-partitioned sharded execution of the simulation kernel.

Splits a dataflow program into *islands* cut only at FIFO links, runs one
:class:`~repro.sim.kernel.Scheduler` per island group (shard), and keeps
the shards causally consistent with a conservative-lookahead horizon
protocol at the cut links.  Determinism is preserved in the only form
that is meaningful across kernels: every link's ordered token value
stream — and therefore the canonical run fingerprint — is byte-identical
to the single-kernel execution of the same program.

The shards run in one process under :class:`ShardedScheduler` (driven
by :class:`repro.core.shards.ShardedRun`), so a debugger stop in any
shard parks the whole fabric at a consistent barrier.
"""

from .channel import INFINITE_TIME, CrossShardChannel, ShardContext, egress_pump, ingress_pump
from .merge import (
    PushStreamRecorder,
    fingerprint_streams,
    merge_link_streams,
    stable_value_text,
    stream_digest,
)
from .plan import (
    CrossLink,
    HostSpec,
    ShardPlan,
    decl_ext_endpoint,
    enumerate_cross_links,
    partition_program,
)
from .lookahead import ShardLookahead, unit_of_actor
from .sharded import Shard, ShardedScheduler, ShardedStop

__all__ = [
    "INFINITE_TIME",
    "CrossShardChannel",
    "ShardContext",
    "egress_pump",
    "ingress_pump",
    "PushStreamRecorder",
    "fingerprint_streams",
    "merge_link_streams",
    "stable_value_text",
    "stream_digest",
    "CrossLink",
    "HostSpec",
    "ShardPlan",
    "decl_ext_endpoint",
    "enumerate_cross_links",
    "partition_program",
    "Shard",
    "ShardLookahead",
    "unit_of_actor",
    "ShardedScheduler",
    "ShardedStop",
]
