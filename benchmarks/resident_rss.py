"""Peak memory of time travel over a long segmented recording.

Records an ``N``-macroblock h264 decode into rotating segments (window
512, as the perfbench time-travel workload does), then makes the
time-travel workload's 100 hops (20 strata, every fourth hop a
``reverse-continue``) at a resident pool of ``POOL`` machines, and
prints the growth of the process's peak RSS over those hops::

    PYTHONPATH=src python benchmarks/resident_rss.py N POOL

Output: ``n_mbs pool journal_events peak_rss_growth_mb tail_events``.
Run one process per configuration: peak RSS never falls.
"""

import random
import resource
import shutil
import sys
import tempfile

from repro.apps.h264.app import build_decoder
from repro.apps.h264.bitstream import make_macroblocks
from repro.core import DataflowSession
from repro.dbg import Debugger, StopKind


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(n_mbs: int, pool: int) -> None:
    mbs = make_macroblocks(n_mbs, seed=1)

    def fresh():
        sched, _platform, runtime, _source, _sink, _mbs = build_decoder(mbs=mbs)
        return DataflowSession(Debugger(sched, runtime))

    seg_dir = tempfile.mkdtemp(prefix="segments-")
    try:
        sched, _platform, runtime, _source, _sink, _mbs = build_decoder(mbs=mbs)
        session = DataflowSession(Debugger(sched, runtime), stop_on_init=True)
        mgr = session.replay
        mgr.register_builder(fresh)
        mgr.record_on(segment_dir=seg_dir, window=512)
        session.dbg.run()
        session.catch_iface("ipf::decoded_out")
        while session.dbg.cont().kind == StopKind.DATAFLOW:
            pass
        mgr.set_pool_limit(pool)
        total = mgr.master.total_events
        stops = [s.index for s in mgr.master.stops if s.kind == StopKind.DATAFLOW.value]
        before = peak_rss_mb()
        pattern, jitter = random.Random(0x5EED), random.Random(1_000_003)
        tails, pos = 0, None
        for i in range(100):
            if i % 4 == 3 and any(pos is not None and p < pos for p in stops):
                mgr.reverse_continue()
            else:
                target = 1 + int((pattern.randrange(20) + jitter.random()) * (total - 1) / 20)
                if target == pos:
                    target = target - 1 if target > 1 else target + 1
                mgr.replay_to(f"event {target}")
            pos = mgr.position
            tails += mgr.last_restore[2]
        print(n_mbs, pool, total, f"{peak_rss_mb() - before:.1f}", tails)
    finally:
        shutil.rmtree(seg_dir, ignore_errors=True)


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
