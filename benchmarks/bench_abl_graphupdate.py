"""ABL-GRAPH: realtime vs. on-stop graph refresh (§IV-A).

"The graph [...] can either be updated in real time or only when the
execution is stopped.  (The former case may introduce an additional
delay, due to the graph generation time.)"  Ablation: decode the same
sequence under both policies and compare wall time and render counts.
"""

import pytest

from repro.apps.h264.app import build_decoder
from repro.core import DataflowSession
from repro.dbg import Debugger

N_MBS = 20


def _decode(graph_update):
    sched, platform, runtime, source, sink, mbs = build_decoder(n_mbs=N_MBS)
    dbg = Debugger(sched, runtime)
    session = DataflowSession(dbg, graph_update=graph_update)
    stops = []
    dbg.stop_callbacks.append(stops.append)
    dbg.run()
    assert len(sink.values) == N_MBS
    return session, len(stops)


@pytest.mark.parametrize("mode", ["on-stop", "realtime"])
def test_abl_graph_update(benchmark, mode):
    session, stops = benchmark(_decode, mode)
    if mode == "realtime":
        # one render per data event — the "additional delay" of §IV-A
        assert session.graph_renders >= session.capture.data_events_processed
    else:
        assert session.graph_renders <= stops + 1
    print(f"\nABL-GRAPH {mode}: {session.graph_renders} graph renders "
          f"for {session.capture.data_events_processed} data events")
