"""The H.264-like decoder: correctness against the golden model, and the
three §VI bug variants."""

import pytest

from repro.apps.h264 import (
    build_decoder,
    decode_golden,
    encode_bitstream,
    make_macroblocks,
)
from repro.apps.h264.bugs import (
    build_corrupted_token,
    build_dropped_token,
    build_rate_mismatch,
)
from repro.sim import StopKind


def test_bitstream_roundtrip_shape():
    mbs = make_macroblocks(6, mb_types=(5, 10, 15))
    words = encode_bitstream(mbs)
    assert len(words) == 6 * 5
    assert [mb.mb_type for mb in mbs[:3]] == [5, 10, 15]
    # deterministic
    again = make_macroblocks(6, mb_types=(5, 10, 15))
    assert encode_bitstream(again) == words


def test_decoder_matches_golden_model():
    sched, platform, runtime, source, sink, mbs = build_decoder(n_mbs=8)
    runtime.load()
    stop = sched.run()
    assert runtime.classify_stop(stop) == "exited"
    golden = decode_golden(mbs)
    assert sink.values == [g.decoded for g in golden]


def test_decoder_longer_sequence():
    sched, platform, runtime, source, sink, mbs = build_decoder(n_mbs=40)
    runtime.load()
    stop = sched.run()
    assert runtime.classify_stop(stop) == "exited"
    golden = decode_golden(mbs)
    assert sink.values == [g.decoded for g in golden]
    # every filter fired once per macroblock
    for name in ("vlc", "hwcfg", "bh"):
        assert runtime.modules["front"].filters[name].works_done == 40
    for name in ("red", "pipe", "ipred", "mc", "ipf"):
        assert runtime.modules["pred"].filters[name].works_done == 40


def test_intermediate_tokens_match_golden():
    """Check a mid-pipeline link, not just the output."""
    sched, platform, runtime, source, sink, mbs = build_decoder(n_mbs=5)
    seen = []
    from repro.pedf import SYM_PUSH

    runtime.bus.subscribe(
        SYM_PUSH,
        lambda e: seen.append(e.args["value"]) or None,
        actor="front.bh",
        phase="entry",
    )
    runtime.load()
    sched.run()
    golden = decode_golden(mbs)
    assert seen == [g.rsum for g in golden]


def test_cbcr_struct_tokens():
    sched, platform, runtime, source, sink, mbs = build_decoder(n_mbs=3)
    cbcrs = []
    from repro.pedf import SYM_PUSH

    runtime.bus.subscribe(
        SYM_PUSH,
        lambda e: cbcrs.append(e.args["value"]) if e.args["iface"] == "Red2PipeCbMB_out" else None,
        actor="pred.red",
        phase="entry",
    )
    runtime.load()
    sched.run()
    golden = decode_golden(mbs)
    assert cbcrs == [
        {"Addr": g.cbcr_addr, "InterNotIntra": g.cbcr_inter, "Izz": g.cbcr_izz} for g in golden
    ]
    assert cbcrs[0]["Addr"] == 0x1400


def test_ipf_runs_on_hardware_accelerator():
    sched, platform, runtime, source, sink, mbs = build_decoder(n_mbs=2)
    ipf = runtime.modules["pred"].filters["ipf"]
    assert ipf.resource.kind == "HardwareAccelerator"


def test_hwcfg_to_ipred_link_is_dma_assisted():
    sched, platform, runtime, *_ = build_decoder(n_mbs=2)
    link = next(l for l in runtime.links if l.src and l.src.qualname == "hwcfg::HwCfg_out")
    assert link.dma_assisted


def test_mbtype_values_reproduce_paper_transcript():
    """hwcfg::pipe_MbType_out carries 5, 10, 15 (§VI-D recording)."""
    sched, platform, runtime, source, sink, mbs = build_decoder(n_mbs=3)
    runtime.load()
    sched.run()
    assert [mb.mb_type for mb in mbs] == [5, 10, 15]


# ------------------------------------------------------------ bug variants


def test_rate_mismatch_reproduces_fig4_state():
    sched, platform, runtime, source, sink, mbs = build_rate_mismatch(n_mbs=24)
    runtime.load()
    stop = sched.run()
    assert runtime.classify_stop(stop) == "deadlock"
    pipe_ipf = next(l for l in runtime.links if l.src and l.src.qualname == "pipe::Pipe_ipf_out")
    hwcfg_pipe = next(
        l for l in runtime.links if l.src and l.src.qualname == "hwcfg::pipe_MbType_out"
    )
    assert pipe_ipf.occupancy == 20  # Fig. 4: "currently holds 20 tokens"
    assert hwcfg_pipe.occupancy == 3  # Fig. 4: "contains three tokens"
    # the pred-module internal data links are drained
    for spec in ("red::Red2PipeCbMB_out", "ipred::Add2Dblock_ipf_out", "mc::Ipf_out"):
        link = next(l for l in runtime.links if l.src and l.src.qualname == spec)
        assert link.occupancy == 0


def test_corrupted_token_diverges_from_golden():
    sched, platform, runtime, source, sink, mbs = build_corrupted_token(n_mbs=8, corrupt_at=5)
    runtime.load()
    stop = sched.run()
    assert runtime.classify_stop(stop) == "exited"
    good = decode_golden(mbs)
    buggy = decode_golden(mbs, corrupt_bh_at=range(5, 8))
    assert sink.values == [g.decoded for g in buggy]
    # output correct before the corruption point, wrong after
    assert sink.values[:5] == [g.decoded for g in good[:5]]
    assert sink.values[5:] != [g.decoded for g in good[5:]]


def test_dropped_token_deadlocks_and_injection_unties():
    sched, platform, runtime, source, sink, mbs = build_dropped_token(n_mbs=6)
    runtime.load()
    stop = sched.run()
    assert runtime.classify_stop(stop) == "deadlock"
    ipred = runtime.modules["pred"].filters["ipred"]
    assert ipred.blocked
    assert len(sink.values) == 5  # stalled before the last macroblock
    # inject the missing configuration token and finish the sequence
    link = next(l for l in runtime.links if l.src and l.src.qualname == "hwcfg::HwCfg_out")
    link.inject(mbs[5].header, seq=runtime.next_seq())
    stop = sched.run()
    assert runtime.classify_stop(stop) in ("exited", "deadlock")
    golden = decode_golden(mbs)
    assert sink.values == [g.decoded for g in golden]


def test_dropped_token_mid_stream_shifts_headers():
    """Dropping an early header makes later macroblocks consume the wrong
    configuration — the erratic-results failure mode of §II."""
    sched, platform, runtime, source, sink, mbs = build_dropped_token(n_mbs=6, drop_at=2)
    runtime.load()
    stop = sched.run()
    assert runtime.classify_stop(stop) == "deadlock"
    golden = decode_golden(mbs)
    # mbs before the drop decode correctly; the one at the drop uses the
    # NEXT header's qp, so it diverges
    assert sink.values[:2] == [g.decoded for g in golden[:2]]
    assert sink.values[2] != golden[2].decoded
