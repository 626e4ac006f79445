"""The experiment harnesses produce the paper's shapes."""

import pytest

from repro.eval import (
    fig1_platform_report,
    fig2_amodule_graph,
    fig3_capture_report,
    fig4_h264_graph,
    run_localization_comparison,
    run_overhead_comparison,
)
from repro.eval.localization import SCENARIOS, format_results
from repro.eval.overhead import format_rows


def test_fig1_topology_and_costs():
    report = fig1_platform_report()
    assert report["total_pes"] == 64
    measured = report["measured"]
    # Fig. 1's hierarchy: intra-cluster < inter-cluster < host-fabric
    assert (
        measured["link_cost_intra_cluster"]
        < measured["link_cost_inter_cluster"]
        < measured["link_cost_host_fabric"]
    )
    assert measured["dma_transfer_cycles"] > 0


def test_fig2_amodule_graph_structure():
    dot, counts = fig2_amodule_graph()
    # Fig. 2: one controller (green box), two filters, two control links,
    # one inner data link; module_in/module_out stay unbound in the figure
    assert counts["controllers"] == 1
    assert counts["filters"] == 2
    assert counts["control_links"] == 2
    assert counts["data_links"] == 1
    assert counts["external_ifaces_unbound"] == 2
    assert 'fillcolor="palegreen"' in dot
    assert "AModule_filter_1 -> AModule_filter_2" in dot


def test_fig3_capture_mirrors_runtime():
    report = fig3_capture_report(n_mbs=4)
    assert report["decoded"] == 4
    assert report["model_mismatches"] == []
    assert report["model_actors"] == 12  # 2 controllers + 8 filters + source + sink
    by_symbol = report["events_by_symbol"]
    assert by_symbol["pedf_rt_push"] == by_symbol["pedf_rt_pop"]
    # two controllers x 4 steps x (entry + exit phases)
    assert by_symbol["pedf_rt_step_begin"] == 2 * 4 * 2


def test_fig4_stalled_graph_counts():
    dot, occupancy = fig4_h264_graph(n_mbs=24)
    assert occupancy["pipe::Pipe_ipf_out->ipf::Pipe_cfg_in"] == 20
    assert occupancy["hwcfg::pipe_MbType_out->pipe::MbType_in"] == 3
    # pred-module data links are drained, as in the figure
    assert occupancy["red::Red2PipeCbMB_out->pipe::Red2PipeCbMB_in"] == 0
    assert occupancy["ipred::Add2Dblock_ipf_out->ipf::Add2Dblock_ipred_in"] == 0
    assert 'label="20"' in dot


@pytest.mark.slow
def test_sec5_overhead_shape():
    rows = run_overhead_comparison(n_mbs=30)
    by = {r.config: r for r in rows}
    # full capture processes every token movement; attached-with-capture-off none
    assert by["full-capture"].data_events > 0
    assert by["attached"].data_events == 0
    assert by["actor-specific"].data_events < by["full-capture"].data_events
    assert by["control-only"].data_events < by["full-capture"].data_events
    # every configuration decoded the same output (asserted inside too)
    assert len({r.output_checksum for r in rows}) == 1
    assert len({r.sim_cycles for r in rows}) == 1  # simulated time identical
    # shape: full capture should not be cheaper than capture-off (allow
    # generous tolerance — single-run wall clocks are noisy; the bench
    # measures this properly over many rounds)
    assert by["full-capture"].wall_seconds >= 0.5 * by["attached"].wall_seconds
    # attached-idle: debugger present, nothing armed — hook elision means
    # it never observes a data event
    assert by["attached-idle"].data_events == 0
    text = format_rows(rows)
    assert len(text) == 8


@pytest.mark.slow
def test_sec6_localization_dataflow_beats_plain():
    results = run_localization_comparison()
    assert all(r.located for r in results), [
        (r.scenario, r.strategy) for r in results if not r.located
    ]
    by = {(r.scenario, r.strategy): r for r in results}
    for scenario in SCENARIOS:
        df = by[(scenario, "dataflow")].interactions
        plain = by[(scenario, "plain")].interactions
        assert df < plain, f"{scenario}: dataflow={df} plain={plain}"
        # the paper's qualitative claim is a *substantial* gap
        assert plain / df >= 2, f"{scenario}: gap too small ({df} vs {plain})"
    table = format_results(results)
    assert table[0].split() == ["scenario", "strategy", "interactions", "located"]
    assert len(table) == 1 + len(results)
