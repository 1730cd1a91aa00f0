"""Throughput, delivery, restitution ratio, and aggregation checks."""

import pytest

from meshsim.metrics import (
    CollisionClass,
    CorReport,
    FlowStats,
    RunSummary,
    classify_collision,
    cor,
    make_cor_report,
    summarize,
)

# Reference measurement pairs: (baseline Kbps, re-routed Kbps, expected ratio).
# One published row, 0.8329 | 130.2198 | 0.390362, is internally inconsistent
# (0.8329/130.2198 is 0.0064, not 0.39; the first field looks like a truncated
# 50.8329) and is excluded from conformance.
REFERENCE_RATIOS = [
    (483.133, 483.133, 1.0),
    (240.936, 240.936, 1.0),
    (154.658, 177.829, 0.869701),
    (101.137, 150.523, 0.671904),
    (84.6593, 147.935, 0.572274),
    (75.6836, 140.5726, 0.538395),
    (57.1282, 140.5449, 0.406477),
    (56.5467, 139.8836, 0.404241),
    (47.2099, 138.7724, 0.340197),
    (47.5675, 135.6574, 0.350644),
    (48.9261, 133.5736, 0.366286),
    (48.2715, 129.3132, 0.373291),
    (48.1595, 128.3545, 0.375207),
    (47.8169, 122.8472, 0.389239),
    (45.1668, 120.2656, 0.375559),
    (48.5566, 118.7433, 0.408921),
    (46.7605, 117.8355, 0.396829),
    (49.2422, 115.1323, 0.427701),
]

EXCLUDED_ROW = (0.8329, 130.2198, 0.390362)


@pytest.mark.parametrize("after,before,expected", REFERENCE_RATIOS)
def test_cor_matches_reference_rows(after, before, expected):
    assert cor(after, before) == pytest.approx(expected, abs=1e-4)


def test_cor_equal_throughputs_exactly_one():
    for after, before, expected in REFERENCE_RATIOS:
        if after == before:
            assert cor(after, before) == 1.0
    assert cor(240.936, 240.936) == 1.0


def test_excluded_row_really_is_inconsistent():
    after, before, claimed = EXCLUDED_ROW
    assert abs(cor(after, before) - claimed) > 0.3


def test_cor_edge_cases():
    assert cor(0.0, 100.0) == 0.0
    assert cor(100.0, 0.0) is None


def test_classification_boundaries():
    assert classify_collision(1.0) is CollisionClass.PERFECTLY_ELASTIC
    assert classify_collision(0.0) is CollisionClass.INELASTIC
    assert classify_collision(0.4064) is CollisionClass.PARTIALLY_ELASTIC
    assert classify_collision(1e-9) is CollisionClass.PARTIALLY_ELASTIC
    assert classify_collision(0.999999) is CollisionClass.PARTIALLY_ELASTIC
    with pytest.raises(ValueError):
        classify_collision(-0.2)


def test_classification_labels_above_one_as_regression():
    # baseline beat the rerouted run: rerouting lost throughput
    assert classify_collision(1.08) is CollisionClass.REGRESSION
    assert classify_collision(1.000001) is CollisionClass.REGRESSION
    assert make_cor_report(baseline_kbps=266.7, rerouted_kbps=222.4).collision_class \
        is CollisionClass.REGRESSION


def test_classification_is_exhaustive_over_unit_interval():
    for i in range(0, 1001):
        c = i / 1000
        cls = classify_collision(c)
        if c == 0.0:
            assert cls is CollisionClass.INELASTIC
        elif c == 1.0:
            assert cls is CollisionClass.PERFECTLY_ELASTIC
        else:
            assert cls is CollisionClass.PARTIALLY_ELASTIC


def test_cor_report_assembly():
    report = make_cor_report(baseline_kbps=154.658, rerouted_kbps=177.829)
    assert isinstance(report, CorReport)
    assert report.cor == pytest.approx(0.869701, abs=1e-4)
    assert report.collision_class is CollisionClass.PARTIALLY_ELASTIC
    dead = make_cor_report(0.0, 0.0)
    assert dead.cor == 0.0 and dead.collision_class is CollisionClass.INELASTIC


def test_rerouted_phase_that_moved_nothing_is_a_regression():
    # the baseline moved traffic and rerouting lost all of it: no finite
    # ratio, so the cor cell stays empty rather than reading Inelastic's 0
    lost = make_cor_report(baseline_kbps=100.0, rerouted_kbps=0.0)
    assert lost.collision_class is CollisionClass.REGRESSION
    assert lost.cor is None


def test_delivery_ratio():
    def ratio(stats):
        return summarize([stats], duration=100.0, protocol_label="x").delivery_ratio
    assert ratio(FlowStats(packets_sent=100, packets_received_at_gateway=100)) == 1.0
    assert ratio(FlowStats(packets_sent=200, packets_received_at_gateway=150)) == 0.75
    assert ratio(FlowStats()) is None


def test_throughput_arithmetic():
    stats = FlowStats(bytes_received=1_250_000)
    assert summarize([stats], duration=100.0,
                     protocol_label="x").throughput_kbps == pytest.approx(100.0)
    assert summarize([FlowStats()], duration=100.0,
                     protocol_label="x").throughput_kbps == 0.0
    with pytest.raises(ValueError):
        summarize([stats], duration=0.0, protocol_label="x")


def test_summarize_aggregates_flows():
    a = FlowStats(packets_sent=10, packets_received_at_gateway=8,
                  bytes_received=8000, e2e_delays=[10.0, 20.0, 30.0],
                  rtt_samples=[40.0, 60.0])
    b = FlowStats(packets_sent=10, packets_received_at_gateway=10,
                  bytes_received=10000, e2e_delays=[20.0], rtt_samples=[])
    summary = summarize([a, b], duration=10.0, protocol_label="aodv_hop")
    assert summary.throughput_kbps == pytest.approx(18000 * 8 / 10 / 1000)
    assert summary.delivery_ratio == pytest.approx(0.9)
    assert summary.mean_e2e_delay_ms == pytest.approx(20.0)
    assert summary.mean_rtt_ms == pytest.approx(50.0)
    assert summary.protocol_label == "aodv_hop"


def test_summarize_empty_run():
    summary = summarize([FlowStats()], duration=100.0, protocol_label="x")
    assert summary.throughput_kbps == 0.0
    assert summary.delivery_ratio is None
    assert summary.mean_e2e_delay_ms is None
    assert summary.mean_rtt_ms is None


def test_run_summary_validation():
    with pytest.raises(ValueError):
        RunSummary(throughput_kbps=1.0, delivery_ratio=1.5,
                   mean_e2e_delay_ms=None, mean_rtt_ms=None, protocol_label="x")
    with pytest.raises(ValueError):
        RunSummary(throughput_kbps=-1.0, delivery_ratio=None,
                   mean_e2e_delay_ms=None, mean_rtt_ms=None, protocol_label="x")
