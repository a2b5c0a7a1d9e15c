"""Unit tests for the cluster hardware model."""

import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    GIGANET_VIA,
    FAST_ETHERNET_TCP,
    interconnect_by_name,
    PAPER_CPU_MHZ,
)
from conftest import build_cluster, run_all


# ------------------------------------------------------------- interconnects
def test_interconnect_presets_are_sane():
    assert GIGANET_VIA.latency < FAST_ETHERNET_TCP.latency
    assert GIGANET_VIA.bandwidth > FAST_ETHERNET_TCP.bandwidth
    assert GIGANET_VIA.o_send < FAST_ETHERNET_TCP.o_send


def test_wire_time_scales_with_size():
    t1 = GIGANET_VIA.wire_time(1000)
    t2 = GIGANET_VIA.wire_time(2000)
    assert t2 > t1
    assert t2 - t1 == pytest.approx(1000 / GIGANET_VIA.bandwidth)


def test_half_round_trip_combines_all_terms():
    n = 4096
    ic = FAST_ETHERNET_TCP
    expected = ic.send_cpu_time(n) + ic.wire_time(n) + ic.recv_cpu_time(n)
    assert ic.half_round_trip(n) == pytest.approx(expected)


def test_interconnect_lookup_by_name():
    assert interconnect_by_name("via") is GIGANET_VIA
    assert interconnect_by_name("TCP") is FAST_ETHERNET_TCP
    with pytest.raises(KeyError):
        interconnect_by_name("myrinet")


# ------------------------------------------------------------- config
def test_config_defaults_match_paper_testbed():
    cfg = ClusterConfig()
    assert cfg.n_nodes == 8
    assert cfg.cpus_per_node == 2
    assert cfg.cpu_mhz == PAPER_CPU_MHZ
    assert cfg.page_size == 4096


def test_config_speed_factor_heterogeneous():
    cfg = ClusterConfig()
    assert cfg.speed_factor(0) == pytest.approx(550 / 600)
    assert cfg.speed_factor(7) == pytest.approx(1.0)
    # slower node takes longer for the same work
    assert cfg.compute_seconds(1000, 0) > cfg.compute_seconds(1000, 7)


def test_config_with_nodes_resizes_cpu_list():
    cfg = ClusterConfig().with_nodes(3)
    assert cfg.n_nodes == 3
    assert len(cfg.cpu_mhz) == 3


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(n_nodes=0)
    with pytest.raises(ValueError):
        ClusterConfig(cpus_per_node=0)
    with pytest.raises(ValueError):
        ClusterConfig(page_size=1000)  # not a power of two


def test_config_cpu_list_padding():
    cfg = ClusterConfig(n_nodes=4, cpu_mhz=(500,))
    assert cfg.cpu_mhz == (500, 500, 500, 500)


def test_with_nodes_reexpands_paper_cycle():
    """Regression: shrinking to 4 nodes truncates cpu_mhz to (550,)*4;
    growing back must re-expand from the canonical paper cycle, not pad
    the truncated prefix into an all-550 cluster."""
    grown = ClusterConfig().with_nodes(4).with_nodes(16)
    assert grown.cpu_mhz == tuple(
        PAPER_CPU_MHZ[i % len(PAPER_CPU_MHZ)] for i in range(16)
    )
    assert 600 in grown.cpu_mhz
    # round-tripping through any size is lossless for paper-pattern configs
    assert ClusterConfig().with_nodes(2).with_nodes(8) == ClusterConfig()


def test_with_nodes_keeps_custom_speeds_and_fields():
    """Non-paper cpu_mhz patterns keep cycling their own tuple, and
    unrelated overridden fields survive the dataclasses.replace copy."""
    cfg = ClusterConfig(n_nodes=2, cpu_mhz=(700, 800), fault_overhead=42e-6)
    grown = cfg.with_nodes(4)
    assert grown.cpu_mhz == (700, 800, 700, 800)
    assert grown.fault_overhead == 42e-6
    assert cfg.with_cpus(1).cpus_per_node == 1
    assert cfg.with_cpus(1).cpu_mhz == (700, 800)


# ------------------------------------------------------------- network
def test_message_delivery_latency():
    cluster = build_cluster(2)
    deliveries = []

    def sender():
        yield from cluster.network.send(0, 1, 1024, "payload", tag=("t",))

    def receiver():
        msg = yield cluster.nodes[1].inbox.get()
        deliveries.append((cluster.now, msg.payload))

    run_all(cluster, [sender(), receiver()])
    assert deliveries[0][1] == "payload"
    ic = cluster.config.interconnect
    n = 1024 + cluster.network.HEADER_BYTES
    expected = ic.send_cpu_time(n) + n / ic.bandwidth + ic.latency
    assert deliveries[0][0] == pytest.approx(expected, rel=0.2)


def test_nic_serialises_concurrent_sends():
    cluster = build_cluster(2)
    times = []

    def sender(k):
        yield from cluster.network.send(0, 1, 100_000, k, tag=("t",))

    def receiver():
        for _ in range(2):
            msg = yield cluster.nodes[1].inbox.get()
            times.append(cluster.now)

    run_all(cluster, [sender(0), sender(1), receiver()])
    # second message delivered roughly one serialisation time later
    ic = cluster.config.interconnect
    gap = times[1] - times[0]
    assert gap >= 100_000 / ic.bandwidth * 0.9


def test_loopback_bypasses_nic():
    cluster = build_cluster(2)
    out = []

    def sender():
        yield from cluster.network.send(0, 0, 64, "self", tag=("t",))
        msg = yield cluster.nodes[0].inbox.get()
        out.append((cluster.now, msg.payload))

    run_all(cluster, [sender()])
    assert out[0][1] == "self"
    assert out[0][0] < cluster.config.interconnect.latency  # far below wire time


def test_network_statistics_accumulate():
    cluster = build_cluster(2)

    def sender():
        yield from cluster.network.send(0, 1, 500, None, tag=("t",))
        yield from cluster.network.send(0, 1, 500, None, tag=("t",))

    def receiver():
        for _ in range(2):
            yield cluster.nodes[1].inbox.get()

    run_all(cluster, [sender(), receiver()])
    assert cluster.network.total_messages == 2
    assert cluster.nodes[0].msgs_sent == 2
    assert cluster.nodes[1].msgs_received == 2
    assert cluster.nodes[1].bytes_received == 2 * (500 + cluster.network.HEADER_BYTES)


# ------------------------------------------------------------- node compute
def test_node_compute_respects_cpu_capacity():
    cluster = Cluster(ClusterConfig(n_nodes=1, cpus_per_node=1, cpu_mhz=(600,)))
    finish = []

    def worker():
        yield from cluster.nodes[0].compute(100_000)  # 1ms at reference speed
        finish.append(cluster.now)

    run_all(cluster, [worker(), worker()])
    # serialised on the single CPU: 1ms then 2ms
    assert finish[0] == pytest.approx(1e-3, rel=1e-6)
    assert finish[1] == pytest.approx(2e-3, rel=1e-6)


def test_slow_node_takes_longer():
    cfg = ClusterConfig(n_nodes=2, cpu_mhz=(550, 600))
    cluster = Cluster(cfg)
    finish = {}

    def worker(nid):
        yield from cluster.nodes[nid].compute(100_000)
        finish[nid] = cluster.now

    run_all(cluster, [worker(0), worker(1)])
    assert finish[0] > finish[1]
    assert finish[0] / finish[1] == pytest.approx(600 / 550)


def test_cluster_stats_shape():
    cluster = build_cluster(2)
    stats = cluster.stats()
    for key in ("virtual_time", "total_messages", "total_bytes", "events_processed"):
        assert key in stats


def test_every_cluster_config_field_is_read():
    """A ``ClusterConfig`` field is part of the hardware model only if the
    model reads it somewhere outside ``config.py``: a cost declared and
    never charged models nothing (as ``DsmConfig``'s fields are held to
    in ``test_scale_out.py``)."""
    import dataclasses
    import pathlib
    import re

    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    src = "\n".join(
        p.read_text() for p in sorted(root.rglob("*.py"))
        if p.name != "config.py" or p.parent.name != "cluster"
    )
    for f in dataclasses.fields(ClusterConfig):
        assert re.search(rf"\b\w*(config|cc)\.{f.name}\b", src), (
            f"ClusterConfig.{f.name} is read nowhere under src/repro"
        )
