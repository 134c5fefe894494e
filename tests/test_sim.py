"""Monte-Carlo network simulation: channel application, PSR accounting,
reproducibility, closed-form agreement."""

import math

import pytest

from uwocnet.channel import (
    ChannelParams,
    LinkSpec,
    attenuate,
    cumulative_path_success,
    hop_frame_lengths,
    link_ber,
    q_inverse,
)
from uwocnet.node import NodeRole, SensorProfile
from uwocnet.rng import Substream
from uwocnet.sim import (
    NodeSpec,
    Topology,
    linear_topology,
    run_scenario,
    scenario_seed,
    sweep,
    transmit_over_link,
)

CLEAN = ChannelParams(1000.0, 0.0, 0.0, noise_sigma=1e-9)
# Baseline 20.5 degC encodes to 0x3C80: neither byte needs escaping, so
# quiet-profile frames sit exactly on the nominal length model.
QUIET = SensorProfile(baseline_c=20.5, amplitude_c=0.0, noise_std_c=0.0)


def lossy_params(per_hop_psr: float, frame_bytes: int = 12) -> ChannelParams:
    """Channel whose 4 m link BER yields the requested per-hop PSR."""
    ber = 1.0 - per_hop_psr ** (1.0 / (10.0 * frame_bytes))
    sigma = 1.0
    rx_needed = 2.0 * sigma * q_inverse(ber)
    c = math.log(1000.0 / rx_needed) / 4.0
    return ChannelParams(1000.0, c, 0.0, noise_sigma=sigma)


# --- topology -------------------------------------------------------------------


def test_linear_topology_roles_and_defaults():
    topo = linear_topology(range(5), turbidity_ntu=3.0)
    assert topo.key_chain == (180, 170, 154, 140, 120)
    assert topo.nodes[0].role is NodeRole.ORIGINATOR
    assert topo.nodes[-1].role is NodeRole.SINK
    assert all(n.role is NodeRole.RELAY for n in topo.nodes[1:-1])
    assert topo.hop_count == 4
    assert all(l.turbidity_ntu == 3.0 for l in topo.links)
    swapped = topo.with_turbidity(50.0)
    assert all(l.turbidity_ntu == 50.0 for l in swapped.links)


def test_linear_topology_per_link_distances():
    topo = linear_topology(range(3), link_distance_m=(3.0, 5.0))
    assert [l.distance_m for l in topo.links] == [3.0, 5.0]
    with pytest.raises(ValueError):
        linear_topology(range(3), link_distance_m=(3.0, 5.0, 7.0))


def test_topology_validation():
    with pytest.raises(ValueError):
        linear_topology([0])
    with pytest.raises(ValueError):
        linear_topology([0, 1, 2], auth_keys=[180, 180, 154])
    with pytest.raises(ValueError):
        linear_topology([0, 255])  # records carry the id in one byte, 0..254
    nodes = (
        NodeSpec(0, 180, NodeRole.RELAY),
        NodeSpec(1, 170, NodeRole.SINK),
    )
    with pytest.raises(ValueError):
        Topology(nodes, (LinkSpec(4.0),))
    reserved_key = (
        NodeSpec(0, 0, NodeRole.ORIGINATOR),  # key 0x00 collides with framing
        NodeSpec(1, 170, NodeRole.SINK),
    )
    with pytest.raises(ValueError):
        Topology(reserved_key, (LinkSpec(4.0),))


# --- transmit_over_link ------------------------------------------------------------


def test_transmit_error_free_limit():
    stream = Substream(1, 2, 3)
    data = bytes(range(40))
    assert attenuate(CLEAN, LinkSpec(4.0)) == pytest.approx(1000.0)
    for _ in range(200):
        out, corrupted = transmit_over_link(data, LinkSpec(4.0), CLEAN, stream)
        assert not corrupted
        assert out == data


def test_transmit_always_corrupted_at_zero_signal():
    # effectively infinite optical depth: received intensity underflows to 0
    params = ChannelParams(1000.0, 10.0, 0.0, noise_sigma=1.0)
    link = LinkSpec(500.0)
    data = bytes(range(16))
    assert attenuate(params, link) == 0.0
    for trial in range(10_000):
        _, corrupted = transmit_over_link(data, link, params, Substream(9, trial, 0))
        assert corrupted


def test_transmit_empty_payload():
    out, corrupted = transmit_over_link(b"", LinkSpec(4.0), CLEAN, Substream(1))
    assert out == b"" and not corrupted


def test_data_bit_flip_fraction_concentrates():
    # fix BER to 0.01 exactly: rx/(2 sigma) = Qinv(0.01) with no attenuation
    sigma = 1.0
    params = ChannelParams(
        2.0 * sigma * q_inverse(0.01), 0.0, 0.0, noise_sigma=sigma
    )
    link = LinkSpec(4.0)
    assert link_ber(params, link) == pytest.approx(0.01, rel=1e-12)
    data = bytes(125)  # 1000 data bits per frame
    total_bits = 0
    flipped = 0
    for trial in range(1000):  # one million data bits in total
        out, _ = transmit_over_link(data, link, params, Substream(77, trial))
        total_bits += 8 * len(data)
        flipped += sum(
            bin(a ^ b).count("1") for a, b in zip(out, data)
        )
    p = 0.01
    se = math.sqrt(p * (1 - p) / total_bits)
    assert abs(flipped / total_bits - p) < 3 * se


def test_binomial_sampler_concentrates():
    stream = Substream(123, 0)
    n, p = 1_000_000, 0.01
    draw = stream.binomial(n, p)
    se = math.sqrt(n * p * (1 - p))
    assert abs(draw - n * p) < 3 * se


# --- run_scenario ---------------------------------------------------------------


def test_run_scenario_error_free():
    topo = linear_topology(range(5))
    report = run_scenario(topo, CLEAN, 100, seed=1, profile=QUIET,
                          collect_monitor=True)
    for hop in report.hops:
        assert hop.per_hop_psr == 1.0
        assert hop.cumulative_psr == 1.0
        assert hop.packets_attempted == 100
        assert hop.packets_delivered == 100
    assert len(report.monitor_rows) == 100
    assert all(len(r.temperatures_c) == 5 for r in report.monitor_rows)
    assert all(t == 20.5 for r in report.monitor_rows for t in r.temperatures_c)


def test_run_scenario_matches_closed_form():
    params = lossy_params(0.97)
    topo = linear_topology(range(5))
    rounds = 20_000
    report = run_scenario(topo, params, rounds, seed=11, profile=QUIET)
    closed = cumulative_path_success(
        params, topo.links, hop_frame_lengths(topo.node_ids[:-1])
    )
    for hop, expected in zip(report.hops, closed):
        se = math.sqrt(expected * (1 - expected) / rounds)
        assert abs(hop.cumulative_psr - expected) < 3 * se


def test_run_scenario_conservation_and_telescoping():
    params = lossy_params(0.9)
    topo = linear_topology(range(5))
    rounds = 5000
    report = run_scenario(topo, params, rounds, seed=3, profile=QUIET)
    assert report.hops[0].packets_attempted == rounds
    product = 1.0
    for i, hop in enumerate(report.hops):
        if i > 0:
            assert hop.packets_attempted == report.hops[i - 1].packets_delivered
        assert hop.packets_delivered <= hop.packets_attempted
        product *= hop.per_hop_psr
        assert hop.cumulative_psr == pytest.approx(product, abs=1e-12)
    cums = [h.cumulative_psr for h in report.hops]
    assert all(b <= a for a, b in zip(cums, cums[1:]))


def test_frame_length_grows_hop_over_hop():
    params = lossy_params(0.95)
    topo = linear_topology(range(5))
    report = run_scenario(topo, params, 2000, seed=8)
    nominal = hop_frame_lengths(topo.node_ids[:-1])
    means = [h.mean_frame_bytes for h in report.hops]
    assert all(b > a for a, b in zip(means, means[1:]))
    for mean, nom in zip(means, nominal):
        assert nom <= mean < nom + 1.0  # escapes add at most a byte or so


def test_run_scenario_reproducible():
    params = lossy_params(0.9)
    topo = linear_topology(range(4))
    a = run_scenario(topo, params, 2000, seed=21, collect_monitor=True)
    b = run_scenario(topo, params, 2000, seed=21, collect_monitor=True)
    assert a == b
    c = run_scenario(topo, params, 2000, seed=22)
    assert [h.packets_delivered for h in c.hops] != [
        h.packets_delivered for h in a.hops
    ]


def test_run_scenario_parallel_plans_identical():
    params = lossy_params(0.9)
    topo = linear_topology(range(5))
    serial = run_scenario(topo, params, 3000, seed=5, collect_monitor=True)
    for workers in (2, 4):
        par = run_scenario(
            topo, params, 3000, seed=5, collect_monitor=True, workers=workers
        )
        assert par == serial


def test_run_scenario_validation():
    with pytest.raises(ValueError):
        run_scenario(linear_topology(range(3)), CLEAN, 0, seed=0)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            run_scenario(linear_topology(range(3)), CLEAN, 10, seed=0, workers=workers)


def test_monitor_sampled_only_when_requested():
    report = run_scenario(linear_topology(range(3)), CLEAN, 10, seed=0)
    assert report.monitor_rows is None


# --- sweep -----------------------------------------------------------------------


def test_sweep_single_turbidity_equals_run_scenario():
    params = lossy_params(0.93)
    topo = linear_topology(range(4))
    [swept] = sweep(topo, params, [12.5], 1500, seed=77, profile=QUIET)
    direct = run_scenario(
        topo.with_turbidity(12.5), params, 1500,
        scenario_seed(77, 12.5), profile=QUIET,
    )
    assert swept == direct


def test_sweep_order_matches_input_and_value_keyed_seeds():
    params = lossy_params(0.93)
    topo = linear_topology(range(4))
    forward = sweep(topo, params, [0.01, 40.0], 800, seed=9, profile=QUIET)
    backward = sweep(topo, params, [40.0, 0.01], 800, seed=9, profile=QUIET)
    assert [r.turbidity_ntu for r in forward] == [0.01, 40.0]
    assert forward[0] == backward[1]
    assert forward[1] == backward[0]


def test_sweep_monotone_in_turbidity():
    # strong turbidity sensitivity so each NTU step dwarfs counting noise
    params = ChannelParams(1000.0, 0.7, 0.004, noise_sigma=18.0)
    topo = linear_topology(range(5))
    turbidities = [1.0, 8.0, 15.0, 22.0, 29.0, 36.0, 43.0, 50.0, 57.0, 64.0]
    reports = sweep(topo, params, turbidities, 4000, seed=13, profile=QUIET)
    for hop_index in range(4):
        psrs = [r.hops[hop_index].cumulative_psr for r in reports]
        assert all(b <= a for a, b in zip(psrs, psrs[1:]))


def test_sweep_rejects_empty_list():
    with pytest.raises(ValueError):
        sweep(linear_topology(range(3)), CLEAN, [], 10, seed=0)


def test_single_hop_topology():
    # two nodes: the originator transmits straight into the sink
    topo = linear_topology(range(2))
    assert topo.hop_count == 1
    report = run_scenario(topo, CLEAN, 50, seed=4, profile=QUIET,
                          collect_monitor=True)
    assert report.hops[0].cumulative_psr == 1.0
    assert len(report.monitor_rows) == 50
    assert all(len(r.temperatures_c) == 2 for r in report.monitor_rows)
    lossy = lossy_params(0.8, frame_bytes=8)
    lossy_report = run_scenario(topo, lossy, 4000, seed=4, profile=QUIET)
    psr = lossy_report.hops[0].cumulative_psr
    se = math.sqrt(0.8 * 0.2 / 4000)
    assert abs(psr - 0.8) < 3 * se
