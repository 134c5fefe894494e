"""Monte-Carlo network simulation: channel application, PSR accounting,
reproducibility, closed-form agreement."""

import math
import re

import numpy as np
import pytest

from uwocnet import node as nd
from uwocnet import sim
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
    assert topo.auth_keys == (180, 170, 154, 140, 120)
    states = [s.identity for s in topo.node_states(QUIET)]
    assert [s.node_id for s in states] == [0, 1, 2, 3, 4]
    assert [s.own_key for s in states] == list(topo.auth_keys)
    assert [s.role for s in states] == [
        NodeRole.ORIGINATOR, NodeRole.RELAY, NodeRole.RELAY, NodeRole.RELAY, NodeRole.SINK
    ]
    assert [s.expected_upstream_keys for s in states] == [
        (), (180,), (180, 170), (180, 170, 154), (180, 170, 154, 140)
    ]
    assert all(s.profile is QUIET for s in states)
    pair = linear_topology([9, 7], auth_keys=[33, 44]).node_states(QUIET)
    assert [(s.identity.role, s.identity.expected_upstream_keys) for s in pair] == [
        (NodeRole.ORIGINATOR, ()), (NodeRole.SINK, (33,))
    ]
    assert topo.hop_count == 4
    assert all(l.turbidity_ntu == 3.0 for l in topo.links)
    swapped = topo.with_turbidity(50.0)
    assert all(l.turbidity_ntu == 50.0 for l in swapped.links)
    # a heterogeneous line keeps each link's distance and extra loss
    hetero = linear_topology(
        range(3), link_distance_m=(3.0, 5.0), extra_loss=(0.5, 1.0)
    )
    assert hetero.with_turbidity(70.0).links == hetero.links_at(70.0) == (
        LinkSpec(3.0, 70.0, 0.5), LinkSpec(5.0, 70.0, 1.0)
    )
    # and every LinkSpec check still runs
    for bad in (math.nan, -1.0):
        with pytest.raises(ValueError, match="turbidity_ntu"):
            hetero.with_turbidity(bad)
        with pytest.raises(ValueError, match="turbidity_ntu"):
            hetero.links_at(bad)


def test_linear_topology_per_link_distances():
    topo = linear_topology(range(3), link_distance_m=(3.0, 5.0))
    assert [l.distance_m for l in topo.links] == [3.0, 5.0]
    for one in (4, 4.0, np.int64(4), np.float32(4.0)):  # one distance per hop
        topo = linear_topology(range(5), link_distance_m=one)
        assert [l.distance_m for l in topo.links] == [4.0] * 4
    with pytest.raises(ValueError):
        linear_topology(range(3), link_distance_m=(3.0, 5.0, 7.0))


def test_topology_validation():
    with pytest.raises(ValueError):
        linear_topology([0])
    with pytest.raises(ValueError):
        linear_topology([0, 1, 2], auth_keys=[180, 180, 154])
    with pytest.raises(ValueError):
        linear_topology([0, 255])  # records carry the id in one byte, 0..254
    with pytest.raises(ValueError, match="need one auth key per node"):
        linear_topology([0, 1, 2], auth_keys=[180, 170])
    with pytest.raises(ValueError):
        Topology((0, 1), (0, 170), (LinkSpec(4.0),))  # key 0x00 collides with framing
    with pytest.raises(ValueError, match="one link between consecutive nodes"):
        Topology((0, 1, 2), (180, 170, 154), (LinkSpec(4.0),))
    with pytest.raises(ValueError, match="node ids must be distinct"):
        Topology((0, 0), (180, 170), (LinkSpec(4.0),))
    with pytest.raises(TypeError, match="links"):
        Topology((0, 1, 2), (180, 170, 154), (4.0, 4.0))  # distances, not LinkSpecs


def test_numpy_ids_and_keys_make_the_same_line():
    # held as Python ints, under the one integer rule: bool is neither
    numpy_line = linear_topology(np.arange(5), auth_keys=np.arange(180, 185))
    assert numpy_line == linear_topology(range(5), auth_keys=range(180, 185))
    assert {type(v) for v in numpy_line.node_ids + numpy_line.auth_keys} == {int}
    with pytest.raises(TypeError, match="node id"):
        linear_topology([0, True])
    with pytest.raises(TypeError, match="auth key"):
        linear_topology([0, 1], auth_keys=[180, np.True_])


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


def test_substream_edge_cases():
    stream = Substream(123, 0)
    assert stream.binomial(50, 1.0) == 50
    assert stream.binomial(50, 1.5) == 50
    assert stream.distinct_below(4, 4) == [0, 1, 2, 3]
    assert stream.distinct_below(4, 9) == [0, 1, 2, 3]


def test_gauss_redraws_a_zero_u1():
    # Box-Muller takes log(u1): a first word of 0.0 is drawn again, and u1
    # and u2 are the next two words
    class Words(Substream):
        def __init__(self, *words):
            self.words = iter(words)

        def uniform(self):
            return next(self.words)

    u1, u2 = 0.25, 0.125
    expected = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    assert Words(u1, u2).gauss() == expected
    for redrawn in ([0.0], [0.0, 0.0]):
        stream = Words(*redrawn, u1, u2, 0.5)
        assert stream.gauss() == expected
        assert next(stream.words) == 0.5  # no word beyond u2 taken


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
    rounds, _, *temps = report.monitor_log
    assert rounds == list(range(100))
    assert temps == [[20.5] * 100] * 5


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


def test_run_scenario_parallel_plans_identical(monkeypatch):
    params = lossy_params(0.9)
    topo = linear_topology(range(5))
    serial = run_scenario(topo, params, 3000, seed=5, collect_monitor=True)
    # blocks of 1001, 1001, 998 rounds, then 20 of 143 and one of 140
    for block_rounds in (1001, 143):
        monkeypatch.setattr(sim, "_BLOCK_CELLS", 4 * block_rounds)
        par = run_scenario(topo, params, 3000, seed=5, collect_monitor=True, workers=4)
        assert par == serial


def test_run_scenario_validation():
    with pytest.raises(ValueError):
        run_scenario(linear_topology(range(3)), CLEAN, 0, seed=0)
    # rounds are an integer, as a seed is: neither bool nor float
    for rounds, message in [
        (True, "rounds .* bool True"), (3.0, "'float'"), (np.float64(3.0), "'numpy.float64'")
    ]:
        with pytest.raises(TypeError, match=message):
            run_scenario(linear_topology(range(3)), CLEAN, rounds, seed=0)
        with pytest.raises(TypeError, match=message):
            sweep(linear_topology(range(3)), CLEAN, [0.01, 70.0], rounds, seed=0)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            run_scenario(linear_topology(range(3)), CLEAN, 10, seed=0, workers=workers)
    # workers is an integer too, taken by the same rule
    for workers, message in [
        (True, "workers .* bool True"), (2.5, "'float'"), ("3", "'str'")
    ]:
        with pytest.raises(TypeError, match=message):
            run_scenario(linear_topology(range(3)), CLEAN, 10, seed=0, workers=workers)
    # a slot and a bit rate are numbers, and bool is not one
    for keyword in ("slot_duration", "bit_rate"):
        bad = {keyword: True}
        with pytest.raises(TypeError, match=f"{keyword} .* bool True"):
            run_scenario(linear_topology(range(3)), CLEAN, 10, seed=0, **bad)
        with pytest.raises(TypeError, match=f"{keyword} .* bool True"):
            sweep(linear_topology(range(3)), CLEAN, [0.01], 10, seed=0, **bad)


def test_engines_refuse_the_slots_schedule_refuses():
    # a slot below the worst-case frame, or not above 0, is refused with
    # schedule's errors; the smallest slot that fits runs
    topo = linear_topology(range(3))
    runs = [lambda **kw: run_scenario(topo, CLEAN, 10, seed=0, **kw),
            lambda **kw: sweep(topo, CLEAN, [0.01, 70.0], 10, seed=0, **kw)]
    fits = nd.min_slot_duration(3)
    for run in runs:
        for slot, bit_rate in [(0.99 * fits, 9600.0), (fits, 4800.0)]:
            with pytest.raises(nd.SlotTooShort) as expected:
                nd.schedule(topo.node_ids, slot, 0, bit_rate)
            with pytest.raises(nd.SlotTooShort, match=re.escape(str(expected.value))):
                run(slot_duration=slot, bit_rate=bit_rate)
        for slot in (0.0, 0, -fits, -1):
            with pytest.raises(ValueError, match="slot_duration must be > 0"):
                run(slot_duration=slot)
        assert run(slot_duration=fits) == run()


@pytest.mark.parametrize("slot", [1, np.int64(1), np.float32(1.0)])
def test_an_integer_or_float32_slot_is_its_float(slot):
    # the engines clock with the checked float: int64 or float32 clocks
    # would key the sensor noise by other bits than sample_sensor's
    topo = linear_topology(range(3))
    for run in (lambda s: run_scenario(topo, CLEAN, 50, seed=3, slot_duration=s,
                                       collect_monitor=True),
                lambda s: sweep(topo, CLEAN, [0.01, 70.0], 50, seed=3, slot_duration=s,
                                collect_monitor=True)):
        assert run(slot) == run(float(slot))


def test_monitor_sampled_only_when_requested():
    report = run_scenario(linear_topology(range(3)), CLEAN, 10, seed=0)
    assert report.monitor_log is None


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


def test_sweep_negative_zero_turbidity_is_zero():
    # -0.0 == 0.0 is one scenario: the same seed, reported as 0.0
    params = lossy_params(0.93)
    topo = linear_topology(range(4))
    [negative] = sweep(topo, params, [-0.0], 800, seed=1, profile=QUIET)
    [zero] = sweep(topo, params, [0.0], 800, seed=1, profile=QUIET)
    assert negative.hops == zero.hops
    assert repr(negative.turbidity_ntu) == "0.0"
    assert scenario_seed(1, -0.0) == scenario_seed(1, 0.0)


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


def test_sweep_names_itself_for_an_unknown_keyword():
    with pytest.raises(TypeError, match=r"^sweep\(\) got an unexpected keyword"):
        sweep(linear_topology(range(3)), CLEAN, [0.01], 10, seed=0, slot=1.0)


def test_single_hop_topology():
    # two nodes: the originator transmits straight into the sink
    topo = linear_topology(range(2))
    assert topo.hop_count == 1
    report = run_scenario(topo, CLEAN, 50, seed=4, profile=QUIET,
                          collect_monitor=True)
    assert report.hops[0].cumulative_psr == 1.0
    rounds, _, *temps = report.monitor_log
    assert rounds == list(range(50)) and len(temps) == 2
    lossy = lossy_params(0.8, frame_bytes=8)
    lossy_report = run_scenario(topo, lossy, 4000, seed=4, profile=QUIET)
    psr = lossy_report.hops[0].cumulative_psr
    se = math.sqrt(0.8 * 0.2 / 4000)
    assert abs(psr - 0.8) < 3 * se
