"""Counting engine against the node state machines: exact equality.

run_scenario counts rounds and builds the monitor log with the vectorized
engine; the reference engine steps every node.  Both draw the same
substream words, so every per-hop counter and every monitor row must agree
exactly.
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from uwocnet import frame as fr
from uwocnet import node as nd
from uwocnet import sim
from uwocnet.channel import ChannelParams, link_ber, q_inverse
from uwocnet.config import parse_config
from uwocnet.node import SensorProfile, min_slot_duration, sample_sensor, sensor_raw
from uwocnet.rng import Substream, derive_states, uniform_at
from uwocnet.sim import linear_topology, run_scenario

CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"
ACCEPTANCE_SEED = 20260808
# The channel `uwocnet calibrate` fits to the paper anchors (0.95 at
# 0.01 NTU, 0.89 at 70 NTU) on the default five-node 4 m line.
ANCHOR = ChannelParams(
    1000.0, 0.4992440636926728, 0.00020789755812048987, 100.0, 18.14199387800274
)


def lossy_params(per_hop_psr: float, frame_bytes: int = 12) -> ChannelParams:
    """Channel whose 4 m link BER yields the requested per-hop PSR."""
    ber = 1.0 - per_hop_psr ** (1.0 / (10.0 * frame_bytes))
    c = math.log(1000.0 / (2.0 * q_inverse(ber))) / 4.0
    return ChannelParams(1000.0, c, 0.0, noise_sigma=1.0)


def engine_counts(topo, params, rounds, seed, profile=None, first=0):
    """(attempted, delivered, frame_bytes_sum) from both engines."""
    profile = profile if profile is not None else SensorProfile(seed=seed)
    slot = min_slot_duration(len(topo.node_ids))
    args = (topo, params, seed, first, first + rounds, slot, profile)
    counted = sim._count_rounds(*args)[:3]
    stepped = sim._simulate_rounds(*args, False)[:3]
    return counted, stepped


def assert_engines_agree(topo, params, rounds, seed, profile=None):
    counted, stepped = engine_counts(topo, params, rounds, seed, profile)
    assert counted == stepped
    return counted


def hop_fields(report):
    """(attempted, delivered, mean frame bytes) of each hop of a report."""
    return [
        (h.packets_attempted, h.packets_delivered, h.mean_frame_bytes)
        for h in report.hops
    ]


def stepped_fields(attempted, delivered, frame_bytes_sum):
    """hop_fields of the report run_scenario builds from these counters."""
    return [
        (a, d, f / a if a else 0.0)
        for a, d, f in zip(attempted, delivered, frame_bytes_sum)
    ]


def assert_monitor_agrees(topo, params, rounds, seed, profile=None, workers=1):
    """run_scenario's monitor rows and counts against the reference engine's."""
    profile = profile if profile is not None else SensorProfile(seed=seed)
    slot = min_slot_duration(len(topo.node_ids))
    *counts, rows = sim._simulate_rounds(
        topo, params, seed, 0, rounds, slot, profile, True
    )
    report = run_scenario(
        topo, params, rounds, seed, profile=profile, collect_monitor=True,
        workers=workers,
    )
    assert hop_fields(report) == stepped_fields(*counts)
    assert report.monitor_rows == tuple(rows)
    # plain Python values, so the CSV renders them as the reference log
    for row in report.monitor_rows:
        assert type(row.round_index) is int and type(row.time_s) is float
        assert all(type(t) is float for t in row.temperatures_c)
    return rows


# --- differential tests ---------------------------------------------------------


@pytest.mark.parametrize("ntu", [0.01, 70.0])
@pytest.mark.parametrize("root_seed", [ACCEPTANCE_SEED, 1, 42, 987654321])
def test_anchor_line_counts_equal(ntu, root_seed):
    topo = linear_topology(range(5), turbidity_ntu=ntu)
    seed = sim.scenario_seed(root_seed, ntu)
    attempted, delivered, _ = assert_engines_agree(
        topo, ANCHOR, 1500, seed, SensorProfile(seed=root_seed)
    )
    assert attempted[0] == 1500 and delivered[-1] < 1500  # losses were drawn


def test_heterogeneous_config_counts_equal():
    config = parse_config((CONFIGS / "heterogeneous.cfg").read_text())
    counted, stepped = engine_counts(
        config.topology(70.0), config.channel, 1500, config.seed, config.sensor
    )
    assert counted == stepped


def test_single_hop_counts_equal():
    topo = linear_topology(range(2))
    attempted, delivered, _ = assert_engines_agree(
        topo, lossy_params(0.8, frame_bytes=8), 2000, seed=4
    )
    assert 0 < delivered[0] < attempted[0]


def test_escaped_node_ids_counts_equal():
    # ids 0x00 and 0x7D each cost an escape byte in every frame they ride in
    topo = linear_topology([0x7D, 5, 0x00, 9], auth_keys=[180, 170, 154, 140])
    _, _, frame_bytes = assert_engines_agree(topo, lossy_params(0.9), 2000, seed=6)
    (nominal,) = fr.hop_frame_lengths([0x7D])
    assert frame_bytes[0] >= 2000 * nominal == 2000 * (fr.hop_frame_lengths([1])[0] + 1)


def test_long_line_multi_chunk_counts_equal():
    # 30 nodes: frames on the last hops exceed 1024 on-wire bits, so the
    # hop outcome takes a second uniform from the link substream.
    ids = list(range(30))
    topo = linear_topology(ids, auth_keys=range(1, 31))
    lengths = fr.hop_frame_lengths(ids[:-1])
    assert 10 * lengths[-1] > 1024
    attempted, delivered, _ = assert_engines_agree(
        topo, lossy_params(0.995), 400, seed=12
    )
    long_hops = [h for h, nbytes in enumerate(lengths) if 10 * nbytes > 1024]
    assert sum(attempted[h] - delivered[h] for h in long_hops) > 0


def test_ber_underflow_and_zero_signal_counts_equal():
    clean = ChannelParams(1000.0, 0.0, 0.0, noise_sigma=1e-9)
    topo = linear_topology(range(5))
    assert link_ber(clean, topo.links[0]) == 0.0
    attempted, delivered, _ = assert_engines_agree(topo, clean, 300, seed=2)
    assert attempted == delivered == [300] * 4

    dark = ChannelParams(1000.0, 10.0, 0.0, noise_sigma=1.0)
    deep = linear_topology(range(5), link_distance_m=500.0)
    assert link_ber(dark, deep.links[0]) == 0.5
    attempted, delivered, _ = assert_engines_agree(deep, dark, 300, seed=2)
    assert attempted == [300, 0, 0, 0] and delivered == [0] * 4


def test_noiseless_sensor_counts_equal():
    profile = SensorProfile(amplitude_c=1.5, period_s=1.0, noise_std_c=0.0)
    topo = linear_topology(range(5))
    assert_engines_agree(topo, lossy_params(0.9), 2000, seed=3, profile=profile)


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_partitions_counts_equal(workers):
    topo = linear_topology(range(5), turbidity_ntu=70.0)
    profile = SensorProfile(seed=8)
    counted = run_scenario(topo, ANCHOR, 1001, 8, profile=profile, workers=workers)
    serial = run_scenario(topo, ANCHOR, 1001, 8, profile=profile)
    slot = min_slot_duration(len(topo.node_ids))
    stepped = sim._simulate_rounds(topo, ANCHOR, 8, 0, 1001, slot, profile, False)
    assert counted.hops == serial.hops
    assert hop_fields(counted) == stepped_fields(*stepped[:3])
    assert counted.monitor_rows is None


def test_many_blocks_counts_equal(monkeypatch):
    monkeypatch.setattr(sim, "_BLOCK_CELLS", 4 * 37)  # 37 rounds per block
    topo = linear_topology(range(5), turbidity_ntu=70.0)
    counted, stepped = engine_counts(topo, ANCHOR, 1001, 5)
    assert counted == stepped


def test_partition_from_a_late_round_counts_equal():
    topo = linear_topology(range(5), turbidity_ntu=70.0)
    counted, stepped = engine_counts(topo, ANCHOR, 500, 3, first=10**9)
    assert counted == stepped


# Near -39 degC the high byte is 0x00 about half the time and the low byte
# sometimes 0x00 or 0xFF, so records take 3 to 6 bytes and each hop's frame
# length varies over several escape bytes within one block.
ESCAPE_HEAVY = SensorProfile(baseline_c=-39.0, amplitude_c=0.0, noise_std_c=0.05)


def test_escape_heavy_readings_span_three_to_six_bytes():
    raw = sensor_raw(np.array([0x7D, 5]), np.arange(4000.0)[:, None], ESCAPE_HEAVY)
    lengths = fr.record_length(np.array([0x7D, 5]), raw)
    assert set(lengths[:, 0].tolist()) == {4, 5, 6}
    assert set(lengths[:, 1].tolist()) == {3, 4, 5}


def test_escape_heavy_anchor_line_counts_equal():
    topo = linear_topology(range(5), turbidity_ntu=70.0)
    seed = sim.scenario_seed(ACCEPTANCE_SEED, 70.0)
    attempted, delivered, _ = assert_engines_agree(
        topo, ANCHOR, 1500, seed, ESCAPE_HEAVY
    )
    assert delivered[-1] < attempted[0] == 1500


def test_escape_heavy_escaped_node_ids_counts_equal():
    topo = linear_topology([0x7D, 5, 0x00, 9], auth_keys=[180, 170, 154, 140])
    assert_engines_agree(topo, lossy_params(0.9), 2000, seed=6, profile=ESCAPE_HEAVY)


def test_escape_heavy_long_line_multi_chunk_counts_equal():
    topo = linear_topology(range(30), auth_keys=range(1, 31))
    attempted, delivered, _ = assert_engines_agree(
        topo, lossy_params(0.995), 400, seed=12, profile=ESCAPE_HEAVY
    )
    assert 0 < delivered[-1] < attempted[-1]


# --- monitor rows ------------------------------------------------------------------


@pytest.mark.parametrize("ntu", [0.01, 70.0])
def test_anchor_line_monitor_rows_equal(ntu):
    topo = linear_topology(range(5), turbidity_ntu=ntu)
    seed = sim.scenario_seed(ACCEPTANCE_SEED, ntu)
    rows = assert_monitor_agrees(
        topo, ANCHOR, 1500, seed, SensorProfile(seed=ACCEPTANCE_SEED)
    )
    assert 0 < len(rows) < 1500


def test_heterogeneous_config_monitor_rows_equal():
    config = parse_config((CONFIGS / "heterogeneous.cfg").read_text())
    assert_monitor_agrees(
        config.topology(70.0), config.channel, 1500, config.seed, config.sensor
    )


def test_single_hop_monitor_rows_equal():
    rows = assert_monitor_agrees(
        linear_topology(range(2)), lossy_params(0.8, frame_bytes=8), 2000, seed=4
    )
    assert 0 < len(rows) < 2000 and len(rows[0].temperatures_c) == 2


def test_escaped_node_ids_monitor_rows_equal():
    topo = linear_topology([0x7D, 5, 0x00, 9], auth_keys=[180, 170, 154, 140])
    assert_monitor_agrees(topo, lossy_params(0.9), 2000, seed=6)


def test_escape_heavy_escaped_node_ids_monitor_rows_equal():
    topo = linear_topology([0x7D, 5, 0x00, 9], auth_keys=[180, 170, 154, 140])
    rows = assert_monitor_agrees(
        topo, lossy_params(0.9), 2000, seed=6, profile=ESCAPE_HEAVY
    )
    assert 0 < len(rows) < 2000


def test_long_line_multi_chunk_monitor_rows_equal():
    topo = linear_topology(range(30), auth_keys=range(1, 31))
    rows = assert_monitor_agrees(topo, lossy_params(0.995), 400, seed=12)
    assert 0 < len(rows) < 400


def test_ber_underflow_and_zero_signal_monitor_rows_equal():
    clean = ChannelParams(1000.0, 0.0, 0.0, noise_sigma=1e-9)
    rows = assert_monitor_agrees(linear_topology(range(5)), clean, 300, seed=2)
    assert [row.round_index for row in rows] == list(range(300))

    dark = ChannelParams(1000.0, 10.0, 0.0, noise_sigma=1.0)
    deep = linear_topology(range(5), link_distance_m=500.0)
    assert assert_monitor_agrees(deep, dark, 300, seed=2) == []


def test_noiseless_sensor_monitor_rows_equal():
    profile = SensorProfile(amplitude_c=1.5, period_s=1.0, noise_std_c=0.0)
    assert_monitor_agrees(
        linear_topology(range(5)), lossy_params(0.9), 2000, seed=3, profile=profile
    )


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_partitions_monitor_rows_equal(workers):
    topo = linear_topology(range(5), turbidity_ntu=70.0)
    assert_monitor_agrees(topo, ANCHOR, 1001, 8, workers=workers)


@pytest.mark.parametrize("workers", [1, 2, 7])
def test_one_canary_round_per_run(workers, monkeypatch):
    # workers only sizes the counting blocks: one pass, one round replayed
    # through the reference engine, the same report as workers=1
    topo = linear_topology(range(5), turbidity_ntu=70.0)
    serial = run_scenario(topo, ANCHOR, 1001, 8, collect_monitor=True)
    simulate = sim._simulate_rounds
    replayed = []

    def counted(topology, params, seed, first_round, last_round, *rest):
        replayed.append(last_round - first_round)
        return simulate(topology, params, seed, first_round, last_round, *rest)

    monkeypatch.setattr(sim, "_simulate_rounds", counted)
    report = run_scenario(topo, ANCHOR, 1001, 8, collect_monitor=True, workers=workers)
    assert replayed == [1]
    assert report == serial


def test_many_blocks_monitor_rows_equal(monkeypatch):
    monkeypatch.setattr(sim, "_BLOCK_CELLS", 4 * 37)  # 37 rounds per block
    topo = linear_topology(range(5), turbidity_ntu=70.0)
    assert_monitor_agrees(topo, ANCHOR, 1001, 5)


def test_partition_from_a_late_round_monitor_rows_equal():
    topo = linear_topology(range(5), turbidity_ntu=70.0)
    profile = SensorProfile(seed=3)
    slot = min_slot_duration(len(topo.node_ids))
    args = (topo, ANCHOR, 3, 10**9, 10**9 + 500, slot, profile, True)
    counted = sim._count_rounds(*args)
    assert counted == sim._simulate_rounds(*args)
    assert 0 < len(counted[3]) < 500


# --- layer parity ---------------------------------------------------------------


def test_vector_substream_words_match_substream():
    rounds = np.array([0, 1, 7, 2**40, 2**62 + 5], dtype=np.int64)
    states = derive_states(derive_states(99, 0xC4A7_0001, rounds)[:, None], np.arange(3))
    for c in range(3):
        u = uniform_at(states, c)
        for i, rnd in enumerate(rounds):
            for h in range(3):
                stream = Substream(99, 0xC4A7_0001, int(rnd), h)
                draws = [stream.uniform() for _ in range(c + 1)]
                assert u[i, h] == draws[-1]


def test_record_length_matches_encoder():
    # raw bytes 0x00, 0x7D and 0xFF are escaped, in either position
    raws = np.array([0x0000, 0x007D, 0x00FF, 0x0101, 0x3C00, 0x3C7D, 0x3C80, 0x7D00])
    for node_id in (0x00, 0x41, 0x7D):
        lengths = fr.record_length(node_id, raws)
        for raw, length in zip(raws, lengths):
            record = fr.SensorRecord(node_id, fr.raw_to_temperature(int(raw)))
            frame = fr.Frame((180,), (record,))
            assert len(fr.encode_frame(frame)) == fr.FRAME_OVERHEAD + 1 + length
    # one id per column of a 2-d raw array, as the engine passes a line's ids
    ids = np.array([0x00, 0x41, 0x7D])
    table = fr.record_length(ids, np.column_stack([raws] * len(ids)))
    assert table.T.tolist() == [fr.record_length(i, raws).tolist() for i in ids]


def test_sensor_raw_matches_sample_sensor():
    profile = SensorProfile(seed=5)
    clocks = np.arange(4000) * 0.0396 + 0.01
    raw = sensor_raw(np.array([3]), clocks[:, None], profile)[:, 0]
    expected = [
        round(fr.fixed_point(sample_sensor(3, float(t), profile).temperature_c))
        for t in clocks
    ]
    assert raw.tolist() == expected


@pytest.mark.parametrize("nodes", [4, 5])
def test_schedule_windows_are_the_reference_engines_slot_times(nodes, monkeypatch):
    # Round r starts at r * (hops * slot) in both engines, which on a 3-hop
    # line differs from (r * hops) * slot in the last bit for many rounds.
    events = []
    original = nd.step

    def recording(state, event):
        if isinstance(event, nd.SlotStart):
            events.append(("start", state.node_id, event.kind, event.time))
        elif isinstance(event, nd.SlotEnd):
            events.append(("end", state.node_id, event.time))
        return original(state, event)

    monkeypatch.setattr(nd, "step", recording)
    topo = linear_topology(range(nodes))
    slot = min_slot_duration(nodes)
    clean = ChannelParams(1000.0, 0.0, 0.0, noise_sigma=1e-9)
    attempted, delivered, *_ = sim._simulate_rounds(
        topo, clean, 3, 1, 200, slot, SensorProfile(seed=3), False
    )
    assert delivered == attempted == [199] * (nodes - 1)
    expected = [
        event
        for rnd in range(1, 200)
        for s in nd.schedule(topo.node_ids, slot, rnd)
        for event in (("start", s.node_id, s.kind, s.start), ("end", s.node_id, s.end))
    ]
    assert events == expected


def test_reading_exactly_on_half_rounds_to_even():
    # 20.001953125 degC sits on 15360.5: round-half-even gives 0x3C00, whose
    # low byte needs an escape, where 15361 would not.
    assert fr.fixed_point(20.001953125) == 15360.5
    assert fr.temperature_to_raw(20.001953125) == 0x3C00
    profile = SensorProfile(baseline_c=20.001953125, amplitude_c=0.0, noise_std_c=0.0)
    assert sensor_raw(0, np.zeros(3), profile).tolist() == [0x3C00] * 3
    topo = linear_topology(range(5))
    _, _, frame_bytes = assert_engines_agree(
        topo, lossy_params(0.9), 200, seed=1, profile=profile
    )
    assert frame_bytes[0] == 200 * (fr.hop_frame_lengths([0])[0] + 1)


def test_readings_near_a_tie_are_recomputed_by_sample_sensor(monkeypatch):
    # numpy's sin/log/cos may differ from libm by an ulp, which can only
    # change a reading's rounding next to a tie; those go through the scalar.
    calls = []

    def recording(*args):
        calls.append(args)
        return sample_sensor(*args)

    monkeypatch.setattr(nd, "sample_sensor", recording)
    near = SensorProfile(baseline_c=20.001953125, amplitude_c=1e-9, noise_std_c=0.0)
    clear = replace(near, baseline_c=20.0)
    # a hair above 15360.5 at t = 1 s and 2 s, so both round up
    assert sensor_raw(0, np.array([1.0, 2.0]), near).tolist() == [0x3C01] * 2
    assert len(calls) == 2
    sensor_raw(0, np.array([1.0, 2.0]), clear)
    assert len(calls) == 2


@pytest.mark.parametrize(
    "profile",
    [
        SensorProfile(seed=5),
        SensorProfile(seed=5, noise_std_c=0.0),
        # noise well above the baseline, so an ulp of log or cos shows
        SensorProfile(
            seed=9, baseline_c=0.0, amplitude_c=-2.5, period_s=7.0, noise_std_c=40.0
        ),
    ],
    ids=["default", "noiseless", "negative-amplitude"],
)
def test_sensor_temperatures_equal_sample_sensor(profile):
    slot = min_slot_duration(5)
    clocks = np.concatenate(
        [
            [0.0],
            np.arange(1700) * 0.0396 + 0.01,
            # the sink's clocks in rounds 10**9 onwards of the 4-hop line
            ((10**9 + np.arange(1700)) * (4 * slot) + 3 * slot) + slot,
        ]
    )
    for node_id in (0x00, 0x7D, 254):
        temps = nd.sensor_temperatures(node_id, clocks, profile)
        assert all(type(t) is float for t in temps)
        assert temps == [
            sample_sensor(node_id, t, profile).temperature_c for t in clocks.tolist()
        ]


def test_u1_redraw_falls_back_to_sample_sensor(monkeypatch):
    # gauss() redraws a zero u1, which shifts u2 by one word; both block
    # functions take that cell's reading with the scalar sample_sensor.
    original = nd._noise_words

    def forced(node_ids, clocks, profile):
        u1, u2 = original(node_ids, clocks, profile)
        u1 = u1.copy()
        u1[3] = 0.0
        return u1, u2

    monkeypatch.setattr(nd, "_noise_words", forced)
    profile = SensorProfile(seed=5, noise_std_c=2.0)
    clocks = np.arange(8) * 0.25
    expected = [sample_sensor(7, t, profile).temperature_c for t in clocks.tolist()]
    assert nd.sensor_temperatures(7, clocks, profile) == expected
    assert sensor_raw(7, clocks, profile).tolist() == [
        round(fr.fixed_point(t)) for t in expected
    ]


def test_monitor_rows_take_no_scalar_reading_per_row(monkeypatch):
    # The sink's readings are drawn per block: sample_sensor runs only for
    # the canary round's state machine and for sensor_raw's tie cells.
    callers = []
    original = nd.sample_sensor

    def counting(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args)

    monkeypatch.setattr(nd, "sample_sensor", counting)
    topo = linear_topology(range(5), turbidity_ntu=0.01)
    report = run_scenario(topo, ANCHOR, 2000, seed=1, collect_monitor=True)
    assert len(report.monitor_rows) > 1800
    assert set(callers) <= {"_own_record", "sensor_raw"}
    assert callers.count("_own_record") <= len(topo.node_ids)
    assert len(callers) < 20


# --- RecordOutOfRange parity ------------------------------------------------------

# Readings rise by `rate` degC per second from 84.99: with 1 s slots, the
# node that reads at time t is out of range once 84.99 + rate * t > 85.00195.
def _rising(rate: float) -> SensorProfile:
    period = 1e6
    return SensorProfile(
        baseline_c=84.99, amplitude_c=rate * period / (2 * math.pi),
        period_s=period, noise_std_c=0.0,
    )


def _run(topo, params, profile, monitor):
    return run_scenario(
        topo, params, 1, 0, slot_duration=1.0, profile=profile, collect_monitor=monitor
    )


@pytest.mark.parametrize("monitor", [False, True])
def test_out_of_range_sink_reading_does_not_raise(monitor):
    clean = ChannelParams(1000.0, 0.0, 0.0, noise_sigma=1e-9)
    # the sink reads at t = 4 s, the last relay at 3 s
    report = _run(linear_topology(range(5)), clean, _rising(0.0035), monitor)
    assert report.hops[-1].packets_delivered == 1


@pytest.mark.parametrize("monitor", [False, True])
def test_out_of_range_reading_in_dead_round_does_not_raise(monitor):
    dark = ChannelParams(1000.0, 10.0, 0.0, noise_sigma=1.0)
    deep = linear_topology(range(5), link_distance_m=500.0)
    report = _run(deep, dark, _rising(0.02), monitor)  # relay 1 reads at 1 s
    assert report.hops[0].packets_delivered == 0


@pytest.mark.parametrize("monitor", [False, True])
def test_out_of_range_reading_on_attempted_hop_raises(monitor):
    clean = ChannelParams(1000.0, 0.0, 0.0, noise_sigma=1e-9)
    with pytest.raises(fr.RecordOutOfRange):
        _run(linear_topology(range(5)), clean, _rising(0.02), monitor)


def test_out_of_range_reading_in_a_later_round_raises_the_same_error():
    # From 84.9 degC the first out-of-range record is relay 2's in round 7
    # (t = 30 s), past the round the canary replays.
    clean = ChannelParams(1000.0, 0.0, 0.0, noise_sigma=1e-9)
    profile = replace(_rising(0.0035), baseline_c=84.9)
    errors = []
    for monitor in (False, True):
        with pytest.raises(fr.RecordOutOfRange) as info:
            run_scenario(linear_topology(range(5)), clean, 50, 0, slot_duration=1.0,
                         profile=profile, collect_monitor=monitor)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("monitor", [False, True])
def test_far_out_of_range_reading_raises_record_out_of_range(monitor):
    # From 84.9 degC at 0.033 degC/s the canary round stays in range and
    # round 1's originator (t = 4 s) is out of it; later rounds of the same
    # block read above 216 degC, whose raw value needs more than 16 bits.
    clean = ChannelParams(1000.0, 0.0, 0.0, noise_sigma=1e-9)
    profile = replace(_rising(0.033), baseline_c=84.9)
    slot = 1.0
    assert sensor_raw(0, np.array([1999 * 4 * slot]), profile)[0] >= 1 << 16
    with pytest.raises(fr.RecordOutOfRange):
        run_scenario(linear_topology(range(5)), clean, 2000, 0, slot_duration=slot,
                     profile=profile, collect_monitor=monitor)


# --- canary ------------------------------------------------------------------------


def test_one_round_counting_run_steps_the_nodes(monkeypatch):
    calls = []
    original = nd.step

    def counting(state, event):
        calls.append(event)
        return original(state, event)

    monkeypatch.setattr(nd, "step", counting)
    clean = ChannelParams(1000.0, 0.0, 0.0, noise_sigma=1e-9)
    run_scenario(linear_topology(range(5)), clean, 1, seed=0)
    assert len(calls) == 20  # 4 hops: tx start/end, rx start/bytes/end


def test_perturbed_engine_trips_the_canary(monkeypatch):
    original = sim._block_outcomes

    def perturbed(*args):
        live, delivered, nbytes, bad = original(*args)
        return live, delivered, nbytes + 1, bad

    monkeypatch.setattr(sim, "_block_outcomes", perturbed)
    with pytest.raises(RuntimeError, match="counting engine"):
        run_scenario(linear_topology(range(5)), ANCHOR, 10, seed=0)


@pytest.mark.parametrize("field", ["time_s", "temperatures_c"])
def test_perturbed_monitor_row_trips_the_canary(monkeypatch, field):
    original = sim._monitor_rows

    def perturbed(*args):
        first, *rest = original(*args)
        temps = first.temperatures_c
        shifted = {
            "time_s": first.time_s + 1e-9,
            "temperatures_c": temps[:-1] + (temps[-1] + 1e-9,),
        }
        return [replace(first, **{field: shifted[field]}), *rest]

    monkeypatch.setattr(sim, "_monitor_rows", perturbed)
    clean = ChannelParams(1000.0, 0.0, 0.0, noise_sigma=1e-9)
    with pytest.raises(RuntimeError, match="counting engine"):
        run_scenario(linear_topology(range(5)), clean, 10, seed=0, collect_monitor=True)
