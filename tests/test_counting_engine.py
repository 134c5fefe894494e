"""Counting engine against the node state machines: exact equality.

run_scenario counts rounds and builds the monitor log with the vectorized
engine; the reference engine steps every node.  Both draw the same
substream words and return one layout, so every per-hop counter and every
monitor log column must agree exactly.  Each differential case replays its
rounds through the reference engine once, with the log, however many tests
compare against it: the counting engine's result with the log must equal
it whole, and its result without the log must hold the same counts.
The cases: the anchor line at two turbidities and four seeds, the
heterogeneous config, a single hop, escaped node ids, multi-chunk frames,
BER underflow and zero signal, a noiseless sensor, 1001 rounds in 1, 2, 3
and 7 blocks, 37-round blocks, rounds from 10**9, and escape-heavy
readings on the anchor line, the escaped ids and the multi-chunk line.
"""

import functools
import math
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
from uwocnet.rng import Substream, derive_seed, derive_state, derive_states, uniform_at
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


@functools.cache
def reference_rounds(line, runs, params, first, last, slot, profile):
    """The reference engine's rounds [first, last) of line over a tuple of
    (links, seed) runs, with the log, stepped once per case and shared by
    every test that compares against it (callers must not mutate it)."""
    return sim._simulate_rounds(
        line, list(runs), params, first, last, slot, profile, True
    )


def count_rounds(line, runs, *args, collect_monitor=True):
    """sim._count_rounds, each run's counts with its log as collect_monitor
    gathers it, or None."""
    logs = [[[] for _ in range(len(line.node_ids) + 2)] for _ in runs]

    def collect(i, rows):
        for column, more in zip(logs[i], sim._log_columns(rows)):
            column.extend(more)

    counts = sim._count_rounds(line, runs, *args, collect if collect_monitor else None)
    return [(*c, log if collect_monitor else None) for c, log in zip(counts, logs)]


def assert_engines_agree(topo, params, rounds, seed, profile=None, first=0):
    """Rounds [first, first + rounds) from both engines against the one
    reference replay of the case, with the log; returns the counting
    engine's (delivered, frame_bytes_sum, log)."""
    profile = profile if profile is not None else SensorProfile(seed=seed)
    slot = min_slot_duration(len(topo.node_ids))
    args = (topo, [(topo.links, seed)], params, first, first + rounds, slot, profile)
    [stepped] = reference_rounds(topo, ((topo.links, seed),), *args[2:])
    [counted] = count_rounds(*args)
    assert counted == stepped
    assert count_rounds(*args, collect_monitor=False) == [(*counted[:2], None)]
    indices, *floats = counted[2]
    assert len(floats) == len(topo.node_ids) + 1
    # plain Python values, so the CSV renders them as the reference log
    assert all(type(r) is int for r in indices)
    assert all(type(x) is float for column in floats for x in column)
    return counted


def hop_fields(report):
    """(attempted, delivered, mean frame bytes) of each hop of a report."""
    return [
        (h.packets_attempted, h.packets_delivered, h.mean_frame_bytes)
        for h in report.hops
    ]


def stepped_fields(rounds, delivered, frame_bytes_sum):
    """hop_fields of the report run_scenario builds from these counters of
    `rounds` rounds: a hop carries what the hop before it delivered."""
    return [
        (a, d, f / a if a else 0.0)
        for a, d, f in zip([rounds, *delivered[:-1]], delivered, frame_bytes_sum)
    ]


def assert_report_agrees(topo, params, rounds, seed, profile=None):
    """assert_engines_agree from round 0, and run_scenario's report of
    those rounds; returns the same."""
    counted = assert_engines_agree(topo, params, rounds, seed, profile)
    report = run_scenario(
        topo, params, rounds, seed, profile=profile, collect_monitor=True
    )
    assert hop_fields(report) == stepped_fields(rounds, *counted[:2])
    assert report.monitor_log == counted[2]
    return counted


# --- differential tests ---------------------------------------------------------


@pytest.mark.parametrize("ntu", [0.01, 70.0])
@pytest.mark.parametrize("root_seed", [ACCEPTANCE_SEED, 1, 42, 987654321])
def test_anchor_line_counts_equal(ntu, root_seed):
    topo = linear_topology(range(5), turbidity_ntu=ntu)
    seed = sim.scenario_seed(root_seed, ntu)
    delivered, _, (logged, *_) = assert_report_agrees(
        topo, ANCHOR, 1500, seed, SensorProfile(seed=root_seed)
    )
    assert delivered[-1] < 1500  # losses were drawn
    assert 0 < len(logged) == delivered[-1]


def test_heterogeneous_config_monitor_rows_equal():
    config = parse_config((CONFIGS / "heterogeneous.cfg").read_text())
    assert_report_agrees(
        config.topology(70.0), config.channel, 1500, config.seed, config.sensor
    )


def test_single_hop_counts_equal():
    delivered, _, _ = assert_engines_agree(
        linear_topology(range(2)), lossy_params(0.8, frame_bytes=8), 2000, seed=4
    )
    assert 0 < delivered[0] < 2000


def test_single_hop_monitor_rows_equal():
    delivered, _, (logged, *_) = assert_report_agrees(
        linear_topology(range(2)), lossy_params(0.8, frame_bytes=8), 2000, seed=4
    )
    assert 0 < delivered[0] < 2000
    assert 0 < len(logged) < 2000


def test_escaped_node_ids_counts_equal():
    # ids 0x00 and 0x7D each cost an escape byte in every frame they ride in
    topo = linear_topology([0x7D, 5, 0x00, 9], auth_keys=[180, 170, 154, 140])
    _, frame_bytes, _ = assert_engines_agree(topo, lossy_params(0.9), 2000, seed=6)
    (nominal,) = fr.hop_frame_lengths([0x7D])
    assert frame_bytes[0] >= 2000 * nominal == 2000 * (fr.hop_frame_lengths([1])[0] + 1)


def test_escaped_node_ids_monitor_rows_equal():
    # ids 0x00 and 0x7D each cost an escape byte in every frame they ride in
    topo = linear_topology([0x7D, 5, 0x00, 9], auth_keys=[180, 170, 154, 140])
    _, frame_bytes, _ = assert_report_agrees(topo, lossy_params(0.9), 2000, seed=6)
    (nominal,) = fr.hop_frame_lengths([0x7D])
    assert frame_bytes[0] >= 2000 * nominal == 2000 * (fr.hop_frame_lengths([1])[0] + 1)


def test_long_line_multi_chunk_monitor_rows_equal():
    # 30 nodes: frames on the last hops exceed 1024 on-wire bits, so the
    # hop outcome takes a second uniform from the link substream.
    ids = list(range(30))
    topo = linear_topology(ids, auth_keys=range(1, 31))
    lengths = fr.hop_frame_lengths(ids[:-1])
    assert 10 * lengths[-1] > 1024
    delivered, _, (logged, *_) = assert_report_agrees(
        topo, lossy_params(0.995), 400, seed=12
    )
    long_hops = [h for h, nbytes in enumerate(lengths) if 10 * nbytes > 1024]
    assert sum(delivered[h - 1] - delivered[h] for h in long_hops) > 0
    assert 0 < len(logged) < 400


def test_ber_underflow_and_zero_signal_monitor_rows_equal():
    clean = ChannelParams(1000.0, 0.0, 0.0, noise_sigma=1e-9)
    topo = linear_topology(range(5))
    assert link_ber(clean, topo.links[0]) == 0.0
    delivered, _, (logged, *_) = assert_report_agrees(
        topo, clean, 300, seed=2
    )
    assert delivered == [300] * 4
    assert logged == list(range(300))

    dark = ChannelParams(1000.0, 10.0, 0.0, noise_sigma=1.0)
    deep = linear_topology(range(5), link_distance_m=500.0)
    assert link_ber(dark, deep.links[0]) == 0.5
    delivered, sent, (logged, *_) = assert_report_agrees(
        deep, dark, 300, seed=2
    )
    assert delivered == [0] * 4 and sent[1:] == [0] * 3
    assert logged == []


def test_noiseless_sensor_counts_equal():
    profile = SensorProfile(amplitude_c=1.5, period_s=1.0, noise_std_c=0.0)
    assert_engines_agree(
        linear_topology(range(5)), lossy_params(0.9), 2000, seed=3, profile=profile
    )


def test_noiseless_sensor_monitor_rows_equal():
    profile = SensorProfile(amplitude_c=1.5, period_s=1.0, noise_std_c=0.0)
    assert_report_agrees(
        linear_topology(range(5)), lossy_params(0.9), 2000, seed=3, profile=profile
    )


def split_1001_rounds(monkeypatch, parts):
    """Blocks of ceil(1001 / parts) rounds on a 4-hop line: 1001; 501, 500;
    334, 334, 333; seven of 143."""
    monkeypatch.setattr(sim, "_BLOCK_CELLS", 4 * -(-1001 // parts))


@pytest.mark.parametrize("parts", [1, 2, 3, 7])
def test_partitions_counts_equal(parts, monkeypatch):
    topo = linear_topology(range(5), turbidity_ntu=70.0)
    profile = SensorProfile(seed=8)
    serial = run_scenario(topo, ANCHOR, 1001, 8, profile=profile)
    split_1001_rounds(monkeypatch, parts)
    counted = run_scenario(topo, ANCHOR, 1001, 8, profile=profile)
    *counts, _ = assert_engines_agree(topo, ANCHOR, 1001, 8, profile)
    assert counted.hops == serial.hops
    assert hop_fields(counted) == stepped_fields(1001, *counts)
    assert counted.monitor_log is None


@pytest.mark.parametrize("parts", [1, 2, 3, 7])
def test_partitions_monitor_rows_equal(parts, monkeypatch):
    topo = linear_topology(range(5), turbidity_ntu=70.0)
    profile = SensorProfile(seed=8)
    serial = run_scenario(topo, ANCHOR, 1001, 8, profile=profile, collect_monitor=True)
    split_1001_rounds(monkeypatch, parts)
    *counts, log = assert_report_agrees(topo, ANCHOR, 1001, 8, profile)
    assert hop_fields(serial) == stepped_fields(1001, *counts)
    assert serial.monitor_log == log


@pytest.mark.parametrize("workers", [1, 2, 7])
def test_one_canary_round_per_run(workers, monkeypatch):
    # workers is checked but sizes nothing: in seven blocks too, one pass,
    # one round replayed through the reference engine, the workers=1 report
    topo = linear_topology(range(5), turbidity_ntu=70.0)
    serial = run_scenario(topo, ANCHOR, 1001, 8, collect_monitor=True)
    simulate = sim._simulate_rounds
    replayed = []

    def counted(line, runs, params, first_round, last_round, *rest):
        replayed.append(last_round - first_round)
        return simulate(line, runs, params, first_round, last_round, *rest)

    monkeypatch.setattr(sim, "_simulate_rounds", counted)
    split_1001_rounds(monkeypatch, 7)
    report = run_scenario(topo, ANCHOR, 1001, 8, collect_monitor=True, workers=workers)
    assert replayed == [1]
    assert report == serial


@pytest.mark.parametrize("workers", [1, 2, 7, 5000])
def test_workers_leaves_the_block_plan(workers, monkeypatch):
    # the blocks depend on the line alone: 1001 rounds on 4 hops are one
    # block whatever workers is (it starts no thread or process)
    topo = linear_topology(range(5), turbidity_ntu=70.0)
    serial = run_scenario(topo, ANCHOR, 1001, 8, collect_monitor=True)
    readings, block_rounds = sim._readings, []

    def counted_readings(topology, rnd, *rest):
        block_rounds.append(len(rnd))
        return readings(topology, rnd, *rest)

    monkeypatch.setattr(sim, "_readings", counted_readings)
    report = run_scenario(topo, ANCHOR, 1001, 8, collect_monitor=True, workers=workers)
    assert block_rounds == [1001]
    assert report == serial


def test_many_blocks_counts_equal(monkeypatch):
    monkeypatch.setattr(sim, "_BLOCK_CELLS", 4 * 37)  # 37 rounds per block
    topo = linear_topology(range(5), turbidity_ntu=70.0)
    assert_engines_agree(topo, ANCHOR, 1001, 5)


def test_many_blocks_monitor_rows_equal(monkeypatch):
    monkeypatch.setattr(sim, "_BLOCK_CELLS", 4 * 37)  # 37 rounds per block
    topo = linear_topology(range(5), turbidity_ntu=70.0)
    assert_report_agrees(topo, ANCHOR, 1001, 5)


def test_partition_from_a_late_round_counts_equal():
    topo = linear_topology(range(5), turbidity_ntu=70.0)
    assert_engines_agree(topo, ANCHOR, 500, 3, first=10**9)


def test_partition_from_a_late_round_monitor_rows_equal():
    topo = linear_topology(range(5), turbidity_ntu=70.0)
    *_, (logged, *_) = assert_engines_agree(topo, ANCHOR, 500, 3, first=10**9)
    assert 0 < len(logged) < 500 and logged[0] >= 10**9


# Near -39 degC the high byte is 0x00 about half the time and the low byte
# sometimes 0x00 or 0xFF, so records take 3 to 6 bytes and each hop's frame
# length varies over several escape bytes within one block.
ESCAPE_HEAVY = SensorProfile(baseline_c=-39.0, amplitude_c=0.0, noise_std_c=0.05)


def test_escape_heavy_readings_span_three_to_six_bytes():
    raw = sensor_raw(np.array([0x7D, 5]), np.arange(4000.0)[:, None], ESCAPE_HEAVY)
    lengths = fr.record_length(np.array([0x7D, 5]), raw)
    assert set(lengths[:, 0].tolist()) == {4, 5, 6}
    assert set(lengths[:, 1].tolist()) == {3, 4, 5}


def test_hop_frame_lengths_equal_the_cumsum_formula():
    # the hop-by-hop adds give np.cumsum's lengths, in int64, on any leading axes
    def cumsum_lengths(ids, raw=fr.temperature_to_raw(fr.REFERENCE_TEMP_C)):
        records = fr.record_length(np.asarray(ids, dtype=np.int64), raw)
        return fr.FRAME_OVERHEAD + np.cumsum(1 + records, axis=-1)

    def check(ids, *raw):
        lengths = fr.hop_frame_lengths(ids, *raw)
        assert lengths.dtype == np.int64
        assert np.array_equal(lengths, cumsum_lengths(ids, *raw))
        return lengths

    assert check([]).tolist() == []
    for n in (1, 4, 29):
        ids = [0x7D, *range(1, n - 1), 0x00][:n]
        check(ids)
        check(ids, np.arange(n) * 0x3F7D)
    ids = np.array([0x00, 5, 0x7D, 9])
    clocks = np.arange(3000.0).reshape(750, 4)
    raw = sensor_raw(ids, clocks, ESCAPE_HEAVY)
    assert len(np.unique(check(ids, raw)[:, -1])) >= 6  # lengths vary by round
    stack = np.stack([raw, raw[::-1], np.full_like(raw, 0x7D00)])
    lengths = check(ids, stack)  # (scenarios, rounds, hops)
    assert np.array_equal(lengths[1], lengths[0][::-1])


def test_escape_heavy_anchor_line_counts_equal():
    topo = linear_topology(range(5), turbidity_ntu=70.0)
    seed = sim.scenario_seed(ACCEPTANCE_SEED, 70.0)
    delivered, *_ = assert_report_agrees(
        topo, ANCHOR, 1500, seed, ESCAPE_HEAVY
    )
    assert delivered[-1] < 1500


def test_escape_heavy_escaped_node_ids_counts_equal():
    topo = linear_topology([0x7D, 5, 0x00, 9], auth_keys=[180, 170, 154, 140])
    assert_engines_agree(topo, lossy_params(0.9), 2000, seed=6, profile=ESCAPE_HEAVY)


def test_escape_heavy_escaped_node_ids_monitor_rows_equal():
    topo = linear_topology([0x7D, 5, 0x00, 9], auth_keys=[180, 170, 154, 140])
    *_, (logged, *_) = assert_report_agrees(
        topo, lossy_params(0.9), 2000, seed=6, profile=ESCAPE_HEAVY
    )
    assert 0 < len(logged) < 2000


def test_escape_heavy_long_line_multi_chunk_counts_equal():
    topo = linear_topology(range(30), auth_keys=range(1, 31))
    delivered, *_ = assert_report_agrees(
        topo, lossy_params(0.995), 400, seed=12, profile=ESCAPE_HEAVY
    )
    assert 0 < delivered[-1] < delivered[-2]


# --- layer parity ---------------------------------------------------------------


def test_vector_substream_words_match_substream():
    rounds = np.array([0, 1, 7, 2**40, 2**62 + 5], dtype=np.int64)
    prefix = np.array(derive_state(99, 0xC4A7_0001), np.uint64)
    states = derive_states(derive_states(prefix, rounds)[:, None], np.arange(3))
    for c in range(3):
        u = uniform_at(states, c)
        for i, rnd in enumerate(rounds):
            for h in range(3):
                stream = Substream(99, 0xC4A7_0001, int(rnd), h)
                draws = [stream.uniform() for _ in range(c + 1)]
                assert u[i, h] == draws[-1]
    # a uint64 seed array, as the counting engine passes a block's scenarios;
    # the array functions mix their own temporaries, never their inputs
    seeds = np.array([0, 1, 2**63 - 1, 2**64 - 1], dtype=np.uint64)
    hops = np.arange(3)
    inputs = [seeds, rounds, hops]
    kept = [a.copy() for a in inputs]
    rounds_states = derive_states(seeds[:, None], 0xC4A7_0001, rounds)
    inputs.append(rounds_states)
    kept.append(rounds_states.copy())
    states = derive_states(rounds_states[:, :, None], hops)
    inputs.append(states)
    kept.append(states.copy())
    draws = np.stack([uniform_at(states, c) for c in range(3)], axis=-1)
    for a, b in zip(inputs, kept):
        assert np.array_equal(a, b)
    for (k, i, h), _ in np.ndenumerate(states):
        stream = Substream(int(seeds[k]), 0xC4A7_0001, int(rounds[i]), h)
        assert draws[k, i, h].tolist() == [stream.uniform() for _ in range(3)]
    # a stream prefix folded once extends to the words of the whole address
    for seed in (0, 1, 2**63 - 1, 2**64 - 1, -1):
        prefix = derive_state(seed, 0xC4A7_0001)
        assert derive_states(np.array(prefix, np.uint64), rounds).tolist() == [
            derive_state(seed, 0xC4A7_0001, rnd) for rnd in rounds.tolist()
        ]
        for rnd in rounds.tolist():
            for h in range(3):
                folded = Substream(prefix, rnd, h)
                whole = Substream(seed, 0xC4A7_0001, rnd, h)
                assert [folded.next_u64(), folded.uniform()] == [
                    whole.next_u64(), whole.uniform()
                ]


def test_long_frame_outcomes_match_the_binomial_draw():
    # Frames of 103-142 bytes cross 1024 on-wire bits, so each hop's zero-flip
    # test takes two chunk thresholds; at BER ~1e-3 a chunk sized one bit off
    # moves a threshold by a relative ~1e-3, which a few of these cells see.
    bers = np.array([[1.0e-3, 0.8e-3], [0.7e-3, 1.1e-3], [0.9e-3, 1.2e-3]])
    seeds = np.array([11, 2**64 - 3, 7], dtype=np.uint64)
    rnd = np.arange(4000, dtype=np.int64)
    nbytes = np.random.default_rng(5).integers(103, 143, size=(len(rnd), 2))
    delivered, sent = sim._block_outcomes(bers, seeds, rnd, nbytes)
    live = sent > 0  # every frame has bytes: a hop sends in each live round
    assert live[..., 0].all() and 0 < live[..., 1].sum() < live[..., 0].sum()
    for k, i, h in np.argwhere(live).tolist():
        stream = Substream(int(seeds[k]), sim._LINK_STREAM_TAG, i, h)
        zero = stream.binomial(10 * int(nbytes[i, h]), float(bers[k, h])) == 0
        assert delivered[k, i, h] == zero, (k, i, h)


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
            events.append(("start", state.identity.node_id, event.kind, event.time))
        elif isinstance(event, nd.SlotEnd):
            events.append(("end", state.identity.node_id, event.time))
        return original(state, event)

    monkeypatch.setattr(nd, "step", recording)
    topo = linear_topology(range(nodes))
    slot = min_slot_duration(nodes)
    clean = ChannelParams(1000.0, 0.0, 0.0, noise_sigma=1e-9)
    [(delivered, *_)] = sim._simulate_rounds(
        topo, [(topo.links, 3)], clean, 1, 200, slot, SensorProfile(seed=3), False
    )
    assert delivered == [199] * (nodes - 1)
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
    _, frame_bytes, _ = assert_engines_agree(
        topo, lossy_params(0.9), 200, seed=1, profile=profile
    )
    assert frame_bytes[0] == 200 * (fr.hop_frame_lengths([0])[0] + 1)


def test_readings_near_a_tie_are_recomputed_by_sample_sensor(monkeypatch):
    # numpy's log and the tan forms of sin and cos may differ from libm by an
    # ulp, which can only change a reading's rounding next to a tie; those go
    # through the scalar.
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


@pytest.mark.parametrize(
    "profile",
    [SensorProfile(seed=5), SensorProfile(seed=5, amplitude_c=40.0, noise_std_c=5.0)],
    ids=["default", "wide"],
)
def test_tan_forms_give_exact_raws_at_their_hard_points(profile, monkeypatch):
    # sensor_raw takes sin and cos as tan(x / 2) forms.  Force the noise words
    # onto the points where those forms are least tame (cos at 0, pi/2, pi,
    # 3pi/2 and just below 2pi; the extremes of log u1), on clocks at drift
    # angles 0, pi/2, pi and 3pi/2 and at the slot clocks near round 10**7.
    pairs = [
        (u1, u2)
        for u1 in (2.0**-53, 0.5, 1.0 - 2.0**-53)
        for u2 in (0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53)
    ]
    quarter = profile.period_s / 4
    periods = [*range(len(pairs)), *range(440, 440 + len(pairs))]  # 440: ~round 10**7
    on_angles = [[quarter * (4 * n + k) for k in range(4)] for n in periods]
    slot = min_slot_duration(5)
    rnd = np.arange(10**7 - 30, 10**7 + 30)
    on_slots = nd.slot_start(rnd[:, None], np.arange(4), 4, slot) + slot
    clocks = np.concatenate([on_angles, on_slots])
    ids = np.array([0x00, 5, 0x7D, 254])
    cell = np.arange(clocks.size).reshape(clocks.shape) // 4  # a pair per row of 4
    u1, u2 = (np.array(u)[cell % len(pairs)] for u in zip(*pairs))
    words = {
        (int(ids[k]), float(t)): (u1[r, k], u2[r, k])
        for (r, k), t in np.ndenumerate(clocks)
    }
    assert len(words) == clocks.size

    class Forced(Substream):
        # sample_sensor's stream, drawing the forced words of its cell
        def __init__(self, seed, tag, node_id, clock_bits):
            clock = np.uint64(clock_bits).view(np.float64)
            self.draws = iter(float(u) for u in words[node_id, float(clock)])

        def uniform(self):
            return next(self.draws)

    monkeypatch.setattr(nd, "_noise_words", lambda node_ids, clocks, profile: (u1, u2))
    monkeypatch.setattr(nd, "Substream", Forced)
    raw = sensor_raw(ids, clocks, profile)
    expected = [
        [round(fr.fixed_point(sample_sensor(int(i), t, profile).temperature_c))
         for i, t in zip(ids, row)]
        for row in clocks.tolist()
    ]
    assert raw.tolist() == expected


def test_monitor_rows_take_no_scalar_reading_per_row(monkeypatch):
    # The sink's readings are drawn per block: sample_sensor runs only for
    # the canary round's state machine, at most once per node, and for
    # sensor_raw's tie cells.
    calls, in_canary = [], []
    sample, simulate = nd.sample_sensor, sim._simulate_rounds

    def counting(*args):
        calls.append(bool(in_canary))
        return sample(*args)

    def canary(*args):
        in_canary.append(True)
        try:
            return simulate(*args)
        finally:
            in_canary.pop()

    monkeypatch.setattr(nd, "sample_sensor", counting)
    monkeypatch.setattr(sim, "_simulate_rounds", canary)
    topo = linear_topology(range(5), turbidity_ntu=0.01)
    report = run_scenario(topo, ANCHOR, 2000, seed=1, collect_monitor=True)
    assert len(report.monitor_log[0]) > 1800
    assert 0 < calls.count(True) <= len(topo.node_ids)
    assert len(calls) < 20


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


@pytest.mark.parametrize("monitor", [False, True])
def test_out_of_range_record_raises_even_if_the_replay_does_not(monkeypatch, monitor):
    # the replay is the oracle that names the error; should it not raise,
    # the counting engine still returns no counts past the bad record
    replays = []
    monkeypatch.setattr(sim, "_simulate_rounds", lambda *args: replays.append(args))
    clean = ChannelParams(1000.0, 0.0, 0.0, noise_sigma=1e-9)
    with pytest.raises(RuntimeError, match="round 0: .* out-of-range record"):
        _run(linear_topology(range(5)), clean, _rising(0.02), monitor)
    assert len(replays) == 1


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
        delivered, nbytes = original(*args)
        return delivered, nbytes + 1

    monkeypatch.setattr(sim, "_block_outcomes", perturbed)
    with pytest.raises(RuntimeError, match="counting engine"):
        run_scenario(linear_topology(range(5)), ANCHOR, 10, seed=0)


def _nudge(column):
    column[0] += 1e-9


def _dropped_row_0(log):
    log[2] = log[2][:, 1:]  # the relayed temperatures: one row per transmitter
    for column in log[:2] + log[3:]:
        column.pop(0)


def _spurious_round_0(log):
    log[2] = np.concatenate((log[2][:, :1], log[2]), axis=1)
    for column in log[:2] + log[3:]:
        column.insert(0, column[0])  # a copy of the first logged row ...
    log[0][0] = 0  # ... as round 0's


# Each mangles the first block's counting rows (sim._monitor_columns) in place.
PERTURBED_LOGS = {
    # the first entry of the time column, or of the sink's temperatures
    "time_s": lambda log: _nudge(log[1]),
    "temperatures_c": lambda log: _nudge(log[-1]),
    "dropped_row": _dropped_row_0,  # round 0's
    "spurious_row": _spurious_round_0,  # for a round 0 that was lost
    # the first relayed temperature of the last transmitter
    "relayed_c": lambda log: _nudge(log[2][-1]),
}


@pytest.mark.parametrize("field", PERTURBED_LOGS)
def test_perturbed_monitor_row_trips_the_canary(monkeypatch, field):
    # Seed 1 delivers round 0; seed 0 loses it, yet logs later rounds:
    # unperturbed, the canary passes on both.
    topo, params = linear_topology(range(5)), lossy_params(0.9)
    seed, first_logged = (0, 1) if field == "spurious_row" else (1, 0)
    rounds, *_ = run_scenario(topo, params, 10, seed, collect_monitor=True).monitor_log
    assert rounds[0] == first_logged and len(rounds) > 5
    original = sim._monitor_columns

    def perturbed(*args):
        log = original(*args)
        PERTURBED_LOGS[field](log)
        return log

    monkeypatch.setattr(sim, "_monitor_columns", perturbed)
    with pytest.raises(RuntimeError, match="counting engine"):
        run_scenario(topo, params, 10, seed, collect_monitor=True)


# --- one counting pass per sweep ---------------------------------------------------

SWEEP_NTU = [70.0, 0.01, 40.0, 150.0]


@pytest.mark.parametrize("monitor", [False, True])
def test_sweep_equals_run_scenario_per_turbidity(monitor, monkeypatch):
    topo, profile = linear_topology(range(5)), SensorProfile(seed=21)
    expected = [
        run_scenario(topo.with_turbidity(t), ANCHOR, 301, sim.scenario_seed(21, t),
                     profile=profile, collect_monitor=True)
        for t in SWEEP_NTU
    ]
    assert all(r.monitor_log[0] for r in expected)
    if not monitor:
        expected = [replace(r, monitor_log=None) for r in expected]
    for block_rounds in (150, 101):  # blocks of 150, 150, 1; of 101, 101, 99
        monkeypatch.setattr(sim, "_BLOCK_CELLS", 16 * block_rounds)
        swept = sim.sweep(topo, ANCHOR, SWEEP_NTU, 301, 21, profile=profile,
                          collect_monitor=monitor)
        assert swept == expected


@pytest.mark.parametrize("monitor", [False, True])
def test_sweep_takes_each_blocks_readings_once(monitor, monkeypatch):
    monkeypatch.setattr(sim, "_BLOCK_CELLS", 16 * 100)  # 100 rounds per block
    readings, simulate = sim._readings, sim._simulate_rounds
    block_rounds, replayed = [], []

    def counted_readings(topology, rnd, *rest):
        block_rounds.append(len(rnd))
        return readings(topology, rnd, *rest)

    def counted_replays(line, runs, params, first_round, last_round, *rest):
        replayed.append(([seed for _, seed in runs], first_round, last_round))
        return simulate(line, runs, params, first_round, last_round, *rest)

    monkeypatch.setattr(sim, "_readings", counted_readings)
    monkeypatch.setattr(sim, "_simulate_rounds", counted_replays)
    sim.sweep(linear_topology(range(5)), ANCHOR, SWEEP_NTU, 301, 4,
              profile=SensorProfile(seed=4), collect_monitor=monitor)
    assert block_rounds == [100, 100, 100, 1]
    # and one replay of the first round through the nodes covers every turbidity
    assert replayed == [([sim.scenario_seed(4, t) for t in SWEEP_NTU], 0, 1)]


@pytest.mark.parametrize("monitor", [False, True])
def test_shared_replay_equals_one_replay_per_scenario(monitor):
    # The nodes step once for all scenarios, on the bytes a live one received;
    # the last scenario's hop 0 (5 m) rarely delivers, so it is often the
    # last one drawn while the others are still live.
    topo, profile = linear_topology(range(5)), SensorProfile(seed=9)
    runs = [(topo.links_at(t), sim.scenario_seed(9, t)) for t in SWEEP_NTU]
    rare = linear_topology(range(5), link_distance_m=(5, 4, 4, 4), turbidity_ntu=70.0)
    runs.append((rare.links, 9))
    args = (ANCHOR, 0, 300, min_slot_duration(5), profile)
    shared = reference_rounds(topo, tuple(runs), *args)
    assert shared == [reference_rounds(topo, (r,), *args)[0] for r in runs]
    assert 0 < shared[-1][0][0] < 100  # hop 0 of the rare line
    assert all(log[0] for *_, log in shared)
    expected = shared if monitor else [(*run[:2], None) for run in shared]
    assert count_rounds(topo, runs, *args, collect_monitor=monitor) == expected


def test_sweep_steps_the_nodes_once_for_all_turbidities(monkeypatch):
    # the canary of a sweep sharing one sensor profile steps no more nodes
    # than that of its costliest turbidity alone
    steps = []
    original = nd.step

    def counted(state, event):
        steps.append(state.identity.node_id)
        return original(state, event)

    def node_steps(turbidities):
        steps.clear()
        sim.sweep(linear_topology(range(5)), ANCHOR, turbidities, 50, 0,
                  profile=SensorProfile(seed=0))
        return len(steps)

    monkeypatch.setattr(nd, "step", counted)
    alone = [node_steps([t]) for t in SWEEP_NTU]
    assert node_steps(SWEEP_NTU) == max(alone) > 0


def test_sweep_checks_each_node_identity_once(post_inits):
    # a sweep builds each turbidity's links, not a Topology, and the canary
    # builds each node's identity once for every turbidity
    topo = linear_topology(range(5))
    topologies, identities = post_inits(sim.Topology), post_inits(nd.NodeIdentity)
    swept = sim.sweep(topo, ANCHOR, SWEEP_NTU, 50, 0, profile=SensorProfile(seed=0))
    assert [r.turbidity_ntu for r in swept] == SWEEP_NTU
    assert topologies == []
    assert [i.node_id for i in identities] == list(topo.node_ids)


def test_perturbed_second_scenario_trips_the_canary(monkeypatch):
    second = sim.scenario_seed(0, SWEEP_NTU[1])
    original = sim._block_outcomes

    def perturbed(bers, seeds, *rest):
        delivered, sent = original(bers, seeds, *rest)
        sent[seeds == second] += 1  # the second scenario's (rounds, hops) slice
        return delivered, sent

    monkeypatch.setattr(sim, "_block_outcomes", perturbed)
    topo, profile = linear_topology(range(5)), SensorProfile(seed=0)
    sim.sweep(topo, ANCHOR, SWEEP_NTU[:1], 10, 0, profile=profile)
    with pytest.raises(RuntimeError, match="counting engine"):
        sim.sweep(topo, ANCHOR, SWEEP_NTU, 10, 0, profile=profile)


# A 30-node line with ids 0x7D and 0x00 and a different extra_loss on every
# third hop: its last hops' frames exceed 1024 on-wire bits, and near -39 degC
# their lengths vary over several escape bytes.  At 0 NTU every BER underflows
# to 0, at 10**6 NTU the signal underflows to 0 lux (BER 0.5), and 115 and
# 120 NTU lose frames on the long hops.
HARD_IDS = [0x7D, *range(1, 28), 0x00, 0x41]
HARD_LINE = linear_topology(
    HARD_IDS, auth_keys=range(1, 31),
    extra_loss=[(1.0, 0.97, 0.94)[h % 3] for h in range(29)],
)
HARD_CHANNEL = ChannelParams(1000.0, 0.0, 0.01, 0.0, noise_sigma=1.0)
HARD_NTU = [0.0, 115.0, 120.0, 1e6]


def hard_sweep(turbidities):
    return sim.sweep(HARD_LINE, HARD_CHANNEL, turbidities, 400, 7,
                     profile=ESCAPE_HEAVY, collect_monitor=True)


def test_batched_draw_equals_one_turbidity_sweeps_on_a_hard_line():
    lines = [HARD_LINE.with_turbidity(t) for t in HARD_NTU]
    bers = [[link_ber(HARD_CHANNEL, link) for link in line.links] for line in lines]
    assert set(bers[0]) == {0.0} and set(bers[-1]) == {0.5}
    assert len(set(bers[1])) == 3
    assert 10 * fr.hop_frame_lengths(HARD_IDS[:-1])[-1] > 1024
    swept = hard_sweep(HARD_NTU)
    assert swept == [hard_sweep([t])[0] for t in HARD_NTU]
    delivered = [[h.packets_delivered for h in r.hops] for r in swept]
    assert delivered[0] == [400] * 29 and delivered[-1] == [0] * 29
    assert 0 < delivered[2][-1] < delivered[1][-1] < delivered[1][-8] < 400
    # and the reference engine, stepping the nodes once for all four
    args = (0, 400, min_slot_duration(30), ESCAPE_HEAVY, True)
    runs = [(line.links, sim.scenario_seed(7, t)) for line, t in zip(lines, HARD_NTU)]
    stepped_runs = sim._simulate_rounds(HARD_LINE, runs, HARD_CHANNEL, *args)
    for report, (*stepped, log) in zip(swept, stepped_runs):
        assert hop_fields(report) == stepped_fields(400, *stepped)
        assert report.monitor_log == log


def test_each_block_draws_every_scenario_at_once(monkeypatch):
    original, draws = sim._block_outcomes, []

    def bounded(bers, seeds, rnd, *rest):
        assert seeds.size * rnd.size * bers.shape[1] <= sim._BLOCK_CELLS
        draws.append((len(rnd), seeds.tolist()))
        return original(bers, seeds, rnd, *rest)

    monkeypatch.setattr(sim, "_block_outcomes", bounded)
    seeds = [sim.scenario_seed(7, t) for t in HARD_NTU]
    expected = hard_sweep(HARD_NTU)
    assert draws == [(400, seeds)]  # one draw serves every turbidity
    # 29 * 300 cells over 4 scenarios of 29 hops: five blocks of 75 rounds
    # and one of 25, each one draw of every scenario in list order
    draws.clear()
    monkeypatch.setattr(sim, "_BLOCK_CELLS", 29 * 300)
    assert hard_sweep(HARD_NTU) == expected
    assert draws == [(75, seeds)] * 5 + [(25, seeds)]


@pytest.mark.parametrize("seed, same", [(-1, 2**64 - 1), (2**64 + 5, 5)])
def test_seeds_are_taken_modulo_2_64(seed, same):
    topo = linear_topology(range(5), turbidity_ntu=70.0)

    def outputs(s):
        alone = run_scenario(topo, ANCHOR, 300, s, collect_monitor=True)
        swept = sim.sweep(topo, ANCHOR, [0.01, 70.0], 300, s, collect_monitor=True)
        return [(r.hops, r.monitor_log) for r in (alone, *swept)]

    result = outputs(seed)
    assert result == outputs(same)
    assert 0 < result[0][0][-1].packets_delivered < 300


def seeded_outputs(seed, profile_seed):
    """Both anchors' counts and monitor logs, alone and swept, at seed and
    the sensor profile seed profile_seed."""
    topo = linear_topology(range(5), turbidity_ntu=70.0)
    kwargs = dict(profile=SensorProfile(seed=profile_seed), collect_monitor=True)
    alone = run_scenario(topo, ANCHOR, 300, seed, **kwargs)
    swept = sim.sweep(topo, ANCHOR, [0.01, 70.0], 300, seed, **kwargs)
    return [(r.hops, r.monitor_log) for r in (alone, *swept)]


@pytest.mark.parametrize("seed, same", [
    (np.int64(5), 5), (np.uint64(5), 5), (np.uint64(2**64 - 1), -1),
])
def test_numpy_integer_seeds_are_their_value(seed, same):
    expected = seeded_outputs(same, same)
    assert seeded_outputs(seed, same) == expected  # as the run seed
    assert seeded_outputs(same, seed) == expected  # as the profile seed
    assert 0 < expected[0][0][-1].packets_delivered < 300


@pytest.mark.parametrize("seed, message", [(5.0, "'float'"), (True, "seed .* bool True")])
def test_non_integer_seeds_are_rejected_at_entry(seed, message, monkeypatch):
    def unreached(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(sim, "_readings", unreached)
    topo = linear_topology(range(5), turbidity_ntu=70.0)
    with pytest.raises(TypeError, match=message):
        SensorProfile(seed=seed)
    with pytest.raises(TypeError, match=message):
        run_scenario(topo, ANCHOR, 10, seed)
    with pytest.raises(TypeError, match=message):
        run_scenario(topo, ANCHOR, 10, seed, profile=SensorProfile(seed=5))
    with pytest.raises(TypeError, match=message):
        sim.sweep(topo, ANCHOR, [0.01, 70.0], 10, seed, profile=SensorProfile(seed=5))


@pytest.mark.parametrize("word, same", [
    (np.int64(1), 1), (np.int32(-2), -2), (np.uint64(2**64 - 1), -1), (np.uint8(7), 7),
])
def test_numpy_address_words_are_their_value(word, same):
    # the words of a substream address, as its seed, are taken modulo 2**64
    # (no overflow warning: the suite turns warnings into errors)
    state = derive_state(7, word, 3)
    assert type(state) is int and state == derive_state(7, same, 3)
    assert derive_seed(7, word) == derive_seed(7, same)
    a, b = Substream(7, word), Substream(7, same)
    assert [a.next_u64(), a.uniform()] == [b.next_u64(), b.uniform()]
    prefix = np.array([derive_state(7)], np.uint64)
    assert derive_states(prefix, word).tolist() == [derive_state(7, same)]


@pytest.mark.parametrize("word", [1.5, 2.0, np.float64(2.0), True, False, np.True_])
def test_non_integer_address_words_are_rejected(word):
    prefix = np.array([derive_state(7)], np.uint64)
    for build in (lambda: derive_state(7, word), lambda: Substream(7, 1, word),
                  lambda: derive_seed(7, word), lambda: derive_states(prefix, word)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer|bool"):
            build()


@pytest.mark.parametrize("rounds", [np.int64(300), np.uint16(300)])
def test_numpy_integer_rounds_are_python_ints(rounds):
    topo = linear_topology(range(5), turbidity_ntu=70.0)
    for run in (lambda n: run_scenario(topo, ANCHOR, n, 5, collect_monitor=True),
                lambda n: sim.sweep(topo, ANCHOR, [0.01, 70.0], n, 5)[1]):
        report = run(rounds)
        assert report == run(300) and type(report.rounds) is int
        assert all(type(h.cumulative_psr) is float for h in report.hops)


def test_profileless_sweep_equals_run_scenario_per_turbidity(monkeypatch):
    # a sweep without a profile reads run_scenario's default sensor of the
    # root seed at every turbidity; 0.01 twice and -0.0 / 0.0 are scenarios
    # that share a scenario seed
    readings, block_rounds = sim._readings, []

    def counted_readings(topology, rnd, *rest):
        block_rounds.append(len(rnd))
        return readings(topology, rnd, *rest)

    monkeypatch.setattr(sim, "_readings", counted_readings)
    topo = linear_topology(range(5))
    turbidities = [70.0, 0.01, 0.0, 0.01, -0.0]
    swept = sim.sweep(topo, ANCHOR, turbidities, 300, 6, collect_monitor=True)
    assert block_rounds == [300]  # one block, one readings call
    profile = SensorProfile(seed=6)
    assert swept == [
        run_scenario(topo.with_turbidity(t), ANCHOR, 300, sim.scenario_seed(6, t),
                     profile=profile, collect_monitor=True)
        for t in turbidities
    ]
    assert swept == sim.sweep(topo, ANCHOR, turbidities, 300, 6, profile=profile,
                              collect_monitor=True)


def test_sweep_reports_the_earliest_out_of_range_round(monkeypatch):
    # Readings leave the range at t = 9.56 s.  With 1 s slots that is relay
    # 2's record of round 2 (t = 10 s) on a clear line, and the originator's
    # of round 3 (t = 12 s) on a dark one, whose relays are never live.
    params = ChannelParams(1000.0, 0.0, 1.0, noise_sigma=1e-9)
    topo = linear_topology(range(5))

    def error(turbidities):
        with pytest.raises(fr.RecordOutOfRange) as info:
            sim.sweep(topo, params, turbidities, 50, 0, slot_duration=1.0,
                      profile=_rising(0.00125))
        return str(info.value)

    clear, dark = error([0.0]), error([1000.0])
    assert clear != dark
    # the earliest bad round, whatever the block plan or the list order
    for cells in (sim._BLOCK_CELLS, 4):  # one block; one round per block
        monkeypatch.setattr(sim, "_BLOCK_CELLS", cells)
        assert error([1000.0, 0.0]) == clear
        assert error([0.0, 1000.0]) == clear
