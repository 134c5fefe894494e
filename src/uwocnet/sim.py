"""Deterministic Monte-Carlo simulation of the full relay line.

Each round pushes one frame from the originator to the sink, sampling bit
errors on every link from a counter-based substream keyed by (seed, round,
hop).  Any bit flip - framing bits included - kills the packet for
packet-success accounting and terminates the round's propagation, matching
a no-FEC receiver where ground truth is known.

A Topology is the line's node ids, keys and links in order; a node's role
and the key chain it expects follow from its position, and
Topology.node_states is the one place that derives them.

Two engines give the same results.  The reference engine steps every
node's state machine through every round.  The counting engine, which
serves every run, computes a block of rounds at once in numpy: each
transmitter's sensor reading, hence each hop's frame length (by
frame.hop_frame_lengths, the closed form's formula), and each hop's
zero-flip test, one link substream word per 1024-bit chunk.  It draws the
same words as the reference engine, so its counts are exact, not
statistical.  A round reaches the monitor only when every hop drew zero
flips, so the sink decodes exactly the records that were encoded: its log
row is the transmitters' readings at wire resolution plus the sink's own
reading, built per block from the same readings; the sink's noise words
are drawn per block as well, and only libm's sin/log/cos run per row.  The
reference engine is the differential oracle of the tests and, on every
run, a canary: the counting engine replays its first round through it and
raises RuntimeError if the counts or that round's monitor row disagree.

Rounds are mutually independent: workers=N counts them in blocks of at most
ceil(rounds / N), in one pass in this process, and the output is
bit-identical for every N.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from . import frame as fr
from . import node as nd
from .channel import BITS_PER_BYTE_ON_WIRE, ChannelParams, LinkSpec, attenuate, link_ber
from .rng import (
    BINOMIAL_CHUNK,
    Substream,
    derive_seed,
    derive_states,
    uniform_at,
    zero_draw_probability,
)

_LINK_STREAM_TAG = 0xC4A7_0001
_SCENARIO_TAG = 0x5CEA_0001
# (round, hop) cells per counting-engine block: bounds its memory at any
# round count and line length.
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class Topology:
    """Ordered relay line: first node originates, last node is the sink.

    One node id and one auth key per node, in line order, and one link per
    pair of consecutive nodes; roles follow position (see node_states).
    """

    node_ids: tuple[int, ...]
    auth_keys: tuple[int, ...]
    links: tuple[LinkSpec, ...]

    def __post_init__(self) -> None:
        if len(self.node_ids) < 2:
            raise ValueError("a topology needs at least two nodes")
        if len(self.auth_keys) != len(self.node_ids):
            raise ValueError("need one auth key per node")
        if len(self.links) != len(self.node_ids) - 1:
            raise ValueError("need exactly one link between consecutive nodes")
        for nid, key in zip(self.node_ids, self.auth_keys):
            fr.validate_node_id(nid)
            fr.validate_auth_key(key)
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ValueError("node ids must be distinct")
        if len(set(self.auth_keys)) != len(self.auth_keys):
            raise ValueError("authentication keys must be distinct")

    @property
    def hop_count(self) -> int:
        return len(self.links)

    def with_turbidity(self, turbidity_ntu: float) -> "Topology":
        links = tuple(replace(l, turbidity_ntu=turbidity_ntu) for l in self.links)
        return replace(self, links=links)

    def node_states(self, profile: nd.SensorProfile) -> list[nd.NodeState]:
        """Every node's idle state, in line order.

        The first node originates, the last is the sink and the rest relay;
        each node expects the keys of all nodes upstream of it.
        """
        relays = [nd.NodeRole.RELAY] * (self.hop_count - 1)
        roles = [nd.NodeRole.ORIGINATOR, *relays, nd.NodeRole.SINK]
        nodes = zip(self.node_ids, roles, self.auth_keys)
        return [
            nd.NodeState(nid, role, key, self.auth_keys[:i], profile)
            for i, (nid, role, key) in enumerate(nodes)
        ]


def linear_topology(
    node_ids,
    auth_keys=None,
    link_distance_m=4.0,
    turbidity_ntu: float = 0.0,
    extra_loss=None,
) -> Topology:
    """Build a relay line, by default with DEFAULT_KEY_TABLE's keys.

    link_distance_m is one distance for every hop or a sequence of one
    distance per link.
    """
    ids = tuple(node_ids)
    hops = max(len(ids) - 1, 0)  # no nodes: Topology's node count check reports it
    keys = tuple(auth_keys) if auth_keys is not None else fr.DEFAULT_KEY_TABLE[: len(ids)]
    if isinstance(link_distance_m, (int, float)):
        distances = (link_distance_m,) * hops
    else:
        distances = tuple(link_distance_m)
    if len(distances) != hops:
        raise ValueError("need one distance per link")
    losses = tuple(extra_loss) if extra_loss is not None else (1.0,) * hops
    if len(losses) != hops:
        raise ValueError("need one extra_loss per link")
    links = tuple(
        LinkSpec(d, turbidity_ntu, loss) for d, loss in zip(distances, losses)
    )
    return Topology(ids, keys, links)


@dataclass
class HopStats:
    """Counts and rates for one hop of one scenario."""

    hop_index: int
    link_distance_m: float
    packets_attempted: int
    packets_delivered: int
    per_hop_psr: float  # conditional on intact arrival at the transmitter
    cumulative_psr: float  # fraction of originated packets intact after this hop
    rx_lux: float  # received intensity over the link
    mean_frame_bytes: float


@dataclass(frozen=True, slots=True)
class MonitorRow:
    round_index: int
    time_s: float
    temperatures_c: tuple[float, ...]


@dataclass
class PsrReport:
    turbidity_ntu: float
    rounds: int
    seed: int
    hops: list[HopStats]
    monitor_rows: tuple[MonitorRow, ...] | None = None

    @property
    def final_cumulative_psr(self) -> float:
        return self.hops[-1].cumulative_psr


def transmit_over_link(
    data: bytes,
    link: LinkSpec,
    params: ChannelParams,
    stream: Substream,
) -> tuple[bytes, bool]:
    """Push one frame through one optical link.

    Serialization is 8N1, so 10 bits per byte cross the water; each
    flips independently with the link's OOK bit error probability (flip
    count ~ Binomial, positions uniform - the same joint law).  Start/stop
    bit flips corrupt the packet without changing the returned bytes.

    Returns (received bytes, corrupted flag).
    """
    ber = link_ber(params, link)
    n_bits = BITS_PER_BYTE_ON_WIRE * len(data)
    flips = stream.binomial(n_bits, ber)
    if flips == 0:
        return bytes(data), False
    buf = bytearray(data)
    for pos in stream.distinct_below(n_bits, flips):
        byte, bit = divmod(pos, BITS_PER_BYTE_ON_WIRE)
        if 1 <= bit <= 8:  # data bits; 0 is the start bit, 9 the stop bit
            buf[byte] ^= 1 << (bit - 1)  # LSB-first on the wire
    return bytes(buf), True


def scenario_seed(root_seed: int, turbidity_ntu: float) -> int:
    """Per-turbidity child seed, independent of sweep-list position; -0.0
    is the same turbidity as 0.0."""
    (bits,) = struct.unpack("<Q", struct.pack("<d", float(turbidity_ntu) + 0.0))
    return derive_seed(root_seed, _SCENARIO_TAG, bits)


def _simulate_rounds(
    topology: Topology,
    params: ChannelParams,
    seed: int,
    first_round: int,
    last_round: int,
    slot_duration: float,
    profile: nd.SensorProfile,
    collect_monitor: bool,
) -> tuple[list[int], list[int], list[int], list[MonitorRow]]:
    """Simulate rounds [first_round, last_round); returns raw counters."""
    hops = topology.hop_count
    links = topology.links
    attempted = [0] * hops
    delivered = [0] * hops
    frame_bytes_sum = [0] * hops
    monitor: list[MonitorRow] = []
    # NodeStates are immutable values: every round starts from the same
    # idle template, so the list is rebuilt by copy, not reconstruction.
    template = topology.node_states(profile)

    for rnd in range(first_round, last_round):
        states = list(template)
        for h in range(hops):
            start = nd.slot_start(rnd, h, hops, slot_duration)
            end = start + slot_duration
            tx_state, actions = nd.step(states[h], nd.SlotStart("tx", start))
            states[h] = nd.step(tx_state, nd.SlotEnd(end))[0]
            data = next(
                (a.data for a in actions if isinstance(a, nd.TransmitBytes)), None
            )
            if data is None:
                raise RuntimeError(
                    f"node {states[h].node_id} had nothing to transmit in a live round"
                )
            attempted[h] += 1
            frame_bytes_sum[h] += len(data)
            stream = Substream(seed, _LINK_STREAM_TAG, rnd, h)
            rx_data, corrupted = transmit_over_link(data, links[h], params, stream)
            if corrupted:
                break
            delivered[h] += 1
            rx_state, _ = nd.step(states[h + 1], nd.SlotStart("rx", start))
            rx_state, _ = nd.step(rx_state, nd.BytesArrived(rx_data, start))
            rx_state, actions = nd.step(rx_state, nd.SlotEnd(end))
            states[h + 1] = rx_state
            for act in actions:
                if isinstance(act, nd.DropPacket):
                    raise RuntimeError(
                        f"uncorrupted frame dropped at node "
                        f"{rx_state.node_id}: {act.reason.value} {act.detail}"
                    )
                if isinstance(act, nd.DeliverToMonitor) and collect_monitor:
                    temps = tuple(r.temperature_c for r in act.frame.records)
                    monitor.append(MonitorRow(rnd, act.time, temps))
    return attempted, delivered, frame_bytes_sum, monitor


def _readings(
    topology: Topology,
    rnd: np.ndarray,
    slot_duration: float,
    profile: nd.SensorProfile,
) -> tuple[np.ndarray, np.ndarray]:
    """When every node reads its sensor in rounds rnd, and what transmitters read.

    Returns (clocks, raw): clocks of shape (rounds, nodes), raw the
    transmitters' fixed-point readings, of shape (rounds, hops).
    """
    hops = topology.hop_count
    # The originator reads at its tx slot start, a relay or the sink at the
    # end of its rx slot.
    starts = nd.slot_start(rnd[:, None], np.arange(hops), hops, slot_duration)
    clocks = np.column_stack((starts[:, 0], starts + slot_duration))
    ids = np.array(topology.node_ids[:-1])
    return clocks, nd.sensor_raw(ids, clocks[:, :-1], profile)


def _block_outcomes(
    topology: Topology,
    bers: list[float],
    seed: int,
    rnd: np.ndarray,
    raw: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What _simulate_rounds meets on each hop of rounds rnd.

    raw holds the transmitters' readings (see _readings).  Returns
    (attempted, delivered, frame bytes, out-of-range record encoded), each
    an array of shape (rounds, hops).
    """
    hops = topology.hop_count
    nbytes = fr.hop_frame_lengths(topology.node_ids[:-1], raw)

    # A hop delivers when Substream.binomial draws zero flips: one uniform
    # per chunk of at most BINOMIAL_CHUNK bits, none above the chunk's
    # zero-draw probability (1.0 for 0 bits or BER 0, which no uniform in
    # [0, 1) exceeds; BER 1 cannot occur, as OOK's BER is at most 0.5).
    # Each hop's frame is its shortest in the block plus 0..E escape bytes,
    # so each chunk's thresholds are scalar math once per (extra bytes,
    # hop), looked up by every cell: a table, no sort.
    rounds_states = derive_states(seed, _LINK_STREAM_TAG, rnd)
    hop = np.arange(hops)
    states = derive_states(rounds_states[:, None], hop)
    shortest = nbytes.min(axis=0)
    extra = nbytes - shortest
    by_extra = shortest + np.arange(int(extra.max()) + 1)[:, None]
    frame_bits = BITS_PER_BYTE_ON_WIRE * by_extra
    ok = np.ones(nbytes.shape, dtype=bool)
    for c in range(-(-BITS_PER_BYTE_ON_WIRE * int(nbytes.max()) // BINOMIAL_CHUNK)):
        m = np.clip(frame_bits - c * BINOMIAL_CHUNK, 0, BINOMIAL_CHUNK).tolist()
        table = np.array(
            [[zero_draw_probability(b, ber) for b, ber in zip(row, bers)] for row in m]
        )
        ok &= ~(uniform_at(states, c) > table[extra, hop])
    live = np.ones(ok.shape, dtype=bool)
    live[:, 1:] = np.logical_and.accumulate(ok[:, :-1], axis=1)
    return live, live & ok, nbytes, live & ~fr.raw_in_range(raw)


def _monitor_rows(
    topology: Topology,
    rnd: np.ndarray,
    clocks: np.ndarray,
    raw: np.ndarray,
    delivered: np.ndarray,
    profile: nd.SensorProfile,
) -> list[MonitorRow]:
    """The sink's log of the rounds among rnd whose last hop delivered.

    The relayed temperatures are the transmitters' readings at wire
    resolution; the sink appends its own reading unquantized.  Its noise
    words are drawn for the whole block and only libm's sin/log/cos run per
    row (node.sensor_temperatures), so the reading matches the state
    machine's scalar sample_sensor bit for bit.
    """
    done = np.nonzero(delivered[:, -1])[0]
    times = clocks[done, -1]
    # One list per column, zipped into the rows' tuples: no per-row list.
    columns = fr.raw_to_temperature(raw[done]).T.tolist()
    columns.append(nd.sensor_temperatures(topology.node_ids[-1], times, profile))
    return list(map(MonitorRow, rnd[done].tolist(), times.tolist(), zip(*columns)))


def _count_rounds(
    topology: Topology,
    params: ChannelParams,
    seed: int,
    first_round: int,
    last_round: int,
    slot_duration: float,
    profile: nd.SensorProfile,
    collect_monitor: bool = False,
    partitions: int = 1,
) -> tuple[list[int], list[int], list[int], list[MonitorRow]]:
    """The results of _simulate_rounds, in blocks of at most
    ceil(rounds / partitions) rounds."""
    *canary, canary_rows = _simulate_rounds(
        topology, params, seed, first_round, first_round + 1, slot_duration,
        profile, collect_monitor,
    )
    bers = [link_ber(params, link) for link in topology.links]
    totals = np.zeros((3, topology.hop_count), dtype=np.int64)
    monitor: list[MonitorRow] = []
    part = -(-(last_round - first_round) // partitions)
    block = max(1, min(_BLOCK_CELLS // topology.hop_count, part))
    for lo in range(first_round, last_round, block):
        rnd = np.arange(lo, min(lo + block, last_round), dtype=np.int64)
        clocks, raw = _readings(topology, rnd, slot_duration, profile)
        live, delivered, nbytes, bad = _block_outcomes(topology, bers, seed, rnd, raw)
        if bad.any():
            # The reference engine raises RecordOutOfRange on this round.
            r = lo + int(np.nonzero(bad.any(axis=1))[0][0])
            _simulate_rounds(
                topology, params, seed, r, r + 1, slot_duration, profile, False
            )
            raise RuntimeError(f"round {r}: counting engine saw an out-of-range record")
        counts = np.stack([live, delivered, live * nbytes])
        rows = (
            _monitor_rows(topology, rnd, clocks, raw, delivered, profile)
            if collect_monitor
            else []
        )
        if lo == first_round:
            first = [row for row in rows[:1] if row.round_index == lo]
            if counts[:, 0].tolist() != canary or first != canary_rows:
                raise RuntimeError(
                    f"counting engine gives {counts[:, 0].tolist()} {first} for "
                    f"round {lo}, reference engine {canary} {canary_rows}"
                )
        totals += counts.sum(axis=1)
        monitor.extend(rows)
    attempted, delivered_n, frame_bytes_sum = totals.tolist()
    return attempted, delivered_n, frame_bytes_sum, monitor


def run_scenario(
    topology: Topology,
    params: ChannelParams,
    rounds: int,
    seed: int,
    *,
    slot_duration: float | None = None,
    bit_rate: float = nd.DEFAULT_BIT_RATE,
    profile: nd.SensorProfile | None = None,
    collect_monitor: bool = False,
    workers: int = 1,
) -> PsrReport:
    """Simulate `rounds` end-to-end relay rounds; deterministic in seed.

    slot_duration defaults to the smallest slot that fits the worst-case
    frame at bit_rate.  The counting engine computes the counts and, with
    collect_monitor, the sink's log of every delivered round, exactly as the
    reference engine would (see the module docstring), in one pass that
    replays one round through the reference engine.  workers caps a block
    at ceil(rounds / workers) rounds; the per-(round, hop) substreams make
    the output bit-identical for every workers.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    profile = profile if profile is not None else nd.SensorProfile(seed=seed)
    if slot_duration is None:
        slot_duration = nd.min_slot_duration(len(topology.node_ids), bit_rate)
    # Validates SlotTooShort and the pipeline structure once; both engines
    # then place round r's windows as schedule(..., r) does.
    nd.schedule(topology.node_ids, slot_duration, 0, bit_rate)

    attempted, delivered, frame_sum, rows = _count_rounds(
        topology, params, seed, 0, rounds, slot_duration, profile,
        collect_monitor, workers,
    )
    hop_stats = [
        HopStats(
            hop_index=h,
            link_distance_m=link.distance_m,
            packets_attempted=a,
            packets_delivered=d,
            per_hop_psr=d / a if a else 0.0,
            cumulative_psr=d / rounds,
            rx_lux=attenuate(params, link),
            mean_frame_bytes=f / a if a else 0.0,
        )
        for h, (link, a, d, f) in enumerate(
            zip(topology.links, attempted, delivered, frame_sum)
        )
    ]
    turbidities = {l.turbidity_ntu for l in topology.links}
    report_ntu = (
        topology.links[0].turbidity_ntu if len(turbidities) == 1 else float("nan")
    )
    return PsrReport(
        turbidity_ntu=report_ntu,
        rounds=rounds,
        seed=seed,
        hops=hop_stats,
        monitor_rows=tuple(rows) if collect_monitor else None,
    )


def sweep(
    topology: Topology,
    params: ChannelParams,
    turbidities,
    rounds: int,
    seed: int,
    **kwargs,
) -> list[PsrReport]:
    """One run_scenario per turbidity, each on its own derived substream.

    Output order matches the input turbidity order; each scenario's seed
    depends only on (seed, turbidity value), not on list position.
    """
    turbidities = list(turbidities)
    if not turbidities:
        raise ValueError("need at least one turbidity")
    return [
        run_scenario(
            topology.with_turbidity(t),
            params,
            rounds,
            scenario_seed(seed, t),
            **kwargs,
        )
        for t in turbidities
    ]
