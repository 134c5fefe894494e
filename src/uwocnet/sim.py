"""Deterministic Monte-Carlo simulation of the full relay line.

Each round pushes one frame from the originator to the sink, sampling bit
errors on every link from a counter-based substream keyed by (seed, round,
hop).  Any bit flip - framing bits included - kills the packet for
packet-success accounting and terminates the round's propagation, matching
a no-FEC receiver where ground truth is known.

Two engines give the same results.  The reference engine steps every
node's state machine through every round.  The counting engine, which
serves every run, computes a block of rounds at once in numpy: each
transmitter's sensor reading, hence each hop's frame length, and each hop's
zero-flip test, one link substream word per 1024-bit chunk.  It draws the
same words as the reference engine, so its counts are exact, not
statistical.  A round reaches the monitor only when every hop drew zero
flips, so the sink decodes exactly the records that were encoded: its log
row is the transmitters' readings at wire resolution plus the sink's own
reading, built per block from the same readings; the sink's noise words
are drawn per block as well, and only libm's sin/log/cos run per row.  The
reference engine is the differential oracle of the tests and, on every
call, a canary: the counting engine replays its first round through it and
raises RuntimeError if the counts or that round's monitor row disagree.

Rounds are mutually independent: workers=N splits them into N partitions,
run one after another in this process, and the results are bit-identical
for every partition.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import frame as fr
from . import node as nd
from .channel import ChannelParams, LinkSpec, attenuate, ook_ber
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
class NodeSpec:
    node_id: int
    auth_key: int
    role: nd.NodeRole


@dataclass(frozen=True)
class Topology:
    """Ordered relay line: first node originates, last node is the sink."""

    nodes: tuple[NodeSpec, ...]
    links: tuple[LinkSpec, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise ValueError("a topology needs at least two nodes")
        if len(self.links) != len(self.nodes) - 1:
            raise ValueError("need exactly one link between consecutive nodes")
        roles = [n.role for n in self.nodes]
        if roles[0] is not nd.NodeRole.ORIGINATOR or roles[-1] is not nd.NodeRole.SINK:
            raise ValueError("first node must originate, last node must be the sink")
        if any(r is not nd.NodeRole.RELAY for r in roles[1:-1]):
            raise ValueError("interior nodes must be relays")
        for n in self.nodes:
            fr.validate_node_id(n.node_id)
            fr.validate_auth_key(n.auth_key)
        ids = [n.node_id for n in self.nodes]
        keys = [n.auth_key for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be distinct")
        if len(set(keys)) != len(keys):
            raise ValueError("authentication keys must be distinct")

    @property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(n.node_id for n in self.nodes)

    @property
    def key_chain(self) -> tuple[int, ...]:
        return tuple(n.auth_key for n in self.nodes)

    @property
    def hop_count(self) -> int:
        return len(self.links)

    def with_turbidity(self, turbidity_ntu: float) -> "Topology":
        links = tuple(replace(l, turbidity_ntu=turbidity_ntu) for l in self.links)
        return Topology(self.nodes, links)


def linear_topology(
    node_ids,
    auth_keys=None,
    link_distance_m=4.0,
    turbidity_ntu: float = 0.0,
    extra_loss=None,
) -> Topology:
    """Build a relay line with roles by position.

    link_distance_m is one distance for every hop or a sequence of one
    distance per link.
    """
    ids = tuple(node_ids)
    hops = max(len(ids) - 1, 0)  # no nodes: Topology's node count check reports it
    keys = tuple(auth_keys) if auth_keys is not None else fr.DEFAULT_KEY_TABLE[: len(ids)]
    if len(keys) != len(ids):
        raise ValueError("need one auth key per node")
    if isinstance(link_distance_m, (int, float)):
        distances = (link_distance_m,) * hops
    else:
        distances = tuple(link_distance_m)
    if len(distances) != hops:
        raise ValueError("need one distance per link")
    losses = tuple(extra_loss) if extra_loss is not None else (1.0,) * hops
    if len(losses) != hops:
        raise ValueError("need one extra_loss per link")
    nodes = []
    for i, (nid, key) in enumerate(zip(ids, keys)):
        role = (
            nd.NodeRole.ORIGINATOR
            if i == 0
            else nd.NodeRole.SINK
            if i == hops
            else nd.NodeRole.RELAY
        )
        nodes.append(NodeSpec(nid, key, role))
    links = tuple(
        LinkSpec(d, turbidity_ntu, loss) for d, loss in zip(distances, losses)
    )
    return Topology(tuple(nodes), links)


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


@dataclass(frozen=True)
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

    Serialization is 8N1, so 10 * len(data) bits cross the water; each
    flips independently with the link's OOK bit error probability (flip
    count ~ Binomial, positions uniform - the same joint law).  Start/stop
    bit flips corrupt the packet without changing the returned bytes.

    Returns (received bytes, corrupted flag).
    """
    ber = ook_ber(attenuate(params, link), params)
    n_bits = 10 * len(data)
    flips = stream.binomial(n_bits, ber)
    if flips == 0:
        return bytes(data), False
    buf = bytearray(data)
    for pos in stream.distinct_below(n_bits, flips):
        bit = pos % 10
        if 1 <= bit <= 8:  # data bits; 0 is the start bit, 9 the stop bit
            buf[pos // 10] ^= 1 << (bit - 1)  # LSB-first on the wire
    return bytes(buf), True


def scenario_seed(root_seed: int, turbidity_ntu: float) -> int:
    """Per-turbidity child seed, independent of sweep-list position."""
    (bits,) = struct.unpack("<Q", struct.pack("<d", float(turbidity_ntu)))
    return derive_seed(root_seed, _SCENARIO_TAG, bits)


def _fresh_states(
    topology: Topology, profile: nd.SensorProfile
) -> list[nd.NodeState]:
    states = []
    upstream: tuple[int, ...] = ()
    for spec in topology.nodes:
        states.append(
            nd.NodeState(
                spec.node_id,
                spec.role,
                spec.auth_key,
                expected_upstream_keys=upstream,
                profile=profile,
            )
        )
        upstream = upstream + (spec.auth_key,)
    return states


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
    round_time = hops * slot_duration
    # NodeStates are immutable values: every round starts from the same
    # idle template, so the list is rebuilt by copy, not reconstruction.
    template = _fresh_states(topology, profile)

    for rnd in range(first_round, last_round):
        states = list(template)
        t0 = rnd * round_time
        for h in range(hops):
            start = t0 + h * slot_duration
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
    t0 = rnd * (hops * slot_duration)
    # The originator reads at its tx slot start, a relay or the sink at the
    # end of its rx slot, each time summed as the state machine sums it.
    clocks = np.empty((len(rnd), hops + 1))
    clocks[:, 0] = t0 + 0 * slot_duration
    for j in range(1, hops + 1):
        clocks[:, j] = (t0 + (j - 1) * slot_duration) + slot_duration
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
    ids = topology.node_ids[:-1]
    records = np.column_stack(
        [fr.record_length(i, raw[:, j]) for j, i in enumerate(ids)]
    )
    nbytes = fr.FRAME_OVERHEAD + np.arange(1, hops + 1) + np.cumsum(records, axis=1)

    # A hop delivers when Substream.binomial draws zero flips: one uniform
    # per chunk of at most BINOMIAL_CHUNK bits, none above its chunk's
    # threshold.  Thresholds are scalar math, once per distinct chunk size.
    rounds_states = derive_states(seed, _LINK_STREAM_TAG, rnd)
    states = derive_states(rounds_states[:, None], np.arange(hops))
    nbits = 10 * nbytes
    ok = np.ones(nbits.shape, dtype=bool)
    for c in range(-(-int(nbits.max()) // BINOMIAL_CHUNK)):
        m = np.clip(nbits - c * BINOMIAL_CHUNK, 0, BINOMIAL_CHUNK)
        keys, inverse = np.unique(m * hops + np.arange(hops), return_inverse=True)
        threshold = np.array(
            [_zero_flip_threshold(int(k) // hops, bers[int(k) % hops]) for k in keys]
        )
        ok &= ~(uniform_at(states, c) > threshold[inverse.reshape(m.shape)])
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


def _zero_flip_threshold(bits: int, ber: float) -> float:
    """The uniform at or below which a chunk of `bits` trials has no flip,
    as Substream.binomial decides it."""
    if bits == 0 or ber <= 0.0:
        return math.inf  # no chunk, or binomial returns 0 without a draw
    if ber >= 1.0:
        return -math.inf
    return zero_draw_probability(bits, ber)


def _count_rounds(
    topology: Topology,
    params: ChannelParams,
    seed: int,
    first_round: int,
    last_round: int,
    slot_duration: float,
    profile: nd.SensorProfile,
    collect_monitor: bool = False,
) -> tuple[list[int], list[int], list[int], list[MonitorRow]]:
    """The results of _simulate_rounds, computed in blocks of rounds."""
    *canary, canary_rows = _simulate_rounds(
        topology, params, seed, first_round, first_round + 1, slot_duration,
        profile, collect_monitor,
    )
    bers = [ook_ber(attenuate(params, link), params) for link in topology.links]
    totals = np.zeros((3, topology.hop_count), dtype=np.int64)
    monitor: list[MonitorRow] = []
    block = max(1, _BLOCK_CELLS // topology.hop_count)
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
    reference engine would (see the module docstring).
    workers > 1 splits the rounds into that many partitions, run in order;
    the per-(round, hop) substreams make every partition bit-identical to
    one.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    profile = profile if profile is not None else nd.SensorProfile(seed=seed)
    if slot_duration is None:
        slot_duration = nd.min_slot_duration(len(topology.nodes), bit_rate)
    # Validates SlotTooShort and the pipeline structure once; round r's
    # windows are the round-0 windows shifted by r * hop_count * slot.
    nd.schedule(topology.node_ids, slot_duration, 0, bit_rate)

    hops = topology.hop_count
    bounds = [rounds * i // workers for i in range(workers + 1)]
    attempted = [0] * hops
    delivered = [0] * hops
    frame_sum = [0] * hops
    monitor: list[MonitorRow] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo == hi:
            continue
        a, d, f, m = _count_rounds(
            topology, params, seed, lo, hi, slot_duration, profile, collect_monitor
        )
        for h in range(hops):
            attempted[h] += a[h]
            delivered[h] += d[h]
            frame_sum[h] += f[h]
        monitor.extend(m)

    hop_stats = []
    for h in range(hops):
        lux = attenuate(params, topology.links[h])
        hop_stats.append(
            HopStats(
                hop_index=h,
                link_distance_m=topology.links[h].distance_m,
                packets_attempted=attempted[h],
                packets_delivered=delivered[h],
                per_hop_psr=delivered[h] / attempted[h] if attempted[h] else 0.0,
                cumulative_psr=delivered[h] / rounds,
                rx_lux=lux,
                mean_frame_bytes=frame_sum[h] / attempted[h] if attempted[h] else 0.0,
            )
        )
    turbidities = {l.turbidity_ntu for l in topology.links}
    report_ntu = (
        topology.links[0].turbidity_ntu if len(turbidities) == 1 else float("nan")
    )
    return PsrReport(
        turbidity_ntu=report_ntu,
        rounds=rounds,
        seed=seed,
        hops=hop_stats,
        monitor_rows=tuple(monitor) if collect_monitor else None,
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
