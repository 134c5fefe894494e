"""Deterministic Monte-Carlo simulation of the full relay line.

Each round pushes one frame from the originator to the sink, sampling bit
errors on every link from a counter-based substream keyed by (seed, round,
hop).  Any bit flip - framing bits included - kills the packet for
packet-success accounting and terminates the round's propagation, matching
a no-FEC receiver where ground truth is known.

A Topology is the line's node ids, keys and links in order; a node's role
and the key chain it expects follow from its position, and
Topology.node_states is the one place that derives them, as one checked
NodeIdentity per node.  A pass is one line plus runs of (links, seed): ids,
keys and readings come from the line, and a sweep builds only links.

Two engines give identical results: per scenario, each hop's delivered frames
and bytes sent, and the sink's log as columns (a hop carries what the hop
before it delivered, which the reports take as its frame count).  The
reference engine steps every node's state machine through every round.  The
counting engine, which serves every run, computes a block of rounds at once
in numpy: each transmitter's sensor reading, hence each hop's frame length
(by frame.hop_frame_lengths, the closed form's formula), and each hop's
zero-flip test, one link substream word per 1024-bit chunk, against a
threshold looked up by (escape bytes, hop).  It draws the same words as the
reference engine, so its counts are exact, not statistical.  A round reaches
the monitor only when every hop drew zero flips, so the sink decodes exactly
the records that were encoded: its log row is the transmitters' readings at
wire resolution plus the sink's own reading, built per block from the same
readings; the sink's noise words are drawn per block too, and only libm's
sin/log/cos run per row.  The reference engine is the differential oracle of
the tests and, on every pass, a canary: the counting engine replays its first
round once for all runs, each run's link stream prefix folded once per
call, and raises RuntimeError unless its own result for that round equals
the replay's.

run_scenario and sweep are each one pass in this process, in blocks of
rounds whose size depends only on the line's length and the number of
turbidities.  Only run_scenario keeps a workers keyword, for API callers:
it is checked but changes neither the blocks, the speed nor the output.  A
sweep's turbidities share one sensor profile, and readings, frame lengths
and node states do not depend on turbidity or seed, so a sweep takes each
block's readings, and builds and steps the canary's nodes, once for every
turbidity; the link words are keyed by (seed, round, hop) alone, so one
draw per block serves every turbidity.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import frame as fr
from . import node as nd
from .channel import BITS_PER_BYTE_ON_WIRE, ChannelParams, LinkSpec, attenuate, link_ber
from .rng import (
    BINOMIAL_CHUNK,
    Substream,
    as_int,
    derive_seed,
    derive_state,
    derive_states,
    seed_word,
    uniform_at,
    zero_draw_probability,
)

DEFAULT_LINK_DISTANCE_M = 4.0
_LINK_STREAM_TAG = 0xC4A7_0001
_SCENARIO_TAG = 0x5CEA_0001
# (scenario, round, hop) cells per counting-engine block, one draw: bounds
# its memory at any round count and line length, up to _BLOCK_CELLS // hops
# turbidities, as a block is at least one round.
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
        for name in ("node_ids", "auth_keys", "links"):  # lists too, held as tuples
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if len(self.node_ids) < 2:
            raise ValueError("a topology needs at least two nodes")
        if len(self.auth_keys) != len(self.node_ids):
            raise ValueError("need one auth key per node")
        if len(self.links) != len(self.node_ids) - 1:
            raise ValueError("need exactly one link between consecutive nodes")
        if not all(isinstance(link, LinkSpec) for link in self.links):
            raise TypeError(f"topology links must be LinkSpecs, got {self.links!r}")
        pairs = [(fr.validate_node_id(nid), fr.validate_auth_key(key))
                 for nid, key in zip(self.node_ids, self.auth_keys)]
        object.__setattr__(self, "node_ids", tuple(nid for nid, _ in pairs))
        object.__setattr__(self, "auth_keys", tuple(key for _, key in pairs))
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ValueError("node ids must be distinct")
        if len(set(self.auth_keys)) != len(self.auth_keys):
            raise ValueError("authentication keys must be distinct")

    @property
    def hop_count(self) -> int:
        return len(self.links)

    def links_at(self, turbidity_ntu: float) -> tuple[LinkSpec, ...]:
        """The line's links, each at turbidity_ntu."""
        return tuple(LinkSpec(l.distance_m, turbidity_ntu, l.extra_loss) for l in self.links)

    def with_turbidity(self, turbidity_ntu: float) -> "Topology":
        return Topology(self.node_ids, self.auth_keys, self.links_at(turbidity_ntu))

    def node_states(self, profile: nd.SensorProfile) -> list[nd.NodeState]:
        """Every node's idle state, in line order, on its checked NodeIdentity.

        The first node originates, the last is the sink and the rest relay;
        each node expects the keys of all nodes upstream of it.
        """
        relays = [nd.NodeRole.RELAY] * (self.hop_count - 1)
        roles = [nd.NodeRole.ORIGINATOR, *relays, nd.NodeRole.SINK]
        nodes = zip(self.node_ids, roles, self.auth_keys)
        return [
            nd.NodeState(nd.NodeIdentity(nid, role, key, self.auth_keys[:i], profile))
            for i, (nid, role, key) in enumerate(nodes)
        ]


def linear_topology(
    node_ids,
    auth_keys=None,
    link_distance_m=DEFAULT_LINK_DISTANCE_M,
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
    if np.ndim(link_distance_m) == 0:
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
    packets_attempted: int  # the rounds on hop 0, else hop h - 1's delivered
    packets_delivered: int
    per_hop_psr: float  # conditional on intact arrival at the transmitter
    cumulative_psr: float  # fraction of originated packets intact after this hop
    rx_lux: float  # received intensity over the link
    mean_frame_bytes: float


@dataclass
class PsrReport:
    """monitor_log, with collect_monitor: the sink's log as columns (round
    indices, sink times, then one temperature list per node in line order)."""

    turbidity_ntu: float
    rounds: int
    seed: int
    hops: list[HopStats]
    monitor_log: list[list] | None = None

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
    line: Topology,
    runs: list[tuple[tuple[LinkSpec, ...], int]],
    params: ChannelParams,
    first_round: int,
    last_round: int,
    slot_duration: float,
    profile: nd.SensorProfile,
    collect_monitor: bool,
) -> list[tuple[list[int], list[int], list[list] | None]]:
    """Simulate rounds [first_round, last_round) of line's nodes over each
    (links, seed) of runs, one link per hop of line; returns each run's
    delivered frames and frame bytes sent per hop, and monitor_log or None.
    node.step never sees the channel, so the runs live at a hop share its
    node states and frame: the nodes step once for all of them."""
    # NodeStates are immutable values: every round starts from the same
    # idle template, whose identities line.node_states checks once per call.
    template = line.node_states(profile)
    hops, width = line.hop_count, len(template) + 2  # width: log columns
    tallies = [(links, derive_state(s, _LINK_STREAM_TAG), [0] * hops, [0] * hops,
                [[] for _ in range(width)] if collect_monitor else None)
               for links, s in runs]

    for rnd in range(first_round, last_round):
        states = list(template)
        live = tallies
        for h in range(hops):
            start = nd.slot_start(rnd, h, hops, slot_duration)
            end = nd.SlotEnd(start + slot_duration)  # ends the tx and the rx slot
            tx_state, actions = nd.step(states[h], nd.SlotStart("tx", start))
            states[h] = nd.step(tx_state, end)[0]
            data = next(
                (a.data for a in actions if isinstance(a, nd.TransmitBytes)), None
            )
            if data is None:
                raise RuntimeError(
                    f"node {line.node_ids[h]} had nothing to transmit in a live round"
                )
            arrived = []
            for tally in live:
                links, prefix, delivered, frame_bytes_sum, _ = tally
                frame_bytes_sum[h] += len(data)
                stream = Substream(prefix, rnd, h)
                rx_data, corrupted = transmit_over_link(data, links[h], params, stream)
                if not corrupted:
                    delivered[h] += 1
                    arrived.append(tally)
                    intact = rx_data
            live = arrived
            if not live:
                break
            rx_state, _ = nd.step(states[h + 1], nd.SlotStart("rx", start))
            rx_state, _ = nd.step(rx_state, nd.BytesArrived(intact, start))
            rx_state, actions = nd.step(rx_state, end)
            states[h + 1] = rx_state
            for act in actions:
                if isinstance(act, nd.DropPacket):
                    raise RuntimeError(
                        f"uncorrupted frame dropped at node "
                        f"{line.node_ids[h + 1]}: {act.reason.value} {act.detail}"
                    )
                if isinstance(act, nd.DeliverToMonitor) and collect_monitor:
                    temps = [r.temperature_c for r in act.frame.records]
                    for tally in live:
                        for column, value in zip(tally[-1], [rnd, act.time, *temps]):
                            column.append(value)
    return [tally[2:] for tally in tallies]


def _readings(
    line: Topology,
    rnd: np.ndarray,
    slot_duration: float,
    profile: nd.SensorProfile,
) -> tuple[np.ndarray, np.ndarray]:
    """When every node reads its sensor in rounds rnd, and what transmitters read.

    Returns (clocks, raw): clocks of shape (rounds, nodes), raw the
    transmitters' fixed-point readings, of shape (rounds, hops).
    """
    hops = line.hop_count
    # The originator reads at its tx slot start, a relay or the sink at the
    # end of its rx slot.
    starts = nd.slot_start(rnd[:, None], np.arange(hops), hops, slot_duration)
    clocks = np.column_stack((starts[:, 0], starts + slot_duration))
    ids = np.array(line.node_ids[:-1])
    return clocks, nd.sensor_raw(ids, clocks[:, :-1], profile)


def _block_outcomes(
    bers: np.ndarray,
    seeds: np.ndarray,
    rnd: np.ndarray,
    nbytes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """What the channel does on each hop of rounds rnd in each scenario
    (bers of shape (scenarios, hops), seeds uint64), given each hop's frame
    length; whether a reading is in range is _count_rounds' test.

    Returns (delivered, frame bytes sent: none past a lost hop), each an
    array of shape (scenarios, rounds, hops).
    """
    # A hop delivers when Substream.binomial draws zero flips: one uniform
    # per chunk of at most BINOMIAL_CHUNK bits, none above the chunk's
    # zero-draw probability (1.0 for 0 bits or BER 0, which no uniform in
    # [0, 1) exceeds; BER 1 cannot occur, as OOK's BER is at most 0.5).
    # Each hop's frame is its shortest in the block plus 0..E escape bytes,
    # so each chunk's thresholds are scalar math once per (scenario, extra
    # bytes, hop), a column of a flat table that every cell looks up: no sort.
    hop = np.arange(bers.shape[1])
    prefix = [derive_state(s, _LINK_STREAM_TAG) for s in seeds.tolist()]
    rounds_states = derive_states(np.array(prefix, np.uint64)[:, None], rnd)
    states = derive_states(rounds_states[:, :, None], hop)
    # On arrays this small, min over a (hops, rounds) copy and maximum then
    # minimum take about a third of the time of min(axis=0) and np.clip.
    shortest = np.ascontiguousarray(nbytes.T).min(axis=1)
    extra = nbytes - shortest
    column = extra * len(hop) + hop
    by_extra = shortest + np.arange(int(extra.max()) + 1)[:, None]
    frame_bits = (BITS_PER_BYTE_ON_WIRE * by_extra).ravel()
    ok = np.ones(states.shape, dtype=bool)
    for c in range(-(-BITS_PER_BYTE_ON_WIRE * int(nbytes.max()) // BINOMIAL_CHUNK)):
        m = np.maximum(frame_bits - c * BINOMIAL_CHUNK, 0)
        m = np.minimum(m, BINOMIAL_CHUNK).tolist()
        table = np.array([
            [zero_draw_probability(b, ber) for b, ber in zip(m, line * len(by_extra))]
            for line in bers.tolist()
        ])
        ok &= uniform_at(states, c) <= np.take(table, column, axis=1)
    live = np.ones(ok.shape, dtype=bool)
    for h in range(1, len(hop)):
        np.logical_and(live[..., h - 1], ok[..., h - 1], out=live[..., h])
    return live & ok, live * nbytes


def _monitor_columns(
    line: Topology,
    rnd: np.ndarray,
    clocks: np.ndarray,
    raw: np.ndarray,
    delivered: np.ndarray,
    profile: nd.SensorProfile,
) -> list[list]:
    """The sink's log of the rounds among rnd whose last hop delivered.

    The relayed temperatures are the transmitters' readings at wire
    resolution; the sink appends its own reading unquantized.  Its noise
    words are drawn for the whole block and only libm's sin/log/cos run per
    row (node.sensor_temperatures), so the reading matches the state
    machine's scalar sample_sensor bit for bit.
    """
    done = np.nonzero(delivered[:, -1])[0]
    times = clocks[done, -1]
    temps = fr.raw_to_temperature(raw[done]).T.tolist()
    sink = nd.sensor_temperatures(line.node_ids[-1], times, profile)
    return [rnd[done].tolist(), times.tolist(), *temps, sink]


def _count_rounds(
    line: Topology,
    runs: list[tuple[tuple[LinkSpec, ...], int]],
    params: ChannelParams,
    first_round: int,
    last_round: int,
    slot_duration: float,
    profile: nd.SensorProfile,
    collect_monitor: bool = False,
) -> list[tuple[list[int], list[int], list[list] | None]]:
    """_simulate_rounds of line over each (links, seed) of runs, in blocks
    of _BLOCK_CELLS (run, round, hop) cells, at least one round, two count
    arrays per block: every run has line's nodes and reads the one sensor
    profile (sweep's and run_scenario's default: SensorProfile of the root
    seed), so a block's readings and frame lengths serve them all, one draw
    covers them all, and one replay of the first round is every one's canary.
    The record range is tested here, on the hops that send: an out-of-range
    record raises at the earliest round that encodes one, then the first such
    run in list order.  Seeds are taken modulo 2**64."""
    hops = line.hop_count
    bers = np.array([[link_ber(params, l) for l in links] for links, _ in runs])
    seeds = np.array([seed_word(s) for _, s in runs], dtype=np.uint64)
    totals = np.zeros((len(runs), 2, hops), np.int64)
    width = len(line.node_ids) + 2
    logs = [[[] for _ in range(width)] if collect_monitor else None for _ in runs]
    block = max(1, _BLOCK_CELLS // (len(runs) * hops))
    for lo in range(first_round, last_round, block):
        rnd = np.arange(lo, min(lo + block, last_round), dtype=np.int64)
        clocks, raw = _readings(line, rnd, slot_duration, profile)
        nbytes = fr.hop_frame_lengths(line.node_ids[:-1], raw)
        if nbytes.max() > fr.worst_case_frame_length(hops):  # what the slot fits
            raise RuntimeError(f"rounds from {lo}: a frame longer than the worst case")
        delivered, sent = _block_outcomes(bers, seeds, rnd, nbytes)
        bad = (sent > 0) & ~fr.raw_in_range(raw)  # a live hop sends >= 7 bytes
        if bad.any():
            # The reference engine raises RecordOutOfRange on this round: the
            # earliest bad one, then the first bad run in list order.
            r, i = np.argwhere(bad.any(axis=2).T)[0].tolist()
            _simulate_rounds(line, [runs[i]], params, lo + r, lo + r + 1,
                             slot_duration, profile, False)
            raise RuntimeError(
                f"round {lo + r}: counting engine saw an out-of-range record"
            )
        ones = np.ones(len(rnd), np.int64)  # sums over rounds, ~6x sum(axis=1)'s speed
        totals[:, 0] += ones @ delivered
        totals[:, 1] += ones @ sent
        for log, done in zip(logs, delivered):
            if log is not None:
                new = _monitor_columns(line, rnd, clocks, raw, done, profile)
                for column, more in zip(log, new):
                    column.extend(more)
        if lo == first_round:
            # round lo's counts and logged rows (those up to lo), against its replay
            first = np.stack((delivered[:, 0], sent[:, 0]), axis=1).tolist()
            head = [
                (*c, log and [column[:bisect_right(log[0], lo)] for column in log])
                for c, log in zip(first, logs)
            ]
            canary = _simulate_rounds(
                line, runs, params, lo, lo + 1, slot_duration, profile, collect_monitor
            )
            if head != canary:
                raise RuntimeError(
                    f"counting engine gives {head} for round {lo}, "
                    f"reference engine {canary}"
                )
    return [(*total.tolist(), log) for total, log in zip(totals, logs)]


def _reports(
    line: Topology,
    runs: list[tuple[tuple[LinkSpec, ...], int]],
    params: ChannelParams,
    rounds: int,
    profile: nd.SensorProfile,
    slot_duration: float | None = None,
    bit_rate: float = nd.DEFAULT_BIT_RATE,
    collect_monitor: bool = False,
) -> list[PsrReport]:
    """run_scenario of line over each (links, seed) of runs, in one pass."""
    rounds = as_int(rounds, "rounds")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if slot_duration is None:
        slot_duration = nd.min_slot_duration(len(line.node_ids), bit_rate)
    # schedule's slot check, SlotTooShort included; both engines clock with
    # the checked float, placing round r's windows as schedule(..., r) does.
    slot_duration = nd.checked_slot(len(line.node_ids), slot_duration, bit_rate)

    counted = _count_rounds(
        line, runs, params, 0, rounds, slot_duration, profile, collect_monitor
    )
    reports = []
    for (links, seed), (delivered, sent, log) in zip(runs, counted):
        per_hop = zip(links, [rounds, *delivered[:-1]], delivered, sent)
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
            for h, (link, a, d, f) in enumerate(per_hop)
        ]
        ntu, *other_ntu = {l.turbidity_ntu for l in links}
        report_ntu = float("nan") if other_ntu else ntu
        reports.append(PsrReport(report_ntu, rounds, seed, hop_stats, log))
    return reports


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
    collect_monitor, the sink's log of every delivered round as the columns
    of PsrReport.monitor_log, exactly as the reference engine would, in one
    pass that replays one round through the reference engine.  workers is
    kept for API callers only: it must be >= 1 and changes neither the
    blocks, the speed nor the output.
    """
    if as_int(workers, "workers") < 1:
        raise ValueError("workers must be >= 1")
    profile = profile if profile is not None else nd.SensorProfile(seed=seed)
    return _reports(
        topology, [(topology.links, seed)], params, rounds, profile, slot_duration,
        bit_rate, collect_monitor,
    )[0]


def sweep(
    topology: Topology,
    params: ChannelParams,
    turbidities,
    rounds: int,
    seed: int,
    *,
    slot_duration: float | None = None,
    bit_rate: float = nd.DEFAULT_BIT_RATE,
    profile: nd.SensorProfile | None = None,
    collect_monitor: bool = False,
) -> list[PsrReport]:
    """run_scenario at each turbidity, each on its own derived substream,
    with run_scenario's keywords but workers.

    Output order matches the input turbidity order; each scenario's seed
    depends only on (seed, turbidity value), not on list position.  Every
    turbidity reads one sensor profile, profile or else SensorProfile(seed=
    seed), run_scenario's default for the root seed, so the sweep is one
    counting pass and takes each block's readings once.
    """
    runs = [(topology.links_at(t), scenario_seed(seed, t)) for t in turbidities]
    if not runs:
        raise ValueError("need at least one turbidity")
    profile = profile if profile is not None else nd.SensorProfile(seed=seed)
    return _reports(
        topology, runs, params, rounds, profile, slot_duration, bit_rate, collect_monitor
    )
