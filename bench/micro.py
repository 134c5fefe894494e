"""Isolated per-call costs and exact per-round call counts.

The micro table times each operation a relay round crosses on its own, in
a tight loop, and reports the median over repeats in microseconds, both as
wall time and rescaled to reference speed by the kernel timed around each
row (reference.py).  The rows match the Baseline table in ROADMAP.md
(2-vCPU VM, Python 3.11.7), whose figures are kept here for comparison.

The exact counts trace one fully delivered round on the anchor line; they
repeat exactly, so a change may claim on them as counts.
"""

from __future__ import annotations

import statistics
import time

from uwocnet import channel, frame, node, rng, sim

import reference
from spans import Tracer

# us/op from the ROADMAP Baseline table; node.step had no row there.  The
# transmit_over_link row there includes building the link's Substream.
BASELINE_US = {
    "micro.frame.encode_frame.us": 6.0,
    "micro.frame.decode_frame.us": 14.4,
    "micro.sim.transmit_over_link.us": 8.8,
    "micro.node.sample_sensor.us": 10.8,
    "micro.rng.Substream_uniform.us": 5.5,
    "micro.channel.model_cumulative_psr.us": 14.0,
}

REPEATS = 5
REPEAT_SECONDS = 0.04


def _per_call_us(fn, inputs) -> float:
    """Median over REPEATS of the mean cost of fn(x) over inputs, in us."""
    n = len(inputs)
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for x in inputs:
            fn(x)
        samples.append((time.perf_counter() - t0) / n * 1e6)
    return statistics.median(samples)


def _size(fn, make) -> int:
    """Loop length that makes one repeat last about REPEAT_SECONDS."""
    x = make(0)
    t0 = time.perf_counter()
    for _ in range(50):
        fn(x)
    per = (time.perf_counter() - t0) / 50
    return max(50, int(REPEAT_SECONDS / max(per, 1e-9)))


def micro_table(cfg) -> tuple[dict[str, float], dict[str, float]]:
    """us per call of each row on the anchor line's config cfg: (reference, wall)."""
    params = cfg.channel
    ids = cfg.node_ids
    keys = cfg.auth_keys
    profile = cfg.sensor
    link = channel.LinkSpec(cfg.link_distances_m[0], 70.0)

    def record(i):
        return frame.SensorRecord(ids[i % 4], 20.0 + 0.37 * (i % 11))

    four = [
        frame.Frame(keys[:4], tuple(record(i + j) for j in range(4))) for i in range(64)
    ]
    encoded = [frame.encode_frame(f) for f in four]
    target = channel.CalibrationTarget(70.0, 16.0, 4, 0.89)
    transmitters = ids[:-1]

    cases = {
        "micro.frame.encode_frame.us": (
            frame.encode_frame, lambda i: four[i % 64]),
        "micro.frame.decode_frame.us": (
            lambda d: frame.decode_frame(d, keys[:4]), lambda i: encoded[i % 64]),
        "micro.sim.transmit_over_link.us": (
            lambda i: sim.transmit_over_link(
                encoded[0], link, params, rng.Substream(7, 0xC4A7_0001, i, 0)),
            lambda i: i),
        "micro.node.sample_sensor.us": (
            lambda t: node.sample_sensor(2, t, profile), lambda i: 0.125 * i),
        "micro.rng.Substream_uniform.us": (
            lambda i: rng.Substream(7, 0xC4A7_0001, i, 0).uniform(), lambda i: i),
        "micro.channel.model_cumulative_psr.us": (
            lambda p: channel.model_cumulative_psr(p, target, transmitters),
            lambda i: params),
    }
    # node.step: the mean over the 20 (state, event) pairs of one delivered
    # round, replayed; it includes the codec and sensor work step does.
    pairs = _round_steps(cfg)
    reps = max(1, int(REPEAT_SECONDS / 20 / 30e-6))
    rows = {name: (fn, [make(i) for i in range(_size(fn, make))])
            for name, (fn, make) in cases.items()}
    rows["micro.node.step.us"] = (lambda p: node.step(*p), pairs * reps)
    ref, wall = {}, {}
    for name, (fn, inputs) in rows.items():
        before = reference.kernel_seconds()
        wall[name] = _per_call_us(fn, inputs)
        kernel = (before + reference.kernel_seconds()) / 2
        ref[name] = wall[name] * reference.NOMINAL_S / kernel
    return ref, wall


def _run_round(cfg, seed: int):
    """One 1-round scenario at 0.01 NTU on cfg's line."""
    return sim.run_scenario(cfg.topology(0.01), cfg.channel, 1, seed, profile=cfg.sensor)


def _delivered_seed(cfg) -> int:
    """The first seed whose single round is delivered end to end."""
    for seed in range(1000):
        if _run_round(cfg, seed).hops[-1].packets_delivered == 1:
            return seed
    raise RuntimeError("no fully delivered round in 1000 seeds")


def _round_steps(cfg):
    """(state, event) pairs of every node.step call in one delivered round."""
    seed = _delivered_seed(cfg)
    calls = []
    original = node.step

    def recording(state, event):
        calls.append((state, event))
        return original(state, event)

    node.step = recording
    try:
        _run_round(cfg, seed)
    finally:
        node.step = original
    return calls


EXACT = {
    "exact.node.step.per_full_round": "node.step",
    "exact.frame.encode_frame.per_full_round": "frame.encode_frame",
    "exact.frame.decode_frame.per_full_round": "frame.decode_frame",
    "exact.node.sample_sensor.per_full_round": "node.sample_sensor",
    "exact.rng.Substream.per_full_round": "rng.Substream",
    "exact.sim.transmit_over_link.per_full_round": "sim.transmit_over_link",
}


def exact_counts(cfg) -> dict[str, int]:
    """Calls made by one fully delivered round of cfg's line at 0.01 NTU."""
    seed = _delivered_seed(cfg)
    tracer = Tracer()
    with tracer.active(0):
        _run_round(cfg, seed)
    totals = tracer.totals()
    return {metric: totals[span][0] for metric, span in EXACT.items()}
