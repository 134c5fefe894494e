"""The benchmark's four workloads: op inputs, the timed op, output checks.

Each op's inputs come from (workload, workload seed, op index) alone.  The
op calls the package through module attributes (``sim.sweep``, not a name
imported at start-up), so the tracer's rebinding reaches it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from uwocnet import channel, cli, config, node, sim

INPUTS = Path(__file__).resolve().parent / "inputs"
ANCHOR_NTU = (0.01, 70.0)
ANCHOR_PSR = (0.95, 0.89)
CALIBRATION_JITTER = 0.01  # targets drawn from anchor +- this; all fit
CALIBRATION_TOLERANCE = 0.005  # the calibrate command's default


@dataclass
class Outcome:
    """What the output checks found for one op."""

    problems: list[str] = field(default_factory=list)
    digest: str | None = None  # compared with digests.json when recorded
    rounds: int = 0
    # (key, delivered, rounds, closed-form PSR), pooled across the run
    tallies: list[tuple[str, int, int, float]] = field(default_factory=list)
    residual: float | None = None


def count_digest(reports) -> str:
    counts = [
        [[h.packets_attempted for h in r.hops], [h.packets_delivered for h in r.hops]]
        for r in reports
    ]
    return hashlib.sha256(json.dumps(counts).encode()).hexdigest()[:16]


def check_hop_counts(report, rounds: int) -> list[str]:
    """Per-hop counts must chain: attempted[h+1] == delivered[h]."""
    attempted = [h.packets_attempted for h in report.hops]
    delivered = [h.packets_delivered for h in report.hops]
    problems = []
    if report.rounds != rounds or attempted[0] != rounds:
        problems.append(f"hop 0 attempted {attempted[0]} of {rounds} rounds")
    for h, (a, d) in enumerate(zip(attempted, delivered)):
        if not 0 <= d <= a:
            problems.append(f"hop {h} delivered {d} of {a} attempted")
        if h + 1 < len(attempted) and attempted[h + 1] != d:
            problems.append(
                f"hop {h + 1} attempted {attempted[h + 1]} != hop {h} delivered {d}"
            )
    return problems


class Workload:
    name = ""
    config_file = "anchor.cfg"
    rounds = 0  # rounds simulated per op; 0 when ops run no rounds
    workers = 1

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def setup(self) -> None:
        """What a user's process does before its first op."""
        self.config_path = INPUTS / self.config_file
        self.config = config.parse_config(self.config_path.read_text())
        self.topology = self.config.topology()
        node.schedule(
            self.topology.node_ids, self.config.slot_duration(), 0, self.config.bit_rate
        )

    def op_rng(self, seed: int, index: int) -> random.Random:
        return random.Random(f"{self.name}/{seed}/{index}")

    def make_input(self, seed: int, index: int):
        """The op's simulation seed."""
        return self.op_rng(seed, index).getrandbits(63)

    def closed_form(self, topology) -> float:
        lengths = channel.hop_frame_lengths(topology.node_ids[:-1])
        return channel.cumulative_path_success(
            self.config.channel, topology.links, lengths
        )[-1]


class AnchorSweep(Workload):
    """Criterion 2's shape: a serial sweep at both anchors, counts only."""

    name = "anchor_sweep"
    rounds = 2 * 400

    def run(self, op_seed: int):
        cfg = self.config
        return sim.sweep(
            self.topology,
            cfg.channel,
            ANCHOR_NTU,
            self.rounds // len(ANCHOR_NTU),
            op_seed,
            slot_duration=cfg.slot_duration(),
            bit_rate=cfg.bit_rate,
            profile=replace(cfg.sensor, seed=op_seed),
        )

    def check(self, op_seed: int, reports) -> Outcome:
        out = Outcome(rounds=self.rounds, digest=count_digest(reports))
        per = self.rounds // len(ANCHOR_NTU)
        if [r.turbidity_ntu for r in reports] != list(ANCHOR_NTU):
            out.problems.append("sweep reports out of turbidity order")
        for ntu, report in zip(ANCHOR_NTU, reports):
            out.problems += check_hop_counts(report, per)
            model = self.closed_form(self.topology.with_turbidity(ntu))
            out.tallies.append(
                (f"{ntu:g} NTU", report.hops[-1].packets_delivered, per, model)
            )
        return out


_MONITOR_LINE = re.compile(
    r"(\d+) of (\d+) rounds delivered \(cumulative PSR ([0-9.]+)\)"
)


class MonitorLog(Workload):
    """The monitor command: every delivered round decoded, rendered, written."""

    name = "monitor_log"
    rounds = 500
    turbidity = 0.01

    def run(self, op_seed: int):
        out = self.workdir / "monitor.csv"
        argv = [
            "monitor",
            "--config", str(self.config_path),
            "--seed", str(op_seed),
            "--rounds", str(self.rounds),
            "--turbidity", repr(self.turbidity),
            "--out", str(out),
        ]
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = cli.main(argv)
        return code, stdout.getvalue(), out

    def check(self, op_seed: int, result) -> Outcome:
        code, stdout, path = result
        out = Outcome(rounds=self.rounds)
        if code != cli.EXIT_OK:
            out.problems.append(f"monitor exited {code}")
            return out
        data = path.read_bytes()
        out.digest = hashlib.sha256(data).hexdigest()[:16]
        rows = data.decode().count("\n") - 1
        m = _MONITOR_LINE.search(stdout)
        if m is None:
            out.problems.append(f"no summary line in output {stdout!r}")
            return out
        reported, rounds, psr = int(m[1]), int(m[2]), float(m[3])
        delivered = round(psr * rounds)  # 6 decimals are exact below 1e6 rounds
        if rows != reported or rows != delivered:
            out.problems.append(
                f"{rows} monitor rows, {reported} reported, {delivered} delivered"
            )
        if rounds != self.rounds:
            out.problems.append(f"monitor ran {rounds} rounds, asked {self.rounds}")
        model = self.closed_form(self.config.topology(self.turbidity))
        out.tallies.append((f"{self.turbidity:g} NTU", delivered, rounds, model))
        return out


class CalibrateAnchors(Workload):
    """Two-target calibration, with the arguments `uwocnet calibrate` passes."""

    name = "calibrate_anchors"

    def setup(self) -> None:
        super().setup()
        self.fixed = {
            "source_lux": self.config.channel.source_lux,
            "ambient_lux": self.config.channel.ambient_lux,
        }
        self.transmitters = self.config.node_ids[:-1]

    def make_input(self, seed: int, index: int):
        rng = self.op_rng(seed, index)
        hops = self.topology.hop_count
        distance = sum(self.config.link_distances_m)
        return tuple(
            channel.CalibrationTarget(
                ntu, distance, hops, psr + rng.uniform(-CALIBRATION_JITTER, CALIBRATION_JITTER)
            )
            for ntu, psr in zip(ANCHOR_NTU, ANCHOR_PSR)
        )

    def run(self, targets):
        return channel.calibrate(
            targets,
            fixed=self.fixed,
            tolerance=CALIBRATION_TOLERANCE,
            node_ids=self.transmitters,
        )

    def check(self, targets, params) -> Outcome:
        # No digest: the fitted point on the (c0, sigma) ridge is arbitrary,
        # so a different fitting method may return another equally good one.
        residuals = [
            abs(channel.model_cumulative_psr(params, t, self.transmitters) - t.target_psr)
            for t in targets
        ]
        out = Outcome(residual=max(residuals))
        if not all(math.isfinite(r) for r in residuals) or out.residual > CALIBRATION_TOLERANCE:
            out.problems.append(f"calibration residuals {residuals} exceed tolerance")
        return out


class HeteroWorkers(Workload):
    """Criterion 3's scenario on a process pool of nproc = 2 workers."""

    name = "hetero_workers2"
    config_file = "heterogeneous.cfg"
    # Criterion 3 runs 1e5 rounds; 1500 keeps enough ops in a run for the
    # percentiles.  The traced run reports the share of op time that the
    # pool's fixed cost takes at this size (sim.pool_fixed_share).
    rounds = 1500
    workers = 2
    turbidity = 70.0

    def setup(self) -> None:
        super().setup()
        self.scenario = self.config.topology(self.turbidity)

    def run(self, op_seed: int):
        return self.simulate(op_seed, self.rounds, self.workers)

    def simulate(self, op_seed: int, rounds: int, workers: int):
        cfg = self.config
        return sim.run_scenario(
            self.scenario,
            cfg.channel,
            rounds,
            op_seed,
            slot_duration=cfg.slot_duration(),
            bit_rate=cfg.bit_rate,
            profile=replace(cfg.sensor, seed=op_seed),
            workers=workers,
        )

    def check(self, op_seed: int, report) -> Outcome:
        out = Outcome(rounds=self.rounds, digest=count_digest([report]))
        out.problems += check_hop_counts(report, self.rounds)
        model = self.closed_form(self.scenario)
        out.tallies.append(
            (f"{self.turbidity:g} NTU", report.hops[-1].packets_delivered, self.rounds, model)
        )
        return out


WORKLOADS = {
    w.name: w for w in (AnchorSweep, MonitorLog, CalibrateAnchors, HeteroWorkers)
}
