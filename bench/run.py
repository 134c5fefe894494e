"""uwocnet benchmark: run one workload, check every output, report metrics.

    python3 bench/run.py --workload anchor_sweep --seed 3 --seconds 20 --trace 0

Run from the repository root.  The benchmark imports the package from
``src/`` and drives it from this one process as a closed loop with one
client: the next op starts only after the previous one has completed and
been checked.  Workloads, metrics and checks are described in
bench/README.md.

``--trace 0`` measures the end-to-end metrics with tracing off.  Their
times are in reference seconds: wall time rescaled by a frozen kernel timed
between ops (reference.py), so that the drifting speed of a shared host
does not drown a change to the program.
``--trace 1`` spends half the run untraced and half traced, and reports the
per-layer metrics.  Either way the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The lines before
it are a readable report, and the full record (environment, per-op times,
check findings) is written to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import reference
import spans

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
PSR_SIGMAS = 4.0
# Rounds per turbidity that the PSR check pools, whatever the engine's speed
PSR_POOL_ROUNDS = 100_000
POOL_PROBES = 5  # pairs of 2-round runs that measure the process pool's fixed cost
UNMEASURED = -1.0  # JSON value of a per-layer metric this run cannot measure
MAX_SPANS = 3_000_000  # the traced phase ends early once it holds this many


def import_package():
    """Import uwocnet from this checkout's src/, or exit without a result."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import uwocnet
    except ImportError as exc:
        sys.exit(f"bench: cannot import uwocnet from {src}: {exc}")
    if Path(uwocnet.__file__).resolve().parent != src / "uwocnet":
        sys.exit(f"bench: uwocnet came from {uwocnet.__file__}, not from {src}")


@dataclass
class Sample:
    index: int
    seconds: float  # wall time
    kernel: float  # reference kernel seconds, mean of the runs before and after
    work: int  # rounds simulated, or 1 for an op that runs no rounds

    @property
    def ref_seconds(self) -> float:
        """Wall time rescaled to the reference machine speed."""
        return self.seconds * reference.NOMINAL_S / self.kernel


class Run:
    """One workload's ops, their checks, and the tallies the checks pool."""

    def __init__(self, workload, seed: int, digests: dict) -> None:
        self.wl = workload
        self.seed = seed
        # digests.json records the op digests of one seed, the default seed
        self.default_seed = digests["seed"]
        self.digests = digests["ops"].get(workload.name, [])
        self.next_index = 1  # op 0 of the default seed is the warm-up op
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tallies: dict[str, list] = {}
        self.residuals: list[float] = []

    def op(self, seed: int, index: int, tracer=None) -> tuple[float, int]:
        """Run and check one op; its wall seconds and the rounds it ran."""
        inp = self.wl.make_input(seed, index)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = self.wl.run(inp)
            else:
                with tracer.active(index):
                    result = self.wl.run(inp)
        except Exception:
            seconds = time.perf_counter() - t0
            self._fail(index, "raised " + traceback.format_exc(limit=-1).strip())
            return seconds, 0
        seconds = time.perf_counter() - t0
        outcome = self.wl.check(inp, result)
        problems = list(outcome.problems)
        if seed == self.default_seed and index < len(self.digests):
            if outcome.digest != self.digests[index]:
                problems.append(
                    f"digest {outcome.digest} != recorded {self.digests[index]}"
                )
        for key, delivered, rounds, model in outcome.tallies:
            tally = self.tallies.setdefault(key, [0, 0, model])
            if tally[1] < PSR_POOL_ROUNDS:
                tally[0] += delivered
                tally[1] += rounds
        if outcome.residual is not None:
            self.residuals.append(outcome.residual)
        if problems:
            self._fail(index, "; ".join(problems))
        return seconds, outcome.rounds or 1

    def _fail(self, index: int, why: str) -> None:
        self.failed += 1
        self.problems.append(f"op {index} (seed {self.seed}): {why}")

    def warm_up(self) -> None:
        """Op 0 of the default seed, untimed: warms caches, checks a digest."""
        self.op(self.default_seed, 0)

    def loop(self, seconds: float, tracer=None) -> list[Sample]:
        """Ops back to back until `seconds` have passed (at least one op).

        A traced loop also ends once its spans reach MAX_SPANS, which bounds
        its memory (a traced calibration makes about 1M spans).
        """
        samples = []
        end = time.perf_counter() + seconds
        before = reference.kernel_seconds()
        while True:
            index = self.next_index
            self.next_index += 1
            wall, work = self.op(self.seed, index, tracer)
            after = reference.kernel_seconds()
            samples.append(Sample(index, wall, (before + after) / 2, work))
            before = after
            if time.perf_counter() >= end:
                return samples
            if tracer is not None and len(tracer.start) >= MAX_SPANS:
                return samples

    def pooled_psr_check(self) -> None:
        """Final PSR of the run's first rounds within 4 sigma of the closed form.

        Pooled per turbidity rather than per op, so a run makes a handful of
        these two-sided tests, each with a 6e-5 chance of a false alarm.
        The pool stops at the first op that reaches PSR_POOL_ROUNDS, as many
        as acceptance criterion 4 uses, so a faster engine does not sharpen
        the test.  That matters because the closed form is slightly biased:
        its frame lengths ignore the escapes of temperature bytes, which by
        estimate puts it 1e-4 to 3e-4 above the true PSR, under 0.3 sigma
        at 1e5 rounds.  Failing the test fails every op of the run.
        """
        for key, (delivered, rounds, model) in self.tallies.items():
            sigma = math.sqrt(model * (1.0 - model) / rounds)
            psr = delivered / rounds
            if abs(psr - model) > PSR_SIGMAS * sigma:
                self.problems.append(
                    f"{key}: PSR {psr:.5f} over {rounds} rounds is more than "
                    f"{PSR_SIGMAS:g} sigma ({sigma:.2e}) from closed form {model:.5f}"
                )
                self.failed = self.attempted


def rate(samples: list[Sample]) -> float:
    """Work per reference second."""
    return sum(s.work for s in samples) / sum(s.ref_seconds for s in samples)


def tail_percentile_rank(n: int) -> int:
    """1-based rank of the reported tail among n sorted op times.

    p90 by nearest rank when at least ten ops lie beyond it; otherwise the
    highest percentile with ten ops beyond it, but never below the median.
    """
    return max(math.ceil(n / 2), min(math.ceil(0.9 * n), n - 10))


def _until_ready(argv: list[str]) -> float:
    """Wall seconds from spawning argv until it prints "ready"."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    with proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"bench: {argv[1]} failed ({proc.returncode}): {line!r}")
    return seconds


def setup_seconds(config_path: Path) -> list[tuple[float, float]]:
    """(set-up, reference process) wall seconds, SETUP_SAMPLES pairs.

    Each set-up is a fresh process running setup_probe.py, timed from spawn
    until it is ready for a first op; the reference process runs right after
    it (see reference.py).
    """
    probe = [sys.executable, str(BENCH / "setup_probe.py"), str(config_path)]
    ref = [sys.executable, *reference.IMPORT_PROBE]
    return [(_until_ready(probe), _until_ready(ref)) for _ in range(SETUP_SAMPLES)]


def peak_rss_mb() -> float:
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def _read(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def _commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose is not None:
        return loose.strip()
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(args, np_version: str, scipy_version: str) -> dict:
    cpu = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (_read(index / "level") or "").strip()
        kind = (_read(index / "type") or "").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = (_read(index / "size") or "").strip()
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "uwocnet").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": np_version,
        "scipy": scipy_version,
        "commit": _commit(),
        "src_sha256": src.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(run: Run, samples, setup, rss) -> tuple[dict, list[str]]:
    """Gated metrics for the JSON line, and the readable report lines.

    Times in the JSON are reference seconds (see reference.py); the report
    gives each next to its wall-clock value.
    """
    ref = [s.ref_seconds for s in samples]
    wall = [s.seconds for s in samples]
    n = len(ref)
    tail_rank = tail_percentile_rank(n)
    tail = sorted(ref)[tail_rank - 1]
    metrics = {
        "setup_s": (
            statistics.median(w * reference.IMPORT_NOMINAL_S / r for w, r in setup), "s"
        ),
        "ops_per_s": (n / sum(ref), "1/s"),
        "op_s_p50": (statistics.median(ref), "s"),
        "op_s_p90": (tail, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    beyond = n - tail_rank
    tail_note = f"n={n} ops, {beyond} beyond" + (
        "" if tail_rank == math.ceil(0.9 * n)
        else f"; fewer than 10 beyond p90, so this is p{100 * tail_rank / n:.0f}"
    )
    rounds = sum(s.work for s in samples) if run.wl.rounds else 0
    wall_rate = [n / sum(wall), rounds / sum(wall)]

    def row(name, value, unit, wall_value, note):
        return f"  {name:18s} {value:12.6g} {unit:4s} wall {wall_value:10.6g}  {note}"

    lines = [
        "  metric             reference-speed   wall-clock",
        row("setup_s", metrics["setup_s"][0], "s", statistics.median(w for w, _ in setup),
            f"median of {len(setup)} fresh processes"),
        row("ops_per_s", metrics["ops_per_s"][0], "1/s", wall_rate[0], f"n={n} ops"),
        row("rounds_per_s", rounds / sum(ref), "1/s", wall_rate[1], f"n={rounds} rounds")
        if rounds else "  rounds_per_s       n/a: ops run no rounds",
        row("op_s_p50", metrics["op_s_p50"][0], "s", statistics.median(wall), f"n={n} ops"),
        row("op_s_p90", tail, "s", sorted(wall)[tail_rank - 1], tail_note),
        f"  peak_rss_mb        {rss:12.6g} MB   RUSAGE_SELF + RUSAGE_CHILDREN"
        " (pool workers), read before the set-up probes",
        f"  failed_op_ratio    {run.failed / run.attempted:12.6g}      "
        f"{run.failed} of {run.attempted} ops",
        f"  calib_residual_max {max(run.residuals):12.6g}      n={len(run.residuals)} fits"
        if run.residuals else "  calib_residual_max n/a: no calibration ops",
        f"  reference kernel   median {statistics.median(s.kernel for s in samples):.6g} s"
        f" (nominal {reference.NOMINAL_S:g} s)",
    ]
    return metrics, lines


def measure_end_to_end(run: Run, spec: dict, seconds: float):
    """Tracing off: warm-up, `seconds` of timed ops, then set-up probes."""
    from workloads import INPUTS

    run.wl.setup()
    run.warm_up()
    samples = run.loop(seconds)
    run.pooled_psr_check()
    rss = peak_rss_mb()  # before any set-up probe is reaped into RUSAGE_CHILDREN
    setup = setup_seconds(INPUTS / run.wl.config_file)
    values, lines = end_to_end(run, samples, setup, rss)
    record = {
        "setup_s": [w for w, _ in setup],
        "setup_reference_s": [r for _, r in setup],
        "op_s_p90_percentile": 100 * tail_percentile_rank(len(samples)) / len(samples),
        "op_seconds": [s.seconds for s in samples],
        "op_kernel_s": [s.kernel for s in samples],
    }
    metrics = {
        m["name"]: {"value": values[m["name"]][0], "unit": values[m["name"]][1]}
        for m in spec["end_to_end"]
    }
    return metrics, lines, record


# The calls an op makes first.  Their own time is the op's loop code, which
# tracing cannot split further; layer coverage is the rest of the op's time.
ENTRY_SPANS = ("sim.sweep", "sim.run_scenario", "cli.main", "channel.calibrate")
TIME_UNITS = ("s", "s/op", "us")  # metrics the report also gives as wall time


def layer_metrics(tracer, traced, scale=None):
    """Per-layer metrics taken from the traced phase's spans.

    Calls and self times are per traced op.  Times are wall seconds, or
    reference seconds when scale maps each op id to its rescaling factor.
    A value is None where the workload gives it no meaning (a per-call time
    with no calls).  When the ops' rounds ran in worker processes, the calls
    inside those rounds were not captured: their metrics are returned as
    unmeasured, not zero.
    """
    ops = [s.index for s in traced]
    n = len(ops)
    totals = tracer.totals(ops=ops, scale=scale)
    all_totals = tracer.totals(scale=scale)
    op_seconds = sum(s.seconds * (scale[s.index] if scale else 1.0) for s in traced)
    c = tracer.counters
    rounds = sum(r.rounds for r in c.reports)
    attempted = sum(h.packets_attempted for r in c.reports for h in r.hops)
    delivered = sum(h.packets_delivered for r in c.reports for h in r.hops)
    share = totals["sim.transmit_over_link"][0] / attempted if attempted else None
    in_workers = share is not None and share < 1.0
    m = {}
    unmeasured = set()

    def calls(span):
        return totals[span][0]

    def own(*names):
        return sum(totals[s][2] for s in names)

    def ratio(a, b):
        return a / b if b else None

    def below_pool(name, value):
        """A metric of work done inside the rounds."""
        if in_workers:
            unmeasured.add(name)
            value = None
        m[name] = value

    for span, fields, inside in (
        ("sim.run_scenario", ("calls", "self_s"), False),
        ("sim.transmit_over_link", ("calls", "self_s", "us_per_call"), True),
        ("node.step", ("calls", "self_s"), True),
        ("node.sample_sensor", ("calls", "self_s", "us_per_call"), True),
        ("frame.encode_frame", ("calls", "self_s", "us_per_call"), True),
        ("frame.decode_frame", ("calls", "self_s", "us_per_call"), True),
        ("channel.model_cumulative_psr", ("calls", "self_s", "us_per_call"), False),
    ):
        k, incl, self_s = totals[span]
        values = {"calls": k / n, "self_s": self_s / n, "us_per_call": ratio(incl * 1e6, k)}
        for f in fields:
            if inside:
                below_pool(f"{span}.{f}", values[f])
            else:
                m[f"{span}.{f}"] = values[f]
    draws = [s for s in tracer.names if s.startswith("rng.Substream.")]
    words = calls("rng.Substream.uniform") + c.discarded_words
    below_pool("node.step.calls_per_round", ratio(calls("node.step"), rounds))
    below_pool("frame.bytes_per_round", ratio(c.frame_bytes, rounds))
    below_pool("frame.escape_ratio", ratio(c.escaped_bytes, c.payload_bytes))
    below_pool("rng.Substream.calls", calls("rng.Substream") / n)
    below_pool("rng.Substream.per_round", ratio(calls("rng.Substream"), rounds))
    below_pool("rng.draw.self_s", own(*draws) / n)
    below_pool("rng.discarded_draw_ratio", ratio(c.discarded_words, words))
    below_pool(
        "channel.link_eval.calls",
        (calls("channel.attenuate") + calls("channel.ook_ber")) / n,
    )
    parse = all_totals["config.parse_config"]
    m.update({
        "sim.hop_delivered_ratio": ratio(delivered, attempted),
        "config.parse_config.self_s": ratio(parse[2], parse[0]),
        "cli.render_csv.self_s": own("cli.render_psr_csv", "cli.render_monitor_csv") / n,
        "cli.bytes_written": c.csv_bytes / n,
        "trace.captured_round_share": share,
    })
    for layer in spans.LAYERS:
        layer_self = own(*(s for s in tracer.names if s.split(".")[0] == layer)) / n
        if layer in ("sim", "config", "cli"):  # these run in the parent
            m[f"{layer}.self_s"] = layer_self
        else:
            below_pool(f"{layer}.self_s", layer_self)
    below_pool(
        "trace.layer_coverage",
        own(*(s for s in tracer.names if s not in ENTRY_SPANS)) / op_seconds,
    )
    return m, unmeasured


def pool_fixed_seconds(wl, seed: int) -> float:
    """Reference seconds a pooled op pays beyond the serial run of its rounds.

    The median over POOL_PROBES pairs of 2-round runs, one on wl.workers
    processes and one serial: the pool's start, pickling, merge and
    shutdown, which every pooled op pays whatever its size.
    """
    extra = []
    for _ in range(POOL_PROBES):
        before = reference.kernel_seconds()
        t0 = time.perf_counter()
        wl.simulate(seed, 2, wl.workers)
        t1 = time.perf_counter()
        wl.simulate(seed, 2, 1)
        t2 = time.perf_counter()
        kernel = (before + reference.kernel_seconds()) / 2
        extra.append(((t1 - t0) - (t2 - t1)) * reference.NOMINAL_S / kernel)
    return statistics.median(extra)


def measure_layers(run: Run, spec: dict, seconds: float):
    """Half the time untraced, half traced, then the isolated measurements."""
    import micro
    from uwocnet import config
    from workloads import INPUTS

    wl = run.wl
    tracer = spans.Tracer()
    before = reference.kernel_seconds()
    with tracer.active(-1):
        wl.setup()
    setup_kernel = (before + reference.kernel_seconds()) / 2
    run.warm_up()
    half = seconds / 2
    untraced = run.loop(half)
    traced = run.loop(half, tracer)
    shared = {
        "trace.overhead": 1.0 - rate(traced) / rate(untraced),
        "sim.pool_speedup": None,
        "sim.pool_fixed_share": None,
    }
    if wl.workers > 1:
        workers, wl.workers = wl.workers, 1
        try:
            serial = run.loop(half)
        finally:
            wl.workers = workers
        shared["sim.pool_speedup"] = rate(untraced) / rate(serial)
        shared["sim.pool_fixed_share"] = pool_fixed_seconds(wl, run.seed) / statistics.median(
            s.ref_seconds for s in untraced
        )
    run.pooled_psr_check()
    scale = {s.index: reference.NOMINAL_S / s.kernel for s in traced}
    scale[-1] = reference.NOMINAL_S / setup_kernel
    values, unmeasured = layer_metrics(tracer, traced, scale)
    wall, _ = layer_metrics(tracer, traced)
    anchor = config.parse_config((INPUTS / "anchor.cfg").read_text())
    micro_ref, micro_wall = micro.micro_table(anchor)
    values.update(shared, **micro_ref, **micro.exact_counts(anchor))
    wall.update(micro_wall)
    tracer.save(OUT / f"{wl.name}.spans.npz")
    lines = [f"  {'metric':44s}{'reference':>14s}       {'wall-clock':>14s}"]
    metrics = {}
    for m in spec["per_layer"]:
        name, unit, v = m["name"], m["unit"], values[m["name"]]
        metrics[name] = {"value": UNMEASURED if v is None else v, "unit": unit}
        if v is None:
            shown, note = f"{'-':>14}", (
                "  unmeasured: ran in worker processes" if name in unmeasured else "  n/a"
            )
        else:
            shown, note = f"{v:14.6g}", ""
            if unit in TIME_UNITS:
                note += f"  wall {wall[name]:14.6g}"
            base = micro.BASELINE_US.get(name)
            if base:
                note += f"  ROADMAP Baseline {base:g} us ({v / base:.2f}x)"
        if name == "sim.pool_speedup" and v is not None:
            note += f"  at {wl.rounds} rounds/op, see sim.pool_fixed_share"
        lines.append(f"  {name:44s}{shown} {unit:11s}{note}")
    lines.append(
        f"  reference kernel median {statistics.median(s.kernel for s in traced):.6g} s"
        f" over the traced ops (nominal {reference.NOMINAL_S:g} s)"
    )
    record = {"traced_ops": len(traced), "untraced_ops": len(untraced)}
    return metrics, lines, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_package()
    import numpy
    import scipy

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    digests = json.loads((BENCH / "digests.json").read_text())
    env = environment(args, numpy.__version__, scipy.__version__)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="ops-", dir=OUT))
    try:
        run = Run(WORKLOADS[args.workload](workdir), args.seed, digests)
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, lines, record = measure(run, spec, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record.update(env=env, problems=run.problems, tallies=run.tallies, **result)
    name = f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("\n".join(lines))
    print(f"  {run.attempted} ops attempted, {run.failed} failed")
    for problem in run.problems[:20]:
        print(f"  FAILED {problem}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
