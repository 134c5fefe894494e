"""Command line harness: calibrate, sweep and monitor subcommands.

Every command is a pure function of (config file, flags, seed): identical
inputs produce byte-identical output files.  --seed and --rounds override
the config; --out only picks the file written.  Exit codes: 0 success,
1 usage or config error, 2 simulation, calibration or write failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .channel import (
    CalibrationDiverged,
    CalibrationTarget,
    calibrate,
    fitted_fields,
    model_cumulative_psr,
)
from .config import (
    ParseError,
    ScenarioConfig,
    ValidationError,
    emit_config,
    parse_config,
)
from .frame import RecordOutOfRange
from .sim import PsrReport, sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2

CSV_HEADER = (
    "scenario,turbidity_ntu,hop_index,link_distance_m,packets_attempted,"
    "packets_delivered,per_hop_psr,cumulative_psr,mean_rx_lux"
)


_CALIBRATED_UNITS = {
    "clear_water_attenuation": "/m",
    "turbidity_slope": "/(m*NTU)",
    "noise_sigma": "lux",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; the harness contract is 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _fmt(x: float) -> str:
    """Numeric CSV field: 6 significant digits."""
    return f"{x:.6g}"


def render_psr_csv(reports: list[PsrReport], label: str) -> str:
    # _fmt's spec for every float cell, in one format string per row.
    line = "{},{:.6g},{},{:.6g},{},{},{:.6g},{:.6g},{:.6g}"
    lines = [CSV_HEADER]
    lines += [
        line.format(
            label,
            report.turbidity_ntu,
            hop.hop_index,
            hop.link_distance_m,
            hop.packets_attempted,
            hop.packets_delivered,
            hop.per_hop_psr,
            hop.cumulative_psr,
            hop.rx_lux,
        )
        for report in reports
        for hop in report.hops
    ]
    return "\n".join(lines) + "\n"


def render_monitor_csv(report: PsrReport, node_ids) -> str:
    """One line per monitor row, each row holding one temperature per node."""
    header = "round,time_s," + ",".join(f"temp_{nid}" for nid in node_ids)
    # _fmt's spec for every float cell, in one format string per row.
    line = "{},{:.6g}" + ",{:.6g}" * len(node_ids)
    lines = [header]
    lines += [
        line.format(row.round_index, row.time_s, *row.temperatures_c)
        for row in report.monitor_rows or ()
    ]
    return "\n".join(lines) + "\n"


def _load_config(args) -> ScenarioConfig:
    """The --config file, with --seed and --rounds applied."""
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {args.config}: {exc}") from exc
    config = parse_config(text)
    if args.seed is not None:
        config = replace(config, sensor=replace(config.sensor, seed=args.seed))
    if args.rounds is not None:
        config = replace(config, rounds=args.rounds)
    return config


def _parse_turbidities(args, default=None) -> list[float]:
    if args.turbidity is None:
        if default is not None:
            return default
        raise UsageError("--turbidity is required (comma-separated NTU list)")
    try:
        values = [float(v) for v in args.turbidity.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"bad --turbidity list: {args.turbidity!r}") from None
    if not values:
        raise UsageError("--turbidity list is empty")
    return values


def _parse_target(text: str) -> CalibrationTarget:
    parts = text.split(":")
    if len(parts) != 4:
        raise UsageError(
            f"--target must be NTU:DISTANCE_M:HOPS:PSR, got {text!r}"
        )
    try:
        return CalibrationTarget(
            float(parts[0]), float(parts[1]), int(parts[2]), float(parts[3])
        )
    except ValueError as exc:
        raise UsageError(f"bad --target {text!r}: {exc}") from None


# What a command returns: (default output path, text to write, summary lines).
# main writes the text to --out or the default and prints the summary.
CommandOutput = tuple[str, str, list[str]]


def cmd_calibrate(config: ScenarioConfig, args) -> CommandOutput:
    if not args.target:
        raise UsageError("calibrate needs at least one --target NTU:DIST:HOPS:PSR")
    targets = [_parse_target(t) for t in args.target]
    fixed = {
        "source_lux": config.channel.source_lux,
        "ambient_lux": config.channel.ambient_lux,
    }
    for item in args.fix:
        name, _, value = item.partition("=")
        if not value:
            raise UsageError(f"--fix must be NAME=VALUE, got {item!r}")
        try:
            fixed[name.strip()] = float(value)
        except ValueError:
            raise UsageError(f"bad --fix value in {item!r}") from None
    # frame sizes during the fit follow the configured line's node ids
    transmitters = config.node_ids[:-1]
    fitted = calibrate(
        targets, fixed=fixed, tolerance=args.tolerance, node_ids=transmitters
    )

    free = fitted_fields(targets, fixed)
    summary = []
    for name, unit in _CALIBRATED_UNITS.items():
        label = f"{'fitted' if name in free else 'held'} {name}"
        summary.append(f"{label:<30} = {getattr(fitted, name):.6g} {unit}")
    for t in targets:
        model = model_cumulative_psr(fitted, t, transmitters)
        summary.append(
            f"target {t.turbidity_ntu:g} NTU: model PSR {model:.6f}, "
            f"target {t.target_psr:.6f}, residual {abs(model - t.target_psr):.6f}"
        )
    default = str(Path(args.config).with_suffix("")) + ".calibrated.cfg"
    return default, emit_config(replace(config, channel=fitted)), summary


def cmd_sweep(config: ScenarioConfig, args) -> CommandOutput:
    turbidities = _parse_turbidities(args)
    reports = sweep(
        config.topology(),
        config.channel,
        turbidities,
        config.rounds,
        config.seed,
        slot_duration=config.slot_duration(),
        bit_rate=config.bit_rate,
        profile=config.sensor,
        workers=args.workers,
    )
    csv_text = render_psr_csv(reports, args.label or Path(args.config).stem)
    hops = len(reports[0].hops)
    summary = [f"{'turbidity_ntu':>13}  {'final_hop':>9}  {'cumulative_psr':>14}"]
    summary += [
        f"{_fmt(report.turbidity_ntu):>13}  {hops:>9}  "
        f"{report.final_cumulative_psr:>14.6f}"
        for report in reports
    ]
    return config.output_path, csv_text, summary


def cmd_monitor(config: ScenarioConfig, args) -> CommandOutput:
    turbidity, *rest = _parse_turbidities(args, default=[0.01])
    if rest:
        raise UsageError(f"monitor takes one --turbidity value: {args.turbidity!r}")
    (report,) = sweep(
        config.topology(),
        config.channel,
        [turbidity],
        config.rounds,
        config.seed,
        slot_duration=config.slot_duration(),
        bit_rate=config.bit_rate,
        profile=config.sensor,
        collect_monitor=True,
        workers=args.workers,
    )
    delivered = len(report.monitor_rows or ())
    summary = [
        f"{delivered} of {config.rounds} rounds delivered "
        f"(cumulative PSR {report.final_cumulative_psr:.6f}) at "
        f"{_fmt(report.turbidity_ntu)} NTU"
    ]
    return config.output_path, render_monitor_csv(report, config.node_ids), summary


def build_parser() -> _Parser:
    parser = _Parser(
        prog="uwocnet",
        description="Secure multi-hop underwater optical network simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="scenario config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--rounds", type=int, default=None, help="override rounds")
        p.add_argument("--out", default=None, help="file to write")

    def simulating(p: argparse.ArgumentParser) -> None:
        common(p)
        p.add_argument(
            "--workers", type=int, default=1,
            help="count rounds in blocks of at most rounds/N (same output)",
        )

    p_cal = sub.add_parser("calibrate", help="fit channel parameters to PSR targets")
    common(p_cal)
    p_cal.add_argument(
        "--target",
        action="append",
        default=[],
        metavar="NTU:DIST:HOPS:PSR",
        help="cumulative PSR anchor (repeatable)",
    )
    p_cal.add_argument(
        "--fix",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="hold a channel parameter fixed during the fit",
    )
    p_cal.add_argument("--tolerance", type=float, default=0.005)
    p_cal.set_defaults(func=cmd_calibrate)

    p_sweep = sub.add_parser("sweep", help="PSR vs turbidity sweep to CSV")
    simulating(p_sweep)
    p_sweep.add_argument(
        "--turbidity", default=None, help="comma-separated NTU list"
    )
    p_sweep.add_argument("--label", default=None, help="scenario label for CSV rows")
    p_sweep.set_defaults(func=cmd_sweep)

    p_mon = sub.add_parser("monitor", help="write the delivered-temperature log")
    simulating(p_mon)
    p_mon.add_argument(
        "--turbidity", default=None, help="single NTU value (default 0.01)"
    )
    p_mon.set_defaults(func=cmd_monitor)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        default, text, summary = args.func(_load_config(args), args)
        out = Path(args.out or default)
        out.write_text(text)
    except (UsageError, ValueError) as exc:  # ValueError: a flag value rejected
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CalibrationDiverged as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except RecordOutOfRange as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    for line in summary:
        print(line)
    print(f"wrote {out}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
