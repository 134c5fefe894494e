"""Command line harness: calibrate, sweep and monitor subcommands.

Every command is a pure function of (config file, flags, seed): identical
inputs produce byte-identical output files.  Exit codes: 0 success,
1 usage or config error, 2 simulation or calibration failure.
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
from .sim import PsrReport, run_scenario, scenario_seed, sweep

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
    lines = [CSV_HEADER]
    for report in reports:
        for hop in report.hops:
            lines.append(
                ",".join(
                    (
                        label,
                        _fmt(report.turbidity_ntu),
                        str(hop.hop_index),
                        _fmt(hop.link_distance_m),
                        str(hop.packets_attempted),
                        str(hop.packets_delivered),
                        _fmt(hop.per_hop_psr),
                        _fmt(hop.cumulative_psr),
                        _fmt(hop.rx_lux),
                    )
                )
            )
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


def _load_config(path: str) -> ScenarioConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
        config.sensor = replace(config.sensor, seed=args.seed)
    if getattr(args, "rounds", None) is not None:
        if args.rounds < 1:
            raise UsageError("--rounds must be >= 1")
        config.rounds = args.rounds
    if getattr(args, "out", None) is not None:
        config.output_path = args.out
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


def cmd_calibrate(args) -> int:
    config = _apply_overrides(_load_config(args.config), args)
    if not args.target:
        raise UsageError("calibrate needs at least one --target NTU:DIST:HOPS:PSR")
    targets = [_parse_target(t) for t in args.target]
    fixed = {
        "source_lux": config.channel.source_lux,
        "ambient_lux": config.channel.ambient_lux,
    }
    for item in args.fix or ():
        name, _, value = item.partition("=")
        if not value:
            raise UsageError(f"--fix must be NAME=VALUE, got {item!r}")
        try:
            fixed[name.strip()] = float(value)
        except ValueError:
            raise UsageError(f"bad --fix value in {item!r}") from None
    # frame sizes during the fit follow the configured line's node ids
    transmitters = config.node_ids[:-1]
    try:
        fitted = calibrate(
            targets, fixed=fixed, tolerance=args.tolerance, node_ids=transmitters
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    config.channel = fitted
    out_path = args.out or (str(Path(args.config).with_suffix("")) + ".calibrated.cfg")
    Path(out_path).write_text(emit_config(config))

    free = fitted_fields(targets, fixed)
    for name, unit in _CALIBRATED_UNITS.items():
        label = f"{'fitted' if name in free else 'held'} {name}"
        print(f"{label:<30} = {getattr(fitted, name):.6g} {unit}")
    for t in targets:
        model = model_cumulative_psr(fitted, t, transmitters)
        print(
            f"target {t.turbidity_ntu:g} NTU: model PSR {model:.6f}, "
            f"target {t.target_psr:.6f}, residual {abs(model - t.target_psr):.6f}"
        )
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _apply_overrides(_load_config(args.config), args)
    turbidities = _parse_turbidities(args)
    label = args.label or Path(args.config).stem
    try:
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
    except ValueError as exc:  # a --turbidity or --workers value the run rejects
        raise UsageError(str(exc)) from None
    csv_text = render_psr_csv(reports, label)
    out = Path(config.output_path)
    try:
        out.write_text(csv_text)
    except OSError as exc:
        print(f"cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    hops = len(reports[0].hops)
    print(f"{'turbidity_ntu':>13}  {'final_hop':>9}  {'cumulative_psr':>14}")
    for report in reports:
        print(
            f"{_fmt(report.turbidity_ntu):>13}  {hops:>9}  "
            f"{report.final_cumulative_psr:>14.6f}"
        )
    print(f"wrote {out}")
    return EXIT_OK


def cmd_monitor(args) -> int:
    config = _apply_overrides(_load_config(args.config), args)
    turbidity = _parse_turbidities(args, default=[0.01])[0]
    try:
        report = run_scenario(
            config.topology(turbidity),
            config.channel,
            config.rounds,
            scenario_seed(config.seed, turbidity),
            slot_duration=config.slot_duration(),
            bit_rate=config.bit_rate,
            profile=config.sensor,
            collect_monitor=True,
            workers=args.workers,
        )
    except ValueError as exc:  # a --turbidity or --workers value the run rejects
        raise UsageError(str(exc)) from None
    text = render_monitor_csv(report, config.node_ids)
    out = Path(config.output_path)
    try:
        out.write_text(text)
    except OSError as exc:
        print(f"cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    delivered = len(report.monitor_rows or ())
    print(
        f"{delivered} of {config.rounds} rounds delivered "
        f"(cumulative PSR {report.final_cumulative_psr:.6f}) at "
        f"{_fmt(turbidity)} NTU"
    )
    print(f"wrote {out}")
    return EXIT_OK


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
        p.add_argument("--out", default=None, help="override output path")

    def simulating(p: argparse.ArgumentParser) -> None:
        common(p)
        p.add_argument(
            "--workers", type=int, default=1,
            help="split rounds into N partitions, run in order (same output)",
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
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


if __name__ == "__main__":
    raise SystemExit(main())
