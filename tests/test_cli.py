"""CLI harness: subcommands, CSV schemas, exit codes, determinism."""

import hashlib
from pathlib import Path

import pytest

from uwocnet.cli import (
    CSV_HEADER,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    _fmt,
    main,
    render_monitor_csv,
)
from uwocnet.config import parse_config
from uwocnet.sim import MonitorRow, PsrReport

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "demos" / "configs"
PAPER_ANCHORS = ["--target", "0.01:16:4:0.95", "--target", "70:16:4:0.89"]

BASE_CONFIG = """\
topology.nodes = 0:180, 1:170, 2:154, 3:140, 4:120
topology.link_distances = 4, 4, 4, 4
channel.source_lux = 1000.0
channel.clear_water_attenuation = 0.05
channel.turbidity_slope = 0.005
channel.ambient_lux = 100.0
channel.noise_sigma = 1.0
traffic.rounds = 50
sensor.amplitude_c = 0.0
sensor.noise_std_c = 0.0
seed = 42
"""

LOSSY_CONFIG = """\
topology.nodes = 0:180, 1:170, 2:154, 3:140, 4:120
channel.source_lux = 1000.0
channel.clear_water_attenuation = 0.6
channel.turbidity_slope = 0.0002
channel.noise_sigma = 16.0
traffic.rounds = 400
seed = 11
"""


@pytest.fixture
def base_cfg(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(BASE_CONFIG)
    return path


@pytest.fixture
def lossy_cfg(tmp_path):
    path = tmp_path / "lossy.cfg"
    path.write_text(LOSSY_CONFIG)
    return path


# --- calibrate --------------------------------------------------------------


def test_calibrate_writes_fitted_config_and_residuals(base_cfg, tmp_path, capsys):
    out = tmp_path / "fitted.cfg"
    code = main(
        [
            "calibrate",
            "--config", str(base_cfg),
            "--target", "0.01:16:4:0.95",
            "--target", "70:16:4:0.89",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "residual" in printed
    fitted = parse_config(out.read_text())
    assert fitted.channel.clear_water_attenuation > 0
    assert fitted.channel.turbidity_slope > 0
    # residuals reported per target and small
    for line in printed.splitlines():
        if "residual" in line:
            assert float(line.rsplit(" ", 1)[-1]) <= 0.005


def test_calibrate_without_targets_is_usage_error(base_cfg, capsys):
    assert main(["calibrate", "--config", str(base_cfg)]) == EXIT_USAGE
    assert "target" in capsys.readouterr().err


def test_calibrate_bad_target_syntax(base_cfg):
    code = main(
        ["calibrate", "--config", str(base_cfg), "--target", "0.01:16:4"]
    )
    assert code == EXIT_USAGE


def test_calibrate_divergence_exits_2(base_cfg, tmp_path):
    code = main(
        [
            "calibrate",
            "--config", str(base_cfg),
            "--target", "0.01:16:4:0.5",
            "--target", "70:16:4:0.99",
            "--out", str(tmp_path / "x.cfg"),
        ]
    )
    assert code == EXIT_FAILURE


@pytest.mark.parametrize(
    "target, field",
    [("nan:16:4:0.95", "turbidity_ntu"), ("0.01:inf:4:0.95", "total_distance_m")],
)
def test_calibrate_non_finite_target_is_usage_error(
    base_cfg, tmp_path, capsys, target, field
):
    out = tmp_path / "x.cfg"
    args = ["calibrate", "--config", str(base_cfg), "--out", str(out)]
    code = main(args + ["--target", target, "--target", "70:16:4:0.89"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and field in err[0]
    assert not out.exists()


# Residuals 0.035 and 0.025 at the fit: these targets diverge at the default
# tolerance of 0.005.
DIVERGING_TARGETS = ["--target", "0.01:16:4:0.89", "--target", "70:16:4:0.95"]


@pytest.mark.parametrize(
    "tolerance, targets",
    [
        ("nan", DIVERGING_TARGETS),  # would switch the divergence check off
        ("-1", ["--target", "0.01:16:4:0.95", "--target", "70:16:4:0.89"]),
    ],
)
def test_calibrate_bad_tolerance_is_usage_error(
    base_cfg, tmp_path, capsys, tolerance, targets
):
    out = tmp_path / "x.cfg"
    args = ["calibrate", "--config", str(base_cfg), "--out", str(out)]
    assert main(args + targets + ["--tolerance", tolerance]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "tolerance" in err[0]
    assert not out.exists()
    assert main(args + DIVERGING_TARGETS) == EXIT_FAILURE


def test_calibrate_recovers_synthetic_config(base_cfg, tmp_path):
    # targets generated from a known channel; the fit must reproduce them
    from uwocnet.channel import CalibrationTarget, ChannelParams, model_cumulative_psr

    truth = ChannelParams(1000.0, 0.62, 2.5e-4, 100.0, 17.0)
    turbidities = (0.01, 30.0, 70.0)
    targets = {
        ntu: model_cumulative_psr(truth, CalibrationTarget(ntu, 16.0, 4, 0.5))
        for ntu in turbidities
    }
    out = tmp_path / "synt.cfg"
    args = ["calibrate", "--config", str(base_cfg), "--out", str(out)]
    for ntu, psr in targets.items():
        args += ["--target", f"{ntu}:16:4:{psr}"]
    assert main(args) == EXIT_OK
    fitted = parse_config(out.read_text()).channel
    for ntu, psr in targets.items():
        refit = model_cumulative_psr(fitted, CalibrationTarget(ntu, 16.0, 4, 0.5))
        assert abs(refit - psr) <= 0.005


def test_calibrate_fix_flag(base_cfg, tmp_path):
    out = tmp_path / "one.cfg"
    code = main(
        [
            "calibrate",
            "--config", str(base_cfg),
            "--target", "0.01:4:1:0.97",
            "--fix", "turbidity_slope=0",
            "--fix", "noise_sigma=1.0",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    assert parse_config(out.read_text()).channel.turbidity_slope == 0.0


def _labels(printed):
    """Parameter name -> 'fitted' or 'held', from the calibrate report."""
    words = [line.split()[:2] for line in printed.splitlines() if " = " in line]
    return {name: label for label, name in words}


def test_calibrate_reports_held_attenuation_on_paper_anchors(
    base_cfg, tmp_path, capsys
):
    # one per-hop distance cannot tell c0 from sigma, so c0 keeps its default
    code = main(
        [
            "calibrate",
            "--config", str(base_cfg),
            "--target", "0.01:16:4:0.95",
            "--target", "70:16:4:0.89",
            "--out", str(tmp_path / "paper.cfg"),
        ]
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "held clear_water_attenuation   = 0.05 /m" in printed
    assert _labels(printed) == {
        "clear_water_attenuation": "held",
        "turbidity_slope": "fitted",
        "noise_sigma": "fitted",
    }


def test_calibrate_reports_fixed_parameter_as_held(base_cfg, tmp_path, capsys):
    # two per-hop distances identify c0; the slope is held by --fix
    code = main(
        [
            "calibrate",
            "--config", str(base_cfg),
            "--target", "0.01:16:4:0.95",
            "--target", "0.01:8:4:0.98",
            "--fix", "turbidity_slope=0.0002",
            "--out", str(tmp_path / "two.cfg"),
        ]
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "held turbidity_slope           = 0.0002 /(m*NTU)" in printed
    assert _labels(printed) == {
        "clear_water_attenuation": "fitted",
        "turbidity_slope": "held",
        "noise_sigma": "fitted",
    }


# sha256 of the config `uwocnet calibrate` writes for baseline.cfg on the
# paper anchors without --out, recorded before the commands shared one path.
CALIBRATED_BASELINE_SHA256 = (
    "cf212572321dca6cec328fd253b6025c0bd409a208d0d21aa7219f511d20811c"
)


def test_calibrated_config_golden(tmp_path, capsys):
    cfg = tmp_path / "baseline.cfg"
    cfg.write_bytes((CONFIGS / "baseline.cfg").read_bytes())
    assert main(["calibrate", "--config", str(cfg)] + PAPER_ANCHORS) == EXIT_OK
    written = tmp_path / "baseline.calibrated.cfg"
    assert capsys.readouterr().out.endswith(f"wrote {written}\n")
    digest = hashlib.sha256(written.read_bytes()).hexdigest()
    assert digest == CALIBRATED_BASELINE_SHA256


def test_calibrate_out_does_not_edit_output_path(tmp_path, monkeypatch):
    # --out picks the file calibrate writes; the fitted config keeps the base
    # config's output.path, so a later sweep without --out writes its CSV
    # there instead of over the fitted config.
    monkeypatch.chdir(tmp_path)
    base = tmp_path / "baseline.cfg"
    base.write_bytes((CONFIGS / "baseline.cfg").read_bytes())
    calibrate = ["calibrate", "--config", str(base)] + PAPER_ANCHORS
    assert main(calibrate + ["--out", "fitted.cfg"]) == EXIT_OK
    assert main(calibrate) == EXIT_OK
    fitted = tmp_path / "fitted.cfg"
    text = fitted.read_text()
    assert text == (tmp_path / "baseline.calibrated.cfg").read_text()
    sweep = ["sweep", "--config", "fitted.cfg", "--turbidity", "70", "--rounds", "20"]
    assert main(sweep) == EXIT_OK
    assert fitted.read_text() == text
    assert parse_config(text).output_path == "results.csv"
    assert (tmp_path / "results.csv").read_text().startswith(CSV_HEADER + "\n")


# The arguments each command needs besides --config.
COMMAND_ARGS = {
    "calibrate": PAPER_ANCHORS,
    "sweep": ["--turbidity", "1"],
    "monitor": [],
}


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_rounds_override_below_one_is_usage_error(command, base_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, "--config", str(base_cfg), "--rounds", "0", "--out", str(out)]
    assert main(argv + COMMAND_ARGS[command]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "rounds" in err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_unwritable_output_is_io_error(command, base_cfg, capsys):
    argv = [command, "--config", str(base_cfg), "--rounds", "1"]
    argv += COMMAND_ARGS[command] + ["--out", "/no/such/dir/out"]
    assert main(argv) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("i/o error:")


def test_calibrate_rejects_workers_flag(base_cfg, capsys):
    # calibrate simulates no rounds, so it has no --workers option
    code = main(
        [
            "calibrate",
            "--config", str(base_cfg),
            "--target", "0.01:16:4:0.95",
            "--target", "70:16:4:0.89",
            "--workers", "2",
        ]
    )
    assert code == EXIT_USAGE
    assert "--workers" in capsys.readouterr().err


# --- sweep ------------------------------------------------------------------


def test_sweep_row_count_and_header(base_cfg, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(
        [
            "sweep",
            "--config", str(base_cfg),
            "--turbidity", "5",
            "--rounds", "1",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4  # header + one row per hop
    assert "wrote" in capsys.readouterr().out


def test_csv_schema_golden(base_cfg, tmp_path):
    out = tmp_path / "golden.csv"
    main(
        [
            "sweep",
            "--config", str(base_cfg),
            "--turbidity", "0.01",
            "--rounds", "2",
            "--out", str(out),
        ]
    )
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "scenario,turbidity_ntu,hop_index,link_distance_m,packets_attempted,"
        "packets_delivered,per_hop_psr,cumulative_psr,mean_rx_lux"
    )
    row = lines[1].split(",")
    assert row[0] == "base"
    assert row[1] == "0.01"
    assert row[2] == "0"
    assert row[3] == "4"
    assert row[4] == "2" and row[5] == "2"
    assert row[6] == "1" and row[7] == "1"


def test_sweep_deterministic_byte_identical(lossy_cfg, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sweep", "--config", str(lossy_cfg), "--turbidity", "0.01,70"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_parallel_matches_serial(lossy_cfg, tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    args = ["sweep", "--config", str(lossy_cfg), "--turbidity", "10,40"]
    assert main(args + ["--out", str(serial), "--workers", "1"]) == EXIT_OK
    assert main(args + ["--out", str(parallel), "--workers", "2"]) == EXIT_OK
    assert serial.read_bytes() == parallel.read_bytes()


def test_sweep_seed_flag_changes_output(lossy_cfg, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sweep", "--config", str(lossy_cfg), "--turbidity", "40"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b), "--seed", "999"])
    assert a.read_bytes() != b.read_bytes()


@pytest.mark.parametrize("command", ["sweep", "monitor"])
def test_negative_zero_turbidity_is_zero(command, lossy_cfg, tmp_path, capsys):
    # -0 is the value 0: the same seed, printed as 0, so the same bytes
    out = tmp_path / "out.csv"
    outputs = []
    for value in ("-0", "0"):
        argv = [command, "--config", str(lossy_cfg), f"--turbidity={value}"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        outputs.append((out.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert b",-0," not in outputs[0][0]


def test_calibrate_negative_zero_target_is_zero(base_cfg, tmp_path, capsys):
    # a -0 NTU target is the 0 NTU target: the same fit, reported as 0
    out = tmp_path / "fitted.cfg"
    outputs = []
    for value in ("-0", "0"):
        targets = [f"--target={value}:16:4:0.95", "--target", "70:16:4:0.89"]
        argv = ["calibrate", "--config", str(base_cfg), *targets]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        outputs.append((out.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert "target 0 NTU" in outputs[0][1]


def test_explicit_auto_slot_duration_matches_auto(tmp_path):
    # traffic.slot_duration set to the auto-sized value is the auto run
    auto = parse_config(LOSSY_CONFIG).slot_duration()
    outputs = []
    for slot in ("auto", repr(auto)):
        cfg = tmp_path / "slot.cfg"
        cfg.write_text(LOSSY_CONFIG + f"traffic.slot_duration = {slot}\n")
        out = tmp_path / f"{slot}.csv"
        argv = ["sweep", "--config", str(cfg), "--turbidity", "10,40"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        outputs.append(out.read_bytes())
    assert parse_config(cfg.read_text()).slot_duration_s == auto
    assert outputs[0] == outputs[1]


# sha256 of `uwocnet sweep --turbidity 0.01,35,70 --rounds 3000`, recorded
# before the commands shared one path; the label is the config's stem.
SWEEP_GOLDEN = {
    CONFIGS / "baseline.cfg": (
        "55c32fd6a5a99c67cf7762a585bfdbfa764656648cf6bb2927ae1e6d8e4a0c8a"
    ),
    REPO / "bench" / "inputs" / "heterogeneous.cfg": (
        "140b8614c348ce59527e139e9e5b7840f4f71ff18022272153f0bed62b2062dd"
    ),
}


@pytest.mark.parametrize("workers", ["1", "3"])
@pytest.mark.parametrize("config", sorted(SWEEP_GOLDEN), ids=lambda p: p.stem)
def test_sweep_csv_golden(config, workers, tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(config), "--turbidity", "0.01,35,70"]
    argv += ["--rounds", "3000", "--workers", workers, "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_GOLDEN[config]


def test_sweep_requires_turbidity(base_cfg):
    assert main(["sweep", "--config", str(base_cfg)]) == EXIT_USAGE


def test_sweep_summary_lists_each_turbidity(base_cfg, tmp_path, capsys):
    main(
        [
            "sweep",
            "--config", str(base_cfg),
            "--turbidity", "0.01,70",
            "--rounds", "5",
            "--out", str(tmp_path / "s.csv"),
        ]
    )
    out = capsys.readouterr().out
    assert "cumulative_psr" in out
    assert "0.01" in out and "70" in out


# --- monitor ----------------------------------------------------------------


def test_monitor_error_free_writes_all_rounds(base_cfg, tmp_path):
    out = tmp_path / "mon.csv"
    code = main(
        [
            "monitor",
            "--config", str(base_cfg),
            "--rounds", "10",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "round,time_s,temp_0,temp_1,temp_2,temp_3,temp_4"
    assert len(lines) == 11
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 7
        assert all(t == "20" for t in cells[2:])  # constant profile = baseline


def test_monitor_drops_failed_rounds(lossy_cfg, tmp_path, capsys):
    out = tmp_path / "mon.csv"
    code = main(
        [
            "monitor",
            "--config", str(lossy_cfg),
            "--turbidity", "70",
            "--rounds", "500",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    delivered = len(out.read_text().splitlines()) - 1
    assert 0 < delivered < 500
    # the summary line reports delivered/rounds consistent with the file,
    # and the delivered fraction IS the final-hop cumulative PSR
    printed = capsys.readouterr().out
    assert f"{delivered} of 500 rounds delivered" in printed
    reported_psr = float(printed.split("cumulative PSR ")[1].split(")")[0])
    assert reported_psr == pytest.approx(delivered / 500, abs=1e-9)


# sha256 of `uwocnet monitor --turbidity 70 --rounds 300`, recorded when the
# state machines still wrote the log; heterogeneous.cfg also drops rounds.
MONITOR_GOLDEN = {
    "baseline": (
        "300 of 300",
        "4c101ad5d5b61c4d96c471aa532c8955405f1992797ac099431f08dd650680f0",
    ),
    "heterogeneous": (
        "258 of 300",
        "7a627a3d4a393639a1da174e5513b8c7b0d74eb525d0d0a1caa52938d4057ebf",
    ),
}


@pytest.mark.parametrize("workers", ["1", "3"])
@pytest.mark.parametrize("name", sorted(MONITOR_GOLDEN))
def test_monitor_csv_golden(name, workers, tmp_path, capsys):
    out = tmp_path / "mon.csv"
    code = main(
        [
            "monitor",
            "--config", str(CONFIGS / f"{name}.cfg"),
            "--turbidity", "70",
            "--rounds", "300",
            "--workers", workers,
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    delivered, digest = MONITOR_GOLDEN[name]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert capsys.readouterr().out.startswith(f"{delivered} rounds delivered")


def _monitor_csv_per_cell(report, node_ids):
    """The monitor CSV rendered one _fmt call per numeric cell."""
    lines = ["round,time_s," + ",".join(f"temp_{nid}" for nid in node_ids)]
    for row in report.monitor_rows or ():
        temps = ",".join(_fmt(t) for t in row.temperatures_c)
        lines.append(f"{row.round_index},{_fmt(row.time_s)},{temps}")
    return "\n".join(lines) + "\n"


def test_monitor_csv_matches_per_cell_rendering():
    inf, nan = float("inf"), float("nan")
    cells = [nan, inf, -inf, -0.0, 0.0, 5e-324, 1e-5, 999999.5, 1e16, 20.0, -3.0, 1.5e-7]
    rows = tuple(
        MonitorRow(i, cells[i], (cells[-1 - i], cells[(i + 3) % 12], 19.99609375))
        for i in range(len(cells))
    )
    ids = (0, 0x7D, 254)
    for monitor_rows in (rows, (), None):
        report = PsrReport(70.0, 12, 1, [], monitor_rows)
        expected = _monitor_csv_per_cell(report, ids)
        assert render_monitor_csv(report, ids) == expected
    assert expected == "round,time_s,temp_0,temp_125,temp_254\n"


# --- exit codes and plumbing ---------------------------------------------------


def test_missing_config_file_is_usage_error(capsys):
    assert main(["sweep", "--config", "/no/such/file.cfg", "--turbidity", "1"]) \
        == EXIT_USAGE
    assert "cannot read" in capsys.readouterr().err


def test_config_error_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("topology.nodes = 0:180, 1:170\nchannel.gamma = 1\n")
    assert main(["sweep", "--config", str(bad), "--turbidity", "1"]) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_unwritable_output_is_failure(base_cfg):
    code = main(
        [
            "sweep",
            "--config", str(base_cfg),
            "--turbidity", "1",
            "--rounds", "1",
            "--out", "/no/such/dir/out.csv",
        ]
    )
    assert code == EXIT_FAILURE


def test_bad_turbidity_list(base_cfg):
    assert main(
        ["sweep", "--config", str(base_cfg), "--turbidity", "abc"]
    ) == EXIT_USAGE
    assert main(
        ["sweep", "--config", str(base_cfg), "--turbidity", "-5"]
    ) == EXIT_USAGE
    for value in ("nan", "inf"):
        assert main(
            ["sweep", "--config", str(base_cfg), "--turbidity", value]
        ) == EXIT_USAGE


THREE_NODES = "topology.nodes = 0:180, 1:170, 2:154\ntraffic.rounds = 50\n"
SWEEP = ["sweep", "--turbidity", "1"]
HOT_SENSOR = "sensor.baseline_c = 84.99\nsensor.noise_std_c = 1.0"
CALIBRATE = ["calibrate", "--target", "0.01:16:2:0.95"]


@pytest.mark.parametrize(
    "config_lines, argv, code, prefix",
    [
        ("topology.link_distances = nan, 4", SWEEP, EXIT_USAGE, "config error:"),
        ("channel.bit_rate = nan", SWEEP, EXIT_USAGE, "config error:"),
        ("traffic.slot_duration = nan", SWEEP, EXIT_USAGE, "config error:"),
        ("traffic.slot_duration = 0.0001", SWEEP, EXIT_USAGE, "config error:"),
        ("sensor.period_s = nan", SWEEP, EXIT_USAGE, "config error:"),
        ("sensor.baseline_c = inf", SWEEP, EXIT_USAGE, "config error:"),
        ("sensor.noise_std_c = nan", SWEEP, EXIT_USAGE, "config error:"),
        ("", ["sweep", "--turbidity", "nan"], EXIT_USAGE, "error:"),
        ("", ["sweep", "--turbidity", "inf"], EXIT_USAGE, "error:"),
        ("", ["monitor", "--turbidity", "nan"], EXIT_USAGE, "error:"),
        ("", SWEEP + ["--workers", "0"], EXIT_USAGE, "error: workers"),
        ("", ["monitor", "--workers", "0"], EXIT_USAGE, "error: workers"),
        # readings above 85 degC cannot be encoded: a simulation failure
        (HOT_SENSOR, SWEEP, EXIT_FAILURE, "simulation failed: temperature"),
        (HOT_SENSOR, ["monitor"], EXIT_FAILURE, "simulation failed: temperature"),
        # monitor runs one turbidity: a list is refused, not cut to its first value
        ("", ["monitor", "--turbidity", "0.01,70"], EXIT_USAGE, "error:"),
        ("", ["sweep", "--turbidity", ","], EXIT_USAGE, "error: --turbidity"),
        ("", CALIBRATE + ["--fix", "noise_sigma"], EXIT_USAGE, "error: --fix"),
        ("", CALIBRATE + ["--fix", "noise_sigma=x"], EXIT_USAGE, "error: bad --fix"),
    ],
)
def test_bad_input_exits_with_one_error_line(
    config_lines, argv, code, prefix, tmp_path, capsys
):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(THREE_NODES + config_lines + "\n")
    out = tmp_path / "out.csv"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(prefix), err
    assert not out.exists()
