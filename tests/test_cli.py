"""CLI harness: subcommands, CSV schemas, exit codes, determinism."""

import hashlib
import math
from pathlib import Path

import pytest

from uwocnet import sim
from uwocnet.cli import (
    CSV_HEADER,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    _fmt,
    build_parser,
    main,
    render_monitor_csv,
    render_psr_csv,
)
from uwocnet.config import parse_config
from uwocnet.sim import PsrReport

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


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_every_command_rejects_workers_flag(command, base_cfg, tmp_path, capsys):
    # one pass per run: no command has a --workers option
    out = tmp_path / "out"
    argv = [command, "--config", str(base_cfg), *COMMAND_ARGS[command]]
    assert main(argv + ["--workers", "2", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert err.startswith("error: unrecognized arguments: --workers"), err
    assert not out.exists()


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


def test_sweep_seed_flag_changes_output(lossy_cfg, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sweep", "--config", str(lossy_cfg), "--turbidity", "40"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b), "--seed", "999"])
    assert a.read_bytes() != b.read_bytes()


def test_ambient_light_changes_no_output(tmp_path):
    # the threshold sits midway between mark (ambient + rx) and space
    # (ambient), so BER, and every CSV byte, depend on rx / sigma alone
    runs = {"sweep": "0.01,70", "monitor": "70"}
    outputs = []
    for ambient in ("0", "10000"):
        config = tmp_path / f"ambient_{ambient}.cfg"
        config.write_text(LOSSY_CONFIG + f"channel.ambient_lux = {ambient}\n")
        for command, turbidity in runs.items():
            out = tmp_path / f"{command}_{ambient}.csv"
            argv = [command, "--config", str(config), "--turbidity", turbidity,
                    "--rounds", "200", "--out", str(out)]
            if command == "sweep":
                argv += ["--label", "lossy"]  # not the config's file name
            assert main(argv) == EXIT_OK
            outputs.append(out.read_text())
    assert outputs[:2] == outputs[2:]
    assert outputs[1].count("\n") < 201  # 70 NTU drops rounds: the BER counts


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


@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("config", sorted(SWEEP_GOLDEN), ids=lambda p: p.stem)
def test_sweep_csv_golden(config, blocks, tmp_path, monkeypatch):
    if blocks == 3:  # 1001, 1001 and 998 rounds on the 4-hop line
        monkeypatch.setattr(sim, "_BLOCK_CELLS", 3 * 4 * 1001)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(config), "--turbidity", "0.01,35,70"]
    argv += ["--rounds", "3000", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_GOLDEN[config]


def test_mixed_turbidity_line_renders_nan_turbidity():
    # one 70 NTU link among 0 NTU links: the report names no one turbidity,
    # and each of its CSV rows says so
    config = parse_config(LOSSY_CONFIG)
    clear = config.topology(0.0)
    murky = clear.with_turbidity(70.0).links[2]
    topo = sim.Topology(clear.node_ids, clear.auth_keys,
                        (*clear.links[:2], murky, *clear.links[3:]))
    report = sim.run_scenario(topo, config.channel, 300, config.seed)
    assert math.isnan(report.turbidity_ntu)
    lux = [hop.rx_lux for hop in report.hops]
    assert lux[2] < lux[0] == lux[1] == lux[3]
    rows = render_psr_csv([report], "mixed").splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["nan"] * 4


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


@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("name", sorted(MONITOR_GOLDEN))
def test_monitor_csv_golden(name, blocks, tmp_path, capsys, monkeypatch):
    if blocks == 3:  # 101, 101 and 98 rounds on the 4-hop line
        monkeypatch.setattr(sim, "_BLOCK_CELLS", 4 * 101)
    out = tmp_path / "mon.csv"
    code = main(
        [
            "monitor",
            "--config", str(CONFIGS / f"{name}.cfg"),
            "--turbidity", "70",
            "--rounds", "300",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    delivered, digest = MONITOR_GOLDEN[name]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert capsys.readouterr().out.startswith(f"{delivered} rounds delivered")


def test_monitor_renders_the_collected_log_by_block(lossy_cfg, tmp_path, monkeypatch):
    # 7-round blocks on the 4-hop line, some of which deliver no row: the
    # command's CSV is the API's whole log rendered as one block
    monkeypatch.setattr(sim, "_BLOCK_CELLS", 4 * 7)
    out = tmp_path / "mon.csv"
    argv = ["monitor", "--config", str(lossy_cfg), "--turbidity", "70"]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    config = parse_config(lossy_cfg.read_text())
    report = sim.run_scenario(
        config.topology(70.0), config.channel, config.rounds,
        sim.scenario_seed(config.seed, 70.0), slot_duration=config.slot_duration(),
        bit_rate=config.bit_rate, profile=config.sensor, collect_monitor=True,
    )
    logged = set(report.monitor_log[0])
    blocks = [set(range(lo, lo + 7)) & logged for lo in range(0, config.rounds, 7)]
    assert len(blocks) >= 3 and not all(blocks) and any(blocks)
    assert out.read_text() == render_monitor_csv(report, config.node_ids)


# From 84.9 degC at 0.002 degC/s (a sine of period 1e6 s): out of range
# past round 300 on the 5-node line's automatic slots.
RISING_SENSOR = """\
sensor.baseline_c = 84.9
sensor.amplitude_c = 318.3098861837907
sensor.period_s = 1000000.0
sensor.noise_std_c = 0.0
"""


def test_monitor_failing_in_a_late_block_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sim, "_BLOCK_CELLS", 4 * 50)  # 50-round blocks
    cfg = tmp_path / "rising.cfg"
    cfg.write_text(BASE_CONFIG.replace(
        "sensor.amplitude_c = 0.0\nsensor.noise_std_c = 0.0\n", RISING_SENSOR
    ))
    out = tmp_path / "mon.csv"
    argv = ["monitor", "--config", str(cfg), "--out", str(out), "--rounds"]
    assert main(argv + ["300"]) == EXIT_OK  # six blocks in range
    out.unlink()
    capsys.readouterr()
    assert main(argv + ["1000"]) == EXIT_FAILURE
    assert capsys.readouterr().err.startswith("simulation failed: temperature")
    assert not out.exists()
    # and a file already there keeps its bytes
    out.write_bytes(b"kept,\x00\n")
    assert main(argv + ["1000"]) == EXIT_FAILURE
    assert out.read_bytes() == b"kept,\x00\n"


def _monitor_csv_per_cell(report, node_ids):
    """The monitor CSV rendered one _fmt call per numeric cell."""
    lines = ["round,time_s," + ",".join(f"temp_{nid}" for nid in node_ids)]
    for rnd, time_s, *temps in zip(*(report.monitor_log or ())):
        lines.append(f"{rnd},{_fmt(time_s)}," + ",".join(map(_fmt, temps)))
    return "\n".join(lines) + "\n"


def test_monitor_csv_matches_per_cell_rendering():
    inf, nan = float("inf"), float("nan")
    cells = [nan, inf, -inf, -0.0, 0.0, 5e-324, 1e-5, 999999.5, 1e16, 20.0, -3.0, 1.5e-7]
    n = len(cells)
    log = [
        list(range(n)),  # round indices
        cells,  # sink times
        [cells[-1 - i] for i in range(n)],
        [cells[(i + 3) % n] for i in range(n)],
        [19.99609375] * n,
    ]
    ids = (0, 0x7D, 254)
    for monitor_log in (log, [[] for _ in log], None):
        report = PsrReport(70.0, 12, 1, [], monitor_log)
        expected = _monitor_csv_per_cell(report, ids)
        assert render_monitor_csv(report, ids) == expected
    assert expected == "round,time_s,temp_0,temp_125,temp_254\n"


def test_monitor_csv_needs_one_node_id_per_temperature_column():
    log = [[0], [0.5], [20.0], [21.0], [19.5]]  # two relayed, the sink's
    report = PsrReport(70.0, 1, 1, [], log)
    assert render_monitor_csv(report, (0, 1, 2)).endswith("\n0,0.5,20,21,19.5\n")
    for ids in ((0, 1), (0, 1, 2, 3)):
        with pytest.raises(ValueError, match="per temperature column"):
            render_monitor_csv(report, ids)


# --- one parser per process --------------------------------------------------


def test_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize(
    "first_only", [["--target", "10:16:4:0.95"], ["--fix", "noise_sigma=2.0"]]
)
def test_append_flags_do_not_leak_into_the_next_call(
    first_only, base_cfg, tmp_path, capsys
):
    # the shared parser must not carry one call's --target or --fix into
    # the next call's append list
    out = tmp_path / "fit.cfg"
    argv = ["calibrate", "--config", str(base_cfg), "--out", str(out)]
    argv += ["--target", "0.01:16:4:0.95", "--fix", "turbidity_slope=0.0002"]
    argv += ["--fix", "noise_sigma=1.0"]

    def run(extra):
        assert main(argv + extra) == EXIT_OK
        return capsys.readouterr().out, out.read_bytes()

    alone = run([])
    assert alone[0].count(" NTU: model") == 1 and " = 1 lux" in alone[0]
    assert run(first_only) != alone
    assert run([]) == alone


@pytest.mark.parametrize(
    "bad",
    [
        ["monitor", "--seed", "x"],
        ["monitor", "--bogus"],
        ["monitor", "--seed"],
        ["frobnicate"],
    ],
)
def test_usage_error_leaves_the_parser_usable(bad, lossy_cfg, tmp_path, capsys):
    out = tmp_path / "monitor.csv"
    monitor = ["monitor", "--config", str(lossy_cfg), "--out", str(out)]
    assert main(monitor) == EXIT_OK
    first = out.read_bytes()
    out.unlink()
    assert main(bad + ["--config", str(lossy_cfg)]) == EXIT_USAGE
    assert main(monitor) == EXIT_OK
    assert out.read_bytes() == first


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
UNRECOGNIZED_WORKERS = "error: unrecognized arguments: --workers"


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
        ("", SWEEP + ["--workers", "0"], EXIT_USAGE, UNRECOGNIZED_WORKERS),
        ("", ["monitor", "--workers", "0"], EXIT_USAGE, UNRECOGNIZED_WORKERS),
        # readings above 85 degC cannot be encoded: a simulation failure
        (HOT_SENSOR, SWEEP, EXIT_FAILURE, "simulation failed: temperature"),
        (HOT_SENSOR, ["monitor"], EXIT_FAILURE, "simulation failed: temperature"),
        # monitor runs one turbidity: a list is refused, not cut to its first value
        ("", ["monitor", "--turbidity", "0.01,70"], EXIT_USAGE, "error:"),
        ("", ["sweep", "--turbidity", ","], EXIT_USAGE, "error: --turbidity"),
        ("", CALIBRATE + ["--fix", "noise_sigma"], EXIT_USAGE, "error: --fix"),
        ("", CALIBRATE + ["--fix", "noise_sigma=x"], EXIT_USAGE, "error: bad --fix"),
        # a CSV label, by default the config's stem, holds no CSV syntax
        ("", SWEEP + ["--config", "a,b.cfg"], EXIT_USAGE, "error: CSV label 'a,b'"),
        ("", SWEEP + ["--label", "x\ny"], EXIT_USAGE, "error: CSV label 'x\\ny'"),
        # no list entry may be empty
        ("", ["sweep", "--turbidity", "1,,2"], EXIT_USAGE, "error: --turbidity"),
        # no numpy warning and no traceback when the fixed values leave no fit
        ("", CALIBRATE + ["--target", "70:16:2:0.89", "--fix", "turbidity_slope=1e200"],
         EXIT_USAGE, "error: fixed values"),
    ],
)
def test_bad_input_exits_with_one_error_line(
    config_lines, argv, code, prefix, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    if "--config" not in argv:
        argv = argv + ["--config", "bad.cfg"]
    cfg = Path(argv[argv.index("--config") + 1])
    cfg.write_text(THREE_NODES + config_lines + "\n")
    assert main(argv + ["--out", "out.csv"]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(prefix), err
    assert not Path("out.csv").exists()
