"""Scenario config parsing, validation, defaults, and round-tripping."""

import random
from dataclasses import fields

import pytest

from uwocnet.channel import ChannelParams
from uwocnet.config import (
    DEFAULT_BIT_RATE,
    ParseError,
    ScenarioConfig,
    ValidationError,
    emit_config,
    parse_config,
)
from uwocnet.node import min_slot_duration

MINIMAL = "topology.nodes = 0:180, 1:170, 2:154, 3:140, 4:120\nseed = 7\n"


def test_minimal_config_gets_documented_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.node_ids == (0, 1, 2, 3, 4)
    assert cfg.auth_keys == (180, 170, 154, 140, 120)
    assert cfg.link_distances_m == (4.0, 4.0, 4.0, 4.0)
    assert cfg.extra_loss == (1.0, 1.0, 1.0, 1.0)
    assert cfg.channel == ChannelParams()
    assert cfg.channel.ambient_lux == 100.0
    assert cfg.bit_rate == DEFAULT_BIT_RATE == 9600.0
    assert cfg.slot_duration_s is None  # auto
    assert cfg.slot_duration() == min_slot_duration(5, 9600.0)
    assert cfg.seed == 7
    assert cfg.sensor.seed == 7


def test_negative_distance_rejected_with_field_and_constraint():
    text = MINIMAL + "topology.link_distances = 4, -4, 4, 4\n"
    with pytest.raises(ValidationError) as exc:
        parse_config(text)
    assert exc.value.field == "topology.link_distances"
    assert "> 0" in exc.value.constraint


def test_unknown_key_rejected_by_name_and_line():
    text = "topology.nodes = 0:180, 1:170\n\nchannel.gamma = 3\n"
    with pytest.raises(ParseError) as exc:
        parse_config(text)
    assert exc.value.line == 3
    assert "channel.gamma" in str(exc.value)


def test_syntax_error_cites_line_number():
    text = "topology.nodes = 0:180, 1:170\nthis is not a pair\n"
    with pytest.raises(ParseError) as exc:
        parse_config(text)
    assert exc.value.line == 2


def test_duplicate_key_rejected():
    text = MINIMAL + "seed = 8\n"
    with pytest.raises(ParseError) as exc:
        parse_config(text)
    assert "duplicate" in exc.value.reason


def test_comments_and_blank_lines_ignored():
    text = "# scenario\n\ntopology.nodes = 0:180, 1:170  # two nodes\nseed = 1\n"
    cfg = parse_config(text)
    assert cfg.node_ids == (0, 1)


@pytest.mark.parametrize(
    "line, field",
    [
        ("topology.extra_loss = 1, 1, 1, 2", "topology.extra_loss"),
        ("topology.extra_loss = 1, 1, 1", "topology.extra_loss"),
        ("traffic.rounds = 0", "traffic.rounds"),
        ("channel.bit_rate = -9600", "channel.bit_rate"),
        ("traffic.slot_duration = -1", "traffic.slot_duration"),
        # shorter than the worst-case frame at 9600 bit/s
        ("traffic.slot_duration = 0.0001", "traffic.slot_duration"),
    ],
)
def test_semantic_violations(line, field):
    with pytest.raises(ValidationError) as exc:
        parse_config(MINIMAL + line + "\n")
    assert exc.value.field == field


FLOAT_KEYS = [
    "topology.link_distances",
    "topology.extra_loss",
    "channel.source_lux",
    "channel.clear_water_attenuation",
    "channel.turbidity_slope",
    "channel.ambient_lux",
    "channel.noise_sigma",
    "channel.bit_rate",
    "traffic.slot_duration",
    "sensor.baseline_c",
    "sensor.amplitude_c",
    "sensor.period_s",
    "sensor.noise_std_c",
]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_values_rejected(key, value):
    section, name = key.split(".")
    # channel.* and sensor.* values other than the bit rate are checked by
    # ChannelParams and SensorProfile, and reported under their section
    field = key if section in ("topology", "traffic") or name == "bit_rate" else section
    values = ", ".join([value] * 4) if section == "topology" else value
    with pytest.raises(ValidationError) as exc:
        parse_config(f"{MINIMAL}{key} = {values}\n")
    assert exc.value.field == field


def test_missing_topology_is_required():
    with pytest.raises(ValidationError) as exc:
        parse_config("seed = 4\n")
    assert exc.value.field == "topology.nodes"


def test_bad_node_entries():
    with pytest.raises(ParseError):
        parse_config("topology.nodes = 0-180, 1:170\n")
    with pytest.raises(ValidationError):
        parse_config("topology.nodes = 0:180\n")  # single node
    with pytest.raises(ValidationError):
        parse_config("topology.nodes = 0:180, 1:180\n")  # duplicate key
    with pytest.raises(ValidationError):
        parse_config("topology.nodes = 0:0, 1:170\n")  # reserved key byte


@pytest.mark.parametrize(
    "text, line, reason",
    [
        (MINIMAL + "traffic.rounds = ten\n", 3, "cannot parse 'ten' as int"),
        (MINIMAL + "topology.extra_loss = 1, x\n", 3, "as numbers"),
        (MINIMAL + "channel.bit_rate =\n", 3, "empty value"),
        ("topology.nodes = 0:180, x:170\n", 1, "bad node entry 'x:170'"),
    ],
)
def test_unparsable_values_cite_line(text, line, reason):
    with pytest.raises(ParseError) as exc:
        parse_config(text)
    assert exc.value.line == line
    assert reason in exc.value.reason


def test_seed_is_the_sensor_seed():
    # one seed: the `seed` key lives in the sensor profile alone
    cfg = parse_config(MINIMAL)
    assert "seed" not in {f.name for f in fields(ScenarioConfig)}
    assert cfg.seed == cfg.sensor.seed == 7
    assert "seed = 7\n" in emit_config(cfg)


def test_channel_values_validated():
    with pytest.raises(ValidationError) as exc:
        parse_config(MINIMAL + "channel.noise_sigma = 0\n")
    assert exc.value.field == "channel"


def random_config_text(rng: random.Random) -> str:
    n = rng.randint(2, 5)
    ids = rng.sample(range(0, 255), n)
    keys = rng.sample(range(1, 255), n)
    nodes = ", ".join(f"{i}:{k}" for i, k in zip(ids, keys))
    distances = ", ".join(f"{rng.uniform(0.5, 20.0):.3f}" for _ in range(n - 1))
    losses = ", ".join(f"{rng.uniform(0.2, 1.0):.4f}" for _ in range(n - 1))
    lines = [
        f"topology.nodes = {nodes}",
        f"topology.link_distances = {distances}",
        f"topology.extra_loss = {losses}",
        f"channel.source_lux = {rng.uniform(100, 5000):.2f}",
        f"channel.clear_water_attenuation = {rng.uniform(0, 1):.5f}",
        f"channel.turbidity_slope = {rng.uniform(0, 0.01):.6f}",
        f"channel.ambient_lux = {rng.uniform(0, 500):.1f}",
        f"channel.noise_sigma = {rng.uniform(0.1, 50):.4f}",
        f"channel.bit_rate = {rng.choice([4800, 9600, 19200])}",
        f"traffic.rounds = {rng.randint(1, 100000)}",
        f"sensor.baseline_c = {rng.uniform(5, 30):.3f}",
        f"sensor.amplitude_c = {rng.uniform(0, 3):.3f}",
        f"sensor.period_s = {rng.uniform(60, 7200):.1f}",
        f"sensor.noise_std_c = {rng.uniform(0, 0.2):.4f}",
        f"seed = {rng.randint(0, 2**31)}",
        f"output.path = out_{rng.randint(0, 999)}.csv",
    ]
    if rng.random() < 0.5:
        lines.append(f"traffic.slot_duration = {rng.uniform(0.05, 2.0):.4f}")
    else:
        lines.append("traffic.slot_duration = auto")
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def test_roundtrip_200_randomized_configs():
    rng = random.Random(606)
    for _ in range(200):
        text = random_config_text(rng)
        cfg = parse_config(text)
        again = parse_config(emit_config(cfg))
        assert again == cfg
        # emit is canonical: emitting the reparse is byte-identical
        assert emit_config(again) == emit_config(cfg)


def test_topology_builder_applies_per_link_distances():
    text = (
        "topology.nodes = 0:180, 1:170, 2:154\n"
        "topology.link_distances = 3.0, 5.0\n"
        "seed = 1\n"
    )
    topo = parse_config(text).topology(turbidity_ntu=12.0)
    assert [l.distance_m for l in topo.links] == [3.0, 5.0]
    assert all(l.turbidity_ntu == 12.0 for l in topo.links)


def test_shipped_heterogeneous_config_passes_its_anchors():
    from pathlib import Path

    from uwocnet.channel import cumulative_path_success, hop_frame_lengths

    path = Path(__file__).resolve().parent.parent / "demos/configs/heterogeneous.cfg"
    cfg = parse_config(path.read_text())
    assert cfg.extra_loss[1:] == (1.0, 1.0, 1.0)
    assert 0.0 < cfg.extra_loss[0] < 1.0
    topo = cfg.topology(turbidity_ntu=70.0)
    cum = cumulative_path_success(
        cfg.channel, topo.links, hop_frame_lengths(cfg.node_ids[:-1])
    )
    assert abs(cum[0] - 0.91) < 1e-6
    assert abs(cum[-1] - 0.89) < 1e-6
