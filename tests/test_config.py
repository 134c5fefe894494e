"""Scenario config parsing, validation, defaults, and round-tripping."""

import math
import random
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

from uwocnet.channel import ChannelParams, LinkSpec
from uwocnet.config import (
    DEFAULT_BIT_RATE,
    ParseError,
    ScenarioConfig,
    ValidationError,
    emit_config,
    parse_config,
)
from uwocnet.node import SensorProfile, min_slot_duration
from uwocnet.sim import Topology, linear_topology

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
        # no list entry may be empty
        ("topology.nodes = 0:180,,1:170,2:154\n", 1, "entries are 'id:key', got ''"),
        (MINIMAL + "topology.link_distances = ,4, 4, 4, 4\n", 3, "as numbers"),
        (MINIMAL + "topology.extra_loss = 1, 1, 1, 1,\n", 3, "as numbers"),
    ],
)
def test_unparsable_values_cite_line(text, line, reason):
    with pytest.raises(ParseError) as exc:
        parse_config(text)
    assert exc.value.line == line
    assert reason in exc.value.reason


@pytest.mark.parametrize("rounds", [2.5, True])
def test_rounds_must_be_an_integer(rounds):
    # emit_config would write them, and parse_config reject what it wrote
    with pytest.raises(TypeError, match="'float'|rounds .* bool True"):
        replace(parse_config(MINIMAL), rounds=rounds)


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


THREE_NODES = "topology.nodes = 0:180, 1:170, 2:154\nseed = 3\n"
# THREE_NODES's line; a line edit overrides one of its arguments
LINE = partial(linear_topology, node_ids=(0, 1, 2), auth_keys=(180, 170, 154))

# Edits of a parsed three-node config that emit_config cannot write as
# given in a form parse_config reads back equal: construction must refuse
# them or store them normalized.  A callable value is built inside the check.
UNWRITABLE_AS_GIVEN = [
    ("bit_rate", True),
    ("slot_duration_s", True),
    ("bit_rate", -1.0),
    ("slot_duration_s", 1e-9),
    ("line", partial(LINE, node_ids=(0, 0, 1))),
    ("line", partial(LINE, node_ids=(True, 2, 3))),
    ("line", partial(LINE, node_ids=[0, 1, 2])),
    ("line", partial(LINE, link_distance_m=(4.0,))),
    ("line", partial(LINE, link_distance_m=4.0)),
    ("line", partial(LINE, extra_loss=(True, 1.0))),
    ("channel", partial(ChannelParams, source_lux=True)),
    ("sensor", partial(SensorProfile, baseline_c=True)),
    ("output_path", "a#b"),
    ("output_path", "a\nb"),
    ("output_path", "a\rb"),
    ("output_path", " a"),
    ("output_path", ""),
]
# numpy floats, which repr writes as np.float64(...): they must be kept
NUMPY_FLOATS = [
    ("bit_rate", np.float64(9600.0)),
    ("line", partial(LINE, link_distance_m=(np.float64(3.5), 4.0))),
    ("channel", partial(ChannelParams, source_lux=np.float64(900.0))),
]
# more values at and beyond each field's edges, for the seeded combinations
EDGE_VALUES = UNWRITABLE_AS_GIVEN + NUMPY_FLOATS + [
    ("bit_rate", 0.0),
    ("bit_rate", math.nan),
    ("bit_rate", 4800),
    ("bit_rate", 1e-3),
    ("slot_duration_s", None),
    ("slot_duration_s", 0.5),
    ("slot_duration_s", np.float64(0.25)),
    ("slot_duration_s", math.inf),
    ("line", partial(LINE, node_ids=(0, 1))),
    ("line", partial(LINE, node_ids=(0, 1, 2, 3))),
    ("line", partial(LINE, node_ids=(0, 1, 255))),
    ("line", partial(LINE, node_ids=(np.int64(0), 1, 2))),
    ("line", partial(LINE, auth_keys=(True, 170, 154))),
    ("line", partial(LINE, auth_keys=(0, 170, 154))),
    ("line", partial(LINE, auth_keys=[181, 171, 155])),
    ("line", partial(LINE, link_distance_m=(3, 5))),
    ("line", partial(LINE, link_distance_m=(-1.0, 4.0))),
    ("line", partial(LINE, link_distance_m=(True, 4.0))),
    ("line", partial(LINE, link_distance_m=(4.0, 4.0, 4.0))),
    ("line", partial(LINE, extra_loss=None)),
    ("line", partial(LINE, extra_loss=(0.5, np.float32(0.25)))),
    ("line", partial(LINE, extra_loss=(1.5, 1.0))),
    ("line", partial(Topology, [0, 1, 2], [180, 170, 154], [LinkSpec(4.0)] * 2)),
    ("line", partial(Topology, (0, 1, 2), (180, 170, 154), (4.0, 4.0))),
    ("line", partial(LINE, turbidity_ntu=70.0)),
    ("line", None),
    ("channel", partial(ChannelParams, noise_sigma=np.float32(2.5))),
    ("channel", partial(ChannelParams, ambient_lux=math.nan)),
    ("sensor", partial(SensorProfile, baseline_c=np.float64(21.5), seed=np.int64(5))),
    ("sensor", partial(SensorProfile, period_s=0)),
    ("channel", None),
    ("sensor", None),
    ("rounds", 0),
    ("rounds", True),
    ("rounds", np.int64(7)),
    ("output_path", "a "),
    ("output_path", "a\u2028b"),
    ("output_path", "dir/x y=1.csv"),
]


def edited(config, edits):
    """config with edits applied, or None if construction refused them."""
    try:
        return replace(config, **{name: v() if callable(v) else v for name, v in edits})
    except (ValidationError, ValueError, TypeError):
        return None


def test_every_config_the_type_accepts_round_trips():
    base = parse_config(THREE_NODES)
    rng = random.Random(2611)
    grid = [[edit] for edit in EDGE_VALUES]
    grid += [rng.sample(EDGE_VALUES, rng.randint(2, 4)) for _ in range(400)]
    accepted = 0
    for edits in grid:
        config = edited(base, edits)
        if config is not None:
            accepted += 1
            assert parse_config(emit_config(config)) == config, edits
    assert 20 < accepted < len(grid) // 2
    # bools for numbers raise, numpy's too, and so does a missing line,
    # channel or sensor, a line in turbid water or one whose links are not
    # LinkSpecs; numpy floats are kept, as Python floats
    refused = [("bit_rate", True), ("slot_duration_s", True), ("bit_rate", np.True_),
               ("channel", None), ("sensor", None), ("line", None),
               ("line", partial(LINE, turbidity_ntu=70.0)),
               ("line", partial(Topology, (0, 1, 2), (180, 170, 154), (4.0, 4.0)))]
    for edit in refused:
        assert edited(base, [edit]) is None, edit
    for edit in NUMPY_FLOATS:
        assert edited(base, [edit]) is not None, edit


def test_the_line_is_a_topology_in_clear_water():
    # no config key holds a turbidity: topology(t) sets it on the held line
    base = parse_config(THREE_NODES)
    assert [f.name for f in fields(ScenarioConfig)] == [
        "line", "channel", "bit_rate", "rounds", "slot_duration_s", "sensor", "output_path"
    ]
    assert base.line == LINE() and base.topology(70.0) == LINE(turbidity_ntu=70.0)
    for line in (None, LINE(turbidity_ntu=70.0)):
        with pytest.raises(ValidationError) as exc:
            replace(base, line=line)
        assert exc.value.field == "topology"
    with pytest.raises(TypeError, match="node_ids"):  # a view, not a field
        replace(base, node_ids=(0, 1, 2))
    # a Topology built from lists holds tuples, as linear_topology's does
    listed = Topology([0, 1, 2], [180, 170, 154], [LinkSpec(4.0)] * 2)
    assert replace(base, line=listed) == base


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
