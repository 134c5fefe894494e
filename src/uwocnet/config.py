"""Scenario config files: a line-oriented ``section.key = value`` format.

Grammar (documented bit-exactly in docs/SCENARIO-CONFIG.md): one
``key = value`` pair per line, ``#`` starts a comment, blank lines are
ignored, keys use dotted section prefixes, and unknown or duplicate keys
are rejected with the offending key name and line number.  Only
``topology.nodes`` is required; every other field has a documented
default.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .channel import ChannelParams
from .node import DEFAULT_BIT_RATE, SensorProfile, min_slot_duration, schedule
from .rng import as_int
from .sim import Topology, linear_topology


class ParseError(Exception):
    def __init__(self, line: int, reason: str) -> None:
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class ValidationError(Exception):
    def __init__(self, field_name: str, constraint: str) -> None:
        super().__init__(f"{field_name}: {constraint}")
        self.field = field_name
        self.constraint = constraint


DEFAULT_ROUNDS = 1000


@dataclass
class ScenarioConfig:
    """Everything one simulation run needs, as parsed from a config file."""

    node_ids: tuple[int, ...]
    auth_keys: tuple[int, ...]
    link_distances_m: tuple[float, ...]
    extra_loss: tuple[float, ...]
    channel: ChannelParams
    bit_rate: float = DEFAULT_BIT_RATE
    rounds: int = DEFAULT_ROUNDS
    slot_duration_s: float | None = None  # None = auto-sized to worst-case frame
    sensor: SensorProfile = field(default_factory=SensorProfile)
    output_path: str = "results.csv"

    def __post_init__(self) -> None:
        if as_int(self.rounds, "rounds") < 1:
            raise ValueError("rounds must be >= 1")

    @property
    def seed(self) -> int:
        """The root seed: the `seed` key, held by the sensor profile."""
        return self.sensor.seed

    def topology(self, turbidity_ntu: float = 0.0) -> Topology:
        return linear_topology(
            self.node_ids,
            self.auth_keys,
            self.link_distances_m,
            turbidity_ntu,
            self.extra_loss,
        )

    def slot_duration(self) -> float:
        if self.slot_duration_s is not None:
            return self.slot_duration_s
        return min_slot_duration(len(self.node_ids), self.bit_rate)


# One channel.* and one sensor.* key per dataclass field, in file order; the
# sensor's seed is the top-level `seed` key.
_CHANNEL_FIELDS = fields(ChannelParams)
_SENSOR_FIELDS = tuple(f for f in fields(SensorProfile) if f.name != "seed")

_KNOWN_KEYS = frozenset(
    (
        "topology.nodes",
        "topology.link_distances",
        "topology.extra_loss",
        "channel.bit_rate",
        "traffic.rounds",
        "traffic.slot_duration",
        "seed",
        "output.path",
    )
    + tuple(f"channel.{f.name}" for f in _CHANNEL_FIELDS)
    + tuple(f"sensor.{f.name}" for f in _SENSOR_FIELDS)
)


def _split_list(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def _checked(key: str, build, *args, **kwargs):
    """build(*args, **kwargs), its ValueError reported as key's ValidationError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValidationError(key, str(exc)) from None


def parse_config(text: str) -> ScenarioConfig:
    """Parse a scenario config; each value is checked by the type that owns it."""
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(lineno, f"expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ParseError(lineno, f"unknown key {key!r}")
        if key in raw:
            raise ParseError(lineno, f"duplicate key {key!r}")
        if not value:
            raise ParseError(lineno, f"empty value for {key!r}")
        raw[key] = value
        lines[key] = lineno

    def scalar(key: str, convert, default):
        if key not in raw:
            return default
        try:
            return convert(raw[key])
        except ValueError:
            raise ParseError(
                lines[key], f"{key}: cannot parse {raw[key]!r} as {convert.__name__}"
            ) from None

    def numbers(key: str, default: tuple[float, ...]) -> tuple[float, ...]:
        if key not in raw:
            return default
        try:
            return tuple(float(v) for v in _split_list(raw[key]))
        except ValueError:
            raise ParseError(
                lines[key], f"{key}: cannot parse {raw[key]!r} as numbers"
            ) from None

    if "topology.nodes" not in raw:
        raise ValidationError("topology.nodes", "required")
    node_ids: list[int] = []
    auth_keys: list[int] = []
    for part in _split_list(raw["topology.nodes"]):
        if ":" not in part:
            raise ParseError(
                lines["topology.nodes"],
                f"topology.nodes entries are 'id:key', got {part!r}",
            )
        id_text, _, key_text = part.partition(":")
        try:
            node_ids.append(int(id_text))
            auth_keys.append(int(key_text))
        except ValueError:
            raise ParseError(
                lines["topology.nodes"], f"bad node entry {part!r}"
            ) from None
    # The line is built once per key, so its error names the key at fault;
    # the defaults are linear_topology's.
    nodes = (node_ids, auth_keys)
    topo = _checked("topology.nodes", linear_topology, *nodes)
    default = tuple(link.distance_m for link in topo.links)
    distances = numbers("topology.link_distances", default)
    topo = _checked("topology.link_distances", linear_topology, *nodes, distances)
    default = tuple(link.extra_loss for link in topo.links)
    losses = numbers("topology.extra_loss", default)
    _checked("topology.extra_loss", linear_topology, *nodes, distances, 0.0, losses)

    channel = _checked(
        "channel",
        ChannelParams,
        **{
            f.name: scalar(f"channel.{f.name}", float, f.default)
            for f in _CHANNEL_FIELDS
        },
    )
    bit_rate = scalar("channel.bit_rate", float, DEFAULT_BIT_RATE)
    _checked("channel.bit_rate", min_slot_duration, len(node_ids), bit_rate)

    slot: float | None = None
    if raw.get("traffic.slot_duration", "auto") != "auto":
        slot = scalar("traffic.slot_duration", float, None)
        _checked("traffic.slot_duration", schedule, node_ids, slot, 0, bit_rate)

    sensor = _checked(
        "sensor",
        SensorProfile,
        seed=scalar("seed", int, 0),
        **{
            f.name: scalar(f"sensor.{f.name}", float, f.default)
            for f in _SENSOR_FIELDS
        },
    )

    return _checked(
        "traffic.rounds",
        ScenarioConfig,
        node_ids=tuple(node_ids),
        auth_keys=tuple(auth_keys),
        link_distances_m=distances,
        extra_loss=losses,
        channel=channel,
        bit_rate=bit_rate,
        rounds=scalar("traffic.rounds", int, DEFAULT_ROUNDS),
        slot_duration_s=slot,
        sensor=sensor,
        output_path=raw.get("output.path", "results.csv"),
    )


def _field_lines(section: str, section_fields, values) -> list[str]:
    return [f"{section}.{f.name} = {getattr(values, f.name)!r}" for f in section_fields]


def emit_config(config: ScenarioConfig) -> str:
    """Serialize a config canonically; parse(emit(parse(t))) == parse(t)."""
    nodes = ", ".join(
        f"{nid}:{key}" for nid, key in zip(config.node_ids, config.auth_keys)
    )
    slot = "auto" if config.slot_duration_s is None else repr(config.slot_duration_s)
    lines = [
        f"topology.nodes = {nodes}",
        f"topology.link_distances = {', '.join(repr(d) for d in config.link_distances_m)}",
        f"topology.extra_loss = {', '.join(repr(x) for x in config.extra_loss)}",
        *_field_lines("channel", _CHANNEL_FIELDS, config.channel),
        f"channel.bit_rate = {config.bit_rate!r}",
        f"traffic.rounds = {config.rounds}",
        f"traffic.slot_duration = {slot}",
        *_field_lines("sensor", _SENSOR_FIELDS, config.sensor),
        f"seed = {config.seed}",
        f"output.path = {config.output_path}",
    ]
    return "\n".join(lines) + "\n"
