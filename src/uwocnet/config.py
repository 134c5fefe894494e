"""Scenario config files: a line-oriented ``section.key = value`` format.

Grammar (documented bit-exactly in docs/SCENARIO-CONFIG.md): one
``key = value`` pair per line, ``#`` starts a comment, blank lines are
ignored, keys use dotted section prefixes, and unknown or duplicate keys
are rejected with the offending key name and line number.  Only
``topology.nodes`` is required; every other field has a documented
default.

parse_config turns text into values and builds the relay line from the
topology keys, naming the key at fault.  ScenarioConfig and the types it
holds check every value, for a config built or ``replace``d in code too:
``ScenarioConfig(line=linear_topology(...), channel=ChannelParams(...))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter

from .channel import ChannelParams
from .node import DEFAULT_BIT_RATE, SensorProfile, checked_slot, min_slot_duration
from .rng import as_int
from .sim import DEFAULT_LINK_DISTANCE_M, Topology, linear_topology


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


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one simulation run needs, as parsed from a config file;
    construction (``replace`` too) reports a bad value under its config key.

    ``line`` is the relay line in clear water: no config key holds a
    turbidity, so ``topology(t)`` sets it."""

    line: Topology
    channel: ChannelParams
    bit_rate: float = DEFAULT_BIT_RATE
    rounds: int = DEFAULT_ROUNDS
    slot_duration_s: float | None = None  # None = auto-sized to worst-case frame
    sensor: SensorProfile = field(default_factory=SensorProfile)
    output_path: str = "results.csv"

    def __post_init__(self) -> None:
        for key, value, kind in (
            ("channel", self.channel, ChannelParams),
            ("sensor", self.sensor, SensorProfile),
            ("topology", self.line, Topology),
        ):
            if not isinstance(value, kind):
                raise ValidationError(key, f"must be a {kind.__name__}")
        if any(link.turbidity_ntu for link in self.line.links):
            raise ValidationError("topology", "every link must be at 0 NTU")
        nodes = len(self.line.node_ids)
        _checked("channel.bit_rate", min_slot_duration, nodes, self.bit_rate)
        slot = self.slot_duration_s
        if slot is not None:
            slot = _checked("traffic.slot_duration", checked_slot, nodes, slot, self.bit_rate)
        if as_int(self.rounds, "rounds") < 1:
            raise ValidationError("traffic.rounds", "rounds must be >= 1")
        path = self.output_path  # parse_config reads it back as one stripped line
        if len(str.splitlines(path)) != 1 or "#" in path or path != path.strip():
            raise ValidationError("output.path", "must be one stripped line, no '#'")
        # past frozen: the checked numbers as Python floats
        self.__dict__.update(bit_rate=float(self.bit_rate), slot_duration_s=slot)

    @property
    def seed(self) -> int:
        """The root seed: the `seed` key, held by the sensor profile."""
        return self.sensor.seed

    # read-only views of the line, one value per node or per link
    node_ids = property(attrgetter("line.node_ids"))
    auth_keys = property(attrgetter("line.auth_keys"))
    link_distances_m = property(lambda self: tuple(l.distance_m for l in self.line.links))
    extra_loss = property(lambda self: tuple(l.extra_loss for l in self.line.links))

    def topology(self, turbidity_ntu: float = 0.0) -> Topology:
        return self.line.with_turbidity(turbidity_ntu)

    def slot_duration(self) -> float:
        if self.slot_duration_s is not None:
            return self.slot_duration_s
        return min_slot_duration(len(self.line.node_ids), self.bit_rate)


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
    return [part.strip() for part in value.split(",")]


def _checked(key: str, build, *args, **kwargs):
    """build(*args, **kwargs), its ValueError reported as key's ValidationError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValidationError(key, str(exc)) from None


def parse_config(text: str) -> ScenarioConfig:
    """Parse a scenario config; the types it builds check the values."""
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

    def numbers(value: str) -> tuple[float, ...]:
        return tuple(float(v) for v in _split_list(value))

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
    channel = _checked(
        "channel",
        ChannelParams,
        **{
            f.name: scalar(f"channel.{f.name}", float, f.default)
            for f in _CHANNEL_FIELDS
        },
    )
    sensor = _checked(
        "sensor",
        SensorProfile,
        seed=scalar("seed", int, 0),
        **{
            f.name: scalar(f"sensor.{f.name}", float, f.default)
            for f in _SENSOR_FIELDS
        },
    )
    slot: float | None = None
    if raw.get("traffic.slot_duration", "auto") != "auto":
        slot = scalar("traffic.slot_duration", float, None)
    distances = scalar("topology.link_distances", numbers, DEFAULT_LINK_DISTANCE_M)
    losses = scalar("topology.extra_loss", numbers, None)
    bit_rate = scalar("channel.bit_rate", float, DEFAULT_BIT_RATE)
    rounds = scalar("traffic.rounds", int, DEFAULT_ROUNDS)
    args = (node_ids, auth_keys, distances)
    try:
        line = linear_topology(*args, 0.0, losses)
    except ValueError as exc:  # rebuilt key by key, to name the one at fault
        _checked("topology.nodes", linear_topology, *args[:2])
        _checked("topology.link_distances", linear_topology, *args)
        raise ValidationError("topology.extra_loss", str(exc)) from None
    path = raw.get("output.path", "results.csv")
    return ScenarioConfig(line, channel, bit_rate, rounds, slot, sensor, path)


def _field_lines(section: str, section_fields, values) -> list[str]:
    return [f"{section}.{f.name} = {getattr(values, f.name)!r}" for f in section_fields]


def emit_config(config: ScenarioConfig) -> str:
    """Serialize canonically: parse_config(emit_config(c)) == c for every config c."""
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
