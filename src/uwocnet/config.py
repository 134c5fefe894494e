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
from .node import SensorProfile, min_slot_duration
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


DEFAULT_BIT_RATE = 9600.0
DEFAULT_ROUNDS = 1000
DEFAULT_LINK_DISTANCE_M = 4.0


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
    seed: int = 0
    output_path: str = "results.csv"

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


_KNOWN_KEYS = frozenset(
    {
        "topology.nodes",
        "topology.link_distances",
        "topology.extra_loss",
        "channel.source_lux",
        "channel.clear_water_attenuation",
        "channel.turbidity_slope",
        "channel.ambient_lux",
        "channel.noise_sigma",
        "channel.bit_rate",
        "traffic.rounds",
        "traffic.slot_duration",
        "sensor.baseline_c",
        "sensor.amplitude_c",
        "sensor.period_s",
        "sensor.noise_std_c",
        "seed",
        "output.path",
    }
)


def _split_list(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario config."""
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
    if len(node_ids) < 2:
        raise ValidationError("topology.nodes", "need at least 2 nodes")
    if len(set(node_ids)) != len(node_ids):
        raise ValidationError("topology.nodes", "node ids must be distinct")
    if len(set(auth_keys)) != len(auth_keys):
        raise ValidationError("topology.nodes", "auth keys must be distinct")
    for nid in node_ids:
        if not 0 <= nid <= 254:
            raise ValidationError("topology.nodes", f"node id {nid} not in [0, 254]")
    for key in auth_keys:
        if not 1 <= key <= 254:
            raise ValidationError("topology.nodes", f"auth key {key} not in [1, 254]")

    hop_count = len(node_ids) - 1
    if "topology.link_distances" in raw:
        try:
            distances = tuple(
                float(v) for v in _split_list(raw["topology.link_distances"])
            )
        except ValueError:
            raise ParseError(
                lines["topology.link_distances"], "distances must be numbers"
            ) from None
    else:
        distances = (DEFAULT_LINK_DISTANCE_M,) * hop_count
    if len(distances) != hop_count:
        raise ValidationError(
            "topology.link_distances",
            f"need {hop_count} distances for {len(node_ids)} nodes",
        )
    for d in distances:
        if d <= 0:
            raise ValidationError("topology.link_distances", "must be > 0")

    if "topology.extra_loss" in raw:
        try:
            losses = tuple(float(v) for v in _split_list(raw["topology.extra_loss"]))
        except ValueError:
            raise ParseError(
                lines["topology.extra_loss"], "extra_loss must be numbers"
            ) from None
    else:
        losses = (1.0,) * hop_count
    if len(losses) != hop_count:
        raise ValidationError(
            "topology.extra_loss", f"need {hop_count} values for {hop_count} links"
        )
    for loss in losses:
        if not 0 < loss <= 1:
            raise ValidationError("topology.extra_loss", "must be in (0, 1]")

    try:
        channel = ChannelParams(
            **{
                f.name: scalar(f"channel.{f.name}", float, f.default)
                for f in fields(ChannelParams)
            }
        )
    except ValueError as exc:
        raise ValidationError("channel", str(exc)) from None

    bit_rate = scalar("channel.bit_rate", float, DEFAULT_BIT_RATE)
    if bit_rate <= 0:
        raise ValidationError("channel.bit_rate", "must be > 0")

    rounds = scalar("traffic.rounds", int, DEFAULT_ROUNDS)
    if rounds < 1:
        raise ValidationError("traffic.rounds", "must be >= 1")

    slot: float | None
    if "traffic.slot_duration" in raw and raw["traffic.slot_duration"] != "auto":
        slot = scalar("traffic.slot_duration", float, None)
        if slot is not None and slot <= 0:
            raise ValidationError("traffic.slot_duration", "must be > 0 or 'auto'")
    else:
        slot = None

    seed = scalar("seed", int, 0)
    try:
        sensor = SensorProfile(
            baseline_c=scalar("sensor.baseline_c", float, 20.0),
            amplitude_c=scalar("sensor.amplitude_c", float, 1.5),
            period_s=scalar("sensor.period_s", float, 3600.0),
            noise_std_c=scalar("sensor.noise_std_c", float, 0.05),
            seed=seed,
        )
    except ValueError as exc:
        raise ValidationError("sensor", str(exc)) from None

    return ScenarioConfig(
        node_ids=tuple(node_ids),
        auth_keys=tuple(auth_keys),
        link_distances_m=distances,
        extra_loss=losses,
        channel=channel,
        bit_rate=bit_rate,
        rounds=rounds,
        slot_duration_s=slot,
        sensor=sensor,
        seed=seed,
        output_path=raw.get("output.path", "results.csv"),
    )


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
        f"channel.source_lux = {config.channel.source_lux!r}",
        f"channel.clear_water_attenuation = {config.channel.clear_water_attenuation!r}",
        f"channel.turbidity_slope = {config.channel.turbidity_slope!r}",
        f"channel.ambient_lux = {config.channel.ambient_lux!r}",
        f"channel.noise_sigma = {config.channel.noise_sigma!r}",
        f"channel.bit_rate = {config.bit_rate!r}",
        f"traffic.rounds = {config.rounds}",
        f"traffic.slot_duration = {slot}",
        f"sensor.baseline_c = {config.sensor.baseline_c!r}",
        f"sensor.amplitude_c = {config.sensor.amplitude_c!r}",
        f"sensor.period_s = {config.sensor.period_s!r}",
        f"sensor.noise_std_c = {config.sensor.noise_std_c!r}",
        f"seed = {config.seed}",
        f"output.path = {config.output_path}",
    ]
    return "\n".join(lines) + "\n"
