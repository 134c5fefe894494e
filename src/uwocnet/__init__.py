"""Secure multi-hop underwater optical wireless network: codec, channel,
relay state machine, and a deterministic Monte-Carlo experiment harness."""

from .channel import (
    CalibrationDiverged,
    CalibrationTarget,
    ChannelParams,
    LinkSpec,
    attenuate,
    calibrate,
    cumulative_path_success,
    fit_link_loss_overrides,
    hop_frame_lengths,
    link_ber,
    model_cumulative_psr,
    ook_ber,
    packet_success,
    q_function,
    q_inverse,
)
from .config import ScenarioConfig, emit_config, parse_config
from .frame import (
    DEFAULT_KEY_TABLE,
    AuthMismatch,
    BadHeader,
    BadPayloadLength,
    DuplicateKey,
    Frame,
    FrameError,
    MalformedEscape,
    RecordOutOfRange,
    SensorRecord,
    TruncatedFrame,
    append_hop,
    decode_frame,
    encode_frame,
    escape_payload,
    unescape_payload,
    worst_case_frame_length,
)
from .node import (
    BytesArrived,
    DeliverToMonitor,
    DropPacket,
    DropReason,
    NodeIdentity,
    NodeRole,
    NodeState,
    ProtocolViolation,
    SensorProfile,
    SlotEnd,
    SlotStart,
    SlotTooShort,
    TransmitBytes,
    min_slot_duration,
    sample_sensor,
    schedule,
    step,
)
from .rng import Substream, derive_seed
from .sim import (
    HopStats,
    PsrReport,
    Topology,
    linear_topology,
    run_scenario,
    scenario_seed,
    sweep,
    transmit_over_link,
)

__version__ = "0.1.0"
