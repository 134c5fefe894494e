"""Optical link budget: turbidity-dependent attenuation, OOK detection, PSR.

The channel maps link geometry and water turbidity to received intensity
with a Beer-Lambert law whose attenuation coefficient grows linearly with
turbidity:

    rx_lux = source_lux * exp(-(c_clear + slope * NTU) * distance) * extra_loss

Detection is on-off keying against a fixed ambient floor: mark level is
ambient + rx_lux, space level is ambient, the decision threshold sits at
the midpoint, and receiver noise is additive Gaussian with RMS noise_sigma.
Both error directions then have probability Q(rx_lux / (2 * noise_sigma)),
so BER is at most 0.5 and the ambient level cancels out of the error rate.

Packets are serialized 8N1 (start bit + 8 data bits + stop bit per byte)
with no error correction, so a packet of B bytes survives with probability
(1 - ber)^(10*B).  rng.zero_draw_probability is the one survival law: the
closed form evaluates it, the Monte Carlo's zero-flip test compares uniforms
against it, and calibrate inverts it.

calibrate() fits the free channel coefficients to measured packet success
rates in closed form: each target PSR inverts to one BER, hence one value of
ln(rx / 2 sigma), which is linear in (ln noise_sigma, clear-water
attenuation, turbidity slope); a least-squares solve over the few
sign-constraint cases gives the fit, with no iteration or tuning constant.
Targets at a single per-hop distance cannot separate the clear-water
attenuation from the noise, so it is then held at its ChannelParams default
(`uwocnet calibrate --fix clear_water_attenuation=X` holds another value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from itertools import combinations
from statistics import NormalDist

import numpy as np

from . import frame as fr
from .rng import as_float, as_int, zero_draw_probability

BITS_PER_BYTE_ON_WIRE = 10  # 8N1: start + 8 data + stop


@dataclass(frozen=True)
class ChannelParams:
    """Optical channel coefficients, lux-denominated."""

    source_lux: float = 1000.0  # intensity at the transmitter aperture, > 0
    clear_water_attenuation: float = 0.05  # 1/m, >= 0
    turbidity_slope: float = 0.005  # 1/(m*NTU), >= 0
    ambient_lux: float = 100.0  # background light, [0, 10000]; cancels out of BER
    noise_sigma: float = 1.0  # lux-equivalent RMS receiver noise, > 0

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, as_float(getattr(self, f.name), f.name))
        if self.source_lux <= 0:
            raise ValueError("source_lux must be > 0")
        if self.clear_water_attenuation < 0:
            raise ValueError("clear_water_attenuation must be >= 0")
        if self.turbidity_slope < 0:
            raise ValueError("turbidity_slope must be >= 0")
        if not 0 <= self.ambient_lux <= 10000:
            raise ValueError("ambient_lux must be in [0, 10000]")
        if self.noise_sigma <= 0:
            raise ValueError("noise_sigma must be > 0")

    def attenuation_at(self, turbidity_ntu: float) -> float:
        """Total attenuation coefficient c(NTU), 1/m."""
        return self.clear_water_attenuation + self.turbidity_slope * turbidity_ntu


@dataclass(frozen=True)
class LinkSpec:
    """One optical hop: geometry, water state, optional extra loss."""

    distance_m: float
    turbidity_ntu: float = 0.0
    extra_loss: float = 1.0  # multiplicative factor in (0, 1]

    def __post_init__(self) -> None:
        # Python floats; -0.0 NTU (clear water) as 0.0, so it prints as 0.
        for name in ("distance_m", "turbidity_ntu", "extra_loss"):
            object.__setattr__(self, name, as_float(getattr(self, name), name) + 0.0)
        if self.distance_m <= 0:
            raise ValueError("distance_m must be > 0")
        if self.turbidity_ntu < 0:
            raise ValueError("turbidity_ntu must be >= 0")
        if not 0 < self.extra_loss <= 1:
            raise ValueError("extra_loss must be in (0, 1]")


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def q_inverse(p: float) -> float:
    """Inverse of q_function on (0, 1): x = -Phi^-1(p), with the standard
    normal quantile Phi^-1 from statistics.NormalDist (Wichura's AS241)."""
    if not 0.0 < p < 1.0:
        raise ValueError("q_inverse needs p in (0, 1)")
    return -NormalDist().inv_cdf(p)


def attenuate(params: ChannelParams, link: LinkSpec) -> float:
    """Received intensity in lux over one link."""
    c = params.attenuation_at(link.turbidity_ntu)
    return params.source_lux * math.exp(-c * link.distance_m) * link.extra_loss


def ook_ber(received_lux: float, params: ChannelParams) -> float:
    """Bit error probability of midpoint-threshold OOK detection.

    Mark = ambient + received, space = ambient; each level sits
    received/2 away from the threshold, noise is N(0, noise_sigma).
    """
    if received_lux < 0:
        raise ValueError("received_lux must be >= 0")
    return q_function(received_lux / (2.0 * params.noise_sigma))


def link_ber(params: ChannelParams, link: LinkSpec) -> float:
    """BER of one link: ook_ber of the attenuated intensity."""
    return ook_ber(attenuate(params, link), params)


def packet_success(ber: float, frame_bytes: int) -> float:
    """Probability a frame of frame_bytes survives with zero bit errors."""
    if not 0.0 <= ber <= 1.0:
        raise ValueError("ber must be in [0, 1]")
    if frame_bytes < 1:
        raise ValueError("frame_bytes must be >= 1")
    return zero_draw_probability(BITS_PER_BYTE_ON_WIRE * frame_bytes, ber)


def cumulative_path_success(
    params: ChannelParams, links, frame_lengths
) -> list[float]:
    """Closed-form cumulative PSR after each hop.

    frame_lengths[j] is the byte length of the frame transmitted on hop j
    (frames grow by one key and one record per hop).
    """
    links = tuple(links)
    lengths = tuple(frame_lengths)
    if len(lengths) != len(links):
        raise ValueError("need one frame length per link")
    out = []
    acc = 1.0
    for link, nbytes in zip(links, lengths):
        acc *= packet_success(link_ber(params, link), nbytes)
        out.append(acc)
    return out


def hop_frame_lengths(node_ids) -> list[int]:
    """Nominal frame sizes per hop for a relay line of these transmitters
    (frame.hop_frame_lengths at its reference reading)."""
    return fr.hop_frame_lengths(node_ids).tolist()


@dataclass(frozen=True)
class CalibrationTarget:
    """One measured operating point the fit must reproduce."""

    turbidity_ntu: float
    total_distance_m: float
    hop_count: int
    target_psr: float

    def __post_init__(self) -> None:
        # Python floats; -0.0 NTU (clear water) as 0.0, so it prints as 0.
        for name in ("turbidity_ntu", "total_distance_m"):
            object.__setattr__(self, name, as_float(getattr(self, name), name) + 0.0)
        if self.turbidity_ntu < 0:
            raise ValueError("turbidity_ntu must be >= 0")
        if self.total_distance_m <= 0:
            raise ValueError("total_distance_m must be > 0")
        object.__setattr__(self, "hop_count", as_int(self.hop_count, "hop_count"))
        if self.hop_count < 1:
            raise ValueError("hop_count must be >= 1")
        if not 0.0 < self.target_psr < 1.0:
            raise ValueError("target_psr must be in (0, 1)")


class CalibrationDiverged(Exception):
    def __init__(self, residuals: tuple[float, ...], tolerance: float) -> None:
        super().__init__(
            f"calibration residuals {[f'{r:.3g}' for r in residuals]} "
            f"exceed tolerance {tolerance}"
        )
        self.residuals = residuals
        self.tolerance = tolerance


_FREE_FIELDS = ("clear_water_attenuation", "turbidity_slope", "noise_sigma")


def _nominal_lengths(hop_count: int, node_ids) -> list[int]:
    """hop_frame_lengths of the ids transmitting on hop_count hops, by
    default 0..hop_count-1."""
    ids = tuple(range(hop_count) if node_ids is None else node_ids)
    if len(ids) < hop_count:
        raise ValueError(f"need {hop_count} transmitting node ids, got {len(ids)}")
    return hop_frame_lengths(ids[:hop_count])


def _signal_for_success(psr: float, frame_bytes: int) -> float:
    """The x = rx / (2 sigma) at which frame_bytes survive with probability
    psr: packet_success inverted for the BER (expm1 keeps precision for psr
    near 1), then q_inverse.  Raises ValueError if that BER is 0.5 or more."""
    ber = -math.expm1(math.log(psr) / (BITS_PER_BYTE_ON_WIRE * frame_bytes))
    if ber >= 0.5:
        raise ValueError(
            f"PSR {psr} over {frame_bytes} bytes needs a BER of at least 0.5, "
            "which no channel reaches"
        )
    return q_inverse(ber)


def model_cumulative_psr(
    params: ChannelParams, target: CalibrationTarget, node_ids=None
) -> float:
    """Model prediction of end-to-end PSR for one calibration target.

    node_ids are the transmitting nodes' ids in hop order (they shape the
    frame sizes); the default 0..hop_count-1 matches the standard line.
    """
    return _path_psr(params, target, _nominal_lengths(target.hop_count, node_ids))


def _path_psr(params: ChannelParams, target: CalibrationTarget, lengths) -> float:
    """model_cumulative_psr for the given frame length on each hop."""
    d = target.total_distance_m / target.hop_count
    link = LinkSpec(d, target.turbidity_ntu)
    return cumulative_path_success(params, [link] * target.hop_count, lengths)[-1]


def _design_matrix(targets) -> np.ndarray:
    """Coefficients of (c0, slope, ln sigma) in ln x_t - ln(source_lux / 2)."""
    d = np.array([t.total_distance_m / t.hop_count for t in targets])
    ntu = np.array([t.turbidity_ntu for t in targets])
    return np.column_stack([-d, -ntu * d, -np.ones_like(d)])


def _free_columns(a: np.ndarray, fixed) -> list[int]:
    """Indices into _FREE_FIELDS of what calibrate fits, for design matrix a."""

    def identifiable(cols: list[int]) -> bool:
        return np.linalg.matrix_rank(a[:, cols]) == len(cols)

    free = [i for i, name in enumerate(_FREE_FIELDS) if name not in fixed]
    if not identifiable(free) and 0 in free:
        free.remove(0)  # held at its ChannelParams default
    if not identifiable(free):
        raise ValueError(
            f"the targets cannot identify {[_FREE_FIELDS[i] for i in free]}; "
            "add targets at other distances or turbidities, or fix one"
        )
    return free


def fitted_fields(targets, fixed=()) -> tuple[str, ...]:
    """The parameters calibrate fits to these CalibrationTargets.

    Of clear_water_attenuation, turbidity_slope and noise_sigma, those not
    named in `fixed` are fitted, except that clear_water_attenuation is held
    when the targets cannot identify it together with the rest (see
    calibrate).  Raises ValueError if they still cannot.
    """
    return tuple(_FREE_FIELDS[i] for i in _free_columns(_design_matrix(targets), fixed))


def calibrate(
    targets,
    fixed: dict[str, float] | None = None,
    tolerance: float = 0.005,
    node_ids=None,
) -> ChannelParams:
    """Fit free channel coefficients to measured cumulative PSR targets.

    targets: iterable of CalibrationTarget or (ntu, distance_m, hops, psr)
    tuples.  fixed: field name -> value for parameters held constant;
    anything in {clear_water_attenuation, turbidity_slope, noise_sigma} not
    fixed is fitted.  Every other field comes from `fixed` or its
    ChannelParams default - the error rate depends only on the
    source/noise ratio, so the source level just sets the lux scale.

    The fit is closed form.  All hops of a target share one link (distance
    d = D/H, its turbidity, no extra loss), hence one BER, and the target
    PSR is (1 - ber)^(10 * sum of its frame lengths): inverting that gives
    the required x = rx / (2 sigma) (_signal_for_success).  Then

        ln x = ln(source_lux / 2) - ln sigma - c0 * d - slope * NTU * d

    is linear in (ln sigma, c0, slope).  Fixed parameters move to the
    right-hand side and the rest is solved by least squares in ln x under
    c0 >= 0 and slope >= 0, by trying each set of bounds held at zero and
    keeping the feasible solution with the least squared error (the first
    in a fixed order on ties).

    Targets that all share one per-hop distance cannot tell c0 from sigma.
    When the free parameters are not identifiable and c0 is free, c0 is
    held at its ChannelParams default (pass it in `fixed`, or `--fix
    clear_water_attenuation=X` on the command line, to hold another
    value); if they still are not, ValueError names them.  Raises
    CalibrationDiverged if any per-target PSR residual exceeds
    `tolerance`, as for targets that need a negative coefficient;
    ValueError unless `tolerance` is finite and >= 0, or if the fixed values
    leave no fit whose squared error is finite and whose sigma is a float > 0.
    """
    if as_float(tolerance, "tolerance") < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    targets = tuple(
        t if isinstance(t, CalibrationTarget) else CalibrationTarget(*t)
        for t in targets
    )
    if not targets:
        raise ValueError("need at least one calibration target")
    fixed = dict(fixed or {})
    unknown = set(fixed) - {f.name for f in fields(ChannelParams)}
    if unknown:
        raise ValueError(f"unknown fixed parameter(s): {sorted(unknown)}")
    base = replace(ChannelParams(), **fixed)

    lengths = [_nominal_lengths(t.hop_count, node_ids) for t in targets]
    log_x = [
        math.log(_signal_for_success(t.target_psr, sum(hop_lengths)))
        for t, hop_lengths in zip(targets, lengths)
    ]
    # y = a @ theta, theta = (c0, slope, ln sigma) in _FREE_FIELDS order
    y = np.array(log_x) - math.log(base.source_lux / 2.0)
    a = _design_matrix(targets)
    theta = np.array(
        [
            base.clear_water_attenuation,
            base.turbidity_slope,
            math.log(base.noise_sigma),
        ]
    )
    free = _free_columns(a, fixed)

    signed = [i for i in free if i < 2]  # c0 >= 0 and slope >= 0
    bounds = (c for k in range(len(signed) + 1) for c in combinations(signed, k))
    best_err, best = math.inf, theta
    with np.errstate(over="ignore", invalid="ignore"):  # checked after the loop
        for zeros in bounds:
            keep = [i for i in free if i not in zeros]
            rest = [i for i in range(3) if i not in keep]
            cand = theta.copy()
            cand[list(zeros)] = 0.0
            if keep:
                cand[keep] = np.linalg.lstsq(
                    a[:, keep], y - a[:, rest] @ cand[rest], rcond=None
                )[0]
            err = float(np.sum((a @ cand - y) ** 2))
            if (cand[signed] >= 0).all() and err < best_err:
                best_err, best = err, cand

    fitted = {_FREE_FIELDS[i]: float(best[i]) for i in free}
    if "noise_sigma" in fitted:
        try:
            fitted["noise_sigma"] = math.exp(fitted["noise_sigma"])
        except OverflowError:
            fitted["noise_sigma"] = math.inf
    if best_err == math.inf or not 0.0 < fitted.get("noise_sigma", 1.0) < math.inf:
        raise ValueError(f"fixed values {fixed} leave no finite fit")
    params = replace(base, **fitted)
    residuals = tuple(
        abs(_path_psr(params, t, hop_lengths) - t.target_psr)
        for t, hop_lengths in zip(targets, lengths)
    )
    if max(residuals) > tolerance:
        raise CalibrationDiverged(residuals, tolerance)
    return params


def fit_link_loss_overrides(
    params: ChannelParams,
    distances,
    turbidity_ntu: float,
    first_hop_psr: float,
    final_psr: float,
    node_ids=None,
) -> tuple[ChannelParams, tuple[float, ...]]:
    """Fit a hop-heterogeneous profile through two cumulative anchors.

    Returns (adjusted params, per-link extra_loss) such that the closed-form
    cumulative PSR at `turbidity_ntu` passes through first_hop_psr after
    hop 1 and final_psr after the last hop.  Hops 2..H keep extra_loss = 1;
    their common BER is met by rescaling noise_sigma (extra_loss is capped
    at 1, so a first hop *worse* than the rest can only be expressed by
    making the other hops cleaner).  Link 1 then gets extra_loss < 1.

    The fit is closed form, as in calibrate: hops 2..H share one distance,
    hence one BER, and must pass final_psr / first_hop_psr of the frames
    that reach hop 2; inverting gives the required x = rx / (2 sigma)
    (_signal_for_success), and so sigma.  Raises ValueError if hops 2..H
    differ in distance or either anchor needs a BER of 0.5 or more.
    """
    distances = tuple(distances)
    hops = len(distances)
    if hops < 2:
        raise ValueError("need at least two hops to shape a profile")
    if len(set(distances[1:])) != 1:
        raise ValueError("hops 2..H must share one distance")
    if not 0.0 < final_psr < first_hop_psr < 1.0:
        raise ValueError("need 0 < final_psr < first_hop_psr < 1")
    lengths = _nominal_lengths(hops, node_ids)

    x = _signal_for_success(final_psr / first_hop_psr, sum(lengths[1:]))
    sigma = attenuate(params, LinkSpec(distances[1], turbidity_ntu)) / (2.0 * x)

    adjusted = replace(params, noise_sigma=sigma)
    rx_clean = attenuate(adjusted, LinkSpec(distances[0], turbidity_ntu))
    rx_needed = 2.0 * sigma * _signal_for_success(first_hop_psr, lengths[0])
    if rx_needed > rx_clean:
        raise ValueError(
            f"first hop needs {rx_needed:.4g} lux and receives {rx_clean:.4g}; "
            "first_hop_psr is better than the clean-link model allows"
        )
    return adjusted, (rx_needed / rx_clean,) + (1.0,) * (hops - 1)
