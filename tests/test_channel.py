"""Optical channel model: attenuation, OOK BER, PSR, calibration."""

import math
import random
from dataclasses import replace
from decimal import Decimal, getcontext

import mpmath as mp
import pytest

from uwocnet.channel import (
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

PAPER_TARGETS = [
    CalibrationTarget(0.01, 16.0, 4, 0.95),
    CalibrationTarget(70.0, 16.0, 4, 0.89),
]


def params_with(**kwargs) -> ChannelParams:
    base = dict(
        source_lux=1000.0,
        clear_water_attenuation=0.05,
        turbidity_slope=0.005,
        ambient_lux=100.0,
        noise_sigma=1.0,
    )
    base.update(kwargs)
    return ChannelParams(**base)


# --- attenuate ---------------------------------------------------------------


def test_attenuate_zero_distance_limit():
    p = params_with()
    assert attenuate(p, LinkSpec(1e-12, 50.0)) == pytest.approx(1000.0, rel=1e-9)
    assert attenuate(p, LinkSpec(1e-12, 50.0, extra_loss=0.5)) == pytest.approx(
        500.0, rel=1e-9
    )


def test_attenuate_lossless_water():
    p = params_with(clear_water_attenuation=0.0, turbidity_slope=0.0)
    for d in (0.5, 4.0, 16.0, 200.0):
        assert attenuate(p, LinkSpec(d, 70.0)) == 1000.0
        assert attenuate(p, LinkSpec(d, 70.0, extra_loss=0.25)) == 250.0


def test_attenuate_against_high_precision_oracle():
    # independent oracle: Decimal exponential, 50 digits
    getcontext().prec = 50
    oracle = float(Decimal(1000) * Decimal("-0.2").exp())
    assert oracle == pytest.approx(818.7307530779818, abs=1e-9)
    p = params_with(clear_water_attenuation=0.05, turbidity_slope=0.0)
    assert attenuate(p, LinkSpec(4.0)) == pytest.approx(oracle, rel=1e-12)


def test_attenuate_strictly_monotonic():
    rng = random.Random(3)
    for _ in range(100):
        p = params_with(
            clear_water_attenuation=rng.uniform(0.01, 1.0),
            turbidity_slope=rng.uniform(1e-5, 0.01),
        )
        d = rng.uniform(0.5, 30.0)
        ntu = rng.uniform(0.0, 100.0)
        base = attenuate(p, LinkSpec(d, ntu))
        assert attenuate(p, LinkSpec(d * 1.1, ntu)) < base
        assert attenuate(p, LinkSpec(d, ntu + 5.0)) < base
        assert 0.0 < base <= p.source_lux


# --- ook_ber ------------------------------------------------------------------


def test_ber_indistinguishable_levels():
    assert ook_ber(0.0, params_with()) == 0.5


def test_ber_noiseless_limit():
    assert ook_ber(1.0, params_with(noise_sigma=1e-12)) == 0.0


def test_ber_unit_argument_against_erfc_oracle():
    # received/(2 sigma) = 1 -> Q(1); oracle via mpmath erfc at 50 digits
    mp.mp.dps = 50
    oracle = float(mp.mpf("0.5") * mp.erfc(1 / mp.sqrt(2)))
    assert oracle == pytest.approx(0.158655253931457, abs=1e-12)
    assert ook_ber(2.0, params_with(noise_sigma=1.0)) == pytest.approx(
        oracle, abs=1e-12
    )


def test_q_function_accuracy_over_zero_to_eight():
    mp.mp.dps = 50
    for i in range(161):
        x = i / 20.0
        oracle = float(mp.mpf("0.5") * mp.erfc(mp.mpf(x) / mp.sqrt(2)))
        assert abs(q_function(x) - oracle) < 1e-9


def test_q_inverse_roundtrip():
    for p in (0.4, 0.1, 1e-3, 1e-6, 1e-9):
        assert q_function(q_inverse(p)) == pytest.approx(p, rel=1e-9)


def test_ber_range_and_monotonicity():
    p = params_with()
    prev = 0.5
    for rx in [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 500.0]:
        ber = ook_ber(rx, p)
        assert 0.0 <= ber <= 0.5
        assert ber <= prev
        prev = ber


# --- packet_success -----------------------------------------------------------


def test_packet_success_trivial():
    assert packet_success(0.0, 17) == 1.0
    assert packet_success(1.0, 1) == 0.0
    assert packet_success(1.0, 200) == 0.0


def test_packet_success_against_decimal_oracle():
    getcontext().prec = 50
    oracle = float(Decimal("0.999") ** 100)
    assert oracle == pytest.approx(0.904792147113709, abs=1e-12)
    assert packet_success(0.001, 10) == pytest.approx(oracle, rel=1e-12)


def test_packet_success_monotonic():
    rng = random.Random(17)
    for _ in range(100):
        ber = rng.uniform(1e-6, 0.2)
        nbytes = rng.randint(1, 60)
        ps = packet_success(ber, nbytes)
        assert 0.0 <= ps <= 1.0
        assert packet_success(ber * 1.5, nbytes) < ps
        assert packet_success(ber, nbytes + 1) < ps


def test_cumulative_path_success_shrinks_per_hop():
    p = params_with(noise_sigma=80.0)  # noisy enough for a nonzero BER
    links = [LinkSpec(4.0, 10.0)] * 4
    lengths = hop_frame_lengths(range(4))
    cum = cumulative_path_success(p, links, lengths)
    assert len(cum) == 4
    assert link_ber(p, links[0]) > 0.0
    assert all(b < a for a, b in zip(cum, cum[1:]))


def test_hop_frame_lengths_match_line_growth():
    # ids 0..3: node id 0 escapes, so lengths are 8, 12, 16, 20
    assert hop_frame_lengths(range(4)) == [8, 12, 16, 20]


# --- parameter validation -------------------------------------------------------


def test_channel_params_validation():
    with pytest.raises(ValueError):
        params_with(source_lux=0.0)
    with pytest.raises(ValueError):
        params_with(clear_water_attenuation=-0.1)
    with pytest.raises(ValueError):
        params_with(turbidity_slope=-1e-9)
    with pytest.raises(ValueError):
        params_with(ambient_lux=20000.0)
    with pytest.raises(ValueError):
        params_with(noise_sigma=0.0)
    with pytest.raises(ValueError):
        params_with(source_lux=math.inf)


def test_link_spec_validation():
    with pytest.raises(ValueError):
        LinkSpec(0.0)
    with pytest.raises(ValueError):
        LinkSpec(4.0, -1.0)
    with pytest.raises(ValueError):
        LinkSpec(4.0, 0.0, extra_loss=1.5)
    with pytest.raises(ValueError):
        LinkSpec(4.0, 0.0, extra_loss=0.0)


# --- calibration ----------------------------------------------------------------


def test_calibrate_paper_anchor_pair():
    params = calibrate(PAPER_TARGETS)
    for target in PAPER_TARGETS:
        residual = abs(model_cumulative_psr(params, target) - target.target_psr)
        assert residual <= 0.005


def test_calibrate_single_target_with_fixed_slope():
    params = calibrate(
        [CalibrationTarget(0.01, 4.0, 1, 0.97)],
        fixed={"turbidity_slope": 0.0, "noise_sigma": 1.0},
    )
    assert params.turbidity_slope == 0.0
    residual = abs(
        model_cumulative_psr(params, CalibrationTarget(0.01, 4.0, 1, 0.97)) - 0.97
    )
    assert residual < 1e-9


def test_calibrate_recovers_synthetic_ground_truth():
    truth = params_with(
        clear_water_attenuation=0.55, turbidity_slope=3e-4, noise_sigma=12.0
    )
    turbidities = (0.01, 25.0, 70.0)
    targets = [
        CalibrationTarget(
            ntu, 16.0, 4, model_cumulative_psr(truth, CalibrationTarget(ntu, 16.0, 4, 0.5))
        )
        for ntu in turbidities
    ]
    fitted = calibrate(targets)
    for target in targets:
        assert abs(
            model_cumulative_psr(fitted, target) - target.target_psr
        ) <= 0.005


def test_calibrate_idempotent_within_one_percent():
    first = calibrate(PAPER_TARGETS)
    echoed = [
        CalibrationTarget(t.turbidity_ntu, 16.0, 4, model_cumulative_psr(first, t))
        for t in PAPER_TARGETS
    ]
    second = calibrate(echoed)
    for name in ("clear_water_attenuation", "turbidity_slope", "noise_sigma"):
        a = getattr(first, name)
        b = getattr(second, name)
        assert abs(b - a) / abs(a) < 0.01


def test_calibrate_with_custom_node_ids():
    # ids without node 0 make every frame one byte shorter (no id escape)
    ids = (10, 11, 12, 13)
    params = calibrate(PAPER_TARGETS, node_ids=ids)
    for target in PAPER_TARGETS:
        residual = abs(
            model_cumulative_psr(params, target, ids) - target.target_psr
        )
        assert residual <= 0.005
    assert hop_frame_lengths(ids) == [7, 11, 15, 19]
    with pytest.raises(ValueError):
        model_cumulative_psr(params, PAPER_TARGETS[0], (10, 11))


def test_calibrate_input_validation():
    with pytest.raises(ValueError):
        calibrate([])
    with pytest.raises(ValueError):
        # slope free but only one turbidity represented
        calibrate([CalibrationTarget(5.0, 16.0, 4, 0.9)])
    with pytest.raises(ValueError):
        calibrate(PAPER_TARGETS, fixed={"no_such_param": 1.0})


def test_calibrate_diverges_on_contradictory_targets():
    # PSR rising with turbidity cannot be expressed with slope >= 0
    targets = [
        CalibrationTarget(0.01, 16.0, 4, 0.50),
        CalibrationTarget(70.0, 16.0, 4, 0.99),
    ]
    with pytest.raises(CalibrationDiverged) as exc:
        calibrate(targets)
    assert max(exc.value.residuals) > 0.005


def test_calibrate_recovers_three_coefficients_from_two_distances():
    # two per-hop distances separate c0 from sigma, so nothing is held
    truth = params_with(
        clear_water_attenuation=0.55, turbidity_slope=3e-4, noise_sigma=40.0
    )
    shapes = ((0.01, 16.0, 4), (70.0, 16.0, 4), (30.0, 8.0, 4))
    targets = [
        CalibrationTarget(ntu, dist, hops, model_cumulative_psr(
            truth, CalibrationTarget(ntu, dist, hops, 0.5)
        ))
        for ntu, dist, hops in shapes
    ]
    fitted = calibrate(targets)
    for name in ("clear_water_attenuation", "turbidity_slope", "noise_sigma"):
        assert getattr(fitted, name) == pytest.approx(
            getattr(truth, name), rel=1e-9
        )


def test_calibrate_paper_anchors_exact_with_default_c0_held():
    params = calibrate(PAPER_TARGETS)
    for target in PAPER_TARGETS:
        assert abs(model_cumulative_psr(params, target) - target.target_psr) <= 1e-12
    # one per-hop distance cannot tell c0 from sigma: c0 keeps its default
    assert params.clear_water_attenuation == ChannelParams().clear_water_attenuation
    held = calibrate(PAPER_TARGETS, fixed={"clear_water_attenuation": 0.3})
    assert held.clear_water_attenuation == 0.3
    assert held.turbidity_slope == pytest.approx(params.turbidity_slope, rel=1e-9)


def test_calibrate_unidentifiable_targets_raise():
    # equal NTU * distance-per-hop: slope and sigma stay confounded with c0 held
    targets = [
        CalibrationTarget(10.0, 16.0, 4, 0.9),
        CalibrationTarget(20.0, 8.0, 4, 0.8),
    ]
    with pytest.raises(ValueError, match="turbidity_slope"):
        calibrate(targets)


def test_calibrate_rejects_psr_below_half_ber_floor():
    # one 8-byte frame at BER 0.5 still survives with probability 2^-80
    fixed = {"turbidity_slope": 0.0, "noise_sigma": 1.0}
    with pytest.raises(ValueError, match="BER of at least 0.5"):
        calibrate([CalibrationTarget(0.01, 4.0, 1, 1e-30)], fixed=fixed)


# --- heterogeneous hop profile ---------------------------------------------------


def test_fit_link_loss_overrides_passes_anchors():
    params = calibrate(PAPER_TARGETS)
    adjusted, losses = fit_link_loss_overrides(params, [4.0] * 4, 70.0, 0.91, 0.89)
    assert len(losses) == 4
    assert all(0.0 < x <= 1.0 for x in losses)
    assert losses[1:] == (1.0, 1.0, 1.0)
    links = [
        LinkSpec(4.0, 70.0, extra_loss=loss) for loss in losses
    ]
    cum = cumulative_path_success(adjusted, links, hop_frame_lengths(range(4)))
    assert cum[0] == pytest.approx(0.91, abs=1e-6)
    assert cum[-1] == pytest.approx(0.89, abs=1e-6)
    # Beer-Lambert coefficients untouched; only the noise scale moved
    assert adjusted.clear_water_attenuation == params.clear_water_attenuation
    assert adjusted.turbidity_slope == params.turbidity_slope


def test_fit_link_loss_overrides_rejects_impossible_profile():
    params = calibrate(PAPER_TARGETS)
    with pytest.raises(ValueError):
        fit_link_loss_overrides(params, [4.0] * 4, 70.0, 0.89, 0.91)


def test_fit_link_loss_overrides_input_validation():
    params = calibrate(PAPER_TARGETS)
    # hops 2..H share one BER only when they share one distance
    with pytest.raises(ValueError, match="share one distance"):
        fit_link_loss_overrides(params, [4.0, 4.0, 5.0, 4.0], 70.0, 0.91, 0.89)
    # one transmitting node id per hop; ids beyond the last hop are unused
    with pytest.raises(ValueError, match="node ids"):
        fit_link_loss_overrides(params, [4.0] * 4, 70.0, 0.91, 0.89, node_ids=[0, 1])
    assert fit_link_loss_overrides(
        params, [4.0] * 4, 70.0, 0.91, 0.89, node_ids=range(6)
    ) == fit_link_loss_overrides(params, [4.0] * 4, 70.0, 0.91, 0.89)


def test_attenuation_coefficient_linear_in_turbidity():
    p = params_with(clear_water_attenuation=0.1, turbidity_slope=0.002)
    assert p.attenuation_at(0.0) == pytest.approx(0.1)
    assert p.attenuation_at(50.0) == pytest.approx(0.2)


def test_replace_keeps_validation():
    p = params_with()
    with pytest.raises(ValueError):
        replace(p, noise_sigma=-1.0)
