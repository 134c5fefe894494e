"""
Hop-heterogeneous link quality
==============================

A uniform line cannot make the first hop the worst one, yet measurements
sometimes show exactly that (91% after one hop, 89% after four, in the
same water).  This demo fits per-link loss overrides that push the
cumulative PSR curve through both points and verifies them by simulation.
"""

from uwocnet import (
    CalibrationTarget,
    calibrate,
    cumulative_path_success,
    fit_link_loss_overrides,
    hop_frame_lengths,
    linear_topology,
    run_scenario,
)

params = calibrate(
    [
        CalibrationTarget(0.01, 16.0, 4, 0.95),
        CalibrationTarget(70.0, 16.0, 4, 0.89),
    ]
)

adjusted, losses = fit_link_loss_overrides(
    params,
    distances=[4.0, 4.0, 4.0, 4.0],
    turbidity_ntu=70.0,
    first_hop_psr=0.91,
    final_psr=0.89,
)
print("per-link extra loss factors:", [f"{x:.4f}" for x in losses])
print(f"noise sigma {params.noise_sigma:.4f} -> {adjusted.noise_sigma:.4f} lux")

topology = linear_topology(range(5), turbidity_ntu=70.0, extra_loss=losses)
closed = cumulative_path_success(
    adjusted, topology.links, hop_frame_lengths(topology.node_ids[:-1])
)
report = run_scenario(topology, adjusted, 20_000, seed=7)

print("\ncumulative PSR at 70 NTU:")
print(f"{'after hop':>10} {'closed form':>12} {'simulated':>10}")
for hop, model in zip(report.hops, closed):
    print(f"{hop.hop_index + 1:>10} {model:>12.4f} {hop.cumulative_psr:>10.4f}")

print(
    "\nthis scenario ships as demos/configs/heterogeneous.cfg, fitted from an"
    "\nearlier calibration with another clear-water attenuation on the same"
    "\nc0/noise ridge (the same per-hop BERs at 70 NTU):"
)
print("  uwocnet sweep --config demos/configs/heterogeneous.cfg --turbidity 70")
