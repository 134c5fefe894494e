"""
Calibrate, then reproduce the tank measurements
===============================================

Fits the channel coefficients to two measured anchors - 95% end-to-end
packet success in near-clear water and 89% at 70 NTU, both over four 4 m
hops - then Monte-Carlo-simulates the full relay line across a turbidity
sweep and compares against the closed-form prediction.
"""

from uwocnet import (
    CalibrationTarget,
    cumulative_path_success,
    calibrate,
    hop_frame_lengths,
    linear_topology,
    model_cumulative_psr,
    sweep,
)

anchors = [
    CalibrationTarget(turbidity_ntu=0.01, total_distance_m=16.0,
                      hop_count=4, target_psr=0.95),
    CalibrationTarget(turbidity_ntu=70.0, total_distance_m=16.0,
                      hop_count=4, target_psr=0.89),
]

params = calibrate(anchors)
print("fitted channel:")
print(f"  clear-water attenuation  {params.clear_water_attenuation:.6f} /m")
print(f"  turbidity slope          {params.turbidity_slope:.3e} /(m*NTU)")
print(f"  receiver noise sigma     {params.noise_sigma:.4f} lux")
for anchor in anchors:
    model = model_cumulative_psr(params, anchor)
    print(f"  anchor {anchor.turbidity_ntu:>5} NTU: model {model:.6f} "
          f"(target {anchor.target_psr}, residual {abs(model - anchor.target_psr):.2e})")

topology = linear_topology(range(5))
turbidities = [0.01, 10, 20, 30, 40, 50, 60, 70]
rounds = 20_000
reports = sweep(topology, params, turbidities, rounds, seed=42)

lengths = hop_frame_lengths(topology.node_ids[:-1])
print(f"\ncumulative PSR after hop 4, {rounds} rounds per point:")
print(f"{'ntu':>6} {'simulated':>10} {'closed form':>12}")
for report in reports:
    closed = cumulative_path_success(
        params, topology.with_turbidity(report.turbidity_ntu).links, lengths
    )[-1]
    print(f"{report.turbidity_ntu:>6.2f} "
          f"{report.hops[-1].cumulative_psr:>10.4f} {closed:>12.4f}")

print("\nper-hop detail at 70 NTU:")
last = reports[-1]
print(f"{'hop':>4} {'attempted':>10} {'delivered':>10} "
      f"{'per-hop':>8} {'cumulative':>11} {'rx lux':>8}")
for hop in last.hops:
    print(f"{hop.hop_index:>4} {hop.packets_attempted:>10} "
          f"{hop.packets_delivered:>10} {hop.per_hop_psr:>8.4f} "
          f"{hop.cumulative_psr:>11.4f} {hop.rx_lux:>8.3f}")
